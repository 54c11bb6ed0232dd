/**
 * @file
 * Jump-table analysis (§5.1): backward slicing from an indirect
 * jump, implemented as an abstract interpretation over the
 * containing block. Recognizes the per-arch table idioms emitted by
 * mainstream compilers (PIC-relative x64 tables, absolute x64
 * tables, TOC-addressed code-embedded ppc64le tables, anchor-
 * relative sub-word aarch64 tables) and reports failure when the
 * value chain escapes the window — e.g. through a stack spill.
 *
 * A failure-injection plan reproduces Figure 2's three failure
 * modes on demand: analysis reporting failure, over-approximation,
 * and under-approximation of the table extent.
 */

#ifndef ICP_ANALYSIS_JUMP_TABLE_HH
#define ICP_ANALYSIS_JUMP_TABLE_HH

#include <optional>
#include <span>

#include "analysis/cfg.hh"

namespace icp
{

/** Deterministic failure injection for Figure 2 experiments. */
struct JumpTableFailurePlan
{
    double failProb = 0.0;  ///< force "analysis reporting failure"
    double overProb = 0.0;  ///< inflate the entry count
    double underProb = 0.0; ///< cut the entry count
    unsigned overExtra = 4;
    unsigned underCut = 2;
    std::uint64_t seed = 0;

    bool
    enabled() const
    {
        return failProb > 0 || overProb > 0 || underProb > 0;
    }
};

class JumpTableAnalyzer
{
  public:
    JumpTableAnalyzer(const BinaryImage &image,
                      const JumpTableFailurePlan &plan);

    /**
     * Analyze the indirect jump terminating the instructions of
     * @p block. @p layout_pred holds those of the block that falls
     * through into it (with the bounds check), or none when unknown.
     *
     * @return the resolved table, or nullopt (analysis reporting
     *         failure).
     */
    std::optional<JumpTable>
    analyze(std::span<const Instruction> block,
            std::span<const Instruction> layout_pred) const;

  private:
    const BinaryImage &image_;
    JumpTableFailurePlan plan_;
};

} // namespace icp

#endif // ICP_ANALYSIS_JUMP_TABLE_HH
