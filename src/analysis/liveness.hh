/**
 * @file
 * Backward register liveness over a function CFG (§7): the long
 * trampoline sequences on ppc64le and aarch64 need a scratch
 * register to hold the branch target, found by this analysis.
 * buildCfg runs it for every function on a fixed-length ISA and
 * keeps the result in Function::liveness.
 */

#ifndef ICP_ANALYSIS_LIVENESS_HH
#define ICP_ANALYSIS_LIVENESS_HH

#include <vector>

#include "isa/reg_usage.hh"

namespace icp
{

struct Function; // analysis/cfg.hh

/**
 * Live-register sets at block starts of one function, one per index
 * of its Function::blocks (Function::liveAtBlockStart looks a start
 * up by binary search).
 */
class LivenessResult
{
  public:
    /** Registers live at the start of block @p index: every register
     *  when no set was computed for it. */
    RegSet liveAt(std::size_t index) const;

    /**
     * A dead general-purpose register at the start of block
     * @p index, or Reg::none when everything may be live.
     */
    Reg deadRegAt(std::size_t index) const;

    std::vector<RegSet> liveIn; ///< by block index; empty on x86-64

    bool operator==(const LivenessResult &) const = default;
};

/**
 * Compute liveness for @p func: one set per block, in block order.
 * Indirect control flow leaving the function conservatively treats
 * every register as live.
 */
LivenessResult computeLiveness(const Function &func,
                               const ArchInfo &arch);

} // namespace icp

#endif // ICP_ANALYSIS_LIVENESS_HH
