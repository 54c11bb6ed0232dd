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

#include <map>

#include "isa/reg_usage.hh"

namespace icp
{

struct Function; // analysis/cfg.hh

/** Live-register sets at block boundaries of one function. */
class LivenessResult
{
  public:
    /** Registers live at the start of the block at @p block_start. */
    RegSet liveAtBlockStart(Addr block_start) const;

    /**
     * A dead general-purpose register at the start of the block, or
     * Reg::none when everything may be live.
     */
    Reg deadRegAt(Addr block_start) const;

    std::map<Addr, RegSet> liveIn; ///< keyed by block start
};

/**
 * Compute liveness for @p func: one set per block. Indirect control
 * flow leaving the function conservatively treats every register as
 * live.
 */
LivenessResult computeLiveness(const Function &func,
                               const ArchInfo &arch);

} // namespace icp

#endif // ICP_ANALYSIS_LIVENESS_HH
