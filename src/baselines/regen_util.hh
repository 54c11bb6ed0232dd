/**
 * @file
 * Shared logic of the regenerating baselines (IR lowering, BOLT):
 * after whole-binary code regeneration, every function-pointer
 * definition must be re-targeted at the regenerated entries.
 */

#ifndef ICP_BASELINES_REGEN_UTIL_HH
#define ICP_BASELINES_REGEN_UTIL_HH

#include "analysis/cfg.hh"
#include "rewrite/engine.hh"

namespace icp
{

/**
 * Rewrite all function-pointer definitions of @p cfg in @p out:
 * relocation-backed cells, data-scan cells, and code-immediate /
 * pc-relative definitions inside the regenerated text section
 * @p new_text. Returns the number of rewritten definitions.
 */
std::uint64_t rewriteRegeneratedFuncPtrs(BinaryImage &out,
                                         Section &new_text,
                                         const CfgModule &cfg,
                                         const Engine &engine);

} // namespace icp

#endif // ICP_BASELINES_REGEN_UTIL_HH
