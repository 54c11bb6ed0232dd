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
 * Rewrite all function-pointer definitions of @p cfg in @p out at
 * their funcPtrTarget(): relocation-backed cells, data-scan cells,
 * and code-immediate / pc-relative definitions inside out's .text,
 * which holds the regenerated code. Returns the number of rewritten
 * definitions.
 */
std::uint64_t rewriteRegeneratedFuncPtrs(BinaryImage &out,
                                         const CfgModule &cfg,
                                         const Engine &engine);

/**
 * Point every function symbol of @p out that @p engine relocated at
 * its regenerated code: the span's base and emitted size. Run after
 * the original .text moved to the engine's instrBase, where the
 * original addresses no longer lie in any section.
 */
void relocateFunctionSymbols(BinaryImage &out, const Engine &engine);

} // namespace icp

#endif // ICP_BASELINES_REGEN_UTIL_HH
