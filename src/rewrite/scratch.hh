/**
 * @file
 * The scratch-space pool of §7: byte ranges in the original image
 * that are provably never executed or no longer used — inter-function
 * nop padding, scratch basic blocks, and the retired dynamic-linking
 * sections — from which multi-hop trampolines allocate their long
 * branch sequences.
 */

#ifndef ICP_REWRITE_SCRATCH_HH
#define ICP_REWRITE_SCRATCH_HH

#include <map>
#include <optional>

#include "support/types.hh"

namespace icp
{

class ScratchPool
{
  public:
    /** Donate [start, start+len) to the pool. */
    void donate(Addr start, std::uint64_t len, unsigned align = 1);

    /**
     * Allocate @p len bytes whose start lies within ± @p range of
     * @p near (range 0 = anywhere), aligned to @p align.
     */
    std::optional<Addr> allocate(std::uint64_t len, Addr near,
                                 std::int64_t range, unsigned align);

    std::uint64_t bytesFree() const;

  private:
    std::map<Addr, std::uint64_t> free_; ///< start -> length
};

} // namespace icp

#endif // ICP_REWRITE_SCRATCH_HH
