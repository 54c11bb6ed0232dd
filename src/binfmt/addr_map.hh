/**
 * @file
 * Sorted address-pair maps serialized into sections: the .ra_map
 * (relocated return address -> original return address) and the
 * .trap_map (trap trampoline site -> relocated target). The runtime
 * library parses these blobs from the rewritten binary, exactly as
 * the paper's LD_PRELOAD library extracts its mapping.
 */

#ifndef ICP_BINFMT_ADDR_MAP_HH
#define ICP_BINFMT_ADDR_MAP_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace icp
{

/**
 * An immutable sorted map from one address to another with O(log n)
 * lookup, plus a compact byte serialization.
 */
class AddrPairMap
{
  public:
    AddrPairMap() = default;

    /** Build from unsorted pairs; duplicate keys are an error. */
    explicit AddrPairMap(std::vector<std::pair<Addr, Addr>> pairs);

    /** Translate @p key; nullopt when absent. */
    std::optional<Addr> lookup(Addr key) const;

    std::size_t size() const { return pairs_.size(); }
    bool empty() const { return pairs_.empty(); }

    const std::vector<std::pair<Addr, Addr>> &pairs() const
    {
        return pairs_;
    }

    std::vector<std::uint8_t> serialize() const;

    /**
     * Parse serialize()'s bytes; nullopt when they are not exactly
     * one pair list or two pairs share a key.
     */
    static std::optional<AddrPairMap>
    parse(const std::vector<std::uint8_t> &bytes);

  private:
    std::vector<std::pair<Addr, Addr>> pairs_; // sorted by first
};

} // namespace icp

#endif // ICP_BINFMT_ADDR_MAP_HH
