#include "binfmt/addr_map.hh"

#include <algorithm>

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

namespace
{

using Pairs = std::vector<std::pair<Addr, Addr>>;

/** Sort @p pairs; the first of two pairs sharing a key, or end(). */
Pairs::const_iterator
sortFindDuplicate(Pairs &pairs)
{
    std::sort(pairs.begin(), pairs.end());
    return std::adjacent_find(
        pairs.begin(), pairs.end(),
        [](const auto &a, const auto &b) { return a.first == b.first; });
}

} // namespace

AddrPairMap::AddrPairMap(std::vector<std::pair<Addr, Addr>> pairs)
    : pairs_(std::move(pairs))
{
    const auto dup = sortFindDuplicate(pairs_);
    icp_assert(dup == pairs_.end(), "AddrPairMap: duplicate key 0x%llx",
               static_cast<unsigned long long>(dup->first));
}

std::optional<Addr>
AddrPairMap::lookup(Addr key) const
{
    auto it = std::lower_bound(
        pairs_.begin(), pairs_.end(), key,
        [](const std::pair<Addr, Addr> &p, Addr k) {
            return p.first < k;
        });
    if (it == pairs_.end() || it->first != key)
        return std::nullopt;
    return it->second;
}

std::vector<std::uint8_t>
AddrPairMap::serialize() const
{
    std::vector<std::uint8_t> out;
    putU32(out, static_cast<std::uint32_t>(pairs_.size()));
    for (const auto &[from, to] : pairs_) {
        putU64(out, from);
        putU64(out, to);
    }
    return out;
}

std::optional<AddrPairMap>
AddrPairMap::parse(const std::vector<std::uint8_t> &bytes)
{
    ByteReader rd(bytes);
    const std::uint32_t count = rd.u32();
    if (rd.failed() || rd.remaining() != std::uint64_t{count} * 16)
        return std::nullopt;
    AddrPairMap map;
    map.pairs_.resize(count);
    for (auto &[from, to] : map.pairs_) {
        from = rd.u64();
        to = rd.u64();
    }
    if (sortFindDuplicate(map.pairs_) != map.pairs_.end())
        return std::nullopt;
    return map;
}

} // namespace icp
