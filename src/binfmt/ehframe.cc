#include "binfmt/ehframe.hh"

#include <algorithm>

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

std::optional<Offset>
FdeRecord::landingPadFor(Offset off) const
{
    for (const auto &range : tryRanges) {
        if (off >= range.startOff && off < range.endOff)
            return range.lpOff;
    }
    return std::nullopt;
}

std::vector<std::uint8_t>
serializeEhFrame(const std::vector<FdeRecord> &fdes)
{
    std::vector<std::uint8_t> out;
    putU32(out, static_cast<std::uint32_t>(fdes.size()));
    for (const auto &fde : fdes) {
        putU64(out, fde.start);
        putU64(out, fde.end);
        putU32(out, fde.frameSize);
        putU8(out, static_cast<std::uint8_t>(
            (fde.raOnStack ? 1 : 0) |
            (fde.savesCalleeSaved ? 2 : 0)));
        putU32(out, static_cast<std::uint32_t>(fde.raOffset));
        putU32(out, static_cast<std::uint32_t>(fde.tryRanges.size()));
        for (const auto &range : fde.tryRanges) {
            putU32(out, static_cast<std::uint32_t>(range.startOff));
            putU32(out, static_cast<std::uint32_t>(range.endOff));
            putU32(out, static_cast<std::uint32_t>(range.lpOff));
        }
    }
    return out;
}

std::optional<std::vector<FdeRecord>>
parseEhFrame(const std::vector<std::uint8_t> &bytes)
{
    // A record takes at least 29 bytes, which bounds the reserve.
    constexpr std::size_t min_record = 29;
    ByteReader rd(bytes);
    const std::uint32_t count = rd.u32();
    std::vector<FdeRecord> fdes;
    fdes.reserve(std::min<std::size_t>(count, rd.remaining() / min_record));
    for (std::uint32_t i = 0; i < count && !rd.failed(); ++i) {
        FdeRecord fde;
        fde.start = rd.u64();
        fde.end = rd.u64();
        fde.frameSize = rd.u32();
        const std::uint8_t flags = rd.u8();
        fde.raOnStack = (flags & 1) != 0;
        fde.savesCalleeSaved = (flags & 2) != 0;
        fde.raOffset = static_cast<std::int32_t>(rd.u32());
        for (std::uint32_t r = 0, ranges = rd.u32();
             r < ranges && !rd.failed(); ++r) {
            TryRange range;
            range.startOff = rd.u32();
            range.endOff = rd.u32();
            range.lpOff = rd.u32();
            fde.tryRanges.push_back(range);
        }
        fdes.push_back(std::move(fde));
    }
    if (rd.failed() || rd.remaining() != 0)
        return std::nullopt;
    return fdes;
}

namespace
{

/**
 * Walk serialized records without materializing them. @p visit gets
 * each record's start, end and try-range count and the reader
 * positioned at its try ranges, and must consume them (read or skip
 * 12 bytes each). False when the bytes are not exactly one record
 * list, as parseEhFrame judges them.
 */
template <class Visit>
bool
walkFdes(const std::vector<std::uint8_t> &bytes, Visit &&visit)
{
    ByteReader rd(bytes);
    const std::uint32_t count = rd.u32();
    for (std::uint32_t i = 0; i < count && !rd.failed(); ++i) {
        const Addr start = rd.u64();
        const Addr end = rd.u64();
        rd.blob(4 + 1 + 4); // frame size, flags, ra offset
        const std::uint32_t ranges = rd.u32();
        if (!rd.failed())
            visit(start, end, ranges, rd);
    }
    return !rd.failed() && rd.remaining() == 0;
}

constexpr std::size_t try_range_bytes = 12;

} // namespace

std::optional<std::map<Addr, std::vector<TryRange>>>
parseTryRanges(const std::vector<std::uint8_t> &bytes,
               const std::vector<Addr> &starts)
{
    std::map<Addr, std::vector<TryRange>> out;
    const bool ok = walkFdes(bytes, [&](Addr start, Addr, std::uint32_t n,
                                        ByteReader &rd) {
        if (n == 0 ||
            !std::binary_search(starts.begin(), starts.end(), start)) {
            rd.blob(std::size_t{n} * try_range_bytes);
            return;
        }
        std::vector<TryRange> ranges;
        for (std::uint32_t r = 0; r < n && !rd.failed(); ++r) {
            TryRange range;
            range.startOff = rd.u32();
            range.endOff = rd.u32();
            range.lpOff = rd.u32();
            ranges.push_back(range);
        }
        out[start] = std::move(ranges);
    });
    if (!ok)
        return std::nullopt;
    return out;
}

FdeIndex::FdeIndex(std::vector<FdeRecord> fdes)
    : fdes_(std::move(fdes))
{
    std::stable_sort(fdes_.begin(), fdes_.end(),
                     [](const FdeRecord &a, const FdeRecord &b) {
                         return a.start < b.start;
                     });
}

const FdeRecord *
FdeIndex::find(Addr pc) const
{
    auto it = std::upper_bound(
        fdes_.begin(), fdes_.end(), pc,
        [](Addr a, const FdeRecord &fde) { return a < fde.start; });
    if (it == fdes_.begin())
        return nullptr;
    --it;
    if (pc < it->end)
        return &*it;
    return nullptr;
}

std::vector<std::optional<std::pair<Addr, Addr>>>
coveringFdes(const std::vector<std::uint8_t> &bytes,
             const std::vector<Addr> &pcs)
{
    using Extent = std::pair<Addr, Addr>;
    std::vector<std::optional<Extent>> out(pcs.size());
    if (bytes.empty())
        return out;

    // find(pc) is the last record, in start order and then record
    // order, starting at or below pc. With records in start order
    // that is the latest record seen when the walk first passes pc:
    // each record settles the pcs below its start.
    std::optional<Extent> cur;
    std::size_t next = 0;
    bool ascending = true;
    const auto settle = [&](std::size_t stop) {
        for (; next < stop; ++next) {
            if (cur && pcs[next] < cur->second)
                out[next] = cur;
        }
    };
    const bool ok = walkFdes(bytes, [&](Addr start, Addr end,
                                        std::uint32_t n, ByteReader &rd) {
        rd.blob(std::size_t{n} * try_range_bytes);
        if (cur && start < cur->first)
            ascending = false;
        if (!ascending)
            return;
        settle(static_cast<std::size_t>(
            std::lower_bound(pcs.begin() + next, pcs.end(), start) -
            pcs.begin()));
        cur = Extent{start, end};
    });
    icp_assert(ok, "malformed .eh_frame");
    if (ascending) {
        settle(pcs.size());
        return out;
    }

    // Any other order: every extent, sorted by start as FdeIndex
    // sorts its records.
    out.assign(pcs.size(), std::nullopt);
    std::vector<Extent> all;
    walkFdes(bytes, [&](Addr start, Addr end, std::uint32_t n,
                        ByteReader &rd) {
        rd.blob(std::size_t{n} * try_range_bytes);
        all.emplace_back(start, end);
    });
    std::stable_sort(all.begin(), all.end(),
                     [](const Extent &a, const Extent &b) {
                         return a.first < b.first;
                     });
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        const auto it = std::upper_bound(
            all.begin(), all.end(), pcs[i],
            [](Addr a, const Extent &e) { return a < e.first; });
        if (it != all.begin() && pcs[i] < std::prev(it)->second)
            out[i] = *std::prev(it);
    }
    return out;
}

} // namespace icp
