#include "binfmt/ehframe.hh"

#include <algorithm>

#include "isa/bytes.hh"

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

FdeIndex::FdeIndex(std::vector<FdeRecord> fdes)
    : fdes_(std::move(fdes))
{
    std::sort(fdes_.begin(), fdes_.end(),
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

} // namespace icp
