#include "rewrite/scratch.hh"

#include "support/logging.hh"

namespace icp
{

void
ScratchPool::donate(Addr start, std::uint64_t len, unsigned align)
{
    const Addr aligned = (start + align - 1) & ~(Addr{align} - 1);
    if (aligned >= start + len)
        return;
    len -= aligned - start;
    if (len == 0)
        return;
    free_[aligned] = std::max(free_[aligned], len);
}

std::optional<Addr>
ScratchPool::allocate(std::uint64_t len, Addr near, std::int64_t range,
                      unsigned align)
{
    for (auto it = free_.begin(); it != free_.end(); ++it) {
        Addr start = it->first;
        const std::uint64_t avail = it->second;
        const Addr aligned =
            (start + align - 1) & ~(Addr{align} - 1);
        const std::uint64_t pad = aligned - start;
        if (pad + len > avail)
            continue;
        if (range > 0) {
            const std::int64_t delta =
                static_cast<std::int64_t>(aligned) -
                static_cast<std::int64_t>(near);
            if (delta < -range || delta > range)
                continue;
        }
        // Carve [aligned, aligned+len) out of the chunk.
        const Addr chunk_start = start;
        const std::uint64_t chunk_len = avail;
        free_.erase(it);
        if (pad > 0)
            free_[chunk_start] = pad;
        const std::uint64_t tail = chunk_len - pad - len;
        if (tail > 0)
            free_[aligned + len] = tail;
        return aligned;
    }
    return std::nullopt;
}

std::uint64_t
ScratchPool::bytesFree() const
{
    std::uint64_t total = 0;
    for (const auto &[start, len] : free_)
        total += len;
    return total;
}

} // namespace icp
