#include "sim/memory.hh"

#include <algorithm>
#include <iterator>

namespace icp
{

namespace
{

/** What a mapped page reads as before its first write. */
const std::uint8_t zero_page[Memory::page_size] = {};

} // namespace

bool
Memory::inRange(std::uint64_t page) const
{
    auto it = ranges_.upper_bound(page);
    if (it == ranges_.begin())
        return false;
    return page <= std::prev(it)->second;
}

Memory::Page *
Memory::writablePage(Addr addr)
{
    const std::uint64_t key = addr >> page_shift;
    auto it = pages_.find(key);
    if (it != pages_.end())
        return &it->second;
    if (!inRange(key))
        return nullptr;
    return &pages_.emplace(key, Page(page_size, 0)).first->second;
}

void
Memory::map(Addr addr, std::uint64_t len)
{
    if (len == 0)
        return;
    const Addr last_byte = addr + (len - 1);
    if (last_byte < addr) { // the range wraps: map both ends
        map(addr, ~addr + 1);
        map(0, last_byte + 1);
        return;
    }
    std::uint64_t first = addr >> page_shift;
    std::uint64_t last = last_byte >> page_shift;
    // Page numbers stay below 2^52, so last + 1 cannot wrap.
    auto it = ranges_.upper_bound(first);
    if (it != ranges_.begin() && std::prev(it)->second + 1 >= first)
        --it;
    while (it != ranges_.end() && it->first <= last + 1) {
        first = std::min(first, it->first);
        last = std::max(last, it->second);
        it = ranges_.erase(it);
    }
    ranges_.emplace(first, last);
}

bool
Memory::isMapped(Addr addr) const
{
    // Pages are only ever allocated inside a mapped range.
    return inRange(addr >> page_shift);
}

bool
Memory::read(Addr addr, unsigned size, std::uint64_t &value) const
{
    value = 0;
    for (unsigned i = 0; i < size;) {
        std::size_t avail = 0;
        const std::uint8_t *p = peek(addr + i, avail);
        if (!p)
            return false;
        for (; i < size && avail > 0; ++i, --avail)
            value |= static_cast<std::uint64_t>(*p++) << (8 * i);
    }
    return true;
}

bool
Memory::write(Addr addr, unsigned size, std::uint64_t value)
{
    const std::size_t off = addr & (page_size - 1);
    if (off + size <= page_size) {
        Page *page = writablePage(addr);
        if (!page)
            return false;
        for (unsigned i = 0; i < size; ++i)
            (*page)[off + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
        return true;
    }
    // Across a page boundary: check both pages first so a faulting
    // write changes nothing.
    for (unsigned i = 0; i < size; ++i) {
        if (!isMapped(addr + i))
            return false;
    }
    for (unsigned i = 0; i < size;) {
        const Addr a = addr + i;
        std::uint8_t *p =
            writablePage(a)->data() + (a & (page_size - 1));
        for (std::size_t n = page_size - (a & (page_size - 1));
             i < size && n > 0; ++i, --n)
            *p++ = static_cast<std::uint8_t>(value >> (8 * i));
    }
    return true;
}

void
Memory::writeBlock(Addr addr, const std::vector<std::uint8_t> &bytes)
{
    map(addr, bytes.size());
    for (std::size_t i = 0; i < bytes.size();) {
        const Addr a = addr + i;
        const std::size_t off = a & (page_size - 1);
        const std::size_t n =
            std::min(page_size - off, bytes.size() - i);
        std::copy_n(bytes.data() + i, n,
                    writablePage(a)->data() + off);
        i += n;
    }
}

bool
Memory::readBlock(Addr addr, std::size_t len,
                  std::vector<std::uint8_t> &out) const
{
    out.resize(len);
    for (std::size_t i = 0; i < len;) {
        std::size_t avail = 0;
        const std::uint8_t *p = peek(addr + i, avail);
        if (!p)
            return false;
        const std::size_t n = std::min(avail, len - i);
        std::copy_n(p, n, out.data() + i);
        i += n;
    }
    return true;
}

const std::uint8_t *
Memory::peek(Addr addr, std::size_t &avail) const
{
    const std::uint64_t key = addr >> page_shift;
    const std::size_t off = addr & (page_size - 1);
    avail = page_size - off;
    auto it = pages_.find(key);
    if (it != pages_.end())
        return it->second.data() + off;
    if (inRange(key))
        return zero_page + off;
    avail = 0;
    return nullptr;
}

} // namespace icp
