/**
 * @file
 * Paged sparse memory for the simulated process.
 */

#ifndef ICP_SIM_MEMORY_HH
#define ICP_SIM_MEMORY_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "support/types.hh"

namespace icp
{

/**
 * Sparse byte-addressable memory. map() records an accessible range
 * without allocating it: a page is allocated, zero-filled, on its
 * first write, and a mapped page nothing wrote reads as zeros. So the
 * cost of a mapping is what the process writes into it, not its
 * size. Reading an unmapped address is a fault the caller must check
 * so that wild control flow and data accesses are caught instead of
 * silently returning zeroes.
 */
class Memory
{
  public:
    static constexpr unsigned page_shift = 12;
    static constexpr std::size_t page_size = 1u << page_shift;

    /** Map [addr, addr+len) as accessible, zero-filled. */
    void map(Addr addr, std::uint64_t len);

    bool isMapped(Addr addr) const;

    /** Read @p size bytes little-endian; false if any byte unmapped. */
    bool read(Addr addr, unsigned size, std::uint64_t &value) const;

    /** Write @p size bytes little-endian; false if unmapped. */
    bool write(Addr addr, unsigned size, std::uint64_t value);

    /** Bulk copy-in (loader); maps the range first. */
    void writeBlock(Addr addr, const std::vector<std::uint8_t> &bytes);

    /** Bulk read; false if any byte unmapped. */
    bool readBlock(Addr addr, std::size_t len,
                   std::vector<std::uint8_t> &out) const;

    /**
     * Direct pointer to the bytes backing @p addr, valid for
     * min(avail, page-remainder) bytes; nullptr when unmapped. A
     * mapped page nothing wrote yields shared zeros. Used by the
     * instruction fetch fast path.
     */
    const std::uint8_t *peek(Addr addr, std::size_t &avail) const;

  private:
    using Page = std::vector<std::uint8_t>;

    /** The page holding @p addr, allocated if mapped and absent. */
    Page *writablePage(Addr addr);

    /** True when page number @p page lies in a mapped range. */
    bool inRange(std::uint64_t page) const;

    /** Page numbers [first, last], coalesced: first -> last. */
    std::map<std::uint64_t, std::uint64_t> ranges_;
    std::unordered_map<std::uint64_t, Page> pages_;
};

} // namespace icp

#endif // ICP_SIM_MEMORY_HH
