/**
 * @file
 * Per-function data-reference dependency analysis: the read-set of
 * data-section bytes a function's analysis and emitted clones
 * consume. The jump-table slice dereferences table entries in
 * .rodata/.data (jump_table.cc reads exactly
 * [tableAddr, tableAddr + entryCount * entrySize)), and the
 * func-ptr/literal-pool slice walks constant-base loads of data
 * cells; both are recorded here as a compact sorted interval set
 * with an FNV-1a content hash per range.
 *
 * Two consumers:
 *
 *  - Invalidation: validate() is the one test for "did the bytes
 *    this function read change?". The analysis cache applies it to
 *    every hit instead of folding every data byte into the key, and
 *    RewriteSession::loadInput applies it to every function of the
 *    previous CFG, so a data edit dirties exactly the functions
 *    whose read-sets it touches — a string-table edit re-analyzes
 *    and re-emits zero functions.
 *
 *  - Audit (src/verify lint rules datadep-missing / datadep-stale /
 *    datadep-overbroad): the recorded read-set is a checkable
 *    artifact; the verifier recomputes the expected set from the
 *    original CFG and compares.
 *
 * The interval-set and hash types are deliberately free of any
 * session or cache dependency so a future cross-binary function
 * dedup index can reuse them as-is.
 */

#ifndef ICP_ANALYSIS_DATADEPS_HH
#define ICP_ANALYSIS_DATADEPS_HH

#include <cstdint>
#include <vector>

#include "support/types.hh"

namespace icp
{

class BinaryImage;
struct Function;

/** One read byte range [lo, hi) and the FNV-1a hash of its bytes. */
struct DepRange
{
    Addr lo = 0;
    Addr hi = 0;
    std::uint64_t hash = 0;

    bool operator==(const DepRange &) const = default;
};

/**
 * A compact sorted interval set of data bytes one function reads.
 * Build with add() (any order, overlaps fine), then finalize()
 * against an image to coalesce and stamp content hashes. A
 * default-constructed (empty) set is valid: the function reads no
 * data bytes, and validate() is trivially true.
 */
class DataDeps
{
  public:
    /** Record a read of [lo, hi); ignored when empty or inverted. */
    void add(Addr lo, Addr hi);

    /** Sort, coalesce adjacent/overlapping ranges, hash contents. */
    void finalize(const BinaryImage &image);

    /**
     * True when every recorded range still hashes to its recorded
     * value in @p image — i.e. no byte this function's analysis read
     * has changed, so a cache hit keyed on code bytes alone is safe
     * and a session may splice the function's previous output.
     * Timed as `deps.validate`.
     */
    bool validate(const BinaryImage &image) const;

    /** True when [lo, hi) intersects any recorded range. */
    bool overlaps(Addr lo, Addr hi) const;

    /** True when [lo, hi) is fully inside one recorded range. */
    bool covers(Addr lo, Addr hi) const;

    std::uint64_t totalBytes() const;

    bool empty() const { return ranges_.empty(); }
    std::size_t size() const { return ranges_.size(); }
    const std::vector<DepRange> &ranges() const { return ranges_; }

    /** Install already-finalized ranges (cache-store decode path). */
    void setRanges(std::vector<DepRange> ranges);

    bool operator==(const DataDeps &) const = default;

  private:
    std::vector<DepRange> ranges_; ///< sorted, disjoint, finalized
};

/**
 * FNV-1a over the image bytes at [lo, hi) (zero fill included, the
 * same bytes readBytes() materializes). 0 when the range is not
 * fully mapped by any section.
 */
std::uint64_t hashImageRange(const BinaryImage &image, Addr lo,
                             Addr hi);

/**
 * Compute @p func's data read-set against @p image: the extents of
 * its resolved jump tables that live outside its own code range,
 * plus every constant-base load of a mapped non-executable address
 * (function-pointer cells, literal pools, globals) found by the same
 * per-block constant tracking the func-ptr slice uses. The result is
 * finalized (sorted, coalesced, hashed).
 */
DataDeps computeDataDeps(const Function &func,
                         const BinaryImage &image);

} // namespace icp

#endif // ICP_ANALYSIS_DATADEPS_HH
