/**
 * @file
 * The incremental analysis cache: the "incremental" in incremental
 * CFG patching applied to analysis time. Per-function analysis
 * results (CFG with jump tables, liveness summaries, data read-sets)
 * are memoized under a *content-addressed* FNV-1a key — architecture,
 * analysis options, landing-pad layout, symbol size, and the
 * function's code bytes. The entry address is deliberately not part
 * of the key: two binaries that statically link the same function at
 * different addresses (or `icp serve` sessions for different
 * binaries in one process) share a single cache entry.
 *
 * The v4 contract that makes an address-free key sound:
 *  - Entries are position-independent. Every absolute address in a
 *    stored result (block bounds, branch targets, jump-table
 *    anchors, liveness keys, read-set ranges) is kept relative to
 *    the entry it was analyzed at; find*() rematerializes absolute
 *    addresses at the *requested* entry (rebase-on-hit). Identical
 *    bytes imply identical pc-relative displacements, so every
 *    derived address shifts by exactly the entry delta; code whose
 *    bytes embed absolute addresses (non-PIE immediates,
 *    toc-relative forms at a different toc offset) differs in bytes
 *    or fails the recorded toc-delta check and simply never hits.
 *  - Data contents are still not part of the key. Every hit is
 *    validated by re-hashing the function's recorded data read-set
 *    (Function::dataDeps, per-range FNV content hashes, stored under
 *    the same key) against the current image *at the rebased
 *    addresses*, and degrades to a conservative miss when the deps
 *    are absent or their bytes changed. Data edits thus invalidate
 *    exactly the functions that read the edited bytes — and a
 *    cross-binary hit is accepted only when the second binary's data
 *    bytes match what the analysis originally read.
 */

#ifndef ICP_ANALYSIS_CACHE_HH
#define ICP_ANALYSIS_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/builder.hh"
#include "analysis/datadeps.hh"
#include "analysis/liveness.hh"

namespace icp
{

struct CacheLoadReport; // analysis/cache_store.hh

/**
 * A read-only mapping of a cache file (mmap with a heap-buffer
 * fallback), shared by every lazy entry indexed from it so the bytes
 * stay addressable for the process lifetime of those entries.
 * Appends to the file never move the mapped prefix, and full
 * rewrites go through rename (new inode), so a mapping can never be
 * invalidated behind its holders' backs.
 */
class MappedCacheFile
{
  public:
    /** nullptr when the file does not exist or cannot be read. */
    static std::shared_ptr<MappedCacheFile>
    open(const std::string &path);

    ~MappedCacheFile();
    MappedCacheFile(const MappedCacheFile &) = delete;
    MappedCacheFile &operator=(const MappedCacheFile &) = delete;

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    MappedCacheFile() = default;

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    void *map_ = nullptr;              ///< munmap target (or null)
    std::vector<std::uint8_t> buffer_; ///< read() fallback storage
};

/** Incremental FNV-1a (64-bit). */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/**
 * Image-wide key component: architecture, PIE-ness, and analysis
 * options — nothing position-dependent (no base addresses, no
 * section layout), so binaries laid out differently can share
 * entries. Computed once per buildCfg call and folded into every
 * function key.
 */
std::uint64_t imageCacheSeed(const BinaryImage &image,
                             const AnalysisOptions &opts);

/**
 * Content-addressed key of one function's analysis results under
 * @p seed: its size, landing-pad layout (entry-relative try
 * offsets), and code bytes. Neither the entry address nor the symbol
 * name is folded, so the same code linked at a different address —
 * or into a different binary — produces the same key.
 */
std::uint64_t functionCacheKey(const BinaryImage &image,
                               const Symbol &sym,
                               const std::vector<TryRange> &tries,
                               std::uint64_t seed);

/**
 * Shift every absolute address in @p func by `newEntry - func.entry`:
 * entry/end, block bounds, instruction addresses and branch targets
 * (the invalid_addr sentinel is preserved), edges, call targets,
 * jump-table anchors and computed targets, landing pads, indirect
 * tail calls, and the data read-set ranges (their content hashes are
 * position-independent and carry over). Sound for byte-identical
 * code because all of these derive from pc-relative displacements.
 */
Function rebaseFunction(const Function &func, Addr new_entry);

/** Shift liveness keys (instruction addresses) by the entry delta. */
LivenessResult rebaseLiveness(const LivenessResult &live,
                              Addr orig_entry, Addr new_entry);

/** Shift read-set ranges by the entry delta (hashes carry over). */
DataDeps rebaseDataDeps(const DataDeps &deps, Addr orig_entry,
                        Addr new_entry);

/**
 * Process-wide memo of per-function analysis results. Thread-safe;
 * entries are shared immutable snapshots. Consulted by buildCfg
 * (function CFGs) and the rewriter (liveness), so the second
 * rewrite of the same image reuses >= 95% of analysis work.
 */
class AnalysisCache
{
  public:
    struct Stats
    {
        std::uint64_t functionHits = 0;
        std::uint64_t functionMisses = 0;
        std::uint64_t livenessHits = 0;
        std::uint64_t livenessMisses = 0;

        std::uint64_t
        hits() const
        {
            return functionHits + livenessHits;
        }

        std::uint64_t
        misses() const
        {
            return functionMisses + livenessMisses;
        }
    };

    static AnalysisCache &global();

    /**
     * nullptr on miss. Counts a hit/miss either way. An entry
     * indexed lazily from a mapped cache file is checksum-verified
     * and deserialized on its first lookup here (and only then) — a
     * corrupt or malformed payload degrades to a miss and the
     * function simply re-analyzes.
     *
     * Entries are canonical at the entry they were analyzed at. When
     * @p entry differs (a cross-binary hit) the result is rebased to
     * @p entry (CacheCounters::crossHits, Stage::cacheRebase); toc-
     * relative code additionally requires `tocBase - entry` to match
     * the recorded value, else the lookup misses — a rebased
     * toc-relative target would be wrong.
     */
    std::shared_ptr<const Function>
    findFunction(std::uint64_t key, Addr entry, Addr toc_base);
    void storeFunction(std::uint64_t key, Arch arch, Function func,
                       Addr toc_base);

    std::shared_ptr<const LivenessResult>
    findLiveness(std::uint64_t key, Addr entry);
    void storeLiveness(std::uint64_t key, Arch arch, Addr entry,
                       LivenessResult live);

    /**
     * The data read-set recorded for @p key's function rebased to
     * @p entry, or nullptr when none was stored (legacy cache file,
     * caching off): the consumer must then treat a code-keyed hit as
     * a conservative miss. Does not count toward hit/miss stats —
     * deps ride along with their function entry.
     */
    std::shared_ptr<const DataDeps> findDataDeps(std::uint64_t key,
                                                 Addr entry);
    void storeDataDeps(std::uint64_t key, Arch arch, Addr entry,
                       DataDeps deps);

    Stats stats() const;

    /** Decoded plus lazily-indexed entries. */
    std::size_t entryCount() const;
    void clear();

    // --- on-disk persistence (implemented in cache_store.cc) -----------

    /**
     * Persist the cache to @p path in the v4 format of
     * analysis/cache_store.hh. Delta save: under the advisory
     * `<path>.lock` flock, the file's existing key set is re-scanned
     * (merging segments appended by concurrent writers) and only
     * entries the file lacks are appended as one new segment — when
     * nothing is missing the file is not touched at all. A v1,
     * torn-tailed, or unreadable target falls back to a full atomic
     * rewrite (tmp + rename). When @p max_bytes is non-zero and the
     * file ends up larger, it is compacted in place under the same
     * lock (newest-generation entries survive). Returns false when
     * the file cannot be written.
     */
    bool save(const std::string &path,
              std::uint64_t max_bytes = 0) const;

    /**
     * Merge entries from @p path. The file is mapped, file/segment/
     * entry headers are verified, and surviving entries are indexed
     * for lazy deserialization — no payload byte is read here
     * (checksum verification and decode happen on first lookup; a
     * corrupt payload degrades to a miss there). Tolerant by
     * construction: a missing file, a bad magic or future version,
     * truncated or torn segments load as empty-or-partial, each
     * recorded as a structured cache-* issue on the report — never a
     * crash. When @p expect_arch is set, entries tagged with any
     * other ISA are dropped (their keys could never be looked up, but
     * dropping keeps the merge bounded and reports the mismatch).
     * Existing in-memory entries win over file entries with the same
     * key.
     */
    CacheLoadReport load(const std::string &path,
                         std::optional<Arch> expect_arch = {});

  private:
    /**
     * One memoized result, tagged with the ISA it was built for and
     * the entry address it was analyzed at (the canonical form keeps
     * absolute addresses at origEntry so same-entry hits return the
     * shared snapshot without copying; a different requested entry
     * rebases a copy). usesToc/tocDelta guard toc-relative code:
     * a hit at a different entry is only valid when the requester's
     * `tocBase - entry` matches.
     */
    template <typename T> struct Entry
    {
        Arch arch = Arch::x64;
        Addr origEntry = 0;
        std::int64_t tocDelta = 0; ///< tocBase - entry at analysis
        bool usesToc = false;      ///< any AddisToc instruction
        std::shared_ptr<const T> value;
    };

    /**
     * One not-yet-decoded entry pointing into a mapped cache file.
     * Checksum verification and decode both happen on first lookup
     * (keeping load() free of any per-byte work). The shared mapping
     * keeps the bytes alive.
     */
    struct PendingEntry
    {
        Arch arch = Arch::x64;
        const std::uint8_t *payload = nullptr;
        std::uint32_t payloadLen = 0;
        std::uint64_t payloadHash = 0;
        std::shared_ptr<MappedCacheFile> file;
    };

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, Entry<Function>> functions_;
    std::unordered_map<std::uint64_t, Entry<LivenessResult>>
        liveness_;
    std::unordered_map<std::uint64_t, Entry<DataDeps>> dataDeps_;
    std::unordered_map<std::uint64_t, PendingEntry>
        pendingFunctions_;
    std::unordered_map<std::uint64_t, PendingEntry> pendingLiveness_;
    std::unordered_map<std::uint64_t, PendingEntry>
        pendingDataDeps_;
    Stats stats_;
};

} // namespace icp

#endif // ICP_ANALYSIS_CACHE_HH
