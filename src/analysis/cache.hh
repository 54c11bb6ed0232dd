/**
 * @file
 * The incremental analysis cache: the "incremental" in incremental CFG
 * patching applied to analysis time. Per-function analysis results (CFG
 * with jump tables, data read-set and liveness, one record per
 * function) are memoized under a *content-addressed* FNV-1a key — architecture, analysis
 * options, landing-pad layout, symbol size, and the function's code
 * bytes. The entry address is deliberately not part of the key: two
 * binaries that statically link the same function at different
 * addresses (or `icp serve` sessions for different binaries in one
 * process) share a single cache entry.
 *
 * The contract that makes an address-free key sound (file v4 on):
 *  - Entries are position-independent. A record keeps every
 *    absolute address of a result (block bounds, branch targets,
 *    jump-table anchors, liveness keys, read-set ranges) relative to
 *    the function's entry and no instructions at all. A hit at
 *    another entry than the in-memory result's decodes a record at
 *    the *requested* entry, re-decoding the instructions from the
 *    requester's code bytes, which the key covers: the mapped
 *    payload for a file entry, the in-memory result encoded on
 *    demand otherwise. Identical bytes imply identical pc-relative
 *    displacements, so every derived address shifts by exactly the
 *    entry delta; code whose bytes embed absolute addresses (non-PIE
 *    immediates, toc-relative forms at a different toc offset)
 *    differs in bytes or fails the recorded toc-delta check and
 *    simply never hits.
 *  - Data contents are still not part of the key. Every hit is
 *    validated by re-hashing the function's recorded data read-set
 *    (Function::dataDeps, per-range FNV content hashes, part of the
 *    function's own record) against the current image *at the
 *    requested entry's addresses*, and degrades to a conservative
 *    miss when those bytes changed. Data edits thus invalidate
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

    /** Same file (device and inode) as @p other was mapped from. */
    bool
    sameFile(const MappedCacheFile &other) const
    {
        return device_ == other.device_ && inode_ == other.inode_;
    }

  private:
    MappedCacheFile() = default;

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::uint64_t device_ = 0;
    std::uint64_t inode_ = 0;
    void *map_ = nullptr;              ///< munmap target (or null)
    std::vector<std::uint8_t> buffer_; ///< read() fallback storage
};

/** Incremental FNV-1a (64-bit). */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/**
 * fnv1a continued over the @p len bytes at @p addr of @p image, as
 * readBytes would return them (zero past the stored bytes), read in
 * place. Nullopt unless one section holds them all.
 */
std::optional<std::uint64_t>
fnv1aImage(const BinaryImage &image, Addr addr, std::uint64_t len,
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
 * or into a different binary — produces the same key. The code
 * bytes must be readable: BinaryImage::tryDeserialize rejects a
 * function symbol outside its section's stored bytes (sbf-symbol).
 */
std::uint64_t functionCacheKey(const BinaryImage &image,
                               const Symbol &sym,
                               const std::vector<TryRange> &tries,
                               std::uint64_t seed);

/**
 * Handles to the cache's counters in Metrics::global(): bytes mapped
 * by load(), bytes appended by save(), entries deserialized lazily on
 * first lookup, and cross-binary hits (stored entries analyzed at
 * another entry address and served at the requested one).
 */
struct CacheCounters
{
    static const CacheCounters &global();

    Counter bytesMapped;
    Counter bytesAppended;
    Counter entriesLazy;
    Counter crossHits;
};

/**
 * Process-wide memo of per-function analysis results. Thread-safe;
 * entries are shared immutable snapshots: a stored Function is the
 * very object buildCfg published, and a same-entry hit hands that
 * object back, so a module and the cache hold one copy of each
 * analysis. Consulted by buildCfg only, so the second rewrite of the
 * same image reuses >= 95% of analysis work.
 */
class AnalysisCache
{
  public:
    struct Stats
    {
        std::uint64_t functionHits = 0;
        std::uint64_t functionMisses = 0;

        std::uint64_t hits() const { return functionHits; }
        std::uint64_t misses() const { return functionMisses; }
    };

    static AnalysisCache &global();

    /**
     * The analysis of @p sym in @p image stored under @p key, or
     * nullptr on miss. Counts a hit/miss either way. Decoded entries
     * win; otherwise the mapped cache files' index slices are
     * binary-searched newest segment first, and the newest record's
     * payload is checksum-verified and deserialized here (and only
     * then) — a corrupt, out-of-bounds or malformed record degrades
     * to a miss and the function simply re-analyzes.
     *
     * A record holds no instruction bodies: the decode places it at
     * sym.addr and re-decodes every block's instructions from
     * @p image's bytes, which the key covers. It is a miss unless the
     * record ends at the symbol's end and every block decodes to
     * exactly its recorded instruction count and end.
     *
     * A hit at the entry the in-memory object sits at returns that
     * object itself. A hit at any other entry decodes the same way a
     * file record does, from the in-memory object encoded on demand,
     * and hands back that decode without storing it.
     *
     * Each entry remembers the entry its analysis ran at
     * (Entry::origEntry); a hit at any other entry is a
     * cross-binary hit (CacheCounters::crossHits), and toc-relative
     * code additionally requires `tocBase - entry` to match the
     * recorded value, else the lookup misses — a toc-relative target
     * decoded at another toc offset would be wrong. Hits and cross
     * hits are counted only once the decode succeeded; a failed
     * decode counts one miss.
     */
    std::shared_ptr<const Function>
    findFunction(std::uint64_t key, const BinaryImage &image,
                 const Symbol &sym);
    void storeFunction(std::uint64_t key, Arch arch,
                       std::shared_ptr<const Function> func,
                       Addr toc_base);

    Stats stats() const;

    /**
     * Distinct keys among decoded entries and the in-bounds records
     * of the mapped slices. Walks every slice.
     */
    std::size_t entryCount() const;
    void clear();

    // --- on-disk persistence (implemented in cache_store.cc) -----------

    /**
     * Persist the cache to @p path in the format of
     * analysis/cache_store.hh. Delta save: under the advisory
     * `<path>.lock` flock, each candidate is binary-searched in the
     * file's current segment indexes (including segments concurrent
     * writers appended) and only entries the file lacks are appended
     * as one new sorted segment — when nothing is missing the file is
     * not touched at all. The candidates are the entries stored since
     * the last save to @p path when it is the file that was loaded,
     * and every decoded and mapped entry otherwise. A stored entry
     * whose key the file already holds is appended again when its
     * payload differs (a data edit re-analyzed the function under an
     * unchanged key; the newest occurrence of a key wins). A torn,
     * other-version, or unreadable target falls back to a full atomic
     * rewrite (tmp + rename). When @p max_bytes is non-zero and the
     * file ends up larger, it is compacted in place under the same lock
     * (newest-generation entries survive). Returns false when the
     * file cannot be written.
     */
    bool save(const std::string &path, std::uint64_t max_bytes = 0);

    /**
     * Add @p path's entries to the lookup chain. The file is mapped,
     * its file and segment headers are verified, and each segment's
     * index slice for @p expect_arch (every known ISA when unset) is
     * found by binary search — O(segments), no payload or foreign
     * record is read and nothing is allocated per entry (checksum
     * verification and decode happen on first lookup; a corrupt
     * payload degrades to a miss there). Tolerant by construction: a
     * missing file, a bad magic or future version, truncated or torn
     * segments load as empty-or-partial, each recorded as a
     * structured cache-* issue on the report — never a crash.
     * Decoded in-memory entries win at lookup over file entries with
     * the same key, and a later load's slices over an earlier one's.
     */
    CacheLoadReport load(const std::string &path,
                         std::optional<Arch> expect_arch = {});

  private:
    /**
     * One memoized function, tagged with the ISA it was built for.
     * value keeps absolute addresses at one entry: where it was
     * analyzed, or where a mapped record was first looked up. Hits
     * at value->entry return the shared snapshot without copying; a
     * hit at another entry decodes value's record there (no payload
     * is kept per entry). origEntry is the entry the analysis ran at
     * (a record's payload carries it), the reference for cross-hit
     * accounting. usesToc/tocDelta guard
     * toc-relative code: a hit at another entry than origEntry is
     * only valid when the requester's `tocBase - entry` matches.
     * stored is the dirty mark: the store() sequence number, 0 for
     * an entry decoded from a mapped file.
     */
    struct Entry
    {
        Arch arch = Arch::x64;
        Addr origEntry = 0;        ///< entry at analysis
        std::int64_t tocDelta = 0; ///< tocBase - entry at analysis
        bool usesToc = false;      ///< any AddisToc instruction
        std::uint64_t stored = 0;
        std::shared_ptr<const Function> value;
    };

    /**
     * One segment's index records for one ISA in a mapped cache
     * file: the [begin, end) record positions of the sorted index,
     * plus the payload area the records point into. The shared
     * mapping keeps the bytes alive.
     */
    struct IndexSlice
    {
        std::shared_ptr<MappedCacheFile> file;
        Arch arch = Arch::x64;
        const std::uint8_t *records = nullptr;
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
        const std::uint8_t *payloads = nullptr;
        std::uint64_t payloadBytes = 0; ///< present in the file
    };

    /** A record found in the slices (payload not yet verified). */
    struct IndexedPayload
    {
        Arch arch = Arch::x64;
        std::uint64_t key = 0;
        const std::uint8_t *payload = nullptr;
        std::uint32_t payloadLen = 0;
        std::uint64_t payloadHash = 0;
        std::shared_ptr<MappedCacheFile> file;

        /** The payload hash matches the record (first-use check). */
        bool intact() const;
    };

    /**
     * Newest in-bounds record of @p key, searching the slices newest
     * first. Caller holds mu_.
     */
    bool findIndexed(std::uint64_t key, IndexedPayload &out) const;

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, Entry> functions_;

    /** Slices of every loaded file, oldest segment first. */
    std::vector<IndexSlice> slices_;

    /** Every file load() mapped (save's same-file test). */
    std::vector<std::shared_ptr<MappedCacheFile>> loaded_;

    /** Last store() sequence number issued. */
    std::uint64_t storeSeq_ = 0;

    /**
     * Stores up to this sequence number are in the loaded file (a
     * same-file save wrote or matched them): save's candidates are
     * the entries stored after it.
     */
    std::uint64_t savedSeq_ = 0;
    Stats stats_;
};

} // namespace icp

#endif // ICP_ANALYSIS_CACHE_HH
