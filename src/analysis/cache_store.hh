/**
 * @file
 * On-disk persistence of the AnalysisCache: a versioned, per-entry
 * checksummed binary serialization of memoized per-function analysis
 * results, one record per function (CFG blocks and edges, jump-table
 * solutions, data read-set, register liveness — what analysis
 * derived, not the instructions it decoded), keyed by
 * Function::cacheKey and tagged with the ISA it was built for.
 * This turns the warm-cache speedup of repeat rewrites into a
 * cross-invocation property — the same shape as Dyninst's serialized
 * parse data — and gives CI a stable artifact to cache between runs.
 *
 * Robustness contract: loading never crashes. A missing file, a
 * foreign magic, a version mismatch, a flipped payload or index byte,
 * or a truncated or torn-off tail each degrade to an empty or partial
 * load, with one structured cache-* issue per problem (the same shape
 * as the SBF container's sbf-* diagnostics). This repo is the only
 * writer of these files, so there is no migration: a file of any
 * other version loads as empty with one info-grade cache-version
 * issue, and the next save overwrites it. Cache keys are content
 * hashes, so a surviving entry is usable by construction and a
 * dropped entry only costs re-analysis.
 *
 * File layout v8 (all integers little-endian):
 *
 *   u32 magic       "ICPC"
 *   u32 version     cache_file_version
 *   u64 generation  bumped by compaction (segments carry their own)
 *
 * followed by a chain of append-only segments, each one `save()`:
 *
 *   u32 segMagic    "ICPS"
 *   u32 count       index records
 *   u64 bodyBytes   index + payload bytes following this header
 *   u64 generation  monotonically increasing across appends
 *   u64 headerHash  FNV-1a over the previous 24 header bytes
 *   count x index record (32 bytes), sorted by (arch, kind, key) {
 *     u8  arch          Arch enum value
 *     u8  kind          4 = function: the position-independent
 *                       CFG with its data read-set and, on the
 *                       fixed-length ISAs, one liveness set per
 *                       block (the only kind)
 *     u16 reserved      0
 *     u32 payloadLen
 *     u64 key           Function::cacheKey the entry memoizes
 *     u64 payloadOffset from the first payload byte of the segment
 *     u64 payloadHash   FNV-1a over arch, kind, key, then the payload
 *   }
 *   payload bytes (concatenated, in index order)
 *
 * A function payload holds the entry the analysis ran at, the toc
 * guard (tocBase - entry, whether any instruction is toc-relative),
 * the name, the size, the failure, the landing pads, the indirect
 * tail calls and the jump tables; then per block its start, end,
 * flags, call target, instruction count and successors; then the
 * read-set and the liveness. It holds no instruction bodies: a
 * lookup re-decodes each block from the code bytes of the image
 * that asks (decodeInstructionAt, the builder's own decode). The key
 * covers exactly the bytes [entry, entry + size), the builder
 * decodes only inside them, and decoding depends only on the bytes
 * and the address, so the re-decode reproduces the analysis's
 * instructions. A lookup refuses a record (a miss) unless its size
 * is the symbol's, every block lies inside [entry, end), and every
 * block decodes to exactly its recorded count and end.
 *
 * Entries are position-independent: keys are content addresses (no
 * entry address, no symbol name — see cache.hh) and every absolute
 * address in a payload is stored relative to the entry the function
 * was analyzed at, with that original entry (and for functions the
 * analysis-time `tocBase - entry` offset) kept as payload metadata,
 * so a lookup from a *different* binary sharing the code bytes
 * decodes the entry at its own addresses. The repo bumps
 * cache_file_version for every format change, so a record of any
 * other kind is malformed: load() never looks it up, verify reports
 * it as a cache-entry issue, and save and compaction drop it.
 *
 * Costs follow what a run touches, not the file. load() maps the
 * file (zero-copy), walks only the segment headers, and binary-
 * searches each segment's index for the slice of the expected ISA;
 * records of any other ISA are never read and raise no issue, so one
 * file can serve a fleet of ISAs. A lookup binary-searches the slices
 * newest segment first (the newest occurrence of a key wins); the
 * payload hash — seeded with the record's arch, kind and key, so a
 * flipped index byte fails the same check as a flipped payload byte —
 * is verified and the payload deserialized on that first lookup only,
 * directly at the requested entry.
 * A record pointing outside its segment is a miss at lookup and a
 * cache-truncated issue in verifyCacheFile().
 *
 * save() appends one sorted segment holding only the entries the
 * file lacks (a pure-warm run appends nothing and leaves the file
 * untouched). When the target is the file this process loaded, the
 * candidates are only the entries stored since its last save (each
 * entry carries a store sequence number as its dirty mark), each
 * binary-searched against the target's current segment indexes —
 * including segments other writers appended after our mapping. Any
 * other target (a different inode, or nothing loaded) merges every
 * in-memory and mapped entry. Concurrent writers serialize on an
 * advisory `<path>.lock` flock and re-read the segment chain under
 * the lock before appending, so parallel CI shards merge instead of
 * clobbering. A torn final segment (a writer died mid-append) keeps
 * the records whose payload lies inside the file and is repaired by
 * the next save, which falls back to a full atomic rewrite (tmp +
 * rename, keeping live mmaps valid on the old inode).
 *
 * Invalidation: a key covers the function's size, landing-pad
 * layout and code bytes, and the analysis options (see
 * functionCacheKey and imageCacheSeed) — but not data contents. A
 * code edit changes the key, so the stale entry is never looked up
 * again; a data edit keeps the key, and the consumer (buildCfg)
 * rejects the hit when the read-set inside the function record no
 * longer hashes clean against the image. save() appends the
 * re-analyzed function again when its payload differs from the
 * file's record of the key (load() lets the newest occurrence of a
 * key win), so a warm file converges after data edits too.
 */

#ifndef ICP_ANALYSIS_CACHE_STORE_HH
#define ICP_ANALYSIS_CACHE_STORE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/arch.hh"

namespace icp
{

constexpr std::uint32_t cache_file_magic = 0x43504349;    // "ICPC"
constexpr std::uint32_t cache_segment_magic = 0x53504349; // "ICPS"
constexpr std::uint32_t cache_file_version = 8;

/** Byte sizes of the fixed-layout records above. */
constexpr std::size_t cache_file_header_bytes = 16;
constexpr std::size_t cache_segment_header_bytes = 32;
constexpr std::size_t cache_index_record_bytes = 32;

/**
 * An index record's payload hash: FNV-1a over the record's arch,
 * kind and key (u8, u8, u64 little-endian), then the payload bytes.
 */
std::uint64_t cacheEntryHash(std::uint8_t arch, std::uint8_t kind,
                             std::uint64_t key,
                             const std::uint8_t *payload,
                             std::size_t len);

/** One structured problem found while loading a cache file. */
struct CacheFileIssue
{
    std::string rule;       ///< "cache-magic", "cache-torn", ...
    std::size_t offset = 0; ///< byte offset into the file
    std::string message;
};

/** Outcome of AnalysisCache::load(): what survived, what did not. */
struct CacheLoadReport
{
    /** File existed and was readable (false is not an error). */
    bool fileRead = false;

    /** Format version of the file that was read (0 = unreadable). */
    std::uint32_t fileVersion = 0;

    /** Complete segments in the file. */
    unsigned segments = 0;

    /** File bytes mapped for lazy deserialization. */
    std::uint64_t bytesMapped = 0;

    /**
     * Index records of the expected ISA, counted from the slices
     * (checksum check and payload decode deferred to first lookup).
     */
    unsigned loadedFunctions = 0;

    /** Entries present in the file but rejected. */
    unsigned droppedEntries = 0;

    std::vector<CacheFileIssue> issues;

    bool clean() const { return issues.empty(); }
};

/** Header-walk summary of a cache file (`icp cache info`). */
struct CacheFileInfo
{
    bool fileRead = false;
    std::uint32_t version = 0;
    std::uint64_t generation = 0; ///< newest segment generation
    std::uint64_t fileBytes = 0;
    unsigned segments = 0;
    unsigned functionEntries = 0;

    /** Records per ISA (indexed by Arch), from the index bounds. */
    std::array<unsigned, all_arches.size()> archEntries{};

    std::uint64_t functionPayloadBytes = 0;

    /**
     * Sharing stats: with content-addressed keys, every binary whose
     * functions share code collapses onto the same (ISA, key)
     * pairs. distinctKeys < functionEntries means append-path
     * duplicates (replacement appends); distinctPayloads <
     * distinctKeys means byte-identical payloads stored under
     * several keys (near-miss dedup headroom).
     */
    unsigned distinctKeys = 0;     ///< unique (ISA, key) pairs
    unsigned distinctPayloads = 0; ///< unique payload hashes

    std::vector<CacheFileIssue> issues;
};

/**
 * Walk a cache file's segment indexes without decoding payloads:
 * version, segment chain, entry counts in total and per ISA,
 * structural issues (`icp cache info`).
 */
CacheFileInfo inspectCacheFile(const std::string &path);

/**
 * Eagerly verify a cache file end to end: header chain, index order
 * and bounds, per-entry checksums, and a structural decode of every
 * payload of every ISA, without touching the process-wide cache.
 * With no image at hand it cannot check instruction counts against
 * code bytes; a lookup does.
 * Every problem is a structured issue on the report (`icp cache
 * verify`).
 */
CacheLoadReport verifyCacheFile(const std::string &path);

/** Outcome of compactCacheFile(). */
struct CacheCompactionResult
{
    bool performed = false; ///< file rewritten (false: no file)
    std::uint64_t bytesBefore = 0;
    std::uint64_t bytesAfter = 0;
    unsigned entriesBefore = 0;
    unsigned entriesKept = 0;
    unsigned entriesEvicted = 0;
};

/**
 * Rewrite @p path as one sorted segment, deduplicating keys
 * and dropping torn tails. When @p max_bytes is non-zero, entries
 * are kept newest-generation-first until the cap: the LRU-ish
 * watermark policy that bounds CI cache growth (`icp cache compact`,
 * RewriteOptions::cacheMaxBytes). Runs under the advisory file lock;
 * the rewrite is atomic (tmp + rename).
 */
bool compactCacheFile(const std::string &path,
                      std::uint64_t max_bytes,
                      CacheCompactionResult &out);

} // namespace icp

#endif // ICP_ANALYSIS_CACHE_STORE_HH
