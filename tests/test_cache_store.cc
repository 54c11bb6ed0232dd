/**
 * @file
 * Tests for the on-disk AnalysisCache (analysis/cache_store.hh):
 * save/load round-trips restore every entry; a simulated process
 * restart (clear + load) reuses >= 95% of function analyses and
 * rewrites byte-identically; and every corruption mode — missing
 * file, foreign magic, wrong version, truncated tail, flipped
 * payload byte, wrong-ISA entries — loads as empty-or-partial with
 * one structured cache-* issue per problem, never a crash, and never
 * a different rewrite output.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "analysis/cache.hh"
#include "analysis/cache_store.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "isa/bytes.hh"
#include "support/stats.hh"
#include "rewrite/rewriter.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

BinaryImage
compileMicro(Arch arch, bool pie = true)
{
    return compileProgram(microProfile(arch, pie));
}

RewriteOptions
baseOptions(const std::string &cache_path = "")
{
    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.instrumentation.countBlocks = true;
    opts.cachePath = cache_path;
    return opts;
}

std::string
tmpPath(const std::string &name)
{
    return "/tmp/icp_cache_store_" + name + ".icpc";
}

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path,
         const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

bool
hasIssue(const CacheLoadReport &rep, const std::string &rule)
{
    for (const CacheFileIssue &issue : rep.issues)
        if (issue.rule == rule)
            return true;
    return false;
}

/**
 * Cold rewrite that also populates the cache file at @p path:
 * returns the serialized output for byte-comparisons.
 */
std::vector<std::uint8_t>
coldRewrite(const BinaryImage &img, const std::string &path)
{
    AnalysisCache::global().clear();
    std::remove(path.c_str());
    const RewriteResult rw = rewriteBinary(img, baseOptions(path));
    EXPECT_TRUE(rw.ok) << rw.failReason;
    EXPECT_TRUE(rw.cacheLoad.clean());
    return rw.image.serialize();
}

} // namespace

// --- round trip across a simulated process restart ------------------------

class CacheStoreArch : public ::testing::TestWithParam<Arch>
{
};

TEST_P(CacheStoreArch, RestartReusesAnalysesAndMatchesBytes)
{
    const Arch arch = GetParam();
    const BinaryImage img = compileMicro(arch);
    const std::string path =
        tmpPath(std::string("restart_") + archName(arch));

    const std::vector<std::uint8_t> cold = coldRewrite(img, path);

    // "Process restart": the in-memory cache is gone, only the file
    // remains.
    AnalysisCache::global().clear();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_TRUE(warm.cacheLoad.clean());
    EXPECT_GT(warm.cacheLoad.loadedFunctions, 0u);

    const auto stats = AnalysisCache::global().stats();
    const std::uint64_t lookups =
        stats.functionHits + stats.functionMisses;
    ASSERT_GT(lookups, 0u);
    // The acceptance bar: >= 95% of function analyses reused from
    // the file. (Identical input means 100% here.)
    EXPECT_GE(static_cast<double>(stats.functionHits),
              0.95 * static_cast<double>(lookups))
        << stats.functionHits << "/" << lookups;

    EXPECT_EQ(warm.image.serialize(), cold);
}

TEST_P(CacheStoreArch, SaveLoadRestoresEveryEntry)
{
    const Arch arch = GetParam();
    const BinaryImage img = compileMicro(arch);
    const std::string path =
        tmpPath(std::string("roundtrip_") + archName(arch));

    coldRewrite(img, path);
    const std::size_t entries = AnalysisCache::global().entryCount();
    ASSERT_GT(entries, 0u);

    AnalysisCache::global().clear();
    const CacheLoadReport rep =
        AnalysisCache::global().load(path, arch);
    EXPECT_TRUE(rep.fileRead);
    EXPECT_TRUE(rep.clean())
        << (rep.issues.empty() ? "" : rep.issues.front().message);
    EXPECT_EQ(rep.loadedEntries(), entries);
    EXPECT_EQ(rep.droppedEntries, 0u);
    EXPECT_EQ(AnalysisCache::global().entryCount(), entries);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, CacheStoreArch,
    ::testing::Values(Arch::x64, Arch::ppc64le, Arch::aarch64),
    [](const ::testing::TestParamInfo<Arch> &info) {
        std::string name = archName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --- corruption tolerance -------------------------------------------------

namespace
{

/** A populated, valid cache file for mutation tests (x64 micro). */
std::vector<std::uint8_t>
validCacheFile(const std::string &path)
{
    const BinaryImage img = compileMicro(Arch::x64);
    coldRewrite(img, path);
    return readAll(path);
}

} // namespace

TEST(CacheStore, MissingFileIsEmptyAndClean)
{
    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(
        "/tmp/icp_cache_store_definitely_missing.icpc");
    EXPECT_FALSE(rep.fileRead);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.loadedEntries(), 0u);
    EXPECT_EQ(AnalysisCache::global().entryCount(), 0u);
}

TEST(CacheStore, ForeignMagicLoadsEmptyWithIssue)
{
    const std::string path = tmpPath("magic");
    std::vector<std::uint8_t> raw = validCacheFile(path);
    raw[0] ^= 0xff;
    writeAll(path, raw);

    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.fileRead);
    EXPECT_TRUE(hasIssue(rep, "cache-magic"));
    EXPECT_EQ(rep.loadedEntries(), 0u);
    EXPECT_EQ(AnalysisCache::global().entryCount(), 0u);
}

TEST(CacheStore, WrongVersionLoadsEmptyWithIssue)
{
    const std::string path = tmpPath("version");
    std::vector<std::uint8_t> raw = validCacheFile(path);
    // Version is the u32 after the magic.
    raw[4] = static_cast<std::uint8_t>(cache_file_version + 1);
    writeAll(path, raw);

    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(hasIssue(rep, "cache-version"));
    EXPECT_EQ(rep.loadedEntries(), 0u);
    EXPECT_EQ(AnalysisCache::global().entryCount(), 0u);
}

TEST(CacheStore, TruncatedFileLoadsPartialWithIssue)
{
    const std::string path = tmpPath("truncated");
    std::vector<std::uint8_t> raw = validCacheFile(path);
    const std::size_t total = raw.size();
    // Cut the file mid-way through the segment body — the shape a
    // writer killed mid-append leaves behind. A strict prefix of
    // entries is salvaged, the rest is reported, nothing crashes.
    raw.resize(total / 2);
    writeAll(path, raw);

    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.fileRead);
    EXPECT_TRUE(hasIssue(rep, "cache-torn"));
    EXPECT_GE(rep.droppedEntries, 1u);
    EXPECT_EQ(AnalysisCache::global().entryCount(),
              rep.loadedEntries());
}

TEST(CacheStore, FlippedPayloadByteDegradesToLazyMiss)
{
    const std::string path = tmpPath("checksum");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    std::vector<std::uint8_t> raw = readAll(path);
    AnalysisCache::global().clear();
    const CacheLoadReport clean_rep =
        AnalysisCache::global().load(path);
    const unsigned total = clean_rep.loadedEntries();
    ASSERT_GE(total, 2u);

    // First entry starts after the file header and the first
    // segment header; its payload starts one entry header further
    // (kind u8 + arch u8 + key u64 + payloadLen u32 + payloadHash
    // u64). Flip the payload's first byte so only the checksum can
    // catch it.
    const std::size_t payload0 = cache_file_header_bytes +
                                 cache_segment_header_bytes +
                                 cache_entry_header_bytes;
    ASSERT_LT(payload0, raw.size());
    raw[payload0] ^= 0x01;
    writeAll(path, raw);

    // load() only walks headers, so the structural pass stays clean
    // and indexes every entry; the flipped payload is caught by the
    // lazy checksum at first lookup and degrades to a miss.
    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.droppedEntries, 0u);
    EXPECT_EQ(rep.loadedEntries(), total);

    // The eager verifier still pinpoints the corruption.
    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_TRUE(hasIssue(verify, "cache-checksum"));
    EXPECT_EQ(verify.droppedEntries, 1u);

    // And a rewrite against the corrupt file re-analyzes the one
    // damaged function and still produces identical bytes.
    AnalysisCache::global().clear();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_EQ(warm.image.serialize(), cold);
    EXPECT_GE(AnalysisCache::global().stats().misses(), 1u);
}

TEST(CacheStore, WrongIsaEntriesAreDroppedWithIssue)
{
    const std::string path = tmpPath("wrong_isa");
    // Populate the file from a ppc64le rewrite...
    const BinaryImage img = compileMicro(Arch::ppc64le);
    coldRewrite(img, path);

    // ...then load it expecting x64: every entry is foreign.
    AnalysisCache::global().clear();
    const CacheLoadReport rep =
        AnalysisCache::global().load(path, Arch::x64);
    EXPECT_TRUE(rep.fileRead);
    EXPECT_TRUE(hasIssue(rep, "cache-arch"));
    EXPECT_EQ(rep.loadedEntries(), 0u);
    EXPECT_GE(rep.droppedEntries, 1u);
    EXPECT_EQ(AnalysisCache::global().entryCount(), 0u);
}

TEST(CacheStore, InMemoryEntriesWinOverFileEntries)
{
    const std::string path = tmpPath("merge");
    const BinaryImage img = compileMicro(Arch::x64);
    coldRewrite(img, path);
    const std::size_t entries = AnalysisCache::global().entryCount();

    // Load on top of the same in-memory state: nothing new.
    const CacheLoadReport rep =
        AnalysisCache::global().load(path, Arch::x64);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.loadedEntries(), 0u);
    EXPECT_EQ(rep.skippedExisting, entries);
    EXPECT_EQ(AnalysisCache::global().entryCount(), entries);
}

// --- corrupt cache never changes the rewrite ------------------------------

class CacheCorruptionRewrite : public ::testing::TestWithParam<Arch>
{
};

TEST_P(CacheCorruptionRewrite, RewriteAfterBadLoadIsByteIdentical)
{
    const Arch arch = GetParam();
    const BinaryImage img = compileMicro(arch);
    const std::string path =
        tmpPath(std::string("corrupt_") + archName(arch));

    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    std::vector<std::uint8_t> raw = readAll(path);

    // Corrupt every fourth byte after the header: a mix of checksum
    // failures, undecodable entries, and truncation.
    for (std::size_t i = 12; i < raw.size(); i += 4)
        raw[i] ^= 0xa5;
    writeAll(path, raw);

    AnalysisCache::global().clear();
    const RewriteResult rw = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_TRUE(rw.cacheLoad.fileRead);
    EXPECT_FALSE(rw.cacheLoad.clean());
    EXPECT_EQ(rw.image.serialize(), cold);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, CacheCorruptionRewrite,
    ::testing::Values(Arch::x64, Arch::ppc64le, Arch::aarch64),
    [](const ::testing::TestParamInfo<Arch> &info) {
        std::string name = archName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --- segmented store: delta saves, merging, compaction ----------------------

namespace
{

struct FileStamp
{
    std::uint64_t size = 0;
    std::int64_t mtimeSec = 0;
    std::int64_t mtimeNsec = 0;

    bool
    operator==(const FileStamp &o) const
    {
        return size == o.size && mtimeSec == o.mtimeSec &&
               mtimeNsec == o.mtimeNsec;
    }
};

FileStamp
stampOf(const std::string &path)
{
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    FileStamp s;
    s.size = static_cast<std::uint64_t>(st.st_size);
    s.mtimeSec = st.st_mtim.tv_sec;
    s.mtimeNsec = st.st_mtim.tv_nsec;
    return s;
}

} // namespace

/**
 * The acceptance matrix: for every ISA, outputs stay byte-identical
 * to the cold run through every on-disk cache state — lazy mmap
 * load, a delta-append from a second workload, the merged
 * two-segment file, and the compacted file.
 */
TEST_P(CacheStoreArch, DeltaMergeCompactStatesStayByteIdentical)
{
    const Arch arch = GetParam();
    const BinaryImage img = compileMicro(arch);
    const BinaryImage other = compileMicro(arch, /*pie=*/false);
    const std::string path =
        tmpPath(std::string("states_") + archName(arch));

    // State 1: fresh single-segment file.
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    const std::uint64_t size_one = stampOf(path).size;

    // State 2: a second workload delta-appends its (disjoint-key)
    // entries as a new segment instead of rewriting the file.
    AnalysisCache::global().clear();
    const RewriteResult second =
        rewriteBinary(other, baseOptions(path));
    ASSERT_TRUE(second.ok) << second.failReason;
    const std::vector<std::uint8_t> cold_other =
        second.image.serialize();
    const CacheFileInfo merged = inspectCacheFile(path);
    EXPECT_EQ(merged.version, cache_file_version);
    EXPECT_GE(merged.segments, 2u);
    EXPECT_GT(merged.fileBytes, size_one);

    // State 3: lazy-load from the merged file reproduces both
    // workloads byte-for-byte.
    AnalysisCache::global().clear();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_EQ(warm.image.serialize(), cold);
    AnalysisCache::global().clear();
    const RewriteResult warm_other =
        rewriteBinary(other, baseOptions(path));
    ASSERT_TRUE(warm_other.ok) << warm_other.failReason;
    EXPECT_EQ(warm_other.image.serialize(), cold_other);

    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_TRUE(verify.clean())
        << (verify.issues.empty() ? ""
                                  : verify.issues.front().message);

    // State 4: compaction (unbounded: dedup + single segment) keeps
    // everything reusable and the outputs identical.
    CacheCompactionResult compaction;
    ASSERT_TRUE(compactCacheFile(path, 0, compaction));
    EXPECT_TRUE(compaction.performed);
    EXPECT_EQ(compaction.entriesEvicted, 0u);
    EXPECT_EQ(inspectCacheFile(path).segments, 1u);

    AnalysisCache::global().clear();
    const RewriteResult compacted =
        rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(compacted.ok) << compacted.failReason;
    EXPECT_TRUE(compacted.cacheLoad.clean());
    EXPECT_EQ(compacted.image.serialize(), cold);
}

TEST(CacheStore, PureWarmSaveLeavesFileUntouched)
{
    const std::string path = tmpPath("noop_save");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    const FileStamp before = stampOf(path);
    const std::vector<std::uint8_t> bytes_before = readAll(path);

    // Make sure a rewrite of the file would move the mtime.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    AnalysisCache::global().clear();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_EQ(warm.image.serialize(), cold);

    // 100%-hit run: the save had nothing to append and must not
    // have touched the file at all.
    const FileStamp after = stampOf(path);
    EXPECT_TRUE(before == after)
        << "size " << before.size << " -> " << after.size;
    EXPECT_EQ(readAll(path), bytes_before);
}

TEST(CacheStore, SaveMergesWithEntriesFromOtherWriters)
{
    const std::string path = tmpPath("merge_writers");
    const BinaryImage img = compileMicro(Arch::x64);
    const BinaryImage other = compileMicro(Arch::x64, /*pie=*/false);

    // Writer 1 persists workload A.
    coldRewrite(img, path);
    AnalysisCache::global().clear();
    const CacheLoadReport first = AnalysisCache::global().load(path);
    const unsigned count_a = first.loadedEntries();
    ASSERT_GT(count_a, 0u);

    // Writer 2 analyzed workload B with no knowledge of the file
    // (simulating a concurrent shard); its save must merge, not
    // clobber.
    AnalysisCache::global().clear();
    const RewriteResult rw = rewriteBinary(other, baseOptions(""));
    ASSERT_TRUE(rw.ok) << rw.failReason;
    const std::size_t count_b = AnalysisCache::global().entryCount();
    ASSERT_GT(count_b, 0u);
    ASSERT_TRUE(AnalysisCache::global().save(path));

    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.clean())
        << (rep.issues.empty() ? "" : rep.issues.front().message);
    EXPECT_EQ(rep.loadedEntries(), count_a + count_b);
}

TEST(CacheStore, TornFinalSegmentKeepsPriorSegmentsReadable)
{
    const std::string path = tmpPath("torn_tail");
    const BinaryImage img = compileMicro(Arch::x64);
    const BinaryImage other = compileMicro(Arch::x64, /*pie=*/false);

    // Two segments: A then B.
    coldRewrite(img, path);
    AnalysisCache::global().clear();
    const CacheLoadReport first = AnalysisCache::global().load(path);
    const unsigned count_a = first.loadedEntries();
    const std::uint64_t size_a = stampOf(path).size;
    AnalysisCache::global().clear();
    ASSERT_TRUE(rewriteBinary(other, baseOptions(path)).ok);
    AnalysisCache::global().clear();
    const unsigned count_total =
        AnalysisCache::global().load(path).loadedEntries();
    ASSERT_GT(count_total, count_a);

    // Tear segment B: drop the file's last 10 bytes (a writer died
    // mid-append). Segment A must stay fully readable and B's
    // surviving prefix is salvaged.
    std::vector<std::uint8_t> raw = readAll(path);
    raw.resize(raw.size() - 10);
    writeAll(path, raw);

    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(hasIssue(rep, "cache-torn"));
    EXPECT_GE(rep.droppedEntries, 1u);
    EXPECT_GE(rep.loadedEntries(), count_a);
    EXPECT_LT(rep.loadedEntries(), count_total);
    EXPECT_EQ(inspectCacheFile(path).segments, 1u);
    (void)size_a;

    // The next save repairs the tail with a full atomic rewrite.
    ASSERT_TRUE(AnalysisCache::global().save(path));
    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_TRUE(verify.clean())
        << (verify.issues.empty() ? ""
                                  : verify.issues.front().message);
    EXPECT_EQ(verify.loadedEntries(), rep.loadedEntries());
}

TEST(CacheStore, CompactionEvictsOldestGenerationsUnderSizeCap)
{
    const std::string path = tmpPath("compact_cap");
    const BinaryImage img = compileMicro(Arch::x64);
    const BinaryImage other = compileMicro(Arch::x64, /*pie=*/false);

    // Segment A (generation g), then segment B (generation g+1).
    coldRewrite(img, path);
    const std::uint64_t size_a = stampOf(path).size;
    AnalysisCache::global().clear();
    const RewriteResult second =
        rewriteBinary(other, baseOptions(path));
    ASSERT_TRUE(second.ok);
    const std::vector<std::uint8_t> cold_other =
        second.image.serialize();
    const std::uint64_t size_ab = stampOf(path).size;
    const std::uint64_t seg_b_bytes = size_ab - size_a;

    // Cap sized to hold exactly segment B's entries: compaction must
    // keep the newest generation (B) and evict all of A.
    const std::uint64_t cap =
        cache_file_header_bytes + seg_b_bytes;
    CacheCompactionResult compaction;
    ASSERT_TRUE(compactCacheFile(path, cap, compaction));
    EXPECT_TRUE(compaction.performed);
    EXPECT_GT(compaction.entriesEvicted, 0u);
    EXPECT_GT(compaction.entriesKept, 0u);
    EXPECT_LE(compaction.bytesAfter, cap);
    EXPECT_LE(stampOf(path).size, cap);

    // The kept entries are B's: a warm rewrite of B reuses all of
    // its analyses and stays byte-identical.
    AnalysisCache::global().clear();
    const RewriteResult warm =
        rewriteBinary(other, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_TRUE(warm.cacheLoad.clean());
    const auto stats = AnalysisCache::global().stats();
    EXPECT_EQ(stats.misses(), 0u)
        << stats.functionMisses << " function / "
        << stats.livenessMisses << " liveness misses";
    EXPECT_EQ(warm.image.serialize(), cold_other);
}

TEST(CacheStore, AutoCompactionTriggersOnSaveWhenOverCap)
{
    const std::string path = tmpPath("auto_compact");
    const BinaryImage img = compileMicro(Arch::x64);
    const BinaryImage other = compileMicro(Arch::x64, /*pie=*/false);

    coldRewrite(img, path);
    const std::uint64_t size_a = stampOf(path).size;

    // Second workload saves through RewriteOptions::cacheMaxBytes:
    // the append pushes the file over the cap, so the save compacts
    // it back under.
    AnalysisCache::global().clear();
    RewriteOptions opts = baseOptions(path);
    opts.cacheMaxBytes = size_a + cache_file_header_bytes;
    const RewriteResult rw = rewriteBinary(other, opts);
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_LE(stampOf(path).size, opts.cacheMaxBytes);
    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_TRUE(verify.clean());
}

// --- v3 data read-sets: round trip and version compatibility ---------------

namespace
{

/** One parsed entry record: its kind and raw on-disk bytes. */
struct ParsedEntry
{
    std::uint8_t kind = 0;
    std::vector<std::uint8_t> bytes; ///< header + payload
};

/** Walk a segmented cache file's entry records (test-side parser). */
std::vector<ParsedEntry>
parseEntries(const std::vector<std::uint8_t> &raw)
{
    std::vector<ParsedEntry> entries;
    std::size_t pos = cache_file_header_bytes;
    while (pos + cache_segment_header_bytes <= raw.size()) {
        const std::uint32_t count = getU32(raw.data() + pos + 4);
        pos += cache_segment_header_bytes;
        for (std::uint32_t i = 0; i < count; ++i) {
            EXPECT_LE(pos + cache_entry_header_bytes, raw.size());
            const std::uint32_t len = getU32(raw.data() + pos + 10);
            const std::size_t total = cache_entry_header_bytes + len;
            EXPECT_LE(pos + total, raw.size());
            ParsedEntry e;
            e.kind = raw[pos];
            e.bytes.assign(raw.begin() + static_cast<long>(pos),
                           raw.begin() + static_cast<long>(pos) +
                               static_cast<long>(total));
            entries.push_back(std::move(e));
            pos += total;
        }
    }
    return entries;
}

/** Frame @p body as a single-segment file of @p version. */
std::vector<std::uint8_t>
frameCacheFile(std::uint32_t version, std::uint32_t entry_count,
               const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> out;
    putU32(out, cache_file_magic);
    putU32(out, version);
    putU64(out, 1); // file generation
    std::vector<std::uint8_t> seg;
    putU32(seg, cache_segment_magic);
    putU32(seg, entry_count);
    putU64(seg, body.size());
    putU64(seg, 1); // segment generation
    putU64(seg, fnv1a(seg.data(), 24));
    out.insert(out.end(), seg.begin(), seg.end());
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

} // namespace

TEST(CacheStore, V3FileCarriesDataDepsEntries)
{
    const std::string path = tmpPath("v3_deps");
    coldRewrite(compileMicro(Arch::x64), path);

    const CacheFileInfo info = inspectCacheFile(path);
    EXPECT_EQ(info.version, cache_file_version);
    EXPECT_GT(info.functionEntries, 0u);
    EXPECT_GT(info.dataDepsEntries, 0u);
    EXPECT_EQ(info.otherEntries, 0u);

    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.loadedDataDeps, info.dataDepsEntries);
    EXPECT_EQ(rep.skippedUnknown, 0u);
}

TEST(CacheStore, UnknownEntryKindIsSkippedNeverFatal)
{
    const std::string path = tmpPath("unknown_kind");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    AnalysisCache::global().clear();
    const unsigned before =
        AnalysisCache::global().load(path).loadedEntries();

    // Append a well-formed segment holding one entry of a kind this
    // build has never heard of — what a newer writer would leave.
    std::vector<std::uint8_t> entry;
    const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe,
                                               0xef};
    putU8(entry, 77); // future entry kind
    putU8(entry, static_cast<std::uint8_t>(Arch::x64));
    putU64(entry, 0x77777777ULL);
    putU32(entry, static_cast<std::uint32_t>(payload.size()));
    putU64(entry, fnv1a(payload.data(), payload.size()));
    entry.insert(entry.end(), payload.begin(), payload.end());
    std::vector<std::uint8_t> seg;
    putU32(seg, cache_segment_magic);
    putU32(seg, 1);
    putU64(seg, entry.size());
    putU64(seg, 99); // newer generation
    putU64(seg, fnv1a(seg.data(), 24));
    seg.insert(seg.end(), entry.begin(), entry.end());
    std::vector<std::uint8_t> raw = readAll(path);
    raw.insert(raw.end(), seg.begin(), seg.end());
    writeAll(path, raw);

    // Structural tolerance: the unknown entry is skipped with one
    // info-shaped cache-skip issue; everything else loads.
    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.fileRead);
    EXPECT_EQ(rep.skippedUnknown, 1u);
    EXPECT_TRUE(hasIssue(rep, "cache-skip"));
    EXPECT_EQ(rep.droppedEntries, 0u);
    EXPECT_EQ(rep.loadedEntries(), before);

    // The eager verifier and the header walker agree.
    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_EQ(verify.skippedUnknown, 1u);
    EXPECT_TRUE(hasIssue(verify, "cache-skip"));
    EXPECT_EQ(inspectCacheFile(path).otherEntries, 1u);

    // And a warm rewrite through the file is unaffected.
    AnalysisCache::global().clear();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_EQ(warm.image.serialize(), cold);
}

TEST(CacheStore, V4FileWithoutDepsDegradesToConservativeMisses)
{
    const std::string path = tmpPath("v4_nodeps");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);

    // Synthesize a v4 file whose data read-set entries are missing
    // (caching interrupted before the deps landed): same framing,
    // same function and liveness payloads.
    const std::vector<std::uint8_t> raw = readAll(path);
    std::vector<std::uint8_t> body;
    std::uint32_t kept = 0;
    unsigned deps_dropped = 0;
    for (const ParsedEntry &e : parseEntries(raw)) {
        if (e.kind == 6) {
            ++deps_dropped;
            continue;
        }
        body.insert(body.end(), e.bytes.begin(), e.bytes.end());
        ++kept;
    }
    ASSERT_GT(deps_dropped, 0u);
    ASSERT_GT(kept, 0u);
    writeAll(path, frameCacheFile(cache_file_version, kept, body));

    // The file loads cleanly: functions index, no deps entries
    // exist to load.
    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.fileVersion, cache_file_version);
    EXPECT_GT(rep.loadedFunctions, 0u);
    EXPECT_EQ(rep.loadedDataDeps, 0u);

    // Absent read-sets make code-keyed hits unverifiable, so the
    // consumer rejects them and re-analyzes (conservative miss) —
    // and still emits byte-identical output.
    const std::uint64_t rejected_before =
        DepsCounters::global().hitsRejected.load();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_EQ(warm.image.serialize(), cold);
    EXPECT_GT(DepsCounters::global().hitsRejected.load(),
              rejected_before);
}

// --- files of another version ---------------------------------------------

namespace
{

/**
 * One hand-framed absolute-form entry of the retired kinds 1-3. Its
 * payload is opaque; a current reader never gets as far as its
 * entries because the file version already disqualifies the file.
 */
std::vector<std::uint8_t>
legacyEntry(std::uint8_t kind, std::uint64_t key)
{
    const std::vector<std::uint8_t> payload = {0x01, 0x02, 0x03,
                                               0x04, 0x05};
    std::vector<std::uint8_t> out;
    putU8(out, kind);
    putU8(out, static_cast<std::uint8_t>(Arch::x64));
    putU64(out, key);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    putU64(out, fnv1a(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

/** The v1 layout: magic, version=1, entryCount, entries. */
std::vector<std::uint8_t>
frameV1File(std::uint32_t entry_count,
            const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> v1;
    putU32(v1, cache_file_magic);
    putU32(v1, 1);
    putU32(v1, entry_count);
    v1.insert(v1.end(), body.begin(), body.end());
    return v1;
}

/**
 * This repo is the only writer of cache files, so an older version
 * is not migrated: @p raw (claiming @p version) loads as empty with
 * one info-grade cache-version issue, never crashes, and the next
 * save rewrites it in the current format — byte-identical output.
 */
void
expectIgnoredAndRewritten(const BinaryImage &img,
                          const std::string &path,
                          const std::vector<std::uint8_t> &cold,
                          std::uint32_t version,
                          const std::vector<std::uint8_t> &raw)
{
    writeAll(path, raw);
    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_EQ(rep.fileVersion, version);
    EXPECT_EQ(rep.loadedEntries(), 0u);
    ASSERT_EQ(rep.issues.size(), 1u) << "v" << version;
    EXPECT_EQ(rep.issues.front().rule, "cache-version");
    const auto diags = diagnosticsFromCacheIssues(rep.issues);
    EXPECT_EQ(diags.front().severity, Severity::info);
    EXPECT_EQ(inspectCacheFile(path).functionEntries, 0u);

    const RewriteResult rw = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_EQ(rw.image.serialize(), cold);
    const CacheFileInfo info = inspectCacheFile(path);
    EXPECT_EQ(info.version, cache_file_version);
    EXPECT_GT(info.functionEntries, 0u);
    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_TRUE(verify.clean())
        << (verify.issues.empty() ? ""
                                  : verify.issues.front().message);
}

/** The rewritten file serves the image fully warm. */
void
expectFullyWarm(const BinaryImage &img, const std::string &path,
                const std::vector<std::uint8_t> &cold)
{
    AnalysisCache::global().clear();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_EQ(warm.image.serialize(), cold);
    EXPECT_EQ(AnalysisCache::global().stats().functionMisses, 0u);
}

/** A version-N file of retired absolute-form entries. */
void
runLegacyFile(std::uint32_t file_version,
              const std::vector<std::uint8_t> &legacy_kinds)
{
    const std::string path =
        tmpPath("legacy_v" + std::to_string(file_version));
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);

    std::vector<std::uint8_t> body;
    std::uint32_t count = 0;
    for (std::uint8_t kind : legacy_kinds) {
        const std::vector<std::uint8_t> e =
            legacyEntry(kind, 0x1000ULL + kind);
        body.insert(body.end(), e.begin(), e.end());
        ++count;
    }
    expectIgnoredAndRewritten(
        img, path, cold, file_version,
        file_version == 1 ? frameV1File(count, body)
                          : frameCacheFile(file_version, count, body));
    expectFullyWarm(img, path, cold);
}

} // namespace

TEST(CacheStore, OlderVersionFileIsIgnoredAndRewritten)
{
    // Whatever the framing — a current-shape segment chain, a bare
    // entry list, or a torn stub — every older version is ignored.
    const std::string path = tmpPath("old_version");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    const std::vector<std::uint8_t> current = readAll(path);
    const std::vector<std::uint8_t> entries(
        current.begin() + cache_file_header_bytes +
            cache_segment_header_bytes,
        current.end());

    for (std::uint32_t version = 1; version < cache_file_version;
         ++version) {
        std::vector<std::uint8_t> chain = current;
        chain[4] = static_cast<std::uint8_t>(version);
        std::vector<std::uint8_t> flat;
        putU32(flat, cache_file_magic);
        putU32(flat, version);
        putU32(flat, 1000000); // entry count past the end of file
        flat.insert(flat.end(), entries.begin(), entries.end());
        const std::vector<std::uint8_t> stub(flat.begin(),
                                             flat.begin() + 9);
        for (const auto &raw : {chain, flat, stub})
            expectIgnoredAndRewritten(img, path, cold, version, raw);
    }
    expectFullyWarm(img, path, cold);
}

TEST(CacheStore, V1FramingLoadsReadOnlyWithInfoDiagnostic)
{
    // A v1 file whose entry bodies are current kinds: the version
    // alone disqualifies it — read, not trusted, one info issue —
    // and the next save leaves a current file holding every entry.
    const std::string path = tmpPath("framing_v1");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    AnalysisCache::global().clear();
    const unsigned count =
        AnalysisCache::global().load(path).loadedEntries();
    ASSERT_GT(count, 0u);
    const std::vector<std::uint8_t> current = readAll(path);
    const std::size_t body = cache_file_header_bytes +
                             cache_segment_header_bytes;
    ASSERT_LT(body, current.size());

    expectIgnoredAndRewritten(
        img, path, cold, 1,
        frameV1File(count, {current.begin() + body, current.end()}));
    AnalysisCache::global().clear();
    const CacheLoadReport reloaded =
        AnalysisCache::global().load(path);
    EXPECT_TRUE(reloaded.clean());
    EXPECT_EQ(reloaded.loadedEntries(), count);
}

TEST(CacheStore, V1FileWithLegacyEntriesMigratesToV4)
{
    runLegacyFile(1, {1, 2});
}

TEST(CacheStore, V2FileWithLegacyEntriesMigratesToV4)
{
    runLegacyFile(2, {1, 2});
}

TEST(CacheStore, V3FileWithLegacyEntriesMigratesToV4)
{
    runLegacyFile(3, {1, 2, 3});
}

TEST(CacheStore, DataEditAppendsReplacementDepsEntries)
{
    const std::string path = tmpPath("data_edit");
    const BinaryImage img = compileMicro(Arch::x64);
    coldRewrite(img, path);

    // Redirect one jump-table entry onto another: same code bytes
    // (same cache keys), different data contents.
    AnalysisOptions aopts;
    aopts.useCache = false;
    const CfgModule cfg = buildCfg(img, aopts);
    const JumpTable *jt = nullptr;
    for (const auto &[entry, func] : cfg.functions) {
        (void)entry;
        for (const JumpTable &t : func.jumpTables)
            if (!t.embeddedInCode && t.targets.size() >= 2 &&
                t.targets[0] != t.targets[1])
                jt = &t;
    }
    ASSERT_NE(jt, nullptr);
    BinaryImage edited = compileMicro(Arch::x64);
    std::vector<std::uint8_t> donor;
    ASSERT_TRUE(edited.readBytes(jt->tableAddr + jt->entrySize,
                                 jt->entrySize, donor));
    ASSERT_TRUE(edited.writeBytes(jt->tableAddr, donor));

    // Warm rewrite of the edited image: the table reader's hit fails
    // read-set validation and re-analyzes; save() appends the
    // replacement function+deps entries for the stale keys.
    AnalysisCache::global().clear();
    const std::uint64_t rejected_before =
        DepsCounters::global().hitsRejected.load();
    const RewriteResult first =
        rewriteBinary(edited, baseOptions(path));
    ASSERT_TRUE(first.ok) << first.failReason;
    EXPECT_GT(DepsCounters::global().hitsRejected.load(),
              rejected_before);
    EXPECT_GE(inspectCacheFile(path).segments, 2u);

    // The converged file serves the edited image fully warm: newest
    // occurrence of the key wins, its deps hash clean.
    AnalysisCache::global().clear();
    const std::uint64_t rejected_mid =
        DepsCounters::global().hitsRejected.load();
    const RewriteResult second =
        rewriteBinary(edited, baseOptions(path));
    ASSERT_TRUE(second.ok) << second.failReason;
    EXPECT_EQ(DepsCounters::global().hitsRejected.load(),
              rejected_mid);
    EXPECT_EQ(second.image.serialize(), first.image.serialize());
}
