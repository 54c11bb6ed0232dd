/**
 * @file
 * Tests for the on-disk AnalysisCache (analysis/cache_store.hh):
 * save/load round-trips restore every entry; a simulated process
 * restart (clear + load) reuses >= 95% of function analyses and
 * rewrites byte-identically; every corruption mode — missing file,
 * foreign magic, wrong version, truncated tail, flipped payload or
 * index byte, unsorted index, out-of-segment record — loads as
 * empty-or-partial with structured cache-* issues, never a crash,
 * and never a different rewrite output; and another ISA's entries
 * in a shared file are skipped without a word.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
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
    EXPECT_EQ(rep.loadedFunctions, entries);
    EXPECT_EQ(rep.droppedEntries, 0u);
    EXPECT_EQ(AnalysisCache::global().entryCount(), entries);
}

namespace
{

/**
 * @p got equals @p want field by field, its three arrays included:
 * the same blocks with the same instruction and edge ranges, the
 * same edges, and the same instructions, operand by operand.
 */
void
expectSameAnalysis(const Function &got, const Function &want)
{
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got.entry, want.entry);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.failure, want.failure);
    EXPECT_EQ(got.landingPads, want.landingPads);
    EXPECT_EQ(got.indirectTailCalls, want.indirectTailCalls);
    EXPECT_EQ(got.jumpTables, want.jumpTables);
    EXPECT_EQ(got.dataDeps, want.dataDeps);
    EXPECT_EQ(got.liveness, want.liveness);
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (std::size_t b = 0; b < want.blocks.size(); ++b) {
        const Block &gb = got.blocks[b], &wb = want.blocks[b];
        SCOPED_TRACE(wb.start);
        EXPECT_EQ(gb.start, wb.start);
        EXPECT_EQ(gb.end, wb.end);
        EXPECT_EQ(gb.insns, wb.insns);
        EXPECT_EQ(gb.succs, wb.succs);
        EXPECT_EQ(gb.callTarget, wb.callTarget);
        EXPECT_EQ(gb.endsInUnresolvedIndirect,
                  wb.endsInUnresolvedIndirect);
        EXPECT_EQ(gb.endsFunction, wb.endsFunction);
    }
    EXPECT_EQ(got.edges, want.edges);
    ASSERT_EQ(got.insns.size(), want.insns.size());
    for (std::size_t i = 0; i < want.insns.size(); ++i) {
        const Instruction &a = got.insns[i], &b = want.insns[i];
        SCOPED_TRACE(b.addr);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.rd, b.rd);
        EXPECT_EQ(a.rs1, b.rs1);
        EXPECT_EQ(a.rs2, b.rs2);
        EXPECT_EQ(a.cond, b.cond);
        EXPECT_EQ(a.imm, b.imm);
        EXPECT_EQ(a.memSize, b.memSize);
        EXPECT_EQ(a.signedLoad, b.signedLoad);
        EXPECT_EQ(a.movShift, b.movShift);
        EXPECT_EQ(a.movKeep, b.movKeep);
        EXPECT_EQ(a.formHint, b.formHint);
        EXPECT_EQ(a.target, b.target);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.length, b.length);
    }
}

} // namespace

TEST_P(CacheStoreArch, HitsEqualColdAnalysisAcrossBinaries)
{
    // A record keeps no instructions: a hit rebuilds them from the
    // requesting binary's code bytes at its own entry, into the same
    // instruction, block and edge arrays a cold build makes. Member 0 of a
    // shared-library corpus primes the file; its own lookups are
    // direct hits, member 1's core functions cross-binary ones.
    // Member 2 follows member 1 with neither a clear nor a reload:
    // its hits are in-memory entries sitting at member 1's entries,
    // each decoded again at member 2's.
    const Arch arch = GetParam();
    const std::vector<ProgramSpec> corpus = libcommonCorpus(arch, 4);
    const std::string path =
        tmpPath(std::string("cross_") + archName(arch));

    // Every member's cold analysis and keys come first: a cached
    // buildCfg is what yields the keys, and it stores entries.
    AnalysisOptions no_cache;
    no_cache.useCache = false;
    std::vector<BinaryImage> imgs;
    std::vector<CfgModule> colds;
    std::vector<std::vector<std::uint64_t>> keys(3);
    for (unsigned member = 0; member < 3; ++member)
        imgs.push_back(compileProgram(corpus[member]));
    for (unsigned member = 0; member < 3; ++member) {
        colds.push_back(buildCfg(imgs[member], no_cache));
        AnalysisCache::global().clear();
        for (const FunctionSlot &slot : buildCfg(imgs[member]).functions)
            keys[member].push_back(slot.fn->cacheKey);
        ASSERT_EQ(keys[member].size(), colds[member].functions.size());
    }
    const std::set<std::uint64_t> member1_keys(keys[1].begin(),
                                               keys[1].end());
    coldRewrite(imgs[0], path);

    for (unsigned member : {0u, 1u, 2u}) {
        SCOPED_TRACE(member);
        const bool from_memory = member == 2;
        const BinaryImage &img = imgs[member];
        const CfgModule &cold = colds[member];
        std::map<Addr, const Symbol *> syms;
        for (const Symbol *sym : img.functionSymbols())
            syms.emplace(sym->addr, sym);

        if (!from_memory) {
            AnalysisCache::global().clear();
            ASSERT_TRUE(AnalysisCache::global().load(path, arch).clean());
        }
        const CacheCounters &counters = CacheCounters::global();
        const std::uint64_t cross0 = counters.crossHits.value();
        const std::uint64_t lazy0 = counters.entriesLazy.value();
        std::size_t hits = 0, with_deps = 0, from_file = 0;
        for (std::size_t i = 0; i < cold.functions.size(); ++i) {
            const FunctionSlot &slot = cold.functions[i];
            const auto hit = AnalysisCache::global().findFunction(
                keys[member][i], img, *syms.at(slot.entry));
            if (!hit)
                continue;
            ++hits;
            if (!member1_keys.count(keys[member][i]))
                ++from_file;
            if (!hit->dataDeps.empty())
                ++with_deps;
            expectSameAnalysis(*hit, *slot.fn);
        }
        const std::uint64_t cross = counters.crossHits.value() - cross0;
        // Functions with the same bytes share one record, so member 0
        // makes cross-binary hits of its own.
        if (member == 0) {
            EXPECT_EQ(hits, cold.functions.size());
            EXPECT_GT(hits, cross);
        } else {
            EXPECT_GT(hits, cold.functions.size() / 2);
            EXPECT_GT(cross, 0u);
        }
        if (from_memory) {
            // A hit on code member 1 also holds came from memory; only
            // code member 2 shares with member 0 alone is read from
            // the file. The read-set hashes recorded at member 1's
            // entries carried over to member 2's (expectSameAnalysis
            // compared ranges and hashes); ppc64le embeds its jump
            // tables in code and records no read-set.
            EXPECT_EQ(counters.entriesLazy.value() - lazy0, from_file);
            EXPECT_LT(from_file, hits / 10);
            if (arch != Arch::ppc64le) {
                EXPECT_GT(with_deps, 0u);
            }
        }

        // The same hits through a whole rewrite: the output is the
        // uncached one. Member 2 rewrites against the in-memory
        // entries member 1 left, without the file.
        RewriteOptions uncached = baseOptions("");
        uncached.useAnalysisCache = false;
        const RewriteResult want = rewriteBinary(img, uncached);
        if (!from_memory)
            AnalysisCache::global().clear();
        const RewriteResult got =
            rewriteBinary(img, baseOptions(from_memory ? "" : path));
        ASSERT_TRUE(want.ok && got.ok) << got.failReason;
        EXPECT_EQ(got.image.serialize(), want.image.serialize());
    }
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

// --- test-side v5 framing --------------------------------------------------

namespace
{

/** One index record with its payload (test-side parser). */
struct ParsedEntry
{
    std::uint8_t arch = 0;
    std::uint8_t kind = 0;
    std::uint64_t key = 0;
    std::vector<std::uint8_t> payload;
};

/** Where one segment's parts start in a cache file. */
struct SegmentLayout
{
    std::size_t header = 0;   ///< segment header
    std::size_t index = 0;    ///< first index record
    std::size_t payloads = 0; ///< first payload byte
    std::size_t end = 0;      ///< one past the segment
    std::uint32_t count = 0;
};

/** Walk a cache file's segment chain (test-side parser). */
std::vector<SegmentLayout>
segmentLayouts(const std::vector<std::uint8_t> &raw)
{
    std::vector<SegmentLayout> segs;
    std::size_t pos = cache_file_header_bytes;
    while (pos + cache_segment_header_bytes <= raw.size()) {
        SegmentLayout seg;
        seg.header = pos;
        seg.count = getU32(raw.data() + pos + 4);
        seg.index = pos + cache_segment_header_bytes;
        seg.payloads = seg.index + seg.count * cache_index_record_bytes;
        seg.end = seg.index + getU64(raw.data() + pos + 8);
        EXPECT_LE(seg.end, raw.size());
        segs.push_back(seg);
        pos = seg.end;
    }
    return segs;
}

/** Every index record of every segment, with its payload. */
std::vector<ParsedEntry>
parseEntries(const std::vector<std::uint8_t> &raw)
{
    std::vector<ParsedEntry> entries;
    for (const SegmentLayout &seg : segmentLayouts(raw)) {
        for (std::uint32_t i = 0; i < seg.count; ++i) {
            const std::uint8_t *rec = raw.data() + seg.index +
                                      i * cache_index_record_bytes;
            const std::uint32_t len = getU32(rec + 4);
            const std::size_t at = seg.payloads + getU64(rec + 16);
            EXPECT_LE(at + len, seg.end);
            ParsedEntry e;
            e.arch = rec[0];
            e.kind = rec[1];
            e.key = getU64(rec + 8);
            e.payload.assign(raw.begin() + static_cast<long>(at),
                             raw.begin() + static_cast<long>(at + len));
            entries.push_back(std::move(e));
        }
    }
    return entries;
}

/** Frame @p entries as one sorted segment of @p generation. */
std::vector<std::uint8_t>
segmentOf(std::vector<ParsedEntry> entries, std::uint64_t generation)
{
    std::sort(entries.begin(), entries.end(),
              [](const ParsedEntry &a, const ParsedEntry &b) {
                  return std::tie(a.arch, a.kind, a.key) <
                         std::tie(b.arch, b.kind, b.key);
              });
    std::uint64_t body = entries.size() * cache_index_record_bytes;
    for (const ParsedEntry &e : entries)
        body += e.payload.size();
    std::vector<std::uint8_t> seg;
    putU32(seg, cache_segment_magic);
    putU32(seg, static_cast<std::uint32_t>(entries.size()));
    putU64(seg, body);
    putU64(seg, generation);
    putU64(seg, fnv1a(seg.data(), 24));
    std::uint64_t offset = 0;
    for (const ParsedEntry &e : entries) {
        putU8(seg, e.arch);
        putU8(seg, e.kind);
        putU16(seg, 0);
        putU32(seg, static_cast<std::uint32_t>(e.payload.size()));
        putU64(seg, e.key);
        putU64(seg, offset);
        putU64(seg, cacheEntryHash(e.arch, e.kind, e.key,
                                   e.payload.data(), e.payload.size()));
        offset += e.payload.size();
    }
    for (const ParsedEntry &e : entries)
        seg.insert(seg.end(), e.payload.begin(), e.payload.end());
    return seg;
}

/** Frame @p entries as a single-segment file of @p version. */
std::vector<std::uint8_t>
frameCacheFile(std::uint32_t version,
               const std::vector<ParsedEntry> &entries)
{
    std::vector<std::uint8_t> out;
    putU32(out, cache_file_magic);
    putU32(out, version);
    putU64(out, 1); // file generation
    const std::vector<std::uint8_t> seg = segmentOf(entries, 1);
    out.insert(out.end(), seg.begin(), seg.end());
    return out;
}

} // namespace

TEST(CacheStore, MissingFileIsEmptyAndClean)
{
    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(
        "/tmp/icp_cache_store_definitely_missing.icpc");
    EXPECT_FALSE(rep.fileRead);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.loadedFunctions, 0u);
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
    EXPECT_EQ(rep.loadedFunctions, 0u);
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
    EXPECT_EQ(rep.loadedFunctions, 0u);
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
              rep.loadedFunctions);
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
    const unsigned total = clean_rep.loadedFunctions;
    ASSERT_GE(total, 2u);

    // The first payload starts after the file header, the segment
    // header and the segment's index. Flip its first byte so only the
    // checksum can catch it.
    const std::size_t payload0 = segmentLayouts(raw).front().payloads;
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
    EXPECT_EQ(rep.loadedFunctions, total);

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

namespace
{

/** Offset of the first block record in a v8 function payload. */
std::size_t
firstBlockOffset(const std::vector<std::uint8_t> &p)
{
    const auto count = [&](std::size_t at) {
        return std::size_t{getU32(p.data() + at)};
    };
    std::size_t at = 8 + 8 + 1;  // origin entry, toc delta, uses toc
    at += 4 + count(at);         // name
    at += 8 + 1;                 // size, failure
    at += 4 + 8 * count(at);     // landing pads
    at += 4 + 8 * count(at);     // indirect tail calls
    const std::size_t tables = count(at);
    at += 4;
    for (std::size_t i = 0; i < tables; ++i) {
        at += 8 + 8 + 4 + 1 + 4 + 1 + 8; // jump, table, ..., base
        at += 4 + 8 * count(at);         // base definitions
        at += 8 + 4;                     // load address, entry count
        at += 4 + 8 * count(at) + 1;     // targets, embedded
    }
    return at + 4; // block count
}

} // namespace

TEST(CacheStore, RecordThatDisagreesWithTheCodeIsOneMiss)
{
    // A record whose checksum holds but whose first block's
    // instruction count or end is not what the code bytes decode to:
    // verify (structure only) cannot tell, and the lookup that
    // re-decodes the block refuses it as one counted miss.
    const std::string path = tmpPath("disagree");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    std::map<std::uint64_t, unsigned> users;
    for (const FunctionSlot &slot : buildCfg(img).functions)
        ++users[slot.fn->cacheKey];
    const std::vector<ParsedEntry> entries = parseEntries(readAll(path));
    ASSERT_EQ(entries.size(), users.size());

    // A record one function looks up, whose first block spans at
    // least two instructions.
    std::size_t victim = entries.size();
    std::size_t block = 0;
    for (std::size_t i = 0; i < entries.size() && victim == entries.size();
         ++i) {
        const std::vector<std::uint8_t> &p = entries[i].payload;
        block = firstBlockOffset(p);
        if (users[entries[i].key] == 1 && getU32(p.data() + block + 25) >= 2)
            victim = i;
    }
    ASSERT_LT(victim, entries.size());

    const auto patch = [&](std::size_t at, std::uint64_t value,
                           unsigned width) {
        std::vector<ParsedEntry> edited = entries;
        for (unsigned i = 0; i < width; ++i)
            edited[victim].payload[at + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
        return frameCacheFile(cache_file_version, edited);
    };
    const std::uint8_t *b = entries[victim].payload.data() + block;
    const std::vector<std::pair<const char *, std::vector<std::uint8_t>>>
        files = {{"count + 1", patch(block + 25, getU32(b + 25) + 1, 4)},
                 {"count - 1", patch(block + 25, getU32(b + 25) - 1, 4)},
                 {"end - 1", patch(block + 8, getU64(b + 8) - 1, 8)}};
    for (const auto &[what, raw] : files) {
        SCOPED_TRACE(what);
        writeAll(path, raw);
        const CacheLoadReport verify = verifyCacheFile(path);
        EXPECT_TRUE(verify.clean())
            << (verify.issues.empty() ? "" : verify.issues.front().rule);
        AnalysisCache::global().clear();
        const RewriteResult warm = rewriteBinary(img, baseOptions(path));
        ASSERT_TRUE(warm.ok) << warm.failReason;
        EXPECT_EQ(warm.image.serialize(), cold);
        const AnalysisCache::Stats stats = AnalysisCache::global().stats();
        EXPECT_EQ(stats.functionMisses, 1u);
    }
}

TEST(CacheStore, ForeignIsaEntriesAreSkippedSilently)
{
    const std::string path = tmpPath("wrong_isa");
    // Populate the file from a ppc64le rewrite...
    const BinaryImage img = compileMicro(Arch::ppc64le);
    coldRewrite(img, path);

    // ...then load it expecting x64: every entry belongs to another
    // ISA of a shared file, so none is read and none is an issue.
    AnalysisCache::global().clear();
    const CacheLoadReport rep =
        AnalysisCache::global().load(path, Arch::x64);
    EXPECT_TRUE(rep.fileRead);
    EXPECT_TRUE(rep.clean())
        << (rep.issues.empty() ? "" : rep.issues.front().message);
    EXPECT_EQ(rep.loadedFunctions, 0u);
    EXPECT_EQ(rep.droppedEntries, 0u);
    EXPECT_EQ(AnalysisCache::global().entryCount(), 0u);
}

TEST(CacheStore, InMemoryEntriesWinOverFileEntries)
{
    const std::string path = tmpPath("merge");
    const BinaryImage img = compileMicro(Arch::x64);
    coldRewrite(img, path);
    // A file record decodes against the code bytes of the symbol that
    // looks it up, so the lookups below are made as a real function.
    const Symbol &sym = *img.functionSymbols().front();
    std::uint64_t key = 0;
    for (const FunctionSlot &slot : buildCfg(img).functions)
        if (slot.entry == sym.addr)
            key = slot.fn->cacheKey;
    ASSERT_NE(key, 0u);
    bool in_file = false;
    for (const ParsedEntry &e : parseEntries(readAll(path)))
        in_file = in_file || (e.kind == 4 && e.key == key);
    ASSERT_TRUE(in_file);

    // An in-memory entry stored before the load shadows the file's
    // entry for the same key at lookup.
    AnalysisCache::global().clear();
    Function mine;
    mine.name = "in-memory";
    mine.entry = sym.addr;
    mine.end = sym.addr + sym.size;
    AnalysisCache::global().storeFunction(
        key, Arch::x64, std::make_shared<const Function>(mine),
        img.tocBase);
    const CacheLoadReport rep =
        AnalysisCache::global().load(path, Arch::x64);
    EXPECT_TRUE(rep.clean());
    EXPECT_GT(rep.loadedFunctions, 0u);
    const auto hit = AnalysisCache::global().findFunction(key, img, sym);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->name, "in-memory");

    // Without it, the same lookup is served from the file.
    AnalysisCache::global().clear();
    AnalysisCache::global().load(path, Arch::x64);
    const auto from_file =
        AnalysisCache::global().findFunction(key, img, sym);
    ASSERT_NE(from_file, nullptr);
    EXPECT_NE(from_file->name, "in-memory");
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
    const unsigned count_a = first.loadedFunctions;
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
    EXPECT_EQ(rep.loadedFunctions, count_a + count_b);
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
    const unsigned count_a = first.loadedFunctions;
    const std::uint64_t size_a = stampOf(path).size;
    AnalysisCache::global().clear();
    ASSERT_TRUE(rewriteBinary(other, baseOptions(path)).ok);
    AnalysisCache::global().clear();
    const unsigned count_total =
        AnalysisCache::global().load(path).loadedFunctions;
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
    EXPECT_GE(rep.loadedFunctions, count_a);
    EXPECT_LT(rep.loadedFunctions, count_total);
    EXPECT_EQ(inspectCacheFile(path).segments, 1u);
    (void)size_a;

    // The next save repairs the tail with a full atomic rewrite.
    ASSERT_TRUE(AnalysisCache::global().save(path));
    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_TRUE(verify.clean())
        << (verify.issues.empty() ? ""
                                  : verify.issues.front().message);
    EXPECT_EQ(verify.loadedFunctions, rep.loadedFunctions);
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
    EXPECT_EQ(stats.misses(), 0u);
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

TEST(CacheStore, V3FileCarriesDataDepsEntries)
{
    const std::string path = tmpPath("v3_deps");
    const BinaryImage img = compileMicro(Arch::x64);
    coldRewrite(img, path);
    // All hits: the functions carry their keys and read-sets.
    const CfgModule keyed = buildCfg(img);

    const CacheFileInfo info = inspectCacheFile(path);
    EXPECT_EQ(info.version, cache_file_version);
    EXPECT_GT(info.functionEntries, 0u);

    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.loadedFunctions, info.functionEntries);

    // Each function record decodes with its read-set.
    std::map<Addr, const Symbol *> syms;
    for (const Symbol *sym : img.functionSymbols())
        syms.emplace(sym->addr, sym);
    unsigned with_reads = 0;
    for (const auto &[entry, fn] : keyed.functions) {
        const auto hit = AnalysisCache::global().findFunction(
            fn.cacheKey, img, *syms.at(entry));
        ASSERT_NE(hit, nullptr) << fn.name;
        EXPECT_EQ(hit->dataDeps, fn.dataDeps) << fn.name;
        with_reads += fn.dataDeps.empty() ? 0 : 1;
    }
    EXPECT_GT(with_reads, 0u);
}

TEST(CacheStore, UnknownEntryKindIsSkippedNeverFatal)
{
    const std::string path = tmpPath("unknown_kind");
    const BinaryImage img = compileMicro(Arch::x64);
    const std::vector<std::uint8_t> cold = coldRewrite(img, path);
    AnalysisCache::global().clear();
    const unsigned before =
        AnalysisCache::global().load(path).loadedFunctions;

    // Append a well-formed segment holding one entry of a kind the
    // format does not define.
    ParsedEntry future;
    future.arch = static_cast<std::uint8_t>(Arch::x64);
    future.kind = 77;
    future.key = 0x77777777ULL;
    future.payload = {0xde, 0xad, 0xbe, 0xef};
    const std::vector<std::uint8_t> seg =
        segmentOf({future}, 99); // newer generation
    std::vector<std::uint8_t> raw = readAll(path);
    raw.insert(raw.end(), seg.begin(), seg.end());
    writeAll(path, raw);

    // Load never looks the record up: no issue, nothing dropped.
    AnalysisCache::global().clear();
    const CacheLoadReport rep = AnalysisCache::global().load(path);
    EXPECT_TRUE(rep.fileRead);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.droppedEntries, 0u);
    EXPECT_EQ(rep.loadedFunctions, before);

    // The eager verifier reports it as a malformed entry.
    const CacheLoadReport verify = verifyCacheFile(path);
    EXPECT_TRUE(hasIssue(verify, "cache-entry"));
    EXPECT_EQ(verify.droppedEntries, 1u);
    EXPECT_EQ(verify.loadedFunctions, before);

    // A warm rewrite through the file is unaffected.
    AnalysisCache::global().clear();
    const RewriteResult warm = rewriteBinary(img, baseOptions(path));
    ASSERT_TRUE(warm.ok) << warm.failReason;
    EXPECT_EQ(warm.image.serialize(), cold);

    // Compaction drops it, leaving a clean file.
    CacheCompactionResult compaction;
    ASSERT_TRUE(compactCacheFile(path, 0, compaction));
    EXPECT_EQ(compaction.entriesKept, before);
    EXPECT_TRUE(verifyCacheFile(path).clean());
}

// --- functions whose bytes cannot be read --------------------------------

TEST(CacheStore, UnreadableFunctionsNeverReachTheCache)
{
    // Stretch the last two function symbols to one size that runs
    // past the end of .text: their bytes cannot be read, and a cache
    // key without them would hand the second the first one's CFG.
    // Such an image never gets that far: decoding rejects both
    // symbols (sbf-symbol), so functionCacheKey can require
    // readable bytes.
    BinaryImage img =
        compileProgram(chromiumSmallProfile(Arch::x64, true));
    std::vector<Symbol *> funcs;
    for (Symbol &sym : img.symbols)
        if (sym.kind == Symbol::Kind::function)
            funcs.push_back(&sym);
    std::sort(funcs.begin(), funcs.end(),
              [](const Symbol *a, const Symbol *b) {
                  return a->addr < b->addr;
              });
    ASSERT_GE(funcs.size(), 2u);
    Symbol &first = *funcs[funcs.size() - 2];
    Symbol &second = *funcs.back();
    const Section *text = img.sectionAt(first.addr);
    ASSERT_NE(text, nullptr);
    first.size = second.size = text->end() - first.addr + 0x30;
    std::vector<std::uint8_t> bytes;
    ASSERT_FALSE(img.readBytes(first.addr, first.size, bytes));
    ASSERT_FALSE(img.readBytes(second.addr, second.size, bytes));
    // An unreadable length is refused before anything is allocated.
    ASSERT_FALSE(img.readBytes(first.addr, std::size_t{1} << 40, bytes));
    ASSERT_TRUE(bytes.empty());

    std::vector<SbfIssue> issues;
    EXPECT_FALSE(BinaryImage::tryDeserialize(img.serialize(), issues));
    std::set<std::string> names;
    for (const SbfIssue &issue : issues) {
        EXPECT_EQ(issue.rule, "sbf-symbol") << issue.message;
        names.insert(issue.message);
    }
    EXPECT_EQ(names.size(), 2u);
}

// --- files of another version ---------------------------------------------

namespace
{

/**
 * One entry of the retired absolute-form kinds 1-3. Its payload is
 * opaque; a current reader never gets as far as its entries because
 * the file version already disqualifies the file.
 */
ParsedEntry
legacyEntry(std::uint8_t kind, std::uint64_t key)
{
    ParsedEntry e;
    e.arch = static_cast<std::uint8_t>(Arch::x64);
    e.kind = kind;
    e.key = key;
    e.payload = {0x01, 0x02, 0x03, 0x04, 0x05};
    return e;
}

/**
 * The v1 layout: magic, version=1, entryCount, then each entry as a
 * kind u8, arch u8, key u64, payloadLen u32, payloadHash u64 header
 * followed by its payload.
 */
std::vector<std::uint8_t>
frameV1File(const std::vector<ParsedEntry> &entries)
{
    std::vector<std::uint8_t> v1;
    putU32(v1, cache_file_magic);
    putU32(v1, 1);
    putU32(v1, static_cast<std::uint32_t>(entries.size()));
    for (const ParsedEntry &e : entries) {
        putU8(v1, e.kind);
        putU8(v1, e.arch);
        putU64(v1, e.key);
        putU32(v1, static_cast<std::uint32_t>(e.payload.size()));
        putU64(v1, fnv1a(e.payload.data(), e.payload.size()));
        v1.insert(v1.end(), e.payload.begin(), e.payload.end());
    }
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
    EXPECT_EQ(rep.loadedFunctions, 0u);
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

    std::vector<ParsedEntry> entries;
    for (std::uint8_t kind : legacy_kinds)
        entries.push_back(legacyEntry(kind, 0x1000ULL + kind));
    expectIgnoredAndRewritten(
        img, path, cold, file_version,
        file_version == 1 ? frameV1File(entries)
                          : frameCacheFile(file_version, entries));
    expectFullyWarm(img, path, cold);
}

} // namespace

TEST(CacheStore, OlderVersionFileIsIgnoredAndRewritten)
{
    // Whatever the framing — a current-shape segment chain, a bare
    // entry list, or a torn stub — every older version (v4, whose
    // segments carry per-entry headers instead of an index, v5,
    // whose read-sets are records of their own, and v7, whose block
    // records carry their instructions, included) is ignored.
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
        AnalysisCache::global().load(path).loadedFunctions;
    ASSERT_GT(count, 0u);
    expectIgnoredAndRewritten(img, path, cold, 1,
                              frameV1File(parseEntries(readAll(path))));
    AnalysisCache::global().clear();
    const CacheLoadReport reloaded =
        AnalysisCache::global().load(path);
    EXPECT_TRUE(reloaded.clean());
    EXPECT_EQ(reloaded.loadedFunctions, count);
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
        DepsCounters::global().hitsRejected.value();
    const RewriteResult first =
        rewriteBinary(edited, baseOptions(path));
    ASSERT_TRUE(first.ok) << first.failReason;
    EXPECT_GT(DepsCounters::global().hitsRejected.value(),
              rejected_before);
    EXPECT_GE(inspectCacheFile(path).segments, 2u);

    // The converged file serves the edited image fully warm: newest
    // occurrence of the key wins, its deps hash clean.
    AnalysisCache::global().clear();
    const std::uint64_t rejected_mid =
        DepsCounters::global().hitsRejected.value();
    const RewriteResult second =
        rewriteBinary(edited, baseOptions(path));
    ASSERT_TRUE(second.ok) << second.failReason;
    EXPECT_EQ(DepsCounters::global().hitsRejected.value(),
              rejected_mid);
    EXPECT_EQ(second.image.serialize(), first.image.serialize());
}

// --- seeded mutations of the v5 parser ------------------------------------

namespace
{

/** One corrupted copy of a cache file. */
struct Mutation
{
    std::string what;
    std::vector<std::uint8_t> bytes;
    /** Cut at a segment boundary: a shorter, fully valid file. */
    bool validPrefix = false;
    /** The issue verify must report, where it is known. */
    const char *rule = nullptr;
};

/** Serialized rewrite of @p img with no cache at all. */
std::vector<std::uint8_t>
uncachedRewrite(const BinaryImage &img)
{
    AnalysisCache::global().clear();
    RewriteOptions opts = baseOptions("");
    opts.useAnalysisCache = false;
    const RewriteResult rw = rewriteBinary(img, opts);
    EXPECT_TRUE(rw.ok) << rw.failReason;
    return rw.image.serialize();
}

/**
 * Seeded mutations of @p raw: flipped bits in every segment's header,
 * index and payloads; cuts inside headers and indexes and at every
 * segment boundary; two adjacent index records swapped (an unsorted
 * slice); and records whose offset or length points past their
 * segment.
 */
std::vector<Mutation>
mutationsOf(const std::vector<std::uint8_t> &raw, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Mutation> out;
    auto flip = [&](const char *region, std::size_t lo,
                    std::size_t hi) {
        Mutation m;
        const std::size_t at = lo + rng() % (hi - lo);
        m.what = std::string("flip ") + region + " byte " +
                 std::to_string(at);
        m.bytes = raw;
        m.bytes[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        out.push_back(std::move(m));
    };
    auto cut = [&](const char *where, std::size_t at, bool valid) {
        Mutation m;
        m.what = std::string("truncate ") + where + " at " +
                 std::to_string(at);
        m.bytes.assign(raw.begin(), raw.begin() + static_cast<long>(at));
        m.validPrefix = valid;
        out.push_back(std::move(m));
    };
    auto patch_record = [&](const char *field, std::size_t at,
                            std::uint64_t value, unsigned width) {
        Mutation m;
        m.what = std::string("record ") + field + " past segment at " +
                 std::to_string(at);
        m.bytes = raw;
        for (unsigned i = 0; i < width; ++i)
            m.bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
        out.push_back(std::move(m));
    };

    for (const SegmentLayout &seg : segmentLayouts(raw)) {
        for (int i = 0; i < 4; ++i)
            flip("segment header", seg.header, seg.index);
        for (int i = 0; i < 8; ++i)
            flip("index", seg.index, seg.payloads);
        for (int i = 0; i < 6; ++i)
            flip("payload", seg.payloads, seg.end);

        cut("at segment boundary", seg.header, true);
        cut("inside segment header", seg.header + 1 + rng() % 30, false);
        cut("inside index",
            seg.index + rng() % (seg.payloads - seg.index - 1) + 1,
            false);

        const std::uint32_t i = static_cast<std::uint32_t>(
            rng() % (seg.count - 1));
        Mutation swap;
        swap.what = "swap index records " + std::to_string(i) + ", " +
                    std::to_string(i + 1);
        swap.bytes = raw;
        const std::size_t a = seg.index + i * cache_index_record_bytes;
        std::swap_ranges(
            swap.bytes.begin() + static_cast<long>(a),
            swap.bytes.begin() +
                static_cast<long>(a + cache_index_record_bytes),
            swap.bytes.begin() +
                static_cast<long>(a + cache_index_record_bytes));
        out.push_back(std::move(swap));

        const std::size_t rec =
            seg.index + (rng() % seg.count) * cache_index_record_bytes;
        patch_record("offset", rec + 16, seg.end - seg.payloads + 1, 8);
        patch_record("length", rec + 4, seg.end - seg.payloads + 1, 4);
    }
    return out;
}

/**
 * Mutations of the liveness part that ends each function payload of
 * a fixed-length ISA (u32 count, then one u32 register set per
 * block): flipped bits, which the payload checksum catches, and a
 * count or a register set the encoder never writes with the checksum
 * recomputed, which the decoder must reject. The liveness part of
 * a record is found from its function's block count in @p images.
 */
std::vector<Mutation>
livenessMutationsOf(const std::vector<std::uint8_t> &raw,
                    const std::vector<const BinaryImage *> &images,
                    std::uint64_t seed)
{
    std::map<std::uint64_t, std::size_t> blocks;
    for (const BinaryImage *img : images) {
        if (!img->archInfo().fixedLength)
            continue;
        AnalysisCache::global().clear();
        for (const auto &[entry, func] : buildCfg(*img).functions)
            blocks[func.cacheKey] = func.blocks.size();
    }
    AnalysisCache::global().clear();

    std::mt19937_64 rng(seed);
    std::vector<Mutation> out;
    for (const SegmentLayout &seg : segmentLayouts(raw)) {
        for (std::uint32_t i = 0; i < seg.count; ++i) {
            const std::size_t rec = seg.index + i * cache_index_record_bytes;
            const auto it = blocks.find(getU64(raw.data() + rec + 8));
            if (it == blocks.end() || rng() % 4 != 0)
                continue;
            const std::size_t end = seg.payloads +
                                    getU64(raw.data() + rec + 16) +
                                    getU32(raw.data() + rec + 4);
            const std::size_t live = end - 4 * (it->second + 1);
            EXPECT_EQ(getU32(raw.data() + live), it->second);
            const auto rehash = [&](Mutation &m) {
                const std::size_t begin =
                    end - getU32(raw.data() + rec + 4);
                std::vector<std::uint8_t> hash;
                putU64(hash, cacheEntryHash(raw[rec], raw[rec + 1],
                                            getU64(raw.data() + rec + 8),
                                            m.bytes.data() + begin,
                                            end - begin));
                std::copy(hash.begin(), hash.end(),
                          m.bytes.begin() + static_cast<long>(rec + 24));
            };

            Mutation flip;
            const std::size_t at = live + rng() % (end - live);
            flip.what = "flip liveness byte " + std::to_string(at);
            flip.bytes = raw;
            flip.bytes[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
            flip.rule = "cache-checksum";
            out.push_back(std::move(flip));

            Mutation count;
            count.what = "rehashed liveness count at " + std::to_string(live);
            count.bytes = raw;
            count.bytes[live] ^= 1;
            count.rule = "cache-entry";
            rehash(count);
            out.push_back(std::move(count));

            Mutation set;
            const std::size_t reg = live + 4 + 4 * (rng() % it->second);
            set.what = "rehashed liveness set at " + std::to_string(reg);
            set.bytes = raw;
            set.bytes[reg + 3] |= 0x80; // a register RegSet does not name
            set.rule = "cache-entry";
            rehash(set);
            out.push_back(std::move(set));
        }
    }
    return out;
}

} // namespace

TEST(CacheStoreMutation, SeededMutationsNeverCrashOrChangeOutput)
{
    const std::string path = tmpPath("mutation");
    const BinaryImage x64 = compileMicro(Arch::x64);
    const BinaryImage a64 = compileMicro(Arch::aarch64);
    const BinaryImage ppc = compileMicro(Arch::ppc64le);
    const BinaryImage x64_nopie = compileMicro(Arch::x64, false);
    const std::vector<const BinaryImage *> images = {&x64, &a64, &ppc};
    std::vector<std::vector<std::uint8_t>> cold;
    for (const BinaryImage *img : images)
        cold.push_back(uncachedRewrite(*img));

    // A shared four-segment file: x64, aarch64, ppc64le (both with
    // liveness in their function records), x64 non-PIE.
    std::remove(path.c_str());
    for (const BinaryImage *img : {&x64, &a64, &ppc, &x64_nopie}) {
        AnalysisCache::global().clear();
        ASSERT_TRUE(rewriteBinary(*img, baseOptions(path)).ok);
    }
    const std::vector<std::uint8_t> pristine = readAll(path);
    ASSERT_EQ(segmentLayouts(pristine).size(), 4u);
    ASSERT_TRUE(verifyCacheFile(path).clean());

    std::vector<Mutation> mutations = mutationsOf(pristine, 0x5eed);
    const std::vector<Mutation> live =
        livenessMutationsOf(pristine, images, 0x5eed);
    EXPECT_GE(live.size(), 12u);
    mutations.insert(mutations.end(), live.begin(), live.end());
    for (const Mutation &m : mutations) {
        SCOPED_TRACE(m.what);
        writeAll(path, m.bytes);
        // A cut at a segment boundary leaves a valid shorter file
        // (the format is append-only); everything else is reported.
        const CacheLoadReport verify = verifyCacheFile(path);
        EXPECT_EQ(verify.clean(), m.validPrefix)
            << (verify.issues.empty() ? "" : verify.issues.front().rule);
        if (m.rule) {
            EXPECT_EQ(verify.issues.size(), 1u);
            EXPECT_TRUE(hasIssue(verify, m.rule));
        }
        for (std::size_t i = 0; i < images.size(); ++i) {
            AnalysisCache::global().clear();
            AnalysisCache::global().load(path, images[i]->arch);
            const RewriteResult warm =
                rewriteBinary(*images[i], baseOptions(""));
            ASSERT_TRUE(warm.ok) << warm.failReason;
            EXPECT_EQ(warm.image.serialize(), cold[i]);
        }
    }
}
