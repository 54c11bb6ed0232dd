/**
 * @file
 * AnalysisCache::save()/load() and the `icp cache` helpers: the v8
 * segmented cache-file format documented in cache_store.hh (sorted
 * per-segment indexes, position-independent entries, content-
 * addressed keys). A file of any other version loads as empty and
 * the next save overwrites it.
 *
 * Layered like the SBF container code: the bounds-latched ByteReader
 * of isa/bytes.hh and the function payload encoder/decoder at the
 * bottom; the segment index (record reader, binary search) and a
 * header-walking scanner shared by every consumer (load, save's
 * merge step, inspect, verify, compact) in the middle; and the
 * public operations on top. Every decode path validates enum ranges and every record
 * is bounds-checked against its segment, so a corrupt file can only
 * ever drop its own entries, never read out of bounds or poison the
 * cache.
 *
 * Concurrency: writers (save, compact) serialize on an advisory
 * flock over `<path>.lock`. Readers never lock — the format is
 * append-only, so a reader sees a valid prefix plus at most one
 * torn tail, whose in-bounds records the scanner salvages. Full
 * rewrites (version change, torn-tail repair, compaction) write a
 * temp file and rename it into place, which keeps existing mmaps
 * valid on the old inode.
 */

#include "analysis/cache_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/cache.hh"
#include "isa/bytes.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace icp
{

namespace
{

const Timer cache_load_timer = Metrics::global().timer("cache.load");
const Timer cache_save_timer = Metrics::global().timer("cache.save");

// --- payload encoders -----------------------------------------------------

/**
 * Entry-relative address encoding (v4): addresses are stored as
 * wrap-around u64 deltas from the function entry, so a payload is
 * position-independent and decoding at any entry reconstructs
 * consistent absolute addresses (two's-complement round trip).
 * The invalid_addr sentinel is preserved verbatim — it must not
 * shift.
 */
std::uint64_t
relAddr(Addr a, Addr entry)
{
    return a == invalid_addr ? a : a - entry;
}

Addr
absAddr(std::uint64_t rel, Addr entry)
{
    return rel == invalid_addr ? rel : rel + entry;
}

void
encodeJumpTable(std::vector<std::uint8_t> &out, const JumpTable &jt,
                Addr entry)
{
    putU64(out, relAddr(jt.jumpAddr, entry));
    putU64(out, relAddr(jt.tableAddr, entry));
    putU32(out, jt.entrySize);
    putU8(out, jt.signedEntries ? 1 : 0);
    putU32(out, jt.shift);
    putU8(out, jt.base.has_value() ? 1 : 0);
    putU64(out, jt.base ? relAddr(*jt.base, entry) : 0);
    putU32(out, static_cast<std::uint32_t>(jt.baseDefAddrs.size()));
    for (Addr a : jt.baseDefAddrs)
        putU64(out, relAddr(a, entry));
    putU64(out, relAddr(jt.loadAddr, entry));
    putU32(out, jt.entryCount);
    putU32(out, static_cast<std::uint32_t>(jt.targets.size()));
    for (Addr a : jt.targets)
        putU64(out, relAddr(a, entry));
    putU8(out, jt.embeddedInCode ? 1 : 0);
}

void
encodeBlock(std::vector<std::uint8_t> &out, const Function &func,
            const Block &block)
{
    const Addr entry = func.entry;
    putU64(out, relAddr(block.start, entry));
    putU64(out, relAddr(block.end, entry));
    std::uint8_t flags = 0;
    if (block.endsInUnresolvedIndirect)
        flags |= 1;
    if (block.endsFunction)
        flags |= 2;
    if (block.callTarget.has_value())
        flags |= 4;
    putU8(out, flags);
    putU64(out, block.callTarget ? relAddr(*block.callTarget, entry)
                                 : 0);
    // The instructions themselves are re-decoded from the code bytes
    // at lookup; the count is what the re-decode must reproduce.
    putU32(out, block.insns.count);
    putU32(out, block.succs.count);
    for (const Edge &e : func.succsOf(block)) {
        putU64(out, relAddr(e.target, entry));
        putU8(out, static_cast<std::uint8_t>(e.kind));
    }
}

/**
 * What a function payload records beside the function itself: the
 * entry the analysis ran at (provenance for cross-hit accounting)
 * and the toc offset guard for toc-relative code.
 */
struct RecordMeta
{
    Addr origEntry = 0;
    std::int64_t tocDelta = 0;
    bool usesToc = false;
};

/**
 * The length of encodeFunction's payload for @p func, field by field
 * in its order (a jump table's fixed fields take 55 bytes, a block's
 * 33); encodeFunction checks that the two agree.
 */
std::size_t
encodedSize(const Function &func)
{
    std::size_t n = 8 + 8 + 1 + 4 + func.name.size() + 8 + 1;
    n += 4 + 8 * func.landingPads.size();
    n += 4 + 8 * func.indirectTailCalls.size();
    n += 4;
    for (const JumpTable &jt : func.jumpTables)
        n += 55 + 8 * (jt.baseDefAddrs.size() + jt.targets.size());
    n += 4 + 33 * func.blocks.size() + 9 * func.edges.size();
    n += 4 + 24 * func.dataDeps.size();
    n += 4 + 4 * func.liveness.liveIn.size();
    return n;
}

/** @p func's payload; its addresses are relative to func.entry. */
std::vector<std::uint8_t>
encodeFunction(const Function &func, const RecordMeta &meta)
{
    std::vector<std::uint8_t> out;
    out.reserve(encodedSize(func));
    putU64(out, meta.origEntry);
    putU64(out, static_cast<std::uint64_t>(meta.tocDelta));
    putU8(out, meta.usesToc ? 1 : 0);
    putString(out, func.name);
    putU64(out, relAddr(func.end, func.entry));
    putU8(out, static_cast<std::uint8_t>(func.failure));
    putU32(out, static_cast<std::uint32_t>(func.landingPads.size()));
    for (Addr a : func.landingPads)
        putU64(out, relAddr(a, func.entry));
    putU32(out, static_cast<std::uint32_t>(
                    func.indirectTailCalls.size()));
    for (Addr a : func.indirectTailCalls)
        putU64(out, relAddr(a, func.entry));
    putU32(out, static_cast<std::uint32_t>(func.jumpTables.size()));
    for (const JumpTable &jt : func.jumpTables)
        encodeJumpTable(out, jt, func.entry);
    putU32(out, static_cast<std::uint32_t>(func.blocks.size()));
    for (const Block &block : func.blocks)
        encodeBlock(out, func, block);
    putU32(out, static_cast<std::uint32_t>(func.dataDeps.size()));
    for (const DepRange &r : func.dataDeps.ranges()) {
        putU64(out, relAddr(r.lo, func.entry));
        putU64(out, relAddr(r.hi, func.entry));
        putU64(out, r.hash);
    }
    // Liveness is empty (x86-64) or one set per block, in block
    // order.
    const std::vector<RegSet> &live = func.liveness.liveIn;
    icp_assert(live.empty() || live.size() == func.blocks.size(),
               "liveness of %s has %zu sets for %zu blocks",
               func.name.c_str(), live.size(), func.blocks.size());
    putU32(out, static_cast<std::uint32_t>(live.size()));
    for (const RegSet regs : live)
        putU32(out, regs.raw());
    icp_assert(out.size() == encodedSize(func),
               "payload of %s is not the size encodedSize computes",
               func.name.c_str());
    return out;
}

// --- payload decoders -----------------------------------------------------

bool
decodeJumpTable(ByteReader &rd, JumpTable &jt, Addr entry)
{
    jt.jumpAddr = absAddr(rd.u64(), entry);
    jt.tableAddr = absAddr(rd.u64(), entry);
    jt.entrySize = rd.u32();
    jt.signedEntries = rd.u8() != 0;
    jt.shift = rd.u32();
    const bool has_base = rd.u8() != 0;
    const Addr base = rd.u64();
    if (has_base)
        jt.base = absAddr(base, entry);
    const std::uint32_t ndefs = rd.u32();
    if (ndefs > rd.remaining() / 8)
        return false;
    jt.baseDefAddrs.reserve(ndefs);
    for (std::uint32_t i = 0; i < ndefs; ++i)
        jt.baseDefAddrs.push_back(absAddr(rd.u64(), entry));
    jt.loadAddr = absAddr(rd.u64(), entry);
    jt.entryCount = rd.u32();
    const std::uint32_t ntargets = rd.u32();
    if (ntargets > rd.remaining() / 8)
        return false;
    jt.targets.reserve(ntargets);
    for (std::uint32_t i = 0; i < ntargets; ++i)
        jt.targets.push_back(absAddr(rd.u64(), entry));
    jt.embeddedInCode = rd.u8() != 0;
    return !rd.failed();
}

/** Bytes of a block record before its instruction count. */
constexpr std::size_t block_head_bytes = 8 + 8 + 1 + 8;

/**
 * The instruction and edge totals of the @p nblocks block records at
 * @p rd (a copy: the caller's reader does not move), so a decode can
 * size its arrays once; false when the records do not fit.
 */
bool
blockTotals(ByteReader rd, std::uint32_t nblocks, std::size_t &insns,
            std::size_t &edges)
{
    insns = edges = 0;
    for (std::uint32_t i = 0; i < nblocks && !rd.failed(); ++i) {
        rd.blob(block_head_bytes);
        insns += rd.u32();
        const std::uint32_t nsuccs = rd.u32();
        if (nsuccs > rd.remaining() / 9)
            return false;
        rd.blob(std::size_t{nsuccs} * 9);
        edges += nsuccs;
    }
    return !rd.failed();
}

/**
 * One block of a payload into @p func, whose entry and end are set:
 * its bounds must lie inside the function, after the previous
 * block's start, and its recorded instruction count must fit them.
 * With @p image, the instructions are re-decoded from the image's
 * bytes the way the builder decoded them, and must come to exactly
 * that count and end; without one (verify), the block keeps no
 * instructions.
 */
bool
decodeBlock(ByteReader &rd, Function &func, const BinaryImage *image)
{
    const Addr entry = func.entry;
    const std::uint64_t size = func.end - entry;
    const std::uint64_t rel_start = rd.u64();
    const std::uint64_t rel_end = rd.u64();
    if (rel_start >= rel_end || rel_end > size)
        return false;
    if (!func.blocks.empty() &&
        rel_start <= func.blocks.back().start - entry)
        return false;
    Block &block = func.blocks.emplace_back();
    block.start = entry + rel_start;
    block.end = entry + rel_end;
    const std::uint8_t flags = rd.u8();
    if (flags > 7)
        return false;
    block.endsInUnresolvedIndirect = (flags & 1) != 0;
    block.endsFunction = (flags & 2) != 0;
    const Addr call_target = rd.u64();
    if (flags & 4)
        block.callTarget = absAddr(call_target, entry);
    const std::uint32_t ninsns = rd.u32();
    if (ninsns == 0 || ninsns > rel_end - rel_start)
        return false;
    block.insns.first = static_cast<std::uint32_t>(func.insns.size());
    if (image) {
        block.insns.count = ninsns;
        Addr cur = block.start;
        for (std::uint32_t i = 0; i < ninsns; ++i) {
            Instruction &in = func.insns.emplace_back();
            if (cur >= block.end ||
                !decodeInstructionAt(*image, cur, func.end, in))
                return false;
            cur += in.length;
        }
        if (cur != block.end)
            return false;
    }
    const std::uint32_t nsuccs = rd.u32();
    if (nsuccs > rd.remaining() / 9)
        return false;
    block.succs.first = static_cast<std::uint32_t>(func.edges.size());
    block.succs.count = nsuccs;
    for (std::uint32_t i = 0; i < nsuccs; ++i) {
        Edge &e = func.edges.emplace_back();
        e.target = absAddr(rd.u64(), entry);
        const std::uint8_t kind = rd.u8();
        if (kind > static_cast<std::uint8_t>(EdgeKind::jumpTable))
            return false;
        e.kind = static_cast<EdgeKind>(kind);
    }
    return !rd.failed();
}

/** A function payload's read-set, relative to @p entry. */
bool
decodeDataDeps(ByteReader &rd, DataDeps &deps, Addr entry)
{
    const std::uint32_t n = rd.u32();
    if (n > rd.remaining() / 24)
        return false;
    std::vector<DepRange> ranges;
    ranges.reserve(n);
    Addr prev_hi = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        DepRange r;
        r.lo = absAddr(rd.u64(), entry);
        r.hi = absAddr(rd.u64(), entry);
        r.hash = rd.u64();
        // The encoder only writes finalized sets: sorted, disjoint,
        // non-empty ranges. Anything else is not ours.
        if (r.hi <= r.lo || (i > 0 && r.lo < prev_hi))
            return false;
        prev_hi = r.hi;
        ranges.push_back(r);
    }
    deps.setRanges(std::move(ranges));
    return !rd.failed();
}

/**
 * A function payload's liveness into @p func: no sets, or one per
 * block in block order, each over the registers RegSet names.
 */
bool
decodeLiveness(ByteReader &rd, Function &func)
{
    std::vector<RegSet> &live = func.liveness.liveIn;
    const std::uint32_t n = rd.u32();
    if (n != 0 && n != func.blocks.size())
        return false;
    if (n > rd.remaining() / 4)
        return false;
    live.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t raw = rd.u32();
        if (raw >> num_regs != 0)
            return false;
        live.push_back(RegSet::fromRaw(raw));
    }
    return !rd.failed();
}

/** Where a lookup decodes a record: the symbol that asked, in its image. */
struct DecodeSite
{
    const BinaryImage &image;
    const Symbol &sym;
};

/**
 * Decode a function payload. With a @p site, every absolute address
 * is rematerialized at the site's symbol, the record must be as long
 * as that symbol, and its instructions are rebuilt from the image's
 * bytes (see decodeBlock); without one, the decode happens at the
 * record's origin entry and checks structure only. Structural
 * validation (sortedness, enum ranges, bounds) runs on the
 * rematerialized values — wrap-around deltas round-trip exactly, so
 * this checks the same invariants the encoder wrote.
 */
bool
decodeFunction(ByteReader &rd, Function &func, RecordMeta &meta,
               const DecodeSite *site)
{
    meta.origEntry = rd.u64();
    meta.tocDelta = static_cast<std::int64_t>(rd.u64());
    meta.usesToc = rd.u8() != 0;
    const Addr entry = site ? site->sym.addr : meta.origEntry;
    func.entry = entry;
    func.name = rd.str();
    const std::uint64_t size = rd.u64();
    if (site && size != site->sym.size)
        return false;
    func.end = entry + size;
    const std::uint8_t failure = rd.u8();
    if (failure >
        static_cast<std::uint8_t>(AnalysisFailure::gapsWithRealCode))
        return false;
    func.failure = static_cast<AnalysisFailure>(failure);
    const std::uint32_t npads = rd.u32();
    if (npads > rd.remaining() / 8)
        return false;
    for (std::uint32_t i = 0; i < npads; ++i)
        func.landingPads.insert(absAddr(rd.u64(), entry));
    const std::uint32_t ntails = rd.u32();
    if (ntails > rd.remaining() / 8)
        return false;
    for (std::uint32_t i = 0; i < ntails; ++i)
        func.indirectTailCalls.push_back(absAddr(rd.u64(), entry));
    const std::uint32_t njts = rd.u32();
    if (njts > rd.remaining() / 46) // minimum encoded table size
        return false;
    func.jumpTables.resize(njts);
    for (JumpTable &jt : func.jumpTables) {
        if (!decodeJumpTable(rd, jt, entry))
            return false;
    }
    const std::uint32_t nblocks = rd.u32();
    if (nblocks > rd.remaining() / 33) // minimum encoded block size
        return false;
    std::size_t ninsns = 0, nedges = 0;
    if (!blockTotals(rd, nblocks, ninsns, nedges))
        return false;
    // A block's count is checked against its bounds only as the
    // block decodes, so the reserve trusts no more instructions than
    // the function has bytes.
    func.blocks.reserve(nblocks);
    if (site)
        func.insns.reserve(std::min<std::uint64_t>(ninsns, size));
    func.edges.reserve(nedges);
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        if (!decodeBlock(rd, func, site ? &site->image : nullptr))
            return false;
    }
    if (!decodeDataDeps(rd, func.dataDeps, entry) ||
        !decodeLiveness(rd, func))
        return false;
    // Trailing garbage means the payload was not written by this
    // encoder: reject rather than guess.
    return !rd.failed() && rd.remaining() == 0;
}

/** The one record kind: a position-independent Function. */
constexpr std::uint8_t entry_kind_function = 4;

// --- advisory file lock ---------------------------------------------------

/**
 * RAII flock over `<path>.lock`. Best effort: when the lock file
 * cannot even be created (read-only directory), writers proceed
 * unlocked — never less available than without the lock.
 */
class CacheFileLock
{
  public:
    explicit CacheFileLock(const std::string &cache_path)
    {
        const std::string lock_path = cache_path + ".lock";
        fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0666);
        if (fd_ >= 0)
            ::flock(fd_, LOCK_EX);
    }

    ~CacheFileLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    CacheFileLock(const CacheFileLock &) = delete;
    CacheFileLock &operator=(const CacheFileLock &) = delete;

  private:
    int fd_ = -1;
};


// --- the segment index ----------------------------------------------------

/** One index record (layout in cache_store.hh). */
struct IndexRecord
{
    std::uint8_t arch = 0;
    std::uint8_t kind = 0;
    std::uint16_t reserved = 0;
    std::uint32_t payloadLen = 0;
    std::uint64_t key = 0;
    std::uint64_t payloadOffset = 0;
    std::uint64_t payloadHash = 0;
};

IndexRecord
readRecord(const std::uint8_t *records, std::uint32_t i)
{
    const std::uint8_t *p =
        records + static_cast<std::size_t>(i) * cache_index_record_bytes;
    IndexRecord r;
    r.arch = p[0];
    r.kind = p[1];
    r.reserved = getU16(p + 2);
    r.payloadLen = getU32(p + 4);
    r.key = getU64(p + 8);
    r.payloadOffset = getU64(p + 16);
    r.payloadHash = getU64(p + 24);
    return r;
}

/** (arch, kind) packed so that records order as (group, key). */
std::uint16_t
recordGroup(std::uint8_t arch, std::uint8_t kind)
{
    return static_cast<std::uint16_t>(arch << 8 | kind);
}

/**
 * First of the records [lo, hi) at @p records whose (group, key) is
 * not below the given one. An unsorted index (corruption) yields some
 * position in [lo, hi], never a read out of bounds.
 */
std::uint32_t
lowerBound(const std::uint8_t *records, std::uint32_t lo,
           std::uint32_t hi, std::uint16_t group, std::uint64_t key)
{
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        const std::uint8_t *p =
            records +
            static_cast<std::size_t>(mid) * cache_index_record_bytes;
        const std::uint16_t g = recordGroup(p[0], p[1]);
        if (g < group || (g == group && getU64(p + 8) < key))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/** @p r's payload lies inside the @p payload_bytes present. */
bool
inBounds(const IndexRecord &r, std::uint64_t payload_bytes)
{
    return r.payloadOffset <= payload_bytes &&
           r.payloadLen <= payload_bytes - r.payloadOffset;
}

/**
 * The record of (arch, kind, key) among records [lo, hi), when its
 * payload lies inside the @p payload_bytes present.
 */
bool
findRecord(const std::uint8_t *records, std::uint32_t lo,
           std::uint32_t hi, std::uint64_t payload_bytes,
           std::uint8_t arch, std::uint8_t kind, std::uint64_t key,
           IndexRecord &out)
{
    const std::uint32_t pos =
        lowerBound(records, lo, hi, recordGroup(arch, kind), key);
    if (pos == hi)
        return false;
    const IndexRecord r = readRecord(records, pos);
    if (r.arch != arch || r.kind != kind || r.key != key ||
        !inBounds(r, payload_bytes))
        return false;
    out = r;
    return true;
}

/** One segment located in a file; its index is not walked. */
struct SegmentView
{
    std::size_t offset = 0; ///< segment header offset in the file
    std::uint64_t generation = 0;
    const std::uint8_t *records = nullptr;
    std::uint32_t count = 0; ///< index records present in the file
    const std::uint8_t *payloads = nullptr;
    std::uint64_t payloadBytes = 0; ///< payload bytes present
    bool complete = true;           ///< false: the torn final segment

    IndexRecord record(std::uint32_t i) const
    {
        return readRecord(records, i);
    }

    bool inBounds(const IndexRecord &r) const
    {
        return icp::inBounds(r, payloadBytes);
    }

    const std::uint8_t *payload(const IndexRecord &r) const
    {
        return payloads + r.payloadOffset;
    }

    /** First record at or after group (arch, kind). */
    std::uint32_t
    lowerBound(std::uint8_t arch, std::uint8_t kind) const
    {
        return icp::lowerBound(records, 0, count,
                               recordGroup(arch, kind), 0);
    }

    bool
    find(std::uint8_t arch, std::uint8_t kind, std::uint64_t key,
         IndexRecord &out) const
    {
        return findRecord(records, 0, count, payloadBytes, arch, kind,
                          key, out);
    }
};

struct ScanResult
{
    std::uint32_t version = 0;
    std::uint64_t maxGeneration = 0;
    unsigned segments = 0;       ///< complete segments
    bool torn = false;           ///< trailing torn/garbage segment
    unsigned droppedEntries = 0; ///< records lost to a torn tail
    /** Complete segments in file order, then the torn one (if any). */
    std::vector<SegmentView> views;
    std::vector<CacheFileIssue> issues;

    bool current() const { return version == cache_file_version; }

    /** Newest record of (arch, kind, key) in a complete segment. */
    bool
    findDurable(std::uint8_t arch, std::uint8_t kind, std::uint64_t key,
                IndexRecord &out) const
    {
        for (auto it = views.rbegin(); it != views.rend(); ++it)
            if (it->complete && it->find(arch, kind, key, out))
                return true;
        return false;
    }
};

/**
 * Walk @p data's segment headers: O(segments), no index record is
 * read except in a torn final segment, whose in-bounds records are
 * counted. Only the current version's segment chain is understood;
 * any other version yields one info-grade cache-version issue and no
 * segments.
 */
ScanResult
scanBuffer(const std::uint8_t *data, std::size_t size)
{
    ScanResult scan;

    ByteReader rd(data, size);
    const std::uint32_t magic = rd.u32();
    if (rd.failed() || magic != cache_file_magic) {
        scan.issues.push_back(
            {"cache-magic", 0,
             "file does not start with the ICPC cache magic"});
        return scan;
    }
    const std::uint32_t version = rd.u32();
    scan.version = version;

    if (version != cache_file_version) {
        char msg[112];
        std::snprintf(msg, sizeof(msg),
                      "format version %u (this build reads %u); file "
                      "ignored, the next save overwrites it",
                      version, cache_file_version);
        scan.issues.push_back({"cache-version", 4, msg});
        return scan;
    }

    rd.u64(); // file generation
    while (!rd.failed() && rd.remaining() > 0) {
        const std::size_t seg_off = rd.pos();
        if (rd.remaining() < cache_segment_header_bytes) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "trailing %zu bytes are not a complete "
                          "segment header; tail dropped",
                          rd.remaining());
            scan.issues.push_back({"cache-torn", seg_off, msg});
            scan.torn = true;
            return scan;
        }
        const std::uint32_t seg_magic = rd.u32();
        const std::uint32_t count = rd.u32();
        const std::uint64_t body_bytes = rd.u64();
        const std::uint64_t generation = rd.u64();
        const std::uint64_t header_hash = rd.u64();
        if (seg_magic != cache_segment_magic ||
            header_hash != fnv1a(data + seg_off, 24)) {
            scan.issues.push_back(
                {"cache-torn", seg_off,
                 "segment header corrupt (bad magic or header "
                 "checksum); tail dropped"});
            scan.torn = true;
            return scan;
        }

        const std::uint64_t index_bytes =
            std::uint64_t{count} * cache_index_record_bytes;
        const std::uint64_t present =
            std::min<std::uint64_t>(body_bytes, rd.remaining());
        SegmentView view;
        view.offset = seg_off;
        view.generation = generation;
        view.records = data + rd.pos();
        view.count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            count, present / cache_index_record_bytes));
        if (index_bytes <= present) {
            view.payloads = view.records + index_bytes;
            view.payloadBytes = present - index_bytes;
        }
        view.complete =
            index_bytes <= body_bytes && body_bytes <= rd.remaining();
        scan.views.push_back(view);
        if (view.complete) {
            ++scan.segments;
            scan.maxGeneration = std::max(scan.maxGeneration, generation);
            rd.blob(static_cast<std::size_t>(body_bytes));
            continue;
        }

        // Torn append (a writer died mid-write) or a header whose
        // index does not fit its body: keep the records whose payload
        // made it into the file and drop the rest of the file.
        std::uint32_t salvaged = 0;
        for (std::uint32_t i = 0; i < view.count; ++i)
            salvaged += view.inBounds(view.record(i)) ? 1 : 0;
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "segment torn at offset %zu; %u of %u "
                      "entries salvaged, tail dropped",
                      seg_off, salvaged, count);
        scan.issues.push_back({"cache-torn", seg_off, msg});
        scan.torn = true;
        scan.droppedEntries += count - salvaged;
        return scan;
    }
    return scan;
}

ScanResult
scanFile(const std::shared_ptr<MappedCacheFile> &file)
{
    return scanBuffer(file->data(), file->size());
}

// --- serialization of headers/segments ------------------------------------

/** One entry to write: payload bytes and their entry hash. */
struct OutEntry
{
    const std::uint8_t *payload = nullptr;
    std::uint32_t payloadLen = 0;
    std::uint64_t payloadHash = 0;
};

/** (arch, kind, key): the index order. */
using EntryId = std::tuple<std::uint8_t, std::uint8_t, std::uint64_t>;

/** Entries to write, in index order. */
using OutEntries = std::map<EntryId, OutEntry>;

/**
 * Encoded payloads that OutEntries point into; deque elements never
 * move, so the pointers stay valid while entries are added.
 */
class PayloadArena
{
  public:
    OutEntry
    add(const EntryId &id, std::vector<std::uint8_t> payload)
    {
        const std::vector<std::uint8_t> &kept =
            buffers_.emplace_back(std::move(payload));
        OutEntry e;
        e.payload = kept.data();
        e.payloadLen = static_cast<std::uint32_t>(kept.size());
        e.payloadHash = cacheEntryHash(std::get<0>(id), std::get<1>(id),
                                       std::get<2>(id), kept.data(),
                                       kept.size());
        return e;
    }

  private:
    std::deque<std::vector<std::uint8_t>> buffers_;
};

/** @p r's payload as it lies in the mapped @p payloads area. */
OutEntry
mappedEntry(const std::uint8_t *payloads, const IndexRecord &r)
{
    OutEntry e;
    e.payload = payloads + r.payloadOffset;
    e.payloadLen = r.payloadLen;
    e.payloadHash = r.payloadHash;
    return e;
}

std::vector<std::uint8_t>
fileHeader(std::uint64_t generation)
{
    std::vector<std::uint8_t> out;
    putU32(out, cache_file_magic);
    putU32(out, cache_file_version);
    putU64(out, generation);
    return out;
}

/**
 * Write @p bytes to @p path, created if missing, opened with
 * O_WRONLY | @p flags (O_TRUNC or O_APPEND): one write(2) per
 * chunk the kernel takes, retried on EINTR.
 */
bool
writeFile(const std::string &path, int flags,
          const std::vector<std::uint8_t> &bytes)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | flags, 0666);
    if (fd < 0)
        return false;
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        done += static_cast<std::size_t>(n);
    }
    return ::close(fd) == 0 && done == bytes.size();
}

/** Frame @p entries as one segment: header, sorted index, payloads. */
std::vector<std::uint8_t>
segmentBytes(const OutEntries &entries, std::uint64_t generation)
{
    std::uint64_t body = entries.size() * cache_index_record_bytes;
    for (const auto &[id, e] : entries)
        body += e.payloadLen;
    std::vector<std::uint8_t> out;
    out.reserve(cache_segment_header_bytes + body);
    putU32(out, cache_segment_magic);
    putU32(out, static_cast<std::uint32_t>(entries.size()));
    putU64(out, body);
    putU64(out, generation);
    putU64(out, fnv1a(out.data(), 24));
    std::uint64_t offset = 0;
    for (const auto &[id, e] : entries) {
        putU8(out, std::get<0>(id));
        putU8(out, std::get<1>(id));
        putU16(out, 0);
        putU32(out, e.payloadLen);
        putU64(out, std::get<2>(id));
        putU64(out, offset);
        putU64(out, e.payloadHash);
        offset += e.payloadLen;
    }
    for (const auto &[id, e] : entries)
        out.insert(out.end(), e.payload, e.payload + e.payloadLen);
    return out;
}

bool
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    if (!writeFile(tmp, O_TRUNC, bytes))
        return false;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::uint64_t
fileSizeOf(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

/**
 * Compaction body, caller holds the file lock. Rewrites @p path as
 * one deduplicated sorted segment, newest-generation entries first up
 * to @p max_bytes (0 = keep everything that verifies).
 */
bool
compactLocked(const std::string &path, std::uint64_t max_bytes,
              CacheCompactionResult &out)
{
    auto file = MappedCacheFile::open(path);
    if (!file)
        return false;
    out.bytesBefore = file->size();
    const ScanResult scan = scanFile(file);
    if (!scan.issues.empty() && scan.version == 0)
        return false; // not a cache file; refuse to clobber it

    // Deduplicate by (arch, kind, key) with the newest segment
    // winning, and heal silently-corrupt records by verifying each
    // kind and checksum here — compaction is the slow, thorough path.
    struct Candidate
    {
        OutEntry entry;
        std::uint64_t generation = 0;
        std::size_t position = 0; ///< index record offset in the file
    };
    std::map<EntryId, Candidate> by_key;
    for (const SegmentView &view : scan.views) {
        for (std::uint32_t i = 0; i < view.count; ++i) {
            const IndexRecord r = view.record(i);
            if (!view.inBounds(r))
                continue;
            ++out.entriesBefore;
            if (r.kind != entry_kind_function ||
                cacheEntryHash(r.arch, r.kind, r.key, view.payload(r),
                               r.payloadLen) != r.payloadHash)
                continue;
            Candidate &c = by_key[{r.arch, r.kind, r.key}];
            c.entry = mappedEntry(view.payloads, r);
            c.generation = view.generation;
            c.position = static_cast<std::size_t>(
                view.records - file->data() +
                std::size_t{i} * cache_index_record_bytes);
        }
    }

    // Keep newest generations first until the byte cap.
    std::vector<std::pair<EntryId, const Candidate *>> candidates;
    candidates.reserve(by_key.size());
    for (const auto &[id, c] : by_key)
        candidates.emplace_back(id, &c);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const auto &a, const auto &b) {
                         if (a.second->generation !=
                             b.second->generation)
                             return a.second->generation >
                                    b.second->generation;
                         return a.second->position < b.second->position;
                     });
    std::uint64_t used =
        cache_file_header_bytes + cache_segment_header_bytes;
    OutEntries kept;
    for (const auto &[id, c] : candidates) {
        const std::uint64_t cost =
            cache_index_record_bytes + c->entry.payloadLen;
        if (max_bytes != 0 && used + cost > max_bytes)
            break;
        used += cost;
        kept.emplace(id, c->entry);
    }

    const std::uint64_t generation = scan.maxGeneration + 1;
    std::vector<std::uint8_t> bytes = fileHeader(generation);
    const std::vector<std::uint8_t> seg = segmentBytes(kept, generation);
    bytes.insert(bytes.end(), seg.begin(), seg.end());

    if (!writeFileAtomic(path, bytes))
        return false;
    out.performed = true;
    out.entriesKept = static_cast<unsigned>(kept.size());
    out.entriesEvicted =
        static_cast<unsigned>(by_key.size() - kept.size());
    out.bytesAfter = bytes.size();
    return true;
}

} // namespace

std::uint64_t
cacheEntryHash(std::uint8_t arch, std::uint8_t kind, std::uint64_t key,
               const std::uint8_t *payload, std::size_t len)
{
    std::uint8_t id[10] = {arch, kind};
    for (unsigned i = 0; i < 8; ++i)
        id[2 + i] = static_cast<std::uint8_t>(key >> (8 * i));
    return fnv1a(payload, len, fnv1a(id, sizeof(id)));
}

// --- MappedCacheFile ------------------------------------------------------

std::shared_ptr<MappedCacheFile>
MappedCacheFile::open(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return nullptr;
    }
    auto file = std::shared_ptr<MappedCacheFile>(
        new MappedCacheFile());
    file->device_ = static_cast<std::uint64_t>(st.st_dev);
    file->inode_ = static_cast<std::uint64_t>(st.st_ino);
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        ::close(fd);
        return file; // empty file: valid mapping of zero bytes
    }
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
        file->map_ = map;
        file->data_ = static_cast<const std::uint8_t *>(map);
        file->size_ = size;
        ::close(fd);
        return file;
    }
    // mmap-hostile filesystem: fall back to a plain read.
    file->buffer_.resize(size);
    std::size_t off = 0;
    while (off < size) {
        const ::ssize_t n =
            ::read(fd, file->buffer_.data() + off, size - off);
        if (n <= 0) {
            ::close(fd);
            return nullptr;
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    file->data_ = file->buffer_.data();
    file->size_ = size;
    return file;
}

MappedCacheFile::~MappedCacheFile()
{
    if (map_ != nullptr)
        ::munmap(map_, size_);
}

// --- lazy lookups ---------------------------------------------------------

bool
AnalysisCache::findIndexed(std::uint64_t key, IndexedPayload &out) const
{
    for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
        const IndexSlice &s = *it;
        // An out-of-bounds record (torn tail, corrupt offset) is not
        // there: an older segment's copy may still serve the key.
        IndexRecord r;
        if (!findRecord(s.records, s.begin, s.end, s.payloadBytes,
                        static_cast<std::uint8_t>(s.arch),
                        entry_kind_function, key, r))
            continue;
        out.arch = s.arch;
        out.key = key;
        out.payload = s.payloads + r.payloadOffset;
        out.payloadLen = r.payloadLen;
        out.payloadHash = r.payloadHash;
        out.file = s.file;
        return true;
    }
    return false;
}

bool
AnalysisCache::IndexedPayload::intact() const
{
    return cacheEntryHash(static_cast<std::uint8_t>(arch),
                          entry_kind_function, key, payload,
                          payloadLen) == payloadHash;
}

const CacheCounters &
CacheCounters::global()
{
    Metrics &m = Metrics::global();
    static const CacheCounters counters{
        m.counter("cache.bytes_mapped"), m.counter("cache.bytes_appended"),
        m.counter("cache.entries_lazy"), m.counter("cache.cross_hits")};
    return counters;
}

std::shared_ptr<const Function>
AnalysisCache::findFunction(std::uint64_t key, const BinaryImage &image,
                            const Symbol &sym)
{
    const Addr entry = sym.addr;
    std::unique_lock<std::mutex> lock(mu_);
    Entry rec;
    IndexedPayload ip;
    if (auto it = functions_.find(key); it != functions_.end()) {
        rec = it->second;
    } else if (!findIndexed(key, ip)) {
        stats_.functionMisses++;
        return nullptr;
    }

    std::shared_ptr<const Function> value = std::move(rec.value);
    if (!value || value->entry != entry) {
        // Decode a record at the asking symbol, rebuilding its
        // instructions from this image's code bytes, outside the
        // lock: the mapped payload on a file entry's first lookup
        // (the shared mapping keeps the bytes alive), else the
        // in-memory entry's own record, encoded here. A racing
        // decode of the same key is wasted work, not a bug.
        lock.unlock();
        const bool mapped = !value;
        std::vector<std::uint8_t> encoded;
        if (!mapped)
            encoded = encodeFunction(
                *value, {rec.origEntry, rec.tocDelta, rec.usesToc});
        ByteReader rd(mapped ? ip.payload : encoded.data(),
                      mapped ? ip.payloadLen : encoded.size());
        Function func;
        RecordMeta meta;
        const DecodeSite site{image, sym};
        const bool ok = (!mapped || ip.intact()) &&
                        decodeFunction(rd, func, meta, &site);
        lock.lock();
        if (!ok) {
            // Corrupt, undecodable, or not this symbol's code: count
            // the miss and re-analyze; a corrupt entry heals on the
            // next compaction.
            stats_.functionMisses++;
            return nullptr;
        }
        func.cacheKey = key;
        value = std::make_shared<const Function>(std::move(func));
        if (mapped) {
            rec.arch = ip.arch;
            rec.origEntry = meta.origEntry;
            rec.tocDelta = meta.tocDelta;
            rec.usesToc = meta.usesToc;
            rec.value = value;
            functions_.emplace(key, rec);
            CacheCounters::global().entriesLazy.add();
        }
    }

    // Cross-binary hit: the same code bytes at a different address.
    // Toc-relative code derives targets from tocBase, so the hit is
    // only exact when the requester's toc offset matches.
    const bool cross = entry != rec.origEntry;
    if (cross && rec.usesToc &&
        static_cast<std::int64_t>(image.tocBase) -
                static_cast<std::int64_t>(entry) !=
            rec.tocDelta) {
        stats_.functionMisses++;
        return nullptr;
    }
    stats_.functionHits++;
    if (cross)
        CacheCounters::global().crossHits.add();
    return value;
}

std::size_t
AnalysisCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::uint64_t> keys;
    for (const auto &[key, e] : functions_)
        keys.insert(key);
    for (const IndexSlice &s : slices_) {
        for (std::uint32_t i = s.begin; i < s.end; ++i) {
            const IndexRecord r = readRecord(s.records, i);
            if (inBounds(r, s.payloadBytes))
                keys.insert(r.key);
        }
    }
    return keys.size();
}

// --- load -----------------------------------------------------------------

CacheLoadReport
AnalysisCache::load(const std::string &path,
                    std::optional<Arch> expect_arch)
{
    const ScopedTimer timer(cache_load_timer);
    CacheLoadReport report;

    auto file = MappedCacheFile::open(path);
    if (!file)
        return report; // absent file: cold start, not an error
    report.fileRead = true;
    report.bytesMapped = file->size();
    CacheCounters::global().bytesMapped.add(file->size());

    ScanResult scan = scanFile(file);
    report.fileVersion = scan.version;
    report.segments = scan.segments;
    report.droppedEntries = scan.droppedEntries;
    report.issues = std::move(scan.issues);

    // One slice per segment and ISA, bounded by binary search over
    // the sorted index. No record of another ISA is read.
    std::vector<IndexSlice> slices;
    for (const SegmentView &view : scan.views) {
        for (Arch arch : all_arches) {
            if (expect_arch && arch != *expect_arch)
                continue;
            const auto a = static_cast<std::uint8_t>(arch);
            IndexSlice slice;
            slice.file = file;
            slice.arch = arch;
            slice.records = view.records;
            slice.payloads = view.payloads;
            slice.payloadBytes = view.payloadBytes;
            // max() keeps the bounds ordered even when a corrupt
            // index is unsorted.
            slice.begin = view.lowerBound(a, entry_kind_function);
            slice.end = std::max(
                slice.begin, view.lowerBound(a, entry_kind_function + 1));
            if (view.complete) {
                report.loadedFunctions += slice.end - slice.begin;
            } else {
                for (std::uint32_t i = slice.begin; i < slice.end; ++i)
                    report.loadedFunctions +=
                        view.inBounds(view.record(i)) ? 1 : 0;
            }
            slices.push_back(slice);
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    // A file that is mapped again (same inode, so a superset of the
    // earlier mapping) replaces its earlier slices for these ISAs:
    // repeated loads keep the lookup chain one mapping long.
    slices_.erase(
        std::remove_if(slices_.begin(), slices_.end(),
                       [&](const IndexSlice &s) {
                           return s.file->sameFile(*file) &&
                                  (!expect_arch ||
                                   s.arch == *expect_arch);
                       }),
        slices_.end());
    slices_.insert(slices_.end(), slices.begin(), slices.end());
    loaded_.erase(std::remove_if(loaded_.begin(), loaded_.end(),
                                 [&](const auto &f) {
                                     return f->sameFile(*file);
                                 }),
                  loaded_.end());
    loaded_.push_back(file);
    return report;
}

// --- save -----------------------------------------------------------------

bool
AnalysisCache::save(const std::string &path, std::uint64_t max_bytes)
{
    const ScopedTimer timer(cache_save_timer);
    // Writers serialize here; the scan below therefore sees every
    // segment earlier writers appended (merge-on-save).
    CacheFileLock file_lock(path);

    auto file = MappedCacheFile::open(path);
    ScanResult scan;
    if (file)
        scan = scanFile(file);
    const bool append_mode = file && scan.current() && !scan.torn;

    // The delta: every candidate the file lacks, each checked by
    // binary search against the file's current segment indexes.
    // Decoded values are encoded here; mapped (never-decoded) records
    // copy straight through without a decode+re-encode trip.
    PayloadArena arena;
    OutEntries delta;
    std::vector<std::shared_ptr<MappedCacheFile>> keep_mapped;
    bool same_file = false;
    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        same_file = append_mode && !loaded_.empty();
        for (const auto &mapped : loaded_)
            same_file = same_file && mapped->sameFile(*file);
        seq = storeSeq_;

        // A key the file holds is skipped, unless this process stored
        // it and its payload differs from the file's newest record (a
        // data edit re-analyzed the function under an unchanged key).
        // Same file: everything else in memory came from it or was
        // saved to it already.
        for (const auto &[key, e] : functions_) {
            if (same_file && e.stored <= savedSeq_)
                continue;
            const EntryId id{static_cast<std::uint8_t>(e.arch),
                             entry_kind_function, key};
            IndexRecord r;
            const bool present = scan.findDurable(
                std::get<0>(id), entry_kind_function, key, r);
            if (present && e.stored == 0)
                continue;
            const OutEntry fresh = arena.add(
                id, encodeFunction(*e.value, {e.origEntry, e.tocDelta,
                                              e.usesToc}));
            if (!present || r.payloadHash != fresh.payloadHash)
                delta[id] = fresh;
        }

        if (!same_file) {
            // Mapped records no decoded entry shadows, newest first.
            std::set<std::uint64_t> seen;
            for (auto it = slices_.rbegin(); it != slices_.rend();
                 ++it) {
                const IndexSlice &s = *it;
                for (std::uint32_t i = s.begin; i < s.end; ++i) {
                    const IndexRecord r = readRecord(s.records, i);
                    IndexRecord found;
                    if (!inBounds(r, s.payloadBytes) ||
                        functions_.count(r.key) ||
                        !seen.insert(r.key).second ||
                        scan.findDurable(r.arch, r.kind, r.key, found))
                        continue;
                    delta.emplace(EntryId{r.arch, r.kind, r.key},
                                  mappedEntry(s.payloads, r));
                }
            }
            keep_mapped = loaded_;
        }
    }

    bool ok = true;
    if (append_mode && delta.empty()) {
        // Fully-warm run: nothing new, the file is not touched at
        // all (same bytes, same mtime).
    } else if (append_mode) {
        const std::vector<std::uint8_t> seg =
            segmentBytes(delta, scan.maxGeneration + 1);
        ok = writeFile(path, O_APPEND, seg);
        if (ok)
            CacheCounters::global().bytesAppended.add(seg.size());
    } else {
        // Fresh file, other version, foreign/torn content: full
        // atomic rewrite. The file's records of every ISA that made
        // it to disk pass through (newest segment first); the delta
        // wins over them.
        OutEntries all = delta;
        for (auto it = scan.views.rbegin(); it != scan.views.rend();
             ++it) {
            for (std::uint32_t i = 0; i < it->count; ++i) {
                const IndexRecord r = it->record(i);
                if (it->inBounds(r) && r.kind == entry_kind_function)
                    all.emplace(EntryId{r.arch, r.kind, r.key},
                                mappedEntry(it->payloads, r));
            }
        }
        const std::uint64_t generation = scan.maxGeneration + 1;
        std::vector<std::uint8_t> bytes = fileHeader(generation);
        const std::vector<std::uint8_t> seg =
            segmentBytes(all, generation);
        bytes.insert(bytes.end(), seg.begin(), seg.end());
        ok = writeFileAtomic(path, bytes);
        if (ok)
            CacheCounters::global().bytesAppended.add(bytes.size());
    }

    if (ok && same_file) {
        // The file now holds every store up to seq.
        std::lock_guard<std::mutex> lock(mu_);
        savedSeq_ = std::max(savedSeq_, seq);
    }

    // Size-cap policy: compact in place while still holding the
    // lock (compaction failure never fails the save).
    if (ok && max_bytes != 0 && fileSizeOf(path) > max_bytes) {
        CacheCompactionResult compaction;
        compactLocked(path, max_bytes, compaction);
    }
    return ok;
}

// --- inspect / verify / compact -------------------------------------------

CacheFileInfo
inspectCacheFile(const std::string &path)
{
    CacheFileInfo info;
    auto file = MappedCacheFile::open(path);
    if (!file)
        return info;
    info.fileRead = true;
    info.fileBytes = file->size();
    ScanResult scan = scanFile(file);
    info.version = scan.version;
    info.generation = scan.maxGeneration;
    info.segments = scan.segments;
    info.issues = std::move(scan.issues);
    std::set<EntryId> keys;
    std::set<std::uint64_t> payload_hashes;
    for (const SegmentView &view : scan.views) {
        // Per-ISA counts straight from the sorted index bounds.
        for (Arch arch : all_arches) {
            const auto a = static_cast<std::uint8_t>(arch);
            const std::uint32_t first = view.lowerBound(a, 0);
            info.archEntries[a] +=
                std::max(first, view.lowerBound(a + 1, 0)) - first;
        }
        for (std::uint32_t i = 0; i < view.count; ++i) {
            const IndexRecord r = view.record(i);
            if (!view.inBounds(r) || r.kind != entry_kind_function)
                continue;
            ++info.functionEntries;
            info.functionPayloadBytes += r.payloadLen;
            keys.insert({r.arch, r.kind, r.key});
            payload_hashes.insert(
                fnv1a(view.payload(r), r.payloadLen));
        }
    }
    info.distinctKeys = static_cast<unsigned>(keys.size());
    info.distinctPayloads =
        static_cast<unsigned>(payload_hashes.size());
    return info;
}

CacheLoadReport
verifyCacheFile(const std::string &path)
{
    CacheLoadReport report;
    auto file = MappedCacheFile::open(path);
    if (!file)
        return report;
    report.fileRead = true;
    report.bytesMapped = file->size();

    ScanResult scan = scanFile(file);
    report.fileVersion = scan.version;
    report.segments = scan.segments;
    report.droppedEntries = scan.droppedEntries;
    report.issues = std::move(scan.issues);

    for (const SegmentView &view : scan.views) {
        for (std::uint32_t i = 0; i < view.count; ++i) {
            const IndexRecord r = view.record(i);
            const std::size_t offset = static_cast<std::size_t>(
                view.records - file->data() +
                std::size_t{i} * cache_index_record_bytes);
            if (i > 0) {
                const IndexRecord prev = view.record(i - 1);
                if (std::make_tuple(prev.arch, prev.kind, prev.key) >=
                    std::make_tuple(r.arch, r.kind, r.key))
                    report.issues.push_back(
                        {"cache-entry", offset,
                         "index record out of (arch, kind, key) "
                         "order; lookups may miss it"});
            }
            if (!view.inBounds(r)) {
                // A torn tail's lost records are already counted.
                if (view.complete) {
                    report.issues.push_back(
                        {"cache-truncated", offset,
                         "index record points past its segment"});
                    ++report.droppedEntries;
                }
                continue;
            }
            if (cacheEntryHash(r.arch, r.kind, r.key, view.payload(r),
                               r.payloadLen) != r.payloadHash) {
                report.issues.push_back(
                    {"cache-checksum", offset,
                     "payload checksum mismatch"});
                ++report.droppedEntries;
                continue;
            }
            if (r.reserved != 0 ||
                r.arch > static_cast<std::uint8_t>(Arch::aarch64)) {
                report.issues.push_back(
                    {"cache-entry", offset,
                     "unknown ISA tag or reserved index bits set"});
                ++report.droppedEntries;
                continue;
            }
            if (r.kind != entry_kind_function) {
                report.issues.push_back(
                    {"cache-entry", offset,
                     "unknown entry kind " + std::to_string(r.kind)});
                ++report.droppedEntries;
                continue;
            }
            // Structure only: the instructions are checked against
            // the code bytes when a lookup decodes the record.
            ByteReader rd(view.payload(r), r.payloadLen);
            Function func;
            RecordMeta meta;
            if (!decodeFunction(rd, func, meta, nullptr)) {
                report.issues.push_back({"cache-entry", offset,
                                         "malformed function payload"});
                ++report.droppedEntries;
                continue;
            }
            ++report.loadedFunctions;
        }
    }
    return report;
}

bool
compactCacheFile(const std::string &path, std::uint64_t max_bytes,
                 CacheCompactionResult &out)
{
    CacheFileLock lock(path);
    return compactLocked(path, max_bytes, out);
}

} // namespace icp
