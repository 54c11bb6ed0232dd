/**
 * @file
 * AnalysisCache::save()/load() and the `icp cache` helpers: the v4
 * segmented cache-file format documented in cache_store.hh
 * (position-independent entries, content-addressed keys). A file of
 * any other version loads as empty and the next save overwrites it.
 *
 * Layered like the SBF container code: a bounds-latched ByteReader
 * and kind-specific payload encoders/decoders at the bottom; a
 * header-walking scanner shared by every consumer (load, save's
 * merge step, inspect, verify, compact) in the middle; and the
 * public operations on top. Every decode path validates enum ranges
 * so a corrupt payload can only ever drop its own entry, never read
 * out of bounds or poison the cache.
 *
 * Concurrency: writers (save, compact) serialize on an advisory
 * flock over `<path>.lock`. Readers never lock — the format is
 * append-only, so a reader sees a valid prefix plus at most one
 * torn tail, which the scanner salvages entry-by-entry. Full
 * rewrites (version change, torn-tail repair, compaction) write a
 * temp file and rename it into place, which keeps existing mmaps
 * valid on the old inode.
 */

#include "analysis/cache_store.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/cache.hh"
#include "isa/bytes.hh"
#include "support/stats.hh"

namespace icp
{

namespace
{

// --- low-level byte IO ----------------------------------------------------

void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/**
 * Bounds-latched sequential reader: the first out-of-range read
 * flips failed() and every later read returns zeros, so decoders can
 * run straight through and check once at the end.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool failed() const { return failed_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        const std::uint32_t v = getU32(data_ + pos_);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        const std::uint64_t v = getU64(data_ + pos_);
        pos_ += 8;
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      len);
        pos_ += len;
        return s;
    }

    const std::uint8_t *
    blob(std::size_t len)
    {
        if (!need(len))
            return nullptr;
        const std::uint8_t *p = data_ + pos_;
        pos_ += len;
        return p;
    }

  private:
    bool
    need(std::uint64_t len)
    {
        if (failed_ || pos_ + len > size_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

// --- payload encoders -----------------------------------------------------

/**
 * Entry-relative address encoding (v4): addresses are stored as
 * wrap-around u64 deltas from the function entry, so a payload is
 * position-independent and decoding at any entry reconstructs
 * consistent absolute addresses (two's-complement round trip).
 * The invalid_addr sentinel (unresolved Instruction::target) is
 * preserved verbatim — it must not shift.
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
encodeInstruction(std::vector<std::uint8_t> &out,
                  const Instruction &in, Addr entry)
{
    putU8(out, static_cast<std::uint8_t>(in.op));
    putU8(out, static_cast<std::uint8_t>(in.rd));
    putU8(out, static_cast<std::uint8_t>(in.rs1));
    putU8(out, static_cast<std::uint8_t>(in.rs2));
    putU8(out, static_cast<std::uint8_t>(in.cond));
    putU8(out, in.memSize);
    putU8(out, in.signedLoad ? 1 : 0);
    putU8(out, in.movShift);
    putU8(out, in.movKeep ? 1 : 0);
    putU8(out, in.formHint);
    putU64(out, static_cast<std::uint64_t>(in.imm));
    putU64(out, relAddr(in.target, entry));
    putU64(out, relAddr(in.addr, entry));
    putU32(out, in.length);
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
encodeBlock(std::vector<std::uint8_t> &out, const Block &block,
            Addr entry)
{
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
    putU32(out, static_cast<std::uint32_t>(block.insns.size()));
    for (const Instruction &in : block.insns)
        encodeInstruction(out, in, entry);
    putU32(out, static_cast<std::uint32_t>(block.succs.size()));
    for (const Edge &e : block.succs) {
        putU64(out, relAddr(e.target, entry));
        putU8(out, static_cast<std::uint8_t>(e.kind));
    }
}

std::vector<std::uint8_t>
encodeFunction(const Function &func, std::int64_t toc_delta,
               bool uses_toc)
{
    std::vector<std::uint8_t> out;
    // Position-independence metadata: the entry the analysis ran at
    // (provenance for cross-hit accounting and the canonical decode
    // base) and the toc offset guard for toc-relative code.
    putU64(out, func.entry);
    putU64(out, static_cast<std::uint64_t>(toc_delta));
    putU8(out, uses_toc ? 1 : 0);
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
    for (const auto &[start, block] : func.blocks)
        encodeBlock(out, block, func.entry);
    return out;
}

std::vector<std::uint8_t>
encodeLiveness(const LivenessResult &live, Addr entry)
{
    std::vector<std::uint8_t> out;
    putU64(out, entry);
    putU32(out, static_cast<std::uint32_t>(live.liveIn.size()));
    for (const auto &[addr, regs] : live.liveIn) {
        putU64(out, relAddr(addr, entry));
        putU32(out, regs.raw());
    }
    return out;
}

// --- payload decoders -----------------------------------------------------

bool
validReg(std::uint8_t v)
{
    return v < num_regs || v == static_cast<std::uint8_t>(Reg::none);
}

bool
decodeInstruction(ByteReader &rd, Instruction &in, Addr entry)
{
    const std::uint8_t op = rd.u8();
    const std::uint8_t vrd = rd.u8();
    const std::uint8_t rs1 = rd.u8();
    const std::uint8_t rs2 = rd.u8();
    const std::uint8_t cond = rd.u8();
    in.memSize = rd.u8();
    in.signedLoad = rd.u8() != 0;
    in.movShift = rd.u8();
    in.movKeep = rd.u8() != 0;
    in.formHint = rd.u8();
    in.imm = static_cast<std::int64_t>(rd.u64());
    in.target = absAddr(rd.u64(), entry);
    in.addr = absAddr(rd.u64(), entry);
    in.length = rd.u32();
    if (rd.failed())
        return false;
    if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
        return false;
    if (!validReg(vrd) || !validReg(rs1) || !validReg(rs2))
        return false;
    if (cond > static_cast<std::uint8_t>(Cond::ge) &&
        cond != static_cast<std::uint8_t>(Cond::none))
        return false;
    in.op = static_cast<Opcode>(op);
    in.rd = static_cast<Reg>(vrd);
    in.rs1 = static_cast<Reg>(rs1);
    in.rs2 = static_cast<Reg>(rs2);
    in.cond = static_cast<Cond>(cond);
    return true;
}

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

bool
decodeBlock(ByteReader &rd, Block &block, Addr entry)
{
    block.start = absAddr(rd.u64(), entry);
    block.end = absAddr(rd.u64(), entry);
    const std::uint8_t flags = rd.u8();
    if (flags > 7)
        return false;
    block.endsInUnresolvedIndirect = (flags & 1) != 0;
    block.endsFunction = (flags & 2) != 0;
    const Addr call_target = rd.u64();
    if (flags & 4)
        block.callTarget = absAddr(call_target, entry);
    const std::uint32_t ninsns = rd.u32();
    if (ninsns > rd.remaining() / 38) // encoded instruction size
        return false;
    block.insns.resize(ninsns);
    for (Instruction &in : block.insns) {
        if (!decodeInstruction(rd, in, entry))
            return false;
    }
    const std::uint32_t nsuccs = rd.u32();
    if (nsuccs > rd.remaining() / 9)
        return false;
    block.succs.resize(nsuccs);
    for (Edge &e : block.succs) {
        e.target = absAddr(rd.u64(), entry);
        const std::uint8_t kind = rd.u8();
        if (kind > static_cast<std::uint8_t>(EdgeKind::jumpTable))
            return false;
        e.kind = static_cast<EdgeKind>(kind);
    }
    return !rd.failed();
}

/**
 * Decode a v4 function payload into its canonical form: absolute
 * addresses at the entry it was analyzed at (carried in the payload).
 * Structural validation (sortedness, enum ranges) runs on the
 * rematerialized absolute values — wrap-around deltas round-trip
 * exactly, so this checks the same invariants the encoder wrote.
 */
bool
decodeFunction(ByteReader &rd, Function &func,
               std::int64_t &toc_delta, bool &uses_toc)
{
    const Addr entry = rd.u64();
    toc_delta = static_cast<std::int64_t>(rd.u64());
    uses_toc = rd.u8() != 0;
    func.entry = entry;
    func.name = rd.str();
    func.end = absAddr(rd.u64(), entry);
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
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        Block block;
        if (!decodeBlock(rd, block, entry))
            return false;
        func.blocks.emplace(block.start, std::move(block));
    }
    // Trailing garbage means the payload was not written by this
    // encoder: reject rather than guess.
    return !rd.failed() && rd.remaining() == 0;
}

bool
decodeLiveness(ByteReader &rd, LivenessResult &live,
               Addr &orig_entry)
{
    orig_entry = rd.u64();
    const std::uint32_t n = rd.u32();
    if (n > rd.remaining() / 12)
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr addr = absAddr(rd.u64(), orig_entry);
        live.liveIn.emplace(addr, RegSet::fromRaw(rd.u32()));
    }
    return !rd.failed() && rd.remaining() == 0;
}

std::vector<std::uint8_t>
encodeDataDeps(const DataDeps &deps, Addr entry)
{
    std::vector<std::uint8_t> out;
    putU64(out, entry);
    putU32(out, static_cast<std::uint32_t>(deps.size()));
    for (const DepRange &r : deps.ranges()) {
        putU64(out, relAddr(r.lo, entry));
        putU64(out, relAddr(r.hi, entry));
        putU64(out, r.hash);
    }
    return out;
}

bool
decodeDataDeps(ByteReader &rd, DataDeps &deps, Addr &orig_entry)
{
    orig_entry = rd.u64();
    const std::uint32_t n = rd.u32();
    if (n > rd.remaining() / 24)
        return false;
    std::vector<DepRange> ranges;
    ranges.reserve(n);
    Addr prev_hi = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        DepRange r;
        r.lo = absAddr(rd.u64(), orig_entry);
        r.hi = absAddr(rd.u64(), orig_entry);
        r.hash = rd.u64();
        // The encoder only writes finalized sets: sorted, disjoint,
        // non-empty ranges. Anything else is not ours.
        if (r.hi <= r.lo || (i > 0 && r.lo < prev_hi))
            return false;
        prev_hi = r.hi;
        ranges.push_back(r);
    }
    if (rd.failed() || rd.remaining() != 0)
        return false;
    deps.setRanges(std::move(ranges));
    return true;
}

// v4 position-independent payload kinds.
constexpr std::uint8_t entry_kind_function = 4;
constexpr std::uint8_t entry_kind_liveness = 5;
constexpr std::uint8_t entry_kind_datadeps = 6;

bool
knownEntryKind(std::uint8_t kind)
{
    return kind == entry_kind_function ||
           kind == entry_kind_liveness ||
           kind == entry_kind_datadeps;
}

void
appendEntry(std::vector<std::uint8_t> &out, std::uint8_t kind,
            Arch arch, std::uint64_t key,
            const std::uint8_t *payload, std::size_t payload_len,
            std::uint64_t payload_hash)
{
    putU8(out, kind);
    putU8(out, static_cast<std::uint8_t>(arch));
    putU64(out, key);
    putU32(out, static_cast<std::uint32_t>(payload_len));
    putU64(out, payload_hash);
    out.insert(out.end(), payload, payload + payload_len);
}

void
appendEntry(std::vector<std::uint8_t> &out, std::uint8_t kind,
            Arch arch, std::uint64_t key,
            const std::vector<std::uint8_t> &payload)
{
    appendEntry(out, kind, arch, key, payload.data(), payload.size(),
                fnv1a(payload.data(), payload.size()));
}

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

// --- header-walking scanner -----------------------------------------------

/** One structurally-intact entry located in the file (not decoded,
 *  checksum not yet verified). */
struct RawEntry
{
    std::uint8_t kind = 0;
    std::uint8_t arch = 0;
    std::uint64_t key = 0;
    const std::uint8_t *payload = nullptr;
    std::uint32_t payloadLen = 0;
    std::uint64_t payloadHash = 0;
    std::uint64_t generation = 0;
    std::size_t offset = 0; ///< entry header offset in the file
    /** Entry lives in a fully-intact segment (false: salvaged from
     *  a torn tail — present in memory but not durably on disk). */
    bool completeSegment = true;
};

struct ScanResult
{
    std::uint32_t version = 0;
    std::uint64_t headerGeneration = 0;
    std::uint64_t maxGeneration = 0;
    unsigned segments = 0;       ///< complete segments
    std::size_t validBytes = 0;  ///< prefix ending after last one
    bool torn = false;           ///< trailing torn/garbage segment
    unsigned droppedEntries = 0; ///< structurally lost entries
    std::vector<RawEntry> entries;
    std::vector<CacheFileIssue> issues;

    bool current() const { return version == cache_file_version; }
};

/**
 * Walk @p data's headers without decoding or checksumming payloads.
 * Only the current version's segment chain is understood; any other
 * version yields one info-grade cache-version issue and no entries.
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

    // u64 file generation, then the segment chain.
    scan.headerGeneration = rd.u64();
    scan.validBytes = rd.pos();
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

        // Walk the segment's entries. A complete segment must
        // contain exactly `count` entries in `body_bytes`; a torn
        // final segment salvages the prefix that survived.
        const bool complete = body_bytes <= rd.remaining();
        const std::size_t body_limit =
            seg_off + cache_segment_header_bytes +
            static_cast<std::size_t>(
                std::min<std::uint64_t>(body_bytes, rd.remaining()));
        std::uint32_t salvaged = 0;
        bool inconsistent = false;
        for (std::uint32_t i = 0; i < count; ++i) {
            RawEntry e;
            e.offset = rd.pos();
            if (body_limit - e.offset < cache_entry_header_bytes) {
                inconsistent = true;
                break;
            }
            e.kind = rd.u8();
            e.arch = rd.u8();
            e.key = rd.u64();
            e.payloadLen = rd.u32();
            e.payloadHash = rd.u64();
            if (e.payloadLen > body_limit - rd.pos()) {
                inconsistent = true;
                break;
            }
            e.payload = rd.blob(e.payloadLen);
            e.generation = generation;
            e.completeSegment = complete;
            scan.entries.push_back(e);
            ++salvaged;
        }
        if (!complete || inconsistent || rd.pos() != body_limit) {
            // Torn append (writer died mid-write) or a lying
            // header: keep what was salvaged, drop the rest of the
            // file. Salvaged entries are marked not-durable so the
            // next save re-appends them.
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "segment torn at offset %zu; %u of %u "
                          "entries salvaged, tail dropped",
                          seg_off, salvaged, count);
            scan.issues.push_back({"cache-torn", seg_off, msg});
            scan.torn = true;
            scan.droppedEntries += count - salvaged;
            for (std::size_t i = scan.entries.size() - salvaged;
                 i < scan.entries.size(); ++i)
                scan.entries[i].completeSegment = false;
            return scan;
        }
        ++scan.segments;
        scan.maxGeneration =
            std::max(scan.maxGeneration, generation);
        scan.validBytes = rd.pos();
    }
    return scan;
}

ScanResult
scanFile(const std::shared_ptr<MappedCacheFile> &file)
{
    return scanBuffer(file->data(), file->size());
}

// --- serialization of headers/segments ------------------------------------

std::vector<std::uint8_t>
fileHeader(std::uint64_t generation)
{
    std::vector<std::uint8_t> out;
    putU32(out, cache_file_magic);
    putU32(out, cache_file_version);
    putU64(out, generation);
    return out;
}

/** Wrap @p body (concatenated entries) into a framed segment. */
std::vector<std::uint8_t>
segmentBytes(std::uint32_t entry_count,
             const std::vector<std::uint8_t> &body,
             std::uint64_t generation)
{
    std::vector<std::uint8_t> out;
    out.reserve(cache_segment_header_bytes + body.size());
    putU32(out, cache_segment_magic);
    putU32(out, entry_count);
    putU64(out, body.size());
    putU64(out, generation);
    putU64(out, fnv1a(out.data(), 24));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

bool
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            return false;
    }
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
 * one deduplicated segment, newest-generation entries first up to
 * @p max_bytes (0 = keep everything that verifies).
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

    // Deduplicate by (kind, key) — function, liveness, and data-dep
    // entries share the Function::cacheKey namespace — with the last
    // occurrence winning (it is the newest append), and heal
    // silently-corrupt payloads by verifying each checksum here —
    // compaction is the slow, thorough path.
    std::map<std::pair<std::uint8_t, std::uint64_t>,
             const RawEntry *>
        by_key;
    for (const RawEntry &e : scan.entries) {
        if (fnv1a(e.payload, e.payloadLen) != e.payloadHash)
            continue;
        // Unknown kinds are kept (forward compat).
        by_key[{e.kind, e.key}] = &e;
    }
    out.entriesBefore = static_cast<unsigned>(scan.entries.size());

    // Keep newest generations first until the byte cap.
    std::vector<const RawEntry *> candidates;
    candidates.reserve(by_key.size());
    for (const auto &[key, e] : by_key)
        candidates.push_back(e);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const RawEntry *a, const RawEntry *b) {
                         if (a->generation != b->generation)
                             return a->generation > b->generation;
                         return a->offset < b->offset;
                     });
    std::uint64_t used =
        cache_file_header_bytes + cache_segment_header_bytes;
    std::vector<const RawEntry *> kept;
    for (const RawEntry *e : candidates) {
        const std::uint64_t cost =
            cache_entry_header_bytes + e->payloadLen;
        if (max_bytes != 0 && used + cost > max_bytes &&
            !kept.empty())
            break;
        if (max_bytes != 0 && used + cost > max_bytes)
            break; // even the newest entry alone exceeds the cap
        used += cost;
        kept.push_back(e);
    }

    // Deterministic output order: by key.
    std::sort(kept.begin(), kept.end(),
              [](const RawEntry *a, const RawEntry *b) {
                  if (a->kind != b->kind)
                      return a->kind < b->kind;
                  return a->key < b->key;
              });

    const std::uint64_t generation = scan.maxGeneration + 1;
    std::vector<std::uint8_t> body;
    for (const RawEntry *e : kept)
        appendEntry(body, e->kind, static_cast<Arch>(e->arch),
                    e->key, e->payload, e->payloadLen,
                    e->payloadHash);
    std::vector<std::uint8_t> bytes = fileHeader(generation);
    const std::vector<std::uint8_t> seg = segmentBytes(
        static_cast<std::uint32_t>(kept.size()), body, generation);
    bytes.insert(bytes.end(), seg.begin(), seg.end());

    if (!writeFileAtomic(path, bytes))
        return false;
    out.performed = true;
    out.entriesKept = static_cast<unsigned>(kept.size());
    out.entriesEvicted = static_cast<unsigned>(
        by_key.size() - kept.size());
    out.bytesAfter = bytes.size();
    return true;
}

} // namespace

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

std::shared_ptr<const Function>
AnalysisCache::findFunction(std::uint64_t key, Addr entry,
                            Addr toc_base)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = functions_.find(key);
    if (it == functions_.end()) {
        auto pit = pendingFunctions_.find(key);
        if (pit == pendingFunctions_.end()) {
            stats_.functionMisses++;
            return nullptr;
        }
        // First lookup of a lazily-indexed entry: verify its
        // checksum and deserialize it now, outside the lock (the
        // shared mapping keeps the bytes alive; a racing decode of
        // the same key is wasted work, not a bug). The canonical
        // in-memory form keeps absolute addresses at the entry the
        // payload records (origEntry), not the requested one.
        const PendingEntry pe = pit->second;
        lock.unlock();
        Function func;
        std::int64_t toc_delta = 0;
        bool uses_toc = false;
        ByteReader rd(pe.payload, pe.payloadLen);
        const bool ok =
            fnv1a(pe.payload, pe.payloadLen) == pe.payloadHash &&
            decodeFunction(rd, func, toc_delta, uses_toc);
        lock.lock();
        pendingFunctions_.erase(key);
        if (!ok) {
            // Corrupt or undecodable payload: count the miss and
            // re-analyze; the entry heals on the next compaction.
            stats_.functionMisses++;
            return nullptr;
        }
        func.cacheKey = key;
        Entry<Function> rec;
        rec.arch = pe.arch;
        rec.origEntry = func.entry;
        rec.tocDelta = toc_delta;
        rec.usesToc = uses_toc;
        rec.value = std::make_shared<const Function>(std::move(func));
        it = functions_.emplace(key, std::move(rec)).first;
        CacheCounters::global().entriesLazy.fetch_add(
            1, std::memory_order_relaxed);
    }

    const Entry<Function> &e = it->second;
    if (entry == e.origEntry) {
        stats_.functionHits++;
        return e.value;
    }
    // Cross-binary hit: the same code bytes at a different address.
    // Toc-relative code derives targets from tocBase, so the rebase
    // is only exact when the requester's toc offset matches.
    if (e.usesToc &&
        static_cast<std::int64_t>(toc_base) -
                static_cast<std::int64_t>(entry) !=
            e.tocDelta) {
        stats_.functionMisses++;
        return nullptr;
    }
    stats_.functionHits++;
    CacheCounters::global().crossHits.fetch_add(
        1, std::memory_order_relaxed);
    std::shared_ptr<const Function> value = e.value;
    lock.unlock();
    StageTimer timer(Stage::cacheRebase);
    return std::make_shared<const Function>(
        rebaseFunction(*value, entry));
}

std::shared_ptr<const LivenessResult>
AnalysisCache::findLiveness(std::uint64_t key, Addr entry)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = liveness_.find(key);
    if (it == liveness_.end()) {
        auto pit = pendingLiveness_.find(key);
        if (pit == pendingLiveness_.end()) {
            stats_.livenessMisses++;
            return nullptr;
        }
        const PendingEntry pe = pit->second;
        lock.unlock();
        LivenessResult live;
        Addr orig_entry = 0;
        ByteReader rd(pe.payload, pe.payloadLen);
        const bool ok =
            fnv1a(pe.payload, pe.payloadLen) == pe.payloadHash &&
            decodeLiveness(rd, live, orig_entry);
        lock.lock();
        pendingLiveness_.erase(key);
        if (!ok) {
            stats_.livenessMisses++;
            return nullptr;
        }
        Entry<LivenessResult> rec;
        rec.arch = pe.arch;
        rec.origEntry = orig_entry;
        rec.value =
            std::make_shared<const LivenessResult>(std::move(live));
        it = liveness_.emplace(key, std::move(rec)).first;
        CacheCounters::global().entriesLazy.fetch_add(
            1, std::memory_order_relaxed);
    }

    const Entry<LivenessResult> &e = it->second;
    stats_.livenessHits++;
    if (entry == e.origEntry)
        return e.value;
    std::shared_ptr<const LivenessResult> value = e.value;
    const Addr orig = e.origEntry;
    lock.unlock();
    StageTimer timer(Stage::cacheRebase);
    return std::make_shared<const LivenessResult>(
        rebaseLiveness(*value, orig, entry));
}

std::shared_ptr<const DataDeps>
AnalysisCache::findDataDeps(std::uint64_t key, Addr entry)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = dataDeps_.find(key);
    if (it == dataDeps_.end()) {
        auto pit = pendingDataDeps_.find(key);
        if (pit == pendingDataDeps_.end())
            return nullptr;
        const PendingEntry pe = pit->second;
        lock.unlock();
        DataDeps deps;
        Addr orig_entry = 0;
        ByteReader rd(pe.payload, pe.payloadLen);
        const bool ok =
            fnv1a(pe.payload, pe.payloadLen) == pe.payloadHash &&
            decodeDataDeps(rd, deps, orig_entry);
        lock.lock();
        pendingDataDeps_.erase(key);
        if (!ok) {
            // Corrupt read-set: the paired function hit degrades to
            // a conservative miss at its consumer.
            return nullptr;
        }
        Entry<DataDeps> rec;
        rec.arch = pe.arch;
        rec.origEntry = orig_entry;
        rec.value = std::make_shared<const DataDeps>(std::move(deps));
        it = dataDeps_.emplace(key, std::move(rec)).first;
        CacheCounters::global().entriesLazy.fetch_add(
            1, std::memory_order_relaxed);
    }

    const Entry<DataDeps> &e = it->second;
    if (entry == e.origEntry)
        return e.value;
    std::shared_ptr<const DataDeps> value = e.value;
    const Addr orig = e.origEntry;
    lock.unlock();
    // Rebased read-set: the consumer re-hashes it against *its*
    // image, which is exactly the cross-binary soundness check.
    return std::make_shared<const DataDeps>(
        rebaseDataDeps(*value, orig, entry));
}

// --- load -----------------------------------------------------------------

CacheLoadReport
AnalysisCache::load(const std::string &path,
                    std::optional<Arch> expect_arch)
{
    CacheLoadReport report;

    auto file = MappedCacheFile::open(path);
    if (!file)
        return report; // absent file: cold start, not an error
    report.fileRead = true;
    report.bytesMapped = file->size();
    CacheCounters::global().bytesMapped.fetch_add(
        file->size(), std::memory_order_relaxed);

    ScanResult scan = scanFile(file);
    report.fileVersion = scan.version;
    report.segments = scan.segments;
    report.droppedEntries += scan.droppedEntries;
    report.issues = std::move(scan.issues);

    // Validate entry headers eagerly (one cheap pass over headers
    // only — no payload byte is touched), then index survivors for
    // lazy checksum + deserialization on first lookup.
    std::vector<const RawEntry *> accepted;
    accepted.reserve(scan.entries.size());
    for (const RawEntry &e : scan.entries) {
        if (!knownEntryKind(e.kind)) {
            // Forward compatibility: a newer writer introduced an
            // entry kind this build does not understand. Skipping it
            // only costs re-derivation of whatever it memoized.
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "unknown entry kind %u (newer writer?); "
                          "entry skipped",
                          e.kind);
            report.issues.push_back({"cache-skip", e.offset, msg});
            ++report.skippedUnknown;
            continue;
        }
        if (e.arch > static_cast<std::uint8_t>(Arch::aarch64)) {
            report.issues.push_back(
                {"cache-entry", e.offset,
                 "unknown ISA tag; entry dropped"});
            ++report.droppedEntries;
            continue;
        }
        if (expect_arch &&
            static_cast<Arch>(e.arch) != *expect_arch) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "entry built for %s, image is %s; "
                          "entry dropped",
                          archName(static_cast<Arch>(e.arch)),
                          archName(*expect_arch));
            report.issues.push_back({"cache-arch", e.offset, msg});
            ++report.droppedEntries;
            continue;
        }
        accepted.push_back(&e);
    }

    std::lock_guard<std::mutex> lock(mu_);
    // Decoded in-memory entries win over file entries; among file
    // entries for the same key the newest occurrence (last in file
    // order: save() appends replacements when a function's data
    // read-set changed) wins.
    for (const RawEntry *e : accepted) {
        PendingEntry pe;
        pe.arch = static_cast<Arch>(e->arch);
        pe.payload = e->payload;
        pe.payloadLen = e->payloadLen;
        pe.payloadHash = e->payloadHash;
        pe.file = file;
        auto index = [&](auto &decoded, auto &pending,
                         unsigned &loaded) {
            if (decoded.count(e->key)) {
                ++report.skippedExisting;
                return;
            }
            if (!pending.count(e->key))
                ++loaded;
            pending[e->key] = std::move(pe);
        };
        if (e->kind == entry_kind_function)
            index(functions_, pendingFunctions_,
                  report.loadedFunctions);
        else if (e->kind == entry_kind_liveness)
            index(liveness_, pendingLiveness_,
                  report.loadedLiveness);
        else
            index(dataDeps_, pendingDataDeps_,
                  report.loadedDataDeps);
    }
    return report;
}

// --- save -----------------------------------------------------------------

bool
AnalysisCache::save(const std::string &path,
                    std::uint64_t max_bytes) const
{
    // Writers serialize here; the scan below therefore sees every
    // segment earlier writers appended (merge-on-save).
    CacheFileLock file_lock(path);

    auto file = MappedCacheFile::open(path);
    ScanResult scan;
    if (file)
        scan = scanFile(file);
    const bool append_mode =
        file && scan.current() && !scan.torn;

    // Keys already durable in the file, kept per entry kind —
    // function, liveness, and data-dep entries share the
    // Function::cacheKey namespace — plus the newest durable payload
    // hash of each data read-set, so a read-set that changed under
    // an unchanged code key (a data edit) triggers a replacement
    // append instead of being treated as already saved.
    std::unordered_set<std::uint64_t> file_fn, file_lv, file_deps;
    std::unordered_map<std::uint64_t, std::uint64_t> file_deps_hash;
    for (const RawEntry &e : scan.entries) {
        if (!e.completeSegment)
            continue;
        if (e.kind == entry_kind_function)
            file_fn.insert(e.key);
        else if (e.kind == entry_kind_liveness)
            file_lv.insert(e.key);
        else if (e.kind == entry_kind_datadeps) {
            file_deps.insert(e.key);
            file_deps_hash[e.key] = e.payloadHash;
        }
    }

    // Collect the delta — everything in memory the file lacks —
    // under the cache lock, but only as cheap references: values are
    // shared immutable snapshots, and pending (never-decoded)
    // entries stay raw so their payload bytes copy straight through
    // without a decode+re-encode trip. On a fully-warm run this
    // finds nothing and the save costs one header scan. Ordered maps
    // keep output byte-stable for identical contents.
    std::map<std::uint64_t, Entry<Function>> miss_fn;
    std::map<std::uint64_t, Entry<LivenessResult>> miss_lv;
    std::map<std::uint64_t, Entry<DataDeps>> miss_deps;
    std::map<std::uint64_t, PendingEntry> miss_fn_raw, miss_lv_raw,
        miss_deps_raw;
    std::map<std::uint64_t, std::vector<std::uint8_t>> deps_payload;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[key, entry] : dataDeps_) {
            // Read-sets are tiny (a handful of ranges); encoding
            // them under the lock to compare against the file's
            // payload hash is cheaper than a decode round trip.
            std::vector<std::uint8_t> payload =
                encodeDataDeps(*entry.value, entry.origEntry);
            const bool stale =
                file_deps.count(key) != 0 &&
                file_deps_hash[key] !=
                    fnv1a(payload.data(), payload.size());
            if (!file_deps.count(key) || stale) {
                miss_deps.emplace(key, entry);
                deps_payload.emplace(key, std::move(payload));
            }
            if (stale) {
                // A changed read-set under an unchanged code key
                // means a data edit re-analyzed this function: the
                // file's function payload is stale too. Append the
                // fresh one — load() lets the newest occurrence of
                // a key win.
                auto fit = functions_.find(key);
                if (fit != functions_.end())
                    miss_fn.emplace(key, fit->second);
            }
        }
        for (const auto &[key, pe] : pendingDataDeps_)
            if (!file_deps.count(key))
                miss_deps_raw.emplace(key, pe);
        for (const auto &[key, entry] : functions_)
            if (!file_fn.count(key))
                miss_fn.emplace(key, entry);
        for (const auto &[key, pe] : pendingFunctions_)
            if (!file_fn.count(key))
                miss_fn_raw.emplace(key, pe);
        for (const auto &[key, entry] : liveness_)
            if (!file_lv.count(key))
                miss_lv.emplace(key, entry);
        for (const auto &[key, pe] : pendingLiveness_)
            if (!file_lv.count(key))
                miss_lv_raw.emplace(key, pe);
    }

    // The delta segment, functions before liveness, sorted by key.
    std::vector<std::uint8_t> body;
    std::uint32_t count = 0;
    for (const auto &[key, entry] : miss_fn) {
        appendEntry(body, entry_kind_function, entry.arch, key,
                    encodeFunction(*entry.value, entry.tocDelta,
                                   entry.usesToc));
        ++count;
    }
    for (const auto &[key, pe] : miss_fn_raw) {
        appendEntry(body, entry_kind_function, pe.arch, key,
                    pe.payload, pe.payloadLen, pe.payloadHash);
        ++count;
    }
    for (const auto &[key, entry] : miss_lv) {
        appendEntry(body, entry_kind_liveness, entry.arch, key,
                    encodeLiveness(*entry.value, entry.origEntry));
        ++count;
    }
    for (const auto &[key, pe] : miss_lv_raw) {
        appendEntry(body, entry_kind_liveness, pe.arch, key,
                    pe.payload, pe.payloadLen, pe.payloadHash);
        ++count;
    }
    for (const auto &[key, entry] : miss_deps) {
        appendEntry(body, entry_kind_datadeps, entry.arch, key,
                    deps_payload[key]);
        ++count;
    }
    for (const auto &[key, pe] : miss_deps_raw) {
        appendEntry(body, entry_kind_datadeps, pe.arch, key,
                    pe.payload, pe.payloadLen, pe.payloadHash);
        ++count;
    }

    bool ok = true;
    if (append_mode && count == 0) {
        // Fully-warm run: nothing new, the file is not touched at
        // all (same bytes, same mtime).
    } else if (append_mode) {
        const std::uint64_t generation = scan.maxGeneration + 1;
        const std::vector<std::uint8_t> seg =
            segmentBytes(count, body, generation);
        std::ofstream out(path, std::ios::binary | std::ios::app);
        ok = static_cast<bool>(out);
        if (ok) {
            out.write(reinterpret_cast<const char *>(seg.data()),
                      static_cast<std::streamsize>(seg.size()));
            ok = static_cast<bool>(out);
        }
        if (ok)
            CacheCounters::global().bytesAppended.fetch_add(
                seg.size(), std::memory_order_relaxed);
    } else {
        // Fresh file, other version, foreign/torn content: full
        // atomic rewrite. Durable raw entries from any readable scan
        // are copied through (deduplicated per kind, newest
        // occurrence first); everything else comes from memory.
        const std::uint64_t generation = scan.maxGeneration + 1;
        std::vector<std::uint8_t> full_body;
        std::uint32_t full_count = 0;
        if (scan.version != 0) {
            std::set<std::pair<std::uint8_t, std::uint64_t>> seen;
            for (auto it = scan.entries.rbegin();
                 it != scan.entries.rend(); ++it) {
                const RawEntry &e = *it;
                // Unknown future kinds pass through so a newer
                // writer's entries survive us.
                if (!e.completeSegment ||
                    !seen.insert({e.kind, e.key}).second)
                    continue;
                appendEntry(full_body, e.kind,
                            static_cast<Arch>(e.arch), e.key,
                            e.payload, e.payloadLen, e.payloadHash);
                ++full_count;
            }
        }
        full_body.insert(full_body.end(), body.begin(), body.end());
        full_count += count;
        std::vector<std::uint8_t> bytes = fileHeader(generation);
        const std::vector<std::uint8_t> seg =
            segmentBytes(full_count, full_body, generation);
        bytes.insert(bytes.end(), seg.begin(), seg.end());
        ok = writeFileAtomic(path, bytes);
        if (ok)
            CacheCounters::global().bytesAppended.fetch_add(
                bytes.size(), std::memory_order_relaxed);
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
    std::set<std::pair<std::uint8_t, std::uint64_t>> keys;
    std::set<std::uint64_t> payload_hashes;
    for (const RawEntry &e : scan.entries) {
        if (e.kind == entry_kind_function) {
            ++info.functionEntries;
            info.functionPayloadBytes += e.payloadLen;
        } else if (e.kind == entry_kind_liveness) {
            ++info.livenessEntries;
            info.livenessPayloadBytes += e.payloadLen;
        } else if (e.kind == entry_kind_datadeps) {
            ++info.dataDepsEntries;
            info.dataDepsPayloadBytes += e.payloadLen;
        } else {
            ++info.otherEntries;
        }
        info.payloadBytes += e.payloadLen;
        keys.insert({e.kind, e.key});
        payload_hashes.insert(e.payloadHash);
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
    report.droppedEntries += scan.droppedEntries;
    report.issues = std::move(scan.issues);

    for (const RawEntry &e : scan.entries) {
        if (fnv1a(e.payload, e.payloadLen) != e.payloadHash) {
            report.issues.push_back(
                {"cache-checksum", e.offset,
                 "payload checksum mismatch"});
            ++report.droppedEntries;
            continue;
        }
        if (e.arch > static_cast<std::uint8_t>(Arch::aarch64)) {
            report.issues.push_back(
                {"cache-entry", e.offset, "unknown ISA tag"});
            ++report.droppedEntries;
            continue;
        }
        ByteReader rd(e.payload, e.payloadLen);
        if (e.kind == entry_kind_function) {
            Function func;
            std::int64_t toc_delta = 0;
            bool uses_toc = false;
            if (!decodeFunction(rd, func, toc_delta, uses_toc)) {
                report.issues.push_back(
                    {"cache-entry", e.offset,
                     "malformed function payload"});
                ++report.droppedEntries;
                continue;
            }
            ++report.loadedFunctions;
        } else if (e.kind == entry_kind_liveness) {
            LivenessResult live;
            Addr orig_entry = 0;
            if (!decodeLiveness(rd, live, orig_entry)) {
                report.issues.push_back(
                    {"cache-entry", e.offset,
                     "malformed liveness payload"});
                ++report.droppedEntries;
                continue;
            }
            ++report.loadedLiveness;
        } else if (e.kind == entry_kind_datadeps) {
            DataDeps deps;
            Addr orig_entry = 0;
            if (!decodeDataDeps(rd, deps, orig_entry)) {
                report.issues.push_back(
                    {"cache-entry", e.offset,
                     "malformed data read-set payload"});
                ++report.droppedEntries;
                continue;
            }
            ++report.loadedDataDeps;
        } else {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "unknown entry kind %u (newer writer?); "
                          "entry skipped",
                          e.kind);
            report.issues.push_back({"cache-skip", e.offset, msg});
            ++report.skippedUnknown;
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
