#include "analysis/builder.hh"

#include <algorithm>
#include <span>

#include "analysis/cache.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace icp
{

namespace
{

const Timer analysis_timer = Metrics::global().timer("analysis");
const Timer disasm_timer = Metrics::global().timer("disasm");
const Timer cfg_timer = Metrics::global().timer("cfg");
const Timer jump_table_timer = Metrics::global().timer("jump-table");
const Timer liveness_timer = Metrics::global().timer("liveness");

/**
 * Per-function construction state: one table indexed by byte offset
 * from the entry, holding the instruction decoded at each offset (an
 * index into insns_) and whether a block may start there (a leader).
 * Blocks form from the table in address order, and only after an
 * instruction or a leader was added since they last formed.
 */
class FunctionBuilder
{
  public:
    FunctionBuilder(const BinaryImage &image,
                    const AnalysisOptions &opts, const Symbol &sym,
                    const std::vector<TryRange> &try_ranges)
        : image_(image), opts_(opts), analyzer_(image, opts.inject)
    {
        func_.name = sym.name;
        func_.entry = sym.addr;
        func_.end = sym.addr + sym.size;
        for (const auto &range : try_ranges)
            func_.landingPads.insert(sym.addr + range.lpOff);

        // Zero decodes as illegal on every ISA, so instructions start
        // only in stored bytes, and a decoded image keeps each
        // function symbol inside one section's stored bytes
        // (sbf-symbol): the table spans those of [entry, end).
        std::uint64_t stored = 0;
        if (const Section *s = image.sectionAt(sym.addr)) {
            const Offset off = sym.addr - s->addr;
            if (off < s->bytes.size())
                stored = std::min<std::uint64_t>(sym.size,
                                                 s->bytes.size() - off);
        }
        slots_.resize(stored);
        insns_.reserve(stored / 4 + 1);
    }

    Function build();

  private:
    static constexpr std::uint32_t no_insn = ~std::uint32_t{0};

    /** What starts at one byte offset from the entry. */
    struct Slot
    {
        std::uint32_t insn = no_insn; ///< index into insns_
        bool leader = false;
    };

    bool decodeAt(Addr addr, Instruction &in) const;
    void traverseFrom(Addr addr);
    void drainWork();
    void formBlocks();
    void resolveIndirectJumps();
    void classifyGaps();

    bool
    inFunction(Addr a) const
    {
        return a >= func_.entry && a < func_.end;
    }

    /** The slot of @p a, or null outside the table. */
    Slot *
    slotAt(Addr a)
    {
        return a >= func_.entry && a - func_.entry < slots_.size()
                   ? &slots_[a - func_.entry]
                   : nullptr;
    }

    /** The instruction decoded at @p a, or null. */
    const Instruction *
    insnAt(Addr a)
    {
        const Slot *slot = slotAt(a);
        return slot && slot->insn != no_insn ? &insns_[slot->insn]
                                             : nullptr;
    }

    bool
    isLeader(Addr a)
    {
        const Slot *slot = slotAt(a);
        return slot && slot->leader;
    }

    /** Whether a block starts at @p a: a leader an instruction
     *  starts at. */
    bool
    startsBlock(Addr a)
    {
        const Slot *slot = slotAt(a);
        return slot && slot->leader && slot->insn != no_insn;
    }

    /** Mark @p a a leader and queue it for traversal. */
    void
    addLeader(Addr a)
    {
        if (Slot *slot = slotAt(a); slot && !slot->leader) {
            slot->leader = true;
            formed_ = false;
        }
        work_.push_back(a);
    }

    const BinaryImage &image_;
    const AnalysisOptions &opts_;
    JumpTableAnalyzer analyzer_;

    Function func_;
    std::vector<Slot> slots_;
    std::vector<Instruction> insns_; ///< in decode order
    std::vector<Addr> work_;         ///< traversal queue, in order

    /** func_.blocks reflect every instruction and leader. */
    bool formed_ = false;

    /** One block's instruction indices while it forms. */
    std::vector<std::uint32_t> blockInsns_;

    /** Ranges of embedded jump-table data (not code). */
    std::vector<std::pair<Addr, Addr>> dataRanges_;

    /** Unresolved indirect jumps (candidates for the heuristic). */
    std::vector<Addr> unresolved_;
};

bool
FunctionBuilder::decodeAt(Addr addr, Instruction &in) const
{
    return addr >= func_.entry && addr - func_.entry < slots_.size() &&
           decodeInstructionAt(image_, addr, func_.end, in);
}

void
FunctionBuilder::traverseFrom(Addr start)
{
    if (!inFunction(start) || insnAt(start))
        return;
    if (start % image_.archInfo().instrAlign != 0)
        return;
    Addr cur = start;
    while (inFunction(cur) && !insnAt(cur)) {
        Instruction in;
        if (!decodeAt(cur, in)) {
            // Undecodable byte: stop this run; the gap classifier
            // will see it.
            return;
        }
        slotAt(cur)->insn = static_cast<std::uint32_t>(insns_.size());
        insns_.push_back(in);
        formed_ = false;
        const Addr next = cur + in.length;

        if (isControlFlow(in.op)) {
            switch (in.op) {
              case Opcode::Jmp:
                if (inFunction(in.target))
                    addLeader(in.target);
                // Targets outside are direct tail calls.
                break;
              case Opcode::JmpCond:
                if (inFunction(in.target))
                    addLeader(in.target);
                addLeader(next);
                break;
              case Opcode::Call:
              case Opcode::CallInd:
              case Opcode::CallIndMem:
                addLeader(next);
                break;
              default:
                // Ret/Halt/Trap/Throw/JmpInd/JmpTar terminate runs.
                break;
            }
            return;
        }
        cur = next;
        if (isLeader(cur))
            return;
    }
}

void
FunctionBuilder::drainWork()
{
    ScopedTimer timer(disasm_timer);
    // traverseFrom appends; the queue runs in discovery order.
    for (std::size_t i = 0; i < work_.size(); ++i)
        traverseFrom(work_[i]);
    work_.clear();
}

void
FunctionBuilder::formBlocks()
{
    if (formed_)
        return;
    formed_ = true;
    ScopedTimer timer(cfg_timer);
    func_.blocks.clear();
    // A leader no instruction starts at (inside a decoded instruction,
    // or where nothing decodes) is an infeasible edge: dropped.
    for (std::size_t off = 0; off < slots_.size(); ++off) {
        const Slot &slot = slots_[off];
        if (!slot.leader || slot.insn == no_insn)
            continue;
        Block block;
        block.start = func_.entry + off;
        blockInsns_.clear();
        Addr cur = block.start;
        for (const Instruction *in = insnAt(cur); in; in = insnAt(cur)) {
            blockInsns_.push_back(
                static_cast<std::uint32_t>(in - insns_.data()));
            cur += in->length;
            if (isControlFlow(in->op) || startsBlock(cur))
                break;
        }
        block.end = cur;
        block.insns.reserve(blockInsns_.size());
        for (std::uint32_t i : blockInsns_)
            block.insns.push_back(insns_[i]);

        // Successor edges.
        const Instruction &last = block.last();
        const Addr next = block.end;
        Edge succs[2];
        unsigned n = 0;
        switch (last.op) {
          case Opcode::Jmp:
            if (inFunction(last.target))
                succs[n++] = {last.target, EdgeKind::taken};
            else
                block.endsFunction = true;
            break;
          case Opcode::JmpCond:
            if (inFunction(last.target))
                succs[n++] = {last.target, EdgeKind::taken};
            succs[n++] = {next, EdgeKind::fallthrough};
            break;
          case Opcode::Call:
            block.callTarget = last.target;
            succs[n++] = {next, EdgeKind::callFallthrough};
            break;
          case Opcode::CallInd:
          case Opcode::CallIndMem:
            succs[n++] = {next, EdgeKind::callFallthrough};
            break;
          case Opcode::JmpInd:
          case Opcode::JmpTar:
            block.endsInUnresolvedIndirect = true; // refined later
            break;
          case Opcode::Ret:
          case Opcode::Halt:
          case Opcode::Trap:
          case Opcode::Throw:
            block.endsFunction = true;
            break;
          default:
            if (!isControlFlow(last.op))
                succs[n++] = {next, EdgeKind::fallthrough};
            break;
        }
        block.succs.assign(succs, succs + n);
        func_.blocks.emplace_hint(func_.blocks.end(), block.start,
                                  std::move(block));
    }
}

void
FunctionBuilder::resolveIndirectJumps()
{
    // Iterate to a fixpoint: resolving a table discovers case
    // blocks, which may contain further switches.
    for (unsigned round = 0; round < 16; ++round) {
        formBlocks();
        unresolved_.clear();
        bool discovered = false;
        for (auto &[start, block] : func_.blocks) {
            if (!block.endsInUnresolvedIndirect)
                continue;
            const Addr jump_addr = block.last().addr;
            const bool known = std::any_of(
                func_.jumpTables.begin(), func_.jumpTables.end(),
                [&](const JumpTable &jt) {
                    return jt.jumpAddr == jump_addr;
                });
            if (known)
                continue;
            // Layout predecessor: the block ending exactly at this
            // block's start with a fall-through edge.
            const Block *pred = nullptr;
            auto it = func_.blocks.find(start);
            if (it != func_.blocks.begin()) {
                const Block &before = std::prev(it)->second;
                if (before.end == start)
                    pred = &before;
            }
            ScopedTimer timer(jump_table_timer);
            auto jt = analyzer_.analyze(block, pred);
            if (!jt) {
                unresolved_.push_back(jump_addr);
                continue;
            }
            if (jt->embeddedInCode) {
                dataRanges_.emplace_back(
                    jt->tableAddr,
                    jt->tableAddr + std::uint64_t{jt->entryCount} *
                                        jt->entrySize);
            }
            for (Addr t : jt->targets) {
                if (!inFunction(t))
                    continue;
                if (t % image_.archInfo().instrAlign != 0)
                    continue;
                addLeader(t);
                discovered = true;
            }
            // An anchor-relative base (a code label the entries are
            // offsets from) must survive as a block even when no
            // entry currently targets it — entry values are
            // recomputed against the relocated anchor, and a data
            // edit may legally retarget every entry away from it.
            if (jt->base && *jt->base != jt->tableAddr &&
                inFunction(*jt->base) &&
                *jt->base % image_.archInfo().instrAlign == 0 &&
                !isLeader(*jt->base)) {
                addLeader(*jt->base);
                discovered = true;
            }
            func_.jumpTables.push_back(std::move(*jt));
        }
        drainWork();
        if (!discovered && round > 0)
            break;
        if (!discovered && unresolved_.empty())
            break;
    }
    formBlocks();

    // Attach resolved jump-table successor edges.
    for (auto &jt : func_.jumpTables) {
        Block *block = func_.blockAt(jt.jumpAddr);
        if (!block)
            continue;
        block->endsInUnresolvedIndirect = false;
        const auto edge = [&](Addr t) {
            return inFunction(t) && startsBlock(t);
        };
        block->succs.reserve(
            block->succs.size() +
            static_cast<std::size_t>(std::count_if(
                jt.targets.begin(), jt.targets.end(), edge)));
        for (Addr t : jt.targets) {
            if (edge(t))
                block->succs.push_back({t, EdgeKind::jumpTable});
        }
    }
}

void
FunctionBuilder::classifyGaps()
{
    if (unresolved_.empty())
        return;

    if (!opts_.tailCallHeuristic) {
        func_.failure = AnalysisFailure::jumpTableUnresolved;
        return;
    }

    // Gap analysis (§5.1): decode the bytes not covered by blocks or
    // embedded table data; nop-only gaps mean the unresolved jumps
    // are indirect tail calls.
    std::vector<std::pair<Addr, Addr>> covered;
    for (const auto &[start, block] : func_.blocks)
        covered.emplace_back(start, block.end);
    for (const auto &range : dataRanges_)
        covered.push_back(range);
    std::sort(covered.begin(), covered.end());

    Addr cursor = func_.entry;
    bool gaps_real = false;
    auto scanGap = [&](Addr lo, Addr hi) {
        Addr a = lo;
        while (a < hi) {
            Instruction in;
            if (!decodeAt(a, in) || in.op != Opcode::Nop) {
                gaps_real = true;
                return;
            }
            a += in.length;
        }
    };
    for (const auto &[lo, hi] : covered) {
        if (lo > cursor)
            scanGap(cursor, std::min(lo, func_.end));
        cursor = std::max(cursor, hi);
        if (gaps_real || cursor >= func_.end)
            break;
    }
    if (!gaps_real && cursor < func_.end)
        scanGap(cursor, func_.end);

    if (gaps_real) {
        func_.failure = AnalysisFailure::gapsWithRealCode;
    } else {
        func_.indirectTailCalls = unresolved_;
        for (Addr a : unresolved_) {
            if (Block *block = func_.blockAt(a)) {
                block->endsInUnresolvedIndirect = false;
                block->endsFunction = true;
            }
        }
    }
}

Function
FunctionBuilder::build()
{
    addLeader(func_.entry);
    for (Addr lp : func_.landingPads)
        addLeader(lp);
    drainWork();
    resolveIndirectJumps();
    {
        ScopedTimer timer(cfg_timer);
        classifyGaps();
    }
    // Every vector of a block was sized exactly as it formed.
    return std::move(func_);
}

} // namespace

bool
decodeInstructionAt(const BinaryImage &image, Addr addr, Addr end,
                    Instruction &in)
{
    const auto &arch = image.archInfo();
    std::uint8_t buf[16];
    icp_assert(arch.maxInstrLen <= sizeof(buf), "maxInstrLen %u",
               arch.maxInstrLen);
    const std::span<std::uint8_t> bytes(
        buf, std::min<std::uint64_t>(arch.maxInstrLen, end - addr));
    return image.readBytes(addr, bytes) &&
           arch.codec->decode(bytes.data(), bytes.size(), addr, in);
}

const DepsCounters &
DepsCounters::global()
{
    Metrics &m = Metrics::global();
    static const DepsCounters counters{
        m.counter("deps.ranges_recorded"),
        m.counter("deps.bytes_recorded"),
        m.counter("deps.hits_validated"),
        m.counter("deps.hits_rejected")};
    return counters;
}

CfgModule
buildCfg(const BinaryImage &image, const AnalysisOptions &opts,
         const CfgReuse &reuse)
{
    // Self time: cache lookups and stores, fan-out, module assembly.
    const ScopedTimer timer(analysis_timer);
    CfgModule mod;
    mod.image = &image;

    const std::uint64_t seed =
        opts.useCache ? imageCacheSeed(image, opts) : 0;

    std::vector<const Symbol *> syms = image.functionSymbols();
    if (opts.rangeLo != 0 || opts.rangeHi != ~static_cast<Addr>(0)) {
        std::erase_if(syms, [&](const Symbol *sym) {
            return sym->addr < opts.rangeLo ||
                   sym->addr >= opts.rangeHi;
        });
    }
    // A clean function of @p reuse is its slot, shared; the others
    // are built (or fetched), and only their try ranges are read.
    std::vector<std::shared_ptr<const Function>> built(syms.size());
    std::vector<std::size_t> todo;
    std::vector<Addr> starts; // ascending: syms is sorted
    for (std::size_t i = 0; i < syms.size(); ++i) {
        if (reuse.module && !reuse.dirty->count(syms[i]->addr)) {
            if (const FunctionSlot *slot =
                    reuse.module->slotAt(syms[i]->addr)) {
                built[i] = slot->fn;
                continue;
            }
        }
        todo.push_back(i);
        starts.push_back(syms[i]->addr);
    }

    // Landing pads per function from .eh_frame.
    std::map<Addr, std::vector<TryRange>> tries;
    const Section *eh = image.findSection(SectionKind::ehFrame);
    if (eh && !eh->bytes.empty() && !todo.empty()) {
        auto parsed = parseTryRanges(eh->bytes, starts);
        icp_assert(parsed, "malformed .eh_frame");
        tries = std::move(*parsed);
    }

    // Functions are analyzed independently; build (or fetch) each
    // one in parallel into an index-addressed slot, then publish in
    // address order so the module is identical for any thread count.
    // A hit publishes the cache's own immutable Function, and a fresh
    // result is stored as the very object the module holds.
    ThreadPool::shared().parallelFor(
        todo.size(), effectiveThreads(opts.threads),
        [&](std::size_t k) {
            const std::size_t i = todo[k];
            const Symbol &sym = *syms[i];
            auto it = tries.find(sym.addr);
            static const std::vector<TryRange> none;
            const std::vector<TryRange> &try_ranges =
                it == tries.end() ? none : it->second;

            // Key 0: caching off; neither looks up nor stores.
            const std::uint64_t key =
                opts.useCache
                    ? functionCacheKey(image, sym, try_ranges, seed)
                    : 0;
            const DepsCounters &dc = DepsCounters::global();
            if (key != 0) {
                if (auto hit = AnalysisCache::global().findFunction(
                        key, image, sym)) {
                    // The key covers code bytes but not data
                    // contents; accept the hit only when the data
                    // bytes its analysis read are unchanged — for a
                    // cross-binary hit the read-set comes back
                    // decoded at *this* image's addresses, so the
                    // re-hash checks this binary's data bytes.
                    if (hit->dataDeps.validate(image)) {
                        dc.hitsValidated.add();
                        built[i] = std::move(hit);
                        return;
                    }
                    dc.hitsRejected.add();
                }
            }
            FunctionBuilder builder(image, opts, sym, try_ranges);
            Function func = builder.build();
            func.cacheKey = key;
            func.dataDeps = computeDataDeps(func, image);
            dc.rangesRecorded.add(func.dataDeps.size());
            dc.bytesRecorded.add(func.dataDeps.totalBytes());
            if (image.archInfo().fixedLength) {
                ScopedTimer timer(liveness_timer);
                func.liveness = computeLiveness(func, image.archInfo());
            }
            built[i] = std::make_shared<const Function>(std::move(func));
            if (key != 0)
                AnalysisCache::global().storeFunction(
                    key, image.arch, built[i], image.tocBase);
        });

    // Address order (syms is sorted); the first of several symbols
    // at one address wins.
    mod.functions.reserve(syms.size());
    for (std::size_t i = 0; i < syms.size(); ++i) {
        if (mod.functions.empty() ||
            mod.functions.back().entry != syms[i]->addr)
            mod.functions.push_back(
                {syms[i]->addr, std::move(built[i])});
    }
    return mod;
}

} // namespace icp
