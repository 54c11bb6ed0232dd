#include "analysis/builder.hh"

#include <algorithm>
#include <bit>
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
 * Per-function construction state: one table with a slot per
 * instruction-aligned address of the function's stored bytes,
 * holding the instruction decoded there (an index into insns_) and
 * whether a block may start there (a leader). An instruction starts
 * only at an aligned address, so on the fixed-length ISAs the table
 * has a slot per four bytes.
 * Blocks form from the table in address order, and only after an
 * instruction or a leader was added since they last formed. Forming
 * writes index ranges only: each block's instructions are a range of
 * order_, which indexes insns_. build() copies the instructions into
 * the Function's array once, in that order.
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
        // (sbf-symbol): the table spans the aligned addresses of
        // those of [entry, end).
        if (const Section *s = image.sectionAt(sym.addr)) {
            const Offset off = sym.addr - s->addr;
            if (off < s->bytes.size())
                stored_ = std::min<std::uint64_t>(sym.size,
                                                  s->bytes.size() - off);
        }
        const unsigned align = image.archInfo().instrAlign;
        alignMask_ = align - 1;
        shift_ = static_cast<unsigned>(std::countr_zero(align));
        base_ = (sym.addr + alignMask_) & ~Addr{alignMask_};
        if (stored_ > base_ - sym.addr)
            slots_.resize((stored_ - (base_ - sym.addr) + alignMask_) >>
                          shift_);
        insns_.reserve(stored_ / 4 + 1);
    }

    Function build();

  private:
    static constexpr std::uint32_t no_insn = ~std::uint32_t{0};

    /** What starts at one aligned address. */
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
    void finishArrays();

    /** Instruction @p k of @p block while it forms. */
    const Instruction &
    insnOf(const Block &block, std::uint32_t k) const
    {
        return insns_[order_[block.insns.first + k]];
    }

    /** @p block's instructions, copied into @p out. */
    void gather(const Block &block, std::vector<Instruction> &out) const;

    bool
    inFunction(Addr a) const
    {
        return a >= func_.entry && a < func_.end;
    }

    /** The slot of @p a, or null when @p a is unaligned or outside
     *  the table. */
    Slot *
    slotAt(Addr a)
    {
        if (a < base_ || (a & alignMask_) != 0)
            return nullptr;
        const Addr i = (a - base_) >> shift_;
        return i < slots_.size() ? &slots_[i] : nullptr;
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
            if (slot->insn != no_insn)
                ++blockStarts_;
        }
        work_.push_back(a);
    }

    const BinaryImage &image_;
    const AnalysisOptions &opts_;
    JumpTableAnalyzer analyzer_;

    Function func_;
    std::vector<Slot> slots_;
    Addr base_ = 0;            ///< address of slots_[0]
    Addr alignMask_ = 0;       ///< instrAlign - 1
    unsigned shift_ = 0;       ///< log2(instrAlign)
    std::uint64_t stored_ = 0; ///< stored bytes from the entry
    std::vector<Instruction> insns_; ///< in decode order
    std::vector<Addr> work_;         ///< traversal queue, in order

    /** func_.blocks reflect every instruction and leader. */
    bool formed_ = false;

    /** Slots that are a leader an instruction starts at. */
    std::size_t blockStarts_ = 0;

    /** Every block's instructions as insns_ indices, block after
     *  block: the blocks' instruction ranges index this. */
    std::vector<std::uint32_t> order_;

    /** A block and its layout predecessor, gathered for the
     *  jump-table analyzer. */
    std::vector<Instruction> jumpBlock_, jumpPred_;

    /** Ranges of embedded jump-table data (not code). */
    std::vector<std::pair<Addr, Addr>> dataRanges_;

    /** Unresolved indirect jumps (candidates for the heuristic). */
    std::vector<Addr> unresolved_;
};

bool
FunctionBuilder::decodeAt(Addr addr, Instruction &in) const
{
    return addr >= func_.entry && addr - func_.entry < stored_ &&
           decodeInstructionAt(image_, addr, func_.end, in);
}

void
FunctionBuilder::traverseFrom(Addr start)
{
    if (!inFunction(start) || insnAt(start))
        return;
    if ((start & alignMask_) != 0)
        return;
    Addr cur = start;
    while (inFunction(cur) && !insnAt(cur)) {
        Instruction in;
        if (!decodeAt(cur, in)) {
            // Undecodable byte: stop this run; the gap classifier
            // will see it.
            return;
        }
        Slot &slot = *slotAt(cur);
        slot.insn = static_cast<std::uint32_t>(insns_.size());
        if (slot.leader)
            ++blockStarts_;
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
    // Each round only adds leaders and instructions, so the arrays
    // keep their capacity, and blocks is sized exactly.
    func_.blocks.clear();
    func_.blocks.reserve(blockStarts_);
    func_.edges.clear();
    func_.edges.reserve(2 * blockStarts_);
    order_.clear();
    order_.reserve(insns_.size());
    // A leader no instruction starts at (inside a decoded instruction,
    // or where nothing decodes) is an infeasible edge: dropped.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (!slot.leader || slot.insn == no_insn)
            continue;
        Block &block = func_.blocks.emplace_back();
        block.start = base_ + (Addr{i} << shift_);
        block.insns.first = static_cast<std::uint32_t>(order_.size());
        Addr cur = block.start;
        const Instruction *last = nullptr;
        for (const Instruction *in = insnAt(cur); in; in = insnAt(cur)) {
            order_.push_back(
                static_cast<std::uint32_t>(in - insns_.data()));
            last = in;
            cur += in->length;
            if (isControlFlow(in->op) || startsBlock(cur))
                break;
        }
        block.end = cur;
        block.insns.count =
            static_cast<std::uint32_t>(order_.size()) - block.insns.first;

        // Successor edges; jump-table edges join them in
        // finishArrays.
        const Addr next = block.end;
        block.succs.first =
            static_cast<std::uint32_t>(func_.edges.size());
        auto edge = [&](Addr target, EdgeKind kind) {
            func_.edges.push_back({target, kind});
            ++block.succs.count;
        };
        switch (last->op) {
          case Opcode::Jmp:
            if (inFunction(last->target))
                edge(last->target, EdgeKind::taken);
            else
                block.endsFunction = true;
            break;
          case Opcode::JmpCond:
            if (inFunction(last->target))
                edge(last->target, EdgeKind::taken);
            edge(next, EdgeKind::fallthrough);
            break;
          case Opcode::Call:
            block.callTarget = last->target;
            edge(next, EdgeKind::callFallthrough);
            break;
          case Opcode::CallInd:
          case Opcode::CallIndMem:
            edge(next, EdgeKind::callFallthrough);
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
            if (!isControlFlow(last->op))
                edge(next, EdgeKind::fallthrough);
            break;
        }
    }
}

void
FunctionBuilder::gather(const Block &block,
                        std::vector<Instruction> &out) const
{
    out.clear();
    for (std::uint32_t k = 0; k < block.insns.count; ++k)
        out.push_back(insnOf(block, k));
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
        for (std::size_t b = 0; b < func_.blocks.size(); ++b) {
            const Block &block = func_.blocks[b];
            if (!block.endsInUnresolvedIndirect)
                continue;
            const Addr jump_addr =
                insnOf(block, block.insns.count - 1).addr;
            const bool known = std::any_of(
                func_.jumpTables.begin(), func_.jumpTables.end(),
                [&](const JumpTable &jt) {
                    return jt.jumpAddr == jump_addr;
                });
            if (known)
                continue;
            // Layout predecessor: the block ending exactly at this
            // block's start with a fall-through edge.
            gather(block, jumpBlock_);
            jumpPred_.clear();
            if (b > 0 && func_.blocks[b - 1].end == block.start)
                gather(func_.blocks[b - 1], jumpPred_);
            ScopedTimer timer(jump_table_timer);
            auto jt = analyzer_.analyze(jumpBlock_, jumpPred_);
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

    // A resolved jump's block gets the table's edges in
    // finishArrays.
    for (const auto &jt : func_.jumpTables) {
        if (Block *block = func_.blockAt(jt.jumpAddr))
            block->endsInUnresolvedIndirect = false;
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
    for (const Block &block : func_.blocks)
        covered.emplace_back(block.start, block.end);
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
        finishArrays();
    }
    return std::move(func_);
}

void
FunctionBuilder::finishArrays()
{
    // The instructions, copied once in block order.
    func_.insns.reserve(order_.size());
    for (std::uint32_t i : order_)
        func_.insns.push_back(insns_[i]);

    // The edges, sized exactly: each resolved table's edges follow
    // the fixed edges of the block holding its jump, tables in
    // resolution order.
    const auto edge = [&](Addr t) {
        return inFunction(t) && startsBlock(t);
    };
    std::vector<std::pair<std::size_t, std::size_t>> owners; // block, table
    std::size_t count = func_.edges.size();
    for (std::size_t t = 0; t < func_.jumpTables.size(); ++t) {
        const JumpTable &jt = func_.jumpTables[t];
        if (const Block *block = func_.blockAt(jt.jumpAddr)) {
            owners.emplace_back(block - func_.blocks.data(), t);
            count += static_cast<std::size_t>(std::count_if(
                jt.targets.begin(), jt.targets.end(), edge));
        }
    }
    std::sort(owners.begin(), owners.end());
    std::vector<Edge> edges;
    edges.reserve(count);
    auto owner = owners.begin();
    for (std::size_t b = 0; b < func_.blocks.size(); ++b) {
        Block &block = func_.blocks[b];
        const auto fixed = func_.succsOf(block);
        block.succs.first = static_cast<std::uint32_t>(edges.size());
        edges.insert(edges.end(), fixed.begin(), fixed.end());
        for (; owner != owners.end() && owner->first == b; ++owner) {
            for (Addr t : func_.jumpTables[owner->second].targets) {
                if (edge(t))
                    edges.push_back({t, EdgeKind::jumpTable});
            }
        }
        block.succs.count =
            static_cast<std::uint32_t>(edges.size()) - block.succs.first;
    }
    func_.edges = std::move(edges);
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
