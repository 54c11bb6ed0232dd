#include "analysis/builder.hh"

#include <algorithm>
#include <deque>

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

/** Per-function construction state. */
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
    }

    Function build();

  private:
    bool decodeAt(Addr addr, Instruction &in) const;
    void traverseFrom(Addr addr);
    void formBlocks();
    void resolveIndirectJumps();
    void classifyGaps();

    bool
    inFunction(Addr a) const
    {
        return a >= func_.entry && a < func_.end;
    }

    const BinaryImage &image_;
    const AnalysisOptions &opts_;
    JumpTableAnalyzer analyzer_;

    Function func_;
    std::map<Addr, Instruction> insns_;
    std::set<Addr> leaders_;
    std::deque<Addr> work_;

    /** Ranges of embedded jump-table data (not code). */
    std::vector<std::pair<Addr, Addr>> dataRanges_;

    /** Unresolved indirect jumps (candidates for the heuristic). */
    std::vector<Addr> unresolved_;
};

bool
FunctionBuilder::decodeAt(Addr addr, Instruction &in) const
{
    const auto &arch = image_.archInfo();
    std::vector<std::uint8_t> bytes;
    const std::size_t want = std::min<std::uint64_t>(
        arch.maxInstrLen, func_.end - addr);
    if (want == 0 || !image_.readBytes(addr, want, bytes))
        return false;
    return arch.codec->decode(bytes.data(), bytes.size(), addr, in);
}

void
FunctionBuilder::traverseFrom(Addr start)
{
    if (!inFunction(start) || insns_.count(start))
        return;
    if (start % image_.archInfo().instrAlign != 0)
        return;
    Addr cur = start;
    while (inFunction(cur) && !insns_.count(cur)) {
        Instruction in;
        if (!decodeAt(cur, in)) {
            // Undecodable byte: stop this run; the gap classifier
            // will see it.
            return;
        }
        insns_.emplace(cur, in);
        const Addr next = cur + in.length;

        if (isControlFlow(in.op)) {
            switch (in.op) {
              case Opcode::Jmp:
                if (inFunction(in.target)) {
                    leaders_.insert(in.target);
                    work_.push_back(in.target);
                }
                // Targets outside are direct tail calls.
                break;
              case Opcode::JmpCond:
                if (inFunction(in.target)) {
                    leaders_.insert(in.target);
                    work_.push_back(in.target);
                }
                leaders_.insert(next);
                work_.push_back(next);
                break;
              case Opcode::Call:
              case Opcode::CallInd:
              case Opcode::CallIndMem:
                leaders_.insert(next);
                work_.push_back(next);
                break;
              default:
                // Ret/Halt/Trap/Throw/JmpInd/JmpTar terminate runs.
                break;
            }
            return;
        }
        cur = next;
        if (leaders_.count(cur))
            return;
    }
}

void
FunctionBuilder::formBlocks()
{
    ScopedTimer timer(cfg_timer);
    func_.blocks.clear();
    // Drop leaders that fall mid-instruction inside already decoded
    // code (misaligned over-approximated edges are infeasible).
    std::set<Addr> starts;
    for (const auto &[a, in] : insns_)
        starts.insert(a);
    std::set<Addr> valid_leaders;
    for (Addr l : leaders_) {
        if (starts.count(l))
            valid_leaders.insert(l);
    }
    valid_leaders.insert(func_.entry);

    for (Addr start : valid_leaders) {
        if (!insns_.count(start))
            continue;
        Block block;
        block.start = start;
        Addr cur = start;
        while (true) {
            auto it = insns_.find(cur);
            if (it == insns_.end())
                break;
            const Instruction &in = it->second;
            block.insns.push_back(in);
            cur += in.length;
            if (isControlFlow(in.op))
                break;
            if (valid_leaders.count(cur))
                break;
        }
        block.end = cur;
        if (block.insns.empty())
            continue;

        // Successor edges.
        const Instruction &last = block.last();
        const Addr next = block.end;
        switch (last.op) {
          case Opcode::Jmp:
            if (inFunction(last.target))
                block.succs.push_back({last.target, EdgeKind::taken});
            else
                block.endsFunction = true;
            break;
          case Opcode::JmpCond:
            if (inFunction(last.target))
                block.succs.push_back({last.target, EdgeKind::taken});
            block.succs.push_back({next, EdgeKind::fallthrough});
            break;
          case Opcode::Call:
            block.callTarget = last.target;
            block.succs.push_back({next, EdgeKind::callFallthrough});
            break;
          case Opcode::CallInd:
          case Opcode::CallIndMem:
            block.succs.push_back({next, EdgeKind::callFallthrough});
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
                block.succs.push_back({next, EdgeKind::fallthrough});
            break;
        }
        func_.blocks.emplace(block.start, std::move(block));
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
                leaders_.insert(t);
                work_.push_back(t);
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
                !leaders_.count(*jt->base)) {
                leaders_.insert(*jt->base);
                work_.push_back(*jt->base);
                discovered = true;
            }
            func_.jumpTables.push_back(std::move(*jt));
        }
        {
            ScopedTimer timer(disasm_timer);
            while (!work_.empty()) {
                const Addr a = work_.front();
                work_.pop_front();
                traverseFrom(a);
            }
        }
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
        for (Addr t : jt.targets) {
            if (inFunction(t) && func_.blocks.count(t))
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
    leaders_.insert(func_.entry);
    work_.push_back(func_.entry);
    for (Addr lp : func_.landingPads) {
        leaders_.insert(lp);
        work_.push_back(lp);
    }
    {
        ScopedTimer timer(disasm_timer);
        while (!work_.empty()) {
            const Addr a = work_.front();
            work_.pop_front();
            traverseFrom(a);
        }
    }
    resolveIndirectJumps();
    {
        ScopedTimer timer(cfg_timer);
        classifyGaps();
    }
    // A copy, not a move: the copy's vectors are sized exactly, while
    // func_'s keep their growth slack (28 MB of peak RSS on chromium).
    return func_;
}

} // namespace

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
                        key, sym.addr, image.tocBase)) {
                    // The key covers code bytes but not data
                    // contents; accept the hit only when the data
                    // bytes its analysis read are unchanged — for a
                    // cross-binary hit the read-set comes back
                    // rebased to *this* image's addresses, so the
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
