#include "rewrite/rewriter.hh"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string_view>

#include "analysis/cache.hh"
#include "analysis/funcptr.hh"
#include "binfmt/addr_map.hh"
#include "binfmt/stream_writer.hh"
#include "rewrite/engine.hh"
#include "rewrite/trampoline.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace icp
{

const char *
rewriteModeName(RewriteMode mode)
{
    switch (mode) {
      case RewriteMode::dir: return "dir";
      case RewriteMode::jt: return "jt";
      case RewriteMode::funcPtr: return "func-ptr";
    }
    return "?";
}

const char *
injectDefectName(InjectDefect defect)
{
    switch (defect) {
      case InjectDefect::none: return "none";
      case InjectDefect::trampTarget: return "tramp-target";
      case InjectDefect::trampRange: return "tramp-range";
      case InjectDefect::trampChain: return "tramp-chain";
      case InjectDefect::liveScratch: return "live-scratch";
      case InjectDefect::tocScratch: return "toc-scratch";
      case InjectDefect::staleCloneEntry: return "stale-clone-entry";
      case InjectDefect::cloneBounds: return "clone-bounds";
      case InjectDefect::doublePatch: return "double-patch";
      case InjectDefect::raMapEntry: return "ra-map-entry";
      case InjectDefect::dropFde: return "drop-fde";
      case InjectDefect::funcPtrStale: return "func-ptr-stale";
      case InjectDefect::depMissing: return "dep-missing";
      case InjectDefect::depStale: return "dep-stale";
      case InjectDefect::depOverbroad: return "dep-overbroad";
    }
    return "?";
}

std::optional<InjectDefect>
parseInjectDefect(const std::string &name)
{
    for (unsigned v = 0;
         v <= static_cast<unsigned>(InjectDefect::depOverbroad); ++v) {
        const auto defect = static_cast<InjectDefect>(v);
        if (name == injectDefectName(defect))
            return defect;
    }
    return std::nullopt;
}

std::uint64_t
numberArg(const char *text, std::uint64_t min, std::uint64_t max,
          bool *bad)
{
    std::uint64_t v = 0;
    const char *p = text;
    for (; *p >= '0' && *p <= '9'; ++p) {
        const unsigned digit = static_cast<unsigned>(*p - '0');
        if (v > (max - digit) / 10) {
            *bad = true;
            return 0;
        }
        v = v * 10 + digit;
    }
    if (p == text || *p != '\0' || v < min) {
        *bad = true;
        return 0;
    }
    return v;
}

std::string
RewriteFlag::field() const
{
    std::string f(name + 2);
    std::replace(f.begin(), f.end(), '-', '_');
    return f;
}

/** Store a well-formed number flag value into @p field. */
template <typename T>
static bool
setNumber(const char *v, std::uint64_t min, std::uint64_t max, T &field)
{
    bool bad = false;
    const std::uint64_t n = numberArg(v, min, max, &bad);
    if (!bad)
        field = static_cast<T>(n);
    return !bad;
}

const std::vector<RewriteFlag> &
rewriteFlags()
{
    // Each setter is a captureless lambda on (RewriteOptions &o,
    // const char *v); v is null for a switch.
    static const std::vector<RewriteFlag> flags = {
        {"--mode", true,
         [](auto &o, auto v) {
             for (RewriteMode m : {RewriteMode::dir, RewriteMode::jt,
                                   RewriteMode::funcPtr}) {
                 if (std::strcmp(v, rewriteModeName(m)) == 0) {
                     o.mode = m;
                     return true;
                 }
             }
             return false;
         }},
        {"--clobber", false,
         [](auto &o, auto) { o.clobberOriginal = true; return true; }},
        {"--count-blocks", false,
         [](auto &o, auto) {
             o.instrumentation.countBlocks = true;
             return true;
         }},
        {"--count-entries", false,
         [](auto &o, auto) {
             o.instrumentation.countFunctionEntries = true;
             return true;
         }},
        {"--no-placement", false,
         [](auto &o, auto) { o.trampolinePlacement = false; return true; }},
        {"--no-multihop", false,
         [](auto &o, auto) { o.multiHop = false; return true; }},
        {"--call-emulation", false,
         [](auto &o, auto) { o.raTranslation = false; return true; }},
        {"--no-cache", false,
         [](auto &o, auto) { o.useAnalysisCache = false; return true; }},
        {"--threads", true,
         [](auto &o, auto v) { return setNumber(v, 0, UINT_MAX, o.threads); }},
        {"--shards", true,
         [](auto &o, auto v) { return setNumber(v, 1, UINT_MAX, o.shards); }},
        {"--cache-file", true,
         [](auto &o, auto v) {
             o.cachePath = v;
             return *v != '\0';
         }},
        {"--cache-max-bytes", true,
         [](auto &o, auto v) {
             return setNumber(v, 1, UINT64_MAX, o.cacheMaxBytes);
         }},
        {"--inject", true,
         [](auto &o, auto v) {
             const auto defect = parseInjectDefect(v);
             if (defect)
                 o.injectDefect = *defect;
             return defect.has_value();
         }},
        {"--only", true,
         [](auto &o, auto v) {
             const std::string_view list = v;
             for (std::size_t pos = 0; pos <= list.size();) {
                 const std::size_t comma =
                     std::min(list.find(',', pos), list.size());
                 o.onlyFunctions.emplace(list.substr(pos, comma - pos));
                 pos = comma + 1;
             }
             return true;
         }},
    };
    return flags;
}

RewriteOptions
flagDefaultOptions()
{
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    return opts;
}

std::vector<ShardRange>
planShards(const BinaryImage &image, unsigned shards)
{
    const auto syms = image.functionSymbols();
    const unsigned n = std::max(
        1u, std::min<unsigned>(
                shards, static_cast<unsigned>(syms.size())));

    // Boundaries at equal function-count splits; ranges tile the
    // whole address space so membership is a pure range test.
    std::vector<ShardRange> ranges;
    Addr lo = 0;
    for (unsigned k = 0; k < n; ++k) {
        ShardRange r;
        r.lo = lo;
        if (k + 1 == n) {
            r.hi = ~static_cast<Addr>(0);
        } else {
            const std::size_t split = syms.size() * (k + 1) / n;
            r.hi = syms[split]->addr;
        }
        lo = r.hi;
        ranges.push_back(r);
    }
    return ranges;
}

namespace
{

const Timer func_ptr_timer = Metrics::global().timer("func-ptr");
const Timer relocation_timer = Metrics::global().timer("relocation");
const Timer trampoline_timer = Metrics::global().timer("trampoline");
const Timer output_timer = Metrics::global().timer("output");
const Timer rewrite_timer = Metrics::global().timer("rewrite");

Addr
alignUp(Addr v, Addr align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Mutable working copy of the output image under construction. */
class Rewriter
{
  public:
    Rewriter(const BinaryImage &input, const RewriteOptions &opts,
             const RewritePass &pass)
        : input_(input), opts_(opts), pass_(pass),
          arch_(input.archInfo())
    {
    }

    RewriteResult run(const std::vector<ShardRange> &ranges,
                      SbfSink *sink);

  private:
    /** A .instr patch applied when its function's bytes are
     *  emitted (the payload does not exist before then). */
    struct InstrPatch
    {
        Addr at = 0;
        Addr newTarget = 0;
    };

    bool emitted(const Function &func) const;
    std::vector<const Function *>
    emissionOrder(const CfgModule &cfg) const;
    bool samePlan(const Function &was, const Function &now) const;
    bool replay(const EngineConfig &config);
    std::set<Addr> cflBlocks(const Function &func) const;
    std::set<Addr> blocksReachingInstrumentation(
        const Function &func) const;
    void donateScratch(ScratchPool &pool);
    void recordDonation(Addr addr, std::uint64_t len);
    bool injectSiteAllowed(Addr func_entry) const;
    void fillManifest(const Engine &engine);
    void injectByteDefect();
    void trampolineBegin();
    void installTrampolines(const CfgModule &cfg, const Engine &engine);
    void trampolineFunc(const Function &func,
                        const std::set<Addr> &cfl,
                        const Engine &engine);
    void trampolineFinish();
    void accountTrampoline(const TrampolineRequest &req,
                           Addr func_entry,
                           const TrampolineOut &installed);
    void rewriteFuncPtrs(const Engine &engine,
                         std::vector<InstrPatch> &deferred);
    void patchCodeDef(const FuncPtrDef &def, Addr new_target,
                      const Engine &engine,
                      std::vector<InstrPatch> &deferred);
    void clobberOriginal(
        const std::vector<std::pair<Addr, Addr>> &func_ranges);
    void buildSections(std::uint64_t instr_size,
                       std::uint64_t rodata_size,
                       const std::vector<std::pair<Addr, Addr>>
                           &ra_pairs);

    const BinaryImage &input_;
    const RewriteOptions &opts_;
    const RewritePass &pass_;
    const ArchInfo &arch_;
    /** Sites of input_.relocs, which out_.relocs copies in order
     *  (built by the full pipeline; a replay needs none). */
    std::optional<RelocIndex> relocs_;

    /** With one range, its CFG, built once (or borrowed from
     *  pass_.cfg) and kept for the whole run; null with several,
     *  whose CFGs are rebuilt in every pass. */
    CfgModule ownCfg_;
    const CfgModule *cfg_ = nullptr;
    FuncPtrAnalysisResult funcPtrs_;
    std::set<Addr> instrumented_;

    RewriteResult result_;
    BinaryImage out_;

    Addr instrBase_ = 0;
    Addr newRodataBase_ = 0;

    std::vector<std::pair<Addr, Addr>> trapEntries_;

    /** Bytes a trampoline occupies (kept during clobbering). */
    std::vector<std::pair<Addr, Addr>> keepRanges_;

    // Trampoline-installation state, live between trampolineBegin()
    // and trampolineFinish() (installs run range by range).
    struct PendingTramp
    {
        TrampolineRequest req;
        Addr superEnd;
        Addr funcEntry;
    };
    std::unique_ptr<ScratchPool> pool_;
    std::unique_ptr<TrampolineWriter> writer_;
    std::vector<PendingTramp> pendingTramps_;
};

/** Whether @p func is relocated (instrumented) under opts_. */
bool
Rewriter::emitted(const Function &func) const
{
    return func.instrumentable() &&
           (opts_.onlyFunctions.empty() ||
            opts_.onlyFunctions.count(func.name));
}

/** Instrumented functions of @p cfg, in emission order. */
std::vector<const Function *>
Rewriter::emissionOrder(const CfgModule &cfg) const
{
    std::vector<const Function *> order;
    for (const auto &[entry, func] : cfg.functions) {
        if (emitted(func))
            order.push_back(&func);
    }
    if (opts_.functionOrder == OrderPolicy::reversed)
        std::reverse(order.begin(), order.end());
    return order;
}

std::set<Addr>
Rewriter::cflBlocks(const Function &func) const
{
    std::set<Addr> cfl;
    if (!opts_.trampolinePlacement) {
        // SRBI-style: every basic block gets a trampoline.
        for (const Block &block : func.blocks)
            cfl.insert(block.start);
        return cfl;
    }

    // Function entry blocks: always CFL — entries of instrumented
    // functions keep a trampoline so calls from uninstrumented code
    // (and unrewritten pointers) stay correct (§4.3).
    cfl.insert(func.entry);

    // Landing pads: the unwinder resumes at original addresses.
    for (Addr lp : func.landingPads) {
        if (func.blockIndex(lp) != Function::no_block)
            cfl.insert(lp);
    }

    // Jump-table targets: CFL only when tables are not cloned.
    if (opts_.mode == RewriteMode::dir) {
        for (Addr t : func.jumpTableTargets())
            cfl.insert(t);
    }

    // Call fall-through blocks: CFL under call emulation only;
    // runtime RA translation removes them (§6).
    if (!opts_.raTranslation) {
        for (const auto &edge : func.edges) {
            if (edge.kind == EdgeKind::callFallthrough &&
                func.blockIndex(edge.target) != Function::no_block)
                cfl.insert(edge.target);
        }
    }

    // The §4.2 extension: drop trampolines at CFL blocks that
    // cannot reach any instrumented block — control flow landing
    // there may keep running original code (which is why this is
    // incompatible with clobbering).
    if (opts_.reachabilityPruning) {
        const std::set<Addr> keep =
            blocksReachingInstrumentation(func);
        for (auto it = cfl.begin(); it != cfl.end();) {
            if (keep.count(*it))
                ++it;
            else
                it = cfl.erase(it);
        }
    }
    return cfl;
}

std::set<Addr>
Rewriter::blocksReachingInstrumentation(const Function &func) const
{
    // Instrumentation sites in this function. Calls to other
    // instrumented functions are covered by the callees' own entry
    // trampolines, so local reachability suffices.
    std::set<Addr> inst;
    if (opts_.instrumentation.countFunctionEntries)
        inst.insert(func.entry);
    if (opts_.raTranslation && input_.features.isGo &&
        (func.name == "runtime.findfunc" ||
         func.name == "runtime.pcvalue")) {
        inst.insert(func.entry);
    }
    for (const Block &block : func.blocks) {
        if (opts_.instrumentation.instrumentsBlock(block.start))
            inst.insert(block.start);
    }

    // Backward reachability over intra-procedural edges.
    std::map<Addr, std::vector<Addr>> preds;
    for (const Block &block : func.blocks) {
        for (const auto &edge : func.succsOf(block))
            preds[edge.target].push_back(block.start);
    }
    std::set<Addr> keep = inst;
    std::vector<Addr> work(inst.begin(), inst.end());
    while (!work.empty()) {
        const Addr cur = work.back();
        work.pop_back();
        auto it = preds.find(cur);
        if (it == preds.end())
            continue;
        for (Addr p : it->second) {
            if (keep.insert(p).second)
                work.push_back(p);
        }
    }
    return keep;
}

void
Rewriter::recordDonation(Addr addr, std::uint64_t len)
{
    result_.manifest.scratchRanges.emplace_back(addr, len);
}

void
Rewriter::donateScratch(ScratchPool &pool)
{
    auto donate = [&](Addr addr, std::uint64_t len) {
        pool.donate(addr, len, arch_.instrAlign);
        recordDonation(addr, len);
    };

    // Source 1: inter-function nop padding in .text.
    const auto funcs = input_.functionSymbols();
    const Section *text = input_.findSection(SectionKind::text);
    if (text) {
        Addr cursor = text->addr;
        for (const Symbol *sym : funcs) {
            if (sym->addr > cursor)
                donate(cursor, sym->addr - cursor);
            cursor = std::max(cursor, sym->addr + sym->size);
        }
        if (text->end() > cursor)
            donate(cursor, text->end() - cursor);
    }

    // Source 3: the retired dynamic-linking sections (§3). (Source
    // 2, unused scratch-block bytes, is consumed in place through
    // trampoline superblock extension.)
    for (const auto kind : {SectionKind::dynsym, SectionKind::dynstr,
                            SectionKind::relaDyn}) {
        if (const Section *s = input_.findSection(kind))
            donate(s->addr, s->memSize);
    }
}

void
Rewriter::accountTrampoline(const TrampolineRequest &req,
                            Addr func_entry,
                            const TrampolineOut &installed)
{
    result_.stats.trampolines++;
    switch (installed.kind) {
      case TrampolineKind::direct:
        result_.stats.directTramps++;
        break;
      case TrampolineKind::longForm:
      case TrampolineKind::longFormSpill:
        result_.stats.longTramps++;
        break;
      case TrampolineKind::multiHop:
        result_.stats.multiHopTramps++;
        break;
      case TrampolineKind::trap:
        result_.stats.trapTramps++;
        break;
    }
    TrampolinePatch patch;
    patch.site = req.at;
    patch.funcEntry = func_entry;
    patch.target = req.target;
    patch.kind = installed.kind;
    patch.scratchReg = req.scratchReg;
    patch.space = req.space;
    for (const auto &write : installed.writes) {
        const bool ok = out_.writeBytes(write.at, write.bytes);
        icp_assert(ok, "trampoline write failed at 0x%llx",
                   static_cast<unsigned long long>(write.at));
        keepRanges_.emplace_back(write.at,
                                 write.at + write.bytes.size());
        patch.writes.emplace_back(write.at, write.bytes.size());
    }
    result_.manifest.trampolines.push_back(std::move(patch));
    for (const auto &entry2 : installed.trapEntries)
        trapEntries_.push_back(entry2);
}

void
Rewriter::trampolineBegin()
{
    pool_ = std::make_unique<ScratchPool>();
    donateScratch(*pool_);
    writer_ = std::make_unique<TrampolineWriter>(
        arch_, input_.tocBase, *pool_, opts_.multiHop);
}

/**
 * Trampolines for the instrumented functions of one range, installed
 * in ascending entry order whatever the emission order (the scratch
 * pool evolves in that order in every configuration). The CFL block
 * sets are independent across functions: they are precomputed in
 * parallel, so the serial install only does the order-sensitive pool
 * work. Liveness comes with each Function (buildCfg computes it).
 */
void
Rewriter::installTrampolines(const CfgModule &cfg, const Engine &engine)
{
    ScopedTimer timer(trampoline_timer);
    std::vector<std::pair<const Function *, std::set<Addr>>> pre;
    for (const auto &[entry, func] : cfg.functions) {
        if (instrumented_.count(entry))
            pre.emplace_back(&func, std::set<Addr>{});
    }
    ThreadPool::shared().parallelFor(
        pre.size(), effectiveThreads(opts_.threads),
        [&](std::size_t i) { pre[i].second = cflBlocks(*pre[i].first); });
    for (const auto &[func, cfl] : pre)
        trampolineFunc(*func, cfl, engine);
}

/**
 * Phase 1 for one function: in-place installs; unused superblock
 * bytes (source 2 of §7's scratch space) are donated to the pool for
 * phase 2.
 */
void
Rewriter::trampolineFunc(const Function &func,
                         const std::set<Addr> &cfl,
                         const Engine &engine)
{
    result_.stats.cflBlocks += cfl.size();
    result_.stats.totalBlocks += func.blocks.size();

    // Repair demotion: every trampoline in this function becomes
    // a trap — the always-sound §4.3 fallback.
    const bool force_trap =
        opts_.forceTrapFunctions.count(func.name) > 0;

    // Embedded jump-table data must never be overwritten.
    std::vector<std::pair<Addr, Addr>> protect;
    for (const auto &jt : func.jumpTables) {
        if (jt.embeddedInCode) {
            protect.emplace_back(
                jt.tableAddr,
                jt.tableAddr +
                    std::uint64_t{jt.entryCount} * jt.entrySize);
            keepRanges_.emplace_back(protect.back());
            result_.manifest.protectedRanges.push_back(
                protect.back());
        }
    }

    for (Addr start : cfl) {
        std::size_t b = func.blockIndex(start);
        if (b == Function::no_block)
            continue;
        // Trampoline superblock: extend across address-adjacent
        // scratch (non-CFL) blocks (§4.1).
        Addr se = func.blocks[b].end;
        if (opts_.trampolinePlacement) {
            while (++b < func.blocks.size() &&
                   func.blocks[b].start == se &&
                   !cfl.count(func.blocks[b].start))
                se = func.blocks[b].end;
        }
        // Never extend over embedded table data.
        for (const auto &[lo, hi] : protect) {
            if (lo >= start && lo < se)
                se = lo;
        }

        TrampolineRequest req;
        req.at = start;
        req.space = se - start;
        const std::optional<Addr> target = engine.lookupBlock(start);
        icp_assert(target.has_value(),
                   "CFL block 0x%llx not relocated",
                   static_cast<unsigned long long>(start));
        req.target = *target;
        req.scratchReg = arch_.fixedLength
            ? func.deadRegAt(start)
            : Reg::none;

        if (force_trap) {
            const TrampolineOut trapped = writer_->installTrap(req);
            const std::uint64_t used =
                trapped.writes.empty()
                    ? 0
                    : trapped.writes[0].bytes.size();
            accountTrampoline(req, func.entry, trapped);
            if (opts_.trampolinePlacement && start + used < se) {
                pool_->donate(start + used, se - (start + used),
                              arch_.instrAlign);
                recordDonation(start + used, se - (start + used));
            }
            continue;
        }

        // Fault injection (register defects): force a long form
        // whose scratch register the verifier must reject. Only
        // the first applicable site is corrupted.
        std::optional<TrampolineOut> in_place;
        const bool want_reg_defect = opts_.lint &&
            (opts_.injectDefect == InjectDefect::liveScratch ||
             opts_.injectDefect == InjectDefect::tocScratch) &&
            result_.manifest.injectedRule.empty() &&
            (opts_.injectOnlyFunction.empty() ||
             func.name == opts_.injectOnlyFunction);
        if (want_reg_defect && arch_.fixedLength &&
            req.space >= writer_->longFormLen()) {
            Reg bad = Reg::none;
            if (opts_.injectDefect == InjectDefect::tocScratch) {
                if (arch_.hasToc)
                    bad = Reg::toc;
            } else {
                const RegSet live_set = func.liveAtBlockStart(start);
                for (unsigned r = 0; r < num_gp_regs; ++r) {
                    if (live_set.contains(static_cast<Reg>(r))) {
                        bad = static_cast<Reg>(r);
                        break;
                    }
                }
            }
            if (bad != Reg::none) {
                req.scratchReg = bad;
                in_place = writer_->installForcedLongForm(req);
                result_.manifest.injectedRule =
                    opts_.injectDefect == InjectDefect::tocScratch
                        ? "toc-preserved"
                        : "tramp-scratch-live";
            }
        }
        if (!in_place)
            in_place = writer_->installInPlace(req);

        if (in_place) {
            accountTrampoline(req, func.entry, *in_place);
            std::uint64_t used = 0;
            for (const auto &write : in_place->writes) {
                if (write.at == start)
                    used = write.bytes.size();
            }
            if (opts_.trampolinePlacement && start + used < se) {
                pool_->donate(start + used, se - (start + used),
                              arch_.instrAlign);
                recordDonation(start + used, se - (start + used));
            }
        } else {
            pendingTramps_.push_back({req, se, func.entry});
        }
    }
}
void
Rewriter::trampolineFinish()
{
    // Donate the tails of still-pending superblocks (the first-hop
    // branch needs only the head), then resolve them.
    const std::uint64_t head = arch_.fixedLength
        ? arch_.directJmpLen
        : arch_.shortJmpLen;
    if (opts_.trampolinePlacement) {
        for (const auto &p : pendingTramps_) {
            if (p.req.at + head < p.superEnd) {
                pool_->donate(p.req.at + head,
                              p.superEnd - (p.req.at + head),
                              arch_.instrAlign);
                recordDonation(p.req.at + head,
                               p.superEnd - (p.req.at + head));
            }
        }
    }
    for (const auto &p : pendingTramps_) {
        accountTrampoline(p.req, p.funcEntry,
                          writer_->installWithFallback(p.req));
    }
    pendingTramps_.clear();
    writer_.reset();
    pool_.reset();
}

void
Rewriter::patchCodeDef(const FuncPtrDef &def, Addr new_target,
                       const Engine &engine,
                       std::vector<InstrPatch> &deferred)
{
    // Decide where the defining instructions live now: inside
    // relocated code (.instr) for instrumented functions, in the
    // original .text otherwise. .instr patches are queued for the
    // emission step, which applies them to each function's bytes.
    Section *text = out_.findSection(SectionKind::text);
    icp_assert(text, "no .text");

    for (Addr orig : def.defAddrs) {
        if (const std::optional<Addr> at = engine.lookupInsn(orig)) {
            deferred.push_back({*at, new_target});
            continue;
        }
        const bool ok = patchFuncPtrInsn(input_, text->bytes, text->addr,
                                         orig, new_target);
        icp_assert(ok, "func-ptr code patch failed at 0x%llx",
                   static_cast<unsigned long long>(orig));
    }
}

void
Rewriter::rewriteFuncPtrs(const Engine &engine,
                          std::vector<InstrPatch> &deferred)
{
    for (const auto &def : funcPtrs_.defs) {
        // Displaced pointers (Listing 1's entry+1) land inside the
        // entry trampoline and are therefore rewritten in every
        // mode; exact entry pointers only in func-ptr mode.
        if (opts_.mode != RewriteMode::funcPtr && def.delta == 0)
            continue;
        const std::optional<Addr> new_value = funcPtrTarget(def, engine);
        if (!new_value)
            continue; // not relocated; pointer stays valid

        const bool cell = def.kind == FuncPtrDef::Kind::dataCell;
        if (cell)
            patchFuncPtrCell(out_, *relocs_, def.site, *new_value);
        else
            patchCodeDef(def, *new_value, engine, deferred);
        result_.stats.rewrittenFuncPtrs++;
        result_.manifest.funcPtrs.push_back(
            {cell ? FuncPtrPatch::Kind::dataCell
                  : FuncPtrPatch::Kind::codeDef,
             def.site, def.funcEntry, def.delta, *new_value});
    }
}
void
Rewriter::clobberOriginal(
    const std::vector<std::pair<Addr, Addr>> &func_ranges)
{
    Section *text = out_.findSection(SectionKind::text);
    icp_assert(text, "no .text");
    std::sort(keepRanges_.begin(), keepRanges_.end());

    auto isKept = [&](Addr a) {
        auto it = std::upper_bound(
            keepRanges_.begin(), keepRanges_.end(),
            std::make_pair(a, ~Addr{0}));
        if (it == keepRanges_.begin())
            return false;
        --it;
        return a >= it->first && a < it->second;
    };

    // Illegal filler: 0x00 never decodes.
    for (const auto &[entry, end] : func_ranges) {
        for (Addr a = entry; a < end; ++a) {
            if (isKept(a))
                continue;
            const Offset off = a - text->addr;
            if (off < text->bytes.size())
                text->bytes[off] = 0x00;
        }
    }
}
void
Rewriter::buildSections(std::uint64_t instr_size,
                        std::uint64_t rodata_size,
                        const std::vector<std::pair<Addr, Addr>>
                            &ra_pairs)
{
    Addr cursor = alignUp(std::max(newRodataBase_ + rodata_size,
                                   instrBase_ + instr_size),
                          4096);

    // .ra_map
    if (opts_.raTranslation) {
        AddrPairMap ra_map(ra_pairs);
        Section s;
        s.name = ".ra_map";
        s.kind = SectionKind::raMap;
        s.addr = cursor;
        s.bytes = ra_map.serialize();
        s.memSize = s.bytes.size();
        cursor = alignUp(cursor + s.memSize, 4096);
        out_.addSection(std::move(s));
        result_.stats.raMapEntries = ra_map.size();
    }

    // .trap_map
    {
        AddrPairMap trap_map(trapEntries_);
        Section s;
        s.name = ".trap_map";
        s.kind = SectionKind::trapMap;
        s.addr = cursor;
        s.bytes = trap_map.serialize();
        s.memSize = s.bytes.size();
        cursor = alignUp(cursor + s.memSize, 4096);
        out_.addSection(std::move(s));
    }

    // Move the dynamic-linking sections; retire the old copies as
    // executable scratch (they already hold multi-hop trampolines).
    for (const auto kind : {SectionKind::dynsym, SectionKind::dynstr,
                            SectionKind::relaDyn}) {
        Section *old_sec = out_.findSection(kind);
        if (!old_sec)
            continue;
        Section moved = *old_sec;
        moved.addr = cursor;
        // Extra room for new dynamic symbols/strings/relocations —
        // what makes calls into external instrumentation libraries
        // linkable (§3).
        moved.memSize += 256;
        cursor = alignUp(cursor + moved.memSize, 16);
        old_sec->name += ".old";
        old_sec->kind = SectionKind::other;
        old_sec->executable = true;
        out_.addSection(std::move(moved));
    }
}

bool
Rewriter::injectSiteAllowed(Addr func_entry) const
{
    if (opts_.injectOnlyFunction.empty())
        return true;
    const Function *func = cfg_->functionAt(func_entry);
    return func && func->name == opts_.injectOnlyFunction;
}

void
Rewriter::fillManifest(const Engine &engine)
{
    RewriteManifest &m = result_.manifest;
    m.populated = true;
    m.blockMap = engine.blockMap();
    m.insnMap = engine.insnMap();
    m.raPairs = engine.raPairs();
    m.funcSpans = engine.spans();
    m.instrumented = instrumented_;
    for (const auto &[entry, func] : cfg_->functions)
        m.dataDeps[entry] = func.dataDeps;
    for (const auto &clone : engine.clones()) {
        const JumpTable &jt = clone.table;
        JumpTableClonePatch p;
        p.jumpAddr = jt.jumpAddr;
        p.funcEntry = clone.funcEntry;
        p.cloneAddr = clone.cloneAddr;
        p.entrySize = clone.entrySize;
        p.entryCount = jt.entryCount;
        p.shift = jt.shift;
        p.widened = clone.widened;
        p.origBase = jt.base;
        p.origTableAddr = jt.tableAddr;
        p.origTargets = jt.targets;
        m.clones.push_back(std::move(p));
    }
}

/**
 * Plant the post-emission defects of InjectDefect: each corrupts
 * exactly one emitted artifact after the rewrite completed, leaving
 * the manifest describing the *intended* output, so exactly one
 * verifier rule must fire. Register defects (liveScratch /
 * tocScratch) are planted during trampoline installation instead.
 */
void
Rewriter::injectByteDefect()
{
    RewriteManifest &m = result_.manifest;
    if (!m.injectedRule.empty())
        return; // a register defect was already planted

    switch (opts_.injectDefect) {
      case InjectDefect::trampTarget: {
        // Retarget a direct trampoline at an unmapped address that
        // the branch can still encode.
        const Addr bogus = out_.highWaterMark(4096) + 0x10000;
        for (const auto &p : m.trampolines) {
            if (p.kind != TrampolineKind::direct ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            std::vector<std::uint8_t> enc;
            if (!arch_.codec->encode(makeJmp(bogus), p.site, enc))
                continue;
            if (p.writes.empty() || enc.size() != p.writes[0].second)
                continue;
            icp_assert(out_.writeBytes(p.site, enc),
                       "defect write failed");
            m.injectedRule = "tramp-target";
            return;
        }
        return;
      }

      case InjectDefect::trampRange: {
        // Encode a branch past the ISA's enforced reach. Only the
        // ppc-like ISA has headroom between the enforced ±32 MB and
        // the 26-bit displacement field (±128 MB in 4-byte words).
        if (!arch_.fixedLength)
            return;
        for (const auto &p : m.trampolines) {
            if (p.kind != TrampolineKind::direct ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            const Addr far = p.site + 2 *
                static_cast<Addr>(arch_.directJmpRange);
            std::vector<std::uint8_t> enc;
            if (!arch_.codec->encodeUnchecked(makeJmp(far), p.site,
                                              enc)) {
                continue;
            }
            icp_assert(out_.writeBytes(p.site, enc),
                       "defect write failed");
            m.injectedRule = "tramp-range";
            return;
        }
        return;
      }

      case InjectDefect::trampChain: {
        // A trampoline branching to its own site: the chain walker
        // must detect the cycle.
        for (const auto &p : m.trampolines) {
            if (p.kind != TrampolineKind::direct ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            std::vector<std::uint8_t> enc;
            if (!arch_.codec->encode(makeJmp(p.site), p.site, enc))
                continue;
            if (p.writes.empty() || enc.size() != p.writes[0].second)
                continue;
            icp_assert(out_.writeBytes(p.site, enc),
                       "defect write failed");
            m.injectedRule = "tramp-chain";
            return;
        }
        return;
      }

      case InjectDefect::staleCloneEntry: {
        // Zero one clone entry whose correct value is nonzero —
        // the "skipped fixup" of §5.1.
        for (const auto &c : m.clones) {
            if (!injectSiteAllowed(c.funcEntry))
                continue;
            for (unsigned i = 0; i < c.entryCount; ++i) {
                const Addr orig =
                    i < c.origTargets.size() ? c.origTargets[i] : 0;
                if (!flatLookup(m.blockMap, orig))
                    continue;
                const Addr at =
                    c.cloneAddr + std::uint64_t{i} * c.entrySize;
                const auto cur = out_.readValue(at, c.entrySize);
                if (!cur || *cur == 0)
                    continue;
                out_.writeBytes(
                    at, std::vector<std::uint8_t>(c.entrySize, 0));
                m.injectedRule = "jt-clone-target";
                return;
            }
        }
        return;
      }

      case InjectDefect::cloneBounds: {
        // Shrink .newrodata so a clone's last entry sticks out.
        Section *ro = out_.findSection(SectionKind::newRodata);
        if (!ro || m.clones.empty())
            return;
        const JumpTableClonePatch *last = nullptr;
        for (const auto &c : m.clones) {
            if (!last || c.cloneAddr > last->cloneAddr)
                last = &c;
        }
        const Addr end = last->cloneAddr +
            std::uint64_t{last->entryCount} * last->entrySize;
        if (end <= ro->addr + 1)
            return;
        ro->memSize = end - 1 - ro->addr;
        if (ro->bytes.size() > ro->memSize)
            ro->bytes.resize(ro->memSize);
        m.injectedRule = "jt-clone-bounds";
        return;
      }

      case InjectDefect::doublePatch: {
        // Duplicate one patch record: two installs claiming the
        // same byte extent.
        for (const auto &p : m.trampolines) {
            if (!injectSiteAllowed(p.funcEntry))
                continue;
            m.trampolines.push_back(p);
            m.injectedRule = "patch-overlap";
            return;
        }
        return;
      }

      case InjectDefect::raMapEntry: {
        Section *s = out_.findSection(SectionKind::raMap);
        if (!s || s->bytes.empty())
            return;
        const auto parsed = AddrPairMap::parse(s->bytes);
        icp_assert(parsed, "rewrite wrote a malformed .ra_map");
        if (parsed->empty())
            return;
        auto pairs = parsed->pairs();
        pairs[0].second += 4;
        s->bytes = AddrPairMap(pairs).serialize();
        s->memSize = s->bytes.size();
        m.injectedRule = "addr-map-round-trip";
        return;
      }

      case InjectDefect::dropFde: {
        auto fdes = out_.fdeRecords();
        for (auto it = fdes.begin(); it != fdes.end(); ++it) {
            if (!m.instrumented.count(it->start) ||
                !injectSiteAllowed(it->start))
                continue;
            fdes.erase(it);
            out_.setFdeRecords(fdes);
            m.injectedRule = "eh-frame-cover";
            return;
        }
        return;
      }

      case InjectDefect::funcPtrStale: {
        // Restore a rewritten pointer cell (bytes and relocations)
        // to its original value.
        for (const auto &p : m.funcPtrs) {
            if (p.kind != FuncPtrPatch::Kind::dataCell ||
                !injectSiteAllowed(p.funcEntry))
                continue;
            const auto orig = input_.readValue(p.site, 8);
            if (!orig)
                continue;
            patchFuncPtrCell(out_, *relocs_, p.site, *orig);
            m.injectedRule = "func-ptr-target";
            return;
        }
        return;
      }

      case InjectDefect::depMissing: {
        // Drop one recorded read-set range: the audit's expected
        // recomputation finds bytes the owner reads but never
        // recorded.
        for (auto &[entry, deps] : m.dataDeps) {
            if (deps.empty() || !injectSiteAllowed(entry))
                continue;
            auto ranges = deps.ranges();
            ranges.pop_back();
            deps.setRanges(std::move(ranges));
            m.injectedRule = "datadep-missing";
            return;
        }
        return;
      }

      case InjectDefect::depStale: {
        // Flip one recorded range hash: the range no longer hashes
        // clean against the image it claims to describe.
        for (auto &[entry, deps] : m.dataDeps) {
            if (deps.empty() || !injectSiteAllowed(entry))
                continue;
            auto ranges = deps.ranges();
            ranges.back().hash ^= 1;
            deps.setRanges(std::move(ranges));
            m.injectedRule = "datadep-stale";
            return;
        }
        return;
      }

      case InjectDefect::depOverbroad: {
        // Append a large range the slice never reads, with a
        // *correct* content hash (re-finalized against the input),
        // so only the overbroad audit fires — not stale.
        const Section *blob = nullptr;
        for (const Section &sec : input_.sections) {
            if (!sec.loadable || sec.executable ||
                sec.bytes.empty())
                continue;
            if (!blob || sec.memSize > blob->memSize)
                blob = &sec;
        }
        if (!blob)
            return;
        for (auto &[entry, deps] : m.dataDeps) {
            if (deps.empty() || !injectSiteAllowed(entry))
                continue;
            const std::uint64_t before = deps.totalBytes();
            DataDeps widened;
            for (const DepRange &r : deps.ranges())
                widened.add(r.lo, r.hi);
            widened.add(blob->addr, blob->addr + blob->memSize);
            widened.finalize(input_);
            // Below the audit threshold the defect would go
            // unflagged; keep looking for a smaller owner.
            const std::uint64_t extra =
                widened.totalBytes() - before;
            if (extra <= std::max<std::uint64_t>(64, before))
                continue;
            deps = std::move(widened);
            m.injectedRule = "datadep-overbroad";
            return;
        }
        return;
      }

      case InjectDefect::none:
      case InjectDefect::liveScratch:
      case InjectDefect::tocScratch:
        return;
    }
}

/**
 * Whether the plan and trampoline stages read the same from @p was
 * as from @p now, two builds of one relocated function: block
 * extents (layout order, counter ids, superblocks), jump tables
 * (clones, operand substitutions, protected data), landing pads, the
 * CFL blocks and the dead register at each of them.
 */
bool
Rewriter::samePlan(const Function &was, const Function &now) const
{
    if (was.blocks.size() != now.blocks.size() ||
        was.jumpTables != now.jumpTables ||
        was.landingPads != now.landingPads)
        return false;
    for (std::size_t i = 0; i < was.blocks.size(); ++i) {
        if (was.blocks[i].start != now.blocks[i].start ||
            was.blocks[i].end != now.blocks[i].end)
            return false;
    }
    const std::set<Addr> cfl = cflBlocks(now);
    if (cflBlocks(was) != cfl)
        return false;
    if (arch_.fixedLength) {
        for (Addr start : cfl) {
            if (was.deadRegAt(start) != now.deadRegAt(start))
                return false;
        }
    }
    return true;
}

/**
 * The replay of pass_.previous (RewritePass). When every dirty
 * function is shape-preserving — unchanged in all that the plan,
 * trampoline and pointer stages read from it, and re-emitted at its
 * previous base into exactly its previous slice of the layout — a
 * full pass would reproduce the previous one everywhere but in those
 * functions' own bytes: by induction over entry order, the scratch
 * pool, the counter ids, the clone slots and every other function's
 * products come out the same. The result is then the previous one,
 * moved, with the input's bytes brought up to date and the dirty
 * spans re-emitted into the previous payload. False, with
 * pass_.previous as it was, when any check fails; run() then takes
 * the full pipeline.
 */
bool
Rewriter::replay(const EngineConfig &config)
{
    RewriteResult *prev = pass_.previous;
    if (!prev || !prev->ok || !prev->manifest.populated ||
        !prev->funcPtrIndex ||
        !prev->manifest.injectedRule.empty() || !opts_.lint ||
        opts_.clobberOriginal ||
        opts_.injectDefect != InjectDefect::none ||
        prev->image.sections.size() < input_.sections.size())
        return false;
    // The input's sections lead the previous output, in order.
    for (std::size_t i = 0; i < input_.sections.size(); ++i) {
        const Section &was = prev->image.sections[i];
        const Section &now = input_.sections[i];
        if (was.addr != now.addr || was.bytes.size() != now.bytes.size())
            return false;
    }
    const Section *prev_instr =
        prev->image.findSection(SectionKind::instr);
    if (!prev_instr || prev_instr->addr != instrBase_)
        return false;

    // The dirty functions' plans, against the CFG the previous pass
    // ran on (this one when the input did not change).
    const CfgModule &before = pass_.previousCfg ? *pass_.previousCfg
                                                : *cfg_;
    struct Redo
    {
        const Function *func;
        std::size_t span;
        Addr firstClone;
    };
    std::vector<Redo> redo; // relocated ones, by span
    std::vector<FuncPtrDef> code_defs;
    const RewriteManifest &m = prev->manifest;
    {
        ScopedTimer timer(func_ptr_timer);
        const FuncPtrIndex &index = *prev->funcPtrIndex;
        for (Addr entry : pass_.dirtyFunctions) {
            const Function *now = cfg_->functionAt(entry);
            const Function *was = before.functionAt(entry);
            if (!now || !was || emitted(*now) != emitted(*was) ||
                opts_.forceTrapFunctions.count(now->name))
                return false;
            FunctionPtrs ptrs = index.scan(*now);
            if (ptrs != index.scan(*was))
                return false;
            code_defs.insert(code_defs.end(), ptrs.defs.begin(),
                             ptrs.defs.end());
            if (!emitted(*now))
                continue;
            if (!samePlan(*was, *now))
                return false;
            const auto span = std::find_if(
                m.funcSpans.begin(), m.funcSpans.end(),
                [&](const FuncSpan &s) { return s.entry == entry; });
            if (span == m.funcSpans.end())
                return false;
            const auto clone = std::find_if(
                m.clones.begin(), m.clones.end(),
                [&](const JumpTableClonePatch &c) {
                    return c.funcEntry == entry;
                });
            redo.push_back({now,
                            static_cast<std::size_t>(
                                span - m.funcSpans.begin()),
                            clone == m.clones.end() ? newRodataBase_
                                                    : clone->cloneAddr});
        }
    }
    std::sort(redo.begin(), redo.end(),
              [](const Redo &a, const Redo &b) { return a.span < b.span; });

    Engine engine(input_, config);
    engine.adopt(*prev);
    std::vector<std::vector<std::uint8_t>> emitted_bytes;
    std::vector<std::pair<Addr, Addr>> text_patches; // (at, value)
    const auto spanOf = [&](std::size_t k) -> const FuncSpan & {
        return engine.spans()[redo[k].span];
    };
    {
        ScopedTimer timer(relocation_timer);
        bool same = true;
        for (const Redo &r : redo)
            same = same && engine.relayout(r.span, *r.func, r.firstClone);
        std::string error;
        for (const Redo &r : redo) {
            if (!same)
                break;
            auto bytes = engine.emit(r.span, *r.func, error);
            same = bytes.has_value();
            if (same)
                emitted_bytes.push_back(std::move(*bytes));
        }

        // The dirty functions' code pointer definitions, as
        // rewriteFuncPtrs() writes them: relocated ones into their
        // re-emitted bytes now, the others into .text below.
        for (const FuncPtrDef &def : code_defs) {
            if (!same)
                break;
            if (opts_.mode != RewriteMode::funcPtr && def.delta == 0)
                continue;
            const std::optional<Addr> value = funcPtrTarget(def, engine);
            if (!value)
                continue;
            for (Addr orig : def.defAddrs) {
                const std::optional<Addr> at = engine.lookupInsn(orig);
                if (!at) {
                    text_patches.emplace_back(orig, *value);
                    continue;
                }
                std::size_t k = 0;
                while (k < redo.size() &&
                       (*at < spanOf(k).base ||
                        *at >= spanOf(k).base + spanOf(k).size))
                    ++k;
                same = k < redo.size();
                if (!same)
                    break;
                icp_assert(patchFuncPtrInsn(input_, emitted_bytes[k],
                                            spanOf(k).base, *at, *value),
                           "func-ptr code patch failed at 0x%llx",
                           static_cast<unsigned long long>(*at));
            }
        }
        if (!same) {
            engine.release(*prev);
            return false;
        }
    }

    // Replaying: the previous output, brought up to date. Data
    // sections take the new input's bytes (the loader-visible
    // pointer cells rewritten again); the dirty functions' original
    // code does too, keeping the trampoline bytes inside it.
    BinaryImage out = std::move(prev->image);
    for (std::size_t i = 0; i < input_.sections.size(); ++i) {
        const Section &now = input_.sections[i];
        if (now.kind == SectionKind::rodata ||
            now.kind == SectionKind::data)
            out.sections[i].bytes = now.bytes;
    }
    for (const FuncPtrPatch &p : m.funcPtrs) {
        if (p.kind == FuncPtrPatch::Kind::dataCell)
            out.writeValue(p.site, p.newValue, 8);
    }
    std::vector<std::pair<Addr, Addr>> dirty_code;
    for (Addr entry : pass_.dirtyFunctions) {
        const Function *func = cfg_->functionAt(entry);
        dirty_code.emplace_back(func->entry, func->end);
    }
    const auto inDirtyCode = [&](Addr lo, Addr hi) {
        return std::any_of(dirty_code.begin(), dirty_code.end(),
                           [&](const std::pair<Addr, Addr> &r) {
                               return r.first < hi && lo < r.second;
                           });
    };
    std::vector<std::pair<Addr, std::vector<std::uint8_t>>> kept;
    for (const TrampolinePatch &p : m.trampolines) {
        for (const auto &[at, len] : p.writes) {
            if (!inDirtyCode(at, at + len))
                continue;
            kept.emplace_back(at, std::vector<std::uint8_t>{});
            icp_assert(out.readBytes(at, len, kept.back().second),
                       "trampoline bytes unreadable");
        }
    }
    std::vector<std::uint8_t> code;
    for (const auto &[lo, hi] : dirty_code) {
        icp_assert(input_.readBytes(lo, hi - lo, code) &&
                       out.writeBytes(lo, code),
                   "function code unreadable");
    }
    for (const auto &[at, bytes] : kept)
        out.writeBytes(at, bytes);
    Section *text = out.findSection(SectionKind::text);
    for (const auto &[at, value] : text_patches) {
        icp_assert(patchFuncPtrInsn(input_, text->bytes, text->addr, at,
                                    value),
                   "func-ptr code patch failed at 0x%llx",
                   static_cast<unsigned long long>(at));
    }
    std::vector<std::uint8_t> &payload =
        out.findSection(SectionKind::instr)->bytes;
    for (std::size_t k = 0; k < redo.size(); ++k) {
        std::copy(emitted_bytes[k].begin(), emitted_bytes[k].end(),
                  payload.begin() + static_cast<std::ptrdiff_t>(
                                        spanOf(k).base - instrBase_));
    }

    const auto reused =
        static_cast<unsigned>(engine.spans().size() - redo.size());
    engine.release(*prev);
    result_ = std::move(*prev);
    result_.image = std::move(out);
    for (Addr entry : pass_.dirtyFunctions)
        result_.manifest.dataDeps[entry] = cfg_->functionAt(entry)->dataDeps;
    result_.stats.relocEmittedFunctions =
        static_cast<unsigned>(redo.size());
    result_.stats.relocReusedFunctions = reused;
    result_.replayed = true;
    return true;
}

/** Why this input and configuration cannot run, or empty. */
std::string
rejection(const BinaryImage &input, const RewriteOptions &opts,
          const RewritePass &pass, bool sharded)
{
    const Section *text = input.findSection(SectionKind::text);
    if (!text)
        return "input has no .text section";
    // The relocated code reaches the input's sections pc-relatively
    // (long trampolines, widened address formation, TOC pairs), and
    // .instr goes above them with room for four times .text: that
    // must fit in half the reach, the rest left to .newrodata.
    const ArchInfo &arch = input.archInfo();
    Addr lo = input.highWaterMark(1), hi = lo;
    if (arch.hasToc) {
        lo = std::min(lo, input.tocBase);
        hi = std::max(hi, input.tocBase);
    }
    for (const Section &s : input.sections)
        if (s.loadable)
            lo = std::min(lo, s.addr);
    const std::uint64_t reach = arch.longTrampRange / 2;
    if (hi - lo > reach || text->memSize > reach ||
        hi - lo + 4 * text->memSize + 0x10000 > reach) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "layout beyond pc-relative reach: sections span "
                      "[0x%llx, 0x%llx) and .text is 0x%llx bytes",
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(hi),
                      static_cast<unsigned long long>(text->memSize));
        return msg;
    }
    if (opts.reachabilityPruning && opts.clobberOriginal) {
        return "reachability pruning lets original code execute; it "
               "cannot be combined with clobbering";
    }
    if (!sharded)
        return {};
    if (opts.functionOrder != OrderPolicy::original ||
        opts.blockOrder != OrderPolicy::original)
        return "sharded rewriting requires original layout order";
    if (opts.injectDefect != InjectDefect::none)
        return "sharded rewriting does not support fault injection";
    if (pass.cfg || pass.previous)
        return "sharded rewriting does not take a session pass";
    if (opts.shards > 1 && !opts.cachePath.empty())
        return "sharded rewriting with more than one range analyzes "
               "in memory and takes no cache file";
    return {};
}

/**
 * The rewrite pipeline (§4g of DESIGN.md) over a list of address
 * ranges, in three passes — plan, layout + trampolines, emit — each
 * visiting the ranges in address order. With one range its CFG is
 * built once (or borrowed from the session) and stays resident, and
 * layout keeps every function's assembler stream, so each function
 * is emitted once. With several ranges every pass rebuilds one
 * range's CFG in memory and frees it, so peak memory is O(largest
 * range); the emit pass re-emits each function at its recorded base.
 * Such a run never touches the analysis cache: the in-memory cache
 * keeps every stored Function, which would make memory O(binary)
 * again. The output is appended to .instr of result.image, or
 * streamed to @p sink in section/address order; the bytes are the
 * same either way.
 */
RewriteResult
Rewriter::run(const std::vector<ShardRange> &ranges, SbfSink *sink)
{
    const bool resident = ranges.size() == 1;
    const bool use_cache = opts_.useAnalysisCache && resident;
    if (sink)
        result_.stats.shards.resize(ranges.size());

    const auto buildRange = [&](const ShardRange &r) {
        AnalysisOptions analysis = opts_.analysis;
        analysis.threads = opts_.threads;
        analysis.useCache = use_cache;
        analysis.rangeLo = r.lo;
        analysis.rangeHi = r.hi;
        return buildCfg(input_, analysis);
    };
    if (resident && pass_.cfg) {
        cfg_ = pass_.cfg;
    } else if (resident) {
        ownCfg_ = buildRange(ranges[0]);
        cfg_ = &ownCfg_;
    }
    const auto forEachRange =
        [&](const std::function<void(std::size_t, const CfgModule &)>
                &body) {
            for (std::size_t k = 0; k < ranges.size(); ++k) {
                if (resident)
                    body(k, *cfg_);
                else
                    body(k, buildRange(ranges[k]));
            }
        };

    instrBase_ = input_.highWaterMark(4096);
    // Estimate .instr extent to place .newrodata after it: snippets
    // and veneers expand code; 4x the original text is a safe bound.
    const Section *text = input_.findSection(SectionKind::text);
    icp_assert(text, "input has no .text");
    newRodataBase_ =
        alignUp(instrBase_ + text->memSize * 4 + 0x10000, 4096);

    EngineConfig config;
    config.mode = opts_.mode;
    config.callEmulation = !opts_.raTranslation;
    config.instrumentation = opts_.instrumentation;
    config.blockOrder = opts_.blockOrder;
    config.instrBase = instrBase_;
    config.newRodataBase = newRodataBase_;
    config.goRaTranslation =
        opts_.raTranslation && input_.features.isGo;
    config.threads = opts_.threads;
    if (resident && !sink && cfg_ && replay(config))
        return std::move(result_);

    // Every range's CFG decodes the unmutated input; only the copy
    // is patched.
    out_ = input_;
    relocs_.emplace(input_.relocs);
    Engine engine(input_, config);

    // Selective re-rewrite: hand the engine the previous pass's
    // layout and bytes so only pass_.dirtyFunctions re-emit.
    EngineReuse reuse;
    if (pass_.previous && pass_.previous->ok &&
        pass_.previous->manifest.populated) {
        if (const Section *prev_instr =
                pass_.previous->image.findSection(
                    SectionKind::instr)) {
            reuse.manifest = &pass_.previous->manifest;
            reuse.instrBytes = &prev_instr->bytes;
            reuse.dirty = &pass_.dirtyFunctions;
        }
    }

    // Pass 1 — plan: statistics, the function-pointer scan (every
    // mode: even dir/jt need the displaced pointers of §5.2), and
    // clone/counter planning.
    std::optional<FuncPtrScanner> scanner;
    {
        ScopedTimer timer(func_ptr_timer);
        scanner.emplace(input_);
    }
    std::vector<std::pair<Addr, Addr>> instr_ranges;
    forEachRange([&](std::size_t k, const CfgModule &cfg) {
        const std::vector<const Function *> order = emissionOrder(cfg);
        result_.stats.totalFunctions += cfg.totalFunctions();
        result_.stats.instrumentableFunctions +=
            cfg.instrumentableFunctions();
        result_.stats.instrumentedFunctions +=
            static_cast<unsigned>(order.size());
        if (sink) {
            ShardCounters &sc = result_.stats.shards[k];
            sc.lo = ranges[k].lo;
            sc.hi = ranges[k].hi;
            sc.functions = cfg.totalFunctions();
            sc.instrumented = static_cast<unsigned>(order.size());
            for (const auto &[entry, func] : cfg.functions) {
                sc.blocks += func.blocks.size();
                sc.insns += func.insns.size();
            }
        }
        {
            ScopedTimer timer(func_ptr_timer);
            for (const auto &[entry, func] : cfg.functions)
                scanner->scanFunction(func);
        }
        ScopedTimer timer(relocation_timer);
        engine.plan(order);
        for (const Function *func : order) {
            instrumented_.insert(func->entry);
            instr_ranges.emplace_back(func->entry, func->end);
        }
    });
    result_.funcPtrIndex = scanner->index();
    funcPtrs_ = scanner->take();
    result_.stats.originalLoadedSize = input_.loadedSize();

    // Pass 2 — layout, then the range's trampolines: a function's
    // CFL targets are in the block map once its range is laid out.
    trampolineBegin();
    forEachRange([&](std::size_t, const CfgModule &cfg) {
        {
            ScopedTimer timer(relocation_timer);
            const std::vector<const Function *> order =
                emissionOrder(cfg);
            if (!reuse.valid() || !engine.layoutReused(order, reuse))
                engine.layout(order, resident);
        }
        installTrampolines(cfg, engine);
    });
    {
        ScopedTimer timer(trampoline_timer);
        trampolineFinish();
    }

    const std::uint64_t instr_size = engine.layoutEnd() - instrBase_;
    icp_assert(instrBase_ + instr_size <= newRodataBase_,
               ".instr overflowed its window");
    result_.stats.relocReusedFunctions = engine.reusedFunctions();
    result_.stats.relocEmittedFunctions =
        static_cast<unsigned>(engine.spans().size()) -
        engine.reusedFunctions();

    // Every section but the .instr payload is final before the emit
    // pass: the payload alone stays unmaterialized (full memSize, no
    // bytes) and func-ptr patches that land in it wait for it.
    Section instr;
    instr.name = ".instr";
    instr.kind = SectionKind::instr;
    instr.addr = instrBase_;
    instr.memSize = instr_size;
    instr.executable = true;
    out_.addSection(std::move(instr));

    RewriteResult failed;
    std::optional<std::vector<std::uint8_t>> rodata;
    {
        ScopedTimer timer(relocation_timer);
        rodata = engine.cloneBytes(failed.failReason);
    }
    if (!rodata)
        return failed;
    const std::uint64_t rodata_size = rodata->size();
    if (!rodata->empty()) {
        Section ro;
        ro.name = ".newrodata";
        ro.kind = SectionKind::newRodata;
        ro.addr = newRodataBase_;
        ro.memSize = rodata->size();
        ro.bytes = std::move(*rodata);
        out_.addSection(std::move(ro));
    }

    std::vector<InstrPatch> deferred;
    {
        ScopedTimer timer(func_ptr_timer);
        rewriteFuncPtrs(engine, deferred);
    }
    if (opts_.clobberOriginal)
        clobberOriginal(instr_ranges);
    {
        ScopedTimer timer(output_timer);
        buildSections(instr_size, rodata_size, engine.raPairs());
    }
    // Manifests and fault injection need the resident CFG.
    if (opts_.lint && !sink) {
        fillManifest(engine);
        if (opts_.injectDefect != InjectDefect::none)
            injectByteDefect();
    } else {
        result_.manifest = RewriteManifest{};
    }
    result_.stats.clonedTables = engine.clones().size();
    result_.stats.rewrittenLoadedSize = out_.loadedSize();
    result_.blockCounters = engine.blockCounters();
    result_.entryCounters = engine.entryCounters();

    // Pass 3 — emit each function's final bytes in span (= address)
    // order, apply its func-ptr patches, and hand them with the
    // alignment padding before them to @p put. A function that cannot
    // be encoded at its base (a branch back to original code beyond
    // its reach) stops the pass; its reason is returned, and a sink
    // then holds a partial stream.
    std::stable_sort(deferred.begin(), deferred.end(),
                     [](const InstrPatch &a, const InstrPatch &b) {
                         return a.at < b.at;
                     });
    const auto emitInstr = [&](const std::function<void(
                                   Addr, const std::vector<std::uint8_t> &)>
                                   &put) {
        std::string error;
        auto patch_it = deferred.cbegin();
        std::size_t i = 0;
        Addr cursor = instrBase_;
        forEachRange([&](std::size_t, const CfgModule &cfg) {
            for (const Function *func : emissionOrder(cfg)) {
                if (!error.empty())
                    return;
                const FuncSpan span = engine.spans()[i];
                std::optional<std::vector<std::uint8_t>> emitted;
                {
                    ScopedTimer timer(relocation_timer);
                    emitted = engine.emit(i++, *func, error);
                }
                if (!emitted)
                    return;
                std::vector<std::uint8_t> &bytes = *emitted;
                for (; patch_it != deferred.cend() &&
                       patch_it->at < span.base + span.size;
                     ++patch_it) {
                    icp_assert(patch_it->at >= span.base,
                               "func-ptr patch outside any span");
                    const bool ok = patchFuncPtrInsn(
                        input_, bytes, span.base, patch_it->at,
                        patch_it->newTarget);
                    icp_assert(ok,
                               "func-ptr code patch failed at 0x%llx",
                               static_cast<unsigned long long>(
                                   patch_it->at));
                }
                if (cursor < span.base)
                    put(cursor, engine.paddingBytes(cursor, span.base));
                put(span.base, bytes);
                cursor = span.base + span.size;
            }
        });
        if (error.empty()) {
            icp_assert(cursor == engine.layoutEnd(),
                       "emitted payload diverged from layout");
            icp_assert(patch_it == deferred.cend(),
                       "unapplied func-ptr patches");
        }
        return error;
    };

    std::string emit_error;
    if (sink) {
        SbfStreamWriter writer(*sink);
        writer.beginImage(out_);
        for (const Section &sec : out_.sections) {
            if (sec.kind != SectionKind::instr) {
                writer.writeSection(sec);
                continue;
            }
            writer.beginStreamedSection(sec, instr_size);
            emit_error = emitInstr(
                [&](Addr at, const std::vector<std::uint8_t> &b) {
                    writer.addChunk(at - instrBase_, b.data(), b.size());
                });
            if (!emit_error.empty())
                break;
            writer.endStreamedSection();
        }
        if (emit_error.empty())
            writer.finishImage(out_);
    } else {
        std::vector<std::uint8_t> &payload =
            out_.findSection(SectionKind::instr)->bytes;
        payload.reserve(instr_size);
        emit_error = emitInstr([&](Addr, const std::vector<std::uint8_t> &b) {
            payload.insert(payload.end(), b.begin(), b.end());
        });
        if (emit_error.empty())
            result_.image = std::move(out_);
    }
    if (!emit_error.empty()) {
        failed.failReason = std::move(emit_error);
        return failed;
    }
    result_.ok = true;
    return std::move(result_);
}

/**
 * One rewrite with the on-disk cache around it: merge the file
 * before analysis runs, write it back after a successful rewrite.
 * Both directions are best-effort — a corrupt or unwritable file can
 * only cost analysis reuse, never correctness. A rejected input or
 * configuration fails before the file is touched.
 */
RewriteResult
rewriteWithCache(const BinaryImage &input, const RewriteOptions &options,
                 const RewritePass &pass,
                 const std::vector<ShardRange> &ranges, SbfSink *sink)
{
    // Self time: copying the input, assembling the result, teardown.
    const ScopedTimer timer(rewrite_timer);
    RewriteResult rejected;
    rejected.failReason =
        rejection(input, options, pass, sink != nullptr);
    if (!rejected.failReason.empty())
        return rejected;

    const bool persist =
        !options.cachePath.empty() && options.useAnalysisCache;
    CacheLoadReport cache_load;
    if (persist)
        cache_load = AnalysisCache::global().load(options.cachePath,
                                                  input.arch);

    Rewriter rewriter(input, options, pass);
    RewriteResult result = rewriter.run(ranges, sink);
    result.cacheLoad = std::move(cache_load);

    if (persist && result.ok)
        AnalysisCache::global().save(options.cachePath,
                                     options.cacheMaxBytes);
    return result;
}

} // namespace

RewriteResult
rewriteBinary(const BinaryImage &input, const RewriteOptions &options)
{
    const RewritePass pass;
    return rewriteBinary(input, options, pass);
}

RewriteResult
rewriteBinary(const BinaryImage &input, const RewriteOptions &options,
              const RewritePass &pass)
{
    return rewriteWithCache(input, options, pass,
                            {ShardRange{0, ~static_cast<Addr>(0)}},
                            nullptr);
}

RewriteResult
rewriteBinarySharded(const BinaryImage &input,
                     const RewriteOptions &options, SbfSink &sink)
{
    return rewriteWithCache(input, options, RewritePass{},
                            planShards(input, options.shards), &sink);
}

} // namespace icp
