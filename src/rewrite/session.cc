#include "rewrite/session.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/builder.hh"
#include "analysis/cache.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace icp
{

namespace
{

const Timer diff_timer = Metrics::global().timer("session.diff");

/**
 * Analysis settings that change the shape of the built CFG. Thread
 * count and cache use are excluded: results are bit-identical for
 * every value, so a cached CFG stays valid across them.
 */
bool
sameCfgShape(const AnalysisOptions &a, const AnalysisOptions &b)
{
    return a.tailCallHeuristic == b.tailCallHeuristic &&
           a.inject.failProb == b.inject.failProb &&
           a.inject.overProb == b.inject.overProb &&
           a.inject.underProb == b.inject.underProb &&
           a.inject.overExtra == b.inject.overExtra &&
           a.inject.underCut == b.inject.underCut &&
           a.inject.seed == b.inject.seed;
}

/**
 * The first index in [i, n) where @p a and @p b differ, or n. Equal
 * blocks are skipped with memcmp, which is many times faster than a
 * byte-wise std::mismatch; std::mismatch then finds the byte.
 */
std::size_t
firstDiff(const std::uint8_t *a, const std::uint8_t *b, std::size_t i,
          std::size_t n)
{
    constexpr std::size_t block = 256;
    while (n - i >= block && std::memcmp(a + i, b + i, block) == 0)
        i += block;
    return static_cast<std::size_t>(
        std::mismatch(a + i, a + n, b + i).first - a);
}

/**
 * The changed byte runs [lo, hi) between two equal-sized sections,
 * as addresses in ascending order.
 */
std::vector<std::pair<Addr, Addr>>
changedRuns(const Section &os, const Section &ns)
{
    std::vector<std::pair<Addr, Addr>> runs;
    const std::uint8_t *a = os.bytes.data();
    const std::uint8_t *b = ns.bytes.data();
    const std::size_t n = os.bytes.size();
    for (std::size_t i = firstDiff(a, b, 0, n); i < n;
         i = firstDiff(a, b, i, n)) {
        const std::size_t lo = i;
        i = static_cast<std::size_t>(
            std::mismatch(a + i, a + n, b + i, std::not_equal_to<>())
                .first -
            a);
        runs.emplace_back(os.addr + lo, os.addr + i);
    }
    return runs;
}

/**
 * Mark every function span in @p funcs (address-sorted) that
 * overlaps [lo, hi) dirty. @p reach holds the running maximum of
 * the spans' ends, which stays sorted even where spans nest, so a
 * binary search finds the first span that can reach @p lo. False
 * when a byte of the run lies outside every span (padding, scratch
 * space): the change is not attributable to a function.
 */
bool
attributeCodeRun(const std::vector<const Symbol *> &funcs,
                 const std::vector<Addr> &reach, Addr lo, Addr hi,
                 std::set<Addr> &dirty, std::set<std::string> &names)
{
    const auto first =
        std::upper_bound(reach.begin(), reach.end(), lo) - reach.begin();
    Addr covered = lo;
    for (auto i = static_cast<std::size_t>(first);
         i < funcs.size() && funcs[i]->addr < hi; ++i) {
        const Symbol &sym = *funcs[i];
        if (sym.size == 0 || sym.addr + sym.size <= lo)
            continue; // empty, or nested inside an earlier span
        if (sym.addr > covered)
            return false;
        covered = std::max(covered, sym.addr + sym.size);
        dirty.insert(sym.addr);
        names.insert(sym.name);
    }
    return covered >= hi;
}

/**
 * Whether two images agree in everything but section contents: the
 * header, the symbol, relocation and link-relocation lists, and the
 * number of sections (whose headers loadInput compares one by one).
 */
bool
sameMetadata(const BinaryImage &a, const BinaryImage &b)
{
    return a.arch == b.arch && a.pie == b.pie &&
           a.prefBase == b.prefBase && a.entry == b.entry &&
           a.tocBase == b.tocBase && a.soname == b.soname &&
           a.features == b.features &&
           a.sections.size() == b.sections.size() &&
           a.symbols == b.symbols && a.relocs == b.relocs &&
           a.linkRelocs == b.linkRelocs;
}

} // namespace

RewriteSession::LoadOutcome
RewriteSession::loadInput(BinaryImage newImage)
{
    LoadOutcome out;

    std::set<Addr> dirty;
    std::vector<std::pair<Addr, Addr>> dataRuns; // changed data bytes
    std::vector<const Symbol *> olds;
    bool comparable = false;
    {
        const ScopedTimer timer(diff_timer);
        // Diffable only against a completed rewrite of a same-shaped
        // binary: same header, section layout, symbols and relocations.
        comparable = hasResult_ && result_.ok && cfgBuilt_ &&
                     sameMetadata(newImage, *input_);
        std::vector<Addr> reach; // running max of function span ends
        if (comparable) {
            olds = input_->functionSymbols();
            for (const Symbol *sym : olds)
                reach.push_back(std::max(reach.empty() ? 0 : reach.back(),
                                         sym->addr + sym->size));
        }
        for (std::size_t i = 0;
             comparable && i < input_->sections.size(); ++i) {
            const Section &os = input_->sections[i];
            const Section &ns = newImage.sections[i];
            if (os.name != ns.name || os.kind != ns.kind ||
                os.addr != ns.addr || os.memSize != ns.memSize ||
                os.bytes.size() != ns.bytes.size() ||
                os.loadable != ns.loadable ||
                os.executable != ns.executable ||
                os.writable != ns.writable) {
                comparable = false; // layout changed
                break;
            }
            const auto runs = changedRuns(os, ns);
            if (runs.empty())
                continue;
            if (os.executable) {
                // A code edit dirties the functions it lands in.
                for (const auto &[lo, hi] : runs)
                    comparable = comparable &&
                                 attributeCodeRun(olds, reach, lo, hi,
                                                  dirty, out.dirtyNames);
                continue;
            }
            // A data edit dirties the functions whose recorded
            // read-sets (Function::dataDeps) stop validating, below.
            // That is sound only when analysis reads data through
            // recorded slices:
            //  - non-PIE images word-scan all of .data/.rodata for
            //    function pointers (unrecorded reads), and
            //  - structural sections (.rela.dyn, .dynsym, .eh_frame,
            //    ...) feed whole-image analyses;
            // both fall back to a full reset, as does a session without
            // a manifest to splice from.
            comparable = input_->pie && result_.manifest.populated &&
                         (os.kind == SectionKind::rodata ||
                          os.kind == SectionKind::data);
            dataRuns.insert(dataRuns.end(), runs.begin(), runs.end());
        }

        // Edits under donated scratch ranges, relocation slots or
        // rewritten function-pointer cells interact with emitted
        // artifacts in ways the splice below cannot reproduce; reset
        // conservatively.
        auto edited = [&](Addr lo, Addr hi) {
            for (const auto &[dlo, dhi] : dataRuns)
                if (dlo < hi && lo < dhi)
                    return true;
            return false;
        };
        if (comparable && !dataRuns.empty()) {
            for (const auto &[addr, len] : result_.manifest.scratchRanges)
                comparable = comparable && !edited(addr, addr + len);
            // A relocation slot is 8 bytes: one starting up to 7
            // bytes before a run still overlaps it.
            const RelocIndex relocs(input_->relocs);
            for (const auto &[lo, hi] : dataRuns)
                comparable = comparable &&
                             relocs.in(lo < 7 ? 0 : lo - 7, hi).empty();
            for (const FuncPtrPatch &p : result_.manifest.funcPtrs)
                if (p.kind == FuncPtrPatch::Kind::dataCell)
                    comparable = comparable && !edited(p.site, p.site + 8);
        }

        // One test for a clean function, the one a cache hit passes:
        // every data byte its analysis read still hashes the same.
        if (comparable) {
            for (const auto &[entry, func] : cfg_.functions) {
                if (!func.dataDeps.validate(newImage)) {
                    dirty.insert(entry);
                    out.dirtyNames.insert(func.name);
                }
            }
        }
    }
    if (comparable)
        out.unchangedFunctions =
            static_cast<unsigned>(olds.size() - dirty.size());

    // Adopt the new image; the old CFG described the old bytes, and
    // stays alive for the pass to judge the dirty functions against.
    owned_ = std::move(newImage);
    input_ = &owned_;
    cfgBuilt_ = false;
    const CfgModule previous = std::move(cfg_);

    if (!comparable) {
        // Unrelated input: behave like a fresh session.
        result_ = RewriteResult{};
        hasResult_ = false;
        dropReport();
        failCounts_.clear();
        out.dirtyNames.clear();
        return out;
    }

    // Rebuild the CFG on the new bytes: the clean functions are the
    // previous module's, shared; only the dirty ones re-analyze.
    const CacheLoadReport cache_load = mergeDiskCache();
    ensureCfg(CfgReuse{&previous, &dirty});

    // Re-rewrite: a replay of the previous pass when every dirty
    // function kept its shape (none at all after a data edit that no
    // analysis read), else the selective re-rewrite that re-emits
    // only the dirty functions. result_ stays alive during the call;
    // a replay moves its contents into the new result.
    RewritePass pass;
    pass.cfg = &cfg_;
    pass.previous = &result_;
    pass.previousCfg = &previous;
    pass.dirtyFunctions = dirty;
    runPass(pass, cache_load);
    out.incremental = true;
    out.replayed = result_.replayed;
    out.dirtyFunctions = std::move(dirty);
    return out;
}

CacheLoadReport
RewriteSession::mergeDiskCache()
{
    if (opts_.cachePath.empty() || !opts_.useAnalysisCache)
        return CacheLoadReport{};
    return AnalysisCache::global().load(opts_.cachePath,
                                        input_->arch);
}

void
RewriteSession::runPass(const RewritePass &pass,
                        CacheLoadReport cache_load)
{
    RewriteOptions inner = opts_;
    inner.cachePath.clear(); // persistence handled here
    RewriteResult next = rewriteBinary(*input_, inner, pass);
    next.cacheLoad = std::move(cache_load);
    if (next.ok && !opts_.cachePath.empty() && opts_.useAnalysisCache)
        AnalysisCache::global().save(opts_.cachePath,
                                     opts_.cacheMaxBytes);

    // The last report stays mergeable across a pass over the
    // previous result: a replay changed exactly the dirty functions
    // (it moved the previous result into this one); a re-run may
    // also have changed another function's records. Any other pass
    // starts over.
    if (!next.ok || !pass.previous) {
        dropReport();
    } else {
        stale_.insert(pass.dirtyFunctions.begin(),
                      pass.dirtyFunctions.end());
        if (!next.replayed) {
            const std::set<Addr> changed =
                changedFunctions(result_.manifest, next.manifest);
            stale_.insert(changed.begin(), changed.end());
            mapsKept_ = false;
        }
        reportCurrent_ = false;
    }
    // Moved only now: the pass may borrow the previous result.
    result_ = std::move(next);
    hasResult_ = true;
}

void
RewriteSession::dropReport()
{
    report_ = LintReport{};
    hasReport_ = false;
    reportCurrent_ = false;
    stale_.clear();
    mapsKept_ = false;
}

void
RewriteSession::lintResult()
{
    LintOptions effective = lintOpts_;
    effective.originalCfg = &cfg_;
    if (hasReport_ && mapsKept_)
        effective.mapOrder = report_.mapOrder;
    if (hasReport_)
        report_ = relint(*input_, result_, report_, stale_, effective);
    else
        report_ = lintRewrite(*input_, result_, effective);
    hasReport_ = true;
    reportCurrent_ = true;
    stale_.clear();
    mapsKept_ = true;
}

void
RewriteSession::ensureCfg(const CfgReuse &reuse)
{
    AnalysisOptions aopts = opts_.analysis;
    aopts.threads = opts_.threads;
    aopts.useCache = opts_.useAnalysisCache;
    if (cfgBuilt_ && sameCfgShape(aopts, cfgOpts_)) {
        cfgOpts_ = aopts;
        return;
    }
    cfg_ = buildCfg(*input_, aopts, reuse);
    cfgBuilt_ = true;
    cfgOpts_ = aopts;
}

const CfgModule &
RewriteSession::analyze()
{
    ensureCfg();
    return cfg_;
}

RewriteResult &
RewriteSession::rewrite(const RewriteOptions &options)
{
    opts_ = options;
    // Merge the on-disk cache before the CFG build — the session
    // analyzes during ensureCfg(), so loading inside rewriteBinary
    // (as the one-shot path does) would come too late to seed it.
    const CacheLoadReport cache_load = mergeDiskCache();
    ensureCfg();

    RewritePass pass;
    pass.cfg = &cfg_;
    runPass(pass, cache_load); // drops the report: a fresh pass

    // A fresh rewrite also resets the repair history: the functions
    // start with a clean slate.
    failCounts_.clear();
    return result_;
}

LintReport &
RewriteSession::lint(const LintOptions &options)
{
    icp_assert(hasResult_, "RewriteSession::lint() before rewrite()");
    ensureCfg();
    // The previous report merges only under the same scope.
    if (options.onlyRules != lintOpts_.onlyRules ||
        options.onlyFunctions != lintOpts_.onlyFunctions)
        dropReport();
    lintOpts_ = options;
    lintResult();
    return report_;
}

RewriteSession::RepairOutcome
RewriteSession::repair(const LintReport &report,
                       const RepairPolicy &policy)
{
    icp_assert(hasResult_, "RewriteSession::repair() before rewrite()");
    icp_assert(reportCurrent_, "RewriteSession::repair() before lint()");

    RepairOutcome out;

    // Attribute every error finding to its owning function.
    std::set<std::string> names;
    bool unattributed = false;
    for (const Diagnostic &d : report.findings) {
        if (d.severity < Severity::error)
            continue;
        if (d.function.empty())
            unattributed = true;
        else
            names.insert(d.function);
    }
    if (names.empty() && !unattributed) {
        out.converged = !report_.failed(lintOpts_.failOn);
        return out;
    }

    out.iterations = 1;
    out.repairedFunctions = names;

    // Second failed targeted attempt -> demote to trap trampolines.
    for (const std::string &name : names) {
        const unsigned fails = ++failCounts_[name];
        if (fails >= 2) {
            opts_.forceTrapFunctions.insert(name);
            out.demotedFunctions.insert(name);
        }
    }
    if (policy.clearInjectedDefect)
        opts_.injectDefect = InjectDefect::none;

    // Map names back to CFG entries; a name that resolves to no
    // entry (stripped or renamed) forces the full fallback.
    std::set<Addr> dirty;
    std::set<std::string> resolved;
    for (const auto &[entry, func] : cfg_.functions) {
        if (names.count(func.name)) {
            dirty.insert(entry);
            resolved.insert(func.name);
        }
    }
    const bool selective =
        !unattributed && resolved.size() == names.size();
    out.fullRewriteFallback = !selective;

    RewritePass pass;
    pass.cfg = &cfg_;
    if (selective) {
        pass.previous = &result_;
        pass.dirtyFunctions = dirty;
    }
    // The cache file was merged when the session rewrote; keep that
    // report rather than mapping the file again.
    runPass(pass, result_.cacheLoad);

    // A selective pass kept the report mergeable: the re-lint checks
    // only what the pass changed, plus the image-global rules; the
    // fallback re-lints in full.
    lintResult();

    out.converged = !report_.failed(lintOpts_.failOn);
    return out;
}

RewriteSession::RepairOutcome
RewriteSession::repairToFixedPoint(unsigned max_iterations,
                                   const RepairPolicy &policy)
{
    icp_assert(hasResult_,
               "RewriteSession::repairToFixedPoint() before rewrite()");
    if (!reportCurrent_)
        lint(lintOpts_);

    RepairOutcome total;
    while (total.iterations < max_iterations) {
        if (!report_.failed(lintOpts_.failOn)) {
            total.converged = true;
            return total;
        }
        RepairOutcome step = repair(report_, policy);
        total.iterations += step.iterations;
        total.repairedFunctions.insert(step.repairedFunctions.begin(),
                                       step.repairedFunctions.end());
        total.demotedFunctions.insert(step.demotedFunctions.begin(),
                                      step.demotedFunctions.end());
        total.fullRewriteFallback |= step.fullRewriteFallback;
        if (step.iterations == 0)
            break; // nothing attributable left to repair
    }
    total.converged = !report_.failed(lintOpts_.failOn);
    return total;
}

} // namespace icp
