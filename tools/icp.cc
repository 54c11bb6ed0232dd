/**
 * @file
 * The `icp` command-line tool: compile workload profiles to SBF
 * files, rewrite them with incremental CFG patching, run them in
 * the simulator, and inspect their contents.
 *
 * usage() prints the synopsis of every command; every command that
 * rewrites takes the rewrite options of `icp rewrite`.
 *
 * Profiles: micro, spec0..spec18, libxul, docker, libcuda,
 * chromium, chromium-small, libcommon0..libcommonN (the
 * shared-static-lib corpus for cross-binary cache reuse).
 *
 * `icp deps` dumps each function's recorded data read-set
 * (Function::dataDeps): the byte ranges its jump-table and
 * function-pointer slices read from data sections, with per-range
 * content hashes.
 *
 * `icp lint` rewrites the input in memory and runs the static
 * soundness verifier over the result. Exit codes: 0 when no finding
 * reaches --fail-on (default error), 2 when findings do, 1 on
 * operational errors (unreadable file). `icp lint --diff` rewrites
 * and lints two inputs under the same options and reports the
 * per-function finding regressions/resolutions of the second
 * relative to the first; exit 2 when a regression reaches --fail-on.
 * The first operand may instead be a saved `icp lint --json` report
 * (the CI lint-baseline gate). `--cache-file PATH` persists the
 * AnalysisCache across invocations: it is merged before analysis and
 * delta-saved back after a successful rewrite (concurrent writers
 * merge via the store's advisory lock); `--cache-max-bytes N`
 * compacts the file when a save leaves it larger than N. `icp cache`
 * maintains such files: info (header walk), verify (structural
 * decode of every entry; exit 2 on any issue), compact (deduplicate and
 * optionally evict down to --max-bytes, oldest generations first).
 * `icp rewrite --repair[=N]` (implies --lint) runs the stateful
 * RewriteSession loop — rewrite, lint, selectively re-rewrite the
 * functions owning error findings — up to N (default 2) repair
 * passes, writing the repaired image; exit 0 when the final report
 * is clean at --fail-on, 2 otherwise. `icp rewrite --shards N` runs
 * the sharded streaming rewrite: the function space is split into N
 * contiguous ranges, each analyzed in memory one range at a time,
 * and the output is streamed to disk in address order so peak
 * memory is bounded by one range rather than the whole image.
 * Output bytes are identical for every N. With N > 1 the run uses no
 * analysis cache, so --cache-file is rejected and --no-cache changes
 * nothing. Incompatible with --lint/--repair/--inject (lint the
 * output separately with `icp lint`). Numeric flag values, on every
 * command, are decimal digits only; a sign, a suffix or an
 * out-of-range value is a usage error.
 *
 * `icp serve` runs the hot-session daemon of src/serve/: resident
 * RewriteSessions keyed by binary path behind a Unix-domain socket,
 * so repeated rewrites of an edited binary skip process startup and
 * go through loadInput's overlap-keyed invalidation. `icp client`
 * sends one request (ping, open, rewrite, lint, repair, deps, stats,
 * shutdown) and prints the reply as one greppable `verb: ok k=v ...`
 * line; exit 0 on an ok reply, 2 when a lint reply reaches the
 * fail-on floor, 1 on errors. The client takes every rewrite option
 * of `icp rewrite` and sends it as the wire field named after the
 * flag (`--count-blocks` -> `count_blocks=1`); the daemon applies it
 * through the same setter, so a malformed value is an error on
 * either side, and the options bind when the session opens.
 * SIGTERM/SIGINT drain the daemon gracefully: in-flight requests
 * finish, caches delta-save, and the socket/lock files are removed.
 * SIGKILL leaves them behind, but the flock-held lock file lets a
 * restart detect staleness and rebind.
 */

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <limits.h>

#include "analysis/builder.hh"
#include "analysis/cache.hh"
#include "analysis/cache_store.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "rewrite/session.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/loader.hh"
#include "sim/machine.hh"
#include "support/file_io.hh"
#include "support/stats.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: icp compile <profile> <out.sbf> "
                 "[--arch x64|ppc64le|aarch64] [--pie]\n"
                 "       icp rewrite <in.sbf> <out.sbf> "
                 "[--mode dir|jt|func-ptr] [--clobber]\n"
                 "                   [--count-blocks] "
                 "[--count-entries] [--only f1,f2,...]\n"
                 "                   [--no-placement] "
                 "[--no-multihop] [--call-emulation]\n"
                 "                   [--threads N] [--no-cache] "
                 "[--timing] [--lint] [--fail-on S]\n"
                 "                   [--cache-file PATH] "
                 "[--cache-max-bytes N]\n"
                 "                   [--shards N] "
                 "(N > 1 analyzes in memory: no --cache-file)\n"
                 "                   [--inject DEFECT] "
                 "[--repair[=N]]\n"
                 "       icp lint <in.sbf> [rewrite options] "
                 "[--json] [--fail-on info|warning|error]\n"
                 "                [--inject DEFECT] "
                 "[--timing] [--rules]\n"
                 "       icp lint --diff <a.sbf|baseline.json> "
                 "<b.sbf> [rewrite options] [--json] [--fail-on S]\n"
                 "       icp run <in.sbf> [--gc N]\n"
                 "       icp inspect <in.sbf> [function]\n"
                 "       icp deps <in.sbf> [--json] [--timing] "
                 "[rewrite options]\n"
                 "       icp cache info|verify <file.icpc>\n"
                 "       icp cache compact <file.icpc> "
                 "[--max-bytes N]\n"
                 "       icp serve <socket> [--session-max-bytes N] "
                 "[--max-sessions N]\n"
                 "                 [--timeout-ms N] [--max-pending N] "
                 "[--threads N] [--timing]\n"
                 "       icp client <socket> ping|stats|shutdown\n"
                 "       icp client <socket> open|lint|repair|deps "
                 "<in.sbf> [rewrite options]\n"
                 "       icp client <socket> rewrite <in.sbf> "
                 "<out.sbf> [rewrite options]\n"
                 "                  [--fail-on S] [--iterations N] "
                 "[--timeout-ms N]\n");
    // Exit 1: operational error, distinct from lint's exit-2
    // "findings reached --fail-on" contract.
    return 1;
}

/**
 * Read and validate an SBF file. Malformed containers produce the
 * validator's structured diagnostics on stderr (rule id + message)
 * instead of an abort.
 */
std::optional<BinaryImage>
loadSbf(const char *path)
{
    std::vector<std::uint8_t> raw;
    if (!readFile(path, raw)) {
        std::fprintf(stderr, "cannot read %s\n", path);
        return std::nullopt;
    }
    std::vector<SbfIssue> issues;
    auto img = BinaryImage::tryDeserialize(raw, issues);
    if (!img) {
        for (const SbfIssue &issue : issues)
            std::fprintf(stderr, "%s: [%s] %s (offset %zu)\n", path,
                         issue.rule.c_str(), issue.message.c_str(),
                         issue.offset);
        return std::nullopt;
    }
    return img;
}

/**
 * Parse the rewrite flag at argv[i] into @p opts, advancing i past a
 * separate value; *value (when given) receives that value, null for
 * a switch. Null when argv[i] is no rewrite flag; sets *bad when it
 * is one but malformed.
 */
const RewriteFlag *
parseRewriteFlag(RewriteOptions &opts, int argc, char **argv, int &i,
                 bool *bad, const char **value = nullptr)
{
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const RewriteFlag *flag = nullptr;
    for (const RewriteFlag &f : rewriteFlags())
        if (arg.substr(0, eq) == f.name)
            flag = &f;
    if (!flag)
        return nullptr;
    const char *v = nullptr;
    if (eq != std::string_view::npos)
        v = argv[i] + eq + 1;
    else if (flag->takesValue && i + 1 < argc)
        v = argv[++i];
    if (flag->takesValue != (v != nullptr) || !flag->set(opts, v))
        *bad = true;
    if (value)
        *value = v;
    return flag;
}

int
cmdCompile(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string profile = argv[0];
    const std::string out_path = argv[1];
    Arch arch = Arch::x64;
    bool pie = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--pie") {
            pie = true;
        } else if (arg == "--arch" && i + 1 < argc) {
            const std::string a = argv[++i];
            if (a == "x64")
                arch = Arch::x64;
            else if (a == "ppc64le")
                arch = Arch::ppc64le;
            else if (a == "aarch64")
                arch = Arch::aarch64;
            else
                return usage();
        } else {
            return usage();
        }
    }

    ProgramSpec spec;
    if (profile == "micro") {
        spec = microProfile(arch, pie);
    } else if (profile == "libxul") {
        spec = libxulProfile();
    } else if (profile == "docker") {
        spec = dockerProfile();
    } else if (profile == "libcuda") {
        spec = libcudaProfile();
    } else if (profile == "chromium") {
        spec = chromiumProfile();
    } else if (profile == "chromium-small") {
        spec = chromiumSmallProfile(arch, pie);
    } else if (profile.rfind("libcommon", 0) == 0) {
        // libcommon<K>: the K-th binary of the shared-library
        // corpus (all of them link the same static-lib core at
        // different addresses).
        const unsigned idx = static_cast<unsigned>(
            std::atoi(profile.c_str() + 9));
        const auto corpus =
            libcommonCorpus(arch, std::max(4u, idx + 1));
        if (idx >= corpus.size()) {
            std::fprintf(stderr, "libcommon index out of range\n");
            return 1;
        }
        spec = corpus[idx];
    } else if (profile.rfind("spec", 0) == 0) {
        const unsigned idx =
            static_cast<unsigned>(std::atoi(profile.c_str() + 4));
        const auto suite = specCpuSuite(arch, pie);
        if (idx >= suite.size()) {
            std::fprintf(stderr, "spec index out of range\n");
            return 1;
        }
        spec = suite[idx];
    } else {
        std::fprintf(stderr, "unknown profile %s\n",
                     profile.c_str());
        return 1;
    }

    const BinaryImage img = compileProgram(spec);
    if (!writeFile(out_path, img.serialize())) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("%s: %s %s, %zu functions, %llu bytes loaded\n",
                out_path.c_str(), archName(img.arch),
                img.pie ? "PIE" : "no-PIE",
                img.functionSymbols().size(),
                static_cast<unsigned long long>(img.loadedSize()));
    return 0;
}

void
printRewriteStats(RewriteMode mode, const RewriteStats &stats)
{
    std::printf("mode %s: %u/%u functions, %llu trampolines "
                "(%llu direct, %llu long, %llu multi-hop, %llu "
                "trap), %llu cloned tables, %llu funcptrs, %llu "
                "RA-map entries, size %+.2f%%\n",
                rewriteModeName(mode), stats.instrumentedFunctions,
                stats.totalFunctions,
                static_cast<unsigned long long>(stats.trampolines),
                static_cast<unsigned long long>(stats.directTramps),
                static_cast<unsigned long long>(stats.longTramps),
                static_cast<unsigned long long>(
                    stats.multiHopTramps),
                static_cast<unsigned long long>(stats.trapTramps),
                static_cast<unsigned long long>(stats.clonedTables),
                static_cast<unsigned long long>(
                    stats.rewrittenFuncPtrs),
                static_cast<unsigned long long>(stats.raMapEntries),
                stats.sizeIncrease() * 100.0);
}

void
printCacheStats(const RewriteResult &rw, const std::string &path)
{
    // Cross-invocation reuse report (the CLI process starts with
    // an empty in-memory cache, so the stats are this run's).
    const auto cstats = AnalysisCache::global().stats();
    const std::uint64_t lookups =
        cstats.functionHits + cstats.functionMisses;
    std::printf("analysis cache: %llu/%llu function analyses "
                "reused (%.1f%%), %u entries loaded from %s "
                "(%u dropped)\n",
                static_cast<unsigned long long>(cstats.functionHits),
                static_cast<unsigned long long>(lookups),
                lookups == 0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(cstats.functionHits) /
                          static_cast<double>(lookups),
                rw.cacheLoad.loadedFunctions, path.c_str(),
                rw.cacheLoad.droppedEntries);
}

/** `icp rewrite --shards N`: the range-bounded streaming path. */
int
cmdRewriteSharded(const BinaryImage &img, RewriteOptions &opts,
                  const char *out_path, bool timing)
{
    opts.lint = false;
    std::FILE *f = std::fopen(out_path, "wb");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    FileSink sink(f);
    const RewriteResult rw = rewriteBinarySharded(img, opts, sink);
    const bool flushed = std::fclose(f) == 0;
    if (!rw.ok) {
        std::remove(out_path);
        std::fprintf(stderr, "rewrite failed: %s\n",
                     rw.failReason.c_str());
        return 1;
    }
    if (!sink.ok() || !flushed) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }

    printRewriteStats(opts.mode, rw.stats);
    for (std::size_t k = 0; k < rw.stats.shards.size(); ++k) {
        const ShardCounters &sc = rw.stats.shards[k];
        std::printf("shard %zu: [0x%llx, 0x%llx) %u functions "
                    "(%u instrumented), %llu blocks, %llu insns\n",
                    k, static_cast<unsigned long long>(sc.lo),
                    static_cast<unsigned long long>(sc.hi),
                    sc.functions, sc.instrumented,
                    static_cast<unsigned long long>(sc.blocks),
                    static_cast<unsigned long long>(sc.insns));
    }
    if (timing)
        std::printf("%s", Metrics::global().table().c_str());
    return 0;
}

int
cmdRewrite(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const auto img_opt = loadSbf(argv[0]);
    if (!img_opt)
        return 1;
    const BinaryImage &img = *img_opt;

    RewriteOptions opts = flagDefaultOptions();
    bool timing = false;
    bool lint = false;
    bool repair = false;
    unsigned repair_iters = 2;
    LintOptions lopts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        bool bad = false;
        if (parseRewriteFlag(opts, argc, argv, i, &bad)) {
            if (bad)
                return usage();
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--lint") {
            lint = true;
        } else if (arg == "--repair" ||
                   arg.rfind("--repair=", 0) == 0) {
            repair = true;
            lint = true;
            if (arg != "--repair") {
                bool bad = false;
                repair_iters = static_cast<unsigned>(numberArg(
                    arg.c_str() + std::strlen("--repair="), 1,
                    UINT_MAX, &bad));
                if (bad)
                    return usage();
            }
        } else if (arg == "--fail-on" && i + 1 < argc) {
            const auto sev = parseSeverity(argv[++i]);
            if (!sev)
                return usage();
            lopts.failOn = *sev;
            lint = true;
        } else {
            return usage();
        }
    }

    if (opts.shards > 0) {
        if (lint || repair ||
            opts.injectDefect != InjectDefect::none) {
            std::fprintf(stderr,
                         "--shards is incompatible with --lint, "
                         "--repair, --fail-on, and --inject; lint "
                         "the output with `icp lint` instead\n");
            return 1;
        }
        return cmdRewriteSharded(img, opts, argv[1], timing);
    }
    lopts.threads = opts.threads;
    RewriteSession session(img);
    {
        const RewriteResult &first = session.rewrite(opts);
        if (!first.ok) {
            std::fprintf(stderr, "rewrite failed: %s\n",
                         first.failReason.c_str());
            return 1;
        }
    }
    if (repair) {
        session.lint(lopts);
        const auto outcome = session.repairToFixedPoint(repair_iters);
        std::printf("repair: %u iteration(s), %zu function(s) "
                    "re-rewritten, %zu demoted to trap%s%s\n",
                    outcome.iterations,
                    outcome.repairedFunctions.size(),
                    outcome.demotedFunctions.size(),
                    outcome.fullRewriteFallback
                        ? ", full-rewrite fallback"
                        : "",
                    outcome.converged ? ", converged"
                                      : ", NOT converged");
    }
    const RewriteResult &rw = session.lastResult();
    if (!rw.ok) {
        std::fprintf(stderr, "rewrite failed: %s\n",
                     rw.failReason.c_str());
        return 1;
    }
    if (!writeFile(argv[1], rw.image.serialize())) {
        std::fprintf(stderr, "cannot write %s\n", argv[1]);
        return 1;
    }
    printRewriteStats(opts.mode, rw.stats);
    if (!opts.cachePath.empty())
        printCacheStats(rw, opts.cachePath);
    if (timing)
        std::printf("%s", Metrics::global().table().c_str());
    if (lint) {
        const LintReport &report =
            repair ? session.lastReport() : session.lint(lopts);
        std::printf("%s", report.renderText().c_str());
        if (report.failed(lopts.failOn))
            return 2;
    }
    return 0;
}

/**
 * `icp lint --diff a b.sbf`: rewrite and lint both inputs under the
 * same options, then report b's per-function finding regressions and
 * resolutions relative to a. When a is a saved `icp lint --json`
 * report rather than an SBF image, it is used as the baseline
 * directly — the CI lint-baseline gate.
 */
int
lintDiff(const char *a, const char *b, const RewriteOptions &opts,
         const LintOptions &lopts, bool json)
{
    LintReport baseline_report;
    std::vector<std::uint8_t> baseline_raw;
    if (!readFile(a, baseline_raw)) {
        std::fprintf(stderr, "cannot read %s\n", a);
        return 1;
    }
    std::size_t skip = 0;
    while (skip < baseline_raw.size() &&
           (baseline_raw[skip] == ' ' || baseline_raw[skip] == '\n' ||
            baseline_raw[skip] == '\r' || baseline_raw[skip] == '\t'))
        ++skip;
    if (skip < baseline_raw.size() && baseline_raw[skip] == '{') {
        const std::string text(baseline_raw.begin(),
                               baseline_raw.end());
        const auto parsed = parseLintReportJson(text);
        if (!parsed) {
            std::fprintf(stderr,
                         "%s: not a lint report (expected the "
                         "output of `icp lint --json`)\n",
                         a);
            return 1;
        }
        baseline_report = *parsed;
    } else {
        const auto before_img = loadSbf(a);
        if (!before_img)
            return 1;
        RewriteSession before(*before_img);
        before.rewrite(opts);
        baseline_report = before.lint(lopts);
    }

    const auto after_img = loadSbf(b);
    if (!after_img)
        return 1;
    RewriteSession after(*after_img);
    after.rewrite(opts);
    const LintDiff diff =
        diffReports(baseline_report, after.lint(lopts));
    if (json)
        std::printf("%s\n", diff.renderJson().c_str());
    else
        std::printf("%s", diff.renderText().c_str());
    return diff.hasRegressions(lopts.failOn) ? 2 : 0;
}

int
cmdLint(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    if (std::strcmp(argv[0], "--rules") == 0) {
        for (const LintRuleInfo &r : lintRules())
            std::printf("%-20s %-8s %s\n", r.id,
                        severityName(r.severity), r.summary);
        return 0;
    }
    const bool diff = std::strcmp(argv[0], "--diff") == 0;
    if (diff && argc < 3)
        return usage();

    RewriteOptions opts = flagDefaultOptions();
    opts.lint = true;
    LintOptions lopts;
    bool json = false;
    bool timing = false;
    for (int i = diff ? 3 : 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool bad = false;
        if (parseRewriteFlag(opts, argc, argv, i, &bad)) {
            if (bad)
                return usage();
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--timing" && !diff) {
            timing = true;
        } else if (arg == "--fail-on" && i + 1 < argc) {
            const auto sev = parseSeverity(argv[++i]);
            if (!sev)
                return usage();
            lopts.failOn = *sev;
        } else {
            return usage();
        }
    }
    lopts.threads = opts.threads;
    if (diff)
        return lintDiff(argv[1], argv[2], opts, lopts, json);
    const bool show_injected = opts.injectDefect != InjectDefect::none;

    std::vector<std::uint8_t> raw;
    if (!readFile(argv[0], raw)) {
        std::fprintf(stderr, "cannot read %s\n", argv[0]);
        return 1;
    }
    std::vector<SbfIssue> issues;
    const auto img = BinaryImage::tryDeserialize(raw, issues);
    if (!img) {
        LintReport rep;
        rep.findings = diagnosticsFromSbfIssues(issues);
        std::printf("%s", json ? rep.renderJson().c_str()
                               : rep.renderText().c_str());
        if (json)
            std::printf("\n");
        return rep.failed(lopts.failOn) ? 2 : 0;
    }

    RewriteSession session(*img);
    const RewriteResult &rw = session.rewrite(opts);
    const LintReport &report = session.lint(lopts);
    if (json) {
        std::printf("%s\n", report.renderJson().c_str());
    } else {
        if (show_injected)
            std::printf("injected rule: %s\n",
                        rw.manifest.injectedRule.empty()
                            ? "(none; defect not applicable)"
                            : rw.manifest.injectedRule.c_str());
        std::printf("%s", report.renderText().c_str());
        if (timing)
            std::printf("%s",
                        Metrics::global().table().c_str());
    }
    return report.failed(lopts.failOn) ? 2 : 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    const auto img_opt = loadSbf(argv[0]);
    if (!img_opt)
        return 1;
    const BinaryImage &img = *img_opt;

    Machine::Config cfg;
    for (int i = 1; i < argc; ++i) {
        bool bad = false;
        if (std::strcmp(argv[i], "--gc") == 0 && i + 1 < argc)
            cfg.goGcEveryCalls = numberArg(argv[++i], 0, UINT64_MAX, &bad);
        else
            return usage();
        if (bad)
            return usage();
    }
    if (cfg.goGcEveryCalls == 0 && img.features.isGo)
        cfg.goGcEveryCalls = 64;

    auto proc = loadImage(img);
    RuntimeLib rt(proc->module);
    Machine machine(*proc, cfg);
    if (rt.hasRaMap() || rt.hasTrapMap())
        machine.attachRuntimeLib(&rt);
    const RunResult result = machine.run();
    std::printf("%s\n", result.describe().c_str());
    std::printf("icache: %llu accesses, %llu misses; rt calls %llu; "
                "unwind steps %llu; gc walks %llu\n",
                static_cast<unsigned long long>(
                    result.icacheAccesses),
                static_cast<unsigned long long>(result.icacheMisses),
                static_cast<unsigned long long>(result.rtCalls),
                static_cast<unsigned long long>(result.unwindSteps),
                static_cast<unsigned long long>(result.gcWalks));
    std::uint64_t counted = 0;
    for (std::uint64_t c : result.counters)
        counted += c;
    if (counted > 0) {
        std::printf("instrumentation counters: %llu increments over "
                    "%zu counters\n",
                    static_cast<unsigned long long>(counted),
                    result.counters.size());
    }
    return result.halted ? 0 : 1;
}

int
cmdInspect(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    const auto img_opt = loadSbf(argv[0]);
    if (!img_opt)
        return 1;
    const BinaryImage &img = *img_opt;

    std::printf("%s %s entry=0x%llx loaded=%llu bytes\n",
                archName(img.arch), img.pie ? "PIE" : "no-PIE",
                static_cast<unsigned long long>(img.entry),
                static_cast<unsigned long long>(img.loadedSize()));
    for (const auto &sec : img.sections) {
        std::printf("  %-14s 0x%09llx %9llu %s%s%s\n",
                    sec.name.c_str(),
                    static_cast<unsigned long long>(sec.addr),
                    static_cast<unsigned long long>(sec.memSize),
                    sec.loadable ? "L" : "-",
                    sec.executable ? "X" : "-",
                    sec.writable ? "W" : "-");
    }

    if (argc >= 2) {
        const CfgModule cfg = buildCfg(img, AnalysisOptions{});
        for (const auto &[entry, func] : cfg.functions) {
            if (func.name != argv[1])
                continue;
            std::printf("\n<%s>:\n", func.name.c_str());
            for (const auto &in : func.insns) {
                std::printf("  %08llx  %s\n",
                            static_cast<unsigned long long>(in.addr),
                            in.toString().c_str());
            }
            return 0;
        }
        std::fprintf(stderr, "no function %s\n", argv[1]);
        return 1;
    }
    std::printf("%zu function symbols, %zu runtime relocations\n",
                img.functionSymbols().size(), img.relocs.size());
    return 0;
}

/**
 * `icp deps <in.sbf>`: dump every function's recorded data read-set
 * (text or --json) plus summary stats.
 */
int
cmdDeps(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    const auto img_opt = loadSbf(argv[0]);
    if (!img_opt)
        return 1;
    const BinaryImage &img = *img_opt;

    RewriteOptions opts = flagDefaultOptions();
    bool json = false;
    bool timing = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool bad = false;
        if (parseRewriteFlag(opts, argc, argv, i, &bad)) {
            if (bad)
                return usage();
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--timing") {
            timing = true;
        } else {
            return usage();
        }
    }

    AnalysisOptions aopts = opts.analysis;
    aopts.threads = opts.threads;
    aopts.useCache = opts.useAnalysisCache;
    const CfgModule cfg = buildCfg(img, aopts);

    std::uint64_t with_reads = 0, total_ranges = 0, total_bytes = 0;
    for (const auto &[entry, func] : cfg.functions) {
        (void)entry;
        if (func.dataDeps.empty())
            continue;
        ++with_reads;
        total_ranges += func.dataDeps.size();
        total_bytes += func.dataDeps.totalBytes();
    }

    if (json) {
        std::printf("{\"total_functions\": %u, "
                    "\"functions_with_reads\": %llu, "
                    "\"total_ranges\": %llu, "
                    "\"total_bytes\": %llu,\n \"functions\": [",
                    cfg.totalFunctions(),
                    static_cast<unsigned long long>(with_reads),
                    static_cast<unsigned long long>(total_ranges),
                    static_cast<unsigned long long>(total_bytes));
        bool first_fn = true;
        for (const auto &[entry, func] : cfg.functions) {
            if (func.dataDeps.empty())
                continue;
            std::printf("%s\n  {\"name\": \"%s\", "
                        "\"entry\": \"0x%llx\", \"ranges\": [",
                        first_fn ? "" : ",", func.name.c_str(),
                        static_cast<unsigned long long>(entry));
            first_fn = false;
            bool first_r = true;
            for (const DepRange &r : func.dataDeps.ranges()) {
                std::printf("%s{\"lo\": \"0x%llx\", "
                            "\"hi\": \"0x%llx\", \"bytes\": %llu, "
                            "\"hash\": \"0x%016llx\"}",
                            first_r ? "" : ", ",
                            static_cast<unsigned long long>(r.lo),
                            static_cast<unsigned long long>(r.hi),
                            static_cast<unsigned long long>(r.hi -
                                                            r.lo),
                            static_cast<unsigned long long>(r.hash));
                first_r = false;
            }
            std::printf("]}");
        }
        std::printf("\n]}\n");
    } else {
        std::printf("deps: %u functions, %llu with data reads, "
                    "%llu ranges, %llu bytes\n",
                    cfg.totalFunctions(),
                    static_cast<unsigned long long>(with_reads),
                    static_cast<unsigned long long>(total_ranges),
                    static_cast<unsigned long long>(total_bytes));
        for (const auto &[entry, func] : cfg.functions) {
            if (func.dataDeps.empty())
                continue;
            std::printf("  %s entry=0x%llx: %zu range%s, %llu "
                        "bytes\n",
                        func.name.c_str(),
                        static_cast<unsigned long long>(entry),
                        func.dataDeps.size(),
                        func.dataDeps.size() == 1 ? "" : "s",
                        static_cast<unsigned long long>(
                            func.dataDeps.totalBytes()));
            for (const DepRange &r : func.dataDeps.ranges())
                std::printf("    [0x%llx, 0x%llx) %llu bytes "
                            "hash=0x%016llx\n",
                            static_cast<unsigned long long>(r.lo),
                            static_cast<unsigned long long>(r.hi),
                            static_cast<unsigned long long>(r.hi -
                                                            r.lo),
                            static_cast<unsigned long long>(r.hash));
        }
    }
    if (timing && !json)
        std::printf("%s", Metrics::global().table().c_str());
    return 0;
}

void
printCacheIssues(const std::vector<CacheFileIssue> &issues)
{
    for (const CacheFileIssue &issue : issues)
        std::fprintf(stderr, "[%s] %s (offset %zu)\n",
                     issue.rule.c_str(), issue.message.c_str(),
                     issue.offset);
}

/**
 * `icp cache info|verify|compact <file.icpc>`: maintenance of the
 * on-disk analysis cache. info walks the segment indexes (per-ISA
 * counts come from their bounds); verify decodes every payload's
 * structure (a record's instructions are checked against the code
 * bytes when a lookup decodes it);
 * compact rewrites the file as one deduplicated sorted segment,
 * optionally under a --max-bytes cap (the manual form of
 * --cache-max-bytes).
 */
int
cmdCache(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string action = argv[0];
    const std::string path = argv[1];

    if (action == "info") {
        const CacheFileInfo info = inspectCacheFile(path);
        if (!info.fileRead) {
            std::fprintf(stderr, "cannot read %s\n", path.c_str());
            return 1;
        }
        std::printf(
            "%s: v%u, %llu bytes, %u segment%s (generation %llu)\n"
            "  function:      %u entries, %llu payload bytes\n"
            "  sharing: %u total entries, %u distinct keys, "
            "%u distinct payloads\n",
            path.c_str(), info.version,
            static_cast<unsigned long long>(info.fileBytes),
            info.segments, info.segments == 1 ? "" : "s",
            static_cast<unsigned long long>(info.generation),
            info.functionEntries,
            static_cast<unsigned long long>(
                info.functionPayloadBytes),
            info.functionEntries, info.distinctKeys,
            info.distinctPayloads);
        std::printf("  per ISA:");
        for (Arch arch : all_arches)
            std::printf(" %s %u", archName(arch),
                        info.archEntries[static_cast<unsigned>(arch)]);
        std::printf("\n");
        printCacheIssues(info.issues);
        return info.issues.empty() ? 0 : 2;
    }

    if (action == "verify") {
        const CacheLoadReport rep = verifyCacheFile(path);
        if (!rep.fileRead) {
            std::fprintf(stderr, "cannot read %s\n", path.c_str());
            return 1;
        }
        std::printf("%s: %u entries verified, %u dropped\n",
                    path.c_str(), rep.loadedFunctions,
                    rep.droppedEntries);
        printCacheIssues(rep.issues);
        return rep.clean() ? 0 : 2;
    }

    if (action == "compact") {
        std::uint64_t max_bytes = 0;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            bool bad = false;
            if (arg == "--max-bytes" && i + 1 < argc)
                max_bytes = numberArg(argv[++i], 0, UINT64_MAX, &bad);
            else if (arg.rfind("--max-bytes=", 0) == 0)
                max_bytes = numberArg(
                    arg.c_str() + std::strlen("--max-bytes="), 0,
                    UINT64_MAX, &bad);
            else
                return usage();
            if (bad)
                return usage();
        }
        CacheCompactionResult result;
        if (!compactCacheFile(path, max_bytes, result)) {
            std::fprintf(stderr, "cannot compact %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("%s: %llu -> %llu bytes; %u entries kept, "
                    "%u evicted\n",
                    path.c_str(),
                    static_cast<unsigned long long>(
                        result.bytesBefore),
                    static_cast<unsigned long long>(
                        result.bytesAfter),
                    result.entriesKept, result.entriesEvicted);
        return 0;
    }
    return usage();
}

std::string
absolutePath(const std::string &path)
{
    std::error_code ec;
    const std::filesystem::path abs = std::filesystem::absolute(path, ec);
    return ec ? path : abs.string();
}

ServeServer *g_serve_server = nullptr;

void
serveSignalHandler(int)
{
    // requestDrain is async-signal-safe: an atomic store plus a
    // self-pipe write.
    if (g_serve_server != nullptr)
        g_serve_server->requestDrain();
}

/** `icp serve <socket>`: run the hot-session daemon until drained. */
int
cmdServe(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    ServeOptions sopts;
    sopts.socketPath = argv[0];
    bool timing = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool bad = false;
        if (arg == "--session-max-bytes" && i + 1 < argc) {
            sopts.sessionMaxBytes =
                numberArg(argv[++i], 1, UINT64_MAX, &bad);
        } else if (arg == "--max-sessions" && i + 1 < argc) {
            sopts.maxSessions = static_cast<unsigned>(
                numberArg(argv[++i], 1, UINT_MAX, &bad));
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            sopts.requestTimeoutMs = static_cast<int>(
                numberArg(argv[++i], 0, INT_MAX, &bad));
        } else if (arg == "--max-pending" && i + 1 < argc) {
            sopts.maxPending = static_cast<unsigned>(
                numberArg(argv[++i], 1, UINT_MAX, &bad));
        } else if (arg == "--threads" && i + 1 < argc) {
            sopts.threads = static_cast<unsigned>(
                numberArg(argv[++i], 0, UINT_MAX, &bad));
        } else if (arg == "--timing") {
            timing = true;
        } else {
            return usage();
        }
        if (bad)
            return usage();
    }

    ServeServer server(sopts);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "icp serve: %s\n", error.c_str());
        return 1;
    }

    g_serve_server = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = serveSignalHandler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("icp serve: listening on %s\n",
                sopts.socketPath.c_str());
    std::fflush(stdout);
    const int rc = server.run();
    g_serve_server = nullptr;

    const ServeStatsSnapshot snap = server.statsSnapshot();
    std::printf("icp serve: drained:");
    for (const auto &[name, value] : server.metrics().counters())
        std::printf(" %s=%llu", name.c_str(),
                    static_cast<unsigned long long>(value));
    std::printf(", p50 %.3f ms, p99 %.3f ms\n", snap.p50Ms,
                snap.p99Ms);
    if (timing)
        std::printf("%s%s", Metrics::global().table().c_str(),
                    server.metrics().table().c_str());
    return rc;
}

/**
 * `icp client <socket> <verb> ...`: one request round trip. The
 * reply is printed as a single greppable `verb: ok k=v ...` line.
 * Exit 0 on an ok reply, 2 when a lint reply reaches the fail-on
 * floor, 1 on connection/protocol/server errors.
 */
int
cmdClient(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string socket_path = argv[0];
    ServeMessage request;
    request.verb = argv[1];
    int timeout_ms = 30000;

    int i = 2;
    if (request.verb == "open" || request.verb == "lint" ||
        request.verb == "repair" || request.verb == "deps") {
        if (i >= argc)
            return usage();
        // The daemon resolves paths in its own cwd; absolutize so
        // the client's cwd is what counts.
        request.set("path", absolutePath(argv[i++]));
    } else if (request.verb == "rewrite") {
        if (i + 1 >= argc)
            return usage();
        request.set("path", absolutePath(argv[i++]));
        request.set("out", absolutePath(argv[i++]));
    } else if (request.verb != "ping" && request.verb != "stats" &&
               request.verb != "shutdown") {
        return usage();
    }

    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        RewriteOptions checked; // the daemon applies the field again
        const char *value = nullptr;
        bool bad = false;
        if (const RewriteFlag *flag = parseRewriteFlag(
                checked, argc, argv, i, &bad, &value)) {
            if (bad)
                return usage();
            std::string field_value = value ? value : "1";
            if (std::strcmp(flag->name, "--cache-file") == 0)
                field_value = absolutePath(field_value);
            request.set(flag->field(), field_value);
        } else if (arg == "--fail-on" && i + 1 < argc) {
            request.set("fail_on", argv[++i]);
        } else if (arg == "--iterations" && i + 1 < argc) {
            request.set("iterations", argv[++i]);
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            timeout_ms = static_cast<int>(
                numberArg(argv[++i], 0, INT_MAX, &bad));
            if (bad)
                return usage();
        } else {
            return usage();
        }
    }

    ServeMessage reply;
    std::string error;
    if (!serveCall(socket_path, request, reply, error, timeout_ms)) {
        std::fprintf(stderr, "icp client: %s\n", error.c_str());
        return 1;
    }
    if (reply.verb != "ok") {
        std::fprintf(stderr, "icp client: %s failed [%s] %s\n",
                     request.verb.c_str(),
                     reply.get("code", "?").c_str(),
                     reply.get("error", "").c_str());
        return 1;
    }
    std::string line = request.verb + ": ok";
    for (const auto &[key, value] : reply.fields) {
        line += " ";
        line += key;
        line += "=";
        line += value;
    }
    std::printf("%s\n", line.c_str());
    if (request.verb == "lint" && reply.getU64("fail") != 0)
        return 2;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    // --timing's wall clock starts here, before any input is read.
    Metrics::global().reset();
    const std::string cmd = argv[1];
    if (cmd == "compile")
        return cmdCompile(argc - 2, argv + 2);
    if (cmd == "rewrite")
        return cmdRewrite(argc - 2, argv + 2);
    if (cmd == "lint")
        return cmdLint(argc - 2, argv + 2);
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2);
    if (cmd == "inspect")
        return cmdInspect(argc - 2, argv + 2);
    if (cmd == "deps")
        return cmdDeps(argc - 2, argv + 2);
    if (cmd == "cache")
        return cmdCache(argc - 2, argv + 2);
    if (cmd == "serve")
        return cmdServe(argc - 2, argv + 2);
    if (cmd == "client")
        return cmdClient(argc - 2, argv + 2);
    return usage();
}
