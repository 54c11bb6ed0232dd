/**
 * @file
 * The repository benchmark. One process runs one workload for one
 * seed and prints, as its last stdout line, a JSON object with the
 * keys correct / attempted / failed / metrics. Workloads:
 *
 *  - cold_fleet: CI jobs rewriting binaries they have never seen. One
 *    op = read input, decode, buildCfg, rewriteBinary, lintRewrite,
 *    serialize, write output, with an empty in-memory cache and no
 *    cache file.
 *  - warm_fleet: the same job rerun against a shared cache file
 *    primed from every input's previous build (a one-function edit)
 *    plus libcommon0 only, so libcommon1..3 take cross-binary rebased
 *    hits. The primed file is restored before every op.
 *  - serve_edit: a developer's edit loop against an `icp serve`
 *    daemon (a child process): one-function edit rewrites, lints of
 *    the resident session, and rewrites of unchanged files answered
 *    from the stored output, in a seeded order.
 *
 * Every op is checked (ok, zero lint errors, output digest equal to a
 * cold rewrite of the same bytes with the cache off); a failed op is
 * counted, never fatal. Runs are whole passes over the seeded op
 * sequence. With --trace 1 every second pass records spans around
 * the calls into each src/ module and the run reports per-layer
 * metrics instead of end-to-end ones. NOTES.md has the design.
 *
 * Usage: icpbench --workload W --seed N --seconds S --trace 0|1
 *                 --work DIR [--plan]
 *        icpbench --daemon SOCKET   (the serve_edit daemon process)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/builder.hh"
#include "analysis/cache.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "harness/experiment.hh"
#include "rewrite/rewriter.hh"
#include "rewrite/session.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/stats.hh"
#include "trace.hh"
#include "verify/lint.hh"

extern char **environ;

using namespace icp;
using icpbench::OpBreakdown;
using icpbench::Span;
using icpbench::Tracer;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- seeded draws ---------------------------------------------------

/** splitmix64: the same seed gives the same draws on every platform. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
    bool coin() { return next() & 1; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(static_cast<unsigned>(i))]);
    }
};

// ---- host speed probe -----------------------------------------------

/** The probe's time on an idle host; scaled times are relative to it. */
constexpr double kProbeRefMs = 1.0;

/**
 * Time a fixed piece of work that no src/ code takes part in: 250k
 * random reads and writes over a 4 MB array allocated once, after an
 * untimed round of the same that brings the array into the cache.
 * The shared host slows cache-bound code by up to ~1.7x, in phases
 * from under a second to minutes, and slows this probe in step with
 * the rewriter. Each op runs between two probes, and its samples are
 * scaled by kProbeRefMs over the quicker one: ms at the speed of an
 * idle host. A change to the program does not move the probe.
 *
 * Without the untimed round the probe ran faster after a short op,
 * which had left more of the array cached, and over-scaled the short
 * ops. Probes that allocate depend on the heap the workload leaves
 * behind, so on the seed.
 */
double
probeHostMs()
{
    static std::vector<std::uint64_t> cells(std::size_t{1} << 19);
    const std::uint64_t mask = cells.size() - 1;
    std::uint64_t x = 1, acc = 0;
    auto round = [&] {
        for (unsigned i = 0; i < 250000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            acc += cells[(x >> 20) & mask];
            cells[(x >> 30) & mask] += acc;
        }
    };
    round();
    const auto t0 = Clock::now();
    round();
    const double ms = msBetween(t0, Clock::now());
    volatile std::uint64_t sink = acc;
    (void)sink;
    return ms;
}

// ---- small helpers --------------------------------------------------

bool
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

bool
readFile(const std::string &path, std::vector<std::uint8_t> &bytes)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return false;
    bytes.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(in);
}

std::uint64_t
digest(const std::vector<std::uint8_t> &bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

double
percentile(const std::vector<double> &v, double p)
{
    SampleStats s;
    for (double x : v)
        s.add(x);
    return s.empty() ? 0.0 : s.percentile(p);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** A field of /proc/<pid>/status in kB (0 when unreadable). */
double
procStatusKb(pid_t pid, const char *field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    const std::size_t n = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, n, field) == 0)
            return std::atof(line.c_str() + n);
    return 0.0;
}

/** Restart the kernel's peak-RSS tracking of @p pid at its current RSS. */
void
resetPeakRss(pid_t pid)
{
    std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
    out << "5";
}

/** Minor page faults of @p pid so far (field 10 of /proc/<pid>/stat). */
std::uint64_t
minorFaults(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0;
    std::istringstream rest(stat.substr(close + 2));
    std::string tok;
    for (int field = 3; field <= 10 && rest >> tok; ++field)
        if (field == 10)
            return std::stoull(tok);
    return 0;
}

/**
 * A path no file of this run has used yet, removed again when the
 * returned guard dies. Outputs go to fresh files: rewriting one path
 * in place makes the truncate wait for the host's writeback of the
 * previous output, a disk stall that is not the rewriter's.
 */
struct FreshPath
{
    std::string path;

    explicit FreshPath(const std::string &base)
    {
        static unsigned long counter = 0;
        path = base + "." + std::to_string(counter++);
    }

    ~FreshPath()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }

    FreshPath(const FreshPath &) = delete;
    FreshPath &operator=(const FreshPath &) = delete;
};

/** Options every workload rewrites under (and the daemon is asked for). */
RewriteOptions
benchOptions()
{
    RewriteOptions o;
    o.mode = RewriteMode::funcPtr;
    o.instrumentation.countBlocks = true;
    o.threads = 1;
    o.lint = true;
    return o;
}

/** Output bytes of a cold rewrite with the analysis cache off. */
std::optional<std::uint64_t>
referenceDigest(const BinaryImage &image)
{
    RewriteOptions o = benchOptions();
    o.useAnalysisCache = false;
    const RewriteResult rw = rewriteBinary(image, o);
    if (!rw.ok)
        return std::nullopt;
    return digest(rw.image.serialize());
}

// ---- one-function edits ---------------------------------------------

/**
 * Address and re-encoding of the first AddImm in @p sym whose
 * immediate's low bit can flip at the same encoded length; false when
 * the function has none.
 */
bool
editSite(const BinaryImage &img, const Symbol &sym, Addr &site,
         std::vector<std::uint8_t> &enc)
{
    const Codec &codec = *img.archInfo().codec;
    std::vector<std::uint8_t> body;
    if (!img.readBytes(sym.addr, sym.size, body))
        return false;
    Addr addr = sym.addr;
    std::size_t off = 0;
    while (off < body.size()) {
        Instruction in;
        if (!codec.decode(body.data() + off, body.size() - off, addr,
                          in) ||
            in.length == 0)
            return false;
        if (in.op == Opcode::AddImm && in.imm > 1) {
            Instruction edit = in;
            edit.imm = in.imm ^ 1;
            enc.clear();
            if (codec.encode(edit, addr, enc) && enc.size() == in.length) {
                site = addr;
                return true;
            }
        }
        off += in.length;
        addr += in.length;
    }
    return false;
}

/** @p count distinct seeded one-function edits of @p base. */
std::vector<BinaryImage>
seededEdits(const BinaryImage &base, unsigned count, Rng &rng,
            std::vector<std::string> &names)
{
    std::vector<std::pair<const Symbol *, Addr>> sites;
    std::vector<std::vector<std::uint8_t>> encs;
    for (const Symbol *sym : base.functionSymbols()) {
        Addr site = 0;
        std::vector<std::uint8_t> enc;
        if (editSite(base, *sym, site, enc)) {
            sites.emplace_back(sym, site);
            encs.push_back(std::move(enc));
        }
    }
    std::vector<BinaryImage> out;
    std::set<unsigned> used;
    while (out.size() < count && used.size() < sites.size()) {
        const unsigned pick = rng.below(static_cast<unsigned>(sites.size()));
        if (!used.insert(pick).second)
            continue;
        BinaryImage edited = base;
        edited.writeBytes(sites[pick].second, encs[pick]);
        names.push_back(sites[pick].first->name);
        out.push_back(std::move(edited));
    }
    return out;
}

// ---- inputs and the seeded draw -------------------------------------

std::string
labelOf(const ProgramSpec &spec)
{
    return spec.name + "/" + archName(spec.arch) +
           (spec.pie ? "/pie" : "/nopie");
}

const Arch kArches[] = {Arch::x64, Arch::aarch64, Arch::ppc64le};

/** The SPEC-suite members of every fleet, one or two per ISA. */
struct SpecPick
{
    const char *name;
    Arch arch;
    bool pie;
};
const SpecPick kSpecPicks[] = {
    {"600.perlbench", Arch::x64, false},
    {"623.xalancbmk", Arch::x64, true},
    {"644.nab", Arch::ppc64le, true},
    {"648.exchange2", Arch::aarch64, false},
};

/**
 * The fleet input set: chromium-small (PIE) on all three ISAs,
 * libxul, libcuda, docker, libcommon1..3 on ppc64le and four
 * SPEC-suite members — 13 inputs. The programs are the same for
 * every seed, so the op-cost distribution, and with it every
 * percentile, is too; a seed that drew other programs moved op p50
 * by itself. The seed draws each input's link base (so its bytes and
 * digests), the order, and the edited functions. The libcommon
 * corpus keeps its own bases, which the cross-binary hits rely on.
 * @p libcommon0 receives the corpus member only the warm prime uses.
 */
std::vector<ProgramSpec>
drawFleet(Rng &rng, ProgramSpec &libcommon0)
{
    std::vector<ProgramSpec> specs;
    for (Arch a : kArches)
        specs.push_back(chromiumSmallProfile(a, true));
    specs.push_back(libxulProfile());
    specs.push_back(libcudaProfile());
    specs.push_back(dockerProfile());
    for (const SpecPick &p : kSpecPicks)
        for (const ProgramSpec &spec : specCpuSuite(p.arch, p.pie))
            if (spec.name == p.name)
                specs.push_back(spec);
    for (ProgramSpec &spec : specs)
        spec.baseOffset = std::uint64_t{1 + rng.below(64)} * 0x10000;
    const std::vector<ProgramSpec> corpus =
        libcommonCorpus(Arch::ppc64le, 4);
    libcommon0 = corpus[0];
    for (unsigned i = 1; i < 4; ++i)
        specs.push_back(corpus[i]);
    rng.shuffle(specs);
    return specs;
}

struct Input
{
    std::string label;
    BinaryImage image;
    std::string path;
    std::uint64_t ref = 0; ///< digest of the cold reference output
};

Input
makeInput(const ProgramSpec &spec, const std::string &path)
{
    Input in;
    in.label = labelOf(spec);
    in.image = compileProgram(spec);
    in.path = path;
    writeFile(path, in.image.serialize());
    return in;
}

// ---- results --------------------------------------------------------

/** Counts taken in the first traced pass (exact across same-seed runs). */
struct PassCounts
{
    double funcs = 0, blocks = 0, insns = 0;
    double hits = 0, misses = 0, crossHits = 0, depsRejected = 0;
    double bytesMapped = 0, bytesAppended = 0;
    double trampolines = 0, trapTramps = 0, multiHop = 0, cloned = 0;
    double dirty = 0, emitted = 0, reused = 0;

    /** Add one op's analyzed CFG and rewrite statistics. */
    void
    addWork(const CfgModule &cfg, const RewriteStats &st)
    {
        funcs += cfg.totalFunctions();
        for (const auto &[entry, fn] : cfg.functions)
            for (const auto &[start, blk] : fn.blocks) {
                ++blocks;
                insns += static_cast<double>(blk.insns.size());
            }
        trampolines += static_cast<double>(st.trampolines);
        trapTramps += static_cast<double>(st.trapTramps);
        multiHop += static_cast<double>(st.multiHopTramps);
        cloned += static_cast<double>(st.clonedTables);
    }

    /** Add the analysis-cache lookups made since @p before. */
    void
    addLookups(const AnalysisCache::Stats &before)
    {
        const AnalysisCache::Stats now = AnalysisCache::global().stats();
        hits += static_cast<double>(now.hits() - before.hits());
        misses += static_cast<double>(now.misses() - before.misses());
    }
};

struct Quality
{
    double logRuntime = 0, logSize = 0, logCoverage = 0;
    unsigned n = 0, attempted = 0, failed = 0;

    void
    add(const BinaryImage &image, const std::string &label)
    {
        RewriteOptions o;
        o.mode = RewriteMode::funcPtr;
        o.threads = 1;
        const ToolRun run =
            runBlockLevelExperiment(image, o, Machine::Config{});
        ++attempted;
        if (!run.pass) {
            ++failed;
            std::printf("FAIL strong-test %s: %s\n", label.c_str(),
                        run.failReason.c_str());
            return;
        }
        logRuntime += std::log1p(run.overhead);
        logSize += std::log1p(run.sizeIncrease);
        logCoverage += std::log(std::max(run.coverage, 1e-9));
        ++n;
    }

    /** 100 × the geometric mean of the values whose logs sum to @p sum. */
    double
    geomeanPct(double sum) const
    {
        return 100.0 * std::exp(sum / std::max(n, 1u));
    }

    double runtimePct() const { return geomeanPct(logRuntime); }
    double sizePct() const { return geomeanPct(logSize); }
    double coveragePct() const { return geomeanPct(logCoverage); }
};

/** The timings of one untraced pass. */
/** The host-scaled timings of one untraced pass (see probeHostMs). */
struct PassSamples
{
    double busyMs = 0; ///< sum of the pass's op times
    std::size_t ops = 0;
    std::vector<double> op, lint, emit;
};

struct Run
{
    std::vector<PassSamples> passes; ///< untraced
    /** Untraced op times per input (and request class). */
    std::map<std::string, std::vector<double>> perInput;
    std::vector<double> passBusyMs;           ///< per pass, for the trend check
    std::vector<double> tracedOpMs;           ///< same quantity, traced passes
    std::vector<double> minflt;               ///< per traced op
    unsigned attempted = 0, failed = 0;
    PassCounts counts;
    bool countsTaken = false;
};

void
fail(Run &run, const std::string &what)
{
    ++run.failed;
    if (run.failed <= 10)
        std::printf("FAIL %s\n", what.c_str());
}

// ---- fleets ---------------------------------------------------------

struct Fleet
{
    bool warm = false;
    std::vector<Input> inputs; ///< pass order
    std::string cachePath, outPath;
    std::vector<std::uint8_t> primed; ///< cache file as set up
};

/** Build the inputs (and the warm prime); the timed part of setup. */
void
setupFleet(Fleet &fleet, std::uint64_t seed, const std::string &work)
{
    Rng rng{seed};
    ProgramSpec libcommon0;
    const std::vector<ProgramSpec> specs = drawFleet(rng, libcommon0);
    fleet.inputs.clear();
    for (std::size_t i = 0; i < specs.size(); ++i)
        fleet.inputs.push_back(makeInput(
            specs[i], work + "/in" + std::to_string(i) + ".sbf"));
    fleet.outPath = work + "/out.sbf";
    fleet.cachePath = work + "/fleet.icpc";
    if (!fleet.warm)
        return;

    // The previous build of every input (one seeded function edited)
    // plus libcommon0 — but not libcommon1..3, which must reach the
    // cache through cross-binary hits on libcommon0's shared core.
    Rng edits{seed ^ 0x5eed5eed5eedULL};
    std::vector<BinaryImage> previous;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].name.rfind("libcommon", 0) == 0)
            continue;
        std::vector<std::string> names;
        auto edited =
            seededEdits(fleet.inputs[i].image, 1, edits, names);
        previous.push_back(edited.empty() ? fleet.inputs[i].image
                                          : std::move(edited.front()));
    }
    previous.push_back(compileProgram(libcommon0));
    AnalysisCache::global().clear();
    std::filesystem::remove(fleet.cachePath);
    RewriteOptions o = benchOptions();
    o.cachePath = fleet.cachePath;
    for (const BinaryImage &img : previous)
        rewriteBinary(img, o);
    AnalysisCache::global().clear();
    readFile(fleet.cachePath, fleet.primed);
}

/** One fleet op: a one-shot `icp rewrite --lint` of @p in. */
void
fleetOp(Fleet &fleet, Input &in, Tracer &tr, Run &run, bool traced,
        PassCounts *counts, std::vector<double> &times)
{
    // Untimed: a fresh process starts with an empty in-memory cache,
    // and the shared file is back in its primed state.
    if (fleet.warm) {
        const std::string tmp = fleet.cachePath + ".restore";
        writeFile(tmp, fleet.primed);
        std::filesystem::rename(tmp, fleet.cachePath);
    }
    AnalysisCache::global().clear();
    const AnalysisCache::Stats s0 = AnalysisCache::global().stats();
    const CacheCounters &cc = CacheCounters::global();
    const std::uint64_t cross0 = cc.crossHits, mapped0 = cc.bytesMapped,
                        appended0 = cc.bytesAppended,
                        rejected0 = DepsCounters::global().hitsRejected;
    const std::uint64_t flt0 = traced ? minorFaults(getpid()) : 0;
    RewriteOptions opts = benchOptions();
    const FreshPath outPath(fleet.outPath);

    const auto t0 = Clock::now();
    const int root = tr.openOp(in.label.c_str());
    std::vector<std::uint8_t> raw;
    {
        Span s(tr, "io", "readFile");
        readFile(in.path, raw);
    }
    std::vector<SbfIssue> issues;
    std::optional<BinaryImage> img;
    {
        Span s(tr, "binfmt", "BinaryImage::tryDeserialize");
        img = BinaryImage::tryDeserialize(raw, issues);
    }
    if (!img) {
        tr.close(root);
        ++run.attempted;
        fail(run, in.label + ": input does not decode");
        return;
    }
    CacheLoadReport loaded;
    if (fleet.warm) {
        Span s(tr, "cache_store", "AnalysisCache::load");
        loaded = AnalysisCache::global().load(fleet.cachePath, img->arch);
    }
    CfgModule cfg;
    {
        Span s(tr, "analysis", "buildCfg");
        AnalysisOptions a = opts.analysis;
        a.threads = opts.threads;
        a.useCache = opts.useAnalysisCache;
        cfg = buildCfg(*img, a);
    }
    RewriteResult rw;
    {
        Span s(tr, "rewrite", "rewriteBinary");
        RewritePass pass;
        pass.cfg = &cfg;
        rw = rewriteBinary(*img, opts, pass);
    }
    rw.cacheLoad = std::move(loaded);
    if (fleet.warm && rw.ok) {
        Span s(tr, "cache_store", "AnalysisCache::save");
        AnalysisCache::global().save(fleet.cachePath);
    }
    const auto l0 = Clock::now();
    LintReport report;
    {
        Span s(tr, "verify", "lintRewrite");
        LintOptions lo;
        lo.threads = 1;
        lo.originalCfg = &cfg;
        report = lintRewrite(*img, rw, lo);
    }
    const auto e0 = Clock::now();
    std::vector<std::uint8_t> out;
    {
        Span s(tr, "binfmt", "BinaryImage::serialize");
        out = rw.image.serialize();
    }
    {
        Span s(tr, "io", "writeFile");
        writeFile(outPath.path, out);
    }
    tr.close(root);
    const auto t1 = Clock::now();

    ++run.attempted;
    times.push_back(msBetween(t0, t1));
    if (!traced) {
        PassSamples &p = run.passes.back();
        p.op.push_back(msBetween(t0, t1));
        run.perInput[in.label].push_back(p.op.back());
        p.lint.push_back(msBetween(l0, e0));
        p.emit.push_back(msBetween(e0, t1));
    } else {
        run.tracedOpMs.push_back(msBetween(t0, t1));
        run.minflt.push_back(
            static_cast<double>(minorFaults(getpid()) - flt0));
    }
    if (!rw.ok)
        return fail(run, in.label + ": rewrite failed: " + rw.failReason);
    if (const unsigned errs = report.countAtLeast(Severity::error))
        return fail(run, in.label + ": " + std::to_string(errs) +
                             " lint errors");
    if (digest(out) != in.ref)
        return fail(run, in.label + ": output differs from the cold "
                                    "reference");
    if (counts) {
        counts->addWork(cfg, rw.stats);
        counts->addLookups(s0);
        counts->crossHits += static_cast<double>(cc.crossHits - cross0);
        counts->bytesMapped += static_cast<double>(cc.bytesMapped - mapped0);
        counts->bytesAppended +=
            static_cast<double>(cc.bytesAppended - appended0);
        counts->depsRejected += static_cast<double>(
            DepsCounters::global().hitsRejected - rejected0);
    }
}

// ---- serve_edit -----------------------------------------------------

/** The daemon child: `icpbench --daemon SOCKET`. */
ServeServer *g_server = nullptr;

void
onTerm(int)
{
    if (g_server)
        g_server->requestDrain();
}

int
daemonMain(const std::string &socket)
{
    // Die with the benchmark process, even when it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1)
        return 1;
    ServeOptions so;
    so.socketPath = socket;
    so.threads = 1;
    ServeServer server(so);
    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "icpbench daemon: %s\n", err.c_str());
        return 1;
    }
    g_server = &server;
    std::signal(SIGTERM, onTerm);
    return server.run();
}

/** A running daemon child plus the client's persistent connection. */
class Daemon
{
  public:
    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon() { stop(); }

    bool
    start(const std::string &socket)
    {
        std::string exe = std::filesystem::read_symlink("/proc/self/exe");
        char *argv[] = {exe.data(), const_cast<char *>("--daemon"),
                        const_cast<char *>(socket.c_str()), nullptr};
        // The daemon's stdout must not interleave with the result line.
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
        const int rc =
            posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv, environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            return false;
        }
        sockaddr_un sa = {};
        sa.sun_family = AF_UNIX;
        std::snprintf(sa.sun_path, sizeof(sa.sun_path), "%s",
                      socket.c_str());
        for (int attempt = 0; attempt < 1000; ++attempt) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (connect(fd_, reinterpret_cast<sockaddr *>(&sa),
                        sizeof(sa)) == 0)
                return true;
            ::close(fd_);
            fd_ = -1;
            usleep(10000);
        }
        return false;
    }

    bool
    call(const ServeMessage &req, ServeMessage &reply, std::string &err)
    {
        reply = ServeMessage{};
        if (!writeServeFrame(fd_, req, 30000)) {
            err = "send failed";
            return false;
        }
        return readServeFrame(fd_, reply, 30000, err) == FrameStatus::ok;
    }

    pid_t pid() const { return pid_; }

    /** Close the connection, drain the daemon, and reap it. */
    void
    stop()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        int status = 0;
        for (int i = 0; i < 1000; ++i) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            usleep(10000);
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
    int fd_ = -1;
};

constexpr unsigned kVariants = 5; ///< K single-function variants per binary

enum class Req : std::uint8_t { edit, lint, cached };

struct Token
{
    unsigned bin;
    Req kind;
};

struct ServeBinary
{
    std::string label;
    /** [0] = base, [1..K] = single-function variants. */
    std::vector<BinaryImage> images;
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<std::uint64_t> refs;
    std::vector<std::string> editedFunctions;
    std::string path, outPath;
    unsigned state = 0, nextVariant = 0;

    /** In-process replay of the daemon's session (traced runs only). */
    std::unique_ptr<RewriteSession> mirror;
    std::vector<std::uint8_t> mirrorOut;
};

struct Serve
{
    std::vector<ServeBinary> bins;
    std::vector<Token> tokens; ///< one pass
    std::unique_ptr<Daemon> daemon;
    std::string socket, mirrorOut;
};

/**
 * chromium-small x64, libxul, libcuda: the same binaries for every
 * seed, which draws the edited functions and the request order.
 */
std::vector<ProgramSpec>
serveSpecs()
{
    return {chromiumSmallProfile(Arch::x64, true), libxulProfile(),
            libcudaProfile()};
}

ServeMessage
request(const ServeBinary &b, Req kind, const std::string &out)
{
    ServeMessage req;
    req.verb = kind == Req::lint ? "lint" : "rewrite";
    req.set("path", b.path);
    if (kind == Req::lint) {
        req.set("fail_on", "error");
    } else {
        req.set("out", out);
    }
    req.set("mode", "func-ptr");
    req.set("count_blocks", std::uint64_t{1});
    req.set("threads", std::uint64_t{1});
    return req;
}

/** An edit goes from the base to the next variant, or back. */
void
nextState(ServeBinary &b)
{
    b.state = b.state == 0 ? 1 + (b.nextVariant++ % kVariants) : 0;
}

/** Apply an edit token: the developer saves the file (not timed). */
void
advanceEdit(ServeBinary &b)
{
    nextState(b);
    writeFile(b.path, b.bytes[b.state]);
}

void
setupServe(Serve &serve, std::uint64_t seed, const std::string &work)
{
    if (serve.daemon)
        serve.daemon->stop();
    Rng rng{seed};
    Rng edits{seed ^ 0x5eed5eed5eedULL};
    const std::vector<ProgramSpec> specs = serveSpecs();
    serve.bins.clear();
    serve.bins.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ServeBinary &b = serve.bins[i];
        b.label = labelOf(specs[i]);
        BinaryImage base = compileProgram(specs[i]);
        std::vector<BinaryImage> variants =
            seededEdits(base, kVariants, edits, b.editedFunctions);
        b.images.push_back(std::move(base));
        for (BinaryImage &v : variants)
            b.images.push_back(std::move(v));
        for (const BinaryImage &img : b.images)
            b.bytes.push_back(img.serialize());
        b.path = work + "/s" + std::to_string(i) + ".sbf";
        b.outPath = work + "/s" + std::to_string(i) + ".out.sbf";
        writeFile(b.path, b.bytes[0]);
    }
    // A pass is 2K developer iterations per binary (each variant and
    // back), each one edit -> fetch of the unchanged output -> lint,
    // in seeded order. Fixed iterations give every request class the
    // same predecessor in every draw: a lint's deferred work lands on
    // the request after it, so a free order would let the seed set
    // the cached-read median.
    std::vector<unsigned> iterations;
    for (unsigned i = 0; i < serve.bins.size(); ++i)
        for (unsigned k = 0; k < 2 * kVariants; ++k)
            iterations.push_back(i);
    rng.shuffle(iterations);
    serve.tokens.clear();
    for (unsigned i : iterations)
        for (Req kind : {Req::edit, Req::cached, Req::lint})
            serve.tokens.push_back({i, kind});

    serve.socket = work + "/d.sock";
    serve.mirrorOut = work + "/replay.sbf";
    serve.daemon = std::make_unique<Daemon>();
    if (!serve.daemon->start(serve.socket))
        throw std::runtime_error("serve daemon did not start");
    // Cold opens, then one untimed pass so the daemon's process-wide
    // AnalysisCache holds every variant before anything is timed.
    ServeMessage reply;
    std::string err;
    for (ServeBinary &b : serve.bins)
        serve.daemon->call(request(b, Req::cached, b.outPath), reply, err);
    for (const Token &t : serve.tokens) {
        ServeBinary &b = serve.bins[t.bin];
        if (t.kind == Req::edit)
            advanceEdit(b);
        serve.daemon->call(request(b, t.kind, b.outPath), reply, err);
    }
}

void
mirrorLoad(ServeBinary &b, Tracer &tr, PassCounts *counts)
{
    std::vector<std::uint8_t> raw;
    {
        Span s(tr, "io", "readFile");
        readFile(b.path, raw);
    }
    std::vector<SbfIssue> issues;
    std::optional<BinaryImage> img;
    {
        Span s(tr, "binfmt", "BinaryImage::tryDeserialize");
        img = BinaryImage::tryDeserialize(raw, issues);
    }
    const AnalysisCache::Stats s0 = AnalysisCache::global().stats();
    {
        Span s(tr, "session", "RewriteSession::loadInput");
        b.mirror->loadInput(std::move(*img));
    }
    {
        Span s(tr, "binfmt", "BinaryImage::serialize");
        b.mirrorOut = b.mirror->lastResult().image.serialize();
    }
    if (counts) {
        counts->addLookups(s0);
        counts->addWork(b.mirror->analyze(), b.mirror->lastResult().stats);
    }
}

/**
 * Create the in-process replay sessions and warm them like the
 * daemon, from memory: the input files (and so the daemon's stamps)
 * stay untouched.
 */
void
setupMirrors(Serve &serve)
{
    for (ServeBinary &b : serve.bins) {
        b.mirror = std::make_unique<RewriteSession>(b.images[0]);
        b.mirror->rewrite(benchOptions());
        b.mirrorOut = b.mirror->lastResult().image.serialize();
    }
    std::vector<unsigned> saved;
    for (const ServeBinary &b : serve.bins)
        saved.push_back(b.nextVariant);
    for (const Token &t : serve.tokens) {
        ServeBinary &b = serve.bins[t.bin];
        if (t.kind == Req::edit) {
            nextState(b);
            b.mirror->loadInput(b.images[b.state]);
        }
    }
    for (std::size_t i = 0; i < serve.bins.size(); ++i)
        serve.bins[i].nextVariant = saved[i];
}

void
serveOp(Serve &serve, const Token &t, Tracer &tr, Run &run, bool traced,
        PassCounts *counts, std::vector<double> &rtts)
{
    ServeBinary &b = serve.bins[t.bin];
    if (t.kind == Req::edit)
        advanceEdit(b); // the developer saves the file; not timed
    const FreshPath out(b.outPath);
    const ServeMessage req = request(b, t.kind, out.path);
    const pid_t dpid = serve.daemon->pid();
    const std::uint64_t flt0 =
        traced ? minorFaults(getpid()) + minorFaults(dpid) : 0;

    ServeMessage reply;
    std::string err;
    const int root = tr.openOp(t.kind == Req::edit   ? "edit"
                               : t.kind == Req::lint ? "lint"
                                                     : "cached");
    const auto t0 = Clock::now();
    bool sent;
    {
        Span s(tr, "serve", "serveCall");
        sent = serve.daemon->call(req, reply, err);
    }
    const double ms = msBetween(t0, Clock::now());
    if (b.mirror) {
        if (t.kind == Req::edit) {
            mirrorLoad(b, tr, counts);
        } else if (t.kind == Req::lint) {
            Span s(tr, "verify", "RewriteSession::lint");
            LintOptions lo;
            lo.threads = 1;
            b.mirror->lint(lo);
        } else {
            const FreshPath replayOut(serve.mirrorOut);
            Span s(tr, "io", "writeFile");
            writeFile(replayOut.path, b.mirrorOut);
        }
    }
    tr.close(root);

    ++run.attempted;
    rtts.push_back(ms);
    if (!traced) {
        run.perInput[std::string(t.kind == Req::edit   ? "edit   "
                                 : t.kind == Req::lint ? "lint   "
                                                       : "cached ") +
                     b.label]
            .push_back(ms);
        PassSamples &p = run.passes.back();
        (t.kind == Req::edit ? p.op : t.kind == Req::lint ? p.lint : p.emit)
            .push_back(ms);
    } else {
        if (t.kind == Req::edit)
            run.tracedOpMs.push_back(ms);
        run.minflt.push_back(static_cast<double>(
            minorFaults(getpid()) + minorFaults(dpid) - flt0));
    }

    const std::string what = b.label + " " + req.verb;
    if (!sent || reply.verb != "ok")
        return fail(run, what + ": " + err + reply.get("error"));
    const bool cached = t.kind != Req::edit;
    if (reply.getU64("warm") != 1 || reply.getU64("incremental") != 1 ||
        reply.getU64("cached") != (cached ? 1u : 0u))
        return fail(run, what + ": unexpected warm/incremental/cached");
    if (t.kind == Req::lint) {
        if (reply.getU64("errors") != 0)
            return fail(run, what + ": lint errors");
    } else {
        std::vector<std::uint8_t> bytes;
        if (!readFile(out.path, bytes) || digest(bytes) != b.refs[b.state])
            return fail(run, what + ": output differs from the cold "
                                    "reference");
    }
    if (counts && t.kind == Req::edit) {
        counts->dirty += static_cast<double>(reply.getU64("dirty"));
        counts->emitted += static_cast<double>(reply.getU64("emitted"));
        counts->reused += static_cast<double>(reply.getU64("reused"));
    }
}

// ---- reporting ------------------------------------------------------

/** Every untraced sample of one kind (op, lint, emit), pooled. */
std::vector<double>
pooled(const Run &run, std::vector<double> PassSamples::*kind)
{
    std::vector<double> v;
    for (const PassSamples &p : run.passes)
        v.insert(v.end(), (p.*kind).begin(), (p.*kind).end());
    return v;
}

struct Metric
{
    std::string name, unit;
    double value;
};

void
printResult(bool correct, const Run &run, const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {",
                correct ? "true" : "false", run.attempted, run.failed);
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

/** Per-layer metrics and the layer table from the traced passes. */
std::vector<Metric>
layerMetrics(const Tracer &tr, const Run &run, bool serve)
{
    const std::vector<OpBreakdown> ops = tr.breakdown();
    std::map<std::string, std::vector<double>> self, byName;
    std::map<std::string, double> total;
    std::vector<double> overhead;
    double sumDur = 0, worstGap = 0;
    for (const OpBreakdown &op : ops) {
        double sum = 0, replay = 0;
        for (const auto &[layer, ms] : op.selfMs) {
            self[layer].push_back(ms);
            total[layer] += ms;
            sum += ms;
            if (layer != "op" && layer != "serve")
                replay += ms;
        }
        for (const auto &[name, ms] : op.selfByName)
            byName[name].push_back(ms);
        sumDur += op.durMs;
        worstGap = std::max(worstGap, std::fabs(sum - op.durMs));
        if (auto it = op.firstDurMs.find("serve"); it != op.firstDurMs.end())
            overhead.push_back(it->second - replay);
    }

    std::printf("\nlayer self time over %zu traced ops (median over the "
                "ops that call the layer)\n",
                ops.size());
    std::printf("  %-12s %8s %12s %8s\n", "layer", "ops", "median ms",
                "share");
    for (const auto &[layer, v] : self)
        std::printf("  %-12s %8zu %12.4f %7.2f%%\n", layer.c_str(),
                    v.size(), median(v),
                    sumDur > 0 ? 100.0 * total[layer] / sumDur : 0.0);
    if (serve)
        std::printf("  serve.overhead_ms (round trip - in-process "
                    "replay): median %.4f over %zu ops\n",
                    median(overhead), overhead.size());
    std::printf("  layer self times + op.self sum to each op's "
                "duration within %.2e ms\n",
                worstGap);

    auto layer = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : median(it->second);
    };
    auto call = [&](const char *name) {
        auto it = byName.find(name);
        return it == byName.end() ? 0.0 : median(it->second);
    };
    const std::vector<double> untracedOps = pooled(run, &PassSamples::op);
    const double traced = median(run.tracedOpMs);
    const double untraced = median(untracedOps);
    std::printf("  tracing overhead: op_ms_p50 traced %.4f (n=%zu) vs "
                "untraced %.4f (n=%zu)\n",
                traced, run.tracedOpMs.size(), untraced,
                untracedOps.size());

    const PassCounts &c = run.counts;
    const double lookups = c.hits + c.misses;
    const double spliced = c.reused + c.emitted;
    return {
        {"op.self_ms", "ms", layer("op")},
        {"io.self_ms", "ms", layer("io")},
        {"binfmt.decode_ms", "ms", call("BinaryImage::tryDeserialize")},
        {"binfmt.encode_ms", "ms", call("BinaryImage::serialize")},
        {"verify.lint_ms", "ms", layer("verify")},
        {"trace.op_ms_p50", "ms", traced},
        {"trace.untraced_op_ms_p50", "ms", untraced},
        {"trace.overhead_pct", "%",
         untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0},
        {"process.minflt_per_op", "count", mean(run.minflt)},
        {"analysis.funcs", "count", c.funcs},
        {"analysis.blocks", "count", c.blocks},
        {"analysis.insns", "count", c.insns},
        {"analysis.hit_pct", "%", lookups > 0 ? 100.0 * c.hits / lookups : 0.0},
        {"analysis.cross_hits", "count", c.crossHits},
        {"analysis.deps_rejected", "count", c.depsRejected},
        {"cache_store.bytes_mapped", "bytes", c.bytesMapped},
        {"cache_store.bytes_appended", "bytes", c.bytesAppended},
        {"rewrite.trampolines", "count", c.trampolines},
        {"rewrite.trap_ratio", "ratio",
         c.trampolines > 0 ? c.trapTramps / c.trampolines : 0.0},
        {"rewrite.multihop_tramps", "count", c.multiHop},
        {"rewrite.cloned_tables", "count", c.cloned},
        {"session.dirty_funcs", "count", c.dirty},
        {"session.emitted_funcs", "count", c.emitted},
        {"session.splice_ratio", "ratio",
         spliced > 0 ? c.reused / spliced : 0.0},
    };
}

struct Args
{
    std::string workload, work;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false, plan = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--plan") {
            a.plan = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work")
            a.work = v;
        else
            return false;
    }
    return (a.workload == "cold_fleet" || a.workload == "warm_fleet" ||
            a.workload == "serve_edit") &&
           !a.work.empty() && a.seconds > 0;
}

/** Everything one workload needs between setup and reporting. */
struct Bench
{
    Args args;
    bool serveMode = false;
    Fleet fleet;
    Serve serve;
    Tracer tracer;
    Run run;
    Quality quality;
    std::vector<double> setupS;        ///< scaled by the host factor
    std::vector<double> hostFactors;   ///< one per setup and op
    double lastProbeMs = 0;

    /** The host factor of work done since the last probe. */
    double
    hostFactor()
    {
        const double before = lastProbeMs;
        lastProbeMs = probeHostMs();
        // Preemption can only lengthen a probe, so the quicker of
        // the two around the work is the better reading.
        hostFactors.push_back(kProbeRefMs / std::min(before, lastProbeMs));
        return hostFactors.back();
    }

    void
    setup()
    {
        const unsigned reps = serveMode ? 3 : 7;
        lastProbeMs = probeHostMs();
        for (unsigned r = 0; r < reps; ++r) {
            const auto t0 = Clock::now();
            if (serveMode)
                setupServe(serve, args.seed, args.work);
            else
                setupFleet(fleet, args.seed, args.work);
            const double s = msBetween(t0, Clock::now()) / 1000.0;
            setupS.push_back(s * hostFactor());
        }
    }

    /** Cold reference digests and the §8 strong test; untimed, once. */
    void
    prepareChecks()
    {
        if (serveMode) {
            for (ServeBinary &b : serve.bins) {
                for (const BinaryImage &img : b.images)
                    b.refs.push_back(referenceDigest(img).value_or(0));
                quality.add(b.images[0], b.label);
            }
            return;
        }
        for (Input &in : fleet.inputs) {
            in.ref = referenceDigest(in.image).value_or(0);
            quality.add(in.image, in.label);
        }
    }

    void
    printPlan()
    {
        std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"ops\": [",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed));
        if (serveMode) {
            for (std::size_t i = 0; i < serve.tokens.size(); ++i) {
                const Token &t = serve.tokens[i];
                std::printf("%s\"%s %s\"", i ? ", " : "",
                            t.kind == Req::edit   ? "edit"
                            : t.kind == Req::lint ? "lint"
                                                  : "cached",
                            serve.bins[t.bin].label.c_str());
            }
        } else {
            for (std::size_t i = 0; i < fleet.inputs.size(); ++i)
                std::printf("%s\"%s\"", i ? ", " : "",
                            fleet.inputs[i].label.c_str());
        }
        std::printf("], \"digests\": [");
        bool first = true;
        auto emit = [&](std::uint64_t d) {
            std::printf("%s\"%016llx\"", first ? "" : ", ",
                        static_cast<unsigned long long>(d));
            first = false;
        };
        if (serveMode) {
            for (const ServeBinary &b : serve.bins)
                for (std::uint64_t d : b.refs)
                    emit(d);
        } else {
            for (const Input &in : fleet.inputs)
                emit(in.ref);
        }
        std::printf("], \"runtime_pct\": %.17g, \"size_pct\": %.17g, "
                    "\"coverage_pct\": %.17g}\n",
                    quality.runtimePct(), quality.sizePct(),
                    quality.coveragePct());
    }

    void
    runPass(bool traced, bool takeCounts)
    {
        tracer.setEnabled(traced);
        PassCounts *counts = takeCounts ? &run.counts : nullptr;
        if (!traced)
            run.passes.emplace_back();
        PassSamples none; // traced passes record no samples here
        PassSamples &p = traced ? none : run.passes.back();
        std::vector<double> times;
        const std::size_t n =
            serveMode ? serve.tokens.size() : fleet.inputs.size();
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<double> *const v[] = {&p.op, &p.lint, &p.emit,
                                              &run.tracedOpMs, &times};
            std::size_t before[std::size(v)];
            for (std::size_t k = 0; k < std::size(v); ++k)
                before[k] = v[k]->size();
            if (serveMode)
                serveOp(serve, serve.tokens[i], tracer, run, traced, counts,
                        times);
            else
                fleetOp(fleet, fleet.inputs[i], tracer, run, traced, counts,
                        times);
            // Every sample of the op is scaled by the probes around it.
            const double f = hostFactor();
            for (std::size_t k = 0; k < std::size(v); ++k)
                for (std::size_t j = before[k]; j < v[k]->size(); ++j)
                    (*v[k])[j] *= f;
        }
        tracer.setEnabled(false);
        double busy = 0;
        for (double ms : times)
            busy += ms;
        p.busyMs = busy;
        p.ops = times.size();
        run.passBusyMs.push_back(busy);
    }

    double
    residentMb() const
    {
        double kb = procStatusKb(getpid(), "VmRSS:");
        if (serve.daemon)
            kb += procStatusKb(serve.daemon->pid(), "VmRSS:");
        return kb / 1024.0;
    }

    double
    peakMb() const
    {
        double kb = procStatusKb(getpid(), "VmHWM:");
        if (serve.daemon)
            kb += procStatusKb(serve.daemon->pid(), "VmHWM:");
        return kb / 1024.0;
    }
};

int
benchMain(const Args &args)
{
    Bench bench;
    bench.args = args;
    bench.serveMode = args.workload == "serve_edit";
    bench.fleet.warm = args.workload == "warm_fleet";
    std::filesystem::create_directories(args.work);
    // One CPU for this process and the daemon it spawns (which
    // inherits the mask): the closed loop runs one thing at a time,
    // and on a shared host cross-CPU wakeups between client and
    // daemon were the largest source of run-to-run spread.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(std::max(sched_getcpu(), 0), &cpus);
    sched_setaffinity(0, sizeof(cpus), &cpus);

    bench.setup();
    bench.prepareChecks();
    if (args.plan) {
        bench.printPlan();
        return 0;
    }
    if (bench.serveMode && args.trace)
        setupMirrors(bench.serve);

    std::printf("workload %s seed %llu: %zu inputs, on CPU %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                bench.serveMode ? bench.serve.bins.size()
                                : bench.fleet.inputs.size(),
                sched_getcpu());
    if (bench.serveMode)
        for (const ServeBinary &b : bench.serve.bins) {
            std::printf("  %s edits:", b.label.c_str());
            for (const std::string &f : b.editedFunctions)
                std::printf(" %s", f.c_str());
            std::printf("\n");
        }
    else
        for (const Input &in : bench.fleet.inputs)
            std::printf("  %s\n", in.label.c_str());

    // Measure the steady state only: peak RSS restarts here.
    malloc_trim(0);
    resetPeakRss(getpid());
    if (bench.serveMode)
        resetPeakRss(bench.serve.daemon->pid());

    const auto start = Clock::now();
    const unsigned minPasses = args.trace ? 4 : 3;
    unsigned passes = 0;
    double rssAfterFirst = 0;
    while (passes < minPasses ||
           msBetween(start, Clock::now()) < 1000.0 * args.seconds) {
        const bool traced = args.trace && passes % 2 == 1;
        bench.runPass(traced, traced && !bench.run.countsTaken);
        if (traced)
            bench.run.countsTaken = true;
        if (++passes == 1)
            rssAfterFirst = bench.residentMb();
    }
    const double peak = bench.peakMb();
    const double rssGrowth = bench.residentMb() - rssAfterFirst;

    // Stationarity: the last third of the passes must not be slower
    // than the first third. Traced and untraced passes alternate, so
    // both thirds hold both kinds. Pass times are host-scaled, but
    // the scaling leaves ~10% of noise per pass, so only a doubling
    // fails the run; a smaller rise is reported.
    const std::vector<double> &pm = bench.run.passBusyMs;
    const std::size_t third = std::max<std::size_t>(1, pm.size() / 3);
    const double early = median(std::vector<double>(
        pm.begin(), pm.begin() + static_cast<long>(third)));
    const double late = median(
        std::vector<double>(pm.end() - static_cast<long>(third), pm.end()));
    const double trend = early > 0 ? late / early : 1.0;
    std::printf("passes %u in %.2f s; trend (last/first third of pass "
                "busy times) %.3f; RSS growth after pass 1: %.1f MB\n",
                passes, msBetween(start, Clock::now()) / 1000.0, trend,
                rssGrowth);
    std::printf("per-pass busy ms, host-scaled:");
    for (double m : pm)
        std::printf(" %.1f", m);
    std::printf("\n");
    const bool stationary = trend < 2.0;
    if (!stationary)
        std::printf("FAIL op time doubled across passes\n");
    else if (trend > 1.25)
        std::printf("WARN op time rose across passes (host drift or "
                    "a leak)\n");

    Run &run = bench.run;
    run.attempted += bench.quality.attempted;
    run.failed += bench.quality.failed;
    // A failed op never ends the run, but the outputs are only
    // correct when every op and strong test passed.
    const bool correct = stationary && run.failed == 0;
    if (bench.serveMode)
        bench.serve.daemon->stop();

    if (args.trace) {
        const std::string path = args.work + "/../" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
        std::vector<Metric> metrics =
            layerMetrics(bench.tracer, run, bench.serveMode);
        bench.tracer.writeChromeTrace(path);
        std::printf("  chrome trace: %s\n", path.c_str());
        printResult(correct, run, metrics);
        return 0;
    }

    std::printf("untraced op ms by input, unscaled:\n");
    for (const auto &[label, v] : run.perInput)
        std::printf("  %-40s n=%-5zu p50 %9.4f  p90 %9.4f\n",
                    label.c_str(), v.size(), percentile(v, 50),
                    percentile(v, 90));
    const std::vector<double> opMs = pooled(run, &PassSamples::op),
                              lintMs = pooled(run, &PassSamples::lint),
                              emitMs = pooled(run, &PassSamples::emit);
    std::vector<double> passRate;
    for (const PassSamples &p : run.passes)
        passRate.push_back(1000.0 * static_cast<double>(p.ops) / p.busyMs);
    const std::vector<double> &hf = bench.hostFactors;
    std::printf("host factor (idle-host probe time over measured) over "
                "%zu probes: min %.3f median %.3f max %.3f\n",
                hf.size(), *std::min_element(hf.begin(), hf.end()),
                median(hf), *std::max_element(hf.begin(), hf.end()));
    std::printf("samples: op_ms n=%zu, lint_ms n=%zu, emit_ms n=%zu, "
                "ops_per_s over %zu passes, setup_s over %zu setups, "
                "quality over %u inputs\n",
                opMs.size(), lintMs.size(), emitMs.size(), passRate.size(),
                bench.setupS.size(), bench.quality.n);
    const double okPct =
        run.attempted
            ? 100.0 * (run.attempted - run.failed) / run.attempted
            : 0.0;
    printResult(correct, run,
                {
                    {"setup_s", "s", median(bench.setupS)},
                    {"ops_per_s", "1/s", median(passRate)},
                    {"op_ms_p50", "ms", percentile(opMs, 50)},
                    {"op_ms_p90", "ms", percentile(opMs, 90)},
                    {"lint_ms_p50", "ms", percentile(lintMs, 50)},
                    {"lint_ms_p90", "ms", percentile(lintMs, 90)},
                    {"emit_ms_p50", "ms", percentile(emitMs, 50)},
                    {"emit_ms_p90", "ms", percentile(emitMs, 90)},
                    {"peak_rss_mb", "MB", peak},
                    {"ok_pct", "%", okPct},
                    {"runtime_pct", "%", bench.quality.runtimePct()},
                    {"size_pct", "%", bench.quality.sizePct()},
                    {"coverage_pct", "%", bench.quality.coveragePct()},
                });
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::string(argv[1]) == "--daemon")
        return daemonMain(argv[2]);
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: icpbench --workload cold_fleet|warm_fleet|"
                     "serve_edit --seed N --seconds S --trace 0|1 "
                     "--work DIR [--plan]\n");
        return 2;
    }
    try {
        return benchMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "icpbench: %s\n", e.what());
        return 1;
    }
}
