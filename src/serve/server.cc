#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/cache.hh"
#include "analysis/datadeps.hh"
#include "support/file_io.hh"
#include "support/thread_pool.hh"
#include "verify/lint.hh"

namespace icp
{

namespace
{

/** Canonical session key: realpath when resolvable, raw otherwise. */
std::string
canonicalPath(const std::string &path)
{
    char buf[PATH_MAX];
    if (realpath(path.c_str(), buf) != nullptr)
        return buf;
    return path;
}

bool
statStamp(const std::string &path, std::uint64_t &mtime_ns,
          std::uint64_t &size)
{
    struct stat st;
    if (stat(path.c_str(), &st) != 0)
        return false;
    mtime_ns = static_cast<std::uint64_t>(st.st_mtim.tv_sec) *
                   1000000000ull +
               static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
    size = static_cast<std::uint64_t>(st.st_size);
    return true;
}

/**
 * Apply each rewrite-flag field of @p request to @p opts through its
 * flag's setter; a switch's field must be `1`. Returns the first
 * malformed field, or null.
 */
const std::pair<std::string, std::string> *
applyFlagFields(const ServeMessage &request, RewriteOptions &opts)
{
    for (const auto &field : request.fields) {
        for (const RewriteFlag &flag : rewriteFlags()) {
            if (field.first != flag.field())
                continue;
            const std::string &value = field.second;
            if (flag.takesValue ? !flag.set(opts, value.c_str())
                                : value != "1" || !flag.set(opts, nullptr))
                return &field;
        }
    }
    return nullptr;
}

const Timer serve_timer = Metrics::global().timer("serve.req");

} // namespace

ServeServer::ServeServer(ServeOptions options)
    : opts_(std::move(options)),
      requests_(metrics_.counter("serve.requests")),
      errors_(metrics_.counter("serve.errors")),
      sessionHits_(metrics_.counter("serve.session_hits")),
      sessionMisses_(metrics_.counter("serve.session_misses")),
      evictions_(metrics_.counter("serve.evictions")),
      timeouts_(metrics_.counter("serve.timeouts")),
      badFrames_(metrics_.counter("serve.bad_frames")),
      rejected_(metrics_.counter("serve.rejected")),
      lockPath_(opts_.socketPath + ".lock")
{
}

ServeServer::~ServeServer()
{
    if (listenFd_ >= 0)
        close(listenFd_);
    for (int fd : drainPipe_) {
        if (fd >= 0)
            close(fd);
    }
    if (lockFd_ >= 0)
        close(lockFd_);
}

bool
ServeServer::start(std::string &error)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.empty() ||
        opts_.socketPath.size() >= sizeof(addr.sun_path)) {
        error = "socket path empty or too long";
        return false;
    }
    std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                opts_.socketPath.size());

    // The lock file is the liveness oracle: flock is released by the
    // kernel on any process death (including SIGKILL), so holding it
    // proves no other daemon owns the socket path, and a leftover
    // socket file from a killed daemon is provably stale.
    lockFd_ = open(lockPath_.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                   0600);
    if (lockFd_ < 0) {
        error = std::string("cannot open ") + lockPath_ + ": " +
                std::strerror(errno);
        return false;
    }
    if (flock(lockFd_, LOCK_EX | LOCK_NB) != 0) {
        error = std::string("another daemon holds ") + lockPath_;
        close(lockFd_);
        lockFd_ = -1;
        return false;
    }
    (void)unlink(opts_.socketPath.c_str()); // stale socket, if any

    listenFd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
        error = std::string("socket failed: ") +
                std::strerror(errno);
        return false;
    }
    if (bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(listenFd_, 64) != 0) {
        error = std::string("cannot listen on ") + opts_.socketPath +
                ": " + std::strerror(errno);
        return false;
    }
    if (pipe2(drainPipe_, O_CLOEXEC) != 0) {
        error = std::string("pipe failed: ") + std::strerror(errno);
        return false;
    }
    return true;
}

void
ServeServer::requestDrain()
{
    draining_.store(true, std::memory_order_release);
    if (drainPipe_[1] >= 0) {
        const char byte = 'd';
        // Async-signal-safe wakeup for the accept loop's poll.
        ssize_t ignored = write(drainPipe_[1], &byte, 1);
        (void)ignored;
    }
}

int
ServeServer::run()
{
    int rc = 0;
    while (!draining_.load(std::memory_order_acquire)) {
        struct pollfd pfds[2];
        pfds[0].fd = listenFd_;
        pfds[0].events = POLLIN;
        pfds[0].revents = 0;
        pfds[1].fd = drainPipe_[0];
        pfds[1].events = POLLIN;
        pfds[1].revents = 0;
        const int n = poll(pfds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            rc = 1;
            break;
        }
        if (pfds[1].revents != 0 ||
            draining_.load(std::memory_order_acquire))
            break;
        if (pfds[0].revents == 0)
            continue;
        const int fd =
            accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            rc = 1;
            break;
        }
        bool reject = false;
        {
            std::lock_guard<std::mutex> lock(inflightMu_);
            if (opts_.maxPending != 0 &&
                inflight_ >= opts_.maxPending)
                reject = true;
            else
                ++inflight_;
        }
        if (reject) {
            // Shed load at the door: drain the request frame (tiny,
            // normally already buffered — and reading it first keeps
            // the client's send from racing our close), answer with
            // a structured busy error, hang up. Not counted as an
            // error — the request was never processed. The read is
            // capped well under the request timeout; a rejecting
            // server must keep accepting.
            rejected_.add();
            ServeMessage shed_req;
            std::string shed_err;
            const int cap =
                opts_.requestTimeoutMs <= 0
                    ? 1000
                    : std::min(opts_.requestTimeoutMs, 1000);
            (void)readServeFrame(fd, shed_req, cap, shed_err);
            ServeMessage busy;
            busy.verb = "error";
            busy.set("code", "busy");
            busy.set("error",
                     "server at --max-pending capacity; retry");
            writeServeFrame(fd, busy, opts_.requestTimeoutMs);
            close(fd);
            continue;
        }
        ThreadPool::shared().submit([this, fd] {
            handleConnection(fd);
            // Notify under the lock: once the count reaches zero the
            // drain may return and destroy the server, condition
            // variable included.
            std::lock_guard<std::mutex> lock(inflightMu_);
            --inflight_;
            inflightCv_.notify_all();
        });
    }

    // Drain: refuse new connections, let in-flight requests finish.
    close(listenFd_);
    listenFd_ = -1;
    {
        std::unique_lock<std::mutex> lock(inflightMu_);
        inflightCv_.wait(lock, [&] { return inflight_ == 0; });
    }

    // Delta-save every session's on-disk cache (each rewrite already
    // saved, so these are cheap no-op appends unless a session died
    // mid-request).
    std::set<std::pair<std::string, std::uint64_t>> cache_paths;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        for (const auto &[key, resident] : sessions_) {
            (void)key;
            if (!resident->opts.cachePath.empty())
                cache_paths.emplace(resident->opts.cachePath,
                                    resident->opts.cacheMaxBytes);
        }
    }
    for (const auto &[path, max_bytes] : cache_paths)
        AnalysisCache::global().save(path, max_bytes);

    (void)unlink(opts_.socketPath.c_str());
    (void)unlink(lockPath_.c_str());
    return rc;
}

void
ServeServer::handleConnection(int fd)
{
    for (;;) {
        ServeMessage request;
        std::string error;
        const FrameStatus status = readServeFrame(
            fd, request, opts_.requestTimeoutMs, error);
        if (status == FrameStatus::closed)
            break;
        if (status != FrameStatus::ok) {
            // Structured reply, never a crash: tell the client what
            // was wrong with its frame, then drop the connection
            // (framing is unrecoverable mid-stream).
            if (status == FrameStatus::timeout)
                timeouts_.add();
            else
                badFrames_.add();
            writeServeFrame(
                fd, errorReply(frameStatusName(status), error),
                opts_.requestTimeoutMs);
            break;
        }

        const auto t0 = std::chrono::steady_clock::now();
        ServeMessage reply = handleRequest(request);
        const auto t1 = std::chrono::steady_clock::now();
        noteLatency(
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count());

        if (!writeServeFrame(fd, reply, opts_.requestTimeoutMs))
            break;
        if (request.verb == "shutdown") {
            requestDrain();
            break;
        }
        // Finish the request that was in flight, but don't serve
        // another one once a drain began.
        if (draining_.load(std::memory_order_acquire))
            break;
    }
    close(fd);
}

ServeMessage
ServeServer::handleRequest(const ServeMessage &request)
{
    const ScopedTimer timer(serve_timer);
    requests_.add();
    // Test hook: stretch request handling so drain tests can catch
    // a request reliably in flight. Read per request (tests toggle
    // it between cases within one process).
    const char *delay_env = std::getenv("ICP_SERVE_TEST_DELAY_MS");
    const int test_delay_ms =
        delay_env != nullptr ? std::atoi(delay_env) : 0;
    if (test_delay_ms > 0)
        usleep(static_cast<useconds_t>(test_delay_ms) * 1000);
    try {
        if (request.verb == "ping") {
            ServeMessage reply;
            reply.verb = "ok";
            reply.set("pong", std::uint64_t{1});
            return reply;
        }
        if (request.verb == "shutdown") {
            ServeMessage reply;
            reply.verb = "ok";
            reply.set("draining", std::uint64_t{1});
            return reply;
        }
        if (request.verb == "open")
            return handleOpen(request);
        if (request.verb == "rewrite")
            return handleRewrite(request);
        if (request.verb == "lint")
            return handleLint(request);
        if (request.verb == "repair")
            return handleRepair(request);
        if (request.verb == "deps")
            return handleDeps(request);
        if (request.verb == "stats")
            return handleStats(request);
        return errorReply("bad-verb",
                          "unknown verb: " + request.verb);
    } catch (const std::exception &e) {
        return errorReply("internal", e.what());
    } catch (...) {
        return errorReply("internal", "unknown exception");
    }
}

std::shared_ptr<ServeServer::Resident>
ServeServer::ensureResident(const std::string &path,
                            const RewriteOptions &options, bool &warm,
                            std::string &error)
{
    const std::string key = canonicalPath(path);
    std::shared_ptr<Resident> resident;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        auto it = sessions_.find(key);
        if (it != sessions_.end()) {
            warm = true;
            sessionHits_.add();
            it->second->lastUse = ++tick_;
            return it->second;
        }
    }
    // Miss: validate the file exists before inserting.
    std::uint64_t mtime_ns = 0, size = 0;
    if (!statStamp(key, mtime_ns, size)) {
        error = "cannot stat " + path;
        return nullptr;
    }
    warm = false;
    sessionMisses_.add();
    resident = std::make_shared<Resident>();
    resident->key = key;
    resident->opts = options;
    resident->residentBytes = size;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        auto [it, inserted] = sessions_.emplace(key, resident);
        if (!inserted)
            resident = it->second; // lost a race; reuse the winner
        it->second->lastUse = ++tick_;
    }
    return resident;
}

void
ServeServer::evictOverBudget(const Resident *keep)
{
    if (opts_.sessionMaxBytes == 0 && opts_.maxSessions == 0)
        return;
    std::lock_guard<std::mutex> lock(registryMu_);
    for (;;) {
        std::uint64_t total = 0;
        for (const auto &[key, resident] : sessions_) {
            (void)key;
            total += resident->residentBytes;
        }
        const bool over_bytes = opts_.sessionMaxBytes != 0 &&
                                total > opts_.sessionMaxBytes;
        const bool over_count =
            opts_.maxSessions != 0 &&
            sessions_.size() > opts_.maxSessions;
        if ((!over_bytes && !over_count) || sessions_.size() <= 1)
            return;
        // Least-recently-used first, never the session in use.
        auto victim = sessions_.end();
        for (auto it = sessions_.begin(); it != sessions_.end();
             ++it) {
            if (it->second.get() == keep)
                continue;
            if (victim == sessions_.end() ||
                it->second->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == sessions_.end())
            return;
        // Handlers still holding the shared_ptr finish safely; the
        // session is simply no longer resident for future requests.
        sessions_.erase(victim);
        evictions_.add();
    }
}

bool
ServeServer::refreshResident(Resident &resident, ServeMessage &reply,
                             std::string &error)
{
    std::uint64_t mtime_ns = 0, size = 0;
    if (!statStamp(resident.key, mtime_ns, size)) {
        error = "cannot stat " + resident.key;
        return false;
    }
    const bool stamp_changed = mtime_ns != resident.stampMtimeNs ||
                               size != resident.stampSize;

    if (resident.session && !stamp_changed) {
        // Fully warm: the previous result (and its serialized
        // bytes) stand; the request costs no analysis at all.
        const RewriteStats &stats =
            resident.session->lastResult().stats;
        reply.set("incremental", std::uint64_t{1});
        reply.set("cached", std::uint64_t{1});
        reply.set("dirty", std::uint64_t{0});
        reply.set("emitted", std::uint64_t{0});
        reply.set("reused",
                  std::uint64_t{stats.instrumentedFunctions});
        reply.set("functions", std::uint64_t{stats.totalFunctions});
        return true;
    }

    std::vector<std::uint8_t> raw;
    if (!readFile(resident.key, raw)) {
        error = "cannot read " + resident.key;
        return false;
    }
    std::vector<SbfIssue> issues;
    auto img = BinaryImage::tryDeserialize(raw, issues);
    if (!img) {
        error = "not a valid SBF image: " + resident.key;
        if (!issues.empty())
            error += " [" + issues.front().rule + "] " +
                     issues.front().message;
        return false;
    }

    std::uint64_t dirty = 0;
    bool incremental = false;
    const bool fresh = !resident.session;
    if (fresh) {
        resident.session =
            std::make_unique<RewriteSession>(std::move(*img));
    } else {
        const auto outcome =
            resident.session->loadInput(std::move(*img));
        incremental = outcome.incremental;
        dirty = outcome.dirtyFunctions.size();
    }
    if (!incremental) {
        // A new session, or an input loadInput could not diff
        // (layout/symbols changed, so the session reset): rewrite
        // it in full.
        const RewriteResult &rw =
            resident.session->rewrite(resident.opts);
        if (!rw.ok) {
            error = "rewrite failed: " + rw.failReason;
            if (fresh)
                resident.session.reset();
            return false;
        }
    } else if (!resident.session->lastResult().ok) {
        error = "incremental rewrite failed: " +
                resident.session->lastResult().failReason;
        return false;
    }

    const RewriteResult &rw = resident.session->lastResult();
    resident.outputBytes = rw.image.serialize();
    resident.stampMtimeNs = mtime_ns;
    resident.stampSize = size;
    resident.residentBytes =
        size + resident.outputBytes.size() + (64u << 10);

    reply.set("incremental", std::uint64_t{incremental ? 1u : 0u});
    reply.set("cached", std::uint64_t{0});
    reply.set("dirty", dirty);
    reply.set("emitted",
              std::uint64_t{rw.stats.relocEmittedFunctions});
    reply.set("reused",
              std::uint64_t{rw.stats.relocReusedFunctions});
    reply.set("functions", std::uint64_t{rw.stats.totalFunctions});
    return true;
}

ServeMessage
ServeServer::badField(const std::string &key, const std::string &value)
{
    return errorReply("bad-request",
                      "malformed field " + key + "=" + value);
}

ServeMessage
ServeServer::withSession(const ServeMessage &request,
                         const SessionVerb &verb)
{
    const std::string path = request.get("path");
    if (path.empty())
        return errorReply("bad-request",
                          request.verb + " needs path=");
    RewriteOptions options = flagDefaultOptions();
    options.threads = opts_.threads;
    if (const auto *bad = applyFlagFields(request, options))
        return badField(bad->first, bad->second);
    // The selective splice on loadInput needs the manifest.
    options.lint = true;

    bool warm = false;
    std::string error;
    auto resident = ensureResident(path, options, warm, error);
    if (!resident)
        return errorReply("bad-input", error);

    ServeMessage reply;
    reply.verb = "ok";
    reply.set("warm", std::uint64_t{warm ? 1u : 0u});
    std::lock_guard<std::mutex> lock(resident->mu);
    if (!refreshResident(*resident, reply, error))
        return errorReply("rewrite-failed", error);
    evictOverBudget(resident.get());
    verb(*resident, reply);
    return reply;
}

ServeMessage
ServeServer::handleOpen(const ServeMessage &request)
{
    return withSession(request, [](Resident &resident,
                                   ServeMessage &reply) {
        reply.set("resident_bytes", resident.residentBytes);
        reply.set("trampolines",
                  resident.session->lastResult().stats.trampolines);
    });
}

ServeMessage
ServeServer::handleRewrite(const ServeMessage &request)
{
    const std::string out = request.get("out");
    if (out.empty())
        return errorReply("bad-request", "rewrite needs out=");
    return withSession(request, [&](Resident &resident,
                                    ServeMessage &reply) {
        if (!writeFile(out, resident.outputBytes)) {
            reply = errorReply("io", "cannot write " + out);
            return;
        }
        reply.set("out_bytes",
                  std::uint64_t{resident.outputBytes.size()});
    });
}

ServeMessage
ServeServer::handleLint(const ServeMessage &request)
{
    const std::string fail_on_field = request.get("fail_on");
    const auto fail_on = parseSeverity(
        fail_on_field.empty() ? "error" : fail_on_field);
    if (!fail_on)
        return badField("fail_on", fail_on_field);
    return withSession(request, [&](Resident &resident,
                                    ServeMessage &reply) {
        LintOptions lopts;
        lopts.failOn = *fail_on;
        lopts.threads = resident.opts.threads;
        const LintReport &report = resident.session->lint(lopts);
        reply.set("errors",
                  std::uint64_t{report.countAtLeast(Severity::error)});
        reply.set(
            "warnings",
            std::uint64_t{report.countAtLeast(Severity::warning)});
        reply.set("findings", std::uint64_t{report.findings.size()});
        // Functions re-checked: after an edit, the ones it changed
        // (the rest carried over); every function for a full lint.
        reply.set("relinted",
                  report.relintedFunctions.value_or(
                      resident.session->lastResult()
                          .stats.totalFunctions));
        reply.set("fail",
                  std::uint64_t{report.failed(*fail_on) ? 1u : 0u});
        // First few findings ride along for context; the full report
        // stays a one-shot `icp lint` away.
        unsigned listed = 0;
        for (const Diagnostic &d : report.findings) {
            if (listed == 5)
                break;
            char key[24];
            std::snprintf(key, sizeof(key), "finding.%u", listed++);
            reply.set(key, d.rule + ": " + d.message);
        }
    });
}

ServeMessage
ServeServer::handleRepair(const ServeMessage &request)
{
    const std::string iters_field = request.get("iterations", "2");
    bool bad = false;
    const auto iters = static_cast<unsigned>(
        numberArg(iters_field.c_str(), 1, UINT_MAX, &bad));
    if (bad)
        return badField("iterations", iters_field);
    return withSession(request, [&](Resident &resident,
                                    ServeMessage &reply) {
        LintOptions lopts;
        lopts.threads = resident.opts.threads;
        resident.session->lint(lopts);
        const auto outcome =
            resident.session->repairToFixedPoint(iters);
        // Repair may have re-emitted functions; refresh the cached
        // output bytes so the next rewrite serves the repaired image.
        resident.outputBytes =
            resident.session->lastResult().image.serialize();
        reply.set("iterations", std::uint64_t{outcome.iterations});
        reply.set("repaired",
                  std::uint64_t{outcome.repairedFunctions.size()});
        reply.set("demoted",
                  std::uint64_t{outcome.demotedFunctions.size()});
        reply.set("converged",
                  std::uint64_t{outcome.converged ? 1u : 0u});
    });
}

ServeMessage
ServeServer::handleDeps(const ServeMessage &request)
{
    return withSession(request, [](Resident &resident,
                                   ServeMessage &reply) {
        std::uint64_t with_reads = 0, ranges = 0, bytes = 0;
        for (const auto &[entry, func] :
             resident.session->analyze().functions) {
            (void)entry;
            if (func.dataDeps.empty())
                continue;
            ++with_reads;
            ranges += func.dataDeps.size();
            bytes += func.dataDeps.totalBytes();
        }
        reply.set("functions_with_reads", with_reads);
        reply.set("ranges", ranges);
        reply.set("bytes", bytes);
    });
}

ServeMessage
ServeServer::handleStats(const ServeMessage &request)
{
    (void)request;
    const ServeStatsSnapshot snap = statsSnapshot();
    ServeMessage reply;
    reply.verb = "ok";
    for (const auto &[name, value] : metrics_.counters())
        reply.set(name.substr(std::strlen("serve.")), value);
    reply.set("resident_sessions",
              std::uint64_t{snap.residentSessions});
    reply.set("resident_bytes", snap.residentBytes);
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.3f", snap.p50Ms);
    reply.set("p50_ms", ms);
    std::snprintf(ms, sizeof(ms), "%.3f", snap.p99Ms);
    reply.set("p99_ms", ms);
    std::snprintf(ms, sizeof(ms), "%.3f", snap.maxMs);
    reply.set("max_ms", ms);
    return reply;
}

ServeStatsSnapshot
ServeServer::statsSnapshot() const
{
    ServeStatsSnapshot snap;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        snap.residentSessions =
            static_cast<unsigned>(sessions_.size());
        for (const auto &[key, resident] : sessions_) {
            (void)key;
            snap.residentBytes += resident->residentBytes;
        }
    }
    {
        std::lock_guard<std::mutex> lock(latencyMu_);
        snap.p50Ms = latency_.percentile(50.0);
        snap.p99Ms = latency_.percentile(99.0);
        snap.maxMs = latency_.max();
    }
    return snap;
}

ServeMessage
ServeServer::errorReply(const std::string &code,
                        const std::string &message)
{
    ServeMessage reply;
    reply.verb = "error";
    reply.set("code", code);
    reply.set("error", message);
    errors_.add();
    return reply;
}

void
ServeServer::noteLatency(double ms)
{
    std::lock_guard<std::mutex> lock(latencyMu_);
    latency_.add(ms);
}

} // namespace icp
