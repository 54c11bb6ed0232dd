/**
 * @file
 * The `icp serve` daemon: a long-lived server holding warm
 * RewriteSessions keyed by binary path, answering rewrite / lint /
 * repair / deps requests over a Unix-domain socket so a CI fleet
 * pays process startup and the mmap'd cache load once instead of
 * per invocation (the ROADMAP's hot-session item).
 *
 * Resident sessions form an LRU with a byte budget: when the sum of
 * per-session resident bytes (input file + cached output) exceeds
 * ServeOptions::sessionMaxBytes, least-recently-used sessions are
 * evicted first — the same oldest-first policy as `--cache-max-bytes`
 * cache compaction. An evicted binary transparently re-opens cold on
 * its next request (their analysis entries usually survive in the
 * process-wide AnalysisCache, so "cold" is still warm-memory).
 *
 * Concurrency: the accept loop dispatches each connection onto the
 * process-wide ThreadPool (ThreadPool::submit); a per-session mutex
 * serializes requests against the same binary while distinct
 * binaries proceed in parallel. A `rewrite` against a warm session
 * whose input file changed goes through RewriteSession::loadInput's
 * per-function change test, so a one-function edit re-analyzes and
 * re-emits exactly one function.
 *
 * Robustness: per-request socket timeouts, structured "error"
 * replies for malformed frames and failed operations (a broken
 * request never kills a worker), and graceful drain — SIGTERM (via
 * requestDrain(), which is async-signal-safe) stops the accept loop,
 * lets in-flight requests finish, delta-saves every session's
 * on-disk cache, and removes the socket and lock files. A SIGKILL'd
 * daemon leaves both files behind; the flock-based lock means a
 * restart detects the stale socket and rebinds instead of wedging.
 */

#ifndef ICP_SERVE_SERVER_HH
#define ICP_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "rewrite/session.hh"
#include "serve/protocol.hh"
#include "support/stats.hh"

namespace icp
{

struct ServeOptions
{
    /** Unix-domain socket path to listen on. */
    std::string socketPath;

    /**
     * Byte budget for resident sessions (0 = unbounded). Evicts
     * least-recently-used sessions until the total fits, mirroring
     * the oldest-first `--cache-max-bytes` eviction policy.
     */
    std::uint64_t sessionMaxBytes = 0;

    /** Hard cap on resident session count (0 = none). */
    unsigned maxSessions = 0;

    /** Per-request socket read/write timeout (<= 0 = none). */
    int requestTimeoutMs = 30000;

    /**
     * Bound on accepted-but-unfinished connections (0 = unbounded).
     * When the bound is reached the accept loop drains each new
     * connection's request frame, answers it with a structured
     * `error` reply (code "busy"), and closes it — so an overloaded
     * daemon sheds load in milliseconds instead of queueing
     * unbounded work behind the thread pool. Rejections count in
     * the server's `serve.rejected` counter.
     */
    unsigned maxPending = 0;

    /** Default worker threads for sessions opened without an
     *  explicit threads field. 0 = hardware concurrency. */
    unsigned threads = 0;
};

/** Snapshot of the daemon's residency and latency (the `stats` verb
 *  adds the counters of ServeServer::metrics()). */
struct ServeStatsSnapshot
{
    unsigned residentSessions = 0;
    std::uint64_t residentBytes = 0;

    /** Request latency percentiles in milliseconds (0 when empty). */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;
};

class ServeServer
{
  public:
    explicit ServeServer(ServeOptions options);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Acquire the lock file (`<socket>.lock`), replace any stale
     * socket, bind, and listen. False with @p error set when another
     * daemon holds the lock or the socket cannot be created.
     */
    bool start(std::string &error);

    /**
     * Accept/dispatch until drained. Returns 0 after a clean drain
     * (all in-flight requests finished, caches delta-saved, socket
     * and lock files removed), 1 on accept-loop failure.
     */
    int run();

    /**
     * Begin graceful drain: refuse new connections, finish in-flight
     * requests, then return from run(). Async-signal-safe (an atomic
     * store plus a self-pipe write), so SIGTERM handlers call it
     * directly.
     */
    void requestDrain();

    ServeStatsSnapshot statsSnapshot() const;

    /**
     * This server's `serve.*` counters: requests, structured error
     * replies, warm-session hits and misses, LRU evictions, request
     * timeouts, malformed frames, and connections shed at
     * --max-pending. Each server counts only its own traffic.
     */
    const Metrics &metrics() const { return metrics_; }

    const ServeOptions &options() const { return opts_; }

  private:
    /** One resident session plus its bookkeeping. */
    struct Resident
    {
        std::mutex mu; ///< serializes requests on this binary

        std::string key;       ///< canonical binary path
        RewriteOptions opts;   ///< options it was opened under

        /** Null until the first rewrite succeeds. */
        std::unique_ptr<RewriteSession> session;

        /** Serialized output of the last rewrite (what a one-shot
         *  `icp rewrite` would have written), reused verbatim when
         *  the input file is unchanged. */
        std::vector<std::uint8_t> outputBytes;

        /** Input-file stamp at last load (mtime ns, size). */
        std::uint64_t stampMtimeNs = 0;
        std::uint64_t stampSize = 0;

        std::uint64_t residentBytes = 0;
        std::uint64_t lastUse = 0; ///< LRU tick
    };

    void handleConnection(int fd);

    /**
     * Dispatch one parsed request to its verb handler; never throws
     * (failures become "error" replies).
     */
    ServeMessage handleRequest(const ServeMessage &request);

    ServeMessage handleOpen(const ServeMessage &request);
    ServeMessage handleRewrite(const ServeMessage &request);
    ServeMessage handleLint(const ServeMessage &request);
    ServeMessage handleRepair(const ServeMessage &request);
    ServeMessage handleDeps(const ServeMessage &request);
    ServeMessage handleStats(const ServeMessage &request);

    /** A structured "error" reply; counts `serve.errors`. */
    ServeMessage errorReply(const std::string &code,
                            const std::string &message);

    /** The bad-request reply naming a malformed field. */
    ServeMessage badField(const std::string &key,
                          const std::string &value);

    /** One session verb's own work, under the session lock. */
    using SessionVerb = std::function<void(Resident &, ServeMessage &)>;

    /**
     * The prologue of the session verbs: check path=, apply the flag
     * fields (a malformed one is a bad-request before any session
     * exists), find or open the session, lock it, refresh it, evict
     * over budget; then run @p verb. Options bind when the session
     * opens; later requests' flag fields are only validated.
     */
    ServeMessage withSession(const ServeMessage &request,
                             const SessionVerb &verb);

    /**
     * Look up or create (under @p options) the resident session for
     * @p path. Sets @p warm to whether it was already resident and
     * bumps the LRU tick.
     */
    std::shared_ptr<Resident>
    ensureResident(const std::string &path,
                   const RewriteOptions &options, bool &warm,
                   std::string &error);

    /**
     * Bring @p resident up to date with its input file: (re)load
     * when the stamp changed, run the first rewrite, or reuse the
     * previous result. Caller holds resident->mu. Returns false
     * with @p error on unreadable/undecodable input or a failed
     * rewrite; @p reply receives the warm/dirty/emitted fields.
     */
    bool refreshResident(Resident &resident, ServeMessage &reply,
                        std::string &error);

    /** Evict LRU sessions past the byte/count budget (not @p keep). */
    void evictOverBudget(const Resident *keep);

    void noteLatency(double ms);

    ServeOptions opts_;
    Metrics metrics_;
    Counter requests_;
    Counter errors_;
    Counter sessionHits_;
    Counter sessionMisses_;
    Counter evictions_;
    Counter timeouts_;
    Counter badFrames_;
    Counter rejected_;
    std::string lockPath_;
    int listenFd_ = -1;
    int lockFd_ = -1;
    int drainPipe_[2] = {-1, -1};
    std::atomic<bool> draining_{false};

    mutable std::mutex registryMu_;
    std::map<std::string, std::shared_ptr<Resident>> sessions_;
    std::uint64_t tick_ = 0;

    std::mutex inflightMu_;
    std::condition_variable inflightCv_;
    unsigned inflight_ = 0;

    mutable std::mutex latencyMu_;
    LatencyHistogram latency_;
};

} // namespace icp

#endif // ICP_SERVE_SERVER_HH
