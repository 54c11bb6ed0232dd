/**
 * @file
 * Tests for the `icp serve` daemon of src/serve/: protocol framing
 * round-trips and degrades to structured errors (truncated,
 * oversized, garbage frames never crash a worker), resident sessions
 * answer warm rewrites through loadInput's one-function invalidation
 * byte-identically to one-shot rewrites, LRU eviction under a tiny
 * budget re-opens evicted binaries correctly, concurrent clients on
 * distinct binaries stay isolated, a drain completes in-flight
 * requests before removing the socket and lock files, and seeded
 * mutations of captured request frames or malformed SBF inputs end
 * in a structured reply, never a dead daemon.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/cache.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "crafted_sbf.hh"
#include "rewrite/session.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/random.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

/** The daemon's session defaults (a request with no flag fields). */
RewriteOptions
serveDefaultOptions()
{
    RewriteOptions opts = flagDefaultOptions();
    opts.lint = true;
    return opts;
}

bool
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Flip the low bit of one AddImm immediate in place (same encoded
 * length) so exactly one function changes — the dirty-function probe
 * of test_session.cc. Returns the victim function's name.
 */
std::string
mutateOneImmediate(BinaryImage &img)
{
    const Codec &codec = *img.archInfo().codec;
    for (const Symbol *sym : img.functionSymbols()) {
        std::vector<std::uint8_t> body;
        if (!img.readBytes(sym->addr, sym->size, body))
            continue;
        Addr addr = sym->addr;
        std::size_t off = 0;
        while (off < body.size()) {
            Instruction in;
            if (!codec.decode(body.data() + off, body.size() - off,
                              addr, in) ||
                in.length == 0)
                break;
            if (in.op == Opcode::AddImm && in.imm > 1) {
                Instruction edit = in;
                edit.imm = in.imm ^ 1;
                std::vector<std::uint8_t> enc;
                if (codec.encode(edit, addr, enc) &&
                    enc.size() == in.length) {
                    EXPECT_TRUE(img.writeBytes(addr, enc));
                    return sym->name;
                }
            }
            off += in.length;
            addr += in.length;
        }
    }
    return "";
}

/** Run one ServeServer on its own thread for a test's lifetime. */
class DaemonFixture
{
  public:
    explicit DaemonFixture(const std::string &tag,
                           ServeOptions opts = ServeOptions{})
    {
        opts.socketPath = "/tmp/icp_test_serve_" + tag + ".sock";
        std::remove(opts.socketPath.c_str());
        std::remove((opts.socketPath + ".lock").c_str());
        server_ = std::make_unique<ServeServer>(opts);
        std::string error;
        started_ = server_->start(error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            thread_ = std::thread([this] { rc_ = server_->run(); });
    }

    ~DaemonFixture() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_->requestDrain();
            thread_.join();
        }
    }

    const std::string &
    socketPath() const
    {
        return server_->options().socketPath;
    }

    ServeServer &server() { return *server_; }
    int exitCode() const { return rc_; }

    ServeMessage
    call(const ServeMessage &request)
    {
        ServeMessage reply;
        std::string error;
        if (!serveCall(socketPath(), request, reply, error))
            reply.verb = "transport-error: " + error;
        return reply;
    }

  private:
    std::unique_ptr<ServeServer> server_;
    std::thread thread_;
    bool started_ = false;
    int rc_ = -1;
};

/** Raw client connection for protocol-abuse tests. */
int
rawConnect(const std::string &socket_path)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size());
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

/** Request payloads a client sends, as the daemon receives them. */
std::vector<std::vector<std::uint8_t>>
capturedRequests(const std::string &sbf_path, bool with_writes)
{
    std::vector<ServeMessage> requests(6);
    requests[0].verb = "ping";
    requests[1].verb = "stats";
    requests[2].verb = "open";
    requests[2].set("path", sbf_path);
    requests[3].verb = "open";
    requests[3].set("path", sbf_path);
    requests[3].set("mode", "jt");
    requests[3].set("threads", std::uint64_t{1});
    requests[3].set("count_blocks", std::uint64_t{1});
    requests[4].verb = "lint";
    requests[4].set("path", sbf_path);
    requests[4].set("fail_on", "warning");
    requests[5].verb = "deps";
    requests[5].set("path", sbf_path);
    if (with_writes) {
        ServeMessage rewrite;
        rewrite.verb = "rewrite";
        rewrite.set("path", sbf_path);
        rewrite.set("out", sbf_path + ".out");
        requests.push_back(rewrite);
        ServeMessage shutdown;
        shutdown.verb = "shutdown";
        requests.push_back(shutdown);
    }
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const ServeMessage &request : requests)
        payloads.push_back(encodeServePayload(request));
    return payloads;
}

/** One seeded mutation: 1-3 bit flips, or a cut at a random length. */
std::vector<std::uint8_t>
mutatePayload(std::vector<std::uint8_t> bytes, Rng &rng)
{
    if (rng.chance(0.25)) {
        bytes.resize(rng.range(0, bytes.size() - 1));
        return bytes;
    }
    for (std::uint64_t n = rng.range(1, 3); n > 0; --n)
        bytes[rng.range(0, bytes.size() - 1)] ^= 1u << rng.range(0, 7);
    return bytes;
}

} // namespace

// --- protocol framing -----------------------------------------------------

TEST(ServeProtocol, PayloadRoundTrip)
{
    ServeMessage msg;
    msg.verb = "rewrite";
    msg.set("path", "/tmp/a.sbf");
    msg.set("threads", std::uint64_t{4});
    msg.set("note", "value with = signs == kept");

    const auto payload = encodeServePayload(msg);
    ServeMessage back;
    std::string error;
    ASSERT_TRUE(parseServePayload(payload.data(), payload.size(),
                                  back, error))
        << error;
    EXPECT_EQ(back.verb, "rewrite");
    EXPECT_EQ(back.get("path"), "/tmp/a.sbf");
    EXPECT_EQ(back.getU64("threads"), 4u);
    EXPECT_EQ(back.get("note"), "value with = signs == kept");
    EXPECT_EQ(back.getU64("absent", 7), 7u);
}

TEST(ServeProtocol, EncoderFoldsNewlinesIntoSpaces)
{
    ServeMessage msg;
    msg.verb = "ok";
    msg.set("error", "line one\nline two");
    const auto payload = encodeServePayload(msg);
    ServeMessage back;
    std::string error;
    ASSERT_TRUE(parseServePayload(payload.data(), payload.size(),
                                  back, error));
    EXPECT_EQ(back.get("error"), "line one line two");
}

TEST(ServeProtocol, ParseRejectsGarbage)
{
    ServeMessage out;
    std::string error;

    EXPECT_FALSE(parseServePayload(nullptr, 0, out, error));

    const std::string bad_verb = "NOT A VERB\nk=v\n";
    EXPECT_FALSE(parseServePayload(
        reinterpret_cast<const std::uint8_t *>(bad_verb.data()),
        bad_verb.size(), out, error));

    const std::string bad_field = "ping\nno-equals-here\n";
    EXPECT_FALSE(parseServePayload(
        reinterpret_cast<const std::uint8_t *>(bad_field.data()),
        bad_field.size(), out, error));

    const std::string with_nul = std::string("ping\nk=v") + '\0';
    EXPECT_FALSE(parseServePayload(
        reinterpret_cast<const std::uint8_t *>(with_nul.data()),
        with_nul.size(), out, error));

    const std::vector<std::uint8_t> binary = {0xff, 0xfe, 0x00,
                                              0x01, 0x80};
    EXPECT_FALSE(parseServePayload(binary.data(), binary.size(), out,
                                   error));
}

TEST(ServeProtocol, FrameReadDegradesStructurally)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ServeMessage out;
    std::string error;

    // Truncated: a length prefix promising more than is sent.
    const std::uint8_t hungry[4] = {16, 0, 0, 0};
    ASSERT_EQ(write(fds[0], hungry, 4), 4);
    ASSERT_EQ(write(fds[0], "abc", 3), 3);
    close(fds[0]);
    EXPECT_EQ(readServeFrame(fds[1], out, 1000, error),
              FrameStatus::malformed);
    close(fds[1]);

    // Oversized: declared payload above the cap.
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::uint8_t head[4];
    for (unsigned b = 0; b < 4; ++b)
        head[b] = static_cast<std::uint8_t>((huge >> (8 * b)) & 0xff);
    ASSERT_EQ(write(fds[0], head, 4), 4);
    EXPECT_EQ(readServeFrame(fds[1], out, 1000, error),
              FrameStatus::oversized);
    close(fds[0]);
    close(fds[1]);

    // Zero-length frames are malformed, not empty messages.
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::uint8_t zero[4] = {0, 0, 0, 0};
    ASSERT_EQ(write(fds[0], zero, 4), 4);
    EXPECT_EQ(readServeFrame(fds[1], out, 1000, error),
              FrameStatus::malformed);
    close(fds[0]);
    close(fds[1]);

    // A stalled peer times out rather than hanging the worker.
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_EQ(readServeFrame(fds[1], out, 50, error),
              FrameStatus::timeout);
    close(fds[0]);
    close(fds[1]);

    // Orderly EOF before any byte is a close, not an error.
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    close(fds[0]);
    EXPECT_EQ(readServeFrame(fds[1], out, 1000, error),
              FrameStatus::closed);
    close(fds[1]);
}

TEST(ServeProtocol, MutatedPayloadsParseOrFailStructurally)
{
    // Every mutated payload either fails with a reason or parses to
    // a message that survives its own encoding unchanged.
    Rng rng(0x5e7e);
    const auto payloads =
        capturedRequests("/tmp/icp_test_serve_fuzz.sbf", true);
    unsigned parsed = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const auto bytes =
            mutatePayload(payloads[trial % payloads.size()], rng);
        ServeMessage msg;
        std::string error;
        if (!parseServePayload(bytes.data(), bytes.size(), msg, error)) {
            EXPECT_FALSE(error.empty());
            continue;
        }
        ++parsed;
        const auto again = encodeServePayload(msg);
        ServeMessage back;
        ASSERT_TRUE(parseServePayload(again.data(), again.size(), back,
                                      error))
            << error;
        EXPECT_EQ(back.verb, msg.verb);
        EXPECT_EQ(back.fields, msg.fields);
    }
    EXPECT_GT(parsed, 0u);
}

// --- daemon behavior ------------------------------------------------------

TEST(ServeDaemon, AnswersPingStatsAndUnknownVerbs)
{
    DaemonFixture daemon("ping");

    ServeMessage ping;
    ping.verb = "ping";
    EXPECT_EQ(daemon.call(ping).verb, "ok");

    ServeMessage stats;
    stats.verb = "stats";
    const ServeMessage reply = daemon.call(stats);
    ASSERT_EQ(reply.verb, "ok");
    EXPECT_GE(reply.getU64("requests"), 1u);

    ServeMessage bogus;
    bogus.verb = "frobnicate";
    const ServeMessage err = daemon.call(bogus);
    EXPECT_EQ(err.verb, "error");
    EXPECT_EQ(err.get("code"), "bad-verb");

    // Operational errors are structured replies too.
    ServeMessage missing;
    missing.verb = "open";
    missing.set("path", "/tmp/definitely_missing_input.sbf");
    EXPECT_EQ(daemon.call(missing).verb, "error");
}

TEST(ServeDaemon, MalformedFieldsAreBadRequestsBeforeAnySession)
{
    // Every session verb applies the flag fields through the flags'
    // own setters: a malformed value is a bad-request naming the
    // field, never a silent default, and no session is created.
    const std::string in_path = "/tmp/icp_test_serve_fields.sbf";
    ASSERT_TRUE(writeFileBytes(
        in_path,
        compileProgram(microProfile(Arch::x64, true)).serialize()));
    DaemonFixture daemon("fields");
    const auto expectBadField = [&](const char *verb, const char *key,
                                    const char *value) {
        ServeMessage req;
        req.verb = verb;
        req.set("path", in_path);
        req.set("out", "/tmp/icp_test_serve_fields_out.sbf");
        req.set(key, value);
        const ServeMessage reply = daemon.call(req);
        EXPECT_EQ(reply.verb, "error") << verb << " " << key;
        EXPECT_EQ(reply.get("code"), "bad-request") << verb << " " << key;
        EXPECT_NE(reply.get("error").find(key), std::string::npos)
            << reply.get("error");
    };
    for (const char *verb : {"open", "rewrite", "lint", "repair", "deps"})
        for (const auto &[key, value] :
             {std::pair{"mode", "bogus"}, {"threads", "2x"},
              {"count_blocks", "2"}, {"cache_max_bytes", "1k"}})
            expectBadField(verb, key, value);
    expectBadField("repair", "iterations", "-1");
    expectBadField("lint", "fail_on", "fatal");

    ServeMessage stats;
    stats.verb = "stats";
    const ServeMessage snap = daemon.call(stats);
    ASSERT_EQ(snap.verb, "ok");
    EXPECT_EQ(snap.getU64("resident_sessions"), 0u);
    EXPECT_EQ(snap.getU64("session_misses"), 0u);
}

TEST(ServeDaemon, TwoServersReportDisjointStats)
{
    // Each server owns its counters: traffic to one never shows in
    // the other's `stats` reply.
    DaemonFixture a("stats_a");
    DaemonFixture b("stats_b");

    ServeMessage ping;
    ping.verb = "ping";
    ServeMessage bogus;
    bogus.verb = "frobnicate";
    ServeMessage stats;
    stats.verb = "stats";

    EXPECT_EQ(a.call(ping).verb, "ok");
    EXPECT_EQ(a.call(ping).verb, "ok");
    EXPECT_EQ(b.call(bogus).verb, "error");

    const ServeMessage sa = a.call(stats);
    const ServeMessage sb = b.call(stats);
    ASSERT_EQ(sa.verb, "ok");
    ASSERT_EQ(sb.verb, "ok");
    EXPECT_EQ(sa.getU64("requests"), 3u);
    EXPECT_EQ(sa.getU64("errors"), 0u);
    EXPECT_EQ(sb.getU64("requests"), 2u);
    EXPECT_EQ(sb.getU64("errors"), 1u);
}

TEST(ServeDaemon, BadFramesGetStructuredErrorsNotCrashes)
{
    DaemonFixture daemon("abuse");

    // Garbage payload: parses as a frame, fails as a message.
    int fd = rawConnect(daemon.socketPath());
    ASSERT_GE(fd, 0);
    const std::string garbage = "\x07\x03***!!";
    const std::uint32_t len =
        static_cast<std::uint32_t>(garbage.size());
    std::uint8_t head[4];
    for (unsigned b = 0; b < 4; ++b)
        head[b] = static_cast<std::uint8_t>((len >> (8 * b)) & 0xff);
    ASSERT_EQ(write(fd, head, 4), 4);
    ASSERT_EQ(write(fd, garbage.data(), garbage.size()),
              static_cast<ssize_t>(garbage.size()));
    ServeMessage reply;
    std::string error;
    ASSERT_EQ(readServeFrame(fd, reply, 5000, error),
              FrameStatus::ok)
        << error;
    EXPECT_EQ(reply.verb, "error");
    EXPECT_EQ(reply.get("code"), "malformed");
    close(fd);

    // Oversized declared length: refused before any payload read.
    fd = rawConnect(daemon.socketPath());
    ASSERT_GE(fd, 0);
    const std::uint32_t huge = kMaxFramePayload + 1;
    for (unsigned b = 0; b < 4; ++b)
        head[b] = static_cast<std::uint8_t>((huge >> (8 * b)) & 0xff);
    ASSERT_EQ(write(fd, head, 4), 4);
    ASSERT_EQ(readServeFrame(fd, reply, 5000, error),
              FrameStatus::ok)
        << error;
    EXPECT_EQ(reply.verb, "error");
    EXPECT_EQ(reply.get("code"), "oversized");
    close(fd);

    // Truncated frame: bytes promised, connection dropped.
    fd = rawConnect(daemon.socketPath());
    ASSERT_GE(fd, 0);
    const std::uint8_t hungry[4] = {64, 0, 0, 0};
    ASSERT_EQ(write(fd, hungry, 4), 4);
    ASSERT_EQ(write(fd, "xy", 2), 2);
    shutdown(fd, SHUT_WR);
    ASSERT_EQ(readServeFrame(fd, reply, 5000, error),
              FrameStatus::ok)
        << error;
    EXPECT_EQ(reply.verb, "error");
    EXPECT_EQ(reply.get("code"), "malformed");
    close(fd);

    // After all that abuse, the daemon still answers politely.
    ServeMessage ping;
    ping.verb = "ping";
    EXPECT_EQ(daemon.call(ping).verb, "ok");

    EXPECT_GE(daemon.server().metrics().counters().at("serve.bad_frames"), 3u);
}

TEST(ServeDaemon, WarmRewriteIsIncrementalAndByteIdentical)
{
    AnalysisCache::global().clear();
    const std::string in_path = "/tmp/icp_test_serve_in.sbf";
    const std::string out_path = "/tmp/icp_test_serve_out.sbf";
    const BinaryImage base = compileProgram(microProfile(Arch::x64, true));
    ASSERT_TRUE(writeFileBytes(in_path, base.serialize()));

    DaemonFixture daemon("warm");

    ServeMessage rewrite;
    rewrite.verb = "rewrite";
    rewrite.set("path", in_path);
    rewrite.set("out", out_path);

    // Cold first request: a fresh session, full emission.
    ServeMessage first = daemon.call(rewrite);
    ASSERT_EQ(first.verb, "ok");
    EXPECT_EQ(first.getU64("warm"), 0u);
    EXPECT_GT(first.getU64("emitted"), 0u);

    // One-shot ground truth under the daemon's default options.
    RewriteSession oneshot(base);
    const RewriteResult &rw = oneshot.rewrite(serveDefaultOptions());
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_EQ(readFileBytes(out_path), rw.image.serialize());

    // Unchanged input, warm session: answered from the cached
    // result without re-analysis.
    ServeMessage second = daemon.call(rewrite);
    ASSERT_EQ(second.verb, "ok");
    EXPECT_EQ(second.getU64("warm"), 1u);
    EXPECT_EQ(second.getU64("cached"), 1u);
    EXPECT_EQ(second.getU64("dirty"), 0u);
    EXPECT_EQ(readFileBytes(out_path), rw.image.serialize());

    // One-function edit: loadInput's overlap-keyed invalidation
    // re-analyzes and re-emits exactly the victim.
    BinaryImage edited = compileProgram(microProfile(Arch::x64, true));
    const std::string victim = mutateOneImmediate(edited);
    ASSERT_FALSE(victim.empty());
    ASSERT_TRUE(writeFileBytes(in_path, edited.serialize()));

    ServeMessage third = daemon.call(rewrite);
    ASSERT_EQ(third.verb, "ok");
    EXPECT_EQ(third.getU64("warm"), 1u);
    EXPECT_EQ(third.getU64("incremental"), 1u);
    EXPECT_EQ(third.getU64("dirty"), 1u);
    EXPECT_EQ(third.getU64("emitted"), 1u);

    RewriteSession cold(edited);
    const RewriteResult &cold_rw =
        cold.rewrite(serveDefaultOptions());
    ASSERT_TRUE(cold_rw.ok);
    EXPECT_EQ(readFileBytes(out_path), cold_rw.image.serialize());

    daemon.stop();
    EXPECT_EQ(daemon.exitCode(), 0);
    std::remove(in_path.c_str());
    std::remove(out_path.c_str());
}

/**
 * An in-place one-function edit followed by a lint: the session's
 * lint re-checks only the function the edit changed (the reply's
 * relinted equals its dirty count) and carries the rest of the
 * previous report, and its error and warning counts equal a one-shot
 * lint of a cold rewrite of the edited input.
 */
TEST(ServeDaemon, LintAfterAnEditRechecksOnlyTheEditedFunction)
{
    AnalysisCache::global().clear();
    const std::string in_path = "/tmp/icp_test_serve_relint.sbf";
    const BinaryImage base = compileProgram(microProfile(Arch::x64, true));
    ASSERT_TRUE(writeFileBytes(in_path, base.serialize()));

    DaemonFixture daemon("relint");
    ServeMessage lint;
    lint.verb = "lint";
    lint.set("path", in_path);
    lint.set("fail_on", "warning");

    // The first lint of a session runs in full.
    const ServeMessage first = daemon.call(lint);
    ASSERT_EQ(first.verb, "ok");
    EXPECT_EQ(first.getU64("relinted"), first.getU64("functions"));

    BinaryImage edited = base;
    ASSERT_FALSE(mutateOneImmediate(edited).empty());
    const RewriteResult rw = rewriteBinary(edited, serveDefaultOptions());
    ASSERT_TRUE(rw.ok) << rw.failReason;
    const LintReport oneshot = lintRewrite(edited, rw);
    ASSERT_TRUE(writeFileBytes(in_path, edited.serialize()));

    const ServeMessage second = daemon.call(lint);
    ASSERT_EQ(second.verb, "ok");
    EXPECT_EQ(second.getU64("incremental"), 1u);
    EXPECT_EQ(second.getU64("dirty"), 1u);
    EXPECT_EQ(second.getU64("relinted"), second.getU64("dirty"));
    EXPECT_EQ(second.getU64("errors"),
              oneshot.countAtLeast(Severity::error));
    EXPECT_EQ(second.getU64("warnings"),
              oneshot.countAtLeast(Severity::warning));
    EXPECT_EQ(second.getU64("findings"), oneshot.findings.size());

    daemon.stop();
    EXPECT_EQ(daemon.exitCode(), 0);
    std::remove(in_path.c_str());
}

TEST(ServeDaemon, LruEvictionUnderTinyBudgetReopensCorrectly)
{
    AnalysisCache::global().clear();
    const std::string path_a = "/tmp/icp_test_serve_lru_a.sbf";
    const std::string path_b = "/tmp/icp_test_serve_lru_b.sbf";
    const std::string out_a = "/tmp/icp_test_serve_lru_a_out.sbf";
    const BinaryImage img_a =
        compileProgram(microProfile(Arch::x64, true));
    const BinaryImage img_b =
        compileProgram(microProfile(Arch::aarch64, true));
    ASSERT_TRUE(writeFileBytes(path_a, img_a.serialize()));
    ASSERT_TRUE(writeFileBytes(path_b, img_b.serialize()));

    // A one-byte budget: any second resident session forces the
    // least-recently-used one out.
    ServeOptions opts;
    opts.sessionMaxBytes = 1;
    DaemonFixture daemon("lru", opts);
    const Metrics &metrics = daemon.server().metrics();
    const std::uint64_t evictions_before =
        metrics.counters().at("serve.evictions");

    ServeMessage open_a;
    open_a.verb = "open";
    open_a.set("path", path_a);
    ASSERT_EQ(daemon.call(open_a).verb, "ok");

    ServeMessage open_b;
    open_b.verb = "open";
    open_b.set("path", path_b);
    ASSERT_EQ(daemon.call(open_b).verb, "ok");

    EXPECT_GE(metrics.counters().at("serve.evictions"),
              evictions_before + 1);
    EXPECT_LE(daemon.server().statsSnapshot().residentSessions, 1u);

    // The evicted binary transparently re-opens cold and still
    // produces the one-shot bytes.
    ServeMessage rewrite_a;
    rewrite_a.verb = "rewrite";
    rewrite_a.set("path", path_a);
    rewrite_a.set("out", out_a);
    const ServeMessage reply = daemon.call(rewrite_a);
    ASSERT_EQ(reply.verb, "ok");
    EXPECT_EQ(reply.getU64("warm"), 0u);

    RewriteSession oneshot(img_a);
    const RewriteResult &rw =
        oneshot.rewrite(serveDefaultOptions());
    ASSERT_TRUE(rw.ok);
    EXPECT_EQ(readFileBytes(out_a), rw.image.serialize());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    std::remove(out_a.c_str());
}

TEST(ServeDaemon, ConcurrentClientsOnDistinctBinaries)
{
    AnalysisCache::global().clear();
    const std::string path_a = "/tmp/icp_test_serve_cc_a.sbf";
    const std::string path_b = "/tmp/icp_test_serve_cc_b.sbf";
    const std::string out_a = "/tmp/icp_test_serve_cc_a_out.sbf";
    const std::string out_b = "/tmp/icp_test_serve_cc_b_out.sbf";
    const BinaryImage img_a =
        compileProgram(microProfile(Arch::x64, true));
    const BinaryImage img_b =
        compileProgram(microProfile(Arch::ppc64le, true));
    ASSERT_TRUE(writeFileBytes(path_a, img_a.serialize()));
    ASSERT_TRUE(writeFileBytes(path_b, img_b.serialize()));

    DaemonFixture daemon("conc");

    auto client = [&](const std::string &in, const std::string &out,
                      std::string *verb) {
        ServeMessage req;
        req.verb = "rewrite";
        req.set("path", in);
        req.set("out", out);
        ServeMessage reply;
        std::string error;
        *verb = serveCall(daemon.socketPath(), req, reply, error)
                    ? reply.verb
                    : "transport-error: " + error;
    };

    for (unsigned round = 0; round < 2; ++round) {
        std::string verb_a, verb_b;
        std::thread ta(client, path_a, out_a, &verb_a);
        std::thread tb(client, path_b, out_b, &verb_b);
        ta.join();
        tb.join();
        EXPECT_EQ(verb_a, "ok");
        EXPECT_EQ(verb_b, "ok");
    }

    RewriteSession oneshot_a(img_a);
    RewriteSession oneshot_b(img_b);
    const RewriteResult &rw_a =
        oneshot_a.rewrite(serveDefaultOptions());
    const RewriteResult &rw_b =
        oneshot_b.rewrite(serveDefaultOptions());
    ASSERT_TRUE(rw_a.ok);
    ASSERT_TRUE(rw_b.ok);
    EXPECT_EQ(readFileBytes(out_a), rw_a.image.serialize());
    EXPECT_EQ(readFileBytes(out_b), rw_b.image.serialize());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    std::remove(out_a.c_str());
    std::remove(out_b.c_str());
}

TEST(ServeDaemon, DrainCompletesInFlightRequests)
{
    AnalysisCache::global().clear();
    const std::string in_path = "/tmp/icp_test_serve_drain.sbf";
    const std::string out_path =
        "/tmp/icp_test_serve_drain_out.sbf";
    const BinaryImage img = compileProgram(microProfile(Arch::x64, true));
    ASSERT_TRUE(writeFileBytes(in_path, img.serialize()));

    setenv("ICP_SERVE_TEST_DELAY_MS", "300", 1);
    DaemonFixture daemon("drain");

    std::string verb;
    std::thread client([&] {
        ServeMessage req;
        req.verb = "rewrite";
        req.set("path", in_path);
        req.set("out", out_path);
        ServeMessage reply;
        std::string error;
        verb = serveCall(daemon.socketPath(), req, reply, error)
                   ? reply.verb
                   : "transport-error: " + error;
    });

    // Let the request get in flight, then drain mid-handling.
    usleep(100 * 1000);
    daemon.server().requestDrain();
    client.join();
    daemon.stop();
    unsetenv("ICP_SERVE_TEST_DELAY_MS");

    // The in-flight rewrite finished and was answered.
    EXPECT_EQ(verb, "ok");
    EXPECT_EQ(daemon.exitCode(), 0);
    EXPECT_FALSE(readFileBytes(out_path).empty());

    // A clean drain removes both the socket and the lock file.
    EXPECT_NE(access(daemon.socketPath().c_str(), F_OK), 0);
    EXPECT_NE(access((daemon.socketPath() + ".lock").c_str(), F_OK),
              0);

    std::remove(in_path.c_str());
    std::remove(out_path.c_str());
}

TEST(ServeDaemon, CrossBinarySessionsShareAnalysisCache)
{
    // Two *different* binaries sharing a static-lib core: resident
    // sessions are per-binary, but the process-wide AnalysisCache is
    // content-addressed, so the second binary's core functions hit
    // the entries the first one stored — at different absolute
    // addresses, i.e. cross hits decoded at the second binary's
    // entries.
    AnalysisCache::global().clear();
    const auto corpus = libcommonCorpus(Arch::x64, 2);
    const std::string path_a = "/tmp/icp_test_serve_xbin_a.sbf";
    const std::string path_b = "/tmp/icp_test_serve_xbin_b.sbf";
    const std::string out_a = "/tmp/icp_test_serve_xbin_a_out.sbf";
    const std::string out_b = "/tmp/icp_test_serve_xbin_b_out.sbf";
    const BinaryImage img_a = compileProgram(corpus[0]);
    const BinaryImage img_b = compileProgram(corpus[1]);
    ASSERT_TRUE(writeFileBytes(path_a, img_a.serialize()));
    ASSERT_TRUE(writeFileBytes(path_b, img_b.serialize()));

    DaemonFixture daemon("xbin");

    ServeMessage rw_a;
    rw_a.verb = "rewrite";
    rw_a.set("path", path_a);
    rw_a.set("out", out_a);
    ASSERT_EQ(daemon.call(rw_a).verb, "ok");

    const std::uint64_t cross_before =
        CacheCounters::global().crossHits.value();
    ServeMessage rw_b;
    rw_b.verb = "rewrite";
    rw_b.set("path", path_b);
    rw_b.set("out", out_b);
    ASSERT_EQ(daemon.call(rw_b).verb, "ok");
    const std::uint64_t cross_after =
        CacheCounters::global().crossHits.value();

    // The shared core is ~60% of each binary's functions; every one
    // of B's core functions should ride A's warm entries.
    EXPECT_GE(cross_after - cross_before, 50u);

    // Warm sharing must not change bytes: B's output matches a
    // one-shot rewrite.
    RewriteSession oneshot(img_b);
    const RewriteResult &rw = oneshot.rewrite(serveDefaultOptions());
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_EQ(readFileBytes(out_b), rw.image.serialize());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    std::remove(out_a.c_str());
    std::remove(out_b.c_str());
}

TEST(ServeDaemon, BackpressureShedsFloodWithBusyReplies)
{
    // A 1-thread daemon with a pending bound of 1: once a single
    // connection is in flight, every further connection is answered
    // with a structured busy error at accept time instead of
    // queueing behind the thread pool.
    ServeOptions opts;
    opts.threads = 1;
    opts.maxPending = 1;
    opts.requestTimeoutMs = 10000;
    DaemonFixture daemon("busy", opts);
    const Metrics &metrics = daemon.server().metrics();
    const std::uint64_t rejected_before =
        metrics.counters().at("serve.rejected");

    // Occupy the only pending slot deterministically: a raw
    // connection that sends nothing holds inflight from accept
    // until we close it (the worker blocks reading its first
    // frame). The accept queue is FIFO, so once any later ping is
    // rejected the slot is provably held and stays held.
    const int slot = rawConnect(daemon.socketPath());
    ASSERT_GE(slot, 0);
    bool held = false;
    for (unsigned poll = 0; poll < 500 && !held; ++poll) {
        ServeMessage ping;
        ping.verb = "ping";
        ServeMessage reply;
        std::string error;
        ASSERT_TRUE(
            serveCall(daemon.socketPath(), ping, reply, error))
            << error;
        if (reply.verb == "error" &&
            reply.get("code") == "busy")
            held = true;
        else
            usleep(10 * 1000);
    }
    ASSERT_TRUE(held) << "slot-holder connection never accepted";

    // Flood: every call must come back busy immediately (rejects
    // cost microseconds; the slot is held until `slot` closes).
    for (unsigned k = 0; k < 3; ++k) {
        ServeMessage ping;
        ping.verb = "ping";
        ServeMessage reply;
        std::string error;
        ASSERT_TRUE(
            serveCall(daemon.socketPath(), ping, reply, error))
            << error;
        EXPECT_EQ(reply.verb, "error");
        EXPECT_EQ(reply.get("code"), "busy");
    }

    // Release the slot: the daemon must recover as soon as the
    // worker notices the EOF and the connection retires.
    close(slot);
    std::string last_verb;
    for (unsigned poll = 0; poll < 500; ++poll) {
        ServeMessage ping;
        ping.verb = "ping";
        last_verb = daemon.call(ping).verb;
        if (last_verb == "ok")
            break;
        usleep(10 * 1000);
    }
    EXPECT_EQ(last_verb, "ok");

    EXPECT_GE(metrics.counters().at("serve.rejected"),
              rejected_before + 4);
}

TEST(ServeDaemon, StaleSocketAndLockFilesDoNotWedgeRestart)
{
    // Emulate SIGKILL leftovers: a bound-then-abandoned socket file
    // plus a lock file nobody holds a flock on.
    const std::string socket_path =
        "/tmp/icp_test_serve_stale.sock";
    std::remove(socket_path.c_str());
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size());
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr)),
              0);
    close(fd); // socket file stays behind, no listener
    { std::ofstream lock(socket_path + ".lock"); }

    ServeOptions opts;
    opts.socketPath = socket_path;
    ServeServer server(opts);
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;

    std::thread t([&] { server.run(); });
    ServeMessage ping;
    ping.verb = "ping";
    ServeMessage reply;
    EXPECT_TRUE(serveCall(socket_path, ping, reply, error)) << error;
    EXPECT_EQ(reply.verb, "ok");
    server.requestDrain();
    t.join();
}

TEST(ServeDaemon, SecondDaemonOnSameSocketIsRefused)
{
    DaemonFixture daemon("dup");
    ServeOptions opts;
    opts.socketPath = daemon.socketPath();
    ServeServer second(opts);
    std::string error;
    EXPECT_FALSE(second.start(error));
    EXPECT_NE(error.find("holds"), std::string::npos) << error;
    // The incumbent is unharmed.
    ServeMessage ping;
    ping.verb = "ping";
    EXPECT_EQ(daemon.call(ping).verb, "ok");
}

TEST(ServeDaemon, MutatedFramesGetStructuredReplies)
{
    // Each mutated request frame ends in a reply the protocol parses
    // (ok or a structured error) or a closed connection; the daemon
    // keeps serving throughout.
    AnalysisCache::global().clear();
    const std::string in_path = "/tmp/icp_test_serve_fuzz.sbf";
    ASSERT_TRUE(writeFileBytes(
        in_path,
        compileProgram(microProfile(Arch::x64, true)).serialize()));
    DaemonFixture daemon("fuzz");
    Rng rng(0xf7a3);
    const auto payloads = capturedRequests(in_path, false);
    std::map<std::string, unsigned> replies;
    for (int trial = 0; trial < 120; ++trial) {
        const auto bytes =
            mutatePayload(payloads[trial % payloads.size()], rng);
        std::vector<std::uint8_t> frame(4);
        for (unsigned b = 0; b < 4; ++b)
            frame[b] = static_cast<std::uint8_t>(bytes.size() >> (8 * b));
        frame.insert(frame.end(), bytes.begin(), bytes.end());
        const int fd = rawConnect(daemon.socketPath());
        ASSERT_GE(fd, 0);
        // The daemon may hang up early (an empty frame is malformed
        // at its header), so a failed send is an outcome, not an error.
        (void)send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        shutdown(fd, SHUT_WR);
        ServeMessage reply;
        std::string error;
        const FrameStatus status = readServeFrame(fd, reply, 20000, error);
        close(fd);
        EXPECT_TRUE(status == FrameStatus::ok ||
                    status == FrameStatus::closed)
            << frameStatusName(status) << " " << error;
        if (status == FrameStatus::ok) {
            EXPECT_TRUE(reply.verb == "ok" || reply.verb == "error")
                << reply.verb;
            ++replies[reply.verb];
        }
    }
    // Some mutations stay valid requests, most do not.
    EXPECT_GT(replies["ok"], 0u);
    EXPECT_GT(replies["error"], 0u);
    ServeMessage ping;
    ping.verb = "ping";
    EXPECT_EQ(daemon.call(ping).verb, "ok");
    std::remove(in_path.c_str());
}

TEST(ServeDaemon, MalformedSbfOpensGetErrorsAndTheDaemonStaysUp)
{
    AnalysisCache::global().clear();
    DaemonFixture daemon("crafted");
    for (Arch arch : all_arches) {
        for (SbfDefect defect : all_sbf_defects) {
            const std::string path =
                std::string("/tmp/icp_test_serve_crafted_") +
                archName(arch) + "_" + sbfDefectName(defect) + ".sbf";
            ASSERT_TRUE(writeFileBytes(path, craftSbf(arch, defect)));
            ServeMessage open;
            open.verb = "open";
            open.set("path", path);
            const ServeMessage reply = daemon.call(open);
            EXPECT_EQ(reply.verb, "error") << path;
            const char *rule = sbfDefectRule(defect);
            EXPECT_NE(reply.get("error").find(rule ? rule : ".text"),
                      std::string::npos)
                << reply.get("error");
            std::remove(path.c_str());
        }
    }

    ServeMessage ping;
    ping.verb = "ping";
    EXPECT_EQ(daemon.call(ping).verb, "ok");

    // A valid file still rewrites byte-identically to a one-shot run.
    const std::string in_path = "/tmp/icp_test_serve_crafted_ok.sbf";
    const std::string out_path = "/tmp/icp_test_serve_crafted_out.sbf";
    const BinaryImage base = compileProgram(microProfile(Arch::x64, true));
    ASSERT_TRUE(writeFileBytes(in_path, base.serialize()));
    ServeMessage rewrite;
    rewrite.verb = "rewrite";
    rewrite.set("path", in_path);
    rewrite.set("out", out_path);
    ASSERT_EQ(daemon.call(rewrite).verb, "ok");
    RewriteSession oneshot(base);
    const RewriteResult &rw = oneshot.rewrite(serveDefaultOptions());
    ASSERT_TRUE(rw.ok) << rw.failReason;
    EXPECT_EQ(readFileBytes(out_path), rw.image.serialize());
    std::remove(in_path.c_str());
    std::remove(out_path.c_str());
}
