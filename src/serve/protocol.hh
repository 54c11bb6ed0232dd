/**
 * @file
 * Wire protocol of the `icp serve` daemon: length-prefixed frames on
 * a Unix-domain socket. Each frame is a 4-byte little-endian payload
 * length followed by that many bytes of text payload:
 *
 *   verb\n
 *   key=value\n
 *   ...
 *
 * Requests carry a verb (open, rewrite, lint, repair, deps, stats,
 * ping, shutdown) plus string fields; replies use the verbs "ok" and
 * "error". Values may not contain newlines (the encoder replaces
 * them with spaces); binary data never crosses the socket — requests
 * name input/output files by path, which keeps frames tiny and the
 * daemon restartable. Payloads above kMaxFramePayload, truncated
 * frames, and unparsable payloads are protocol errors the server
 * answers with a structured "error" reply before closing the
 * connection — never a crash (tested in tests/test_serve.cc).
 */

#ifndef ICP_SERVE_PROTOCOL_HH
#define ICP_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace icp
{

/** Upper bound on a frame's payload bytes (requests are tiny). */
constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/** One request or reply: a verb plus ordered key=value fields. */
struct ServeMessage
{
    std::string verb;
    std::vector<std::pair<std::string, std::string>> fields;

    void
    set(const std::string &key, const std::string &value)
    {
        fields.emplace_back(key, value);
    }

    void set(const std::string &key, std::uint64_t value);

    /** Last value for @p key, or @p fallback when absent. */
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;

    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback = 0) const;
};

/** Serialize the payload text (no length prefix). */
std::vector<std::uint8_t> encodeServePayload(const ServeMessage &msg);

/**
 * Parse a payload back into a message. Returns false (with a
 * diagnostic in @p error) on an empty payload, a verb that is not a
 * lowercase [a-z0-9_-] token, an embedded NUL, or a field line
 * without '='.
 */
bool parseServePayload(const std::uint8_t *data, std::size_t size,
                       ServeMessage &out, std::string &error);

/** Full frame: 4-byte LE payload length + payload. */
std::vector<std::uint8_t> encodeServeFrame(const ServeMessage &msg);

/** Outcome of reading one frame from a socket. */
enum class FrameStatus
{
    ok,        ///< a complete, well-formed frame was read
    closed,    ///< orderly EOF before any frame byte
    timeout,   ///< the peer stalled past the timeout
    oversized, ///< declared payload length above kMaxFramePayload
    malformed, ///< truncated frame or unparsable payload
    ioError,   ///< read(2)/poll(2) failure
};

const char *frameStatusName(FrameStatus status);

/**
 * Read one frame from @p fd, waiting at most @p timeout_ms for each
 * chunk (<= 0 waits forever). On anything but FrameStatus::ok,
 * @p error describes the failure.
 */
FrameStatus readServeFrame(int fd, ServeMessage &out, int timeout_ms,
                           std::string &error);

/**
 * Write @p msg as one frame to @p fd (MSG_NOSIGNAL; a dead peer is
 * a false return, not a SIGPIPE). @p timeout_ms bounds each send.
 */
bool writeServeFrame(int fd, const ServeMessage &msg, int timeout_ms);

/**
 * One client round trip: connect to the Unix socket at @p socket_path,
 * send @p request, read the reply. Returns false with @p error set on
 * connect/frame failures (including a reply that fails to parse).
 */
bool serveCall(const std::string &socket_path,
               const ServeMessage &request, ServeMessage &reply,
               std::string &error, int timeout_ms = 30000);

} // namespace icp

#endif // ICP_SERVE_PROTOCOL_HH
