#include "serve/protocol.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace icp
{

namespace
{

bool
verbToken(const std::string &verb)
{
    if (verb.empty())
        return false;
    for (char c : verb) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/** Values travel on one line each; fold any newline into a space. */
std::string
sanitizeValue(const std::string &value)
{
    std::string out = value;
    for (char &c : out) {
        if (c == '\n' || c == '\r' || c == '\0')
            c = ' ';
    }
    return out;
}

/**
 * poll @p fd for @p events; false on timeout or poll failure.
 * timeout_ms <= 0 waits forever.
 */
bool
waitFd(int fd, short events, int timeout_ms, bool *timed_out)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    for (;;) {
        const int rc = poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
        if (rc > 0)
            return true;
        if (rc == 0) {
            if (timed_out != nullptr)
                *timed_out = true;
            return false;
        }
        if (errno == EINTR)
            continue;
        return false;
    }
}

/** Read exactly @p size bytes; partial reads loop under the timeout. */
FrameStatus
readFully(int fd, std::uint8_t *data, std::size_t size,
          int timeout_ms, std::size_t *got, std::string &error)
{
    std::size_t off = 0;
    while (off < size) {
        bool timed_out = false;
        if (!waitFd(fd, POLLIN, timeout_ms, &timed_out)) {
            if (got != nullptr)
                *got = off;
            error = timed_out ? "read timeout" : "poll failed";
            return timed_out ? FrameStatus::timeout
                             : FrameStatus::ioError;
        }
        const ssize_t n = recv(fd, data + off, size - off, 0);
        if (n == 0) {
            if (got != nullptr)
                *got = off;
            error = "connection closed";
            return FrameStatus::closed;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (got != nullptr)
                *got = off;
            error = std::string("read failed: ") +
                    std::strerror(errno);
            return FrameStatus::ioError;
        }
        off += static_cast<std::size_t>(n);
    }
    if (got != nullptr)
        *got = off;
    return FrameStatus::ok;
}

} // namespace

void
ServeMessage::set(const std::string &key, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    fields.emplace_back(key, buf);
}

std::string
ServeMessage::get(const std::string &key,
                  const std::string &fallback) const
{
    const std::string *found = nullptr;
    for (const auto &[k, v] : fields) {
        if (k == key)
            found = &v;
    }
    return found != nullptr ? *found : fallback;
}

std::uint64_t
ServeMessage::getU64(const std::string &key,
                     std::uint64_t fallback) const
{
    const std::string v = get(key);
    if (v.empty())
        return fallback;
    return std::strtoull(v.c_str(), nullptr, 10);
}

std::vector<std::uint8_t>
encodeServePayload(const ServeMessage &msg)
{
    std::string text = sanitizeValue(msg.verb);
    text += '\n';
    for (const auto &[key, value] : msg.fields) {
        text += sanitizeValue(key);
        text += '=';
        text += sanitizeValue(value);
        text += '\n';
    }
    return {text.begin(), text.end()};
}

bool
parseServePayload(const std::uint8_t *data, std::size_t size,
                  ServeMessage &out, std::string &error)
{
    out = ServeMessage{};
    if (size == 0) {
        error = "empty payload";
        return false;
    }
    if (std::memchr(data, '\0', size) != nullptr) {
        error = "embedded NUL in payload";
        return false;
    }
    const std::string text(reinterpret_cast<const char *>(data),
                           size);
    std::size_t pos = 0;
    bool first = true;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (first) {
            if (!verbToken(line)) {
                error = "bad verb line";
                return false;
            }
            out.verb = line;
            first = false;
            continue;
        }
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = "field line without key=value";
            return false;
        }
        out.fields.emplace_back(line.substr(0, eq),
                                line.substr(eq + 1));
    }
    if (first) {
        error = "missing verb line";
        return false;
    }
    return true;
}

std::vector<std::uint8_t>
encodeServeFrame(const ServeMessage &msg)
{
    const std::vector<std::uint8_t> payload =
        encodeServePayload(msg);
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::vector<std::uint8_t> frame;
    frame.reserve(4 + payload.size());
    for (unsigned b = 0; b < 4; ++b)
        frame.push_back(
            static_cast<std::uint8_t>((len >> (8 * b)) & 0xff));
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
}

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
      case FrameStatus::ok: return "ok";
      case FrameStatus::closed: return "closed";
      case FrameStatus::timeout: return "timeout";
      case FrameStatus::oversized: return "oversized";
      case FrameStatus::malformed: return "malformed";
      case FrameStatus::ioError: return "io-error";
    }
    return "?";
}

FrameStatus
readServeFrame(int fd, ServeMessage &out, int timeout_ms,
               std::string &error)
{
    std::uint8_t head[4];
    std::size_t got = 0;
    FrameStatus status =
        readFully(fd, head, sizeof(head), timeout_ms, &got, error);
    if (status != FrameStatus::ok) {
        // EOF mid-prefix is a truncated frame, not an orderly close.
        if (status == FrameStatus::closed && got > 0) {
            error = "truncated frame (EOF in length prefix)";
            return FrameStatus::malformed;
        }
        return status;
    }
    std::uint32_t len = 0;
    for (unsigned b = 0; b < 4; ++b)
        len |= static_cast<std::uint32_t>(head[b]) << (8 * b);
    if (len == 0) {
        error = "zero-length frame";
        return FrameStatus::malformed;
    }
    if (len > kMaxFramePayload) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "frame payload %u exceeds limit %u", len,
                      kMaxFramePayload);
        error = buf;
        return FrameStatus::oversized;
    }
    std::vector<std::uint8_t> payload(len);
    status = readFully(fd, payload.data(), payload.size(),
                       timeout_ms, &got, error);
    if (status != FrameStatus::ok) {
        if (status == FrameStatus::closed) {
            error = "truncated frame (EOF in payload)";
            return FrameStatus::malformed;
        }
        return status;
    }
    if (!parseServePayload(payload.data(), payload.size(), out,
                           error))
        return FrameStatus::malformed;
    return FrameStatus::ok;
}

bool
writeServeFrame(int fd, const ServeMessage &msg, int timeout_ms)
{
    const std::vector<std::uint8_t> frame = encodeServeFrame(msg);
    std::size_t off = 0;
    while (off < frame.size()) {
        if (!waitFd(fd, POLLOUT, timeout_ms, nullptr))
            return false;
        const ssize_t n = send(fd, frame.data() + off,
                               frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
serveCall(const std::string &socket_path,
          const ServeMessage &request, ServeMessage &reply,
          std::string &error, int timeout_ms)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long";
        return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size());

    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        error = std::string("socket failed: ") +
                std::strerror(errno);
        return false;
    }
    if (connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        error = std::string("cannot connect to ") + socket_path +
                ": " + std::strerror(errno);
        close(fd);
        return false;
    }
    bool ok = writeServeFrame(fd, request, timeout_ms);
    if (!ok) {
        error = "cannot send request";
    } else {
        const FrameStatus status =
            readServeFrame(fd, reply, timeout_ms, error);
        ok = status == FrameStatus::ok;
        if (!ok && error.empty())
            error = frameStatusName(status);
    }
    close(fd);
    return ok;
}

} // namespace icp
