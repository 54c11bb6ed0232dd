#include "logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace icp
{

namespace detail
{

std::string
formatString(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
abortWithMessage(const char *kind, const char *file, int line,
                 const std::string &msg)
{
    std::fprintf(stderr, "icp %s: %s (%s:%d)\n", kind, msg.c_str(),
                 file, line);
    std::abort();
}

} // namespace detail
} // namespace icp
