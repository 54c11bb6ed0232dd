/**
 * @file
 * Abort helpers, modeled after gem5's logging.hh: icp_panic() and
 * icp_assert() are for internal invariant violations (a bug in this
 * library). Bad input is never a reason to abort; it is reported
 * through the caller's error path instead.
 */

#ifndef ICP_SUPPORT_LOGGING_HH
#define ICP_SUPPORT_LOGGING_HH

#include <string>

namespace icp
{

namespace detail
{

[[noreturn]] void abortWithMessage(const char *kind, const char *file,
                                   int line, const std::string &msg);

/** Minimal printf-style formatter producing a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

} // namespace icp

/**
 * Abort due to an internal library bug. Never use for bad input.
 */
#define icp_panic(...)                                                     \
    ::icp::detail::abortWithMessage("panic", __FILE__, __LINE__,           \
        ::icp::detail::formatString(__VA_ARGS__))

/** Assert an internal invariant; compiled in all build types. */
#define icp_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::icp::detail::abortWithMessage("assert", __FILE__, __LINE__,  \
                ::icp::detail::formatString(__VA_ARGS__));                 \
        }                                                                  \
    } while (0)

#endif // ICP_SUPPORT_LOGGING_HH
