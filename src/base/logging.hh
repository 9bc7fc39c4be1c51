/**
 * @file
 * Status and error reporting for DeepRecSys.
 *
 * Follows the gem5 convention: fatal() is for user-caused conditions
 * (bad configuration, invalid arguments) and exits cleanly; panic() is
 * for internal invariant violations (a library bug) and aborts.
 */

#ifndef DRS_BASE_LOGGING_HH
#define DRS_BASE_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace deeprecsys {

/**
 * Process-wide log sink: receives each complete, newline-terminated
 * diagnostic line ("warn: ...\n") in a single call.
 * The default sink writes the line to std::cerr with one write, so
 * concurrent bench harness threads never interleave mid-line; trace
 * and metric writers report through the same hook.
 */
using LogSink = void (*)(const std::string& line);

/**
 * Install @p sink for warn lines (nullptr restores the
 * default stderr sink). Returns the previously installed sink.
 * Intended for test capture and embedding harnesses.
 */
LogSink setLogSink(LogSink sink);

namespace detail {

/** Concatenate any streamable arguments into a std::string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void fatalImpl(const std::string& msg, const char* file,
                            int line);
[[noreturn]] void panicImpl(const std::string& msg, const char* file,
                            int line);
void warnImpl(const std::string& msg);

} // namespace detail

/**
 * Terminate because of a user error (bad config, invalid argument).
 * Exits with status 1; does not dump core.
 */
#define drs_fatal(...) \
    ::deeprecsys::detail::fatalImpl( \
        ::deeprecsys::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/**
 * Terminate because of an internal bug (broken invariant). Aborts so a
 * debugger or core dump can capture the state.
 */
#define drs_panic(...) \
    ::deeprecsys::detail::panicImpl( \
        ::deeprecsys::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/** Report a suspicious-but-survivable condition. */
#define drs_warn(...) \
    ::deeprecsys::detail::warnImpl(::deeprecsys::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; panics with the expression on failure. */
#define drs_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            drs_panic("assertion failed: ", #cond, ". ", ##__VA_ARGS__); \
        } \
    } while (0)

} // namespace deeprecsys

#endif // DRS_BASE_LOGGING_HH
