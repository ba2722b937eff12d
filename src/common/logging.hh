/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic() flags an internal simulator bug and aborts; fatal() flags a
 * user/configuration error and exits cleanly; warn()/inform() report
 * conditions without stopping the simulation.
 */

#ifndef COHERSIM_COMMON_LOGGING_HH
#define COHERSIM_COMMON_LOGGING_HH

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

namespace csim
{

/** Internal sinks; exposed so tests can capture output. */
namespace logging_detail
{
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * When true, warn()/inform() are suppressed (quiet benches). Atomic
 * so runner worker threads may consult it while another thread (e.g.
 * a bench main) toggles it; the sinks themselves serialize writes so
 * concurrent simulations never interleave mid-line.
 */
extern std::atomic<bool> quiet;

/** One warn()/inform() line held back from its stream. */
struct LogLine
{
    bool toStderr = false;
    std::string text;
};

/**
 * While non-null, warn()/inform() on this thread append to it instead
 * of printing (after the quiet check). The runner points it at the
 * running job's buffer and flushes the buffers in job order, so a
 * sweep's output does not depend on which job finished first.
 */
extern thread_local std::vector<LogLine> *threadLog;

/** Print @p lines in order, as if warn()/inform() ran now. */
void flushLog(const std::vector<LogLine> &lines);
} // namespace logging_detail

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
msgCat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace csim

/** Abort on an internal invariant violation (simulator bug). */
#define panic(...)                                                         \
    ::csim::logging_detail::panicImpl(__FILE__, __LINE__,                  \
                                      ::csim::msgCat(__VA_ARGS__))

/** Exit on an unrecoverable user/configuration error. */
#define fatal(...)                                                         \
    ::csim::logging_detail::fatalImpl(__FILE__, __LINE__,                  \
                                      ::csim::msgCat(__VA_ARGS__))

/** Report a suspicious but survivable condition. */
#define warn(...)                                                          \
    ::csim::logging_detail::warnImpl(::csim::msgCat(__VA_ARGS__))

/** Report normal operating status. */
#define inform(...)                                                        \
    ::csim::logging_detail::informImpl(::csim::msgCat(__VA_ARGS__))

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                                \
    do {                                                                   \
        if (cond)                                                          \
            panic(__VA_ARGS__);                                            \
    } while (0)

/** fatal() unless the condition holds. */
#define fatal_if(cond, ...)                                                \
    do {                                                                   \
        if (cond)                                                          \
            fatal(__VA_ARGS__);                                            \
    } while (0)

#endif // COHERSIM_COMMON_LOGGING_HH
