#include "common/logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <stdexcept>

namespace csim
{
namespace logging_detail
{

std::atomic<bool> quiet{false};
thread_local std::vector<LogLine> *threadLog = nullptr;

namespace
{
/**
 * Serializes every sink write: the simulator is embeddable
 * many-per-process (parallel sweep runner), and interleaved partial
 * lines from concurrent Machines would be unreadable.
 */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

/** Write one line to its stream, or hold it in this thread's log. */
void
emit(LogLine line)
{
    if (threadLog) {
        threadLog->push_back(std::move(line));
        return;
    }
    std::lock_guard<std::mutex> lk(sinkMutex());
    (line.toStderr ? std::cerr : std::cout) << line.text << std::endl;
}
} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lk(sinkMutex());
        std::cerr << "panic: " << msg << " @ " << file << ":" << line
                  << std::endl;
    }
    // Throw instead of abort() so gtest death-free tests can verify
    // invariant checks fire; uncaught it still terminates the process.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lk(sinkMutex());
        std::cerr << "fatal: " << msg << " @ " << file << ":" << line
                  << std::endl;
    }
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet.load(std::memory_order_relaxed))
        emit({true, "warn: " + msg});
}

void
informImpl(const std::string &msg)
{
    if (!quiet.load(std::memory_order_relaxed))
        emit({false, "info: " + msg});
}

void
flushLog(const std::vector<LogLine> &lines)
{
    for (const LogLine &line : lines)
        emit(line);
}

} // namespace logging_detail
} // namespace csim
