#include "logging.hh"

#include <atomic>

namespace deeprecsys {

namespace {

std::atomic<LogSink> logSink{nullptr};

/**
 * Emit one complete line through the installed sink, or to stderr
 * with a single write so lines from concurrent threads (the bench
 * sweep pool) never interleave mid-line.
 */
void
emitLine(std::string line)
{
    if (LogSink sink = logSink.load(std::memory_order_acquire)) {
        sink(line);
        return;
    }
    std::cerr << line;
}

} // namespace

LogSink
setLogSink(LogSink sink)
{
    return logSink.exchange(sink, std::memory_order_acq_rel);
}

namespace detail {

void
fatalImpl(const std::string& msg, const char* file, int line)
{
    std::cerr << "fatal: " << msg << " (" << file << ":" << line << ")\n";
    std::exit(1);
}

void
panicImpl(const std::string& msg, const char* file, int line)
{
    std::cerr << "panic: " << msg << " (" << file << ":" << line << ")\n";
    std::abort();
}

void
warnImpl(const std::string& msg)
{
    emitLine("warn: " + msg + "\n");
}

} // namespace detail
} // namespace deeprecsys
