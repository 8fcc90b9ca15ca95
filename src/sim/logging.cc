#include "sim/logging.hh"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace sysscale {

namespace {

LogLevel gLevel = LogLevel::Inform;

void
vreport(const char *tag, const char *fmt, std::va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // anonymous namespace

LogLevel
logLevel()
{
    return gLevel;
}

void
setLogLevel(LogLevel level)
{
    gLevel = level;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (gLevel < LogLevel::Warn)
        return;
    std::va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (gLevel < LogLevel::Inform)
        return;
    std::va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

void
debugLog(const char *fmt, ...)
{
    if (gLevel < LogLevel::Debug)
        return;
    std::va_list args;
    va_start(args, fmt);
    vreport("debug", fmt, args);
    va_end(args);
}

} // namespace sysscale
