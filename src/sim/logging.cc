#include "sim/logging.hh"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace sysscale {

namespace {

bool gDebug = false;

void
vreport(const char *tag, const char *fmt, std::va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // anonymous namespace

void
setDebugLog(bool on)
{
    gDebug = on;
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
debugLog(const char *fmt, ...)
{
    if (!gDebug)
        return;
    std::va_list args;
    va_start(args, fmt);
    vreport("debug", fmt, args);
    va_end(args);
}

} // namespace sysscale
