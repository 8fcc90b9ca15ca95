/**
 * @file
 * Error/status reporting in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so debuggers/core dumps catch it.
 * fatal()  — the user asked for something unsupportable (bad config);
 *            exits with an error code.
 * warn()   — something is approximated; simulation continues.
 * inform() — plain status output.
 *
 * All helpers accept printf-style format strings.
 */

#ifndef SYSSCALE_SIM_LOGGING_HH
#define SYSSCALE_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace sysscale {

/** Verbosity levels for status messages. */
enum class LogLevel { Silent, Warn, Inform, Debug };

/** Global verbosity control (default Inform). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/**
 * Abort the simulation due to an internal error. Never returns.
 *
 * @param file Source file of the failed invariant.
 * @param line Source line of the failed invariant.
 * @param fmt printf-style message.
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Exit the simulation due to a user/configuration error. Never returns.
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Emit a warning (suppressed when logLevel() < Warn). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Emit a status message (suppressed when logLevel() < Inform). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Emit a debug message (suppressed when logLevel() < Debug). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace sysscale

#define SYSSCALE_PANIC(...) \
    ::sysscale::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

#define SYSSCALE_FATAL(...) \
    ::sysscale::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** gem5-style assert that survives NDEBUG and reports context. */
#define SYSSCALE_ASSERT(cond, ...)                                      \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::sysscale::panicImpl(__FILE__, __LINE__, __VA_ARGS__);     \
        }                                                               \
    } while (0)

#endif // SYSSCALE_SIM_LOGGING_HH
