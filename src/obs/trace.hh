/**
 * @file
 * Deterministic trace emitter (Chrome trace-event / Perfetto).
 *
 * A TraceSink records sim-clock-stamped events — never wall clock, so
 * traced runs stay bit-reproducible — into a bounded in-memory buffer
 * and serializes them to Chrome trace-event JSON (load the file at
 * https://ui.perfetto.dev or chrome://tracing). Three event kinds:
 *
 *  - span:    a phase with a begin and end tick (ph:"X"),
 *  - instant: a point event (ph:"i"),
 *  - counter: a numeric time series (ph:"C"), change-filtered so a
 *             value re-reported every step costs one event per change.
 *
 * Instrumentation sites use the TRACE_* macros below, which compile
 * to a null/enabled check when tracing is off. Because macro
 * arguments may therefore never be evaluated, they must be
 * side-effect free — enforced by the `trace-side-effect`
 * repo-invariant lint.
 *
 * Categories are the registry check_docs.sh section 9 walks; every
 * kCat* constant must be documented in docs/OBSERVABILITY.md.
 */

#ifndef SYSSCALE_OBS_TRACE_HH
#define SYSSCALE_OBS_TRACE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sysscale {
namespace obs {

/** @name Trace categories (documented in docs/OBSERVABILITY.md). @{ */

/** Transition-flow phases (paper Fig. 5 steps). */
constexpr char kCatTransition[] = "transition";

/** Governor decisions, grants, and latency-budget denials. */
constexpr char kCatGovernor[] = "governor";

/** Per-domain operating-point counters (DRAM bin, fabric, rails). */
constexpr char kCatOpPoint[] = "oppoint";

/** PBM/TDP rebalances and per-rail power counters. */
constexpr char kCatPower[] = "power";

/** Scenario script actions (TDP steps, display/camera toggles). */
constexpr char kCatScenario[] = "scenario";

/** Skip-ahead replay batches (one span per batch). */
constexpr char kCatReplay[] = "replay";
/** @} */

/** One recorded event (see TraceSink). */
struct TraceEvent
{
    enum class Kind { Span, Instant, Counter };

    Kind kind = Kind::Instant;
    const char *cat = "";   //!< One of the kCat* constants.
    std::string name;
    Tick ts = 0;            //!< Event (or span begin) tick.
    Tick dur = 0;           //!< Span length; 0 otherwise.
    double value = 0.0;     //!< Counter value; unused otherwise.

    /**
     * Extra JSON object members ("\"k\":v" fragments, comma-joined),
     * built with the kv() helpers. Empty for most events.
     */
    std::string args;
};

/** @name JSON argument helpers for TRACE_* args parameters. @{ */
std::string kv(const char *key, const std::string &value);
std::string kv(const char *key, const char *value);
std::string kv(const char *key, double value);
std::string kv(const char *key, std::uint64_t value);
std::string kv(const char *key, int value);
/** @} */

/**
 * Bounded, deterministic trace buffer.
 *
 * Not a SimObject: one sink serves one Simulator (install it with
 * Simulator::setTraceSink before constructing the model so every
 * construction-time site sees it). Events are appended in execution
 * order; once @p capacity events are buffered further events are
 * counted as dropped rather than evicting earlier ones, so the head
 * of a trace is always trustworthy.
 */
class TraceSink
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    explicit TraceSink(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {
    }

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Record a completed phase spanning [@p begin, @p end]. */
    void span(const char *cat, const std::string &name, Tick begin,
              Tick end, const std::string &args = std::string());

    /** Record a point event at @p ts. */
    void instant(const char *cat, const std::string &name, Tick ts,
                 const std::string &args = std::string());

    /**
     * Record a counter sample. Change-filtered: a sample equal to the
     * series' previous value is dropped, so per-step re-reports of a
     * steady signal emit nothing — which is also what makes traces
     * byte-identical across skip-ahead on/off (replayed steps are
     * fingerprint-identical, so their counters never change).
     */
    void counter(const char *cat, const std::string &name, Tick ts,
                 double value);

    std::size_t size() const { return events_.size(); }
    std::size_t dropped() const { return dropped_; }
    const std::vector<TraceEvent> &events() const { return events_; }

    /**
     * Serialize as Chrome trace-event JSON, one event per line (so
     * line filters can drop a category without a JSON parser).
     */
    void writeJson(std::ostream &os) const;

    /** Snapshot support: the buffered events, the drop count,
     *  and the counter change-filter. Loading overwrites the buffer
     *  wholesale; categories are re-interned onto the kCat* registry
     *  (an unknown category throws SnapshotError). */
    void visitState(StateIO &io);

  private:
    bool push(TraceEvent ev);

    std::size_t capacity_;
    bool enabled_ = true;
    std::size_t dropped_ = 0;
    std::vector<TraceEvent> events_;

    /** Last value per counter series ("cat/name"), for the filter. */
    std::map<std::string, double> lastCounter_;
};

} // namespace obs
} // namespace sysscale

/**
 * Instrumentation macros. @p sink is an obs::TraceSink pointer and
 * may be null; arguments are evaluated only when the sink is present
 * and enabled, so they must be side-effect free (`trace-side-effect`
 * lint).
 */
#define TRACE_ACTIVE(sink) ((sink) != nullptr && (sink)->enabled())

#define TRACE_SPAN(sink, cat, name, begin, end, args)                  \
    do {                                                               \
        if (TRACE_ACTIVE(sink))                                        \
            (sink)->span((cat), (name), (begin), (end), (args));       \
    } while (0)

#define TRACE_INSTANT(sink, cat, name, ts, args)                       \
    do {                                                               \
        if (TRACE_ACTIVE(sink))                                        \
            (sink)->instant((cat), (name), (ts), (args));              \
    } while (0)

#define TRACE_COUNTER(sink, cat, name, ts, value)                      \
    do {                                                               \
        if (TRACE_ACTIVE(sink))                                        \
            (sink)->counter((cat), (name), (ts), (value));             \
    } while (0)

#endif // SYSSCALE_OBS_TRACE_HH
