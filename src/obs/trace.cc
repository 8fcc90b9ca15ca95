#include "obs/trace.hh"

#include <cstdio>
#include <cstring>

#include "sim/snapshot.hh"

namespace sysscale {
namespace obs {

namespace {

/**
 * Local shortest-round-trip double formatter. Deliberately a twin of
 * exp::formatDouble rather than an include: obs sits below exp in the
 * layering (exp installs sinks, obs must not depend back on it).
 */
std::string
formatNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (int prec = 1; prec <= 17; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(probe, "%lf", &back);
        if (back == v) {
            std::memcpy(buf, probe, sizeof(probe));
            break;
        }
    }
    return buf;
}

/** Minimal JSON string escaping (control chars, quote, backslash). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Ticks (integer picoseconds) as exact decimal microseconds — the
 * trace-event clock unit — without a float round trip.
 */
std::string
tickToUs(Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / kTicksPerUs),
                  static_cast<unsigned long long>(t % kTicksPerUs));
    return buf;
}

/** Stable Perfetto track (tid) per category. */
int
tidForCat(const char *cat)
{
    if (std::strcmp(cat, kCatTransition) == 0) return 1;
    if (std::strcmp(cat, kCatGovernor) == 0) return 2;
    if (std::strcmp(cat, kCatScenario) == 0) return 3;
    if (std::strcmp(cat, kCatReplay) == 0) return 4;
    if (std::strcmp(cat, kCatPower) == 0) return 5;
    return 6; // kCatOpPoint and anything future.
}

void
writeThreadName(std::ostream &os, int tid, const char *name,
                bool first)
{
    os << (first ? "" : ",") << "{\"ph\":\"M\",\"pid\":1,\"tid\":"
       << tid << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << name << "\"}}\n";
}

} // namespace

std::string
kv(const char *key, const std::string &value)
{
    return "\"" + std::string(key) + "\":\"" + jsonEscape(value) + "\"";
}

std::string
kv(const char *key, const char *value)
{
    return kv(key, std::string(value));
}

std::string
kv(const char *key, double value)
{
    return "\"" + std::string(key) + "\":" + formatNumber(value);
}

std::string
kv(const char *key, std::uint64_t value)
{
    return "\"" + std::string(key) + "\":" + std::to_string(value);
}

std::string
kv(const char *key, int value)
{
    return "\"" + std::string(key) + "\":" + std::to_string(value);
}

bool
TraceSink::push(TraceEvent ev)
{
    if (events_.size() >= capacity_) {
        ++dropped_;
        return false;
    }
    events_.push_back(std::move(ev));
    return true;
}

void
TraceSink::span(const char *cat, const std::string &name, Tick begin,
                Tick end, const std::string &args)
{
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::Span;
    ev.cat = cat;
    ev.name = name;
    ev.ts = begin;
    ev.dur = end >= begin ? end - begin : 0;
    ev.args = args;
    push(std::move(ev));
}

void
TraceSink::instant(const char *cat, const std::string &name, Tick ts,
                   const std::string &args)
{
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::Instant;
    ev.cat = cat;
    ev.name = name;
    ev.ts = ts;
    ev.args = args;
    push(std::move(ev));
}

void
TraceSink::counter(const char *cat, const std::string &name, Tick ts,
                   double value)
{
    const std::string series = std::string(cat) + "/" + name;
    const auto it = lastCounter_.find(series);
    if (it != lastCounter_.end() && it->second == value)
        return;

    TraceEvent ev;
    ev.kind = TraceEvent::Kind::Counter;
    ev.cat = cat;
    ev.name = name;
    ev.ts = ts;
    ev.value = value;
    if (push(std::move(ev)))
        lastCounter_[series] = value;
}

void
TraceSink::writeJson(std::ostream &os) const
{
    // One element per line, comma *leading* each element after the
    // first: removing any subset of event lines (e.g. grep -v a
    // category) leaves a valid JSON document, and line-level diffs
    // never trip over a trailing-comma artifact. The metadata lines
    // always precede the events, so every event line starts with a
    // comma.
    os << "{\"traceEvents\":[\n";
    writeThreadName(os, 1, "transition-flow", true);
    writeThreadName(os, 2, "governor", false);
    writeThreadName(os, 3, "scenario", false);
    writeThreadName(os, 4, "skip-ahead", false);
    writeThreadName(os, 5, "power", false);
    writeThreadName(os, 6, "op-point", false);

    for (std::size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent &ev = events_[i];
        os << ",{";
        switch (ev.kind) {
          case TraceEvent::Kind::Span:
            os << "\"ph\":\"X\"";
            break;
          case TraceEvent::Kind::Instant:
            os << "\"ph\":\"i\",\"s\":\"t\"";
            break;
          case TraceEvent::Kind::Counter:
            os << "\"ph\":\"C\"";
            break;
        }
        os << ",\"pid\":1,\"tid\":" << tidForCat(ev.cat)
           << ",\"cat\":\"" << ev.cat << "\",\"name\":\""
           << jsonEscape(ev.name) << "\",\"ts\":" << tickToUs(ev.ts);
        if (ev.kind == TraceEvent::Kind::Span)
            os << ",\"dur\":" << tickToUs(ev.dur);
        if (ev.kind == TraceEvent::Kind::Counter) {
            os << ",\"args\":{\"value\":" << formatNumber(ev.value)
               << "}";
        } else if (!ev.args.empty()) {
            os << ",\"args\":{" << ev.args << "}";
        }
        os << "}\n";
    }

    os << "],\n\"displayTimeUnit\":\"ms\",\n"
       << "\"otherData\":{\"clock\":\"sim-ticks\",\"ticksPerUs\":\""
       << kTicksPerUs << "\",\"dropped\":\"" << dropped_ << "\"}}\n";
}

namespace {

/**
 * Map a serialized category string back onto the kCat* registry so
 * restored events keep pointer-comparable, static-lifetime categories.
 */
const char *
internCategory(const std::string &cat)
{
    if (cat == kCatTransition) return kCatTransition;
    if (cat == kCatGovernor) return kCatGovernor;
    if (cat == kCatOpPoint) return kCatOpPoint;
    if (cat == kCatPower) return kCatPower;
    if (cat == kCatScenario) return kCatScenario;
    if (cat == kCatReplay) return kCatReplay;
    throw SnapshotError("trace: unknown category \"" + cat + "\"");
}

} // namespace

void
TraceSink::visitState(StateIO &io)
{
    io.field("dropped", dropped_);
    std::uint64_t count = events_.size();
    io.field("event_count", count);
    if (io.loading()) {
        events_.clear();
        events_.reserve(count);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        if (io.loading())
            events_.emplace_back();
        TraceEvent &ev = events_[i];
        io.push("e" + std::to_string(i));
        auto kind = static_cast<std::uint64_t>(ev.kind);
        io.field("kind", kind);
        if (io.loading()) {
            if (kind > static_cast<std::uint64_t>(
                           TraceEvent::Kind::Counter))
                throw SnapshotError("trace: bad event kind");
            ev.kind = static_cast<TraceEvent::Kind>(kind);
        }
        std::string cat = ev.cat;
        io.field("cat", cat);
        if (io.loading())
            ev.cat = internCategory(cat);
        io.field("name", ev.name);
        io.field("ts", ev.ts);
        io.field("dur", ev.dur);
        io.field("value", ev.value);
        io.field("args", ev.args);
        io.pop();
    }
    std::uint64_t nseries = lastCounter_.size();
    io.field("counter_series", nseries);
    if (io.loading())
        lastCounter_.clear();
    auto it = lastCounter_.begin();
    for (std::uint64_t i = 0; i < nseries; ++i) {
        std::string series;
        double last = 0.0;
        if (!io.loading()) {
            series = it->first;
            last = it->second;
            ++it;
        }
        io.push("c" + std::to_string(i));
        io.field("series", series);
        io.field("last", last);
        io.pop();
        if (io.loading())
            lastCounter_[series] = last;
    }
}

} // namespace obs
} // namespace sysscale
