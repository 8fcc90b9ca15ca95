#include "exp/cache.hh"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "power/dvfs_types.hh"
#include "soc/counters.hh"

namespace sysscale {
namespace exp {

namespace {

/**
 * Minimal JSON reader for the cache file format. Numbers keep their
 * raw token so 64-bit integers and "%.17g" doubles re-parse without
 * precision loss. Throws std::invalid_argument on malformed input;
 * the cache turns any throw into a miss.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string scalar; //!< Raw number token or decoded string.
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue &
    at(const std::string &key) const
    {
        for (const auto &kv : members) {
            if (kv.first == key)
                return kv.second;
        }
        throw std::invalid_argument("cache json: missing \"" + key +
                                    "\"");
    }

    double
    asDouble() const
    {
        if (kind != Kind::Number)
            throw std::invalid_argument("cache json: not a number");
        char *end = nullptr;
        const double d = std::strtod(scalar.c_str(), &end);
        if (scalar.empty() || end != scalar.c_str() + scalar.size())
            throw std::invalid_argument("cache json: bad double");
        return d;
    }

    std::uint64_t
    asU64() const
    {
        if (kind != Kind::Number)
            throw std::invalid_argument("cache json: not a number");
        // Full-token consumption: "12.9" must be corrupt, not 12.
        if (scalar.empty() || scalar[0] < '0' || scalar[0] > '9')
            throw std::invalid_argument("cache json: bad integer");
        char *end = nullptr;
        const std::uint64_t u =
            std::strtoull(scalar.c_str(), &end, 10);
        if (end != scalar.c_str() + scalar.size())
            throw std::invalid_argument("cache json: bad integer");
        return u;
    }

    const std::string &
    asString() const
    {
        if (kind != Kind::String)
            throw std::invalid_argument("cache json: not a string");
        return scalar;
    }

    bool
    asBool() const
    {
        if (kind != Kind::Bool)
            throw std::invalid_argument("cache json: not a bool");
        return boolean;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != text_.size())
            throw std::invalid_argument(
                "cache json: trailing content");
        return v;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            throw std::invalid_argument("cache json: truncated");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::invalid_argument(
                std::string("cache json: expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        skipSpace();
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return JsonValue{};
        }
        return number();
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipSpace();
        if (consume('}'))
            return v;
        for (;;) {
            skipSpace();
            JsonValue key = string();
            skipSpace();
            expect(':');
            v.members.emplace_back(std::move(key.scalar), value());
            skipSpace();
            if (consume(','))
                continue;
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipSpace();
        if (consume(']'))
            return v;
        for (;;) {
            v.items.push_back(value());
            skipSpace();
            if (consume(','))
                continue;
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        for (;;) {
            const char c = peek();
            ++pos_;
            if (c == '"')
                return v;
            if (c != '\\') {
                v.scalar += c;
                continue;
            }
            const char esc = peek();
            ++pos_;
            switch (esc) {
              case '"': v.scalar += '"'; break;
              case '\\': v.scalar += '\\'; break;
              case '/': v.scalar += '/'; break;
              case 'n': v.scalar += '\n'; break;
              case 't': v.scalar += '\t'; break;
              case 'r': v.scalar += '\r'; break;
              case 'b': v.scalar += '\b'; break;
              case 'f': v.scalar += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    throw std::invalid_argument(
                        "cache json: truncated \\u escape");
                const std::string hex = text_.substr(pos_, 4);
                pos_ += 4;
                char *end = nullptr;
                const long code =
                    std::strtol(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4 || code < 0 || code > 0xff)
                    throw std::invalid_argument(
                        "cache json: unsupported \\u escape");
                v.scalar += static_cast<char>(code);
                break;
              }
              default:
                throw std::invalid_argument(
                    "cache json: unknown escape");
            }
        }
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (peek() == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
            v.boolean = false;
        }
        return v;
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const std::size_t start = pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '-' || c == '+' ||
                c == '.' || c == 'e' || c == 'E') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            throw std::invalid_argument("cache json: bad number");
        v.scalar = text_.substr(start, pos_ - start);
        return v;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                throw std::invalid_argument(
                    "cache json: bad literal");
            ++pos_;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** Rebuild a RunResult from the "result" object of a cache file. */
RunResult
resultFromJson(const JsonValue &root)
{
    RunResult res;
    res.id = root.at("id").asString();
    res.governor = root.at("governor").asString();
    res.workload = root.at("workload").asString();
    res.ok = root.at("ok").asBool();
    res.error = root.at("error").asString();
    res.hostSeconds = root.at("host_seconds").asDouble();

    const JsonValue &m = root.at("metrics");
    soc::RunMetrics &out = res.metrics;
    out.seconds = m.at("seconds").asDouble();
    out.instructions = m.at("instructions").asDouble();
    out.ips = m.at("ips").asDouble();
    out.frames = m.at("frames").asDouble();
    out.fps = m.at("fps").asDouble();
    out.avgPower = m.at("avg_power_w").asDouble();
    out.energy = m.at("energy_j").asDouble();
    out.edp = m.at("edp").asDouble();
    out.avgMemLatencyNs = m.at("avg_mem_latency_ns").asDouble();
    out.avgMemBandwidth = m.at("avg_mem_bandwidth").asDouble();
    out.avgCoreFreq = m.at("avg_core_freq_hz").asDouble();
    out.qosViolations = m.at("qos_violations").asU64();
    out.transitions = m.at("transitions").asU64();
    out.stallTicks = m.at("stall_ticks").asU64();
    out.lowPointResidency = m.at("low_point_residency").asDouble();

    const JsonValue &rails = m.at("rail_energy_j");
    for (const auto rail : power::kAllRails) {
        out.railEnergy[power::railIndex(rail)] =
            rails.at(std::string(power::railName(rail))).asDouble();
    }

    const JsonValue &counters = root.at("counters");
    for (const auto counter : soc::kAllCounters) {
        res.counters.values[soc::counterIndex(counter)] =
            counters.at(std::string(soc::counterName(counter)))
                .asDouble();
    }

    const JsonValue &labels = root.at("labels");
    for (const auto &kv : labels.members)
        res.labels.emplace_back(kv.first, kv.second.asString());
    return res;
}

/**
 * Optional-member probe. "stats" is written by every format-v6 file
 * and the version gate rejects anything older, but tolerating its
 * absence keeps hand-edited or trimmed caches usable.
 */
const JsonValue *
findMember(const JsonValue &obj, const std::string &key)
{
    for (const auto &kv : obj.members) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

} // anonymous namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_)) {
        throw std::runtime_error("ResultCache: cannot create \"" +
                                 dir_ + "\"");
    }
}

std::string
ResultCache::pathFor(const ExperimentSpec &spec) const
{
    return dir_ + "/" + specKey(spec) + ".json";
}

bool
ResultCache::lookup(const ExperimentSpec &spec, RunResult &out)
{
    // One serialization per lookup: key and collision check both
    // derive from this text.
    const std::string canonical = canonicalSpec(spec);
    const std::string key = specKeyForCanonical(canonical);
    const std::string path = dir_ + "/" + key + ".json";
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    try {
        const JsonValue doc = JsonParser(buf.str()).parse();
        if (doc.at("format").asU64() !=
            static_cast<std::uint64_t>(kSpecFormatVersion))
            throw std::invalid_argument("format version mismatch");
        if (doc.at("key").asString() != key)
            throw std::invalid_argument("key mismatch");
        // Guard against FNV collisions and stale entries whose key
        // happens to match: the stored spec must describe the same
        // simulation, canonically.
        const ExperimentSpec stored =
            parseSpec(doc.at("spec").asString());
        if (canonicalSpec(stored) != canonical)
            throw std::invalid_argument("canonical spec mismatch");

        RunResult res = resultFromJson(doc.at("result"));
        if (!res.ok)
            throw std::invalid_argument("cached error row");
        if (const JsonValue *stats = findMember(doc, "stats"))
            res.statsDump = stats->asString();
        // Presentation fields belong to the querying spec.
        res.id = spec.id;
        res.workload = spec.workload.name();
        res.labels = spec.labels;
        out = std::move(res);
    } catch (const std::exception &) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ResultCache::store(const ExperimentSpec &spec, const RunResult &res)
{
    if (!res.ok)
        return;

    const std::string key = specKey(spec);
    std::string doc = "{\n";
    doc += "  \"format\": " + std::to_string(kSpecFormatVersion) +
           ",\n";
    doc += "  \"key\": \"" + key + "\",\n";
    doc += "  \"spec\": " + jsonQuote(serializeSpec(spec)) + ",\n";
    doc += "  \"stats\": " + jsonQuote(res.statsDump) + ",\n";
    doc += "  \"result\": " + jsonObject(res) + "\n";
    doc += "}\n";

    // The temp name must be unique across *processes*: concurrent
    // sweeps may legitimately share one cache directory.
    const std::string path = dir_ + "/" + key + ".json";
    const std::string tmp =
        path + ".tmp" + std::to_string(::getpid()) + "." +
        std::to_string(
            tmpSerial_.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return;
        os << doc;
        if (!os.flush()) {
            os.close();
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<ResultCache>
resolveCache(std::string dir, bool no_cache)
{
    if (no_cache)
        return nullptr;
    if (dir.empty()) {
        if (const char *env = std::getenv("SYSSCALE_CACHE_DIR"))
            dir = env;
    }
    if (dir.empty())
        return nullptr;
    return std::make_unique<ResultCache>(std::move(dir));
}

CacheStats
ResultCache::stats() const
{
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    return s;
}

} // namespace exp
} // namespace sysscale
