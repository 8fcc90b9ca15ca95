/**
 * @file
 * Helpers shared by the test suites: scratch directories, the
 * skip-ahead default, the stress multiplier, and field-by-field
 * views of results and snapshots whose first difference names a key.
 */

#ifndef SYSSCALE_TESTS_TEST_UTIL_HH
#define SYSSCALE_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "exp/experiment.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace test {

/** Fresh per-test directory under the system tmp, removed after. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("sysscale-test-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~TempDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

    std::string sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** Pin the process-wide skip-ahead default for one scope. */
class SkipAheadGuard
{
  public:
    explicit SkipAheadGuard(bool on)
        : prev_(soc::Soc::skipAheadDefault())
    {
        soc::Soc::setSkipAheadDefault(on);
    }

    ~SkipAheadGuard() { soc::Soc::setSkipAheadDefault(prev_); }

  private:
    bool prev_;
};

/** Trial multiplier for stress runs: SYSSCALE_STRESS_ITERS, else 1. */
inline std::size_t
stressIters()
{
    const char *env = std::getenv("SYSSCALE_STRESS_ITERS");
    const long v = env ? std::atol(env) : 0;
    return v > 0 ? static_cast<std::size_t>(v) : 1;
}

inline std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

inline std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Named values, compared key by key. */
using Fields = std::map<std::string, std::string>;

/** The "stats.*" lines of a snapshot text: key -> 16-hex bits. */
inline Fields
statLines(const std::string &snapshot)
{
    Fields out;
    std::istringstream is(snapshot);
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t eq = line.find(" = ");
        if (line.compare(0, 6, "stats.") == 0 && eq != std::string::npos)
            out[line.substr(0, eq)] = line.substr(eq + 3);
    }
    return out;
}

/** The value of @p key in a snapshot text ("" when absent). */
inline std::string
snapshotField(const std::string &snapshot, const std::string &key)
{
    const std::string needle = "\n" + key + " = ";
    const std::size_t at = snapshot.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t from = at + needle.size();
    return snapshot.substr(from, snapshot.find('\n', from) - from);
}

/** The value a snapshot text stores for the exact sum @p key. */
inline double
statValue(const std::string &snapshot, const std::string &key)
{
    return decodeExactSum(snapshotField(snapshot, key));
}

/**
 * Everything a result reports but its host time: each RunMetrics
 * field and counter as a bit pattern, and each statsDump line keyed
 * by its stat path.
 */
inline Fields
resultFields(const exp::RunResult &r)
{
    Fields f;
    auto put = [&](const std::string &key, double v) {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(bits(v)));
        f[key] = buf;
    };
    const soc::RunMetrics &m = r.metrics;
    f["ok"] = r.ok ? "1" : "0 " + r.error;
    f["governor"] = r.governor;
    put("metrics.seconds", m.seconds);
    put("metrics.instructions", m.instructions);
    put("metrics.ips", m.ips);
    put("metrics.frames", m.frames);
    put("metrics.fps", m.fps);
    put("metrics.avgPower", m.avgPower);
    put("metrics.energy", m.energy);
    put("metrics.edp", m.edp);
    for (std::size_t i = 0; i < m.railEnergy.size(); ++i)
        put("metrics.railEnergy" + std::to_string(i), m.railEnergy[i]);
    put("metrics.avgMemLatencyNs", m.avgMemLatencyNs);
    put("metrics.avgMemBandwidth", m.avgMemBandwidth);
    put("metrics.avgCoreFreq", m.avgCoreFreq);
    f["metrics.qosViolations"] = std::to_string(m.qosViolations);
    f["metrics.transitions"] = std::to_string(m.transitions);
    f["metrics.stallTicks"] = std::to_string(m.stallTicks);
    put("metrics.lowPointResidency", m.lowPointResidency);
    for (std::size_t i = 0; i < r.counters.values.size(); ++i)
        put("counters." + std::to_string(i), r.counters.values[i]);
    std::istringstream is(r.statsDump);
    std::string line;
    while (std::getline(is, line))
        f["dump." + line.substr(0, line.find(' '))] = line;
    return f;
}

/**
 * The first key whose value differs between @p a and @p b, or is in
 * only one of them, with both values; "" when they are equal.
 */
inline std::string
firstDifference(const Fields &a, const Fields &b)
{
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() || ib != b.end()) {
        if (ib == b.end() || (ia != a.end() && ia->first < ib->first))
            return ia->first + " (only in the reference)";
        if (ia == a.end() || ib->first < ia->first)
            return ib->first + " (missing from the reference)";
        if (ia->second != ib->second) {
            return ia->first + ": " + ia->second + " != " +
                   ib->second;
        }
        ++ia;
        ++ib;
    }
    return "";
}

/**
 * Expect @p got to report exactly what @p ref does: the same fields,
 * bit for bit, and the same statsDump bytes. A failure names @p what
 * and the first differing key.
 */
inline void
expectSameResult(const exp::RunResult &ref, const exp::RunResult &got,
                 const std::string &what)
{
    const std::string diff =
        firstDifference(resultFields(ref), resultFields(got));
    EXPECT_EQ(diff, "") << what << ": first differing key";
    if (diff.empty()) {
        EXPECT_EQ(ref.statsDump, got.statsDump)
            << what << ": statsDump bytes";
    }
}

} // namespace test
} // namespace sysscale

#endif // SYSSCALE_TESTS_TEST_UTIL_HH
