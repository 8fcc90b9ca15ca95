/**
 * @file
 * The sweep benchmark's own arithmetic, kept apart from main.cc so
 * tests/test_bench_logic.cc can pin it: the seeded input stream, the
 * percentile rule, span self time, the row comparison that ignores
 * host timing, and the paper-gap average.
 */

#ifndef SWEEPBENCH_BENCH_LOGIC_HH
#define SWEEPBENCH_BENCH_LOGIC_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/agg.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"

namespace sweepbench {

/**
 * splitmix64: the benchmark's input stream. Every generated input
 * (synthetic profile seeds, TDP permutations, cell order) comes from
 * one of these seeded by --seed, so a seed fixes the inputs exactly.
 */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Fisher-Yates shuffle (portable, unlike std::shuffle). */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t state_;
};

/** A timing's reported tail: which percentile, its value, and n. */
struct Tail
{
    double pct = 50.0;
    double value = 0.0;
    std::size_t count = 0;
};

/**
 * The highest of p50, p90, p99, p99.9, ... that has at least ten
 * samples beyond it, with the sample count (p50 when fewer than 20
 * samples exist).
 */
inline Tail
tailPercentile(const std::vector<double> &xs)
{
    Tail t;
    t.count = xs.size();
    // The (1 - 1/d) quantile has n/d samples beyond it.
    std::size_t d = 0;
    for (std::size_t next = 10; xs.size() >= 10 * next; next *= 10)
        d = next;
    t.pct = d == 0 ? 50.0 : 100.0 * (1.0 - 1.0 / static_cast<double>(d));
    t.value = sysscale::exp::agg::percentile(xs, t.pct);
    return t;
}

/**
 * One timed call: the layer it entered, its host interval, the span
 * that was open around it (-1 = none), and the cell it served.
 */
struct Span
{
    std::string name;
    std::string layer;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::string cell;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover (overlapping children are
 * merged, and children are clipped to the parent).
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cursor = p.startNs;
        for (const auto &c : iv) {
            const std::int64_t lo = std::max(c.first, cursor);
            const std::int64_t hi = std::min(c.second, p.endNs);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

/**
 * Whether two result rows agree on everything but host timing: the
 * CSV row with host_seconds zeroed, plus the stats dump.
 */
inline bool
sameRowIgnoringHost(sysscale::exp::RunResult a,
                    sysscale::exp::RunResult b)
{
    a.hostSeconds = 0.0;
    b.hostSeconds = 0.0;
    return sysscale::exp::csvRow(a) == sysscale::exp::csvRow(b) &&
           a.statsDump == b.statsDump;
}

/** Mean |model - paper| over paired values, in the values' unit. */
inline double
paperGapPp(const std::vector<double> &model,
           const std::vector<double> &paper)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < model.size(); ++i)
        sum += std::fabs(model[i] - paper[i]);
    return model.empty() ? 0.0 : sum / static_cast<double>(model.size());
}

} // namespace sweepbench

#endif // SWEEPBENCH_BENCH_LOGIC_HH
