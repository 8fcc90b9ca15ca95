/**
 * @file
 * Observability tests: TraceSink semantics (change-filtered
 * counters, bounded buffer, JSON shape, null-sink macro safety) and
 * the determinism contract of traced cells — skip-ahead on/off
 * differ only in the "replay" category, and tracing never perturbs
 * the simulation's results. That --jobs never changes a trace byte
 * is pinned over a whole corpus by the jobs_4 mode of
 * tests/test_contracts.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/governor.hh"
#include "core/governor_registry.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "obs/trace.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"
#include "tests/test_util.hh"
#include "workloads/battery.hh"
#include "workloads/micro.hh"
#include "workloads/scenario.hh"
#include "workloads/spec.hh"

using namespace sysscale;
using test::readFile;
using test::SkipAheadGuard;
using test::TempDir;

namespace {

exp::ExperimentSpec
fastSpec(const std::string &id, std::uint64_t seed = 1)
{
    exp::ExperimentSpec spec;
    spec.id = id;
    spec.workload = workloads::streamMicro();
    spec.governor = "sysscale";
    spec.seed = seed;
    spec.warmup = 5 * kTicksPerMs;
    spec.window = 30 * kTicksPerMs;
    return spec;
}

std::string
traceFileFor(const exp::ExperimentSpec &spec,
             const std::string &dir)
{
    return dir + "/" + exp::specKey(spec) + ".trace.json";
}

/** Drop every line of @p text carrying the given trace category. */
std::string
stripCategory(const std::string &text, const std::string &cat)
{
    const std::string needle = "\"cat\":\"" + cat + "\"";
    std::istringstream is(text);
    std::string out, line;
    while (std::getline(is, line)) {
        if (line.find(needle) == std::string::npos)
            out += line + "\n";
    }
    return out;
}

/** Lines of @p text carrying the given trace category. */
std::size_t
countCategory(const std::string &text, const std::string &cat)
{
    const std::string needle = "\"cat\":\"" + cat + "\"";
    std::istringstream is(text);
    std::size_t n = 0;
    std::string line;
    while (std::getline(is, line))
        n += line.find(needle) != std::string::npos;
    return n;
}

/** @p text with the metadata's drop count blanked out. */
std::string
withoutDropCount(std::string text)
{
    const std::string key = "\"dropped\":\"";
    const auto pos = text.find(key);
    if (pos != std::string::npos) {
        const auto begin = pos + key.size();
        text.erase(begin, text.find('"', begin) - begin);
    }
    return text;
}

/** What a bounded sink kept and dropped of one traced cell. */
struct BoundedTrace
{
    std::string json;
    std::size_t dropped = 0;
};

/**
 * A Fig. 9 video-playback cell under the sysscale governor, traced
 * for 100 ms into a sink holding at most @p capacity events.
 */
BoundedTrace
traceVideoPlayback(std::size_t capacity, bool skip_ahead)
{
    obs::TraceSink sink(capacity);
    Simulator sim;
    sim.setTraceSink(&sink);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.setSkipAhead(skip_ahead);
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(workloads::videoPlayback());
    chip.setWorkload(&agent);
    const std::unique_ptr<core::Governor> gov =
        core::makeGovernor("sysscale", {});
    chip.pmu().setGovernor(gov.get());
    chip.run(100 * kTicksPerMs);

    std::ostringstream os;
    sink.writeJson(os);
    return {os.str(), sink.dropped()};
}

/** Host-timing-free CSV row, for result-identity comparisons. */
std::string
stableRow(exp::RunResult res)
{
    res.hostSeconds = 0.0;
    return exp::csvRow(res);
}

} // anonymous namespace

TEST(TraceSink, CountersAreChangeFiltered)
{
    obs::TraceSink sink;
    sink.counter(obs::kCatPower, "w", 0, 1.0);
    sink.counter(obs::kCatPower, "w", 10, 1.0);
    sink.counter(obs::kCatPower, "w", 20, 1.0);
    EXPECT_EQ(sink.size(), 1u);

    sink.counter(obs::kCatPower, "w", 30, 2.0);
    EXPECT_EQ(sink.size(), 2u);

    // Distinct series filter independently, even with equal values.
    sink.counter(obs::kCatOpPoint, "w", 40, 2.0);
    EXPECT_EQ(sink.size(), 3u);
}

TEST(TraceSink, EqualNamesAtTwoAddressesShareOneSeries)
{
    static const char first[] = "w";
    static const char second[] = "w";
    ASSERT_NE(static_cast<const void *>(first),
              static_cast<const void *>(second));
    obs::TraceSink sink;
    sink.counter(obs::kCatPower, first, 0, 1.0);
    sink.counter(obs::kCatPower, second, 10, 1.0);
    EXPECT_EQ(sink.size(), 1u);
    sink.counter(obs::kCatPower, second, 20, 2.0);
    sink.counter(obs::kCatPower, first, 30, 2.0);
    EXPECT_EQ(sink.size(), 2u);
}

TEST(TraceSink, RestoredFilterReplacesTheCallSitesSeenBefore)
{
    obs::TraceSink saved;
    saved.counter(obs::kCatPower, "a", 0, 5.0);
    saved.counter(obs::kCatPower, "w", 0, 2.0);
    SnapshotWriter w("trace-test v1");
    StateIO out(w);
    saved.visitState(out);

    obs::TraceSink sink;
    sink.counter(obs::kCatPower, "w", 0, 1.0);
    SnapshotReader r(w.str(), "trace-test v1");
    StateIO in(r);
    sink.visitState(in);
    sink.counter(obs::kCatPower, "w", 10, 2.0); // Filtered.
    sink.counter(obs::kCatPower, "w", 20, 1.0);
    ASSERT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.events()[2].ts, 20u);
}

TEST(TraceSink, CapacityDropsNewEventsNotOldOnes)
{
    obs::TraceSink sink(2);
    sink.instant(obs::kCatGovernor, "first", 1);
    sink.instant(obs::kCatGovernor, "second", 2);
    sink.instant(obs::kCatGovernor, "third", 3);
    ASSERT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.dropped(), 1u);
    EXPECT_EQ(sink.events()[0].name, "first");
    EXPECT_EQ(sink.events()[1].name, "second");
}

TEST(TraceSink, DroppedCounterSampleDoesNotPoisonTheFilter)
{
    obs::TraceSink sink(1);
    sink.counter(obs::kCatPower, "w", 0, 1.0); // Buffered.
    sink.counter(obs::kCatPower, "w", 10, 2.0); // Dropped (full).
    EXPECT_EQ(sink.dropped(), 1u);
    // The dropped sample must not have updated the series' last
    // value: the filter state only tracks what the trace contains.
    sink.counter(obs::kCatPower, "w", 20, 2.0);
    EXPECT_EQ(sink.dropped(), 2u);
}

TEST(TraceSink, RepeatedCounterSamplesDropLikeSingleOnes)
{
    obs::TraceSink one(1), many(1);
    one.counter(obs::kCatPower, "w", 0, 1.0);
    many.counter(obs::kCatPower, "w", 0, 1.0);
    // Filtered: the buffered value repeats.
    for (int i = 0; i < 5; ++i)
        one.counter(obs::kCatPower, "w", 10, 1.0);
    many.counter(obs::kCatPower, "w", 10, 1.0, 5);
    // Dropped every time: the full buffer never records 2.0.
    for (int i = 0; i < 7; ++i)
        one.counter(obs::kCatPower, "w", 20, 2.0);
    many.counter(obs::kCatPower, "w", 20, 2.0, 7);
    EXPECT_EQ(one.dropped(), 7u);
    EXPECT_EQ(many.dropped(), one.dropped());
    EXPECT_EQ(many.size(), one.size());
}

TEST(TraceSink, SpanClampsInvertedInterval)
{
    obs::TraceSink sink;
    sink.span(obs::kCatTransition, "weird", 100, 40);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.events()[0].dur, 0u);
}

TEST(TraceSink, JsonIsLineFilterableAndCommaSafe)
{
    obs::TraceSink sink;
    sink.span(obs::kCatTransition, "flow", 0, kTicksPerUs,
              obs::kv("from", "high"));
    sink.instant(obs::kCatScenario, "display_on", 2 * kTicksPerUs);
    sink.counter(obs::kCatOpPoint, "dram_bin", 0, 1.0);

    std::ostringstream os;
    sink.writeJson(os);
    const std::string text = os.str();

    EXPECT_EQ(text.rfind("{\"traceEvents\":[\n", 0), 0u);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    // Every event line leads with its comma, so dropping any subset
    // of lines leaves valid JSON.
    EXPECT_NE(text.find(",{\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find(",{\"ph\":\"i\",\"s\":\"t\""),
              std::string::npos);
    EXPECT_NE(text.find(",{\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"args\":{\"from\":\"high\"}"),
              std::string::npos);
    EXPECT_NE(text.find("\"otherData\""), std::string::npos);
    EXPECT_NE(text.find("\"dropped\":\"0\""), std::string::npos);
}

TEST(TraceSink, EmptySinkStillWritesValidDocument)
{
    obs::TraceSink sink;
    std::ostringstream os;
    sink.writeJson(os);
    // Metadata only; the last metadata line must not dangle a comma.
    EXPECT_NE(os.str().find("\"op-point\"}}\n],"),
              std::string::npos);
}

TEST(TraceSink, MacrosTolerateNullAndDisabledSinks)
{
    obs::TraceSink *null_sink = nullptr;
    TRACE_SPAN(null_sink, obs::kCatTransition, "x", 0, 1, "");
    TRACE_INSTANT(null_sink, obs::kCatGovernor, "x", 0, "");
    TRACE_COUNTER(null_sink, obs::kCatPower, "x", 0, 1.0);
    EXPECT_FALSE(TRACE_ACTIVE(null_sink));

    obs::TraceSink off;
    off.setEnabled(false);
    TRACE_INSTANT(&off, obs::kCatGovernor, "x", 0, "");
    EXPECT_FALSE(TRACE_ACTIVE(&off));
    EXPECT_EQ(off.size(), 0u);
}

TEST(TraceSink, KvHelpersEmitJsonFragments)
{
    EXPECT_EQ(obs::kv("a", "b\"c"), "\"a\":\"b\\\"c\"");
    EXPECT_EQ(obs::kv("n", 1.5), "\"n\":1.5");
    EXPECT_EQ(obs::kv("i", 7), "\"i\":7");
    EXPECT_EQ(obs::kv("u", std::uint64_t{9}), "\"u\":9");
}

TEST(TraceDeterminism, SkipAheadDiffersOnlyInReplayCategory)
{
    const exp::ExperimentSpec spec = fastSpec("skip-cell");

    const TempDir fast("fast");
    const TempDir slow("slow");
    exp::SliceOptions fast_opts;
    fast_opts.traceDir = fast.path();
    exp::SliceOptions slow_opts;
    slow_opts.traceDir = slow.path();

    std::string fast_text, slow_text;
    {
        const SkipAheadGuard guard(true);
        ASSERT_TRUE(exp::runCellSlice(spec, fast_opts).ok);
        fast_text = readFile(traceFileFor(spec, fast.path()));
    }
    {
        const SkipAheadGuard guard(false);
        ASSERT_TRUE(exp::runCellSlice(spec, slow_opts).ok);
        slow_text = readFile(traceFileFor(spec, slow.path()));
    }

    // The fast path batches replayed steps into "replay" spans the
    // slow path never emits; everything else is byte-identical.
    EXPECT_NE(fast_text.find("\"cat\":\"replay\""),
              std::string::npos);
    EXPECT_EQ(slow_text.find("\"cat\":\"replay\""),
              std::string::npos);
    EXPECT_EQ(stripCategory(fast_text, "replay"),
              stripCategory(slow_text, "replay"));
}

TEST(TraceDeterminism, FullBufferDropsMatchAcrossSkipAhead)
{
    // Once the buffer is full, every per-step rail-power counter
    // whose value the trace never recorded is dropped again: a
    // dropped sample leaves the change filter as it was. Replayed
    // steps must count those drops exactly as slow steps do. The
    // buffer fills on the cell's third step, before the first replay
    // batch, so both runs keep the same events.
    constexpr std::size_t kCapacity = 16;
    const BoundedTrace fast = traceVideoPlayback(kCapacity, true);
    const BoundedTrace slow = traceVideoPlayback(kCapacity, false);
    const BoundedTrace whole =
        traceVideoPlayback(obs::TraceSink::kDefaultCapacity, true);
    ASSERT_EQ(whole.dropped, 0u);

    // The fast run also drops every replay span.
    const std::size_t replay_spans = countCategory(whole.json, "replay");
    ASSERT_GT(replay_spans, 0u);
    ASSERT_EQ(countCategory(fast.json, "replay"), 0u);
    ASSERT_GT(slow.dropped, 1000u);
    EXPECT_EQ(fast.dropped - replay_spans, slow.dropped);
    EXPECT_EQ(withoutDropCount(stripCategory(fast.json, "replay")),
              withoutDropCount(stripCategory(slow.json, "replay")));
}

TEST(TraceDeterminism, ReplayBatchesAreSingleSpansWithStepCounts)
{
    const exp::ExperimentSpec spec = fastSpec("replay-cell");
    const TempDir dir("replay");
    exp::SliceOptions opts;
    opts.traceDir = dir.path();

    const SkipAheadGuard guard(true);
    const exp::RunResult res = exp::runCellSlice(spec, opts);
    ASSERT_TRUE(res.ok);

    // The replayed-step total the simulation itself recorded.
    const std::string stat = "soc.replayed_steps ";
    const auto stat_pos = res.statsDump.find(stat);
    ASSERT_NE(stat_pos, std::string::npos);
    const std::uint64_t recorded = std::strtoull(
        res.statsDump.c_str() + stat_pos + stat.size(), nullptr,
        10);
    ASSERT_GT(recorded, 0u);

    const std::string text =
        readFile(traceFileFor(spec, dir.path()));
    std::istringstream is(text);
    std::string line;
    std::uint64_t replayed = 0;
    std::size_t batches = 0;
    while (std::getline(is, line)) {
        if (line.find("\"name\":\"replay_batch\"") ==
            std::string::npos)
            continue;
        ++batches;
        EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos);
        const std::string marker = "\"steps\":";
        const auto pos = line.find(marker);
        ASSERT_NE(pos, std::string::npos);
        replayed += std::strtoull(
            line.c_str() + pos + marker.size(), nullptr, 10);
    }
    EXPECT_GT(batches, 0u);
    // One span per batch; the spans' step counts account for every
    // replayed step exactly once.
    EXPECT_EQ(replayed, recorded);
}

TEST(TraceDeterminism, TracingNeverPerturbsResults)
{
    const exp::ExperimentSpec spec = fastSpec("observer-cell");
    const TempDir dir("observer");
    exp::SliceOptions traced_opts;
    traced_opts.traceDir = dir.path();

    const exp::RunResult plain = exp::runCell(spec);
    const exp::RunResult traced = exp::runCellSlice(spec, traced_opts);
    ASSERT_TRUE(plain.ok);
    ASSERT_TRUE(traced.ok);
    EXPECT_EQ(stableRow(plain), stableRow(traced));
    EXPECT_EQ(plain.statsDump, traced.statsDump);
    EXPECT_FALSE(plain.statsDump.empty());
}

TEST(TraceDeterminism, StatsDumpCarriesResidencyStats)
{
    const exp::RunResult res = exp::runCell(fastSpec("stats-cell"));
    ASSERT_TRUE(res.ok);
    EXPECT_NE(res.statsDump.find("soc.dram_bin::tmean"),
              std::string::npos);
    EXPECT_NE(res.statsDump.find("soc.fabric_mhz::tmean"),
              std::string::npos);
    EXPECT_NE(res.statsDump.find("soc.vsa_v::tmean"),
              std::string::npos);
    EXPECT_NE(res.statsDump.find("soc.vio_v::tmean"),
              std::string::npos);
}
