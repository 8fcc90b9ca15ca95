/**
 * @file
 * ResultCache tests: hit/miss/corrupt-file behavior, the
 * never-cache-error-rows rule, and runner integration (an
 * interrupted sweep resumes incrementally). That a warm sweep reruns
 * zero cells and replays the cold one byte for byte is pinned over a
 * whole corpus by the warm_cache mode of tests/test_contracts.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/cache.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/spec_codec.hh"
#include "tests/record_corruption.hh"
#include "tests/test_util.hh"
#include "workloads/micro.hh"

using namespace sysscale;
using test::TempDir;

namespace {

exp::ExperimentSpec
fastSpec(const std::string &id, std::uint64_t seed = 1)
{
    exp::ExperimentSpec spec;
    spec.id = id;
    spec.workload = workloads::streamMicro();
    spec.governor = "fixed";
    spec.seed = seed;
    spec.warmup = 5 * kTicksPerMs;
    spec.window = 30 * kTicksPerMs;
    spec.labels = {{"cell", id}};
    return spec;
}

/** Serialize a result with the host-timing column neutralized. */
std::string
stableRow(exp::RunResult res)
{
    res.hostSeconds = 0.0;
    return exp::csvRow(res);
}

std::vector<exp::ExperimentSpec>
smallGrid()
{
    std::vector<exp::ExperimentSpec> specs;
    for (const auto &w :
         {workloads::streamMicro(), workloads::spinMicro()}) {
        for (const std::uint64_t seed : {1ull, 7ull}) {
            exp::ExperimentSpec spec;
            spec.id = w.name() + "/seed" + std::to_string(seed);
            spec.workload = w;
            spec.governor = "sysscale";
            spec.seed = seed;
            spec.warmup = 5 * kTicksPerMs;
            spec.window = 30 * kTicksPerMs;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

} // anonymous namespace

TEST(ResultCache, MissThenHitRoundTripsResult)
{
    const TempDir dir("roundtrip");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = fastSpec("unit");

    exp::RunResult out;
    EXPECT_FALSE(cache.lookup(spec, out));
    EXPECT_EQ(cache.stats().misses, 1u);

    const exp::RunResult res = exp::runCell(spec);
    ASSERT_TRUE(res.ok) << res.error;
    cache.store(spec, res);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_TRUE(std::filesystem::exists(cache.pathFor(spec)));

    ASSERT_TRUE(cache.lookup(spec, out));
    EXPECT_EQ(cache.stats().hits, 1u);
    // Byte-identical including the recorded host timing.
    EXPECT_EQ(exp::csvRow(out), exp::csvRow(res));
    EXPECT_EQ(exp::jsonObject(out), exp::jsonObject(res));
}

TEST(ResultCache, HitTakesIdAndLabelsFromQueryingSpec)
{
    const TempDir dir("presentation");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec original = fastSpec("original");
    cache.store(original, exp::runCell(original));

    exp::ExperimentSpec renamed = original;
    renamed.id = "renamed";
    renamed.labels = {{"cell", "renamed"}, {"extra", "1"}};
    ASSERT_EQ(exp::specKey(renamed), exp::specKey(original));

    exp::RunResult out;
    ASSERT_TRUE(cache.lookup(renamed, out));
    EXPECT_EQ(out.id, "renamed");
    EXPECT_EQ(out.labels, renamed.labels);
}

TEST(ResultCache, ErrorRowsAreNeverCached)
{
    const TempDir dir("errors");
    exp::ResultCache cache(dir.path());
    exp::ExperimentSpec broken = fastSpec("broken");
    broken.window = 0;

    const exp::RunResult res = exp::runCell(broken);
    ASSERT_FALSE(res.ok);
    cache.store(broken, res);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(broken)));

    exp::RunResult out;
    EXPECT_FALSE(cache.lookup(broken, out));
}

TEST(ResultCache, CorruptFileIsAMissAndGetsRepaired)
{
    const TempDir dir("corrupt");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = fastSpec("corrupt");
    const exp::RunResult res = exp::runCell(spec);
    cache.store(spec, res);

    for (const char *garbage :
         {"", "not a record at all", "sysscale-cache v1\n",
          "sysscale-cache v1\nkey = x\nchecksum = 0000000000000000\n",
          "sysscale-cache v99\nkey = x\n"}) {
        test::writeText(cache.pathFor(spec), garbage);
        exp::RunResult out;
        EXPECT_FALSE(cache.lookup(spec, out)) << garbage;
    }
    EXPECT_EQ(cache.stats().corrupt, 5u);

    // The next store repairs the entry in place.
    cache.store(spec, res);
    exp::RunResult out;
    EXPECT_TRUE(cache.lookup(spec, out));
    EXPECT_EQ(stableRow(out), stableRow(res));
}

TEST(ResultCache, EntryWithFatalSpecFieldIsAMissNotACrash)
{
    const TempDir dir("fatalfield");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = fastSpec("fatal");
    cache.store(spec, exp::runCell(spec));

    // Tamper with the stored spec text, checksum re-stamped: a
    // zero-length phase is fatal in WorkloadProfile's constructor,
    // so the hit path must reject the entry by comparing canonical
    // bytes, never by constructing the stored spec.
    std::string doc = test::readText(cache.pathFor(spec));
    const std::string needle = "phase.0.duration = ";
    const std::size_t at = doc.find(needle);
    ASSERT_NE(at, std::string::npos);
    std::size_t end = at + needle.size();
    while (end < doc.size() && doc[end] >= '0' && doc[end] <= '9')
        ++end;
    doc.replace(at + needle.size(), end - (at + needle.size()), "0");
    test::writeText(cache.pathFor(spec), test::restampRecord(doc));

    exp::RunResult out;
    EXPECT_FALSE(cache.lookup(spec, out));
    EXPECT_GE(cache.stats().corrupt, 1u);
}

TEST(ResultCache, TruncatedNumberTokenIsAMissNotAWrongHit)
{
    const TempDir dir("badnumber");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = fastSpec("badnumber");
    cache.store(spec, exp::runCell(spec));

    // qos_violations 0 -> 12.9 under a valid checksum: a prefix
    // parse would stop at the '.' and serve 12; the reader must
    // reject the token instead.
    const std::string doc = test::readText(cache.pathFor(spec));
    test::writeText(cache.pathFor(spec),
                    test::replaceValue(doc, "metrics.qos_violations",
                                       "12.9"));

    exp::RunResult out;
    EXPECT_FALSE(cache.lookup(spec, out));
    EXPECT_GE(cache.stats().corrupt, 1u);
}

TEST(ResultCache, StoredEntryWithForeignKeyIsRejected)
{
    const TempDir dir("foreign");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec a = fastSpec("a", 1);
    const exp::ExperimentSpec b = fastSpec("b", 2);
    cache.store(a, exp::runCell(a));

    // Simulate a collision: b's slot holds a's (valid) entry.
    std::filesystem::copy_file(cache.pathFor(a), cache.pathFor(b));
    exp::RunResult out;
    EXPECT_FALSE(cache.lookup(b, out));
    EXPECT_GE(cache.stats().corrupt, 1u);
}

TEST(ResultCache, InterruptedSweepResumesIncrementally)
{
    const TempDir dir("resume");
    const auto specs = smallGrid();

    // "Interrupted" first sweep: only half the cells completed.
    {
        exp::ResultCache cache(dir.path());
        const std::vector<exp::ExperimentSpec> half(
            specs.begin(), specs.begin() + specs.size() / 2);
        exp::RunnerOptions opts;
        opts.jobs = 1;
        opts.cache = &cache;
        (void)exp::ExperimentRunner(opts).run(half);
    }

    exp::ResultCache cache(dir.path());
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    const auto results = exp::ExperimentRunner(opts).run(specs);
    EXPECT_EQ(cache.stats().hits, specs.size() / 2);
    EXPECT_EQ(cache.stats().misses,
              specs.size() - specs.size() / 2);
    for (const auto &res : results)
        EXPECT_TRUE(res.ok) << res.error;
}

/**
 * An entry written under the previous spec format version sitting at
 * the right path must degrade to a miss — never a wrong hit — and
 * the next store replaces it with a current entry. This is the
 * versioning policy of docs/EXPERIMENTS.md exercised end to end.
 */
TEST(ResultCache, StaleFormatEntryDegradesToAMiss)
{
    const TempDir dir("staleentry");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = fastSpec("staleentry");
    const exp::RunResult res = exp::runCell(spec);
    cache.store(spec, res);

    // Rewrite the stored canonical text as a previous-version spec
    // under a valid checksum (as a real pre-bump entry at this path
    // would be): only the canonical byte compare can reject it.
    const std::string cur = std::to_string(exp::kSpecFormatVersion);
    const std::string old =
        std::to_string(exp::kSpecFormatVersion - 1);
    std::string doc = test::readText(cache.pathFor(spec));
    const std::string hdr_cur = "spec = sysscale-spec v" + cur;
    const std::size_t hdr = doc.find(hdr_cur);
    ASSERT_NE(hdr, std::string::npos);
    doc.replace(hdr, hdr_cur.size(), "spec = sysscale-spec v" + old);
    test::writeText(cache.pathFor(spec), test::restampRecord(doc));

    exp::RunResult out;
    EXPECT_FALSE(cache.lookup(spec, out));
    EXPECT_EQ(cache.stats().corrupt, 1u);

    // The next store repairs the slot with a current entry.
    cache.store(spec, res);
    EXPECT_TRUE(cache.lookup(spec, out));
    EXPECT_EQ(stableRow(out), stableRow(res));
}

/**
 * The record battery (tests/record_corruption.hh) against a cache
 * entry: every truncation, a flipped value byte, a stale container
 * header and a foreign spec under a valid checksum are all misses,
 * never a hit with a wrong value; the next store repairs the slot.
 */
TEST(ResultCache, CorruptionBatteryIsAlwaysAMiss)
{
    const TempDir dir("battery");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = fastSpec("battery");
    const exp::RunResult res = exp::runCell(spec);
    cache.store(spec, res);
    const std::string good = test::readText(cache.pathFor(spec));

    auto cases = test::recordCorruptions(good, "metrics.qos_violations");
    // Another cell's entry re-keyed to this slot: the key matches,
    // only the canonical byte compare can reject it.
    const exp::ExperimentSpec other = fastSpec("other", 9);
    cache.store(other, res);
    cases.emplace_back(
        "foreign spec",
        test::replaceValue(test::readText(cache.pathFor(other)), "key",
                           exp::specKey(spec)));
    for (const auto &c : cases) {
        test::writeText(cache.pathFor(spec), c.second);
        exp::RunResult out;
        EXPECT_FALSE(cache.lookup(spec, out)) << c.first;
    }
    EXPECT_EQ(cache.stats().corrupt, cases.size());
    EXPECT_EQ(cache.stats().hits, 0u);

    test::writeText(cache.pathFor(spec), good);
    exp::RunResult out;
    ASSERT_TRUE(cache.lookup(spec, out));
    EXPECT_EQ(exp::csvRow(out), exp::csvRow(res));
}

/**
 * Scenario-bearing cells are content-addressed like any other: the
 * mixed videoconf scenario (camera + overlay layer + TDP stepping)
 * simulates once and replays from cache byte-identically, and cells
 * differing only in scenario never alias.
 */
TEST(ResultCache, ScenarioCellsAreContentAddressed)
{
    const TempDir dir("scenario");
    exp::ResultCache cache(dir.path());

    exp::ExperimentSpec plain = fastSpec("plain");
    exp::ExperimentSpec scen = fastSpec("videoconf");
    scen.scenario = workloads::scenarioByName("videoconf");
    EXPECT_NE(exp::specKey(plain), exp::specKey(scen));

    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    const auto first = exp::ExperimentRunner(opts).run({plain, scen});
    ASSERT_TRUE(first[0].ok) << first[0].error;
    ASSERT_TRUE(first[1].ok) << first[1].error;
    EXPECT_EQ(cache.stats().stores, 2u);

    const auto second =
        exp::ExperimentRunner(opts).run({plain, scen});
    EXPECT_EQ(cache.stats().hits, 2u);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(exp::csvRow(first[i]), exp::csvRow(second[i]));
}

TEST(ResultCache, MixedGridCachesOnlyTheHealthyCells)
{
    const TempDir dir("mixed");
    auto specs = smallGrid();
    specs[1].window = 0; // validation failure -> error row

    exp::ResultCache cache(dir.path());
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.cache = &cache;
    const auto results = exp::ExperimentRunner(opts).run(specs);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(cache.stats().stores, specs.size() - 1);
    EXPECT_FALSE(
        std::filesystem::exists(cache.pathFor(specs[1])));
}

TEST(ResultCache, StatsDumpRoundTripsThroughTheCache)
{
    const TempDir dir("statsdump");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = fastSpec("stats");

    const exp::RunResult res = exp::runCell(spec);
    ASSERT_TRUE(res.ok);
    ASSERT_FALSE(res.statsDump.empty());
    cache.store(spec, res);

    exp::RunResult out;
    ASSERT_TRUE(cache.lookup(spec, out));
    EXPECT_EQ(out.statsDump, res.statsDump);
}
