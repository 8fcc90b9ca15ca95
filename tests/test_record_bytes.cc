/**
 * @file
 * Byte goldens for every on-disk record that is not a snapshot: the
 * full (non-canonical) spec record, a cache entry, a slice entry, a
 * failure marker and a worker metrics file, each built from fixed,
 * hand-built inputs. A record's checksum line covers every byte above
 * it, so pinning that one line pins the record. Together with the
 * spec-key goldens (test_spec_codec) and the snapshot fixture
 * (snap_golden) they catch any codec change that moves a byte; an
 * intended change bumps the record's header and re-pins here.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "dist/work_queue.hh"
#include "exp/cache.hh"
#include "exp/spec_codec.hh"
#include "tests/record_corruption.hh"
#include "tests/spec_fixtures.hh"
#include "workloads/micro.hh"

using namespace sysscale;

namespace {

/** The 16-hex value of @p text's checksum line. */
std::string
checksumOf(const std::string &text)
{
    const std::string marker = "checksum = ";
    const std::size_t at = text.rfind(marker);
    EXPECT_NE(at, std::string::npos);
    return text.substr(at + marker.size(), 16);
}

class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("sysscale-record-bytes-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~ScratchDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A short unsliced-or-sliced cell with fixed inputs. */
exp::ExperimentSpec
linkSpec()
{
    exp::ExperimentSpec spec;
    spec.id = "link-cell";
    spec.workload = workloads::streamMicro();
    spec.governor = "sysscale";
    spec.seed = 7;
    spec.warmup = 2 * kTicksPerMs;
    spec.window = 10 * kTicksPerMs;
    spec.labels = {{"cell", "link"}};
    return spec;
}

/** An ok result whose every stored field holds a fixed value. */
exp::RunResult
fixedResult()
{
    exp::RunResult res;
    res.id = "ignored-id";
    res.governor = "sysscale";
    res.ok = true;
    res.hostSeconds = 0.1;
    soc::RunMetrics &m = res.metrics;
    m.seconds = 0.345;
    m.instructions = 1.25e9;
    m.ips = 3.5e9;
    m.frames = 20.0;
    m.fps = 58.0;
    m.avgPower = 4.75;
    m.energy = 1.625;
    m.edp = 0.5;
    m.avgMemLatencyNs = 92.5;
    m.avgMemBandwidth = 6.4e9;
    m.avgCoreFreq = 1.8e9;
    m.qosViolations = 3;
    m.transitions = 11;
    m.stallTicks = 123456;
    m.lowPointResidency = 0.25;
    for (std::size_t i = 0; i < m.railEnergy.size(); ++i)
        m.railEnergy[i] = 0.125 * static_cast<double>(i + 1);
    for (std::size_t i = 0; i < res.counters.values.size(); ++i)
        res.counters.values[i] = 1.5 * static_cast<double>(i) - 0.75;
    res.statsDump = "soc.steps 42 # steps\n"
                    "soc.energy 1.625 # joules \\ total\n";
    return res;
}

} // anonymous namespace

TEST(RecordBytes, FullSpecRecord)
{
    EXPECT_EQ(checksumOf(exp::serializeSpec(test::richSpec())),
              "fdc7fd27b09d88f8");
}

TEST(RecordBytes, CacheEntry)
{
    const ScratchDir dir("cache");
    exp::ResultCache cache(dir.path());
    const exp::ExperimentSpec spec = linkSpec();
    cache.store(spec, fixedResult());
    EXPECT_EQ(checksumOf(test::readText(cache.pathFor(spec))),
              "d063b0a307b27b85");
}

TEST(RecordBytes, SliceEntry)
{
    const ScratchDir dir("slice");
    dist::WorkQueue queue(dir.path());
    const std::string key =
        queue.enqueue(linkSpec(), 5 * kTicksPerMs, 1);
    EXPECT_EQ(checksumOf(test::readText(queue.pendingPath(key))),
              "6781348b1baa5fac");
}

TEST(RecordBytes, FailureMarker)
{
    const ScratchDir dir("failure");
    dist::WorkQueue queue(dir.path());
    const std::string key = queue.enqueue(linkSpec());
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    exp::RunResult res;
    res.governor = "sysscale";
    res.error = "model fault\nat tick 9";
    res.hostSeconds = 0.1;
    queue.fail(claim, res);
    EXPECT_EQ(checksumOf(test::readText(queue.failedPath(key))),
              "50c0e89dd0b3102d");
}

TEST(RecordBytes, WorkerMetrics)
{
    const ScratchDir dir("metrics");
    dist::WorkQueue queue(dir.path());
    dist::WorkerMetrics m;
    m.workerId = "host-1-p0";
    m.claimed = 6;
    m.simulated = 5;
    m.cacheHits = 1;
    m.failures = 2;
    m.simSeconds = 0.1;
    m.wallSeconds = 2.5;
    m.ageSeconds = 99.0; // Readers only: never published.
    queue.publishMetrics(m);
    EXPECT_EQ(checksumOf(test::readText(queue.metricsPath(m.workerId))),
              "97044894f680750d");
}
