/**
 * @file
 * Snapshot layer tests: codec round trips, corruption rejection,
 * corrupt inputs degrading to a fresh simulation, traced/untraced
 * restores, and slice argument validation. That a restore or a
 * checkpoint chain matches the run-through bit for bit is pinned
 * over a whole corpus by the restore and chain modes of
 * tests/test_contracts.cc. When a cell diverges, `tools/snap_inspect`
 * diffs the two snapshots down to a named field.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"
#include "tests/spec_fixtures.hh"
#include "tests/test_util.hh"

namespace sysscale {
namespace {

using test::bits;
using test::expectSameResult;
using test::randomSpec;
using test::SkipAheadGuard;
using test::TempDir;

/** Snapshot path helper. */
std::string
snapPath(const std::string &dir, const std::string &tag)
{
    return dir + "/" + tag + ".snap";
}

/** Re-stamp the checksum line after mutating a snapshot's text. */
std::string
restampChecksum(std::string text)
{
    const std::size_t pos = text.rfind("checksum = ");
    EXPECT_NE(pos, std::string::npos);
    text.resize(pos);
    const std::uint64_t sum = fnv1a64(text);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(sum));
    return text + "checksum = " + buf + "\n";
}

} // anonymous namespace

TEST(SnapshotCodec, ScalarRoundTrip)
{
    SnapshotWriter w("deadbeefdeadbeef", 42);
    w.putU64("u", 0xffffffffffffffffULL);
    w.putBool("yes", true);
    w.putBool("no", false);
    w.putDouble("pi", 3.141592653589793);
    w.putString("s", "line one\nline two\\with backslash");
    w.push("scope");
    w.putU64("inner", 7);
    w.pop();

    SnapshotReader r(w.str());
    EXPECT_EQ(r.specKey(), "deadbeefdeadbeef");
    EXPECT_EQ(r.tick(), 42u);
    EXPECT_EQ(r.getU64("u"), 0xffffffffffffffffULL);
    EXPECT_TRUE(r.getBool("yes"));
    EXPECT_FALSE(r.getBool("no"));
    EXPECT_EQ(bits(r.getDouble("pi")), bits(3.141592653589793));
    EXPECT_EQ(r.getString("s"),
              "line one\nline two\\with backslash");
    r.push("scope");
    EXPECT_EQ(r.getU64("inner"), 7u);
    r.pop();
    EXPECT_NO_THROW(r.finish());
}

TEST(SnapshotCodec, DoublesAreBitExact)
{
    const std::vector<double> specials = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -1.0 / 3.0,
    };
    SnapshotWriter w("0000000000000000", 0);
    for (std::size_t i = 0; i < specials.size(); ++i)
        w.putDouble("d" + std::to_string(i), specials[i]);
    SnapshotReader r(w.str());
    for (std::size_t i = 0; i < specials.size(); ++i) {
        EXPECT_EQ(bits(r.getDouble("d" + std::to_string(i))),
                  bits(specials[i]))
            << i;
    }
    r.finish();
}

TEST(SnapshotCodec, DuplicateKeyThrows)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 1);
    EXPECT_THROW(w.putU64("k", 2), SnapshotError);
}

TEST(SnapshotCodec, DuplicateKeyThrowsAmongManyAndLeavesTheRecord)
{
    SnapshotWriter w("0000000000000000", 0);
    w.push("a");
    for (std::uint64_t i = 0; i < 1000; ++i)
        w.putU64("k" + std::to_string(i), i);
    w.pop();
    // The same leaf under another scope is a different key.
    w.push("b");
    w.putU64("k7", 7);
    w.pop();
    const std::string before = w.str();
    w.push("a");
    EXPECT_THROW(w.putDouble("k7", 1.0), SnapshotError);
    w.pop();
    EXPECT_THROW(w.putU64("b.k7", 2), SnapshotError);
    EXPECT_EQ(w.str(), before);
    w.putU64("c", 3);
    SnapshotReader r(w.str());
    EXPECT_EQ(r.getU64("a.k999"), 999u);
}

TEST(SnapshotCodec, MissingAndUnconsumedKeysThrow)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("present", 1);
    SnapshotReader r(w.str());
    EXPECT_THROW((void)r.getU64("absent"), SnapshotError);
    // "present" was never consumed.
    EXPECT_THROW(r.finish(), SnapshotError);
}

TEST(SnapshotCodec, TruncationIsRejected)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 1);
    const std::string text = w.str();
    // size-2 cuts into the checksum digits; a missing final *newline*
    // alone is tolerated by design (the checksum still verifies).
    for (const std::size_t cut :
         {text.size() - 2, text.size() / 2, std::size_t{10}}) {
        EXPECT_THROW(SnapshotReader r(text.substr(0, cut)),
                     SnapshotError)
            << "cut at " << cut;
    }
}

TEST(SnapshotCodec, BitFlipIsRejected)
{
    SnapshotWriter w("0000000000000000", 7);
    w.putDouble("v", 1.25);
    w.putU64("n", 3);
    const std::string text = w.str();
    for (std::size_t i = 0; i < text.size(); i += 7) {
        std::string bad = text;
        bad[i] = static_cast<char>(bad[i] ^ 0x08);
        if (bad == text)
            continue;
        EXPECT_THROW(SnapshotReader r(bad), SnapshotError)
            << "flip at " << i;
    }
}

TEST(SnapshotCodec, StaleVersionIsRejectedLoudly)
{
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 1);
    std::string text = w.str();
    const std::string ver =
        "sysscale-snap v" + std::to_string(kSnapFormatVersion);
    const std::size_t pos = text.find(ver);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, ver.size(), "sysscale-snap v999");
    text = restampChecksum(text);
    try {
        SnapshotReader r(text);
        FAIL() << "stale version accepted";
    } catch (const SnapshotError &e) {
        // "snapshot format v999 does not match this build's v1;
        //  stale snapshots must be re-simulated"
        EXPECT_NE(std::string(e.what()).find("stale"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFile, TmpRenameRoundTrip)
{
    const TempDir dir("file");
    const std::string path = snapPath(dir.path(), "t");
    SnapshotWriter w("0000000000000000", 0);
    w.putU64("k", 9);
    writeSnapshotFile(path, w.str());
    EXPECT_EQ(readSnapshotFile(path), w.str());
    // No tmp litter from the atomic-rename protocol.
    std::size_t entries = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path())) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    EXPECT_THROW((void)readSnapshotFile(dir.path() + "/absent.snap"),
                 SnapshotError);
}

TEST(SnapshotFuzz, CorruptInputsDegradeToFreshSimulation)
{
    const SkipAheadGuard guard(false);

    std::mt19937_64 rng(0x5eed);
    const exp::ExperimentSpec spec = randomSpec(rng);
    const Tick total = spec.warmup + spec.window;
    const Tick k = total / 2;

    const exp::RunResult reference = exp::runCell(spec);
    ASSERT_TRUE(reference.ok) << reference.error;

    const TempDir dir("fuzz");
    const std::string snap = snapPath(dir.path(), "k");
    exp::SliceOptions first;
    first.t1 = k;
    first.outSnap = snap;
    ASSERT_TRUE(exp::runCellSlice(spec, first).ok);
    const std::string good = readSnapshotFile(snap);

    // Every corruption is (a) loudly rejected by the reader and (b)
    // absorbed by runCellSlice as a cache miss: the slice re-runs
    // from tick 0 and still produces the byte-identical cell.
    std::vector<std::pair<std::string, std::string>> corrupt;
    corrupt.emplace_back("truncated",
                         good.substr(0, good.size() * 2 / 3));
    {
        std::string flipped = good;
        flipped[good.size() / 2] =
            static_cast<char>(flipped[good.size() / 2] ^ 0x10);
        corrupt.emplace_back("bit-flipped", flipped);
    }
    {
        std::string bumped = good;
        const std::string ver =
            "sysscale-snap v" + std::to_string(kSnapFormatVersion);
        const std::size_t pos = bumped.find(ver);
        ASSERT_NE(pos, std::string::npos);
        bumped.replace(pos, ver.size(), "sysscale-snap v999");
        corrupt.emplace_back("version-bumped",
                             restampChecksum(bumped));
    }
    {
        // A valid snapshot of a *different* spec.
        exp::ExperimentSpec other = spec;
        other.seed += 1;
        const std::string osnap = snapPath(dir.path(), "other");
        exp::SliceOptions oopts;
        oopts.t1 = k;
        oopts.outSnap = osnap;
        ASSERT_TRUE(exp::runCellSlice(other, oopts).ok);
        corrupt.emplace_back("wrong-spec", readSnapshotFile(osnap));
    }

    for (const auto &c : corrupt) {
        if (c.first != "wrong-spec") {
            EXPECT_THROW(SnapshotReader r(c.second), SnapshotError)
                << c.first;
        }
        const std::string bad =
            snapPath(dir.path(), "bad-" + c.first);
        writeSnapshotFile(bad, c.second);
        exp::SliceOptions sopts;
        sopts.t0 = k;
        sopts.inSnap = bad;
        const exp::RunResult res = exp::runCellSlice(spec, sopts);
        ASSERT_TRUE(res.ok) << c.first << ": " << res.error;
        expectSameResult(reference, res, c.first);
    }

    // A missing file degrades the same way.
    exp::SliceOptions sopts;
    sopts.t0 = k;
    sopts.inSnap = dir.path() + "/never-written.snap";
    const exp::RunResult res = exp::runCellSlice(spec, sopts);
    ASSERT_TRUE(res.ok) << res.error;
    expectSameResult(reference, res, "missing file");
}

TEST(SnapshotSlice, TracedSnapshotRestoresIntoUntracedCell)
{
    const SkipAheadGuard guard(false);

    std::mt19937_64 rng(0x0b5);
    const exp::ExperimentSpec spec = randomSpec(rng);
    const Tick total = spec.warmup + spec.window;
    const Tick k = total / 3;

    const exp::RunResult reference = exp::runCell(spec);
    ASSERT_TRUE(reference.ok) << reference.error;

    const TempDir dir("obs");
    // Save traced, restore untraced: the "obs" section is skipped.
    const std::string traced = snapPath(dir.path(), "traced");
    exp::SliceOptions first;
    first.t1 = k;
    first.outSnap = traced;
    first.traceDir = dir.path();
    ASSERT_TRUE(exp::runCellSlice(spec, first).ok);
    exp::SliceOptions second;
    second.t0 = k;
    second.inSnap = traced;
    const exp::RunResult untraced = exp::runCellSlice(spec, second);
    ASSERT_TRUE(untraced.ok) << untraced.error;
    expectSameResult(reference, untraced, "traced->untraced");

    // Save untraced, restore traced: no "obs" section to load; the
    // continuation still simulates identically (its trace only has
    // the tail, so the file itself is not compared).
    const std::string plain = snapPath(dir.path(), "plain");
    exp::SliceOptions third;
    third.t1 = k;
    third.outSnap = plain;
    ASSERT_TRUE(exp::runCellSlice(spec, third).ok);
    exp::SliceOptions fourth;
    fourth.t0 = k;
    fourth.inSnap = plain;
    fourth.traceDir = dir.path();
    const exp::RunResult traced_run =
        exp::runCellSlice(spec, fourth);
    ASSERT_TRUE(traced_run.ok) << traced_run.error;
    expectSameResult(reference, traced_run, "untraced->traced");
}

TEST(SnapshotSlice, SliceArgumentValidation)
{
    std::mt19937_64 rng(0x11);
    const exp::ExperimentSpec spec = randomSpec(rng);
    const Tick total = spec.warmup + spec.window;

    exp::SliceOptions past_end;
    past_end.t1 = total + 1;
    EXPECT_FALSE(exp::runCellSlice(spec, past_end).ok);

    exp::SliceOptions empty;
    empty.t0 = total / 2;
    empty.t1 = total / 2;
    empty.inSnap = "unused.snap";
    EXPECT_FALSE(exp::runCellSlice(spec, empty).ok);

    exp::SliceOptions no_snap;
    no_snap.t0 = total / 2;
    EXPECT_FALSE(exp::runCellSlice(spec, no_snap).ok);
}

} // namespace sysscale
