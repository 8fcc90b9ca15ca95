/**
 * @file
 * Unit tests for V/F curves, regulators, power primitives, P-states,
 * the PBM, and the energy meter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "power/energy_meter.hh"
#include "power/pbm.hh"
#include "power/power_model.hh"
#include "power/regulator.hh"
#include "power/vf_curve.hh"
#include "soc/config.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace power {
namespace {

TEST(VfCurve, InterpolatesBetweenPoints)
{
    VfCurve c("t", {{1.0 * kGHz, 0.6}, {2.0 * kGHz, 1.0}});
    EXPECT_DOUBLE_EQ(c.voltageAt(1.5 * kGHz), 0.8);
}

TEST(VfCurve, ClampsOutsideRange)
{
    VfCurve c("t", {{1.0 * kGHz, 0.6}, {2.0 * kGHz, 1.0}});
    EXPECT_DOUBLE_EQ(c.voltageAt(0.5 * kGHz), 0.6);
    EXPECT_DOUBLE_EQ(c.voltageAt(3.0 * kGHz), 1.0);
}

TEST(VfCurve, InverseLookupRoundTrips)
{
    VfCurve c = skylakeCoreCurve();
    const Hertz f = 1.8 * kGHz;
    EXPECT_NEAR(c.freqAt(c.voltageAt(f)), f, 1e6);
}

TEST(VfCurve, SkylakeIoCurveMatchesTable1Anchor)
{
    // Table 1: V_IO at the 1066MT/s bin is 0.85 of the boot 1.00V.
    VfCurve c = skylakeIoCurve();
    EXPECT_NEAR(c.voltageAt(0.53 * kGHz), 0.85, 1e-9);
    EXPECT_NEAR(c.voltageAt(0.80 * kGHz), 1.00, 1e-9);
}

TEST(VfCurve, SaCurveFlattensBelowLowPoint)
{
    // Sec. 7.4: V_SA reaches Vmin at the 1066 pairing, so the 800
    // bin frees no further voltage.
    VfCurve c = skylakeSaCurve();
    EXPECT_DOUBLE_EQ(c.voltageAt(0.40 * kGHz),
                     c.voltageAt(0.30 * kGHz));
}

TEST(Regulator, RampLatencyMatchesSlewRate)
{
    // 50mV/us slew: a 100mV move takes 2us (paper Sec. 5).
    Regulator r(Rail::VSA, 0.80, 50e-3 / 1e-6);
    const Tick lat = r.rampTo(0.70, 0);
    EXPECT_EQ(lat, 2 * kTicksPerUs);
}

TEST(Regulator, VoltageInterpolatesDuringRamp)
{
    Regulator r(Rail::VSA, 0.80, 50e-3 / 1e-6);
    r.rampTo(0.70, 0);
    EXPECT_NEAR(r.voltage(1 * kTicksPerUs), 0.75, 1e-9);
    EXPECT_NEAR(r.voltage(2 * kTicksPerUs), 0.70, 1e-9);
    EXPECT_FALSE(r.ramping(2 * kTicksPerUs));
}

TEST(Regulator, InputPowerIncludesConversionLoss)
{
    Regulator r(Rail::VSA, 0.8, 5e4, /*efficiency=*/0.8);
    EXPECT_NEAR(r.inputPower(0.8), 1.0, 1e-9);
}

TEST(PowerModel, DynamicPowerFormula)
{
    // Cdyn V^2 f a = 1nF * 1V^2 * 1GHz * 0.5 = 0.5W.
    EXPECT_NEAR(dynamicPower(1e-9, 1.0, 1e9, 0.5), 0.5, 1e-12);
}

TEST(PowerModel, LeakageGrowsWithVoltageAndTemperature)
{
    const Watt base = leakagePower(0.1, 0.8, 50.0);
    EXPECT_GT(leakagePower(0.1, 0.9, 50.0), base);
    EXPECT_GT(leakagePower(0.1, 0.8, 80.0), base);
}

TEST(PowerModel, EdpDefinition)
{
    EXPECT_DOUBLE_EQ(edp(2.0, 3.0), 6.0);
    EXPECT_DOUBLE_EQ(ed2p(2.0, 3.0), 18.0);
}

TEST(PStateTable, StatesAreMonotonic)
{
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    ASSERT_EQ(t.states().size(), 16u);
    for (std::size_t i = 1; i < t.states().size(); ++i) {
        EXPECT_GT(t.states()[i].freq, t.states()[i - 1].freq);
        EXPECT_GE(t.states()[i].voltage, t.states()[i - 1].voltage);
        EXPECT_GT(t.states()[i].maxPower, t.states()[i - 1].maxPower);
    }
}

TEST(PStateTable, HighestUnderRespectsBudget)
{
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    const Watt budget = t.states()[7].maxPower + 1e-6;
    const PState &s = t.highestUnder(budget);
    EXPECT_DOUBLE_EQ(s.freq, t.states()[7].freq);
}

TEST(PStateTable, LowestStateReturnedWhenNothingFits)
{
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    const PState &s = t.highestUnder(0.0);
    EXPECT_DOUBLE_EQ(s.freq, t.min().freq);
}

TEST(Pbm, ComputeBudgetSubtractsDomains)
{
    PowerBudgetManager pbm(4.5, 0.25);
    EXPECT_NEAR(pbm.computeBudget(1.0, 0.5), 2.75, 1e-12);
    EXPECT_DOUBLE_EQ(pbm.computeBudget(5.0, 0.0), 0.0);
}

TEST(Pbm, SplitGivesCoresMinorShareUnderGraphics)
{
    PowerBudgetManager pbm(4.5);
    const ComputeSplit s = pbm.split(2.0, /*gfx_active=*/true);
    EXPECT_NEAR(s.coreBudget, 2.0 * 0.15, 1e-12);
    EXPECT_NEAR(s.gfxBudget, 2.0 * 0.85, 1e-12);

    const ComputeSplit cpu_only = pbm.split(2.0, false);
    EXPECT_DOUBLE_EQ(cpu_only.coreBudget, 2.0);
}

TEST(Pbm, GrantDemotesOverBudgetRequests)
{
    PowerBudgetManager pbm(4.5);
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    const PState &granted =
        pbm.grant(t, t.max().freq, /*budget=*/0.3, /*activity=*/0.8);
    EXPECT_LT(granted.freq, t.max().freq);
    EXPECT_LE(t.powerAt(granted.freq, 0.8), 0.3 + 1e-9);
}

// ---------------------------------------------------------------------
// Differential suite: the cached P-state grant path against a verbatim
// copy of the uncached formulas it replaced. Every comparison is
// bitwise (returned state by address, watts by bit pattern).
// ---------------------------------------------------------------------

/** Uncached reference: interpolate V, then dynamic + leakage. */
Watt
refPowerAt(const PStateTable &t, const VfCurve &curve, Hertz freq,
           double activity)
{
    const Volt v = curve.voltageAt(freq);
    return dynamicPower(t.cdyn(), v, freq, activity) +
           leakagePower(t.leakK(), v, t.temperature());
}

/** Uncached reference: re-evaluate both power terms per state. */
const PState &
refHighestUnder(const PStateTable &t, Watt budget, double activity)
{
    const PState *best = &t.states().front();
    for (const auto &s : t.states()) {
        const Watt p = dynamicPower(t.cdyn(), s.voltage, s.freq,
                                    activity) +
                       leakagePower(t.leakK(), s.voltage,
                                    t.temperature());
        if (p <= budget)
            best = &s;
    }
    return *best;
}

/** Uncached reference of PowerBudgetManager::grant. */
const PState &
refGrant(const PStateTable &t, const VfCurve &curve, Hertz requested,
         Watt budget, double activity)
{
    if (refPowerAt(t, curve, requested, activity) <= budget) {
        const PState *best = &t.min();
        for (const auto &s : t.states()) {
            if (s.freq <= requested + 1.0)
                best = &s;
        }
        return *best;
    }
    return refHighestUnder(t, budget, activity);
}

std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** The two default tables: skylakeConfig()'s core and gfx domains. */
struct DefaultTable
{
    const char *name;
    VfCurve curve;
    PStateTable table;
};

std::vector<DefaultTable>
defaultTables()
{
    const soc::SocConfig cfg = soc::skylakeConfig();
    std::vector<DefaultTable> out;
    out.push_back({"core", skylakeCoreCurve(),
                   PStateTable(skylakeCoreCurve(), cfg.coreCdyn,
                               cfg.coreLeakK, cfg.temperature,
                               cfg.pstateSteps)});
    out.push_back({"gfx", skylakeGfxCurve(),
                   PStateTable(skylakeGfxCurve(), cfg.gfxCdyn,
                               cfg.gfxLeakK, cfg.temperature,
                               cfg.pstateSteps)});
    return out;
}

const std::vector<double> kActivities = {0.0,  0.05, 0.3, 0.5, 0.77,
                                         1.0,  1.25, 1.5, 2.0};

/**
 * Budgets spanning every state's power at @p activity: each exact
 * value, its neighbouring doubles (the <= boundary), midpoints, and
 * values below the minimum and above the maximum.
 */
std::vector<Watt>
budgetsFor(const PStateTable &t, double activity)
{
    std::vector<Watt> out = {0.0, -1.0, 1e-6, 1e3};
    Watt prev = 0.0;
    for (const auto &s : t.states()) {
        const Watt exact = dynamicPower(t.cdyn(), s.voltage, s.freq,
                                        activity) +
                           leakagePower(t.leakK(), s.voltage,
                                        t.temperature());
        out.push_back(exact);
        out.push_back(std::nextafter(exact, 0.0));
        out.push_back(std::nextafter(exact, 1e9));
        out.push_back(0.5 * (prev + exact));
        prev = exact;
    }
    for (int i = 0; i <= 100; ++i)
        out.push_back(prev * 1.2 * i / 100.0);
    return out;
}

/** Requests on the grid, between states, and outside the span. */
std::vector<Hertz>
requestsFor(const PStateTable &t)
{
    std::vector<Hertz> out;
    for (std::size_t i = 0; i < t.states().size(); ++i) {
        const Hertz f = t.states()[i].freq;
        out.push_back(f);
        out.push_back(std::nextafter(f, 0.0));
        out.push_back(std::nextafter(f, 1e12));
        out.push_back(f + 0.5);  // inside grant's +1 Hz tolerance
        out.push_back(f - 0.5);
        out.push_back(f - 1.0);  // on the tolerance boundary
        if (i + 1 < t.states().size())
            out.push_back(0.5 * (f + t.states()[i + 1].freq));
    }
    out.push_back(t.min().freq * 0.5);
    out.push_back(t.min().freq - 1e8);
    out.push_back(t.max().freq + 1e8);
    out.push_back(t.max().freq * 2.0);
    return out;
}

TEST(PStateCache, DefaultTablesHaveConfiguredSteps)
{
    const soc::SocConfig cfg = soc::skylakeConfig();
    ASSERT_EQ(cfg.pstateSteps, 28u);
    for (const DefaultTable &d : defaultTables()) {
        ASSERT_EQ(d.table.states().size(), 28u) << d.name;
        for (const auto &s : d.table.states()) {
            EXPECT_EQ(bits(s.maxPower),
                      bits(refPowerAt(d.table, d.curve, s.freq, 1.0)))
                << d.name << " @ " << s.freq;
            EXPECT_EQ(bits(s.dynPowerW + s.leakPowerW),
                      bits(s.maxPower));
        }
    }
}

TEST(PStateCache, HighestUnderMatchesUncachedBitwise)
{
    std::size_t cases = 0;
    for (const DefaultTable &d : defaultTables()) {
        for (const double a : kActivities) {
            for (const Watt b : budgetsFor(d.table, a)) {
                const PState &got = d.table.highestUnder(b, a);
                const PState &want = refHighestUnder(d.table, b, a);
                ASSERT_EQ(&got, &want) << d.name << " budget " << b
                                       << " activity " << a;
                ++cases;
            }
        }
        // The activity-1 overload.
        for (const Watt b : budgetsFor(d.table, 1.0)) {
            ASSERT_EQ(&d.table.highestUnder(b),
                      &refHighestUnder(d.table, b, 1.0));
        }
    }
    EXPECT_GT(cases, 3000u);
}

TEST(PStateCache, PowerAtMatchesUncachedBitwise)
{
    for (const DefaultTable &d : defaultTables()) {
        for (const double a : kActivities) {
            for (const Hertz f : requestsFor(d.table)) {
                ASSERT_EQ(bits(d.table.powerAt(f, a)),
                          bits(refPowerAt(d.table, d.curve, f, a)))
                    << d.name << " freq " << f << " activity " << a;
            }
        }
    }
}

TEST(PStateCache, GrantMatchesUncachedBitwise)
{
    const PowerBudgetManager pbm(4.5);
    std::size_t cases = 0;
    for (const DefaultTable &d : defaultTables()) {
        const std::vector<Hertz> requests = requestsFor(d.table);
        for (const double a : kActivities) {
            for (const Watt b : budgetsFor(d.table, a)) {
                for (const Hertz f : requests) {
                    const PState &got = pbm.grant(d.table, f, b, a);
                    const PState &want =
                        refGrant(d.table, d.curve, f, b, a);
                    ASSERT_EQ(&got, &want)
                        << d.name << " request " << f << " budget "
                        << b << " activity " << a;
                    ++cases;
                }
            }
        }
    }
    EXPECT_GT(cases, 500000u);
}

/**
 * Every throttle the Soc's reactive walk can reach from 1.0: down in
 * steps of 0.98 to the floor, and up in steps of 1.01 from points of
 * that descent (Soc::advanceEwmas()), in ascending order.
 */
std::vector<double>
walkThrottles()
{
    std::vector<double> out;
    std::vector<double> down = {1.0};
    while (down.back() > soc::Soc::kThrottleFloor) {
        down.push_back(
            std::max(soc::Soc::kThrottleFloor, down.back() * 0.98));
    }
    for (std::size_t i = 0; i < down.size(); ++i) {
        out.push_back(down[i]);
        if (i % 8 != 0 && i + 1 != down.size())
            continue;
        for (double t = down[i]; t < 1.0;) {
            t = std::min(1.0, t * 1.01);
            out.push_back(t);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

TEST(Pbm, GrantIsMonotoneInTheThrottle)
{
    // A throttle that rises never grants a slower state, bit for bit,
    // for every shipped table, with the budget formed as grantsAt()
    // forms it for the GFX (budget * throttle) and the CPU (throttle *
    // budget / cores).
    const std::vector<double> throttles = walkThrottles();
    ASSERT_GT(throttles.size(), 500u);
    const PowerBudgetManager pbm(4.5);
    std::size_t cases = 0;
    for (const soc::SocConfig &cfg :
         {soc::skylakeConfig(), soc::broadwellConfig(),
          soc::skylakeDdr4Config()}) {
        const PStateTable tables[] = {
            PStateTable(skylakeCoreCurve(), cfg.coreCdyn, cfg.coreLeakK,
                        cfg.temperature, cfg.pstateSteps),
            PStateTable(skylakeGfxCurve(), cfg.gfxCdyn, cfg.gfxLeakK,
                        cfg.temperature, cfg.pstateSteps)};
        for (const PStateTable &t : tables) {
            std::vector<Hertz> requests = {t.max().freq * 2.0};
            for (const auto &st : t.states())
                requests.push_back(st.freq);
            for (const double a : {soc::Soc::kIdleActivity, 0.3, 1.0}) {
                // Bases whose throttled budget crosses every state.
                std::vector<Watt> bases;
                for (const auto &st : t.states()) {
                    const Watt p = st.powerAt(a);
                    bases.push_back(p / 0.65);
                    bases.push_back(std::nextafter(p, 0.0) / 0.9);
                }
                for (const Hertz f : requests) {
                    for (const Watt base : bases) {
                        const PState *gfx = &t.min();
                        const PState *cpu = &t.min();
                        for (const double th : throttles) {
                            const PState &g = pbm.grant(t, f, base * th, a);
                            const PState &c =
                                pbm.grant(t, f, th * base / 2.0, a);
                            ASSERT_GE(g.freq, gfx->freq)
                                << "request " << f << " base " << base
                                << " activity " << a << " throttle " << th;
                            ASSERT_GE(c.freq, cpu->freq)
                                << "request " << f << " base " << base
                                << " activity " << a << " throttle " << th;
                            gfx = &g;
                            cpu = &c;
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 1000000u);
}

TEST(PStateCache, PowerAndFrequencyNondecreasingAcrossStates)
{
    // highestUnder() and grant() binary-search the table, which is
    // only valid while both keys are sorted by state index.
    for (const DefaultTable &d : defaultTables()) {
        const std::vector<PState> &st = d.table.states();
        for (std::size_t i = 1; i < st.size(); ++i) {
            EXPECT_LE(st[i - 1].freq, st[i].freq) << d.name << " " << i;
            for (const double a : {0.0, 0.5, 1.0, 2.0}) {
                EXPECT_LE(st[i - 1].powerAt(a), st[i].powerAt(a))
                    << d.name << " state " << i << " activity " << a;
            }
        }
    }
}

TEST(PStateCacheDeathTest, ActivityAboveTwoStillPanics)
{
    const std::vector<DefaultTable> tables = defaultTables();
    const PStateTable &t = tables.front().table;
    EXPECT_DEATH(t.highestUnder(1.0, 2.5), "activity");
    EXPECT_DEATH(t.powerAt(t.max().freq, 2.5), "activity");
    EXPECT_DEATH(t.highestUnder(1.0, -0.1), "activity");
}

TEST(EnergyMeter, IntegratesPerRail)
{
    EnergyMeter m;
    const Joule vsa = 2.0;  // 2 W for 1 s
    const Joule vddq = 0.5; // 1 W for 0.5 s
    m.addEnergy(Rail::VSA, &vsa, 1, 1);
    m.addEnergy(Rail::VDDQ, &vddq, 1, 1);
    EXPECT_NEAR(m.railEnergy(Rail::VSA), 2.0, 1e-9);
    EXPECT_NEAR(m.railEnergy(Rail::VDDQ), 0.5, 1e-9);
    EXPECT_NEAR(m.totalEnergy(), 2.5, 1e-9);
    EXPECT_NEAR(m.averagePower(kTicksPerSec), 2.5, 1e-9);
}

TEST(EnergyMeter, RepeatedChargesMatchSingleOnes)
{
    // V_SA takes its rail energy, then the platform floor, every
    // step; a replay batch charges n such rounds in one call.
    EnergyMeter one, many;
    const Joule joules[] = {1.3e-5, 2.1e-6};
    const Joule start = 0.25;
    one.addEnergy(Rail::VSA, &start, 1, 1);
    many.addEnergy(Rail::VSA, &start, 1, 1);
    for (int i = 0; i < 5000; ++i) {
        one.addEnergy(Rail::VSA, &joules[0], 1, 1);
        one.addEnergy(Rail::VSA, &joules[1], 1, 1);
        one.addEnergy(Rail::VCore, &joules[1], 1, 1);
    }
    many.addEnergy(Rail::VSA, joules, 2, 5000);
    many.addEnergy(Rail::VCore, &joules[1], 1, 5000);
    EXPECT_EQ(one.railEnergy(Rail::VSA), many.railEnergy(Rail::VSA));
    EXPECT_EQ(one.railEnergy(Rail::VCore),
              many.railEnergy(Rail::VCore));
}

TEST(EnergyMeter, ResetMovesWindow)
{
    EnergyMeter m;
    const Joule before = 2.0, after = 1.0;
    m.addEnergy(Rail::VSA, &before, 1, 1);
    m.reset(kTicksPerSec);
    EXPECT_DOUBLE_EQ(m.totalEnergy(), 0.0);
    m.addEnergy(Rail::VSA, &after, 1, 1);
    EXPECT_NEAR(m.averagePower(2 * kTicksPerSec), 1.0, 1e-9);
}

TEST(EnergyMeterDeathTest, NegativeEnergyPanics)
{
    // Any addend of a round is checked, not only the first.
    EnergyMeter m;
    const Joule joules[] = {1.0, -1e-9};
    EXPECT_DEATH(m.addEnergy(Rail::VSA, &joules[1], 1, 1),
                 "negative energy on rail");
    EXPECT_DEATH(m.addEnergy(Rail::VDDQ, joules, 2, 3),
                 "negative energy on rail");
}

} // namespace
} // namespace power
} // namespace sysscale
