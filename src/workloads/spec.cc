#include "workloads/spec.hh"

#include "sim/logging.hh"

namespace sysscale {
namespace workloads {

namespace {

/** Single-phase characterization of one benchmark. */
struct SpecRow
{
    const char *name;
    double cpiBase;
    double mpki;      //!< LLC misses per kilo-instruction at 4MB.
    double blocking;  //!< Exposed fraction of miss latency.
    double bpi;       //!< Memory bytes per instruction (w/ prefetch).
    double activity;  //!< Core switching activity.
    double scalability;
};

/**
 * Calibrated suite table. Memory-bound rows (high mpki/bpi) have low
 * frequency scalability; core-bound rows scale nearly 1:1.
 */
constexpr SpecRow kSuite[] = {
    // name              cpi   mpki  blk   bpi    act  scal
    {"400.perlbench",    0.70,  0.7, 0.35,  0.45, 0.80, 0.90},
    {"401.bzip2",        0.85,  1.5, 0.25,  1.20, 0.70, 0.72},
    {"403.gcc",          0.90,  2.0, 0.25,  1.80, 0.70, 0.65},
    {"429.mcf",          1.10, 16.5, 0.75,  7.50, 0.50, 0.10},
    {"445.gobmk",        0.95,  0.6, 0.30,  0.50, 0.80, 0.92},
    {"456.hmmer",        0.60,  0.3, 0.25,  0.35, 0.85, 0.95},
    {"458.sjeng",        0.90,  0.4, 0.30,  0.40, 0.80, 0.93},
    {"462.libquantum",   0.70,  8.0, 0.30,  6.00, 0.60, 0.15},
    {"464.h264ref",      0.65,  0.8, 0.30,  0.80, 0.85, 0.88},
    {"471.omnetpp",      1.00,  7.0, 0.70,  4.00, 0.55, 0.25},
    {"473.astar",        0.95,  1.2, 0.45,  1.00, 0.70, 0.65},
    {"483.xalancbmk",    0.85,  1.6, 0.35,  1.50, 0.65, 0.60},
    {"410.bwaves",       0.95, 12.0, 0.45, 10.00, 0.55, 0.08},
    {"416.gamess",       0.55,  0.15, 0.25, 0.20, 0.88, 0.97},
    {"433.milc",         1.00, 10.0, 0.50, 11.00, 0.55, 0.10},
    {"434.zeusmp",       0.85,  3.0, 0.30,  2.80, 0.65, 0.50},
    {"435.gromacs",      0.70,  0.9, 0.30,  0.90, 0.80, 0.88},
    {"436.cactusADM",    0.80,  9.5, 0.85,  5.00, 0.55, 0.15},
    {"437.leslie3d",     0.85,  7.0, 0.45,  8.00, 0.60, 0.20},
    {"444.namd",         0.60,  0.2, 0.25,  0.25, 0.88, 0.96},
    {"447.dealII",       0.70,  1.2, 0.30,  1.00, 0.75, 0.82},
    {"450.soplex",       0.90,  6.5, 0.60,  5.50, 0.60, 0.25},
    {"453.povray",       0.65,  0.1, 0.25,  0.15, 0.90, 0.97},
    {"454.calculix",     0.65,  0.7, 0.30,  0.70, 0.82, 0.90},
    {"459.GemsFDTD",     0.90,  9.0, 0.50,  9.00, 0.55, 0.15},
    {"465.tonto",        0.70,  0.8, 0.30,  0.80, 0.80, 0.87},
    {"470.lbm",          1.00, 20.0, 0.40, 16.00, 0.55, 0.05},
    {"481.wrf",          0.80,  2.2, 0.30,  1.60, 0.70, 0.60},
    {"482.sphinx3",      0.75,  2.8, 0.40,  1.80, 0.70, 0.55},
};

constexpr std::size_t kSuiteSize = sizeof(kSuite) / sizeof(kSuite[0]);

Phase
phaseOf(const SpecRow &row, Tick duration)
{
    Phase p;
    p.duration = duration;
    p.work.cpiBase = row.cpiBase;
    p.work.mpki = row.mpki;
    p.work.blockingFactor = row.blocking;
    p.work.bytesPerInstr = row.bpi;
    p.work.activity = row.activity;
    p.activeThreads = 1;
    return p;
}

WorkloadProfile
buildProfile(const SpecRow &row)
{
    const std::string name = row.name;

    // Benchmarks with documented phase behaviour get explicit phase
    // structure; the rest are steady.
    if (name == "400.perlbench") {
        // Core-bound with occasional bandwidth spikes (Fig. 3a).
        Phase low = phaseOf(row, 260 * kTicksPerMs);
        Phase spike = phaseOf(row, 40 * kTicksPerMs);
        spike.work.mpki = 4.0;
        spike.work.bytesPerInstr = 3.2;
        spike.work.blockingFactor = 0.45;
        return WorkloadProfile(name, WorkloadClass::CpuSingleThread,
                               {low, spike}, row.scalability);
    }
    if (name == "473.astar") {
        // Seconds-long alternation between ~1GB/s and ~10GB/s
        // demand (Sec. 7.1: SysScale tracks the phases).
        Phase low = phaseOf(row, 800 * kTicksPerMs);
        Phase high = phaseOf(row, 800 * kTicksPerMs);
        high.work.mpki = 8.0;
        high.work.bytesPerInstr = 9.0;
        high.work.blockingFactor = 0.45;
        return WorkloadProfile(name, WorkloadClass::CpuSingleThread,
                               {low, high}, row.scalability);
    }

    return WorkloadProfile(name, WorkloadClass::CpuSingleThread,
                           {phaseOf(row, 300 * kTicksPerMs)},
                           row.scalability);
}

} // namespace

std::vector<WorkloadProfile>
specSuite()
{
    std::vector<WorkloadProfile> suite;
    suite.reserve(kSuiteSize);
    for (const SpecRow &row : kSuite)
        suite.push_back(buildProfile(row));
    return suite;
}

WorkloadProfile
specBenchmark(const std::string &name)
{
    for (const SpecRow &row : kSuite) {
        if (name == row.name)
            return buildProfile(row);
    }
    SYSSCALE_FATAL("unknown SPEC benchmark '%s'", name.c_str());
}

} // namespace workloads
} // namespace sysscale
