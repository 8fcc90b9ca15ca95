/**
 * @file
 * Analytic CPU core model.
 *
 * Per-interval interval analysis in the spirit of first-order
 * processor models: a thread's cycles-per-instruction decompose into
 * a core component (CPI at ideal memory) and a memory component
 * (exposed LLC-miss latency). The memory component responds to the
 * loaded latency the memory subsystem reports, which is how memory
 * DVFS hurts latency-bound workloads (Fig. 2); a bandwidth clamp
 * models streaming workloads whose retirement rate tracks achieved
 * bandwidth (lbm in Fig. 2).
 */

#ifndef SYSSCALE_COMPUTE_CPU_HH
#define SYSSCALE_COMPUTE_CPU_HH

#include <cstdint>

#include "power/pbm.hh"
#include "power/power_model.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace sysscale {
namespace compute {

/** What one hardware thread is asked to execute in an interval. */
struct CoreWork
{
    /** Cycles per instruction with an ideal memory system. */
    double cpiBase = 1.0;

    /** LLC misses per kilo-instruction. */
    double mpki = 0.0;

    /**
     * Fraction of each miss's latency that stalls retirement
     * (the inverse of the exploitable memory-level parallelism).
     */
    double blockingFactor = 0.5;

    /**
     * Main-memory traffic per instruction in bytes, including
     * hardware prefetch (exceeds mpki * 64 on streaming codes).
     */
    double bytesPerInstr = 0.0;

    /** Switching activity factor for the power model. */
    double activity = 0.7;

    bool
    operator==(const CoreWork &o) const
    {
        return cpiBase == o.cpiBase && mpki == o.mpki &&
               blockingFactor == o.blockingFactor &&
               bytesPerInstr == o.bytesPerInstr &&
               activity == o.activity;
    }
};

/** Outcome of one interval on one thread. */
struct CoreResult
{
    double instructions = 0.0;  //!< Instructions retired.
    double ipc = 0.0;           //!< Achieved instructions per cycle.
    double stallCycles = 0.0;   //!< Cycles stalled on LLC misses.
    bool bandwidthLimited = false;
};

/**
 * A cluster of identical CPU cores behind one voltage rail.
 *
 * Frequency/voltage is one P-state for the whole cluster (the cores
 * and LLC share a regulator, Sec. 2.1).
 */
class CpuCluster : public SimObject
{
  public:
    /**
     * @param sim Simulation context.
     * @param parent Owning SimObject.
     * @param cores Physical core count (2 on the paper's SoC).
     * @param threads_per_core SMT width (2 on the paper's SoC).
     * @param pstates P-state table built from the core V/F curve.
     */
    CpuCluster(Simulator &sim, SimObject *parent, std::size_t cores,
               std::size_t threads_per_core,
               power::PStateTable pstates);

    std::size_t numCores() const { return cores_; }
    std::size_t threadsPerCore() const { return threadsPerCore_; }
    std::size_t numThreads() const { return cores_ * threadsPerCore_; }

    /** @name Operating point. @{ */
    Hertz frequency() const { return freq_; }
    Volt voltage() const { return voltage_; }

    /** Apply a P-state (PBM grant). Snaps to the table. */
    void setPState(const power::PState &state);

    const power::PStateTable &pstates() const { return pstates_; }
    /** @} */

    /**
     * IPC of one thread under @p work at @p mem_latency_ns, before
     * any bandwidth clamp.
     */
    double ipcAt(const CoreWork &work, double mem_latency_ns) const;

    /**
     * Unconstrained memory bandwidth demand of one thread under
     * @p work at @p mem_latency_ns.
     */
    BytesPerSec bandwidthDemand(const CoreWork &work,
                                double mem_latency_ns) const;

    /**
     * Retire one interval of work on one thread:
     * commitRetire(evaluateRetire(...)).
     *
     * @param work Thread characteristics.
     * @param mem_latency_ns Loaded memory latency this interval.
     * @param bw_grant_ratio Achieved/demanded bandwidth in (0, 1].
     * @param interval Interval length in ticks.
     */
    CoreResult retire(const CoreWork &work, double mem_latency_ns,
                      double bw_grant_ratio, Tick interval);

    /** What retire() would retire; pure (nothing is counted). */
    CoreResult evaluateRetire(const CoreWork &work,
                              double mem_latency_ns,
                              double bw_grant_ratio,
                              Tick interval) const;

    /**
     * Count @p res: instructions and stall cycles. Committing one
     * evaluation N times equals N retire() calls on its inputs.
     */
    void commitRetire(const CoreResult &res) { commitRetire(&res, 1, 1); }

    /**
     * Count @p n steps that each retire @p threads results, in
     * order: bit-identical to n rounds of commitRetire(res[i]) for
     * every i < threads.
     */
    void commitRetire(const CoreResult *res, std::size_t threads,
                      std::uint64_t n);

    /** Count @p n steps that each retire these sums of results. */
    void
    commitRetire(const stats::ExactSum::Term &instructions,
                 const stats::ExactSum::Term &stall_cycles,
                 std::uint64_t n)
    {
        instructions_.add(instructions, n);
        stallCycles_.add(stall_cycles, n);
    }

    /**
     * Cluster power with @p active_threads running at @p activity.
     * Idle cores burn leakage only.
     */
    Watt power(std::size_t active_threads, double activity) const;

    /** Leakage of the whole cluster at the current voltage. */
    Watt leakage() const { return leakage_; }

    /** Instructions retired since construction. */
    const stats::ExactSum &
    totalInstructions() const { return instructions_.sum(); }

    /** SMT throughput factor: 2 threads on a core yield this much. */
    static constexpr double kSmtYield = 1.45;

    /** Snapshot support: the applied P-state. */
    void visitState(StateIO &io) override;

  private:
    /**
     * Re-derive leakage_ from voltage_. Every writer of voltage_
     * (constructor, setPState(), a restoring visitState()) must call
     * it; the cache is never snapshotted.
     */
    void refreshLeakage();

    std::size_t cores_;
    std::size_t threadsPerCore_;
    power::PStateTable pstates_;
    Hertz freq_;
    Volt voltage_;
    Watt leakage_ = 0.0; //!< Derived from voltage_ by refreshLeakage().

    stats::Scalar instructions_;
    stats::Scalar stallCycles_;
    stats::Scalar pstateChanges_;
};

inline void
CpuCluster::commitRetire(const CoreResult *res, std::size_t threads,
                         std::uint64_t n)
{
    stats::ExactSum::Term instructions;
    stats::ExactSum::Term stalls;
    for (std::size_t i = 0; i < threads; ++i) {
        instructions += res[i].instructions;
        stalls += res[i].stallCycles;
    }
    commitRetire(instructions, stalls, n);
}

} // namespace compute
} // namespace sysscale

#endif // SYSSCALE_COMPUTE_CPU_HH
