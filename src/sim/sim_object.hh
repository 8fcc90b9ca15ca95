/**
 * @file
 * SimObject and Simulator: naming, registration, and shared kernel
 * services (event queue, root RNG, stats root).
 */

#ifndef SYSSCALE_SIM_SIM_OBJECT_HH
#define SYSSCALE_SIM_SIM_OBJECT_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sysscale {

namespace obs { class TraceSink; }

class SimObject;

/**
 * Top-level simulation context.
 *
 * Owns the event queue, the root statistics group, and the root RNG.
 * SimObjects register themselves at construction; startup() is called
 * on each before the first event fires.
 */
class Simulator
{
  public:
    explicit Simulator(std::uint64_t seed = 1);

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    EventQueue &eventq() { return eventq_; }
    const EventQueue &eventq() const { return eventq_; }

    stats::StatGroup &statsRoot() { return statsRoot_; }

    /**
     * The installed trace sink, or nullptr (the default: tracing
     * off). The sink is borrowed, not owned — install it before
     * constructing the model so construction-time trace sites see
     * it, and keep it alive for the simulator's lifetime.
     */
    obs::TraceSink *traceSink() const { return traceSink_; }
    void setTraceSink(obs::TraceSink *sink) { traceSink_ = sink; }

    Tick now() const { return eventq_.now(); }

    /** Call startup() on all registered objects (idempotent). */
    void startAll();

    /**
     * Walk the kernel's snapshot sections in order: the pending
     * events, every object's visitState() scoped under its path, the
     * stats hierarchy and the root RNG. A loading walk first starts
     * the objects, so their startup hooks schedule the named events
     * the saved list is rebound to, then resumes the clock at the
     * reader's tick. Any mismatch throws SnapshotError.
     */
    void visitState(StateIO &io);

    /** Run the kernel until @p limit, calling startAll() first. */
    std::uint64_t run(Tick limit);

    const std::vector<SimObject *> &objects() const { return objects_; }

  private:
    friend class SimObject;
    void registerObject(SimObject *obj);
    void unregisterObject(SimObject *obj);

    EventQueue eventq_;
    stats::StatGroup statsRoot_;
    Rng rootRng_;
    std::vector<SimObject *> objects_;
    obs::TraceSink *traceSink_ = nullptr;
    bool started_ = false;
};

/**
 * Base class for every named model component.
 */
class SimObject : public stats::StatGroup
{
  public:
    SimObject(Simulator &sim, SimObject *parent, std::string name);
    ~SimObject() override;

    /** Hook called once before simulation begins. */
    virtual void startup() {}

    /**
     * Snapshot support: walk the object's *non-statistic* mutable
     * state (statistics round-trip through the StatGroup walk and
     * scheduled events through the EventQueue, so overrides only
     * handle plain members). Keys are scoped under the object's path
     * by Simulator::visitState(). Restores run on a freshly
     * constructed, started cell, so construction-derived members
     * need no encoding.
     */
    virtual void visitState(StateIO &io) { (void)io; }

    Simulator &sim() { return sim_; }
    const Simulator &sim() const { return sim_; }

    EventQueue &eventq() { return sim_.eventq(); }
    Tick now() const { return sim_.now(); }

    /** The simulator's trace sink (nullptr when tracing is off). */
    obs::TraceSink *traceSink() const { return sim_.traceSink(); }

  private:
    Simulator &sim_;
};

} // namespace sysscale

#endif // SYSSCALE_SIM_SIM_OBJECT_HH
