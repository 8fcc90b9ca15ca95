/**
 * @file
 * Small statistics package in the spirit of gem5's Stats.
 *
 * Statistics attach to a StatGroup (usually owned by a SimObject) and
 * are dumped hierarchically. Supported kinds:
 *  - Scalar: monotonically accumulated value (counts, joules, ...).
 *  - Average: sample-weighted mean with min/max.
 *  - TimeAverage: time-weighted mean of a piecewise-constant signal.
 *  - Distribution: fixed-bucket histogram with overflow/underflow.
 */

#ifndef SYSSCALE_SIM_STATS_HH
#define SYSSCALE_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/exact_sum.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sysscale {
namespace stats {

class StatGroup;

/** Base class for all statistics: name, description, dump. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Print one or more "name value # desc" lines. */
    virtual void dump(std::ostream &os,
                      const std::string &prefix) const = 0;

    /** Snapshot support: bit-exact round trip of the accumulator
     *  state (keys are scoped under the stat's name by
     *  StatGroup::visitStats). */
    virtual void visitState(StateIO &io) = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Accumulating scalar. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }

    /** Add @p v @p n times, bit-identical to n `+= v`. */
    void add(double v, std::uint64_t n) { addRepeated(value_, v, n); }

    /**
     * Add n rounds of addend(0) .. addend(m - 1), bit-identical to
     * that loop of `+=` (see addRepeated()).
     */
    template <class Addend>
    void
    add(std::size_t m, std::uint64_t n, const Addend &addend)
    {
        addRepeated(value_, m, n, addend);
    }
    void set(double v) { value_ = v; }

    double value() const { return value_; }

    void dump(std::ostream &os,
              const std::string &prefix) const override;
    void visitState(StateIO &io) override;

  private:
    double value_ = 0.0;
};

/** Sample-weighted average with extrema. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Take @p n samples of @p v, bit-identical to n sample() calls. */
    void sample(double v, double weight = 1.0, std::uint64_t n = 1);

    double mean() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    std::uint64_t count() const { return count_; }

    void dump(std::ostream &os,
              const std::string &prefix) const override;
    void visitState(StateIO &io) override;

  private:
    double sum_ = 0.0;
    double weight_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::uint64_t count_ = 0;
};

inline void
Average::sample(double v, double weight, std::uint64_t n)
{
    SYSSCALE_ASSERT(weight >= 0.0, "negative sample weight");
    addRepeated(sum_, v * weight, n);
    addRepeated(weight_, weight, n);
    if (n == 0)
        return;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    count_ += n;
}

/**
 * Time-weighted mean of a piecewise-constant signal.
 *
 * Call set(value, now) whenever the signal changes; the interval since
 * the previous set() is credited to the previous value.
 */
class TimeAverage : public StatBase
{
  public:
    using StatBase::StatBase;

    void set(double value, Tick now);
    /** Close the pending interval without changing the value. */
    void finish(Tick now);

    double mean() const;
    double current() const { return current_; }

    void dump(std::ostream &os,
              const std::string &prefix) const override;
    void visitState(StateIO &io) override;

  private:
    double integral_ = 0.0;
    Tick elapsed_ = 0;
    double current_ = 0.0;
    Tick lastSet_ = 0;
    bool started_ = false;
};

/** Fixed-bucket histogram. */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup *parent, std::string name, std::string desc,
                 double lo, double hi, std::size_t buckets);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t samples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }

    void dump(std::ostream &os,
              const std::string &prefix) const override;
    void visitState(StateIO &io) override;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
};

/**
 * A named collection of statistics and child groups.
 */
class StatGroup
{
  public:
    StatGroup(StatGroup *parent, std::string name);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    /** Fully qualified dotted path (root excluded). */
    std::string path() const;

    /** Recursively dump "path.stat value # desc" lines. */
    void dumpStats(std::ostream &os) const;

    /**
     * Snapshot support: recursively walk every statistic in this
     * group and its children, scoping keys by group and stat name in
     * registration order. Because registration order is construction
     * order (and construction is deterministic), save and load walk
     * identical sequences.
     */
    void visitStats(StateIO &io);

  private:
    friend class StatBase;
    void registerStat(StatBase *s) { stats_.push_back(s); }
    void registerChild(StatGroup *g) { children_.push_back(g); }
    void unregisterChild(StatGroup *g);

    StatGroup *parent_;
    std::string name_;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace stats
} // namespace sysscale

#endif // SYSSCALE_SIM_STATS_HH
