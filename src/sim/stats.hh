/**
 * @file
 * Small statistics package in the spirit of gem5's Stats.
 *
 * Statistics attach to a StatGroup (usually owned by a SimObject) and
 * are dumped hierarchically. Supported kinds:
 *  - Scalar: monotonically accumulated value (counts, joules, ...).
 *  - Average: sample-weighted mean with min/max.
 *  - TimeAverage: time-weighted mean of a piecewise-constant signal.
 *
 * Scalar and Average sum through ExactSum, the fixed-point accumulator
 * every per-step sum of the model uses.
 */

#ifndef SYSSCALE_SIM_STATS_HH
#define SYSSCALE_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sysscale {
namespace stats {

class StatGroup;

/**
 * An exact sum in fixed point: a signed 128-bit count of quanta of
 * 2^-64, spanning +-2^63 (about 9.2e18). Each addend is rounded to
 * the nearest quantum once, as a Term; the rest is integer arithmetic,
 * which is associative, so n adds of a term are one multiply-add and
 * any order or grouping of the same terms gives the same bits. One
 * add() takes less than 2^62 in magnitude (term times count); a larger
 * add, a non-finite term or a sum leaving the range panics.
 */
class ExactSum
{
  public:
    /** One addend (or a sum of them), rounded to quanta once. */
    class Term
    {
      public:
        Term() = default;

        /** @p value, rounded to the nearest quantum. */
        Term(double value) // Implicit: every double is a term.
            : value_(value)
        {
            checkMagnitude(std::fabs(value), 1); // Before quantize().
            quanta_ = quantize(value);
        }

        /** The double the term was made from (for a sum, their sum). */
        double value() const { return value_; }

        /** Add @p o's quanta. */
        Term &
        operator+=(const Term &o)
        {
            value_ += o.value_;
            checkMagnitude(std::fabs(value_), 1);
            quanta_ += o.quanta_;
            return *this;
        }

      private:
        friend class ExactSum;
        double value_ = 0.0; //!< Bounds quanta_ (checkMagnitude()).
        __int128 quanta_ = 0;
    };

    /** Add @p term @p n times. */
    void
    add(const Term &term, std::uint64_t n = 1)
    {
        checkMagnitude(std::fabs(term.value_), n);
        SYSSCALE_ASSERT(!__builtin_add_overflow(
                            quanta_, n == 1 ? term.quanta_ : term.quanta_ * n,
                            &quanta_),
                        "ExactSum: sum out of range");
    }

    /** The sum, rounded to nearest: the count's top 64 bits with a
     *  sticky bit (inline; the __int128 conversion is a libcall). */
    double
    value() const
    {
        const auto q = static_cast<unsigned __int128>(quanta_);
        const unsigned __int128 mag = quanta_ < 0 ? -q : q;
        const auto high = static_cast<std::uint64_t>(mag >> 64);
        const int shift = high ? 64 - __builtin_clzll(high) : 0;
        const auto low = static_cast<std::uint64_t>(mag);
        const std::uint64_t top = static_cast<std::uint64_t>(mag >> shift) |
                                  (shift && low << (64 - shift) != 0);
        // Times 2^(shift - 64), exactly: a quantum is 2^-64.
        const auto scale = static_cast<std::uint64_t>(959 + shift) << 52;
        double v;
        std::memcpy(&v, &scale, sizeof v);
        return (quanta_ < 0 ? -v : v) * static_cast<double>(top);
    }

    /** The exact difference. */
    ExactSum
    operator-(const ExactSum &o) const
    {
        ExactSum d;
        SYSSCALE_ASSERT(
            !__builtin_sub_overflow(quanta_, o.quanta_, &d.quanta_),
            "ExactSum: difference out of range");
        return d;
    }

    bool operator==(const ExactSum &o) const { return quanta_ == o.quanta_; }

  private:
    friend class ::sysscale::StateIO; // Saves and restores quanta_.

    /**
     * Panic unless @p magnitude times @p n (at least 1) is below 2^62:
     * no NaN or infinity, and quanta times n cannot overflow.
     */
    static void
    checkMagnitude(double magnitude, std::uint64_t n)
    {
        SYSSCALE_ASSERT(
            magnitude * static_cast<double>(std::max<std::uint64_t>(n, 1)) <
                0x1p62,
            "ExactSum: add of %g x %llu is not finite or out of range",
            magnitude, static_cast<unsigned long long>(n));
    }

    /**
     * std::nearbyint(std::ldexp(term, 64)) for |term| < 2^62, from the
     * bits (inline, where those two are library calls).
     */
    static __int128
    quantize(double term)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &term, sizeof bits);
        const int exponent = static_cast<int>(bits >> 52 & 0x7ff);
        const std::uint64_t mantissa =
            (bits & ((std::uint64_t{1} << 52) - 1)) | std::uint64_t{1} << 52;
        // term * 2^64 = mantissa * 2^shift.
        const int shift = exponent - 1075 + 64;
        __int128 q = 0;
        if (shift >= 0) {
            q = static_cast<__int128>(mantissa) << shift;
        } else if (shift > -54) { // Else below half a quantum.
            const std::uint64_t half = std::uint64_t{1} << (-shift - 1);
            const std::uint64_t rest = mantissa & (2 * half - 1);
            std::uint64_t whole = mantissa >> -shift;
            whole += rest > half || (rest == half && (whole & 1));
            q = whole;
        }
        return bits >> 63 ? -q : q;
    }

    __int128 quanta_ = 0;
};

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

    Scalar &operator+=(double v) { sum_.add(v); return *this; }
    Scalar &operator++() { sum_.add(1.0); return *this; }

    /** Add @p v @p n times, bit-identical to n `+= v`. */
    void add(const ExactSum::Term &v, std::uint64_t n) { sum_.add(v, n); }

    double value() const { return sum_.value(); }

    /** The exact sum, for comparisons that must not round. */
    const ExactSum &sum() const { return sum_; }

    void dump(std::ostream &os,
              const std::string &prefix) const override;
    void visitState(StateIO &io) override;

  private:
    ExactSum sum_;
};

/** Sample-weighted average with extrema. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Take @p n samples of @p v, bit-identical to n sample() calls. */
    void sample(double v, double weight = 1.0, std::uint64_t n = 1);

    /** Take @p n samples of @p v at weight 1. */
    void sample(const ExactSum::Term &v, std::uint64_t n);

    double mean() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    std::uint64_t count() const { return count_; }

    void dump(std::ostream &os,
              const std::string &prefix) const override;
    void visitState(StateIO &io) override;

  private:
    /** The extrema and count of @p n samples of @p v. */
    void note(double v, std::uint64_t n);

    inline static const ExactSum::Term kUnitWeight = 1.0;

    ExactSum sum_;
    ExactSum weight_;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::uint64_t count_ = 0;
};

inline void
Average::sample(double v, double weight, std::uint64_t n)
{
    SYSSCALE_ASSERT(weight >= 0.0, "negative sample weight");
    sum_.add(v * weight, n);
    weight_.add(weight == 1.0 ? kUnitWeight : ExactSum::Term(weight), n);
    note(v, n);
}

inline void
Average::sample(const ExactSum::Term &v, std::uint64_t n)
{
    sum_.add(v, n);
    weight_.add(kUnitWeight, n);
    note(v.value(), n);
}

inline void
Average::note(double v, std::uint64_t n)
{
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
