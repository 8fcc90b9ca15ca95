#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace stats {

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    SYSSCALE_ASSERT(parent != nullptr,
                    "stat '%s' created without a group", name_.c_str());
    parent->registerStat(this);
}

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << value() << " # " << desc() << "\n";
}

void
Scalar::visitState(StateIO &io)
{
    io.field("value", value_);
}

double
Average::mean() const
{
    return weight_ > 0.0 ? sum_ / weight_ : 0.0;
}

void
Average::reset()
{
    sum_ = 0.0;
    weight_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    count_ = 0;
}

void
Average::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::mean " << mean()
       << " # " << desc() << "\n";
    os << prefix << name() << "::min " << min() << " # min sample\n";
    os << prefix << name() << "::max " << max() << " # max sample\n";
    os << prefix << name() << "::count " << count()
       << " # sample count\n";
}

void
Average::visitState(StateIO &io)
{
    io.field("sum", sum_);
    io.field("weight", weight_);
    io.field("min", min_);
    io.field("max", max_);
    io.field("count", count_);
}

void
TimeAverage::set(double value, Tick now)
{
    if (started_) {
        SYSSCALE_ASSERT(now >= lastSet_,
                        "TimeAverage '%s' set in the past",
                        name().c_str());
        integral_ += current_ * static_cast<double>(now - lastSet_);
        elapsed_ += now - lastSet_;
    }
    current_ = value;
    lastSet_ = now;
    started_ = true;
}

void
TimeAverage::finish(Tick now)
{
    set(current_, now);
}

double
TimeAverage::mean() const
{
    return elapsed_ > 0 ?
        integral_ / static_cast<double>(elapsed_) : current_;
}

void
TimeAverage::reset()
{
    integral_ = 0.0;
    elapsed_ = 0;
    current_ = 0.0;
    lastSet_ = 0;
    started_ = false;
}

void
TimeAverage::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::tmean " << mean()
       << " # " << desc() << "\n";
}

void
TimeAverage::visitState(StateIO &io)
{
    io.field("integral", integral_);
    io.field("elapsed", elapsed_);
    io.field("current", current_);
    io.field("last_set", lastSet_);
    io.field("started", started_);
}

Distribution::Distribution(StatGroup *parent, std::string name,
                           std::string desc, double lo, double hi,
                           std::size_t buckets)
    : StatBase(parent, std::move(name), std::move(desc)),
      lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      buckets_(buckets, 0)
{
    SYSSCALE_ASSERT(hi > lo && buckets > 0,
                    "Distribution '%s': bad bucket spec",
                    this->name().c_str());
}

void
Distribution::sample(double v, std::uint64_t count)
{
    samples_ += count;
    sum_ += v * static_cast<double>(count);
    if (v < lo_) {
        underflow_ += count;
    } else if (v >= hi_) {
        overflow_ += count;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / width_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1; // fp rounding at the top edge
        buckets_[idx] += count;
    }
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    underflow_ = overflow_ = samples_ = 0;
    sum_ = 0.0;
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::samples " << samples_
       << " # " << desc() << "\n";
    os << prefix << name() << "::mean " << mean() << " # mean sample\n";
    os << prefix << name() << "::underflow " << underflow_
       << " # samples < " << lo_ << "\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const double blo = lo_ + width_ * static_cast<double>(i);
        os << prefix << name() << "::bucket[" << std::setprecision(4)
           << blo << "," << (blo + width_) << ") " << buckets_[i]
           << "\n";
    }
    os << prefix << name() << "::overflow " << overflow_
       << " # samples >= " << hi_ << "\n";
}

void
Distribution::visitState(StateIO &io)
{
    // lo/hi/width are construction-fixed; only the counts move.
    std::uint64_t n = buckets_.size();
    io.field("buckets", n);
    if (io.loading() && n != buckets_.size())
        throw SnapshotError("Distribution '" + name() +
                            "': bucket count mismatch");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        io.field("bucket" + std::to_string(i), buckets_[i]);
    io.field("underflow", underflow_);
    io.field("overflow", overflow_);
    io.field("samples", samples_);
    io.field("sum", sum_);
}

StatGroup::StatGroup(StatGroup *parent, std::string name)
    : parent_(parent), name_(std::move(name))
{
    if (parent_)
        parent_->registerChild(this);
}

StatGroup::~StatGroup()
{
    if (parent_)
        parent_->unregisterChild(this);
}

void
StatGroup::unregisterChild(StatGroup *g)
{
    auto it = std::find(children_.begin(), children_.end(), g);
    if (it != children_.end())
        children_.erase(it);
}

std::string
StatGroup::path() const
{
    if (!parent_ || parent_->name_.empty())
        return name_;
    const std::string parent_path = parent_->path();
    return parent_path.empty() ? name_ : parent_path + "." + name_;
}

void
StatGroup::resetStats()
{
    for (auto *s : stats_)
        s->reset();
    for (auto *g : children_)
        g->resetStats();
}

void
StatGroup::dumpStats(std::ostream &os) const
{
    const std::string p = path();
    const std::string prefix = p.empty() ? "" : p + ".";
    for (const auto *s : stats_)
        s->dump(os, prefix);
    for (const auto *g : children_)
        g->dumpStats(os);
}

void
StatGroup::visitStats(StateIO &io)
{
    for (auto *s : stats_) {
        io.push(s->name());
        s->visitState(io);
        io.pop();
    }
    for (auto *g : children_) {
        io.push(g->name());
        g->visitStats(io);
        io.pop();
    }
}

} // namespace stats
} // namespace sysscale
