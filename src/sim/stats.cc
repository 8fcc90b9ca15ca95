#include "sim/stats.hh"

#include <algorithm>

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
    io.field("value", sum_);
}

double
Average::mean() const
{
    const double weight = weight_.value();
    return weight > 0.0 ? sum_.value() / weight : 0.0;
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
