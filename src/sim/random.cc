#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {

namespace {

/** SplitMix64 step, used for seed expansion and stream forking. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    SYSSCALE_ASSERT(lo <= hi, "uniform(%f, %f): inverted range", lo, hi);
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    SYSSCALE_ASSERT(lo <= hi, "uniformInt(%lld, %lld): inverted range",
                    static_cast<long long>(lo),
                    static_cast<long long>(hi));
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    // Rejection-free modulo is fine here: span << 2^64 so bias is
    // below measurement noise for simulation purposes.
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::exponential(double lambda)
{
    SYSSCALE_ASSERT(lambda > 0.0, "exponential rate must be positive");
    double u = uniform();
    if (u < 1e-300)
        u = 1e-300;
    return -std::log(u) / lambda;
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

void
Rng::visitState(StateIO &io)
{
    for (std::size_t i = 0; i < 4; ++i)
        io.field("s" + std::to_string(i), state_[i]);
}

} // namespace sysscale
