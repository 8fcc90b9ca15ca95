/**
 * @file
 * Deterministic random number generation.
 *
 * The simulator must be bit-reproducible across platforms, so we avoid
 * std::mt19937 + libstdc++ distributions (whose outputs are not
 * standardized) and implement xoshiro256** seeded via SplitMix64, with
 * our own uniform / normal / exponential transforms.
 */

#ifndef SYSSCALE_SIM_RANDOM_HH
#define SYSSCALE_SIM_RANDOM_HH

#include <cstdint>

#include "sim/types.hh"

namespace sysscale {

/**
 * Deterministic PRNG (xoshiro256**), seeded with SplitMix64.
 *
 * Every stochastic element in the simulator draws from an instance of
 * this class with an explicit seed; there is no global RNG state.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5ca1eULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** Exponential with given rate lambda. */
    double exponential(double lambda);

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /** Derive an independent child stream (for per-object streams). */
    Rng fork();

    /** Snapshot support: the raw xoshiro256** state. */
    void visitState(StateIO &io);

  private:
    std::uint64_t state_[4];
};

} // namespace sysscale

#endif // SYSSCALE_SIM_RANDOM_HH
