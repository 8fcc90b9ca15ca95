/**
 * @file
 * Exact repeated addition: n rounds of `for a in adds: x += a` in one
 * jump per binade, bit-identical to the loop.
 *
 * Inside one binade [2^E, 2^(E+1)) every double is a multiple of
 * u = ulp(x). Adding a to a partial sum s of that binade rounds s + a
 * to the nearest multiple of u, so the increment fl(s + a) - s is the
 * same exact value for every s, unless s + a is a tie (round-to-even
 * then depends on s) or the sum leaves the binade. One real round
 * measures the increments; while no partial sum can reach the top of
 * the binade, every later round adds the same exact d, so k rounds
 * collapse to the single exact add x + k * d. This is time-at-level
 * accounting (energy = power x time) that keeps every output bit.
 */

#ifndef SYSSCALE_SIM_EXACT_SUM_HH
#define SYSSCALE_SIM_EXACT_SUM_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sysscale {

/**
 * Rounds up to which addRepeated() runs the plain loop: a short
 * replay batch's rounds cost less than the jump's first round. The
 * loop stays out of line, since inlining it at every commit call
 * site costs more in code size than the call.
 */
constexpr std::uint64_t kLoopRounds = 4;

namespace detail {

/** addRepeated() for any n, out of line: a replay batch's path. */
template <class Addend>
[[gnu::noinline]] void
addRepeatedJump(double &x, std::size_t m, std::uint64_t n,
                const Addend &addend)
{
    constexpr std::uint64_t kMantissaBits = 52;
    if (n <= kLoopRounds) {
        for (std::uint64_t k = 0; k < n; ++k) {
            for (std::size_t i = 0; i < m; ++i)
                x += addend(i);
        }
        return;
    }
    while (n > 0) {
        std::uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        // Biased exponent; the sign bit makes it out of range. The
        // bounds keep u/2 normal and the binade top finite.
        const std::uint64_t biased = bits >> kMantissaBits;
        bool jump = n > 1 && biased > kMantissaBits + 1 &&
                    biased < 0x7fe;
        double top = 0.0;  // 2^(E+1), the top of x's binade.
        double half = 0.0; // u / 2.
        if (jump) {
            const std::uint64_t top_bits = (biased + 1) << kMantissaBits;
            const std::uint64_t half_bits =
                (biased - kMantissaBits - 1) << kMantissaBits;
            std::memcpy(&top, &top_bits, sizeof top);
            std::memcpy(&half, &half_bits, sizeof half);
        }

        // One real round, measuring it. Below top, s <= t < 2s, so
        // d = t - s is exact, and so is the rounding error a - d.
        const double start = x;
        for (std::size_t i = 0; i < m; ++i) {
            const double a = addend(i);
            const double t = x + a;
            if (jump) {
                const double err = a - (t - x);
                jump = a >= 0.0 && t < top && err != half &&
                       err != -half;
            }
            x = t;
        }
        --n;
        // A round is a function of x's bits alone: one that left them
        // as they were leaves them so every time (zero adds to zero,
        // adds below half an ulp).
        std::uint64_t end_bits;
        std::memcpy(&end_bits, &x, sizeof end_bits);
        if (end_bits == bits)
            return;
        if (!jump)
            continue;

        // Every later round adds d, exact (one binade) and positive,
        // while its partial sums stay at or below top - d. top - x is
        // exact (x >= top / 2), and so are k * d and x + k * d,
        // multiples of u below top. The common case needs no division:
        // a product that fits under top - x - 2d cannot have rounded
        // (one at or above 2^E would not fit), so all n rounds fit.
        const double d = x - start;
        const double rest = static_cast<double>(n) * d;
        if (rest <= (top - x) - 2 * d) {
            x += rest;
            return;
        }
        // Otherwise the floor of (top - x) / d less one, and one more
        // for the division's rounding; the quotient is at most 2^52,
        // so truncation is its floor.
        const std::uint64_t q =
            static_cast<std::uint64_t>((top - x) / d);
        if (q < 3)
            continue; // Cross into the next binade one round at a time.
        const std::uint64_t room = q - 2;
        const std::uint64_t k = room < n ? room : n;
        x += static_cast<double>(k) * d;
        n -= k;
    }
}

} // namespace detail

/**
 * Bit-identical to `for n: for i < m: x += addend(i)`. Jumps whole
 * binades when x is a positive normal and every addend a finite,
 * non-negative non-tie; any other round runs as the plain loop does.
 * @p addend is called m times for each round run for real: one or a
 * few per binade when the jump applies.
 */
template <class Addend>
inline void
addRepeated(double &x, std::size_t m, std::uint64_t n,
            const Addend &addend)
{
    // One round, a slow step's case, stays the inlined plain loop.
    if (n == 1) {
        for (std::size_t i = 0; i < m; ++i)
            x += addend(i);
        return;
    }
    detail::addRepeatedJump(x, m, n, addend);
}

/** Bit-identical to `for n: for i < m: x += adds[i]`. */
inline void
addRepeated(double &x, const double *adds, std::size_t m,
            std::uint64_t n)
{
    addRepeated(x, m, n, [adds](std::size_t i) { return adds[i]; });
}

/** Bit-identical to `for n: x += a`. */
inline void
addRepeated(double &x, double a, std::uint64_t n)
{
    addRepeated(x, &a, 1, n);
}

} // namespace sysscale

#endif // SYSSCALE_SIM_EXACT_SUM_HH
