/**
 * @file
 * Deterministic pseudo-random number generator (SplitMix64).
 *
 * All randomness in the simulation (workload data, property-test
 * fuzzing, network jitter) flows through explicitly-seeded Rng
 * instances so that every benchmark and test is reproducible.
 */
#ifndef OCCLUM_BASE_RNG_H
#define OCCLUM_BASE_RNG_H

#include <cstdint>

namespace occlum {

/** SplitMix64: tiny, fast, well-distributed, deterministic. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

    /** Next 64 random bits. */
    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    uint64_t
    next_below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    next_double()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    uint64_t state_;
};

} // namespace occlum

#endif // OCCLUM_BASE_RNG_H
