/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small xoshiro256** implementation so every experiment in the repo is
 * reproducible across platforms and standard-library versions (std::
 * distributions are not bit-stable across implementations).
 */

#ifndef QOMPRESS_COMMON_RNG_HH
#define QOMPRESS_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace qompress {

/**
 * xoshiro256** PRNG with convenience helpers.
 *
 * Satisfies UniformRandomBitGenerator so it can also feed std::shuffle.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (splitmix64-expanded). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextUint(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    int nextInt(int lo, int hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Standard normal variate (Box-Muller). */
    double nextGaussian();

    /** Bernoulli trial with probability @p p. */
    bool nextBool(double p = 0.5);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextUint(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t s_[4];
    bool haveGauss_ = false;
    double gauss_ = 0.0;
};

} // namespace qompress

#endif // QOMPRESS_COMMON_RNG_HH
