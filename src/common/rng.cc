#include "common/rng.hh"

#include <cmath>

#include "common/error.hh"

namespace qompress {

namespace {

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

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextUint(std::uint64_t bound)
{
    QPANIC_IF(bound == 0, "nextUint bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % bound;
    std::uint64_t v;
    do {
        v = (*this)();
    } while (v >= limit);
    return v % bound;
}

int
Rng::nextInt(int lo, int hi)
{
    QPANIC_IF(lo > hi, "nextInt empty range");
    return lo + static_cast<int>(nextUint(
        static_cast<std::uint64_t>(hi - lo) + 1));
}

double
Rng::nextDouble()
{
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextGaussian()
{
    if (haveGauss_) {
        haveGauss_ = false;
        return gauss_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 1e-300);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    gauss_ = r * std::sin(theta);
    haveGauss_ = true;
    return r * std::cos(theta);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace qompress
