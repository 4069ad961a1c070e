/**
 * @file
 * Lock-free log-bucketed latency histogram for the server hot path.
 *
 * record() is a single relaxed atomic increment into one of a fixed
 * set of geometrically spaced buckets (~12% width) covering 1 us to
 * ~10 s, so request threads never serialize on a shared mutex to
 * report a latency. snapshot() reads the buckets once and derives
 * count, mean, quantiles (p50/p99 by bucket midpoint — accurate to
 * the bucket width, which is all a tail-latency report needs), and an
 * exact max (maintained by CAS).
 *
 * The qompressd request loop records every request's latency into
 * one; /metrics renders its snapshot as the "latency" section.
 */

#ifndef QOMPRESS_SERVER_HISTOGRAM_HH
#define QOMPRESS_SERVER_HISTOGRAM_HH

#include <array>
#include <atomic>
#include <cstdint>

namespace qompress {

class LatencyHistogram
{
  public:
    /** One consistent read of the histogram. */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double mean_us = 0.0;
        double p50_us = 0.0;
        double p99_us = 0.0;
        double max_us = 0.0;

        /** Arbitrary quantile in [0, 1] over the recorded samples. */
        double quantileUs(double q) const;

        std::array<std::uint64_t, 128> buckets{};
    };

    /** Record one latency sample (negative values clamp to 0). */
    void record(double us);

    Snapshot snapshot() const;

    /** Bucket count / value mapping, exposed for Snapshot::quantileUs. */
    static constexpr int kBuckets = 128;
    static int bucketOf(double us);
    static double bucketMidUs(int bucket);

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> sumUs_{0};
    std::atomic<std::uint64_t> maxUs_{0};
};

} // namespace qompress

#endif // QOMPRESS_SERVER_HISTOGRAM_HH
