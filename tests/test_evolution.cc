/**
 * @file
 * Tests for the pulse evolution utilities: population traces.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hh"
#include "pulse/evolution.hh"
#include "pulse/targets.hh"

namespace qompress {
namespace {

TEST(Evolution, ZeroDriveLeavesGroundStateAlone)
{
    const TransmonSystem sys({2}, 1);
    std::vector<int> dims;
    GrapeOptimizer grape(sys, namedTarget("X", dims), 20.0, 10, {});
    const std::vector<std::vector<double>> idle(
        2, std::vector<double>(10, 0.0));
    const auto trace = traceEvolution(sys, grape, idle, /*start=*/0,
                                      {0, 1});
    ASSERT_FALSE(trace.empty());
    for (const auto &s : trace) {
        EXPECT_NEAR(s.populations[0], 1.0, 1e-9);
        EXPECT_NEAR(s.populations[1], 0.0, 1e-9);
        EXPECT_NEAR(s.other, 0.0, 1e-9);
    }
}

TEST(Evolution, ProbabilityIsConserved)
{
    const TransmonSystem sys({4}, 1);
    std::vector<int> dims;
    GrapeOptimizer grape(sys, namedTarget("SWAPin", dims), 40.0, 40, {});
    std::vector<std::vector<double>> controls(
        2, std::vector<double>(40, 0.1));
    const auto trace =
        traceEvolution(sys, grape, controls, /*start=*/1, {0, 1, 2, 3});
    for (const auto &s : trace) {
        const double total = std::accumulate(s.populations.begin(),
                                             s.populations.end(),
                                             s.other);
        EXPECT_NEAR(total, 1.0, 1e-7);
    }
}

TEST(Evolution, TraceCoversTheFullPulse)
{
    const TransmonSystem sys({2}, 1);
    std::vector<int> dims;
    GrapeOptimizer grape(sys, namedTarget("X", dims), 30.0, 12, {});
    const std::vector<std::vector<double>> idle(
        2, std::vector<double>(12, 0.0));
    const auto trace = traceEvolution(sys, grape, idle, 0, {0},
                                      /*samples=*/6);
    EXPECT_NEAR(trace.front().timeNs, 0.0, 1e-12);
    EXPECT_NEAR(trace.back().timeNs, 30.0, 1e-9);
}

TEST(Evolution, RejectsBadStates)
{
    const TransmonSystem sys({2}, 1);
    std::vector<int> dims;
    GrapeOptimizer grape(sys, namedTarget("X", dims), 10.0, 4, {});
    const std::vector<std::vector<double>> idle(
        2, std::vector<double>(4, 0.0));
    EXPECT_THROW(traceEvolution(sys, grape, idle, 7, {0}), FatalError);
    EXPECT_THROW(traceEvolution(sys, grape, idle, 0, {9}), FatalError);
}

} // namespace
} // namespace qompress
