/**
 * @file
 * Tests for the optimization passes (rotation merging, SWAP
 * decomposition, fixpoint cleanup) and the portfolio strategy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuits/arithmetic.hh"
#include "common/error.hh"
#include "ir/passes.hh"
#include "sim/equivalence.hh"
#include "strategies/portfolio.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

TEST(MergeRotations, CombinesAdjacentSameAxis)
{
    Circuit c(1, "rz");
    c.rz(0.3, 0);
    c.rz(0.4, 0);
    const Circuit out = mergeRotations(c);
    ASSERT_EQ(out.numGates(), 1);
    EXPECT_NEAR(out.gates()[0].param, 0.7, 1e-12);
}

TEST(MergeRotations, DropsIdentityRotations)
{
    Circuit c(1, "zero");
    c.rz(1.0, 0);
    c.rz(-1.0, 0);
    EXPECT_EQ(mergeRotations(c).numGates(), 0);
    Circuit d(1, "twopi");
    d.rx(M_PI, 0);
    d.rx(M_PI, 0);
    EXPECT_EQ(mergeRotations(d).numGates(), 0);
}

TEST(MergeRotations, DifferentAxesStaySeparate)
{
    Circuit c(1, "axes");
    c.rz(0.3, 0);
    c.rx(0.4, 0);
    EXPECT_EQ(mergeRotations(c).numGates(), 2);
}

TEST(MergeRotations, BarrierGateFlushes)
{
    Circuit c(2, "flush");
    c.rz(0.3, 0);
    c.cx(0, 1);
    c.rz(0.4, 0);
    const Circuit out = mergeRotations(c);
    EXPECT_EQ(out.numGates(), 3);
}

TEST(MergeRotations, PreservesOrderAcrossQubits)
{
    Circuit c(2, "multi");
    c.rz(0.1, 0);
    c.rz(0.2, 1);
    c.rz(0.3, 0);
    const Circuit out = mergeRotations(c);
    EXPECT_EQ(out.numGates(), 2);
    double total = 0.0;
    for (const auto &g : out.gates())
        total += g.param;
    EXPECT_NEAR(total, 0.6, 1e-12);
}

TEST(OptimizeCircuit, ReachesFixpoint)
{
    Circuit c(2, "opt");
    c.h(0);
    c.h(0);      // cancels
    c.rz(0.5, 0);
    c.rz(-0.5, 0); // merges to zero
    c.cx(0, 1);
    c.cx(0, 1);  // cancels
    c.x(1);
    const Circuit out = optimizeCircuit(c);
    ASSERT_EQ(out.numGates(), 1);
    EXPECT_EQ(out.gates()[0].type, GateType::X);
}

TEST(OptimizeCircuit, PreservesSemantics)
{
    Circuit c(3, "opt_equiv");
    c.h(0);
    c.rz(0.4, 0);
    c.rz(0.8, 0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.h(2);
    c.cx(1, 2);
    const Circuit opt = optimizeCircuit(c);
    EXPECT_LT(opt.numGates(), c.numGates());
    const GateLibrary lib;
    const auto res = makeStrategy("qubit_only")
                         ->compile(opt, Topology::line(3), lib);
    EXPECT_TRUE(checkEquivalence(c, res.compiled).ok);
}

TEST(Portfolio, PicksTheBestMember)
{
    const Circuit c = cuccaroAdder(5); // 12 qubits
    const Topology topo = Topology::grid(12);
    const GateLibrary lib;
    PortfolioStrategy portfolio;
    const auto best = portfolio.compile(c, topo, lib);
    double best_member = 0.0;
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp"}) {
        const auto res = makeStrategy(s)->compile(c, topo, lib);
        EXPECT_GE(best.metrics.totalEps, res.metrics.totalEps) << s;
        best_member = std::max(best_member, res.metrics.totalEps);
    }
    EXPECT_EQ(best.metrics.totalEps, best_member);
}

TEST(Portfolio, SkipsMembersThatDoNotFit)
{
    // 8 qubits on 4 units: qubit_only cannot fit but the portfolio
    // still succeeds through the compressing members, whose results
    // encode every qubit in a pair.
    Circuit c(8, "tight");
    for (int q = 0; q + 1 < 8; ++q)
        c.cx(q, q + 1);
    PortfolioStrategy portfolio;
    const GateLibrary lib;
    const auto res = portfolio.compile(c, Topology::grid(4), lib);
    EXPECT_GT(res.metrics.totalEps, 0.0);
    EXPECT_EQ(res.compressions.size(), 4u);
}

TEST(Portfolio, AvailableThroughRegistry)
{
    EXPECT_EQ(makeStrategy("portfolio")->name(), "portfolio");
}

TEST(Portfolio, UnknownMemberFailsAtConstruction)
{
    // A misspelled member must not be skipped as "does not fit".
    const std::vector<std::vector<std::string>> misspelled = {
        {"eqm", "eqmm"}, {"eqmm"}};
    for (const auto &names : misspelled) {
        try {
            PortfolioStrategy portfolio(names);
            FAIL() << "PortfolioStrategy should have thrown";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("'eqmm'"), std::string::npos) << msg;
            for (const auto &valid : strategyNames())
                EXPECT_NE(msg.find(valid), std::string::npos)
                    << "error message should list '" << valid << "'";
        }
    }
    EXPECT_THROW(PortfolioStrategy(std::vector<std::string>{}),
                 FatalError);
}

} // namespace
} // namespace qompress
