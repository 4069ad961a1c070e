/**
 * @file
 * Determinism suite for the thread-pool layer (ctest label "threads"):
 *
 *  - ThreadPool contract: full index coverage, stable lane ids,
 *    first-exception propagation, reuse after failure, nested-call
 *    inlining, and forRequest's one-lane, nested and private pools.
 *  - Exhaustive strategy: 1, 2, and 8 lanes produce bit-identical
 *    compiled circuits to the serial search on ring, grid, and
 *    heavy-hex topologies over seeded circuits.
 *  - Eval sweep: runSweep records are bit-identical at 1/2/8 lanes,
 *    on default grid devices and on heavyHex65.
 *  - Portfolio: the full compiled result at 1/2/8 lanes equals the
 *    member-order, strict-">" best of direct member compiles on ring,
 *    grid, and heavy-hex, with one member over capacity.
 *  - GRAPE: objective, fidelity, leakage, and every gradient entry
 *    are bit-identical at 1/2/8 lanes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <vector>

#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "eval/sweep.hh"
#include "pulse/grape.hh"
#include "pulse/targets.hh"
#include "strategies/portfolio.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

// ------------------------------------------------------------- pool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    ASSERT_EQ(pool.numThreads(), 4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<bool> lane_ok{true};
    pool.parallelFor(0, kN, [&](std::size_t i, int lane) {
        if (lane < 0 || lane >= 4)
            lane_ok = false;
        hits[i].fetch_add(1);
    });
    EXPECT_TRUE(lane_ok);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForPropagatesFirstExceptionAndSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100,
                         [](std::size_t i, int) {
                             if (i == 37)
                                 throw std::runtime_error("index 37");
                         }),
        std::runtime_error);

    // The pool must stay fully usable after a failed sweep.
    std::atomic<int> sum{0};
    pool.parallelFor(0, 10, [&](std::size_t i, int) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(0, 8, [&](std::size_t, int) {
        // From a lane, a nested sweep must run inline (lane 0) rather
        // than deadlocking on the same pool.
        pool.parallelFor(0, 4, [&](std::size_t, int lane) {
            EXPECT_EQ(lane, 0);
            total.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, SingleLanePoolRunsEverythingInline)
{
    ThreadPool pool(1);
    int count = 0; // deliberately unsynchronized: must stay caller-only
    pool.parallelFor(0, 100, [&](std::size_t, int lane) {
        EXPECT_EQ(lane, 0);
        ++count;
    });
    EXPECT_EQ(count, 100);
}

/** Every index of a parallelFor over @p pool runs exactly once. */
void
expectCoversEveryIndex(ThreadPool &pool, const char *what)
{
    constexpr std::size_t kN = 64;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(0, kN, [&](std::size_t i, int) { hits[i] += 1; });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << what << " index " << i;
}

TEST(ThreadPool, ForRequestAlwaysReturnsAPool)
{
    std::optional<ThreadPool> own;

    ThreadPool &one = ThreadPool::forRequest(1, own);
    EXPECT_EQ(one.numThreads(), 1);
    EXPECT_EQ(&one, &*own);
    expectCoversEveryIndex(one, "one-lane request");

    // From inside a lane, even a many-lane request gets one lane.
    ThreadPool outer(3);
    std::atomic<int> multi_lane{0};
    outer.parallelFor(0, 6, [&](std::size_t, int) {
        std::optional<ThreadPool> nested_own;
        ThreadPool &nested = ThreadPool::forRequest(3, nested_own);
        if (nested.numThreads() != 1)
            ++multi_lane;
        expectCoversEveryIndex(nested, "nested request");
    });
    EXPECT_EQ(multi_lane.load(), 0);

    // Three lanes: a private pool in own, or the process-wide pool
    // when that is the default; a second request reuses it either way.
    ThreadPool &three = ThreadPool::forRequest(3, own);
    EXPECT_EQ(three.numThreads(), 3);
    expectCoversEveryIndex(three, "three-lane request");
    EXPECT_EQ(&ThreadPool::forRequest(3, own), &three);
    if (ThreadPool::defaultThreadCount() != 3) {
        EXPECT_EQ(&three, &*own);
    }
}

// ---------------------------------------------- exhaustive determinism

void
expectIdenticalCompiles(const CompileResult &a, const CompileResult &b,
                        const std::string &ctx)
{
    ASSERT_EQ(a.compressions.size(), b.compressions.size()) << ctx;
    for (std::size_t i = 0; i < a.compressions.size(); ++i)
        EXPECT_TRUE(a.compressions[i] == b.compressions[i])
            << ctx << " pair " << i;

    ASSERT_EQ(a.compiled.numGates(), b.compiled.numGates()) << ctx;
    for (int i = 0; i < a.compiled.numGates(); ++i) {
        const PhysGate &x = a.compiled.gates()[i];
        const PhysGate &y = b.compiled.gates()[i];
        EXPECT_EQ(x.cls, y.cls) << ctx << " gate " << i;
        EXPECT_EQ(x.slots, y.slots) << ctx << " gate " << i;
        EXPECT_EQ(x.logical, y.logical) << ctx << " gate " << i;
        EXPECT_EQ(x.param, y.param) << ctx << " gate " << i;
        EXPECT_EQ(x.isRouting, y.isRouting) << ctx << " gate " << i;
        EXPECT_EQ(x.sourceGate, y.sourceGate) << ctx << " gate " << i;
        EXPECT_EQ(x.start, y.start) << ctx << " gate " << i;
    }
    for (QubitId q = 0; q < a.compiled.finalLayout().numQubits(); ++q)
        EXPECT_EQ(a.compiled.finalLayout().slotOf(q),
                  b.compiled.finalLayout().slotOf(q))
            << ctx << " qubit " << q;

    EXPECT_EQ(a.metrics.gateEps, b.metrics.gateEps) << ctx;
    EXPECT_EQ(a.metrics.totalEps, b.metrics.totalEps) << ctx;
    EXPECT_EQ(a.metrics.durationNs, b.metrics.durationNs) << ctx;
}

/** Serial (threads=1) vs 2- and 8-lane exhaustive compiles. */
void
expectLaneCountInvariant(const Circuit &circuit, const Topology &topo)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    cfg.threads = 1;
    const CompileResult serial =
        makeStrategy("ec")->compile(circuit, topo, lib, cfg);
    for (int lanes : {2, 8}) {
        cfg.threads = lanes;
        const CompileResult pooled =
            makeStrategy("ec")->compile(circuit, topo, lib, cfg);
        expectIdenticalCompiles(serial, pooled,
                                circuit.name() + " / " + topo.name() +
                                    " / " + std::to_string(lanes) +
                                    " lanes");
    }
}

TEST(ExhaustiveDeterminism, RingSeeds)
{
    const Topology topo = Topology::ring(8);
    expectLaneCountInvariant(bernsteinVazirani(6), topo);
    expectLaneCountInvariant(qaoaFromGraph(randomGraph(6, 0.5, 3)), topo);
}

TEST(ExhaustiveDeterminism, GridSeeds)
{
    const Topology topo = Topology::grid(6);
    expectLaneCountInvariant(bernsteinVazirani(6), topo);
    expectLaneCountInvariant(qaoaFromGraph(randomGraph(6, 0.5, 13)), topo);
}

TEST(ExhaustiveDeterminism, HeavyHex65Seeds)
{
    const Topology topo = Topology::heavyHex65();
    expectLaneCountInvariant(qaoaFromGraph(randomGraph(6, 0.4, 7)), topo);
}

TEST(ExhaustiveDeterminism, UnorderedVariantToo)
{
    const GateLibrary lib;
    const Circuit bv = bernsteinVazirani(6);
    const Topology topo = Topology::grid(6);
    CompilerConfig cfg;
    cfg.threads = 1;
    const CompileResult serial =
        makeStrategy("ec_unordered")->compile(bv, topo, lib, cfg);
    cfg.threads = 4;
    const CompileResult pooled =
        makeStrategy("ec_unordered")->compile(bv, topo, lib, cfg);
    expectIdenticalCompiles(serial, pooled, "ec_unordered / grid6");
}

// ------------------------------------------------ sweep determinism

void
expectIdenticalRecords(const std::vector<SweepRecord> &a,
                       const std::vector<SweepRecord> &b,
                       const std::string &ctx)
{
    ASSERT_EQ(a.size(), b.size()) << ctx;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const SweepRecord &x = a[i];
        const SweepRecord &y = b[i];
        EXPECT_EQ(x.family, y.family) << ctx << " record " << i;
        EXPECT_EQ(x.strategy, y.strategy) << ctx << " record " << i;
        EXPECT_EQ(x.requestedSize, y.requestedSize)
            << ctx << " record " << i;
        EXPECT_EQ(x.qubits, y.qubits) << ctx << " record " << i;
        EXPECT_EQ(x.numCompressions, y.numCompressions)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.gateEps, y.metrics.gateEps)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.coherenceEps, y.metrics.coherenceEps)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.totalEps, y.metrics.totalEps)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.durationNs, y.metrics.durationNs)
            << ctx << " record " << i;
        EXPECT_EQ(x.metrics.numGates, y.metrics.numGates)
            << ctx << " record " << i;
    }
}

void
expectSweepLaneInvariant(SweepSpec spec, const std::string &ctx)
{
    spec.threads = 1;
    const auto serial = runSweep(spec);
    ASSERT_FALSE(serial.empty()) << ctx;
    for (int lanes : {2, 8}) {
        spec.threads = lanes;
        expectIdenticalRecords(serial, runSweep(spec),
                               ctx + " / " + std::to_string(lanes) +
                                   " lanes");
    }
}

TEST(SweepDeterminism, GridDevices)
{
    SweepSpec spec;
    spec.families = {"bv", "qaoa_random"};
    spec.sizes = {6, 9};
    spec.strategies = {"qubit_only", "eqm", "rb", "awe", "pp"};
    spec.config.lookaheadWeight = 0.5;
    expectSweepLaneInvariant(spec, "grid sweep");
}

TEST(SweepDeterminism, RingDevices)
{
    SweepSpec spec;
    spec.families = {"bv"};
    spec.sizes = {6, 8};
    spec.strategies = {"qubit_only", "awe", "pp", "ec"};
    spec.device = [](const Circuit &c) {
        return Topology::ring(c.numQubits());
    };
    expectSweepLaneInvariant(spec, "ring sweep");
}

TEST(SweepDeterminism, HeavyHex65Devices)
{
    SweepSpec spec;
    spec.families = {"qaoa_random"};
    spec.sizes = {8};
    // "ec" nests the exhaustive fan-out inside sweep workers and
    // "portfolio" nests member fan-out: both must degrade to inline
    // execution and stay bit-identical.
    spec.strategies = {"qubit_only", "awe", "pp", "portfolio"};
    spec.device = [](const Circuit &) {
        return Topology::heavyHex65();
    };
    expectSweepLaneInvariant(spec, "heavyHex65 sweep");
}

TEST(SweepDeterminism, NonFittingCellsStayInvariant)
{
    // Over-capacity members record qubits = 0; the slot layout must
    // be stable across lane counts even with failing cells mixed in.
    SweepSpec spec;
    spec.families = {"cuccaro"};
    spec.sizes = {12};
    spec.strategies = {"qubit_only", "eqm"};
    spec.device = [](const Circuit &c) {
        return Topology::grid((c.numQubits() + 1) / 2);
    };
    expectSweepLaneInvariant(spec, "non-fitting sweep");
}

// --------------------------------------------- portfolio determinism

/** Differential reference: direct compiles of the default members,
 *  reduced in member order with a strict ">" on totalEps; members
 *  that do not fit are skipped. */
CompileResult
bestDirectMember(const Circuit &circuit, const Topology &topo,
                 const GateLibrary &lib, const CompilerConfig &cfg)
{
    std::optional<CompileResult> best;
    for (const char *member : {"qubit_only", "eqm", "rb", "awe", "pp"}) {
        try {
            CompileResult res =
                makeStrategy(member)->compile(circuit, topo, lib, cfg);
            if (!best || res.metrics.totalEps > best->metrics.totalEps)
                best = std::move(res);
        } catch (const FatalError &) {
        }
    }
    EXPECT_TRUE(best.has_value());
    return best ? std::move(*best) : CompileResult{};
}

/** One portfolio instance at 1, 2 and 8 lanes equals bestDirectMember
 *  every time. The strategy keeps no cache, so each call compiles
 *  every member; serially they all price on the caller's context. */
void
expectPortfolioMatchesBestMember(const Circuit &circuit,
                                 const Topology &topo)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;
    cfg.threads = 1;
    const CompileResult expected =
        bestDirectMember(circuit, topo, lib, cfg);

    const PortfolioStrategy portfolio;
    for (int lanes : {1, 2, 8}) {
        cfg.threads = lanes;
        CompileContext ctx(topo, lib, cfg);
        const CompileResult got =
            portfolio.compile(circuit, topo, lib, cfg, &ctx);
        const std::string where = circuit.name() + " / " + topo.name() +
                                  " / " + std::to_string(lanes) +
                                  " lanes";
        // With workers, other lanes may drain every member before the
        // caller's lane 0 starts, so only the serial run must use ctx.
        if (lanes == 1) {
            EXPECT_GT(ctx.cacheStats().misses(), 0u) << where;
        }
        expectIdenticalCompiles(expected, got, where);
    }
}

TEST(PortfolioDeterminism, Ring)
{
    expectPortfolioMatchesBestMember(bernsteinVazirani(6),
                                     Topology::ring(8));
}

TEST(PortfolioDeterminism, Grid)
{
    expectPortfolioMatchesBestMember(
        qaoaFromGraph(randomGraph(6, 0.5, 21)), Topology::grid(6));
}

TEST(PortfolioDeterminism, HeavyHex65)
{
    expectPortfolioMatchesBestMember(
        qaoaFromGraph(randomGraph(6, 0.4, 9)), Topology::heavyHex65());
}

TEST(PortfolioDeterminism, SkipsOverCapacityMembersAtAnyLaneCount)
{
    // 8 qubits on 4 units: qubit_only cannot fit; the skip (and the
    // winner among the rest) must match the direct reduction.
    expectPortfolioMatchesBestMember(bernsteinVazirani(8),
                                     Topology::grid(4));
}

// ------------------------------------------------- GRAPE determinism

TEST(GrapeDeterminism, GradientBitIdenticalAcrossLaneCounts)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);

    std::vector<std::vector<double>> controls;
    std::vector<std::vector<double>> grad_serial, grad;
    double j_serial = 0.0, f_serial = 0.0, l_serial = 0.0;
    {
        GrapeOptions opts;
        opts.threads = 1;
        GrapeOptimizer grape(system, target, 80.0, 16, opts);
        Rng rng(41);
        controls.assign(grape.numControls(),
                        std::vector<double>(grape.segments(), 0.0));
        const double amp = 0.3 * system.maxAmplitude();
        for (auto &row : controls)
            for (auto &v : row)
                v = rng.nextDouble(-amp, amp);
        GrapeWorkspace ws;
        j_serial = grape.objectiveAndGradient(controls, grad_serial,
                                              f_serial, l_serial, ws);
    }

    for (int lanes : {2, 8}) {
        GrapeOptions opts;
        opts.threads = lanes;
        GrapeOptimizer grape(system, target, 80.0, 16, opts);
        GrapeWorkspace ws;
        double fid = 0.0, leak = 0.0;
        // Two calls: the second exercises the fully warm path, which
        // must agree just as exactly.
        grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        const double j =
            grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        EXPECT_EQ(j, j_serial) << lanes << " lanes";
        EXPECT_EQ(fid, f_serial) << lanes << " lanes";
        EXPECT_EQ(leak, l_serial) << lanes << " lanes";
        ASSERT_EQ(grad.size(), grad_serial.size()) << lanes;
        for (std::size_t k = 0; k < grad.size(); ++k) {
            ASSERT_EQ(grad[k].size(), grad_serial[k].size());
            for (std::size_t s = 0; s < grad[k].size(); ++s)
                EXPECT_EQ(grad[k][s], grad_serial[k][s])
                    << lanes << " lanes, control " << k << " segment "
                    << s;
        }
    }
}

TEST(GrapeDeterminism, RunConvergesIdenticallyPooled)
{
    // A short end-to-end run (Adam steps on top of the pooled
    // gradient) must trace the identical optimization path.
    std::vector<int> dims;
    const CMatrix target = namedTarget("X", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);
    GrapeOptions opts;
    opts.maxIterations = 8;
    opts.threads = 1;
    const GrapeResult serial =
        GrapeOptimizer(system, target, 24.0, 12, opts).run();
    opts.threads = 4;
    const GrapeResult pooled =
        GrapeOptimizer(system, target, 24.0, 12, opts).run();
    EXPECT_EQ(serial.fidelity, pooled.fidelity);
    EXPECT_EQ(serial.leakage, pooled.leakage);
    EXPECT_EQ(serial.iterations, pooled.iterations);
    ASSERT_EQ(serial.controls.size(), pooled.controls.size());
    for (std::size_t k = 0; k < serial.controls.size(); ++k)
        EXPECT_EQ(serial.controls[k], pooled.controls[k]);
}

} // namespace
} // namespace qompress
