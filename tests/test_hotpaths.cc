/**
 * @file
 * Differential tests for the hot-path overhaul: optimized statevector
 * kernels vs. the retained naive reference, allocation-free GRAPE
 * gradients vs. the naive implementation, the shared-series Van Loan
 * exponential vs. the augmented-matrix construction, signature-priced
 * distance fields vs. per-relaxation public pricing, the distance
 * cache's validity rule vs. a model of it, and cached vs. uncached
 * routing distance fields.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "arch/device.hh"
#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "compiler/pipeline.hh"
#include "ir/passes.hh"
#include "pulse/grape.hh"
#include "pulse/targets.hh"
#include "sim/statevector.hh"

namespace qompress {
namespace {

TEST(HotpathSim, OptimizedMatchesNaiveOnRandomGates)
{
    Rng rng(7);
    const std::vector<int> dims = {2, 4, 2, 4, 3, 2, 4};
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;

    const std::vector<std::vector<int>> target_sets = {
        {0},    {1},    {4},          // k = 2, 4, 3
        {0, 2}, {1, 3}, {2, 1},       // k = 4, 16, 8 (incl. reversed)
        {5, 0}, {4, 6}, {0, 2, 5},    // non-adjacent and 3-unit
    };
    for (const auto &units : target_sets) {
        std::size_t k = 1;
        for (int u : units)
            k *= static_cast<std::size_t>(dims[u]);
        const GateMatrix u = bench::randomUnitary(k, rng);
        fast.applyUnitary(units, u);
        slow.applyUnitaryNaive(units, u);
    }
    EXPECT_LE(bench::maxAmpDiff(fast, slow), 1e-10);
    EXPECT_NEAR(fast.norm(), 1.0, 1e-9);
}

TEST(HotpathSim, FullStateGateHasEmptyComplement)
{
    // All units targeted: the complement odometer has zero digits, the
    // regression the old dead `rest.empty()` branch pretended to
    // handle.
    Rng rng(11);
    const std::vector<int> dims = {2, 3, 4};
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;
    const GateMatrix u = bench::randomUnitary(24, rng);
    fast.applyUnitary({0, 1, 2}, u);
    slow.applyUnitaryNaive({0, 1, 2}, u);
    EXPECT_LE(bench::maxAmpDiff(fast, slow), 1e-10);
    EXPECT_NEAR(fast.norm(), 1.0, 1e-9);
}

TEST(HotpathSim, PermutationGatesUseSparsePath)
{
    // k = 8 permutation exercises the nonzero-compressed kernel.
    Rng rng(23);
    const std::vector<int> dims = {2, 2, 2, 4};
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;
    GateMatrix perm(8);
    for (std::size_t i = 0; i < 8; ++i)
        perm[(i + 3) % 8][i] = 1.0;
    fast.applyUnitary({0, 1, 2}, perm);
    slow.applyUnitaryNaive({0, 1, 2}, perm);
    EXPECT_LE(bench::maxAmpDiff(fast, slow), 1e-12);
}

/** True iff every amplitude of @p a and @p b has the same bits. */
bool
bitIdentical(const MixedRadixState &a, const MixedRadixState &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                       a.size() * sizeof(Cplx)) == 0;
}

TEST(HotpathSim, PreparedGateReusedAcrossStates)
{
    // One prepared gate applied to several states must do exactly what
    // applyUnitary does on each, for every kernel and shape above:
    // k = 2/3/4/8/16 (dense and permutation), non-adjacent targets,
    // and a gate on all units (empty complement).
    Rng rng(31);
    struct Shape
    {
        std::vector<int> dims;
        std::vector<int> units;
        bool permutation;
    };
    const std::vector<Shape> shapes = {
        {{2, 4, 2, 4, 3, 2, 4}, {0}, false},
        {{2, 4, 2, 4, 3, 2, 4}, {4}, false},
        {{2, 4, 2, 4, 3, 2, 4}, {1}, false},
        {{2, 4, 2, 4, 3, 2, 4}, {1}, true},
        {{2, 4, 2, 4, 3, 2, 4}, {2, 1}, false},
        {{2, 4, 2, 4, 3, 2, 4}, {1, 3}, true},
        {{2, 4, 2, 4, 3, 2, 4}, {0, 2, 5}, false},
        {{2, 3, 4}, {0, 1, 2}, false},
        {{2, 2, 2, 4}, {0, 1, 2}, true},
    };
    for (const Shape &sh : shapes) {
        std::size_t k = 1;
        for (int u : sh.units)
            k *= static_cast<std::size_t>(sh.dims[u]);
        GateMatrix u = bench::randomUnitary(k, rng);
        if (sh.permutation) {
            u = GateMatrix(k);
            for (std::size_t i = 0; i < k; ++i)
                u[(i + 3) % k][i] = 1.0;
        }
        std::vector<MixedRadixState> states;
        for (int i = 0; i < 3; ++i)
            states.push_back(bench::randomState(sh.dims, rng));
        const PreparedGate g = states[0].prepare(sh.units, u);
        EXPECT_EQ(g.dim(), k);
        for (MixedRadixState &st : states) {
            MixedRadixState direct = st;
            direct.applyUnitary(sh.units, u);
            MixedRadixState naive = st;
            naive.applyUnitaryNaive(sh.units, u);
            st.apply(g);
            EXPECT_TRUE(bitIdentical(st, direct)) << "k = " << k;
            EXPECT_LE(bench::maxAmpDiff(st, naive), 1e-12) << "k = " << k;
        }
    }
}

TEST(HotpathSim, PreparedGateRejectsOtherShapes)
{
    const MixedRadixState a({2, 4, 2});
    const PreparedGate g = a.prepare({1}, GateMatrix::identity(4));
    MixedRadixState same_size({4, 2, 2});
    EXPECT_THROW(same_size.apply(g), PanicError);
    MixedRadixState longer({2, 4, 2, 2});
    EXPECT_THROW(longer.apply(g), PanicError);
    MixedRadixState fits({2, 4, 2});
    EXPECT_NO_THROW(fits.apply(g));
}

TEST(HotpathSim, ProductMatchesPerIndexProduct)
{
    // The Kronecker expansion multiplies each amplitude in unit order
    // starting from 1.0, as a per-index digit walk does: bit for bit.
    Rng rng(5);
    const std::vector<int> dims = {4, 2, 3, 4, 2};
    std::vector<std::vector<Cplx>> unit_states;
    for (int d : dims) {
        std::vector<Cplx> s;
        for (int j = 0; j < d; ++j)
            s.emplace_back(rng.nextGaussian(), rng.nextGaussian());
        unit_states.push_back(std::move(s));
    }
    const MixedRadixState st = MixedRadixState::product(unit_states);
    for (std::size_t idx = 0; idx < st.size(); ++idx) {
        Cplx a = 1.0;
        for (int u = 0; u < st.numUnits(); ++u)
            a *= unit_states[u][st.digit(idx, u)];
        const Cplx got = st.amp(idx);
        ASSERT_EQ(std::memcmp(&got, &a, sizeof(Cplx)), 0) << idx;
    }
}

TEST(HotpathMatrix, InPlaceOpsMatchOperators)
{
    Rng rng(3);
    CMatrix a(5, 5), b(5, 5);
    for (int r = 0; r < 5; ++r) {
        for (int c = 0; c < 5; ++c) {
            a(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                      rng.nextGaussian());
            b(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                      rng.nextGaussian());
        }
    }
    CMatrix prod;
    mulInto(prod, a, b);
    const CMatrix expect = a * b;
    EXPECT_LE((prod - expect).norm(), 1e-12);

    CMatrix acc = a;
    addScaledInto(acc, CMatrix::Scalar(0.0, 2.0), b);
    const CMatrix expect2 = a + b * CMatrix::Scalar(0.0, 2.0);
    EXPECT_LE((acc - expect2).norm(), 1e-12);

    CMatrix dag;
    daggerInto(dag, a);
    EXPECT_LE((dag - a.dagger()).norm(), 1e-12);

    ExpmWorkspace ws;
    CMatrix e1;
    expmInto(e1, a * CMatrix::Scalar(0.1), ws);
    const CMatrix e2 = expm(a * CMatrix::Scalar(0.1));
    EXPECT_LE((e1 - e2).norm(), 1e-12);
}

TEST(HotpathMatrix, ExpmPadeMatchesTaylorAcrossRegimes)
{
    // expmInto is now the Padé-13 kernel (the direction-free family
    // exponential); the retained Taylor form is the reference. Cover
    // the no-squaring regime, the transition, and heavy squaring.
    Rng rng(23);
    for (double scale : {0.01, 0.4, 2.0, 8.0, 30.0}) {
        const int n = 7;
        CMatrix a(n, n);
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                // Anti-Hermitian argument, as produced by -i dt H.
                const CMatrix::Scalar v(rng.nextGaussian(),
                                        rng.nextGaussian());
                a(r, c) += v * CMatrix::Scalar(0.0, scale / n);
                a(c, r) += std::conj(v) * CMatrix::Scalar(0.0, scale / n);
            }
        }
        ExpmWorkspace ws;
        CMatrix pade, taylor;
        expmInto(pade, a, ws);
        expmIntoTaylor(taylor, a, ws);
        const double denom = std::max(1.0, taylor.norm());
        EXPECT_LE((pade - taylor).norm() / denom, 1e-11)
            << "scale " << scale;
        // e^{anti-Hermitian} is unitary; both kernels must preserve it.
        EXPECT_TRUE(pade.isUnitary(1e-9)) << "scale " << scale;
        EXPECT_LE((expm(a) - pade).norm(), 1e-14); // expm rides expmInto
    }
}

TEST(HotpathMatrix, FamilyExponentialMatchesAugmented)
{
    Rng rng(17);
    const int n = 6;
    CMatrix a(n, n);
    std::vector<CMatrix> bs(2, CMatrix(n, n));
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            // Anti-Hermitian-ish arguments as produced by -i dt H.
            a(r, c) = CMatrix::Scalar(0.0, rng.nextGaussian());
            for (auto &b : bs)
                b(r, c) = CMatrix::Scalar(0.0, 0.3 * rng.nextGaussian());
        }
    }

    ExpmFamilyWorkspace ws;
    CMatrix eA;
    std::vector<CMatrix> ds;
    expmFamilyInto(eA, ds, a, bs, ws);

    EXPECT_LE((eA - expm(a)).norm(), 1e-10);
    for (const auto &b : bs) {
        // Reference: the Van Loan augmented construction.
        CMatrix m(2 * n, 2 * n);
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                m(r, c) = a(r, c);
                m(n + r, n + c) = a(r, c);
                m(r, n + c) = b(r, c);
            }
        }
        const CMatrix e = expm(m);
        const std::size_t k = static_cast<std::size_t>(&b - bs.data());
        double worst = 0.0;
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                worst = std::max(worst,
                                 std::abs(ds[k](r, c) - e(r, n + c)));
        EXPECT_LE(worst, 1e-10);
    }
}

TEST(HotpathMatrix, LuSolverInvertsRandomSystems)
{
    Rng rng(23);
    for (int n : {1, 2, 5, 9}) {
        CMatrix a(n, n);
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                a(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                          rng.nextGaussian());
        CMatrix b(n, n + 2); // non-square right-hand side too
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n + 2; ++c)
                b(r, c) = CMatrix::Scalar(rng.nextGaussian(),
                                          rng.nextGaussian());
        LuSolver lu;
        lu.factor(a);
        CMatrix x = b;
        lu.solveInPlace(x);
        const CMatrix residual = a * x - b;
        EXPECT_LE(residual.norm(), 1e-10 * (1.0 + b.norm())) << n;
    }
}

TEST(HotpathMatrix, PadeFamilyMatchesTaylorFamilyTo1e12)
{
    // The production Padé-13 kernel vs the retained Taylor reference
    // on anti-Hermitian arguments spanning several scaling regimes
    // (norms below and well above theta_13).
    Rng rng(29);
    const int n = 7;
    for (double mag : {0.05, 1.0, 8.0, 40.0}) {
        CMatrix a(n, n);
        std::vector<CMatrix> bs(3, CMatrix(n, n));
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                a(r, c) = CMatrix::Scalar(0.0, mag * rng.nextGaussian());
                for (auto &b : bs)
                    b(r, c) = CMatrix::Scalar(
                        0.0, 0.2 * mag * rng.nextGaussian());
            }
        }
        ExpmFamilyWorkspace ws;
        CMatrix eA, eA_ref;
        std::vector<CMatrix> ds, ds_ref;
        expmFamilyInto(eA, ds, a, bs, ws);
        expmFamilyIntoTaylor(eA_ref, ds_ref, a, bs, ws);
        // Tolerance scales with the result magnitude: the derivative
        // blocks grow with |B| while e^A stays unitary-bounded.
        EXPECT_LE((eA - eA_ref).norm(), 1e-12 * (1.0 + eA_ref.norm()))
            << "mag " << mag;
        ASSERT_EQ(ds.size(), ds_ref.size());
        for (std::size_t k = 0; k < ds.size(); ++k)
            EXPECT_LE((ds[k] - ds_ref[k]).norm(),
                      1e-12 * (1.0 + ds_ref[k].norm()))
                << "mag " << mag << " direction " << k;
    }
}

TEST(HotpathGrape, OptimizedGradientMatchesNaive)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX0", dims);
    const TransmonSystem system(dims, 1);
    GrapeOptimizer grape(system, target, 40.0, 8);

    Rng rng(5);
    std::vector<std::vector<double>> controls(
        grape.numControls(),
        std::vector<double>(grape.segments(), 0.0));
    const double amp = 0.3 * system.maxAmplitude();
    for (auto &row : controls)
        for (auto &v : row)
            v = rng.nextDouble(-amp, amp);

    GrapeWorkspace ws;
    std::vector<std::vector<double>> grad, grad_naive;
    double f1 = 0, l1 = 0, f2 = 0, l2 = 0;
    const double j1 =
        grape.objectiveAndGradient(controls, grad, f1, l1, ws);
    const double j2 =
        grape.objectiveAndGradientNaive(controls, grad_naive, f2, l2);

    EXPECT_NEAR(j1, j2, 1e-10);
    EXPECT_NEAR(f1, f2, 1e-10);
    EXPECT_NEAR(l1, l2, 1e-10);
    ASSERT_EQ(grad.size(), grad_naive.size());
    for (std::size_t k = 0; k < grad.size(); ++k) {
        ASSERT_EQ(grad[k].size(), grad_naive[k].size());
        for (std::size_t j = 0; j < grad[k].size(); ++j)
            EXPECT_NEAR(grad[k][j], grad_naive[k][j], 1e-10)
                << "control " << k << " segment " << j;
    }

    // Workspace reuse across different control values stays exact.
    for (auto &row : controls)
        for (auto &v : row)
            v = rng.nextDouble(-amp, amp);
    grape.objectiveAndGradient(controls, grad, f1, l1, ws);
    grape.objectiveAndGradientNaive(controls, grad_naive, f2, l2);
    for (std::size_t k = 0; k < grad.size(); ++k)
        for (std::size_t j = 0; j < grad[k].size(); ++j)
            EXPECT_NEAR(grad[k][j], grad_naive[k][j], 1e-10);
}

TEST(HotpathLayout, SignaturesTrackOccupancyOnly)
{
    Layout layout(4, 4);
    layout.place(0, makeSlot(0, 0));
    layout.place(1, makeSlot(1, 0));
    const std::vector<std::uint8_t> placed = {1, 1, 0, 0};
    EXPECT_EQ(layout.signatures(), placed);

    // Occupied <-> occupied exchange: costs invariant, no change.
    layout.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    EXPECT_EQ(layout.signatures(), placed);

    // Empty <-> empty: nothing moves.
    layout.swapSlots(makeSlot(2, 0), makeSlot(3, 0));
    EXPECT_EQ(layout.signatures(), placed);

    // Occupied <-> empty changes occupancy on both units.
    layout.swapSlots(makeSlot(0, 0), makeSlot(2, 0));
    EXPECT_EQ(layout.signatures(), (std::vector<std::uint8_t>{0, 1, 1, 0}));

    layout.remove(0);
    EXPECT_EQ(layout.signatures(), (std::vector<std::uint8_t>{0, 0, 1, 0}));
}

TEST(HotpathCache, FieldsMatchDirectComputation)
{
    const Topology topo = Topology::ring(6);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);

    Layout layout(6, 6);
    for (QubitId q = 0; q < 6; ++q)
        layout.place(q, makeSlot(q, 0));

    DistanceFieldCache cache(cost);
    for (SlotId s = 0; s < 4; ++s) {
        const auto direct = cost.routingDistances(s, layout);
        const auto &cached = cache.routing(s, layout);
        EXPECT_EQ(direct.dist, cached.dist) << "source " << s;
        EXPECT_EQ(direct.parent, cached.parent);
    }
    EXPECT_EQ(cache.misses(), 4u);

    // Routing-style swap: costs unchanged, fields served from cache.
    layout.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    cache.routing(0, layout);
    EXPECT_EQ(cache.hits(), 1u);

    // Occupancy change invalidates.
    layout.swapSlots(makeSlot(0, 0), makeSlot(0, 1));
    const auto direct = cost.routingDistances(0, layout);
    const auto &recomputed = cache.routing(0, layout);
    EXPECT_EQ(cache.misses(), 5u);
    EXPECT_EQ(direct.dist, recomputed.dist);
}

TEST(HotpathCache, PartialInvalidationRecomputesExactlyOnDependedChanges)
{
    // Interleave layout mutations with distance queries and count
    // recomputes (misses) via the cache counters: a field must be
    // recomputed exactly when a unit state it depends on changed.
    const Topology topo = Topology::ring(8);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);

    Layout layout(8, 8);
    layout.place(0, makeSlot(0, 0));
    layout.place(1, makeSlot(1, 0));
    layout.place(2, makeSlot(2, 0));

    DistanceFieldCache cache(cost);
    const SlotId src = makeSlot(0, 0);

    // Cold: one recompute.
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 1u);

    // Placement on an empty unit flips no encoded bit: the mapping
    // field is served, not recomputed, then and on the next query.
    layout.place(3, makeSlot(3, 0));
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    cache.mapping(src, layout);
    EXPECT_EQ(cache.hits(), 2u);

    // Completing a pair flips unit 1's encoded bit: recompute, and
    // the recomputed field must match a direct computation.
    layout.place(4, makeSlot(1, 1));
    const auto direct = cost.mappingDistances(src, layout);
    const auto &refreshed = cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(direct.dist, refreshed.dist);

    // Routing fields depend on per-slot occupancy, so the same
    // empty-unit placement that mapping shrugged off is a routing
    // recompute...
    cache.routing(src, layout);
    EXPECT_EQ(cache.misses(), 3u);
    layout.place(5, makeSlot(5, 0));
    cache.mapping(src, layout); // encoded bits unchanged: a hit
    EXPECT_EQ(cache.misses(), 3u);
    cache.routing(src, layout); // occupancy changed: recomputes
    EXPECT_EQ(cache.misses(), 4u);

    // ...while occupied <-> occupied routing SWAPs invalidate nothing.
    layout.swapSlots(makeSlot(1, 0), makeSlot(2, 0));
    const auto hits_before = cache.hits();
    cache.routing(src, layout);
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), hits_before + 2);

    // Intra-unit occupied <-> empty swap keeps the unit's occupancy
    // count (mapping-irrelevant) but moves which slot is occupied
    // (routing-relevant).
    layout.swapSlots(makeSlot(5, 0), makeSlot(5, 1));
    cache.mapping(src, layout);
    EXPECT_EQ(cache.misses(), 4u);
    cache.routing(src, layout);
    EXPECT_EQ(cache.misses(), 5u);
}

TEST(HotpathCache, SurvivesDistinctLayoutInstances)
{
    // Progressive pairing and the exhaustive search remap from scratch
    // each round; a field cached against one Layout instance must be
    // reused by a different instance with the same relevant state and
    // never reused when the state differs.
    const Topology topo = Topology::ring(6);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);
    DistanceFieldCache cache(cost);

    Layout a(6, 6);
    a.place(0, makeSlot(0, 0));
    a.place(1, makeSlot(0, 1)); // unit 0 encoded
    a.place(2, makeSlot(2, 0));
    cache.mapping(0, a);
    EXPECT_EQ(cache.misses(), 1u);

    // Same encoded bits, different instance (and different placement
    // history): a hit.
    Layout b(6, 6);
    b.place(3, makeSlot(0, 0));
    b.place(4, makeSlot(0, 1));
    b.place(5, makeSlot(4, 0)); // occupancy differs; encoding agrees
    cache.mapping(0, b);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A copy diverging from its original: the changed encoding is in
    // the copy's own signatures, so it is detected.
    Layout c = b;
    c.remove(4); // unit 0 no longer encoded
    const auto direct = cost.mappingDistances(0, c);
    const auto &recomputed = cache.mapping(0, c);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(direct.dist, recomputed.dist);
}

/** Equal distances to the bit (memcmp, so -0.0 != +0.0) and equal
 *  parent trees. */
void
expectSameField(const ShortestPaths &got, const ShortestPaths &want,
                const std::string &what)
{
    ASSERT_EQ(got.dist.size(), want.dist.size()) << what;
    EXPECT_EQ(std::memcmp(got.dist.data(), want.dist.data(),
                          got.dist.size() * sizeof(double)),
              0)
        << what;
    EXPECT_EQ(got.parent, want.parent) << what;
}

/** A layout over @p units units whose every unit draws one of the four
 *  occupancy signatures (empty, position 0, position 1, encoded). */
Layout
randomLayout(int units, Rng &rng)
{
    std::vector<SlotId> slots;
    for (UnitId u = 0; u < units; ++u) {
        const std::uint64_t sig = rng.nextUint(4);
        for (int pos = 0; pos < 2; ++pos) {
            if (sig & (1u << pos))
                slots.push_back(makeSlot(u, pos));
        }
    }
    Layout layout(static_cast<int>(slots.size()), units);
    for (std::size_t q = 0; q < slots.size(); ++q)
        layout.place(static_cast<QubitId>(q), slots[q]);
    return layout;
}

/** Per-unit T1s around the library's and per-coupling fidelity and
 *  duration scales on most edges: a calibration that prices every
 *  unit and coupling differently. */
DeviceCalibration
randomCalibration(const Topology &topo, const GateLibrary &lib, Rng &rng)
{
    DeviceCalibration cal = DeviceCalibration::uniform(
        topo.name(), topo.numUnits(), lib.t1Qubit(), lib.t1Ququart());
    for (UnitId u = 0; u < topo.numUnits(); ++u) {
        cal.t1QubitNs[u] *= rng.nextDouble(0.5, 1.5);
        cal.t1QuquartNs[u] *= rng.nextDouble(0.5, 1.5);
    }
    for (const auto &e : topo.graph().edges()) {
        if (rng.nextBool(0.75)) {
            cal.setEdge(e.u, e.v, rng.nextDouble(0.9, 1.0),
                        rng.nextDouble(0.8, 1.5));
        }
    }
    return cal;
}

TEST(HotpathCost, FieldsMatchPerRelaxationPublicPricing)
{
    // Each field prices its relaxations from unit signatures read once
    // per field; the reference prices every relaxation through the
    // public per-edge costs, reading the layout each time.
    std::vector<Topology> topos = {Topology::ring(7), Topology::grid(10),
                                   Topology::line(6)};
    const DeviceRegistry zoo;
    for (const DeviceInfo &d : zoo.info())
        topos.push_back(zoo.get(d.name).topology);
    const GateLibrary lib;
    Rng rng(20240611);
    for (const Topology &topo : topos) {
        const ExpandedGraph xg(topo);
        EXPECT_EQ(xg.centerUnit(), topo.centerUnit()) << topo.name();
        const DeviceCalibration cal = randomCalibration(topo, lib, rng);
        const DeviceCalibration *const pricings[] = {nullptr, &cal};
        for (const DeviceCalibration *c : pricings) {
            const CostModel cost(xg, lib, 1.25, c);
            for (int i = 0; i < 200; ++i) {
                const Layout layout = randomLayout(topo.numUnits(), rng);
                const std::string what = topo.name() +
                                         (c ? " calibrated" : "") +
                                         " layout " + std::to_string(i);
                const SlotId s =
                    static_cast<SlotId>(rng.nextUint(xg.numSlots()));
                expectSameField(
                    cost.mappingDistances(s, layout),
                    dijkstra(xg.graph(), s,
                             [&](int a, int b, double) {
                                 return cost.swapCost(a, b, layout);
                             }),
                    "mapping " + what);
                expectSameField(
                    cost.routingDistances(s, layout),
                    dijkstra(xg.graph(), s,
                             [&](int a, int b, double) {
                                 return cost.routingHopCost(a, b, layout);
                             }),
                    "routing " + what);
                const UnitId u = slotUnit(s);
                expectSameField(
                    cost.unitDistances(u, layout),
                    dijkstra(topo.graph(), u,
                             [&](int a, int b, double) {
                                 return cost.swap4Cost(a, b, layout);
                             }),
                    "unit " + what);
            }
        }
    }
}

/** The signature bits a field family reads: every bit for routing
 *  fields, the encoded bit alone for mapping and unit fields. */
std::vector<std::uint8_t>
readBits(const Layout &layout, bool encoded_only)
{
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(
        layout.numUnits()));
    for (UnitId u = 0; u < layout.numUnits(); ++u) {
        const std::uint8_t sig = layout.unitSignature(u);
        bits[u] = encoded_only ? (sig == 3) : sig;
    }
    return bits;
}

TEST(HotpathCache, ServesIffReadBitsMatchTheLastMiss)
{
    // Three layouts -- two independent, one a copy of the first --
    // share one cache through random place/remove/swapSlots steps.
    // After every step a random field of each family is looked up on
    // a random layout. Each lookup must equal a direct computation,
    // and must miss iff it is its source's first lookup in that
    // family or the bits the family reads differ from those at the
    // source's last miss.
    enum Family { kRouting, kMapping, kUnit, kFamilies };
    const char *const names[] = {"routing", "mapping", "unit"};
    const std::vector<Topology> topos = {
        Topology::ring(12), Topology::grid(16), Topology::heavyHex65()};
    const GateLibrary lib;
    const int kSteps = 2000;
    const int kSourcesPerFamily = 4;
    Rng rng(20261019);
    for (const Topology &topo : topos) {
        const ExpandedGraph xg(topo);
        const CostModel cost(xg, lib);
        DistanceFieldCache cache(cost);
        const int units = topo.numUnits();
        const int qubits = units; // at most half of the slots occupied

        auto randomStart = [&] {
            Layout l(qubits, units);
            for (QubitId q = 0; q < qubits; ++q) {
                const SlotId s = rng.nextInt(0, l.numSlots() - 1);
                if (rng.nextBool() && !l.occupied(s))
                    l.place(q, s);
            }
            return l;
        };
        const Layout first = randomStart();
        std::vector<Layout> layouts = {first, randomStart(), first};

        // Per family: the sources looked up, and each source's read
        // bits and layout index at its last miss.
        std::vector<int> sources[kFamilies];
        std::vector<std::vector<std::uint8_t>> last_bits[kFamilies];
        std::vector<int> last_layout[kFamilies];
        for (int f = 0; f < kFamilies; ++f) {
            for (int s = 0; s < (f == kUnit ? units : xg.numSlots()); ++s)
                sources[f].push_back(s);
            rng.shuffle(sources[f]);
            sources[f].resize(kSourcesPerFamily); // distinct sources
            last_bits[f].resize(kSourcesPerFamily);
            last_layout[f].assign(kSourcesPerFamily, -1);
        }
        std::uint64_t hits[kFamilies] = {}, misses[kFamilies] = {};
        std::uint64_t cross_layout_hits = 0;

        for (int step = 0; step < kSteps; ++step) {
            Layout &l = layouts[rng.nextUint(layouts.size())];
            const QubitId q = rng.nextInt(0, qubits - 1);
            const QubitId r = rng.nextInt(0, qubits - 1);
            switch (rng.nextInt(0, 3)) {
            case 0: { // place an unmapped qubit on a free slot
                const SlotId s = rng.nextInt(0, l.numSlots() - 1);
                if (!l.isMapped(q) && !l.occupied(s))
                    l.place(q, s);
                break;
            }
            case 1:
                if (l.isMapped(q))
                    l.remove(q);
                break;
            case 2: // any occupancy combination
                l.swapSlots(rng.nextInt(0, l.numSlots() - 1),
                            rng.nextInt(0, l.numSlots() - 1));
                break;
            default: // a routing SWAP: two occupied slots
                if (l.isMapped(q) && l.isMapped(r))
                    l.swapSlots(l.slotOf(q), l.slotOf(r));
                break;
            }

            for (int f = 0; f < kFamilies; ++f) {
                const int li = static_cast<int>(rng.nextUint(3));
                const Layout &at = layouts[li];
                const int i = static_cast<int>(rng.nextUint(
                    static_cast<std::uint64_t>(kSourcesPerFamily)));
                const int src = sources[f][i];
                const std::vector<std::uint8_t> bits =
                    readBits(at, f != kRouting);
                const bool want_miss =
                    last_layout[f][i] < 0 || bits != last_bits[f][i];
                const std::string what =
                    topo.name() + " step " + std::to_string(step) + " " +
                    names[f] + " source " + std::to_string(src) +
                    " layout " + std::to_string(li);

                const std::uint64_t misses_before = cache.misses();
                const std::uint64_t hits_before = cache.hits();
                if (f == kRouting) {
                    expectSameField(cache.routing(src, at),
                                    cost.routingDistances(src, at), what);
                } else if (f == kMapping) {
                    expectSameField(cache.mapping(src, at),
                                    cost.mappingDistances(src, at), what);
                } else {
                    expectSameField(cache.unit(src, at),
                                    cost.unitDistances(src, at), what);
                }
                ASSERT_EQ(cache.misses() - misses_before, want_miss ? 1u : 0u)
                    << what;
                ASSERT_EQ(cache.hits() - hits_before, want_miss ? 0u : 1u)
                    << what;
                if (want_miss) {
                    ++misses[f];
                    last_bits[f][i] = bits;
                    last_layout[f][i] = li;
                } else {
                    ++hits[f];
                    cross_layout_hits += last_layout[f][i] != li;
                }
            }
        }
        // Not vacuous: every family both hit and missed, and fields
        // computed on one layout were served to another.
        for (int f = 0; f < kFamilies; ++f) {
            EXPECT_GT(hits[f], 0u) << topo.name() << " " << names[f];
            EXPECT_GT(misses[f], 0u) << topo.name() << " " << names[f];
        }
        EXPECT_GT(cross_layout_hits, 0u) << topo.name();
    }
}

/** Route one circuit twice, cache on/off, and demand identical output. */
void
expectSameRouting(const Circuit &circuit, const Topology &topo,
                  double lookahead)
{
    const Circuit native = decomposeToNativeGates(circuit);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);
    const InteractionModel im(native);
    const Layout initial = mapCircuit(native, im, cost, {});

    auto route = [&](bool use_cache) {
        RouterOptions ropts;
        ropts.lookaheadWeight = lookahead;
        ropts.useDistanceCache = use_cache;
        Layout layout = initial;
        CompiledCircuit out(layout, "diff");
        routeCircuit(native, layout, cost, out, ropts);
        return out;
    };
    const CompiledCircuit with_cache = route(true);
    const CompiledCircuit without = route(false);

    ASSERT_EQ(with_cache.numGates(), without.numGates());
    for (int i = 0; i < with_cache.numGates(); ++i) {
        const PhysGate &x = with_cache.gates()[i];
        const PhysGate &y = without.gates()[i];
        EXPECT_EQ(x.cls, y.cls) << "gate " << i;
        EXPECT_EQ(x.slots, y.slots) << "gate " << i;
        EXPECT_EQ(x.logical, y.logical) << "gate " << i;
        EXPECT_EQ(x.isRouting, y.isRouting) << "gate " << i;
    }
    for (QubitId q = 0; q < initial.numQubits(); ++q) {
        EXPECT_EQ(with_cache.finalLayout().slotOf(q),
                  without.finalLayout().slotOf(q));
    }
}

TEST(HotpathRouter, CachedRoutingIdenticalOnRing)
{
    expectSameRouting(bernsteinVazirani(8), Topology::ring(8), 0.0);
    expectSameRouting(bernsteinVazirani(8), Topology::ring(8), 0.5);
    expectSameRouting(qaoaFromGraph(randomGraph(8, 0.4)), Topology::ring(8), 0.5);
}

TEST(HotpathRouter, CachedRoutingIdenticalOnGrid)
{
    expectSameRouting(bernsteinVazirani(9), Topology::grid(9), 0.0);
    expectSameRouting(bernsteinVazirani(9), Topology::grid(9), 0.5);
    expectSameRouting(qaoaFromGraph(randomGraph(9, 0.4)), Topology::grid(9), 0.5);
}

} // namespace
} // namespace qompress
