/**
 * @file
 * Property-based sweeps: for random circuits across strategies and
 * topologies, every compiled program must satisfy the structural
 * invariants (validator), produce sane metrics, and preserve the
 * occupancy story of its strategy. Also: failure injection proving
 * the validator and the equivalence checker actually reject broken
 * programs.
 */

#include <gtest/gtest.h>

#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "compiler/pipeline.hh"
#include "compiler/router.hh"
#include "sim/equivalence.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

const GateLibrary kLib;

Circuit
randomNative(int n, int gates, std::uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n, "rand");
    for (int i = 0; i < gates; ++i) {
        const int a = rng.nextInt(0, n - 1);
        int b = rng.nextInt(0, n - 2);
        if (b >= a)
            ++b;
        switch (rng.nextInt(0, 3)) {
          case 0:
            c.h(a);
            break;
          case 1:
            c.rz(rng.nextDouble(0.0, 3.0), a);
            break;
          default:
            c.cx(a, b);
            break;
        }
    }
    return c;
}

struct PropParam
{
    std::string strategy;
    std::string topology;
    std::uint64_t seed;
};

Topology
makeTopology(const std::string &name, int qubits)
{
    if (name == "grid")
        return Topology::grid(qubits);
    if (name == "ring")
        return Topology::ring(std::max(3, qubits));
    if (name == "line")
        return Topology::line(qubits);
    return Topology::heavyHex65();
}

class CompileProperties : public ::testing::TestWithParam<PropParam>
{
};

TEST_P(CompileProperties, InvariantsHold)
{
    const auto &[strategy_name, topo_name, seed] = GetParam();
    const int n = 10;
    const Circuit c = randomNative(n, 40, seed);
    const Topology topo = makeTopology(topo_name, n);
    const auto strategy = makeStrategy(strategy_name);
    const CompileResult res = strategy->compile(c, topo, kLib);

    // Structural validation (adjacency, classification, replay).
    validateCompiled(res.compiled, topo);

    // Metric sanity.
    EXPECT_GT(res.metrics.gateEps, 0.0);
    EXPECT_LE(res.metrics.gateEps, 1.0);
    EXPECT_GT(res.metrics.coherenceEps, 0.0);
    EXPECT_LE(res.metrics.coherenceEps, 1.0);
    EXPECT_NEAR(res.metrics.totalEps,
                res.metrics.gateEps * res.metrics.coherenceEps, 1e-12);
    EXPECT_GT(res.metrics.durationNs, 0.0);

    // Histogram accounts for every gate.
    int total = 0;
    for (int v : res.metrics.classHistogram)
        total += v;
    EXPECT_EQ(total, res.metrics.numGates);

    // Scheduled gates never overlap on a unit.
    const auto &gates = res.compiled.gates();
    std::vector<double> unit_busy_until(topo.numUnits(), 0.0);
    for (const auto &g : gates) {
        for (UnitId u : g.units()) {
            EXPECT_GE(g.start + 1e-9, unit_busy_until[u]) << g.str();
            unit_busy_until[u] = g.end();
        }
    }

    // All logical qubits alive in the final layout.
    const Layout &fin = res.compiled.finalLayout();
    for (QubitId q = 0; q < n; ++q)
        EXPECT_NE(fin.slotOf(q), kInvalid);

    // Non-FQ strategies keep occupancy static: encoded-unit count in
    // the final layout matches the initial one.
    if (strategy_name != "fq") {
        EXPECT_EQ(fin.numEncodedUnits(),
                  res.compiled.initialLayout().numEncodedUnits());
    }
}

std::vector<PropParam>
propParams()
{
    std::vector<PropParam> out;
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp"})
        for (const char *t : {"grid", "ring", "heavyhex"})
            for (std::uint64_t seed : {10ULL, 20ULL})
                out.push_back({s, t, seed});
    // FQ needs spare units; run it on the roomy topologies only.
    for (std::uint64_t seed : {10ULL, 20ULL}) {
        out.push_back({"fq", "grid", seed});
        out.push_back({"fq", "heavyhex", seed});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompileProperties, ::testing::ValuesIn(propParams()),
    [](const ::testing::TestParamInfo<PropParam> &info) {
        return info.param.strategy + "_" + info.param.topology +
               "_s" + std::to_string(info.param.seed);
    });

TEST(CompileProperties, AllBenchmarkFamiliesValidateOnHeavyHex)
{
    for (const auto &family : benchmarkFamilies()) {
        const Circuit c = family.make(std::max(family.minQubits, 12));
        const Topology topo = Topology::heavyHex65();
        const auto res = makeStrategy("eqm")->compile(c, topo, kLib);
        validateCompiled(res.compiled, topo);
        EXPECT_GT(res.metrics.totalEps, 0.0) << family.name;
    }
}

TEST(CompileProperties, PenaltyKnobKeepsValidity)
{
    const Circuit c = randomNative(8, 30, 5);
    const Topology topo = Topology::grid(8);
    for (double penalty : {1.0, 1.5, 4.0}) {
        CompilerConfig cfg;
        cfg.throughQuquartPenalty = penalty;
        const auto res = makeStrategy("eqm")->compile(c, topo, kLib, cfg);
        validateCompiled(res.compiled, topo);
    }
}

// ---------------------------------------------------------------------
// Failure injection: the verification tooling must reject broken
// programs, otherwise green tests mean nothing.
// ---------------------------------------------------------------------

CompileResult
compileSmall()
{
    Circuit c(4, "inj");
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    c.cx(0, 3);
    return makeStrategy("eqm")->compile(c, Topology::line(4), kLib);
}

TEST(FailureInjection, ValidatorCatchesMisclassifiedGate)
{
    CompileResult res = compileSmall();
    bool corrupted = false;
    for (auto &g : res.compiled.mutableGates()) {
        if (g.logical == GateType::CX && g.slots.size() == 2 &&
            !ExpandedGraph::sameUnit(g.slots[0], g.slots[1])) {
            // Lie about the encoding state of the operands.
            g.cls = g.cls == PhysGateClass::CxBareBare
                ? PhysGateClass::CxEnc00 : PhysGateClass::CxBareBare;
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    EXPECT_THROW(validateCompiled(res.compiled, Topology::line(4)),
                 PanicError);
}

TEST(FailureInjection, ValidatorCatchesNonAdjacentGate)
{
    CompileResult res = compileSmall();
    for (auto &g : res.compiled.mutableGates()) {
        if (g.slots.size() == 2 &&
            !ExpandedGraph::sameUnit(g.slots[0], g.slots[1])) {
            // Retarget the second operand to a distant unit.
            g.slots[1] = makeSlot(3, slotPos(g.slots[1]));
            if (slotUnit(g.slots[0]) == 3)
                g.slots[1] = makeSlot(0, 0);
            break;
        }
    }
    EXPECT_THROW(validateCompiled(res.compiled, Topology::line(4)),
                 PanicError);
}

TEST(FailureInjection, EquivalenceCatchesDroppedGate)
{
    Circuit c(3, "dropped");
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    CompileResult res =
        makeStrategy("qubit_only")->compile(c, Topology::line(3), kLib);
    auto &gates = res.compiled.mutableGates();
    // Drop the last CX (keeps the program structurally valid).
    ASSERT_FALSE(gates.empty());
    gates.pop_back();
    const auto rep = checkEquivalence(c, res.compiled);
    EXPECT_FALSE(rep.ok);
}

TEST(FailureInjection, EquivalenceCatchesFlippedCxDirection)
{
    Circuit c(2, "flipped");
    c.h(0);
    c.cx(0, 1);
    CompileResult res =
        makeStrategy("qubit_only")->compile(c, Topology::line(2), kLib);
    for (auto &g : res.compiled.mutableGates()) {
        if (g.logical == GateType::CX)
            std::swap(g.slots[0], g.slots[1]);
    }
    const auto rep = checkEquivalence(c, res.compiled);
    EXPECT_FALSE(rep.ok);
}

TEST(FailureInjection, EquivalenceCatchesWrongRotationAngle)
{
    Circuit c(2, "angle");
    c.h(0);
    c.rz(0.7, 0);
    c.cx(0, 1);
    CompileResult res =
        makeStrategy("qubit_only")->compile(c, Topology::line(2), kLib);
    for (auto &g : res.compiled.mutableGates()) {
        if (g.logical == GateType::RZ)
            g.param = 0.9;
    }
    const auto rep = checkEquivalence(c, res.compiled);
    EXPECT_FALSE(rep.ok);
}

// The cases above use qubit_only, so every unit is bare. These break
// encoded artifacts from the ququart strategies instead.

struct EncodedArtifact
{
    Circuit circuit;
    CompileResult result;
};

/** A 6-qubit QAOA ring (rotations and CX on every qubit), compiled by
 *  @p strategy; it must come out with encoded units and pass. */
EncodedArtifact
encodedArtifact(const std::string &strategy)
{
    Graph g(6);
    for (int v = 0; v < 6; ++v)
        g.addEdge(v, (v + 1) % 6);
    Circuit c = qaoaFromGraph(g);
    CompileResult res =
        makeStrategy(strategy)->compile(c, Topology::grid(9), kLib);
    EXPECT_GT(res.compiled.initialLayout().numEncodedUnits(), 0)
        << strategy;
    EXPECT_TRUE(checkEquivalence(c, res.compiled).ok) << strategy;
    return {std::move(c), std::move(res)};
}

const char *const kEncodedStrategies[] = {"eqm", "pp", "fq"};

TEST(FailureInjection, EquivalenceCatchesDroppedGateOnEncodedUnit)
{
    for (const char *s : kEncodedStrategies) {
        EncodedArtifact a = encodedArtifact(s);
        auto &gates = a.result.compiled.mutableGates();
        // The first program gate (no routing, no ENC/DEC move) that
        // acts on a unit encoded when it runs.
        Layout layout = a.result.compiled.initialLayout();
        std::size_t at = gates.size();
        for (std::size_t i = 0; i < gates.size() && at == gates.size();
             ++i) {
            const PhysGate &g = gates[i];
            const bool program = g.sourceGate >= 0 &&
                                 g.cls != PhysGateClass::Encode &&
                                 g.cls != PhysGateClass::Decode;
            for (UnitId u : g.units()) {
                if (program && layout.unitEncoded(u))
                    at = i;
            }
            advanceLayout(layout, g);
        }
        ASSERT_LT(at, gates.size()) << s;
        gates.erase(gates.begin() + static_cast<std::ptrdiff_t>(at));
        EXPECT_FALSE(checkEquivalence(a.circuit, a.result.compiled).ok)
            << s;
    }
}

TEST(FailureInjection, EquivalenceCatchesSwappedEncodedPair)
{
    for (const char *s : kEncodedStrategies) {
        EncodedArtifact a = encodedArtifact(s);
        Layout fin = a.result.compiled.finalLayout();
        UnitId unit = kInvalid;
        for (UnitId u = 0; u < fin.numUnits() && unit == kInvalid; ++u) {
            if (fin.unitEncoded(u))
                unit = u;
        }
        ASSERT_NE(unit, kInvalid) << s;
        fin.swapSlots(makeSlot(unit, 0), makeSlot(unit, 1));
        a.result.compiled.setFinalLayout(fin);
        EXPECT_FALSE(checkEquivalence(a.circuit, a.result.compiled).ok)
            << s;
    }
}

TEST(FailureInjection, EquivalenceCatchesWrongAngleOnPosition1)
{
    for (const char *s : kEncodedStrategies) {
        EncodedArtifact a = encodedArtifact(s);
        // A rotation on encode position 1: SqEnc1's own, or a fused
        // SqEncBoth's second (position-1) gate.
        bool changed = false;
        for (PhysGate &g : a.result.compiled.mutableGates()) {
            if (changed)
                break;
            if (g.cls == PhysGateClass::SqEnc1 && gateHasParam(g.logical)) {
                g.param += 0.4;
                changed = true;
            } else if (g.cls == PhysGateClass::SqEncBoth &&
                       gateHasParam(g.logical2)) {
                g.param2 += 0.4;
                changed = true;
            }
        }
        ASSERT_TRUE(changed) << s;
        EXPECT_FALSE(checkEquivalence(a.circuit, a.result.compiled).ok)
            << s;
    }
}

// ---------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------

TEST(EdgeCases, SingleQubitCircuit)
{
    Circuit c(1, "single");
    c.h(0);
    c.t(0);
    const auto res =
        makeStrategy("qubit_only")->compile(c, Topology::line(1), kLib);
    EXPECT_EQ(res.compiled.numGates(), 2);
    EXPECT_TRUE(checkEquivalence(c, res.compiled).ok);
}

TEST(EdgeCases, EmptyCircuit)
{
    Circuit c(3, "empty");
    const auto res =
        makeStrategy("qubit_only")->compile(c, Topology::grid(3), kLib);
    EXPECT_EQ(res.metrics.numRoutingGates, 0);
    EXPECT_DOUBLE_EQ(res.metrics.gateEps, 1.0);
    EXPECT_DOUBLE_EQ(res.metrics.durationNs, 0.0);
}

TEST(EdgeCases, OnlySingleQubitGates)
{
    Circuit c(4, "sq_only");
    for (int q = 0; q < 4; ++q) {
        c.h(q);
        c.t(q);
    }
    const auto res =
        makeStrategy("qubit_only")->compile(c, Topology::grid(4), kLib);
    EXPECT_EQ(res.metrics.numRoutingGates, 0);
    EXPECT_TRUE(checkEquivalence(c, res.compiled).ok);
}

TEST(EdgeCases, FullCapacityEqm)
{
    // 8 qubits on 4 units: every unit encoded.
    Circuit c(8, "full");
    for (int q = 0; q + 1 < 8; ++q)
        c.cx(q, q + 1);
    const auto res =
        makeStrategy("eqm")->compile(c, Topology::grid(4), kLib);
    EXPECT_EQ(res.metrics.numEncodedUnits, 4);
    EXPECT_TRUE(checkEquivalence(c, res.compiled).ok);
}

TEST(EdgeCases, FqRejectsWhenNoAncillaSpace)
{
    Circuit c(8, "tight");
    for (int q = 0; q + 1 < 8; ++q)
        c.cx(q, q + 1);
    // 4 units: FQ needs pairs + 2 ancillas = 6.
    EXPECT_THROW(
        makeStrategy("fq")->compile(c, Topology::grid(4), kLib),
        FatalError);
}

} // namespace
} // namespace qompress
