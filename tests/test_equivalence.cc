/**
 * @file
 * End-to-end functional verification: for a sweep of circuits,
 * topologies, and strategies, the compiled mixed-radix program must
 * implement exactly the logical circuit (statevector equivalence).
 * The checker's prepared gate lists are pinned against a reference
 * that replays every trial gate by gate on the naive kernel.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <map>

#include "arch/device.hh"
#include "circuits/arithmetic.hh"
#include "circuits/cnu.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "compiler/router.hh"
#include "sim/equivalence.hh"
#include "sim/gate_unitaries.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

const GateLibrary kLib;

void
expectEquivalent(const Circuit &logical, const Topology &topo,
                 const std::string &strategy_name)
{
    const auto strategy = makeStrategy(strategy_name);
    const CompileResult res = strategy->compile(logical, topo, kLib);
    const EquivalenceReport rep = checkEquivalence(logical, res.compiled);
    EXPECT_TRUE(rep.ok) << strategy_name << " on " << logical.name()
                        << " / " << topo.name() << ": " << rep.message;
}

/** Seeded random native circuit over n qubits. */
Circuit
randomCircuit(int n, int gates, std::uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n, "random");
    for (int i = 0; i < gates; ++i) {
        const int kind = rng.nextInt(0, 5);
        const int a = rng.nextInt(0, n - 1);
        int b = rng.nextInt(0, n - 2);
        if (b >= a)
            ++b;
        switch (kind) {
          case 0:
            c.h(a);
            break;
          case 1:
            c.t(a);
            break;
          case 2:
            c.x(a);
            break;
          case 3:
            c.cx(a, b);
            break;
          case 4:
            c.cx(b, a);
            break;
          default:
            c.swap(a, b);
            break;
        }
    }
    return c;
}

TEST(Equivalence, BellPairAllStrategies)
{
    Circuit bell(2, "bell");
    bell.h(0);
    bell.cx(0, 1);
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp", "fq"})
        expectEquivalent(bell, Topology::grid(3), s);
}

TEST(Equivalence, GhzOnLine)
{
    Circuit ghz(4, "ghz");
    ghz.h(0);
    ghz.cx(0, 1);
    ghz.cx(1, 2);
    ghz.cx(2, 3);
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp"})
        expectEquivalent(ghz, Topology::line(4), s);
}

TEST(Equivalence, ToffoliDecomposition)
{
    Circuit c(3, "ccx");
    c.x(0);
    c.x(1);
    c.ccx(0, 1, 2);
    for (const char *s : {"qubit_only", "eqm"})
        expectEquivalent(c, Topology::grid(3), s);
}

TEST(Equivalence, CuccaroSmallAllStrategies)
{
    const Circuit adder = cuccaroAdder(2); // 6 qubits
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp"})
        expectEquivalent(adder, Topology::grid(6), s);
}

TEST(Equivalence, CnuSmall)
{
    const Circuit cnu = generalizedToffoli(3); // 5 qubits
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp"})
        expectEquivalent(cnu, Topology::grid(5), s);
}

TEST(Equivalence, QaoaTriangle)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    const Circuit qaoa = qaoaFromGraph(g);
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp", "fq"})
        expectEquivalent(qaoa, Topology::grid(4), s);
}

TEST(Equivalence, FullQuquartWithDecodePath)
{
    // 6 qubits on a 3x3 grid: FQ pairs them into 3 ququarts and must
    // decode/encode around external CX gates.
    Circuit c(6, "fq_path");
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    c.cx(3, 4);
    c.cx(4, 5);
    c.cx(0, 5);
    expectEquivalent(c, Topology::grid(9), "fq");
}

TEST(Equivalence, ExhaustiveStrategySmall)
{
    Circuit c(4, "ec_small");
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    c.cx(0, 3);
    expectEquivalent(c, Topology::grid(4), "ec");
    expectEquivalent(c, Topology::grid(4), "ec_unordered");
}

TEST(Equivalence, RingTopology)
{
    const Circuit adder = cuccaroAdder(2);
    for (const char *s : {"qubit_only", "eqm"})
        expectEquivalent(adder, Topology::ring(6), s);
}

struct SweepParam
{
    std::string strategy;
    std::uint64_t seed;
};

class RandomCircuitSweep
    : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(RandomCircuitSweep, CompiledMatchesLogical)
{
    const auto &[strategy, seed] = GetParam();
    const Circuit c = randomCircuit(6, 24, seed);
    expectEquivalent(c, Topology::grid(6), strategy);
}

std::vector<SweepParam>
sweepParams()
{
    std::vector<SweepParam> params;
    for (const char *s : {"qubit_only", "eqm", "rb", "awe", "pp", "fq"})
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            params.push_back({s, seed});
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, RandomCircuitSweep, ::testing::ValuesIn(sweepParams()),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        return info.param.strategy + "_seed" +
               std::to_string(info.param.seed);
    });

TEST(Equivalence, NegativeTrialCountIsFatal)
{
    // A negative trial count is rejected: it must never read as a
    // pass, as it would for this wrong artifact if no trial ran.
    Circuit c(4, "wrong");
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    CompileResult res =
        makeStrategy("qubit_only")->compile(c, Topology::line(4), kLib);
    res.compiled.mutableGates().pop_back();
    EXPECT_THROW(checkEquivalence(c, res.compiled, -1), FatalError);
    EXPECT_FALSE(checkEquivalence(c, res.compiled, 0).ok);
}

TEST(Equivalence, WidthMismatchIsAFailedReport)
{
    // An artifact compiled from a wider program: its qubit ids must not
    // index the narrower program's qubit arrays.
    Circuit wide(4, "wide");
    wide.h(0);
    wide.cx(0, 1);
    wide.cx(1, 2);
    wide.cx(2, 3);
    const CompileResult res =
        makeStrategy("qubit_only")->compile(wide, Topology::line(4), kLib);
    Circuit narrow(3, "narrow");
    narrow.h(0);
    narrow.cx(0, 1);
    narrow.cx(1, 2);
    const EquivalenceReport rep = checkEquivalence(narrow, res.compiled);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.message.find("3 qubits"), std::string::npos)
        << rep.message;
    EXPECT_NE(rep.message.find("layout 4"), std::string::npos)
        << rep.message;

    // And the other way round: a program wider than the artifact.
    const CompileResult small =
        makeStrategy("qubit_only")->compile(narrow, Topology::line(3), kLib);
    const EquivalenceReport rev = checkEquivalence(wide, small.compiled);
    EXPECT_FALSE(rev.ok);
    EXPECT_NE(rev.message.find("4 qubits"), std::string::npos)
        << rev.message;
}

TEST(Equivalence, NanAmplitudesFail)
{
    // A NaN angle turns amplitudes into NaN, whose error compares false
    // against any tolerance; the check must still fail.
    Circuit c(2, "nan");
    c.h(0);
    c.rz(0.7, 0);
    c.cx(0, 1);
    CompileResult res =
        makeStrategy("qubit_only")->compile(c, Topology::line(2), kLib);
    for (auto &g : res.compiled.mutableGates()) {
        if (g.logical == GateType::RZ)
            g.param = std::nan("");
    }
    const EquivalenceReport rep = checkEquivalence(c, res.compiled);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.message.find("nan"), std::string::npos) << rep.message;
}

// ---------------------------------------------------------------------
// Differential: prepared gate lists vs the per-trial naive replay.
// ---------------------------------------------------------------------

/**
 * The reference algorithm: every trial rebuilds each gate's unitary,
 * applies it with applyUnitaryNaive, and decodes the final state index
 * by index through the final layout (map lookups, a bit vector and
 * indexOf per physical amplitude). The physical dims come from one
 * layout replay, as in the checker.
 */
EquivalenceReport
referenceCheck(const Circuit &logical, const CompiledCircuit &compiled,
               int trials = 2, std::uint64_t seed = 42, double tol = 1e-9)
{
    EquivalenceReport report;
    const int n = logical.numQubits();
    const Layout &init = compiled.initialLayout();

    std::vector<bool> active(init.numUnits(), false);
    for (UnitId u = 0; u < init.numUnits(); ++u)
        active[u] = init.unitOccupancy(u) > 0;
    for (const auto &g : compiled.gates())
        for (UnitId u : g.units())
            active[u] = true;
    std::map<UnitId, int> dims;
    for (UnitId u = 0; u < init.numUnits(); ++u) {
        if (active[u])
            dims[u] = init.unitEncoded(u) ? 4 : 2;
    }
    Layout replay = init;
    for (const auto &g : compiled.gates()) {
        for (UnitId u : g.units()) {
            if (replay.unitEncoded(u) || g.cls == PhysGateClass::SwapFull)
                dims[u] = 4;
        }
        if (g.cls == PhysGateClass::Encode)
            dims[slotUnit(g.slots[0])] = 4;
        advanceLayout(replay, g);
    }
    std::map<UnitId, int> sim_index;
    std::size_t total = 1;
    for (const auto &[u, d] : dims) {
        const int i = static_cast<int>(sim_index.size());
        sim_index[u] = i;
        total *= static_cast<std::size_t>(d);
    }
    if (total > (1ULL << 24)) {
        report.message = "physical state too large to simulate";
        return report;
    }

    Rng rng(seed);
    for (int trial = 0; trial <= trials; ++trial) {
        std::vector<std::vector<Cplx>> qubit_state(n);
        for (int q = 0; q < n; ++q) {
            if (trial == 0) {
                qubit_state[q] = {1.0, 0.0};
            } else {
                const double theta = rng.nextDouble(0.0, M_PI);
                const double phi = rng.nextDouble(0.0, 2.0 * M_PI);
                qubit_state[q] = {
                    std::cos(theta / 2),
                    std::exp(Cplx(0, 1) * phi) * std::sin(theta / 2)};
            }
        }
        MixedRadixState ref = MixedRadixState::product(qubit_state);
        for (const auto &g : logical.gates())
            ref.applyUnitaryNaive(g.qubits, logicalGateUnitary(g));

        std::vector<std::vector<Cplx>> unit_state;
        for (const auto &[u, d] : dims) {
            std::vector<Cplx> s(static_cast<std::size_t>(d), 0.0);
            const QubitId q0 = init.qubitAt(makeSlot(u, 0));
            const QubitId q1 = init.qubitAt(makeSlot(u, 1));
            if (q0 != kInvalid && q1 != kInvalid) {
                for (int a = 0; a < 2; ++a)
                    for (int b = 0; b < 2; ++b)
                        s[static_cast<std::size_t>(2 * a + b)] =
                            qubit_state[q0][a] * qubit_state[q1][b];
            } else if (q0 != kInvalid) {
                s[0] = qubit_state[q0][0];
                s[1] = qubit_state[q0][1];
            } else if (q1 != kInvalid) {
                report.message = "initial layout uses position 1 of a "
                                 "non-encoded unit";
                return report;
            } else {
                s[0] = 1.0;
            }
            unit_state.push_back(std::move(s));
        }
        MixedRadixState phys = MixedRadixState::product(unit_state);
        Layout layout = init;
        for (const auto &g : compiled.gates()) {
            std::vector<int> targets, tdims;
            std::vector<bool> tenc;
            for (UnitId u : g.units()) {
                targets.push_back(sim_index.at(u));
                tdims.push_back(dims.at(u));
                tenc.push_back(layout.unitEncoded(u));
            }
            phys.applyUnitaryNaive(targets,
                                   physGateUnitary(g, tdims, tenc));
            advanceLayout(layout, g);
        }

        const Layout &fin = compiled.finalLayout();
        for (std::size_t idx = 0; idx < phys.size(); ++idx) {
            std::vector<int> bits(n, 0);
            bool in_subspace = true;
            for (const auto &[u, i] : sim_index) {
                const int d = phys.digit(idx, i);
                const QubitId q0 = fin.qubitAt(makeSlot(u, 0));
                const QubitId q1 = fin.qubitAt(makeSlot(u, 1));
                if (q0 != kInvalid && q1 != kInvalid) {
                    bits[q0] = d >> 1;
                    bits[q1] = d & 1;
                } else if (q0 != kInvalid && d < 2) {
                    bits[q0] = d;
                } else if (d != 0) {
                    in_subspace = false;
                    break;
                }
            }
            const Cplx expect =
                in_subspace ? ref.amp(ref.indexOf(bits)) : Cplx(0.0);
            const double err = std::abs(phys.amp(idx) - expect);
            report.maxError = std::max(report.maxError, err);
            if (err > tol) {
                report.message = format(
                    "trial %d: amplitude mismatch %.3e at physical "
                    "index %zu", trial, err, idx);
                return report;
            }
        }
    }
    report.ok = true;
    return report;
}

/** ok, the bits of maxError and the message must all agree. */
void
expectSameReport(const EquivalenceReport &got,
                 const EquivalenceReport &want, const std::string &what)
{
    EXPECT_EQ(got.ok, want.ok) << what;
    EXPECT_EQ(std::memcmp(&got.maxError, &want.maxError, sizeof(double)),
              0)
        << what << ": maxError " << got.maxError << " vs "
        << want.maxError;
    EXPECT_EQ(got.message, want.message) << what;
}

struct Artifact
{
    Circuit circuit;
    CompileResult result;
    std::string what;
};

/**
 * The seeded corpus: the paper's six strategies plus ec, each on
 * heavyhex23, falcon27 and a fitted grid and ring, three programs per
 * pair, drawn from bv, cuccaro, cnu and QAOA at 4-8 qubits (at most 5
 * under fq and ec, whose checks and compiles grow fastest).
 */
const std::vector<Artifact> &
corpus()
{
    static const std::vector<Artifact> artifacts = [] {
        std::vector<Artifact> out;
        const DeviceRegistry reg;
        Rng rng(2027);
        for (const char *s :
             {"qubit_only", "fq", "eqm", "rb", "awe", "pp", "ec"}) {
            const std::string strategy = s;
            const int hi = strategy == "fq" || strategy == "ec" ? 5 : 8;
            for (int k = 0; k < 12; ++k) {
                const char *device =
                    std::array<const char *, 4>{"heavyhex23", "falcon27",
                                                "grid", "ring"}[k % 4];
                const int n = rng.nextInt(4, hi);
                Circuit c = [&] {
                    switch (rng.nextUint(4)) {
                      case 0:
                        return benchmarkFamily("bv").make(n);
                      case 1:
                        if (n >= 6)
                            return benchmarkFamily("cuccaro").make(n);
                        [[fallthrough]];
                      case 2: // cnu sizes are odd: 5 or 7 qubits here
                        return benchmarkFamily("cnu").make(std::max(n, 5));
                      default: {
                        QaoaOptions opts;
                        opts.gamma = rng.nextDouble(0.1, 1.5);
                        opts.order_seed = rng();
                        return qaoaFromGraph(
                            randomGraph(n, rng.nextDouble(0.25, 0.4),
                                        rng()),
                            opts, "qaoa");
                      }
                    }
                }();
                const int q = c.numQubits();
                const std::string d = device;
                const Topology topo =
                    d == "grid"   ? Topology::grid(q)
                    : d == "ring" ? Topology::ring(std::max(3, q))
                                  : reg.get(d).topology;
                CompileResult res =
                    makeStrategy(strategy)->compile(c, topo, kLib);
                const std::string what = format(
                    "%s on %s (%s, %d qubits)", s, device,
                    c.name().c_str(), q);
                out.push_back({std::move(c), std::move(res), what});
            }
        }
        return out;
    }();
    return artifacts;
}

TEST(EquivalenceDifferential, PreparedMatchesNaiveReplayOnCorpus)
{
    ASSERT_EQ(corpus().size(), 84u);
    for (const Artifact &a : corpus()) {
        const EquivalenceReport got =
            checkEquivalence(a.circuit, a.result.compiled);
        EXPECT_TRUE(got.ok) << a.what << ": " << got.message;
        expectSameReport(got, referenceCheck(a.circuit, a.result.compiled),
                         a.what);
        // Other trial counts and seeds draw other inputs.
        expectSameReport(
            checkEquivalence(a.circuit, a.result.compiled, 4, 7),
            referenceCheck(a.circuit, a.result.compiled, 4, 7), a.what);
    }
}

TEST(EquivalenceDifferential, PreparedMatchesNaiveReplayOnMutants)
{
    // Up to two mutations per artifact, each of which must fail: the
    // first non-routing two-unit gate dropped, and every program
    // rotation's angle moved by 0.5 rad.
    int mutants = 0;
    for (const Artifact &a : corpus()) {
        const auto &gates = a.result.compiled.gates();
        const auto cx = std::find_if(gates.begin(), gates.end(),
                                     [](const PhysGate &g) {
                                         return !g.isRouting &&
                                                g.twoUnit() &&
                                                g.cls != PhysGateClass::Encode &&
                                                g.cls != PhysGateClass::Decode;
                                     });
        if (cx != gates.end()) {
            CompiledCircuit dropped = a.result.compiled;
            dropped.mutableGates().erase(dropped.mutableGates().begin() +
                                         (cx - gates.begin()));
            const EquivalenceReport got =
                checkEquivalence(a.circuit, dropped);
            EXPECT_FALSE(got.ok) << a.what << ": dropped gate";
            expectSameReport(got, referenceCheck(a.circuit, dropped),
                             a.what + ", dropped gate");
            ++mutants;
        }
        CompiledCircuit angled = a.result.compiled;
        bool moved = false;
        for (PhysGate &g : angled.mutableGates()) {
            if (gateHasParam(g.logical) && g.sourceGate >= 0) {
                g.param += 0.5;
                moved = true;
            }
        }
        if (moved) {
            const EquivalenceReport got = checkEquivalence(a.circuit, angled);
            EXPECT_FALSE(got.ok) << a.what << ": moved angles";
            expectSameReport(got, referenceCheck(a.circuit, angled),
                             a.what + ", moved angles");
            ++mutants;
        }
    }
    EXPECT_GE(mutants, 90);
}

} // namespace
} // namespace qompress
