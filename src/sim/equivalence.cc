#include "sim/equivalence.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "compiler/router.hh"
#include "sim/gate_unitaries.hh"

namespace qompress {

namespace {

/** The units the simulation models, in unit order: those initially
 *  occupied or touched by a gate. */
struct SimUnits
{
    /** Unit of each simulator index. */
    std::vector<UnitId> units;
    /** Simulator index of each unit; -1 where it is not modelled. */
    std::vector<int> index;
    /** Simulated dimension of each simulator index: 4 wherever
     *  ququart states can appear (determined by a layout replay). */
    std::vector<int> dims;
};

SimUnits
simUnits(const CompiledCircuit &compiled)
{
    const Layout &init = compiled.initialLayout();
    // 0 = not modelled, else the simulated dimension.
    std::vector<int> dim(init.numUnits(), 0);
    for (UnitId u = 0; u < init.numUnits(); ++u) {
        if (init.unitOccupancy(u) > 0)
            dim[u] = init.unitEncoded(u) ? 4 : 2;
    }
    Layout layout = init;
    for (const auto &g : compiled.gates()) {
        for (UnitId u : g.units()) {
            if (layout.unitEncoded(u) || g.cls == PhysGateClass::SwapFull) {
                // Whole-ququart exchanges carry 4-level states both ways.
                dim[u] = 4;
            } else {
                dim[u] = std::max(dim[u], 2);
            }
        }
        if (g.cls == PhysGateClass::Encode)
            dim[slotUnit(g.slots[0])] = 4;
        advanceLayout(layout, g);
    }
    SimUnits sim;
    sim.index.assign(dim.size(), -1);
    for (UnitId u = 0; u < init.numUnits(); ++u) {
        if (dim[u] != 0) {
            sim.index[u] = static_cast<int>(sim.units.size());
            sim.units.push_back(u);
            sim.dims.push_back(dim[u]);
        }
    }
    return sim;
}

/** How the final physical state decodes: on simulator index i, the
 *  digits below valid[i] lie in the logical subspace, and digit d adds
 *  term[4 * i + d] to the logical basis index. */
struct Decoder
{
    std::vector<int> valid;
    std::vector<std::size_t> term;
};

Decoder
decoder(const SimUnits &sim, const Layout &fin, int n)
{
    const auto stride = [n](QubitId q) {
        return std::size_t{1} << (n - 1 - q);
    };
    Decoder dec;
    dec.term.assign(4 * sim.units.size(), 0);
    for (std::size_t i = 0; i < sim.units.size(); ++i) {
        const UnitId u = sim.units[i];
        const QubitId q0 = fin.qubitAt(makeSlot(u, 0));
        const QubitId q1 = fin.qubitAt(makeSlot(u, 1));
        std::size_t *term = &dec.term[4 * i];
        if (q0 != kInvalid && q1 != kInvalid) {
            dec.valid.push_back(4);
            for (std::size_t d = 0; d < 4; ++d)
                term[d] = (d >> 1) * stride(q0) + (d & 1) * stride(q1);
        } else if (q0 != kInvalid) {
            dec.valid.push_back(2);
            term[1] = stride(q0);
        } else {
            // Empty, or position 1 alone: only |0> is logical.
            dec.valid.push_back(1);
        }
    }
    return dec;
}

/**
 * Compare every amplitude of @p phys, in index order, with the one
 * @p ref holds for its decoded logical index (zero outside the logical
 * subspace). Walks the physical digits with an odometer, so each step
 * updates the logical index by table lookups. Returns false, with the
 * report's message set, at the first amplitude off by more than @p tol
 * or not a number.
 */
bool
decodedMatches(const MixedRadixState &phys, const MixedRadixState &ref,
               const Decoder &dec, int trial, double tol,
               EquivalenceReport &report)
{
    const int m = phys.numUnits();
    std::vector<int> digit(static_cast<std::size_t>(m), 0);
    std::size_t logical = 0; // sum of the in-subspace digits' terms
    int outside = 0;         // units whose digit is outside the subspace
    for (std::size_t idx = 0; idx < phys.size(); ++idx) {
        const Cplx actual = phys.amp(idx);
        const Cplx expect = outside == 0 ? ref.amp(logical) : Cplx(0.0);
        // Multiple physical indices can decode to one logical index
        // only when empty/bare units hold non-logical levels, which
        // `outside` already excludes.
        const double err = std::abs(actual - expect);
        report.maxError = std::max(report.maxError, err);
        if (!(err <= tol)) { // a NaN, which std::max skips, fails too
            report.message = format(
                "trial %d: amplitude mismatch %.3e at physical "
                "index %zu", trial, err, idx);
            return false;
        }
        for (int i = m - 1; i >= 0; --i) {
            const std::size_t *term = &dec.term[4 * i];
            const int valid = dec.valid[i];
            int &d = digit[i];
            if (d < valid)
                logical -= term[d];
            else
                --outside;
            if (++d == phys.dim(i))
                d = 0;
            if (d < valid)
                logical += term[d];
            else
                ++outside;
            if (d != 0)
                break;
        }
    }
    return true;
}

} // namespace

EquivalenceReport
checkEquivalence(const Circuit &logical, const CompiledCircuit &compiled,
                 int trials, std::uint64_t seed, double tol)
{
    QFATAL_IF(trials < 0, "checkEquivalence: trials must be >= 0, got ",
              trials);
    EquivalenceReport report;
    const int n = logical.numQubits();
    const Layout &init = compiled.initialLayout();
    const Layout &fin = compiled.finalLayout();
    for (const Layout *l : {&init, &fin}) {
        if (l->numQubits() != n) {
            report.message = format(
                "width mismatch: the logical circuit has %d qubits, the "
                "compiled circuit's %s layout %d", n,
                l == &init ? "initial" : "final", l->numQubits());
            return report;
        }
    }
    const SimUnits sim = simUnits(compiled);
    const std::size_t m = sim.units.size();

    // Guard against oversized simulations.
    std::size_t total = 1;
    for (int d : sim.dims) {
        total *= static_cast<std::size_t>(d);
        if (total > (1ULL << 24)) {
            report.message = "physical state too large to simulate";
            return report;
        }
    }

    // Both circuits' gates are prepared once, against the shapes of
    // trial 0's states, and replayed in every trial.
    std::vector<std::vector<Cplx>> qubit_state(n, {1.0, 0.0});
    MixedRadixState ref = MixedRadixState::product(qubit_state);
    std::vector<PreparedGate> logical_gates;
    logical_gates.reserve(logical.gates().size());
    for (const auto &g : logical.gates())
        logical_gates.push_back(ref.prepare(g.qubits, logicalGateUnitary(g)));

    // The qubits each modelled unit starts with.
    std::vector<std::array<QubitId, 2>> start(m);
    for (std::size_t i = 0; i < m; ++i) {
        const UnitId u = sim.units[i];
        start[i] = {init.qubitAt(makeSlot(u, 0)),
                    init.qubitAt(makeSlot(u, 1))};
        if (start[i][0] == kInvalid && start[i][1] != kInvalid) {
            report.message = "initial layout uses position 1 of a "
                             "non-encoded unit";
            return report;
        }
    }
    // The physical product state encoding the current qubit states.
    std::vector<std::vector<Cplx>> unit_state(m);
    const auto physicalInput = [&] {
        for (std::size_t i = 0; i < m; ++i) {
            std::vector<Cplx> &s = unit_state[i];
            s.assign(static_cast<std::size_t>(sim.dims[i]), 0.0);
            const auto [q0, q1] = start[i];
            if (q0 != kInvalid && q1 != kInvalid) {
                for (int a = 0; a < 2; ++a)
                    for (int b = 0; b < 2; ++b)
                        s[static_cast<std::size_t>(2 * a + b)] =
                            qubit_state[q0][a] * qubit_state[q1][b];
            } else if (q0 != kInvalid) {
                s[0] = qubit_state[q0][0];
                s[1] = qubit_state[q0][1];
            } else {
                s[0] = 1.0;
            }
        }
        return MixedRadixState::product(unit_state);
    };
    MixedRadixState phys = physicalInput();

    // Encoded flags come from a layout replay, as the gates execute.
    std::vector<PreparedGate> phys_gates;
    phys_gates.reserve(compiled.gates().size());
    Layout layout = init;
    std::vector<int> targets, tdims;
    std::vector<bool> tenc;
    for (const auto &g : compiled.gates()) {
        targets.clear();
        tdims.clear();
        tenc.clear();
        for (UnitId u : g.units()) {
            const int i = sim.index[u];
            targets.push_back(i);
            tdims.push_back(sim.dims[i]);
            tenc.push_back(layout.unitEncoded(u));
        }
        phys_gates.push_back(
            phys.prepare(targets, physGateUnitary(g, tdims, tenc)));
        advanceLayout(layout, g);
    }
    const Decoder dec = decoder(sim, fin, n);

    Rng rng(seed);
    for (int trial = 0; trial <= trials; ++trial) {
        // Trial 0: |0...0>; afterwards random product states.
        if (trial > 0) {
            for (int q = 0; q < n; ++q) {
                const double theta = rng.nextDouble(0.0, M_PI);
                const double phi = rng.nextDouble(0.0, 2.0 * M_PI);
                qubit_state[q] = {
                    std::cos(theta / 2),
                    std::exp(Cplx(0, 1) * phi) * std::sin(theta / 2)};
            }
            ref = MixedRadixState::product(qubit_state);
            phys = physicalInput();
        }
        for (const PreparedGate &g : logical_gates)
            ref.apply(g);
        for (const PreparedGate &g : phys_gates)
            phys.apply(g);
        if (!decodedMatches(phys, ref, dec, trial, tol, report))
            return report;
    }
    report.ok = true;
    return report;
}

} // namespace qompress
