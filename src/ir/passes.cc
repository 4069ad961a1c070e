#include "ir/passes.hh"

#include <cmath>
#include <optional>

#include "common/error.hh"

namespace qompress {

namespace {

void
emitCcx(Circuit &out, QubitId a, QubitId b, QubitId t)
{
    // Standard Clifford+T construction (Nielsen & Chuang fig. 4.9).
    out.h(t);
    out.cx(b, t);
    out.tdg(t);
    out.cx(a, t);
    out.t(t);
    out.cx(b, t);
    out.tdg(t);
    out.cx(a, t);
    out.t(b);
    out.t(t);
    out.h(t);
    out.cx(a, b);
    out.t(a);
    out.tdg(b);
    out.cx(a, b);
}

} // namespace

Circuit
decomposeToNativeGates(const Circuit &in)
{
    Circuit out(in.numQubits(), in.name());
    for (const auto &g : in.gates()) {
        switch (g.type) {
          case GateType::CCX:
            emitCcx(out, g.qubits[0], g.qubits[1], g.qubits[2]);
            break;
          case GateType::CZ:
            out.h(g.qubits[1]);
            out.cx(g.qubits[0], g.qubits[1]);
            out.h(g.qubits[1]);
            break;
          default:
            out.add(g);
            break;
        }
    }
    return out;
}

bool
isNative(const Circuit &in)
{
    for (const auto &g : in.gates()) {
        if (g.arity() == 1)
            continue;
        if (g.type == GateType::CX || g.type == GateType::Swap)
            continue;
        return false;
    }
    return true;
}

Circuit
cancelAdjacentPairs(const Circuit &in)
{
    auto self_inverse = [](GateType t) {
        switch (t) {
          case GateType::X:
          case GateType::Y:
          case GateType::Z:
          case GateType::H:
          case GateType::CX:
          case GateType::CZ:
          case GateType::Swap:
            return true;
          default:
            return false;
        }
    };

    const auto &gates = in.gates();
    std::vector<bool> removed(gates.size(), false);
    // lastGate[q]: index of the most recent surviving gate touching q.
    std::vector<std::optional<std::size_t>> last(in.numQubits());
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        std::optional<std::size_t> prev;
        bool same_prev = true;
        for (QubitId q : g.qubits) {
            if (!last[q]) {
                same_prev = false;
                break;
            }
            if (!prev) {
                prev = last[q];
            } else if (*prev != *last[q]) {
                same_prev = false;
                break;
            }
        }
        if (same_prev && prev && self_inverse(g.type) &&
            gates[*prev].type == g.type &&
            gates[*prev].qubits == g.qubits) {
            removed[i] = true;
            removed[*prev] = true;
            // Re-expose whatever preceded the cancelled pair: simplest
            // sound choice is to clear tracking for the touched qubits.
            for (QubitId q : g.qubits)
                last[q].reset();
            continue;
        }
        for (QubitId q : g.qubits)
            last[q] = i;
    }

    Circuit out(in.numQubits(), in.name());
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (!removed[i])
            out.add(gates[i]);
    }
    return out;
}

Circuit
mergeRotations(const Circuit &in)
{
    auto is_rotation = [](GateType t) {
        return t == GateType::RX || t == GateType::RY ||
               t == GateType::RZ;
    };
    constexpr double kTwoPi = 2.0 * M_PI;
    constexpr double kEps = 1e-12;

    Circuit out(in.numQubits(), in.name());
    // Pending rotation per qubit, flushed when anything else touches
    // the qubit.
    std::vector<std::optional<Gate>> pending(in.numQubits());
    auto flush = [&](QubitId q) {
        if (!pending[q])
            return;
        double angle = std::fmod(pending[q]->param, kTwoPi);
        if (std::abs(angle) > kEps &&
            std::abs(std::abs(angle) - kTwoPi) > kEps) {
            Gate g = *pending[q];
            g.param = angle;
            out.add(std::move(g));
        }
        pending[q].reset();
    };

    for (const auto &g : in.gates()) {
        if (g.arity() == 1 && is_rotation(g.type)) {
            const QubitId q = g.qubits[0];
            if (pending[q] && pending[q]->type == g.type) {
                pending[q]->param += g.param;
            } else {
                flush(q);
                pending[q] = g;
            }
            continue;
        }
        for (QubitId q : g.qubits)
            flush(q);
        out.add(g);
    }
    for (QubitId q = 0; q < in.numQubits(); ++q)
        flush(q);
    return out;
}

Circuit
bindParams(const Circuit &in, const std::vector<double> &values)
{
    QPANIC_IF(values.empty(), "bindParams: empty value vector");
    Circuit out(in.numQubits(), in.name());
    std::size_t k = 0;
    for (const auto &g : in.gates()) {
        Gate ng = g;
        if (gateHasParam(g.type))
            ng.param = values[k++ % values.size()];
        out.add(ng);
    }
    return out;
}

Circuit
optimizeCircuit(const Circuit &in)
{
    Circuit cur = in;
    while (true) {
        Circuit next = mergeRotations(cancelAdjacentPairs(cur));
        if (next.numGates() >= cur.numGates())
            return cur;
        cur = std::move(next);
    }
}

} // namespace qompress
