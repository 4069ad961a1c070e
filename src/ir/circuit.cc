#include "ir/circuit.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/strings.hh"

namespace qompress {

Circuit::Circuit(int num_qubits, std::string name)
    : numQubits_(num_qubits), name_(std::move(name))
{
    QFATAL_IF(num_qubits < 0, "circuit qubit count must be >= 0");
}

void
Circuit::add(Gate g)
{
    QPANIC_IF(g.arity() != gateArity(g.type),
              "gate ", gateName(g.type), " expects ",
              gateArity(g.type), " operands, got ", g.arity());
    for (std::size_t i = 0; i < g.qubits.size(); ++i) {
        const QubitId q = g.qubits[i];
        QPANIC_IF(q < 0 || q >= numQubits_,
                  "gate ", gateName(g.type), ": qubit ", q,
                  " outside circuit of ", numQubits_, " qubits");
        for (std::size_t j = i + 1; j < g.qubits.size(); ++j) {
            QPANIC_IF(q == g.qubits[j],
                      "gate ", gateName(g.type),
                      ": duplicate operand q", q);
        }
    }
    gates_.push_back(std::move(g));
}

int
Circuit::countGatesWithArity(int arity) const
{
    return static_cast<int>(std::count_if(
        gates_.begin(), gates_.end(),
        [arity](const Gate &g) { return g.arity() == arity; }));
}

std::vector<int>
Circuit::asapLayers() const
{
    std::vector<int> layers(gates_.size(), 1);
    std::vector<int> qubit_level(numQubits_, 0);
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        int lvl = 0;
        for (QubitId q : gates_[i].qubits)
            lvl = std::max(lvl, qubit_level[q]);
        layers[i] = lvl + 1;
        for (QubitId q : gates_[i].qubits)
            qubit_level[q] = lvl + 1;
    }
    return layers;
}

int
Circuit::depth() const
{
    const auto layers = asapLayers();
    return layers.empty()
        ? 0
        : *std::max_element(layers.begin(), layers.end());
}

std::string
Circuit::toQasm() const
{
    std::string out = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    out += format("qreg q[%d];\n", numQubits_);
    for (const auto &g : gates_) {
        out += gateName(g.type);
        if (gateHasParam(g.type))
            out += format("(%.12g)", g.param);
        out += ' ';
        for (std::size_t i = 0; i < g.qubits.size(); ++i) {
            if (i)
                out += ", ";
            out += format("q[%d]", g.qubits[i]);
        }
        out += ";\n";
    }
    return out;
}

} // namespace qompress
