/**
 * @file
 * Logical circuit container plus dependency analysis (ASAP layering),
 * the paper's timestep function s(o), and a QASM-style dump.
 */

#ifndef QOMPRESS_IR_CIRCUIT_HH
#define QOMPRESS_IR_CIRCUIT_HH

#include <string>
#include <vector>

#include "ir/gate.hh"

namespace qompress {

/**
 * An ordered list of logical gates over n qubits.
 *
 * Order is program order; dependency structure (two gates conflict iff
 * they share an operand) is derived on demand.
 */
class Circuit
{
  public:
    /** An empty circuit over @p num_qubits qubits. */
    explicit Circuit(int num_qubits = 0, std::string name = "circuit");

    int numQubits() const { return numQubits_; }
    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    const std::vector<Gate> &gates() const { return gates_; }
    int numGates() const { return static_cast<int>(gates_.size()); }

    /** Append a validated gate. */
    void add(Gate g);

    /** @name Gate builders
     *  Convenience factories mirroring common circuit APIs. @{ */
    void x(QubitId q)  { add({GateType::X, {q}}); }
    void y(QubitId q)  { add({GateType::Y, {q}}); }
    void z(QubitId q)  { add({GateType::Z, {q}}); }
    void h(QubitId q)  { add({GateType::H, {q}}); }
    void s(QubitId q)  { add({GateType::S, {q}}); }
    void sdg(QubitId q) { add({GateType::Sdg, {q}}); }
    void t(QubitId q)  { add({GateType::T, {q}}); }
    void tdg(QubitId q) { add({GateType::Tdg, {q}}); }
    void rx(double a, QubitId q) { add({GateType::RX, {q}, a}); }
    void ry(double a, QubitId q) { add({GateType::RY, {q}, a}); }
    void rz(double a, QubitId q) { add({GateType::RZ, {q}, a}); }
    void cx(QubitId c, QubitId t) { add({GateType::CX, {c, t}}); }
    void cz(QubitId a, QubitId b) { add({GateType::CZ, {a, b}}); }
    void swap(QubitId a, QubitId b) { add({GateType::Swap, {a, b}}); }
    void ccx(QubitId a, QubitId b, QubitId t)
    {
        add({GateType::CCX, {a, b, t}});
    }
    /** @} */

    /** Count gates with a given operand count. */
    int countGatesWithArity(int arity) const;

    /** Number of two-qubit gates. */
    int numTwoQubitGates() const { return countGatesWithArity(2); }

    /**
     * ASAP layer per gate, 1-based.
     *
     * This is the paper's timestep function s(o): the earliest dependency
     * level of each gate when every gate takes one step. Used by the
     * interaction weight w(i,j) = sum over gates 1/s(o).
     */
    std::vector<int> asapLayers() const;

    /** Number of ASAP layers (logical depth). */
    int depth() const;

    /** OpenQASM 2.0-flavoured text dump. */
    std::string toQasm() const;

  private:
    int numQubits_;
    std::string name_;
    std::vector<Gate> gates_;
};

} // namespace qompress

#endif // QOMPRESS_IR_CIRCUIT_HH
