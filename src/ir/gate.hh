/**
 * @file
 * Logical gate vocabulary for input (qubit-level) circuits.
 *
 * The compiler front end accepts the gate set the paper's benchmarks use:
 * common 1-qubit gates, CX/CZ/SWAP, and the Toffoli (CCX) which is
 * lowered by decomposeToNativeGates() before mapping.
 */

#ifndef QOMPRESS_IR_GATE_HH
#define QOMPRESS_IR_GATE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace qompress {

/** Logical gate kinds. */
enum class GateType
{
    X, Y, Z, H, S, Sdg, T, Tdg,   // fixed 1-qubit
    RX, RY, RZ,                   // parameterized 1-qubit
    CX, CZ, Swap,                 // 2-qubit
    CCX,                          // 3-qubit (decomposed before compile)
};

/** Number of operands for a gate type. */
int gateArity(GateType t);

/** True for the parameterized rotations RX/RY/RZ. */
bool gateHasParam(GateType t);

/** Lower-case mnemonic ("cx", "rz", ...). */
const std::string &gateName(GateType t);

/** A logical gate application: type, operand qubits, optional angle. */
struct Gate
{
    GateType type;
    std::vector<QubitId> qubits;
    double param = 0.0;

    /** Operand count convenience. */
    int arity() const { return static_cast<int>(qubits.size()); }

    /** "cx q3, q7" style rendering. */
    std::string str() const;
};

} // namespace qompress

#endif // QOMPRESS_IR_GATE_HH
