/**
 * @file
 * Circuit-to-circuit lowering passes run before mapping.
 */

#ifndef QOMPRESS_IR_PASSES_HH
#define QOMPRESS_IR_PASSES_HH

#include "ir/circuit.hh"

namespace qompress {

/**
 * Lower every gate to the compiler's native set: 1-qubit gates plus
 * CX and SWAP.
 *
 * CCX uses the standard 6-CX Clifford+T decomposition; CZ becomes
 * H-CX-H on the target. Other gates pass through unchanged.
 */
Circuit decomposeToNativeGates(const Circuit &in);

/** True iff the circuit contains only 1-qubit gates, CX, and SWAP. */
bool isNative(const Circuit &in);

/**
 * Drop trivially cancelling adjacent self-inverse pairs (X-X, H-H,
 * CX-CX on identical operands with no interposed gate on either qubit).
 * A light cleanup pass used by tests and examples.
 */
Circuit cancelAdjacentPairs(const Circuit &in);

/**
 * Merge adjacent same-axis rotations (RZ a; RZ b -> RZ a+b, same for
 * RX/RY) and drop rotations that reduce to identity modulo 2 pi.
 */
Circuit mergeRotations(const Circuit &in);

/**
 * Rebind the circuit's rotation angles positionally: the k-th
 * parameterized gate (program order) gets values[k % values.size()],
 * cycling when the circuit exposes more slots than values. Structure,
 * operands, and name are untouched, so the result shares the input's
 * structural fingerprint -- this is how parameterized sweeps
 * materialize instances that hit the service's template tier. Panics
 * on an empty values vector.
 */
Circuit bindParams(const Circuit &in, const std::vector<double> &values);

/**
 * Fixpoint cleanup: cancelAdjacentPairs + mergeRotations until the
 * gate count stops shrinking.
 */
Circuit optimizeCircuit(const Circuit &in);

} // namespace qompress

#endif // QOMPRESS_IR_PASSES_HH
