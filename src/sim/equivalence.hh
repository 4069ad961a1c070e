/**
 * @file
 * Functional verification: replay a compiled mixed-radix circuit on
 * the statevector simulator and compare against the logical circuit.
 */

#ifndef QOMPRESS_SIM_EQUIVALENCE_HH
#define QOMPRESS_SIM_EQUIVALENCE_HH

#include <cstdint>
#include <string>

#include "compiler/compiled_circuit.hh"
#include "ir/circuit.hh"

namespace qompress {

/** Outcome of an equivalence check. */
struct EquivalenceReport
{
    bool ok = false;
    /** Largest amplitude deviation observed across all trials. */
    double maxError = 0.0;
    /** Human-readable failure description (empty on success). */
    std::string message;
};

/**
 * Check that @p compiled implements @p logical.
 *
 * Runs @p trials random product-state inputs (plus the all-zeros basis
 * state) through both the logical circuit (qubit statevector) and the
 * compiled circuit (mixed-radix statevector with the paper's ququart
 * encoding), decoding the final state through the compiled circuit's
 * final layout. Amplitudes must agree within @p tol (a NaN never
 * does). Both gate lists are prepared once per check
 * (MixedRadixState::prepare) and replayed in every trial.
 *
 * A compiled circuit whose layouts hold a different number of qubits
 * than @p logical fails with a message naming both widths.
 *
 * Simulation cost is exponential in the number of active units; keep
 * logical circuits at or below ~10 qubits.
 *
 * @throws FatalError when @p trials is negative.
 */
EquivalenceReport checkEquivalence(const Circuit &logical,
                                   const CompiledCircuit &compiled,
                                   int trials = 2,
                                   std::uint64_t seed = 42,
                                   double tol = 1e-9);

} // namespace qompress

#endif // QOMPRESS_SIM_EQUIVALENCE_HH
