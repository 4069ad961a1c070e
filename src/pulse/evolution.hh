/**
 * @file
 * State-evolution utilities on top of the GRAPE propagators: sampled
 * population traces (paper Figure 3).
 */

#ifndef QOMPRESS_PULSE_EVOLUTION_HH
#define QOMPRESS_PULSE_EVOLUTION_HH

#include <vector>

#include "pulse/grape.hh"

namespace qompress {

/** Populations of selected basis states at one sample time. */
struct EvolutionSample
{
    double timeNs;
    /** |amplitude|^2 per watched full-space index, in watch order. */
    std::vector<double> populations;
    /** Total probability outside the watched set. */
    double other;
};

/**
 * Propagate a basis state through a piecewise-constant pulse and
 * record watched-state populations roughly every @p samples segments.
 *
 * @param start_logical index in the system's logical subspace;
 * @param watch_logical logical-subspace indices whose populations are
 *        reported.
 */
std::vector<EvolutionSample>
traceEvolution(const TransmonSystem &system, const GrapeOptimizer &grape,
               const std::vector<std::vector<double>> &controls,
               int start_logical, const std::vector<int> &watch_logical,
               int samples = 14);

} // namespace qompress

#endif // QOMPRESS_PULSE_EVOLUTION_HH
