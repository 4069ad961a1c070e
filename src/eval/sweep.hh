/**
 * @file
 * Reusable evaluation harness: compile (family x size x strategy)
 * grids and return structured records. Shared by the figure benches
 * and by test_paper_claims.cc, which turns the paper's qualitative
 * claims into executable assertions.
 */

#ifndef QOMPRESS_EVAL_SWEEP_HH
#define QOMPRESS_EVAL_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "arch/topology.hh"
#include "compiler/pipeline.hh"
#include "service/compiler_service.hh"

namespace qompress {

/** One compiled data point of a sweep. */
struct SweepRecord
{
    std::string family;
    std::string strategy;
    int requestedSize = 0;
    int qubits = 0;
    Metrics metrics;
    int numCompressions = 0;
    /** Index into SweepSpec::paramGrid; -1 when no grid was given. */
    int paramRow = -1;
};

/** Sweep configuration. */
struct SweepSpec
{
    std::vector<std::string> families;   ///< registry names
    std::vector<int> sizes;              ///< requested qubit budgets
    std::vector<std::string> strategies; ///< strategy registry names
    GateLibrary library;                 ///< calibration to use
    CompilerConfig config;               ///< pipeline knobs
    /** Device factory per circuit (defaults to a fitted grid). */
    std::function<Topology(const Circuit &)> device;
    /**
     * Lanes for the cell fan-out (one compile per family x size x
     * strategy cell): < 0 (the default) inherits config.threads;
     * otherwise the CompilerConfig::threads convention (0 = process
     * default, 1 = serial, N = exactly N lanes). Records are
     * bit-identical at every lane count.
     */
    int threads = -1;

    /**
     * Optional parameter grid: when non-empty, every (family, size)
     * instance is expanded into one variant per row, rebinding the
     * circuit's rotation angles positionally (bindParams semantics:
     * slot k takes row[k % row.size()]). All variants of an instance
     * share one structural fingerprint, so rows after the first are
     * served by the service's template tier (an O(gates) rebind) --
     * this is the angle-sweep fast path. Rows with differing values
     * produce distinct records tagged with SweepRecord::paramRow.
     */
    std::vector<std::vector<double>> paramGrid;

    /** When set, receives a snapshot of the sweep-local service's
     *  counters after the last cell (template/exact hit rates -- how
     *  much of the grid was served without a full compile). */
    ServiceStats *serviceStats = nullptr;
};

/**
 * Run the sweep; instances whose snapped qubit count repeats within a
 * family are deduplicated, and strategies that cannot fit a circuit
 * are skipped (recorded with qubits = 0).
 *
 * The cell grid fans out with parallelFor over spec.threads lanes,
 * every lane calling compileSync on one sweep-local CompilerService
 * and filling only its own record slot; the service's context pool
 * reuses warmed distance fields across cells with the same
 * device/library/config pricing. Output ordering and contents are
 * identical at every lane count. Compiles running inside the sweep
 * are on pool lanes, so a strategy's own fan-out (ec, portfolio)
 * degrades to inline execution rather than oversubscribing the pool.
 * Callers wanting cross-sweep artifact memoization should drive a
 * longer-lived service directly.
 */
std::vector<SweepRecord> runSweep(const SweepSpec &spec);

/** Records for one (family, strategy), ordered by size. */
std::vector<SweepRecord>
filterSweep(const std::vector<SweepRecord> &records,
            const std::string &family, const std::string &strategy);

/**
 * Per-size metric ratio of @p strategy over @p baseline for one
 * family (only sizes where both compiled).
 */
std::vector<double>
sweepRatios(const std::vector<SweepRecord> &records,
            const std::string &family, const std::string &strategy,
            const std::string &baseline,
            const std::function<double(const Metrics &)> &metric);

} // namespace qompress

#endif // QOMPRESS_EVAL_SWEEP_HH
