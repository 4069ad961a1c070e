/**
 * @file
 * Piecewise-constant GRAPE pulse optimization with analytic gradients
 * and an Adam step, replacing the paper's Juqbox dependency
 * (section 2.3 / 3.3): minimize J = 1 - F + lambda * leakage subject
 * to the drive-amplitude bound.
 */

#ifndef QOMPRESS_PULSE_GRAPE_HH
#define QOMPRESS_PULSE_GRAPE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_pool.hh"
#include "pulse/hamiltonian.hh"

namespace qompress {

/** Optimizer knobs. */
struct GrapeOptions
{
    int maxIterations = 400;
    /** Stop as soon as fidelity reaches this value. */
    double targetFidelity = 0.99;
    /** Weight of the guard-population (leakage) penalty. */
    double leakageWeight = 0.1;
    /** Adam learning rate in rad/ns. */
    double learningRate = 0.004;
    /** Random-init amplitude as a fraction of the drive bound. */
    double initFraction = 0.05;
    std::uint64_t seed = 7;
    /**
     * Lanes for the per-segment fan-out inside objectiveAndGradient
     * (segment exponentials and per-segment gradient rows are
     * independent): 0 = process default (QOMPRESS_THREADS /
     * hardware_concurrency), 1 = force serial, N = exactly N lanes.
     * Results are bit-identical at every setting — each segment runs
     * the identical kernel on the identical inputs; lanes only decide
     * which thread executes it.
     */
    int threads = 0;
};

/** Outcome of one GRAPE run. */
struct GrapeResult
{
    bool converged = false;
    double fidelity = 0.0;
    double leakage = 0.0;
    int iterations = 0;
    /** controls[k][j]: amplitude of control k in segment j (rad/ns). */
    std::vector<std::vector<double>> controls;
};

/**
 * Caller-owned scratch for objectiveAndGradient: propagators,
 * cumulative products, backward partials, per-segment directional
 * derivatives, and per-lane exponential/product scratch. Reusing one
 * workspace across iterations makes a gradient step allocation-free
 * after the first call sizes every buffer — with a pool, the property
 * holds *per lane*: once a lane's scratch is warm, no invocation run
 * on that lane touches the heap (assertable via allocProbe below).
 */
struct GrapeWorkspace
{
    std::vector<CMatrix> props;   ///< per-segment propagators U_j
    std::vector<CMatrix> fwd;     ///< forward products A_j = U_j..U_0
    std::vector<CMatrix> wback;   ///< V^dag S_j backward partials
    std::vector<CMatrix> yback;   ///< mask^dag S_j backward partials
    std::vector<std::vector<CMatrix>> du; ///< dU_j/dc_k per segment
    std::vector<CMatrix> bgen;    ///< constant generators -i dt Hc_k
    CMatrix mask;                 ///< leakage mask (guard rows of U)

    /** Scratch owned by one parallelFor lane (a one-lane pool uses
     *  lanes[0] only): segment Hamiltonian/generator
     *  accumulators, the A_{j-1}-prefixed partial products, and the
     *  shared-series exponential workspace. */
    struct LaneScratch
    {
        CMatrix hseg;             ///< segment Hamiltonian accumulator
        CMatrix agen;             ///< segment generator -i dt H
        CMatrix pw;               ///< A_{j-1} W_j
        CMatrix py;               ///< A_{j-1} Y_j
        ExpmFamilyWorkspace famWs;
    };
    std::vector<LaneScratch> lanes;

    /** The pool forRequest builds when GrapeOptions::threads asks for
     *  one lane or a lane count other than the process default;
     *  persists across iterations so warm gradient steps never build
     *  a pool or spawn threads. */
    std::optional<ThreadPool> ownPool;

    /** Lanes (and system dimension) whose scratch has been eagerly
     *  warmed; see the lane warm-up in objectiveAndGradient. */
    std::size_t warmLaneCount = 0;
    int warmDim = -1;

    /**
     * Optional allocation probe for the per-lane zero-alloc
     * assertion: when set (e.g. to read bench_hotpaths' thread-local
     * operator-new counter), every parallel segment invocation adds
     * its probe delta to laneAllocs[lane]; a warm workspace must
     * leave every entry at zero. The probe must read state local to
     * the *calling thread* (a lane never migrates threads within one
     * parallelFor, and only one thread holds a lane at a time, so the
     * per-lane accumulation is race-free).
     */
    std::uint64_t (*allocProbe)() = nullptr;
    std::vector<std::uint64_t> laneAllocs;
};

/** Gradient-based pulse search for a fixed gate duration. */
class GrapeOptimizer
{
  public:
    /**
     * @param target logical-subspace unitary (dimension
     *        system.logicalDim()).
     * @param segments number of piecewise-constant segments.
     */
    GrapeOptimizer(const TransmonSystem &system, CMatrix target,
                   double duration_ns, int segments,
                   GrapeOptions opts = {});

    /** Optimize from a seeded random start. */
    GrapeResult run() const;

    /** Optimize from explicit initial controls (duration-search
     *  re-seeding, paper ref. [39]). */
    GrapeResult runFrom(std::vector<std::vector<double>> init) const;

    /** Fidelity/leakage of a given control set. */
    void evaluate(const std::vector<std::vector<double>> &controls,
                  double &fidelity, double &leakage) const;

    /** Per-segment propagators for a control set. */
    std::vector<CMatrix>
    propagators(const std::vector<std::vector<double>> &controls) const;

    /** Total unitary for a control set. */
    CMatrix
    totalUnitary(const std::vector<std::vector<double>> &controls) const;

    int segments() const { return segments_; }
    double dt() const { return dt_; }
    int numControls() const
    {
        return static_cast<int>(system_->controls().size());
    }

    /**
     * J = (1 - F) + lambda * leakage and dJ/dcontrols ([k][j]).
     *
     * The hot path of a GRAPE run: propagators and all directional
     * derivatives come from one shared-series Van Loan (Padé-13)
     * exponential per segment, and every temporary lives in @p ws --
     * zero heap allocations once the workspace is warm (per lane when
     * pooled; see GrapeWorkspace).
     *
     * The segment exponentials and the per-segment gradient rows fan
     * out across GrapeOptions::threads pool lanes with per-lane
     * scratch; the cumulative forward/backward products in between
     * stay serial (they are sequential by construction). Results are
     * bit-identical at every lane count. Calls already running in a
     * pool lane run on one lane.
     */
    double objectiveAndGradient(
        const std::vector<std::vector<double>> &controls,
        std::vector<std::vector<double>> &grad, double &fidelity,
        double &leakage, GrapeWorkspace &ws) const;

    /**
     * Reference gradient: fresh temporaries throughout and one
     * augmented 2n x 2n exponential per (segment, control), exactly
     * the pre-optimization implementation. Retained for differential
     * tests and the bench_hotpaths baseline.
     */
    double objectiveAndGradientNaive(
        const std::vector<std::vector<double>> &controls,
        std::vector<std::vector<double>> &grad, double &fidelity,
        double &leakage) const;

  private:
    const TransmonSystem *system_;
    CMatrix targetFull_;   // target embedded in the full space
    CMatrix targetDagger_; // precomputed V^dag
    double duration_;
    double dt_;
    int segments_;
    GrapeOptions opts_;
};

} // namespace qompress

#endif // QOMPRESS_PULSE_GRAPE_HH
