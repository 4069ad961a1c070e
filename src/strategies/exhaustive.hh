/**
 * @file
 * Exhaustive (greedy-iterative) compression search (paper section
 * 5.1): recompile with every candidate pair and keep the best, with
 * either critical-path-prioritized or unordered candidate selection
 * (the Figure 4 comparison).
 */

#ifndef QOMPRESS_STRATEGIES_EXHAUSTIVE_HH
#define QOMPRESS_STRATEGIES_EXHAUSTIVE_HH

#include "strategies/strategy.hh"

namespace qompress {

/** One accepted step of the exhaustive search (for Figure 4 traces). */
struct ExhaustiveStep
{
    Compression pair;
    double gateEps;
    double coherenceEps;
    double totalEps;
    int group; ///< priority group the pair came from (1-3; 0 unordered)
};

/** Which circuit-fidelity figure the greedy search maximizes. */
enum class ExhaustiveMetric
{
    GateEps,  ///< gate-fidelity product (the paper's Figure 7 target)
    TotalEps, ///< gate x coherence product (vetoes compressions at the
              ///< worst-case 1:3 T1 ratio; cf. Figure 12)
};

/** See file comment. */
class ExhaustiveStrategy : public CompressionStrategy
{
  public:
    using CompressionStrategy::choosePairs;

    /** @param ordered use the paper's critical-path priority groups. */
    explicit ExhaustiveStrategy(
        bool ordered = true,
        ExhaustiveMetric metric = ExhaustiveMetric::GateEps)
        : ordered_(ordered), metric_(metric)
    {
    }

    std::string name() const override
    {
        return ordered_ ? "ec" : "ec_unordered";
    }

    std::vector<Compression>
    choosePairs(const Circuit &native, const Topology &topo,
                const GateLibrary &lib, const CompilerConfig &cfg,
                CompileContext &ctx) const override;

    /** choosePairs plus the per-step metric trace. Candidate compiles
     *  fan out over cfg.threads lanes (see CompilerConfig::threads),
     *  one CompileContext per lane, so distance fields computed for
     *  one candidate layout serve the next instead of being
     *  recomputed n^2 times; each lane keeps its best candidate and
     *  the highest score wins with ties to the lowest candidate
     *  index, so the chosen pairing is bit-identical for every lane
     *  count. @p ctx, when given, serves lane 0. */
    std::vector<Compression>
    choosePairsWithTrace(const Circuit &native, const Topology &topo,
                         const GateLibrary &lib, const CompilerConfig &cfg,
                         std::vector<ExhaustiveStep> *trace,
                         CompileContext *ctx = nullptr) const;

  private:
    bool ordered_;
    ExhaustiveMetric metric_;
};

} // namespace qompress

#endif // QOMPRESS_STRATEGIES_EXHAUSTIVE_HH
