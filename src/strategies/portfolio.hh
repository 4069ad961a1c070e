/**
 * @file
 * Portfolio compilation: run several strategies and keep the best
 * result by total EPS. The paper evaluates strategies side by side;
 * a deployment would simply take the winner, which this class
 * packages behind the common interface.
 *
 * The members are built once, at construction, and compiled the way
 * the exhaustive strategy scores its candidates: fanned out over
 * cfg.threads lanes with one CompileContext per lane (lane 0 uses the
 * caller's). A member that throws FatalError does not fit and is
 * skipped. The winner comes from a serial reduction in member order
 * with a strict ">" on totalEps, so ties keep the earliest member and
 * the result is identical at every lane count.
 *
 * Like every strategy, a portfolio is stateless. Caching belongs to
 * whoever owns the request (CompilerService, runSweep, qompressd),
 * which memoizes, rebinds, and persists a portfolio compile as one
 * artifact.
 */

#ifndef QOMPRESS_STRATEGIES_PORTFOLIO_HH
#define QOMPRESS_STRATEGIES_PORTFOLIO_HH

#include "strategies/strategy.hh"

namespace qompress {

/** See file comment. */
class PortfolioStrategy : public CompressionStrategy
{
  public:
    /** @param names member strategies; defaults to the paper's set
     *  minus the deliberately-bad FQ baseline.
     *  @throws FatalError on an empty list or an unknown name (the
     *          message lists every valid name). */
    explicit PortfolioStrategy(
        const std::vector<std::string> &names = {"qubit_only", "eqm", "rb",
                                                 "awe", "pp"});

    std::string name() const override { return "portfolio"; }

    using CompressionStrategy::compile;
    CompileResult compile(const Circuit &circuit, const Topology &topo,
                          const GateLibrary &lib,
                          const CompilerConfig &cfg,
                          CompileContext *ctx) const override;

  private:
    std::vector<std::unique_ptr<CompressionStrategy>> members_;
};

} // namespace qompress

#endif // QOMPRESS_STRATEGIES_PORTFOLIO_HH
