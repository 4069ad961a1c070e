#include "strategies/portfolio.hh"

#include <optional>

#include "common/error.hh"
#include "common/thread_pool.hh"

namespace qompress {

PortfolioStrategy::PortfolioStrategy(const std::vector<std::string> &names)
{
    QFATAL_IF(names.empty(), "portfolio needs at least one member");
    for (const auto &n : names)
        members_.push_back(makeStrategy(n));
}

CompileResult
PortfolioStrategy::compile(const Circuit &circuit, const Topology &topo,
                           const GateLibrary &lib,
                           const CompilerConfig &cfg,
                           CompileContext *ctx) const
{
    // Member fan-out: cfg.threads lanes (0 = the process default).
    // Lane 0 uses the caller's context; other lanes (and lane 0 when
    // the caller passed none) lazily build their own, since contexts
    // are single-writer. Calls already running in a pool lane get a
    // one-lane pool.
    std::optional<ThreadPool> own_pool;
    ThreadPool &pool = ThreadPool::forRequest(cfg.threads, own_pool);
    std::vector<std::unique_ptr<CompileContext>> lane_ctx(
        pool.numThreads());
    auto ctx_of_lane = [&](int lane) -> CompileContext * {
        if (lane == 0 && ctx)
            return ctx;
        if (!lane_ctx[lane])
            lane_ctx[lane] = std::make_unique<CompileContext>(topo, lib, cfg);
        return lane_ctx[lane].get();
    };

    std::vector<std::optional<CompileResult>> results(members_.size());
    pool.parallelFor(0, members_.size(), [&](std::size_t i, int lane) {
        try {
            results[i] = members_[i]->compile(circuit, topo, lib, cfg,
                                              ctx_of_lane(lane));
        } catch (const FatalError &) {
            // A member may not fit (e.g. qubit-only over capacity);
            // the portfolio simply skips it.
        }
    });

    // Serial reduction in member order with a strict ">": ties keep
    // the earliest member whatever the lane count.
    std::optional<CompileResult> *best = nullptr;
    for (auto &res : results) {
        if (res && (!best || res->metrics.totalEps >
                                 (*best)->metrics.totalEps))
            best = &res;
    }
    QFATAL_IF(!best, "no portfolio member could compile '",
              circuit.name(), "' on ", topo.name());
    return std::move(**best);
}

} // namespace qompress
