#include "strategies/exhaustive.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "common/error.hh"
#include "common/thread_pool.hh"
#include "ir/passes.hh"

namespace qompress {

std::vector<Compression>
ExhaustiveStrategy::choosePairs(const Circuit &native,
                                const Topology &topo,
                                const GateLibrary &lib,
                                const CompilerConfig &cfg,
                                CompileContext &ctx) const
{
    return choosePairsWithTrace(native, topo, lib, cfg, nullptr, &ctx);
}

std::vector<Compression>
ExhaustiveStrategy::choosePairsWithTrace(
    const Circuit &native, const Topology &topo, const GateLibrary &lib,
    const CompilerConfig &cfg, std::vector<ExhaustiveStep> *trace,
    CompileContext *ctx) const
{
    CompilerConfig inner = cfg;
    inner.validate = false; // the final compile still validates

    std::optional<CompileContext> local;
    if (!ctx) {
        local.emplace(topo, lib, inner);
        ctx = &*local;
    }

    // Candidate fan-out: cfg.threads lanes (0 = the process default).
    // Lane 0 reuses the caller's context; other lanes lazily build
    // their own (the cache is single-writer state), created at most
    // once per choosePairs call and reused across all rounds. Calls
    // already running in a pool lane get a one-lane pool.
    std::optional<ThreadPool> own_pool;
    ThreadPool &pool = ThreadPool::forRequest(cfg.threads, own_pool);
    const std::size_t lanes = static_cast<std::size_t>(pool.numThreads());
    std::vector<std::unique_ptr<CompileContext>> lane_ctx(lanes);
    auto ctx_of_lane = [&](int lane) -> CompileContext * {
        if (lane == 0)
            return ctx;
        if (!lane_ctx[lane])
            lane_ctx[lane] =
                std::make_unique<CompileContext>(topo, lib, inner);
        return lane_ctx[lane].get();
    };

    const int n = native.numQubits();
    std::vector<Compression> pairs;
    std::vector<bool> paired(n, false);

    auto value_of = [this](const CompileResult &res) {
        return metric_ == ExhaustiveMetric::GateEps
            ? res.metrics.gateEps : res.metrics.totalEps;
    };

    CompileResult best =
        compileWithPairs(native, topo, lib, pairs, false, inner, ctx);

    while (static_cast<int>(pairs.size()) < n / 2) {
        // Priority groups from the current best compilation's critical
        // path: (1) qubits in critical computation gates, (2) qubits
        // whose communication sits on the critical path, (3) the rest.
        std::set<QubitId> crit_compute;
        std::set<QubitId> crit_comm;
        if (ordered_) {
            const auto crit = criticalGates(best.compiled);
            const auto &pgates = best.compiled.gates();
            for (std::size_t i = 0; i < pgates.size(); ++i) {
                if (!crit[i] || pgates[i].sourceGate < 0)
                    continue;
                const auto &src = native.gates()[pgates[i].sourceGate];
                for (QubitId q : src.qubits) {
                    if (pgates[i].isRouting)
                        crit_comm.insert(q);
                    else
                        crit_compute.insert(q);
                }
            }
        }
        auto group_of = [&](QubitId a, QubitId b) {
            if (!ordered_)
                return 0;
            if (crit_compute.count(a) || crit_compute.count(b))
                return 1;
            if (crit_comm.count(a) || crit_comm.count(b))
                return 2;
            return 3;
        };

        bool committed = false;
        const int first_group = ordered_ ? 1 : 0;
        const int last_group = ordered_ ? 3 : 0;
        for (int group = first_group; group <= last_group && !committed;
             ++group) {
            // Enumerate this group's candidates in ascending (a, b)
            // order and score every one independently. Each lane keeps
            // its best under a strict ">" over the ascending indices
            // it draws; the winner is the highest score with ties to
            // the lowest index, which is what one scan in candidate
            // order with a strict ">" picks. Scores are pure functions
            // of the candidate (the cache never changes results), so
            // the winner is bit-identical regardless of lane count.
            std::vector<Compression> cands;
            for (QubitId a = 0; a < n; ++a) {
                if (paired[a])
                    continue;
                for (QubitId b = a + 1; b < n; ++b) {
                    if (!paired[b] && group_of(a, b) == group)
                        cands.push_back({a, b});
                }
            }

            struct LaneBest
            {
                double eps;
                std::size_t idx; // cands.size() while nothing beat best
                CompileResult res;
            };
            std::vector<LaneBest> lane_best(
                lanes, LaneBest{value_of(best), cands.size(), {}});
            pool.parallelFor(0, cands.size(), [&](std::size_t i, int lane) {
                auto cand = pairs;
                cand.push_back(cands[i]);
                CompileResult res = compileWithPairs(
                    native, topo, lib, cand, false, inner, ctx_of_lane(lane));
                LaneBest &lb = lane_best[static_cast<std::size_t>(lane)];
                if (value_of(res) > lb.eps) {
                    lb.eps = value_of(res);
                    lb.idx = i;
                    lb.res = std::move(res);
                }
            });
            LaneBest *win = &lane_best[0];
            for (LaneBest &lb : lane_best) {
                if (lb.eps > win->eps ||
                    (lb.eps == win->eps && lb.idx < win->idx))
                    win = &lb;
            }

            if (win->idx < cands.size()) {
                const Compression best_pair = cands[win->idx];
                pairs.push_back(best_pair);
                paired[best_pair.first] = true;
                paired[best_pair.second] = true;
                best = std::move(win->res);
                if (trace) {
                    trace->push_back({best_pair,
                                      best.metrics.gateEps,
                                      best.metrics.coherenceEps,
                                      best.metrics.totalEps, group});
                }
                committed = true;
            }
        }
        if (!committed)
            break;
    }
    return pairs;
}

} // namespace qompress
