#include "pulse/evolution.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace qompress {

std::vector<EvolutionSample>
traceEvolution(const TransmonSystem &system, const GrapeOptimizer &grape,
               const std::vector<std::vector<double>> &controls,
               int start_logical, const std::vector<int> &watch_logical,
               int samples)
{
    QFATAL_IF(start_logical < 0 ||
              start_logical >= system.logicalDim(),
              "traceEvolution: bad start state ", start_logical);
    const auto props = grape.propagators(controls);
    const int dim = system.dim();
    std::vector<CMatrix::Scalar> state(dim, 0.0);
    state[system.logicalToFull(start_logical)] = 1.0;

    std::vector<int> watch_full;
    for (int w : watch_logical) {
        QFATAL_IF(w < 0 || w >= system.logicalDim(),
                  "traceEvolution: bad watch state ", w);
        watch_full.push_back(system.logicalToFull(w));
    }

    const int segments = grape.segments();
    const int stride = std::max(1, segments / std::max(1, samples));

    std::vector<EvolutionSample> trace;
    auto record = [&](int seg) {
        EvolutionSample s;
        s.timeNs = seg * grape.dt();
        double watched = 0.0;
        for (int w : watch_full) {
            const double p = std::norm(state[w]);
            s.populations.push_back(p);
            watched += p;
        }
        double total = 0.0;
        for (const auto &a : state)
            total += std::norm(a);
        s.other = total - watched;
        trace.push_back(std::move(s));
    };

    record(0);
    std::vector<CMatrix::Scalar> next(dim, 0.0); // reused across segments
    for (int j = 0; j < segments; ++j) {
        for (int r = 0; r < dim; ++r) {
            CMatrix::Scalar acc = 0.0;
            for (int c = 0; c < dim; ++c)
                acc += props[j](r, c) * state[c];
            next[r] = acc;
        }
        state.swap(next);
        if ((j + 1) % stride == 0 || j + 1 == segments)
            record(j + 1);
    }
    return trace;
}

} // namespace qompress
