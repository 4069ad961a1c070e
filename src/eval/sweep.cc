#include "eval/sweep.hh"

#include <optional>
#include <set>

#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/thread_pool.hh"
#include "ir/passes.hh"
#include "service/compiler_service.hh"

namespace qompress {

namespace {

/** One materialized (family, size) circuit instance of a sweep. */
struct SweepInstance
{
    const std::string *family;
    int requestedSize;
    int paramRow; ///< -1 when the sweep has no parameter grid
    Circuit circuit;
    Topology device;
};

} // namespace

std::vector<SweepRecord>
runSweep(const SweepSpec &spec)
{
    QFATAL_IF(spec.families.empty() || spec.sizes.empty() ||
              spec.strategies.empty(),
              "sweep needs families, sizes, and strategies");
    for (const auto &row : spec.paramGrid)
        QFATAL_IF(row.empty(), "sweep parameter grid has an empty row");
    auto make_device = spec.device
        ? spec.device
        : [](const Circuit &c) { return Topology::grid(c.numQubits()); };

    // Phase 1 (serial): materialize every circuit instance in the
    // original family-major, size-ascending order, applying the
    // min-size and snapped-size-dedup rules. Circuit generation is
    // cheap next to the compiles; doing it up front yields a flat,
    // stable cell list the lanes can fan out over.
    std::vector<SweepInstance> instances;
    for (const auto &family_name : spec.families) {
        const auto &family = benchmarkFamily(family_name);
        std::set<int> seen_sizes; // families snap sizes downward
        for (int size : spec.sizes) {
            if (size < family.minQubits)
                continue;
            Circuit circuit = family.make(size);
            if (!seen_sizes.insert(circuit.numQubits()).second)
                continue;
            Topology device = make_device(circuit);
            if (spec.paramGrid.empty()) {
                instances.push_back({&family_name, size, -1,
                                     std::move(circuit),
                                     std::move(device)});
                continue;
            }
            // Parameter grid: one variant per row, rebinding the base
            // instance's angles positionally. Variants share the base
            // circuit's structure, so every row past the one that
            // compiles first is a template-tier rebind, not a compile.
            for (std::size_t row = 0; row < spec.paramGrid.size();
                 ++row) {
                instances.push_back({&family_name, size,
                                     static_cast<int>(row),
                                     bindParams(circuit,
                                                spec.paramGrid[row]),
                                     device});
            }
        }
    }

    // Phase 2: compile the (instance x strategy) cells, instance-major
    // (cell i is instance i / S, strategy i % S), through one
    // sweep-local CompilerService. Its context pool reuses warmed
    // distance fields across cells over the same device/library/config
    // pricing, whichever lane compiles them.
    const std::size_t num_strategies = spec.strategies.size();
    std::vector<SweepRecord> records(instances.size() * num_strategies);

    ServiceOptions sopts;
    // A figure sweep has no duplicate cells, so cap the memo at the
    // grid size (duplicate specs across repeated runSweep calls are
    // the caller's to memoize with a longer-lived service). Templates
    // sized likewise so an angle grid never thrashes its own tier.
    sopts.cacheCapacity = records.size();
    sopts.templateCacheCapacity = records.size();
    CompilerService service(sopts);

    // Lanes fill only their own record slot, so records are
    // bit-identical at every lane count (and, by the cache invariant,
    // at every cache configuration). Only FatalError means "does not
    // fit"; anything else is parallelFor's first exception.
    auto compile_cell = [&](std::size_t i, int) {
        const SweepInstance &inst = instances[i / num_strategies];
        SweepRecord &rec = records[i];
        rec.family = *inst.family;
        rec.strategy = spec.strategies[i % num_strategies];
        rec.requestedSize = inst.requestedSize;
        rec.paramRow = inst.paramRow;
        try {
            const CompileArtifact res =
                service.compileSync(CompileRequest::forCircuit(
                    inst.circuit, inst.device, rec.strategy, spec.config,
                    spec.library));
            rec.qubits = inst.circuit.numQubits();
            rec.metrics = res->metrics;
            rec.numCompressions =
                static_cast<int>(res->compressions.size());
        } catch (const FatalError &) {
            rec.qubits = 0; // did not fit
        }
    };
    std::optional<ThreadPool> own_pool;
    ThreadPool *pool = ThreadPool::forRequest(
        spec.threads >= 0 ? spec.threads : spec.config.threads, own_pool);
    if (pool)
        pool->parallelFor(0, records.size(), compile_cell);
    else
        for (std::size_t i = 0; i < records.size(); ++i)
            compile_cell(i, 0);

    if (spec.serviceStats)
        *spec.serviceStats = service.stats();
    return records;
}

std::vector<SweepRecord>
filterSweep(const std::vector<SweepRecord> &records,
            const std::string &family, const std::string &strategy)
{
    std::vector<SweepRecord> out;
    for (const auto &r : records) {
        if (r.family == family && r.strategy == strategy &&
            r.qubits > 0) {
            out.push_back(r);
        }
    }
    return out;
}

std::vector<double>
sweepRatios(const std::vector<SweepRecord> &records,
            const std::string &family, const std::string &strategy,
            const std::string &baseline,
            const std::function<double(const Metrics &)> &metric)
{
    const auto xs = filterSweep(records, family, strategy);
    const auto bs = filterSweep(records, family, baseline);
    std::vector<double> out;
    for (const auto &x : xs) {
        for (const auto &b : bs) {
            if (b.requestedSize == x.requestedSize) {
                const double denom = metric(b.metrics);
                if (denom > 0.0)
                    out.push_back(metric(x.metrics) / denom);
                break;
            }
        }
    }
    return out;
}

} // namespace qompress
