/**
 * @file
 * Hot-path benchmark: times the compute-heavy loops of the toolchain
 * -- mixed-radix statevector gate application, one GRAPE gradient
 * iteration (plus the per-segment fan-out at 2/4/8 lanes), the
 * Padé-13 vs Taylor family exponential, SWAP routing over the
 * expanded graph, full mapping+routing of the deep QAOA/heavy-hex
 * workload, the exhaustive strategy's candidate-pair sweep on
 * heavyHex65 (serial vs thread-pool fan-out at 2/4/8 lanes), the
 * evaluation-sweep cell fan-out at 1/2/4/8 lanes, the
 * CompilerService request path (cold vs warm-memo-cache request
 * throughput from 1/2/4/8 lanes), the template tier (cold full
 * compiles vs parameter rebinds across a 20-point QAOA-40/heavyHex65
 * angle grid at 1/2/4/8 lanes), and the persistence tier (cold
 * compiles vs a disk-warm restart vs warm memo over the same request
 * catalog), and the device registry (strategy x zoo-device sweep via
 * CompileRequest::forDevice, with per-device timings and a totalEps
 * results table) -- against the retained
 * naive/uncached/serial reference paths in the same binary,
 * and emits machine-readable JSON with a "host" metadata object
 * (nproc, QOMPRESS_THREADS, build type) so snapshots from different
 * machines stay interpretable (the BENCH_*.json trajectory; compare
 * runs with tools/bench_diff.py --regress-threshold).
 *
 * Flags:
 *   --check      differential mode: assert optimized kernels agree
 *                with references (1e-10), that a warm serial GRAPE
 *                gradient step performs zero heap allocations (and a
 *                warm pooled one performs zero *per lane*), that the
 *                Padé-13 family exponential matches the Taylor
 *                reference to 1e-12 and beats it by >= 1.15x, that
 *                cached (partial-invalidation) and uncached
 *                mapping+routing emit identical circuits, that
 *                the exhaustive search, the eval sweep, and the GRAPE
 *                gradient produce bit-identical results at every lane
 *                count, and that CompilerService requests are
 *                bit-identical to direct strategy compiles at every
 *                lane count with warm (memoized) passes beating cold
 *                ones by >= the memo cache's expected margin, and that
 *                template rebinds are bit-identical to full compiles
 *                of the same angle-grid instances while beating them
 *                by >= the rebind margin, and that a disk-warm
 *                restart decodes artifacts bit-identical to direct
 *                compiles while serving the catalog >= the
 *                persistence margin faster than cold compiles, and
 *                that registry-resolved device compiles are
 *                bit-identical to direct compiles on the registry
 *                topology, a neutral uniform calibration is
 *                bit-identical to no calibration, and a calibration
 *                install re-keys exactly its device (stale miss,
 *                fresh hit, unrelated warm hit, counter partition
 *                intact); exits nonzero on violation.
 *                Registered under ctest label "bench".
 *   --quick      smaller repetition counts.
 *   --out=FILE   also write the JSON to FILE.
 */

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "circuits/bv.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "circuits/registry.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "compiler/pipeline.hh"
#include "eval/sweep.hh"
#include "ir/passes.hh"
#include "pulse/grape.hh"
#include "pulse/hamiltonian.hh"
#include "pulse/targets.hh"
#include "service/compiler_service.hh"
#include "sim/statevector.hh"
#include "strategies/awe.hh"
#include "strategies/exhaustive.hh"

// ------------------------------------------------------------------
// Allocation-counting hook: every global operator new bumps a
// thread-local counter. Thread-local rather than a process-wide
// atomic for two reasons: once the thread pool exists in-process,
// worker threads may allocate (queue nodes, lane contexts)
// concurrently with the GRAPE zero-alloc window and a global counter
// would blame those allocations on the GRAPE step; and a shared
// atomic would put a contended RMW into every allocation during the
// multithreaded exhaustive sections this bench times.
// ------------------------------------------------------------------

static thread_local std::uint64_t t_alloc_count = 0;

// GCC cannot see that the replaced operator new below is malloc-backed
// and (once the counters perturb inlining) flags the free() in the
// matching operator delete as a mismatched pair; it is not.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    ++t_alloc_count;
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    ++t_alloc_count;
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace qompress;
using bench::Checks;
using bench::Report;
using bench::SectionTimer;
using bench::speedup;

/** The lane counts every fan-out section sweeps. */
constexpr int kLanes[] = {1, 2, 4, 8};

/** Lane part of a fan-out metric name: "serial" or "t<lanes>". */
std::string
laneName(int lanes)
{
    return lanes == 1 ? "serial" : "t" + std::to_string(lanes);
}

void
benchStatevector(int reps, Report &rep, Checks &checks)
{
    Rng rng(12345);
    const std::vector<int> dims = {4, 2, 4, 2, 4, 2, 4, 2, 4, 2};
    const auto gates = bench::mixedGateWorkload(dims, rng);

    // Start both kernels from the same random product state.
    MixedRadixState fast = bench::randomState(dims, rng);
    MixedRadixState slow = fast;

    SectionTimer opt, naive;
    for (int r = 0; r < reps; ++r) {
        opt.time([&] {
            for (const auto &g : gates)
                fast.applyUnitary(g.units, g.u);
        });
    }
    for (int r = 0; r < reps; ++r) {
        naive.time([&] {
            for (const auto &g : gates)
                slow.applyUnitaryNaive(g.units, g.u);
        });
    }

    const double max_diff = bench::maxAmpDiff(fast, slow);
    rep.add("statevector_apply_ms", opt.ms());
    rep.add("statevector_naive_ms", naive.ms());
    rep.add("statevector_speedup", speedup(naive.ms(), opt.ms()), "%.3f");
    rep.add("statevector_max_diff", max_diff, "%.3e");
    checks.expect(max_diff <= 1e-10,
                  "applyUnitary agrees with naive kernel to 1e-10");
}

void
benchGrape(int reps, Report &rep, Checks &checks)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);
    GrapeOptions opts;
    opts.threads = 1; // the serial baseline; lanes timed separately
    GrapeOptimizer grape(system, target, /*duration_ns=*/160.0,
                         /*segments=*/40, opts);

    Rng rng(99);
    std::vector<std::vector<double>> controls(
        grape.numControls(),
        std::vector<double>(grape.segments(), 0.0));
    const double amp = 0.25 * system.maxAmplitude();
    for (auto &row : controls)
        for (auto &v : row)
            v = rng.nextDouble(-amp, amp);

    GrapeWorkspace ws;
    std::vector<std::vector<double>> grad, grad_naive;
    double fid = 0.0, leak = 0.0;

    // Warm-up sizes every workspace buffer; afterwards a gradient
    // step must not touch the heap. Measured on the thread-local
    // counter so concurrent pool-thread allocations cannot leak into
    // the window.
    grape.objectiveAndGradient(controls, grad, fid, leak, ws);
    const std::uint64_t before = t_alloc_count;
    grape.objectiveAndGradient(controls, grad, fid, leak, ws);
    const std::uint64_t warm_allocs = t_alloc_count - before;

    SectionTimer opt, naive;
    for (int r = 0; r < reps; ++r)
        opt.time([&] {
            grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        });
    for (int r = 0; r < reps; ++r)
        naive.time([&] {
            grape.objectiveAndGradientNaive(controls, grad_naive, fid,
                                            leak);
        });

    double worst = 0.0;
    for (std::size_t k = 0; k < grad.size(); ++k)
        for (std::size_t j = 0; j < grad[k].size(); ++j)
            worst = std::max(worst,
                             std::abs(grad[k][j] - grad_naive[k][j]));

    rep.add("grape_gradient_ms", opt.ms());
    rep.add("grape_gradient_naive_ms", naive.ms());
    rep.add("grape_speedup", speedup(naive.ms(), opt.ms()), "%.3f");
    rep.add("grape_max_grad_diff", worst, "%.3e");
    rep.add("grape_warm_allocs", warm_allocs);
    checks.expect(worst <= 1e-10,
                  "GRAPE gradient agrees with naive reference to 1e-10");
    checks.expect(warm_allocs == 0,
                  "warm GRAPE gradient step performs zero heap "
                  "allocations");
}

bool
sameGates(const CompiledCircuit &a, const CompiledCircuit &b)
{
    if (a.numGates() != b.numGates())
        return false;
    for (int i = 0; i < a.numGates(); ++i) {
        const PhysGate &x = a.gates()[i];
        const PhysGate &y = b.gates()[i];
        if (x.cls != y.cls || x.slots != y.slots ||
            x.logical != y.logical || x.param != y.param ||
            x.logical2 != y.logical2 || x.param2 != y.param2 ||
            x.sourceGate != y.sourceGate ||
            x.sourceGate2 != y.sourceGate2 ||
            x.isRouting != y.isRouting)
            return false;
    }
    return true;
}

void
benchRouting(int reps, Report &rep, Checks &checks)
{
    const Circuit bv = decomposeToNativeGates(bernsteinVazirani(20));
    const Topology topo = Topology::grid(20);
    const GateLibrary lib;
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, lib);
    const InteractionModel im(bv);

    MapperOptions mopts;
    const Layout initial = mapCircuit(bv, im, cost, mopts);

    RouterOptions cached_opts;
    cached_opts.lookaheadWeight = 0.5; // exercise the lookahead field
    cached_opts.useDistanceCache = true;
    RouterOptions uncached_opts = cached_opts;
    uncached_opts.useDistanceCache = false;

    auto route = [&](const RouterOptions &ropts) {
        Layout layout = initial;
        CompiledCircuit out(layout, "bv20");
        routeCircuit(bv, layout, cost, out, ropts);
        return out;
    };

    SectionTimer cached, uncached;
    CompiledCircuit cached_out, uncached_out;
    for (int r = 0; r < reps; ++r)
        cached.time([&] { cached_out = route(cached_opts); });
    for (int r = 0; r < reps; ++r)
        uncached.time([&] { uncached_out = route(uncached_opts); });

    const bool identical = sameGates(cached_out, uncached_out);
    rep.add("route_bv20_cached_ms", cached.ms());
    rep.add("route_bv20_uncached_ms", uncached.ms());
    rep.add("route_speedup", speedup(uncached.ms(), cached.ms()), "%.3f");
    rep.add("route_gates", static_cast<std::uint64_t>(cached_out.numGates()));
    rep.add("route_identical", identical);
    checks.expect(identical,
                  "cached and uncached routing emit identical circuits");
}

/**
 * The deep communication workload: mapping + routing of p-round
 * hardware-native QAOA over the 65-unit heavy-hex lattice, with AWE
 * compression pairs committed so placement flips encoded bits (the
 * regime where whole-cache version keying used to thrash and partial
 * invalidation pays off). Cached runs share one CompileContext cache
 * between mapping and routing; uncached runs recompute every Dijkstra
 * field.
 */
void
benchQaoaHeavyHex(int reps, int rounds, Report &rep, Checks &checks)
{
    const Circuit qaoa =
        decomposeToNativeGates(qaoaHeavyHex(40, rounds));
    const Topology topo = Topology::heavyHex65();
    const GateLibrary lib;
    const InteractionModel im(qaoa);

    CompilerConfig cfg;
    const auto pairs = AweStrategy().choosePairs(qaoa, topo, lib, cfg);

    MapperOptions mopts;
    mopts.pairs = pairs;

    std::uint64_t hits = 0, misses = 0, revalidations = 0;
    auto run = [&](bool use_cache, bool collect_stats) {
        CompilerConfig run_cfg = cfg;
        run_cfg.useDistanceCache = use_cache;
        CompileContext ctx(topo, lib, run_cfg);
        Layout layout =
            mapCircuit(qaoa, im, ctx.cost(), mopts, ctx.cache());
        CompiledCircuit out(layout, "qaoa_hh");
        RouterOptions ropts;
        ropts.lookaheadWeight = 0.5;
        ropts.useDistanceCache = use_cache;
        routeCircuit(qaoa, layout, ctx.cost(), out, ropts, ctx.cache());
        if (collect_stats) {
            hits = ctx.cacheStats().hits();
            misses = ctx.cacheStats().misses();
            revalidations = ctx.cacheStats().revalidations();
        }
        return out;
    };

    SectionTimer cached, uncached;
    CompiledCircuit cached_out, uncached_out;
    for (int r = 0; r < reps; ++r)
        cached.time([&] { cached_out = run(true, r == 0); });
    for (int r = 0; r < reps; ++r)
        uncached.time([&] { uncached_out = run(false, false); });

    bool identical = sameGates(cached_out, uncached_out);
    for (QubitId q = 0; identical && q < qaoa.numQubits(); ++q) {
        identical = cached_out.finalLayout().slotOf(q) ==
                    uncached_out.finalLayout().slotOf(q);
    }

    rep.add("qaoa_hh_cached_ms", cached.ms());
    rep.add("qaoa_hh_uncached_ms", uncached.ms());
    rep.add("qaoa_hh_speedup", speedup(uncached.ms(), cached.ms()),
            "%.3f");
    rep.add("qaoa_hh_gates",
            static_cast<std::uint64_t>(cached_out.numGates()));
    rep.add("qaoa_hh_cache_hits", hits);
    rep.add("qaoa_hh_cache_misses", misses);
    rep.add("qaoa_hh_cache_revalidations", revalidations);
    rep.add("qaoa_hh_identical", identical);
    checks.expect(identical,
                  "partial-invalidation cached and uncached QAOA/heavy-hex "
                  "mapping+routing emit identical circuits");
}

/**
 * The candidate-sweep workload: the exhaustive (ec) strategy on a
 * seeded QAOA circuit over heavyHex65, where every committed pair
 * costs O(n^2) full candidate compiles. One lane is the serial
 * baseline; 2/4/8 lanes fan the candidate compiles over the thread
 * pool with one CompileContext per lane. The sweep is embarrassingly
 * parallel, so on a machine with >= 4 cores the 4-lane run should
 * approach 4x; pairings must be bit-identical at every lane count
 * (deterministic serial reduction over candidate scores).
 */
void
benchExhaustive(int qubits, Report &rep, Checks &checks)
{
    const Circuit qaoa =
        decomposeToNativeGates(qaoaFromGraph(randomGraph(qubits, 0.4, 11)));
    const Topology topo = Topology::heavyHex65();
    const GateLibrary lib;
    const ExhaustiveStrategy ec;

    auto run = [&](int lanes, double &ms) {
        CompilerConfig cfg;
        cfg.lookaheadWeight = 0.5;
        cfg.threads = lanes;
        CompileContext ctx(topo, lib, cfg);
        std::vector<Compression> pairs;
        ms = SectionTimer().time(
            [&] { pairs = ec.choosePairs(qaoa, topo, lib, cfg, ctx); });
        return pairs;
    };

    // Discarded warmups: lanes=0 constructs and warms the process
    // pool (the one a run whose lane count equals the process default
    // will reuse) and lanes=8 pays allocator growth and cold caches on
    // the private-pool path, so the serial baseline that follows does
    // not absorb one-time process costs. A timed run whose lane count
    // differs from the process default still spawns its private pool
    // inside choosePairs — lanes-1 thread spawns, well under 1% of
    // the ~90 ms workload.
    double ms[std::size(kLanes)];
    run(0, ms[0]);
    run(8, ms[0]);
    const auto serial = run(1, ms[0]);
    bool identical = true;
    rep.add("exhaustive_hh_serial_ms", ms[0]);
    for (std::size_t i = 1; i < std::size(kLanes); ++i) {
        identical = run(kLanes[i], ms[i]) == serial && identical;
        rep.add("exhaustive_hh_" + laneName(kLanes[i]) + "_ms", ms[i]);
    }
    rep.add("exhaustive_hh_speedup_t4", speedup(ms[0], ms[2]), "%.3f");
    rep.add("exhaustive_hh_pairs", static_cast<std::uint64_t>(serial.size()));
    rep.add("exhaustive_hh_identical", identical);
    checks.expect(identical,
                  "exhaustive search chooses bit-identical pairings at "
                  "1/2/4/8 lanes");
}

bool
sameRecords(const std::vector<SweepRecord> &a,
            const std::vector<SweepRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const SweepRecord &x = a[i];
        const SweepRecord &y = b[i];
        if (x.family != y.family || x.strategy != y.strategy ||
            x.requestedSize != y.requestedSize ||
            x.qubits != y.qubits ||
            x.numCompressions != y.numCompressions ||
            x.metrics.gateEps != y.metrics.gateEps ||
            x.metrics.coherenceEps != y.metrics.coherenceEps ||
            x.metrics.totalEps != y.metrics.totalEps ||
            x.metrics.durationNs != y.metrics.durationNs ||
            x.metrics.numGates != y.metrics.numGates)
            return false;
    }
    return true;
}

/**
 * The evaluation-layer workload: a (family x size x strategy) grid —
 * the shape of every figure bench — compiled through runSweep at
 * 1/2/4/8 lanes. Cells land in pre-sized slots, so the records must
 * be bit-identical whatever the lane count.
 */
void
benchSweep(int sizes_hi, Report &rep, Checks &checks)
{
    SweepSpec spec;
    spec.families = {"bv", "qaoa_random"};
    spec.sizes = {8, sizes_hi};
    spec.strategies = {"qubit_only", "eqm", "rb", "awe", "pp"};
    spec.config.lookaheadWeight = 0.5;

    auto run = [&](int lanes, double &ms) {
        spec.threads = lanes;
        std::vector<SweepRecord> records;
        ms = SectionTimer().time([&] { records = runSweep(spec); });
        return records;
    };

    // Discarded warm-up: pays allocator growth, cold code paths, and
    // (when 8 happens to be the process default) the global pool's
    // spawn. Lane counts that differ from the process default still
    // construct and join their private pool inside each timed run —
    // lanes-1 thread spawns, which is real overhead the lane timings
    // deliberately include (it is what a caller of that lane count
    // pays per sweep).
    double ms[std::size(kLanes)];
    run(8, ms[0]);
    const auto serial = run(1, ms[0]);
    bool identical = true;
    rep.add("sweep_serial_ms", ms[0]);
    for (std::size_t i = 1; i < std::size(kLanes); ++i) {
        identical = sameRecords(serial, run(kLanes[i], ms[i])) && identical;
        rep.add("sweep_" + laneName(kLanes[i]) + "_ms", ms[i]);
    }
    rep.add("sweep_speedup_t4", speedup(ms[0], ms[2]), "%.3f");
    rep.add("sweep_cells", static_cast<std::uint64_t>(serial.size()));
    rep.add("sweep_identical", identical);
    checks.expect(identical,
                  "eval sweep emits bit-identical records at 1/2/4/8 "
                  "lanes");
}

/**
 * The per-segment GRAPE fan-out: the same CX2/40-segment gradient
 * iteration as the serial section, at 1/2/4/8 lanes. The per-lane
 * allocation probe (this binary's thread-local operator-new counter)
 * asserts the zero-alloc warm-iteration property holds for every
 * lane, not just the calling thread.
 */
void
benchGrapeLanes(int reps, Report &rep, Checks &checks)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);

    Rng rng(99);
    std::vector<std::vector<double>> controls;
    {
        GrapeOptions probe_opts;
        probe_opts.threads = 1;
        GrapeOptimizer probe(system, target, 160.0, 40, probe_opts);
        controls.assign(probe.numControls(),
                        std::vector<double>(probe.segments(), 0.0));
        const double amp = 0.25 * system.maxAmplitude();
        for (auto &row : controls)
            for (auto &v : row)
                v = rng.nextDouble(-amp, amp);
    }

    double ms[std::size(kLanes)];
    bool identical = true;
    std::uint64_t warm_lane_allocs = 0; // max per-lane allocs, warm call
    std::vector<std::vector<double>> grad_serial;
    for (std::size_t i = 0; i < std::size(kLanes); ++i) {
        GrapeOptions opts;
        opts.threads = kLanes[i];
        GrapeOptimizer grape(system, target, 160.0, 40, opts);
        GrapeWorkspace ws;
        ws.allocProbe = [] { return t_alloc_count; };
        std::vector<std::vector<double>> grad;
        double fid = 0.0, leak = 0.0;
        // Two warm-ups: the first sizes shared buffers, the second
        // lets every lane touch (and size) its own scratch.
        grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        grape.objectiveAndGradient(controls, grad, fid, leak, ws);
        SectionTimer t;
        for (int r = 0; r < reps; ++r)
            t.time([&] {
                grape.objectiveAndGradient(controls, grad, fid, leak, ws);
            });
        ms[i] = t.ms();
        rep.add("grape_seg_" + laneName(kLanes[i]) + "_ms", ms[i]);
        for (const auto allocs : ws.laneAllocs)
            warm_lane_allocs = std::max(warm_lane_allocs, allocs);
        if (i == 0)
            grad_serial = grad;
        identical = identical && grad == grad_serial;
    }
    rep.add("grape_seg_speedup_t4", speedup(ms[0], ms[2]), "%.3f");
    rep.add("grape_seg_warm_lane_allocs", warm_lane_allocs);
    rep.add("grape_seg_identical", identical);
    checks.expect(identical,
                  "GRAPE objective+gradient is bit-identical at 1/2/4/8 "
                  "lanes");
    checks.expect(warm_lane_allocs == 0,
                  "warm pooled GRAPE gradient step performs zero heap "
                  "allocations on every lane");
}

/**
 * The pulse-kernel microbench: one GRAPE sweep's worth of segment
 * generators (CX2, 40 segments, 4 drive directions), exponentiated by
 * the Padé-13 production kernel vs the retained Taylor
 * scaling-and-squaring reference.
 */
void
benchPade(int reps, Report &rep, Checks &checks)
{
    std::vector<int> dims;
    const CMatrix target = namedTarget("CX2", dims);
    const TransmonSystem system(dims, /*guard_levels=*/1);
    const int segments = 40;
    const double dt = 160.0 / segments;
    const auto &hc = system.controls();

    std::vector<CMatrix> bgen(hc.size());
    for (std::size_t k = 0; k < hc.size(); ++k)
        scaleInto(bgen[k], CMatrix::Scalar(0.0, -dt), hc[k]);
    Rng rng(99);
    const double amp = 0.25 * system.maxAmplitude();
    std::vector<CMatrix> agens;
    agens.reserve(segments);
    for (int j = 0; j < segments; ++j) {
        CMatrix h = system.drift();
        for (const auto &c : hc)
            h += c * CMatrix::Scalar(rng.nextDouble(-amp, amp));
        agens.push_back(h * CMatrix::Scalar(0.0, -dt));
    }

    ExpmFamilyWorkspace ws;
    CMatrix eA, eA_ref;
    std::vector<CMatrix> ds, ds_ref;
    double max_diff = 0.0; // worst elementwise deviation, eA and every dU
    for (const auto &a : agens) { // warm both paths and diff them
        expmFamilyInto(eA, ds, a, bgen, ws);
        expmFamilyIntoTaylor(eA_ref, ds_ref, a, bgen, ws);
        for (int r = 0; r < eA.rows(); ++r)
            for (int c = 0; c < eA.cols(); ++c)
                max_diff =
                    std::max(max_diff, std::abs(eA(r, c) - eA_ref(r, c)));
        for (std::size_t k = 0; k < ds.size(); ++k)
            for (int r = 0; r < eA.rows(); ++r)
                for (int c = 0; c < eA.cols(); ++c)
                    max_diff = std::max(
                        max_diff, std::abs(ds[k](r, c) - ds_ref[k](r, c)));
    }

    SectionTimer pade, taylor;
    for (int r = 0; r < reps; ++r)
        pade.time([&] {
            for (const auto &a : agens)
                expmFamilyInto(eA, ds, a, bgen, ws);
        });
    for (int r = 0; r < reps; ++r)
        taylor.time([&] {
            for (const auto &a : agens)
                expmFamilyIntoTaylor(eA_ref, ds_ref, a, bgen, ws);
        });

    const double pade_speedup = speedup(taylor.ms(), pade.ms());
    rep.add("expm_pade_ms", pade.ms());
    rep.add("expm_taylor_ms", taylor.ms());
    rep.add("expm_pade_speedup", pade_speedup, "%.3f");
    rep.add("expm_pade_max_diff", max_diff, "%.3e");
    checks.expect(max_diff <= 1e-12,
                  "Pade-13 family exponential matches the Taylor "
                  "reference to 1e-12");
    checks.expect(pade_speedup >= 1.15,
                  "Pade-13 family exponential beats the Taylor reference "
                  "by >= 1.15x");
}

/** Warm passes must beat cold ones at least this much (they skip the
 *  whole pipeline: a warm request is request fingerprinting plus one
 *  locked map lookup). Asserted under --check. */
constexpr double kServiceWarmMargin = 5.0;

bool
sameCompileResults(const CompileResult &a, const CompileResult &b)
{
    return sameGates(a.compiled, b.compiled) &&
           a.compressions == b.compressions &&
           a.metrics.gateEps == b.metrics.gateEps &&
           a.metrics.coherenceEps == b.metrics.coherenceEps &&
           a.metrics.totalEps == b.metrics.totalEps &&
           a.metrics.durationNs == b.metrics.durationNs &&
           a.metrics.numGates == b.metrics.numGates;
}

/** One pass of @p reqs through @p service, fanned out over @p pool's
 *  lanes (serially when null) the way runSweep fans out its cells;
 *  artifacts land in request order when @p out is set. */
void
serveFromLanes(CompilerService &service, ThreadPool *pool,
               const std::vector<CompileRequest> &reqs,
               std::vector<CompileArtifact> *out)
{
    auto serve = [&](std::size_t i, int) {
        CompileArtifact a = service.compileSync(reqs[i]);
        if (out)
            (*out)[i] = std::move(a);
    };
    if (pool)
        pool->parallelFor(0, reqs.size(), serve);
    else
        for (std::size_t i = 0; i < reqs.size(); ++i)
            serve(i, 0);
}

/**
 * The service-front-end workload: a (family x size x strategy)
 * request grid -- the redundant-compile shape of every evaluation
 * sweep -- issued twice through a CompilerService from each lane
 * count of concurrent callers.
 * The cold pass (memo cleared) measures request-path compile
 * throughput; the warm pass measures memoized request throughput.
 * Artifacts must be bit-identical to direct strategy compiles at
 * every lane count, and the warm pass must beat the cold one by the
 * memo cache's expected margin.
 */
void
benchService(int reps, int sizes_hi, Report &rep, Checks &checks)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    std::vector<CompileRequest> reqs;
    std::vector<CompileResult> direct;
    for (const char *family : {"bv", "qaoa_random"}) {
        for (int size : {8, sizes_hi}) {
            const Circuit circuit = benchmarkFamily(family).make(size);
            const Topology topo = Topology::grid(circuit.numQubits());
            for (const char *strat : {"eqm", "rb", "awe"}) {
                reqs.push_back(CompileRequest::forCircuit(
                    circuit, topo, strat, cfg, lib));
                direct.push_back(makeStrategy(strat)->compile(
                    circuit, topo, lib, cfg));
            }
        }
    }

    bool identical = true;
    double cold_t1_ms = 0.0, warm_t1_ms = 0.0;
    ServiceStats stats_t1; // memo counters observed at 1 lane
    for (const int lanes : kLanes) {
        CompilerService service;
        std::optional<ThreadPool> own_pool;
        ThreadPool *pool = ThreadPool::forRequest(lanes, own_pool);

        // Discarded warm-up: grows the allocator and populates the
        // memo once.
        serveFromLanes(service, pool, reqs, nullptr);

        SectionTimer cold, warm;
        std::vector<CompileArtifact> artifacts(reqs.size());
        // Warm passes are microseconds; run many per cold rep so the
        // mean sees a stable window.
        const int warm_iters = 20;
        for (int r = 0; r < reps; ++r) {
            service.clearCache(); // drop artifacts AND pooled contexts
            cold.time([&] {
                serveFromLanes(service, pool, reqs,
                               r == 0 ? &artifacts : nullptr);
            });
            for (int w = 0; w < warm_iters; ++w)
                warm.time(
                    [&] { serveFromLanes(service, pool, reqs, nullptr); });
        }

        for (std::size_t i = 0; i < artifacts.size(); ++i) {
            identical =
                identical && sameCompileResults(*artifacts[i], direct[i]);
        }
        const std::string t = "_t" + std::to_string(lanes) + "_ms";
        rep.add("service_cold" + t, cold.ms());
        rep.add("service_warm" + t, warm.ms());
        if (lanes == 1) {
            cold_t1_ms = cold.ms();
            warm_t1_ms = warm.ms();
            stats_t1 = service.stats();
        }
    }
    const double warm_speedup = speedup(cold_t1_ms, warm_t1_ms);
    rep.add("service_warm_speedup", warm_speedup, "%.3f");
    rep.add("service_requests", static_cast<std::uint64_t>(reqs.size()));
    rep.add("service_hits", stats_t1.hits);
    rep.add("service_misses", stats_t1.misses);
    rep.add("service_identical", identical);
    checks.expect(identical,
                  "CompilerService artifacts are bit-identical to direct "
                  "strategy compiles at 1/2/4/8 lanes");
    checks.expect(stats_t1.hits > 0 && stats_t1.misses > 0,
                  "service memo cache observed both misses (cold) and "
                  "hits (warm)");
    checks.expect(warm_speedup >= kServiceWarmMargin,
                  "warm (memoized) service passes beat cold ones by >= "
                  "the memo cache's expected margin");
}

/** A template rebind skips mapping, routing, and scheduling entirely
 *  (deep-copy + O(gates) parameter patch + metrics re-price), so it
 *  must beat a cold full compile of the same instance by at least
 *  this factor on the angle-sweep workload. Asserted under --check. */
constexpr double kTemplateRebindMargin = 10.0;

/**
 * The parameterized-sweep workload: a >= 20-point angle grid over the
 * QAOA-40/heavyHex65 circuit (one structure, varying rotation
 * angles), issued through a CompilerService from each lane count of
 * concurrent callers. The cold pass forces full compiles via
 * CompileRequest::fullCompile (and clears the memo between reps, so
 * every point pays the whole pipeline); the rebind pass warms one
 * template with a single full compile of an off-grid exemplar, then
 * serves the entire grid from the template tier. Rebound artifacts
 * must be bit-identical to the full compiles of the same instances.
 */
void
benchTemplate(int reps, int rounds, int num_angles, Report &rep,
              Checks &checks)
{
    const Circuit base = qaoaHeavyHex(40, rounds);
    const Topology topo = Topology::heavyHex65();
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;
    const char *strat = "awe";

    // The angle grid (distinct points, none equal to the exemplar's),
    // bound positionally over the base structure.
    const Circuit exemplar = bindParams(base, {0.77, 1.31});
    std::vector<CompileRequest> full_reqs, rebind_reqs;
    for (int i = 0; i < num_angles; ++i) {
        const Circuit inst = bindParams(
            base, {0.11 + 0.143 * i, 2.93 - 0.117 * i});
        auto req =
            CompileRequest::forCircuit(inst, topo, strat, cfg, lib);
        rebind_reqs.push_back(req);
        req.fullCompile = true;
        full_reqs.push_back(std::move(req));
    }

    bool identical = true;
    double cold_t1_ms = 0.0, rebind_t1_ms = 0.0;
    ServiceStats stats_t1; // tier counters observed at 1 lane
    for (const int lanes : kLanes) {
        CompilerService service;
        std::optional<ThreadPool> own_pool;
        ThreadPool *pool = ThreadPool::forRequest(lanes, own_pool);

        // Discarded warm-up: grows the allocator on the compile-heavy
        // path.
        serveFromLanes(service, pool, full_reqs, nullptr);

        SectionTimer cold, rebind;
        std::vector<CompileArtifact> full(full_reqs.size());
        std::vector<CompileArtifact> rebound(rebind_reqs.size());
        for (int r = 0; r < reps; ++r) {
            // Cold: every grid point pays the full pipeline (the memo
            // was cleared, and fullCompile bypasses the templates).
            service.clearCache();
            cold.time([&] {
                serveFromLanes(service, pool, full_reqs,
                               r == 0 ? &full : nullptr);
            });
            // Rebind: one off-grid full compile plants the template
            // (untimed), then the whole grid rides it.
            service.clearCache();
            service.compileSync(CompileRequest::forCircuit(
                exemplar, topo, strat, cfg, lib));
            rebind.time([&] {
                serveFromLanes(service, pool, rebind_reqs,
                               r == 0 ? &rebound : nullptr);
            });
        }

        for (std::size_t i = 0; i < rebound.size(); ++i) {
            identical =
                identical && sameCompileResults(*rebound[i], *full[i]);
        }
        const std::string t = "_t" + std::to_string(lanes) + "_ms";
        rep.add("template_cold" + t, cold.ms());
        rep.add("template_rebind" + t, rebind.ms());
        if (lanes == 1) {
            cold_t1_ms = cold.ms();
            rebind_t1_ms = rebind.ms();
            stats_t1 = service.stats();
        }
    }
    const double rebind_speedup = speedup(cold_t1_ms, rebind_t1_ms);
    rep.add("template_rebind_speedup", rebind_speedup, "%.3f");
    rep.add("template_angles", static_cast<std::uint64_t>(num_angles));
    rep.add("template_hits", stats_t1.templateHits);
    rep.add("template_misses", stats_t1.templateMisses);
    rep.add("template_identical", identical);
    checks.expect(identical,
                  "template rebinds are bit-identical to full compiles "
                  "across the QAOA angle grid at 1/2/4/8 lanes");
    checks.expect(stats_t1.templateHits > 0,
                  "the angle grid was served from the template tier");
    checks.expect(rebind_speedup >= kTemplateRebindMargin,
                  "template rebinds beat cold full compiles by >= the "
                  "template tier's expected margin");
}

/** A disk-warm service must serve the catalog at least this much
 *  faster than cold compiles: a disk hit is one pread + CRC check +
 *  decode, with mapping/routing/scheduling all skipped. Asserted
 *  under --check. */
constexpr double kPersistDiskWarmMargin = 5.0;

/**
 * The persistence-tier workload: the same (family x size x strategy)
 * catalog as the service section, served three ways. Cold pays the
 * full pipeline per pass (no store, memo dropped). Disk-warm primes
 * an artifact store once, then boots a *fresh* service on it -- the
 * warm-restart path -- and serves every pass from the disk tier with
 * the memo dropped between passes. Memo-warm serves from the
 * in-memory tier on the same service. Disk-loaded artifacts must be
 * bit-identical to direct strategy compiles.
 */
void
benchPersist(int reps, int sizes_hi, Report &rep, Checks &checks)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    // Sizes start at 12: compile cost grows superlinearly with size
    // while decode stays linear, so larger circuits keep the
    // disk-warm margin comfortably clear of timer noise.
    std::vector<CompileRequest> reqs;
    std::vector<CompileResult> direct;
    for (const char *family : {"bv", "qaoa_random"}) {
        for (int size : {12, sizes_hi}) {
            const Circuit circuit = benchmarkFamily(family).make(size);
            const Topology topo = Topology::grid(circuit.numQubits());
            for (const char *strat : {"eqm", "rb", "awe"}) {
                reqs.push_back(CompileRequest::forCircuit(
                    circuit, topo, strat, cfg, lib));
                direct.push_back(makeStrategy(strat)->compile(
                    circuit, topo, lib, cfg));
            }
        }
    }

    const std::string store_path =
        "bench_hotpaths_store_" + std::to_string(::getpid()) + ".qst";
    std::remove(store_path.c_str());

    // Serial passes: the tiers differ in decode-vs-compile cost,
    // which lane dispatch overhead would mask at this scale.
    auto pass = [&](CompilerService &service,
                    std::vector<CompileArtifact> *out) {
        serveFromLanes(service, nullptr, reqs, out);
    };

    // Cold baseline: no store, memo dropped before every timed pass.
    SectionTimer cold;
    {
        CompilerService service;
        pass(service, nullptr); // allocator/context warm-up
        for (int r = 0; r < reps; ++r) {
            service.clearCache();
            cold.time([&] { pass(service, nullptr); });
        }
    }

    // Prime the store: one pass on a store-backed service writes the
    // whole catalog behind the misses.
    ServiceStats primed;
    {
        ServiceOptions sopts;
        sopts.storePath = store_path;
        CompilerService service(sopts);
        pass(service, nullptr);
        primed = service.stats();
    }

    // Warm restart: a fresh service on the primed store. Disk passes
    // drop the memo first so every request rides the disk tier; the
    // memo passes afterwards ride the in-memory tier. Both passes are
    // microseconds-scale, so run many for a stable mean.
    SectionTimer disk, memo;
    bool identical = true;
    ServiceStats restarted;
    {
        ServiceOptions sopts;
        sopts.storePath = store_path;
        CompilerService service(sopts);
        const int disk_iters = reps * 20;
        std::vector<CompileArtifact> artifacts(reqs.size());
        for (int it = 0; it < disk_iters; ++it) {
            service.clearCache(); // drops memo+templates, not the store
            disk.time(
                [&] { pass(service, it == 0 ? &artifacts : nullptr); });
        }
        const int memo_iters = disk_iters * 5; // ~micros each; drown scheduler jitter
        for (int it = 0; it < memo_iters; ++it)
            memo.time([&] { pass(service, nullptr); });

        restarted = service.stats();
        for (std::size_t i = 0; i < artifacts.size(); ++i) {
            identical =
                identical && sameCompileResults(*artifacts[i], direct[i]);
        }
    }
    std::remove(store_path.c_str());

    const double disk_speedup = speedup(cold.ms(), disk.ms());
    rep.add("persist_cold_ms", cold.ms());
    rep.add("persist_disk_ms", disk.ms());
    rep.add("persist_memo_ms", memo.ms());
    rep.add("persist_disk_speedup", disk_speedup, "%.3f");
    rep.add("persist_memo_speedup", speedup(cold.ms(), memo.ms()), "%.3f");
    rep.add("persist_requests", static_cast<std::uint64_t>(reqs.size()));
    rep.add("persist_disk_hits", restarted.diskHits);
    rep.add("persist_disk_writes", primed.diskWrites);
    rep.add("persist_store_bytes", primed.storeBytes);
    rep.add("persist_identical", identical);
    checks.expect(identical,
                  "disk-tier artifacts decode bit-identical to direct "
                  "strategy compiles");
    checks.expect(primed.diskWrites == reqs.size(),
                  "priming pass wrote the whole catalog behind the "
                  "misses exactly once");
    checks.expect(restarted.diskHits > 0,
                  "the warm-restarted service served requests from the "
                  "disk tier");
    checks.expect(disk_speedup >= kPersistDiskWarmMargin,
                  "a disk-warm restart serves the catalog >= the "
                  "persistence tier's expected margin over cold compiles");
}

/**
 * The device-registry workload: a strategy x zoo-device sweep, every
 * request resolved by name through CompileRequest::forDevice (registry
 * topology + current calibration). Each cell is timed cold and its
 * totalEps lands in the results table -- the per-device counterpart of
 * the figure sweeps, over topologies from 23 to 127 units. The
 * differential legs pin the subsystem's two contracts: resolution is
 * free of semantic drift (registry compiles bit-identical to direct
 * compiles on the registry topology; a neutral uniform calibration
 * bit-identical to none), and a calibration install re-keys exactly
 * its own device (stale miss then fresh hit, the unrelated device's
 * warm entry survives, the counter partition stays intact).
 */
void
benchDevices(int reps, Report &rep, Checks &checks)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;
    const Circuit circuit = bernsteinVazirani(16);
    const char *strategies[] = {"eqm", "rb", "awe"};
    const char *devices[] = {"falcon27",    "heavyhex23", "heavyhex65",
                             "heavyhex127", "ring65",     "grid64"};

    bool identical = true;
    CompilerService service;
    for (const char *dev : devices) {
        const Device d = service.devices().get(dev);
        for (const char *strat : strategies) {
            SectionTimer cell;
            CompileArtifact art;
            for (int r = 0; r < reps; ++r) {
                service.clearCache();
                cell.time([&] {
                    art = service.compileSync(CompileRequest::forDevice(
                        circuit, dev, strat, cfg, lib));
                });
            }
            const CompileResult direct = makeStrategy(strat)->compile(
                circuit, d.topology, lib, cfg);
            identical = identical && sameCompileResults(*art, direct);
            const std::string cell_name =
                std::string("device_") + dev + "_" + strat;
            rep.add(cell_name + "_ms", cell.ms());
            rep.add(cell_name + "_eps", art->metrics.totalEps, "%.6f");
        }
    }

    // Neutral-calibration differential: a uniform record carrying the
    // library constants (zero readout, no edge scales) must price
    // every gate exactly like no calibration at all.
    bool neutral_identical = false;
    {
        const Device d = service.devices().get("heavyhex65");
        CompilerConfig neutral = cfg;
        neutral.calibration =
            std::make_shared<const DeviceCalibration>(
                DeviceCalibration::uniform(
                    d.topology.name(), d.topology.numUnits(),
                    GateLibrary::kT1QubitNs,
                    GateLibrary::kT1QuquartNs));
        const CompileResult plain = makeStrategy("eqm")->compile(
            circuit, d.topology, lib, cfg);
        const CompileResult cal = makeStrategy("eqm")->compile(
            circuit, d.topology, lib, neutral);
        neutral_identical =
            sameCompileResults(plain, cal) &&
            plain.metrics.readoutEps == cal.metrics.readoutEps;
    }

    // Invalidation differential on a fresh service (clean counters):
    // warm two devices, install a calibration on one, and read the
    // exact miss/hit trajectory off the counters.
    ServiceStats st;
    {
        CompilerService svc;
        auto req = [&](const char *dev) {
            return CompileRequest::forDevice(circuit, dev, "eqm", cfg,
                                             lib);
        };
        svc.compileSync(req("falcon27")); // miss (cold)
        svc.compileSync(req("ring65"));   // miss (cold)
        svc.compileSync(req("falcon27")); // hit  (warm)
        svc.devices().setCalibration(
            "falcon27",
            DeviceCalibration::uniform("falcon27", 27, 100000.0,
                                       30000.0, 0.01));
        svc.compileSync(req("falcon27")); // miss (stale key)
        svc.compileSync(req("falcon27")); // hit  (fresh entry)
        svc.compileSync(req("ring65"));   // hit  (unrelated survives)
        st = svc.stats();
    }
    const bool invalidation_ok = st.misses == 3 && st.hits == 3;
    const bool partition_ok = st.requests == st.hits + st.templateHits +
                                                 st.diskHits + st.misses +
                                                 st.coalesced;

    rep.add("device_zoo_count", static_cast<std::uint64_t>(std::size(devices)));
    rep.add("device_registry_identical", identical);
    rep.add("device_neutral_identical", neutral_identical);
    rep.add("device_invalidation_ok", invalidation_ok);
    rep.add("device_partition_ok", partition_ok);
    checks.expect(identical,
                  "registry-resolved device compiles are bit-identical "
                  "to direct compiles on the registry topology");
    checks.expect(neutral_identical,
                  "a neutral uniform calibration compiles bit-identical "
                  "to no calibration");
    checks.expect(invalidation_ok,
                  "a calibration install re-keys exactly its device: "
                  "stale miss, fresh hit, unrelated warm hit");
    checks.expect(partition_ok,
                  "the service counter partition holds across "
                  "calibration updates");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseArgs(argc, argv);
    const bool check = args.has("--check");
    std::string out_path;
    for (const auto &e : args.extra) {
        if (e.rfind("--out=", 0) == 0)
            out_path = e.substr(6);
    }

    const int sim_reps = check ? 3 : (args.quick ? 10 : 40);
    const int grape_reps = check ? 2 : (args.quick ? 5 : 20);
    const int route_reps = check ? 1 : (args.quick ? 3 : 10);
    const int qaoa_reps = check ? 1 : (args.quick ? 2 : 5);
    const int qaoa_rounds = check ? 1 : 3;
    const int exh_qubits = check ? 6 : (args.quick ? 8 : 12);
    const int sweep_hi = check ? 10 : (args.quick ? 10 : 14);
    const int grape_lane_reps = check ? 3 : (args.quick ? 5 : 20);
    // The Padé/Taylor ratio gates --check, so keep its rep count high
    // enough to be stable even there (~tens of ms per path).
    const int pade_reps = args.quick ? 20 : 40;
    // The warm/cold service ratio also gates --check; the margin is
    // wide (kServiceWarmMargin vs a real ~100x), so small rep counts
    // stay safe.
    const int service_reps = check ? 2 : (args.quick ? 2 : 4);
    const int service_hi = check ? 10 : (args.quick ? 12 : 14);
    // The rebind/cold ratio gates --check; the margin is wide
    // (kTemplateRebindMargin vs a real ~100x on this workload), so
    // small rep counts and fewer rounds stay safe.
    const int template_reps = check ? 1 : (args.quick ? 2 : 3);
    const int template_rounds = check ? 1 : 2;
    const int template_angles = 20;
    // The disk-warm/cold ratio gates --check; the margin is wide
    // (kPersistDiskWarmMargin vs a real >= 100x: a decode pass costs
    // microseconds against milliseconds of compiles), and the cheap
    // disk/memo passes are run 20x/100x per rep.
    const int persist_reps = check ? 2 : (args.quick ? 2 : 4);
    // Must differ from the grid's base size (12) in every mode: equal
    // sizes would collapse the catalog to duplicate keys, which the
    // write-behind dedup guard would surface as disk_writes < requests.
    const int persist_hi = args.quick || check ? 16 : 18;
    // The device sweep's gates are identity differentials, not timing
    // ratios, so one rep suffices under --check. Timed modes rep
    // higher than the other sections: the cells are ~1 ms compiles,
    // cheap enough that averaging down the timer noise costs little,
    // and the device_ section gates at 10% in CI.
    const int device_reps = check ? 1 : (args.quick ? 5 : 10);

    Report rep("hotpaths");
    Checks checks;
    benchStatevector(sim_reps, rep, checks);
    benchGrape(grape_reps, rep, checks);
    benchRouting(route_reps, rep, checks);
    benchQaoaHeavyHex(qaoa_reps, qaoa_rounds, rep, checks);
    benchExhaustive(exh_qubits, rep, checks);
    benchSweep(sweep_hi, rep, checks);
    benchGrapeLanes(grape_lane_reps, rep, checks);
    benchPade(pade_reps, rep, checks);
    benchService(service_reps, service_hi, rep, checks);
    benchTemplate(template_reps, template_rounds, template_angles, rep,
                  checks);
    benchPersist(persist_reps, persist_hi, rep, checks);
    benchDevices(device_reps, rep, checks);

    std::cout << rep.json();
    if (!out_path.empty() && !rep.save(out_path))
        return 1;
    if (check)
        return checks.print() == 0 ? 0 : 1;
    return 0;
}
