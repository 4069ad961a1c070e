/**
 * @file
 * google-benchmark microbenchmarks for compiler throughput: pipeline
 * stages and strategy pair selection across circuit sizes. These are
 * performance (not figure-reproduction) benches.
 */

#include <benchmark/benchmark.h>

#include "circuits/registry.hh"
#include "compiler/pipeline.hh"
#include "ir/passes.hh"
#include "service/compiler_service.hh"
#include "strategies/strategy.hh"

namespace {

using namespace qompress;

const GateLibrary kLib;

void
BM_InteractionModel(benchmark::State &state)
{
    const Circuit c = decomposeToNativeGates(
        benchmarkFamily("cuccaro").make(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        InteractionModel im(c);
        benchmark::DoNotOptimize(im.totalWeight(0));
    }
}
BENCHMARK(BM_InteractionModel)->Arg(10)->Arg(20)->Arg(40);

void
BM_Mapping(benchmark::State &state)
{
    const Circuit c = decomposeToNativeGates(
        benchmarkFamily("cuccaro").make(static_cast<int>(state.range(0))));
    const Topology topo = Topology::grid(c.numQubits());
    const ExpandedGraph xg(topo);
    const CostModel cost(xg, kLib);
    const InteractionModel im(c);
    MapperOptions opts;
    opts.allowDynamicSlot1 = true;
    for (auto _ : state) {
        Layout layout = mapCircuit(c, im, cost, opts);
        benchmark::DoNotOptimize(layout.numMapped());
    }
}
BENCHMARK(BM_Mapping)->Arg(10)->Arg(20)->Arg(40);

void
BM_FullPipeline(benchmark::State &state)
{
    const Circuit c =
        benchmarkFamily("cuccaro").make(static_cast<int>(state.range(0)));
    const Topology topo = Topology::grid(c.numQubits());
    const auto strategy = makeStrategy("eqm");
    for (auto _ : state) {
        auto res = strategy->compile(c, topo, kLib);
        benchmark::DoNotOptimize(res.metrics.totalEps);
    }
}
BENCHMARK(BM_FullPipeline)->Arg(10)->Arg(20)->Arg(40);

/**
 * The same pipeline behind the CompilerService front end with the memo
 * cache off (capacity 0, so every request compiles) while pooled
 * contexts stay warm: measures the request/response overhead plus the
 * context-pool win over BM_FullPipeline's cold contexts.
 */
void
BM_ServiceColdRequest(benchmark::State &state)
{
    const Circuit c =
        benchmarkFamily("cuccaro").make(static_cast<int>(state.range(0)));
    const Topology topo = Topology::grid(c.numQubits());
    ServiceOptions opts;
    opts.cacheCapacity = 0;
    CompilerService service(opts);
    const CompileRequest req =
        CompileRequest::forCircuit(c, topo, "eqm", CompilerConfig{}, kLib);
    for (auto _ : state) {
        auto res = service.compileSync(req);
        benchmark::DoNotOptimize(res->metrics.totalEps);
    }
}
BENCHMARK(BM_ServiceColdRequest)->Arg(10)->Arg(20)->Arg(40);

/** Warm-path request throughput: every iteration is a memo-cache hit
 *  returning the shared artifact. */
void
BM_ServiceWarmRequest(benchmark::State &state)
{
    const Circuit c =
        benchmarkFamily("cuccaro").make(static_cast<int>(state.range(0)));
    const Topology topo = Topology::grid(c.numQubits());
    CompilerService service;
    const CompileRequest req =
        CompileRequest::forCircuit(c, topo, "eqm", CompilerConfig{}, kLib);
    service.compileSync(req); // populate
    for (auto _ : state) {
        auto res = service.compileSync(req);
        benchmark::DoNotOptimize(res->metrics.totalEps);
    }
}
BENCHMARK(BM_ServiceWarmRequest)->Arg(10)->Arg(20)->Arg(40);

void
BM_StrategyChoosePairs(benchmark::State &state)
{
    const std::vector<std::string> names = {"rb", "awe", "pp", "fq"};
    const std::string name = names[state.range(1)];
    const Circuit c = decomposeToNativeGates(
        benchmarkFamily("qaoa_random")
            .make(static_cast<int>(state.range(0))));
    const Topology topo = Topology::grid(c.numQubits());
    const auto strategy = makeStrategy(name);
    CompilerConfig cfg;
    for (auto _ : state) {
        auto pairs = strategy->choosePairs(c, topo, kLib, cfg);
        benchmark::DoNotOptimize(pairs.size());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_StrategyChoosePairs)
    ->ArgsProduct({{20, 30}, {0, 1, 2, 3}});

void
BM_Validation(benchmark::State &state)
{
    const Circuit c =
        benchmarkFamily("cuccaro").make(static_cast<int>(state.range(0)));
    const Topology topo = Topology::grid(c.numQubits());
    const auto res = makeStrategy("eqm")->compile(c, topo, kLib);
    for (auto _ : state)
        validateCompiled(res.compiled, topo);
}
BENCHMARK(BM_Validation)->Arg(20);

} // namespace

BENCHMARK_MAIN();
