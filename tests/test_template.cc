/**
 * @file
 * Template-compilation contract tests.
 *
 * The load-bearing suite is rebind-vs-full bit-identity: a
 * CompileResult produced by substituting new angles into a
 * CompiledTemplate must equal a from-scratch compile of the same
 * instance -- compiled gates, metrics, compressions, layouts -- for
 * every standard strategy on ring/grid/heavyHex65, at 1/2/8 lanes.
 * The rest covers the service's template tier (counters, the
 * fullCompile opt-out, LRU eviction, the unparameterized bypass),
 * fused SqEncBoth parameter pairs, and runSweep's angle-grid fast
 * path. Runs under TSan CI via the threads+service labels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "arch/device.hh"
#include "circuits/bv.hh"
#include "circuits/qaoa.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/thread_pool.hh"
#include "compiler/rebind.hh"
#include "eval/sweep.hh"
#include "ir/fingerprint.hh"
#include "ir/passes.hh"
#include "service/compiler_service.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

bool
samePhysGates(const CompiledCircuit &a, const CompiledCircuit &b)
{
    if (a.numGates() != b.numGates())
        return false;
    for (int i = 0; i < a.numGates(); ++i) {
        const PhysGate &x = a.gates()[i];
        const PhysGate &y = b.gates()[i];
        if (x.cls != y.cls || x.slots != y.slots ||
            x.logical != y.logical || x.logical2 != y.logical2 ||
            x.param != y.param || x.param2 != y.param2 ||
            x.isRouting != y.isRouting || x.sourceGate != y.sourceGate ||
            x.sourceGate2 != y.sourceGate2 ||
            x.start != y.start || x.duration != y.duration ||
            x.fidelity != y.fidelity)
            return false;
    }
    return true;
}

bool
sameLayout(const Layout &a, const Layout &b, int num_qubits)
{
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (a.slotOf(q) != b.slotOf(q))
            return false;
    }
    return true;
}

::testing::AssertionResult
sameResult(const CompileResult &a, const CompileResult &b,
           int num_qubits)
{
    if (!samePhysGates(a.compiled, b.compiled))
        return ::testing::AssertionFailure() << "physical gates differ";
    if (a.compressions != b.compressions)
        return ::testing::AssertionFailure() << "compressions differ";
    if (a.metrics.gateEps != b.metrics.gateEps ||
        a.metrics.coherenceEps != b.metrics.coherenceEps ||
        a.metrics.totalEps != b.metrics.totalEps ||
        a.metrics.durationNs != b.metrics.durationNs ||
        a.metrics.numGates != b.metrics.numGates ||
        a.metrics.numRoutingGates != b.metrics.numRoutingGates ||
        a.metrics.numTwoUnitGates != b.metrics.numTwoUnitGates ||
        a.metrics.numEncodedUnits != b.metrics.numEncodedUnits ||
        a.metrics.classHistogram != b.metrics.classHistogram ||
        a.metrics.qubitTimeNs != b.metrics.qubitTimeNs ||
        a.metrics.ququartTimeNs != b.metrics.ququartTimeNs)
        return ::testing::AssertionFailure() << "metrics differ";
    if (!sameLayout(a.compiled.initialLayout(),
                    b.compiled.initialLayout(), num_qubits) ||
        !sameLayout(a.compiled.finalLayout(), b.compiled.finalLayout(),
                    num_qubits))
        return ::testing::AssertionFailure() << "layouts differ";
    return ::testing::AssertionSuccess();
}

/** Serve @p reqs from @p lanes concurrent callers of one service
 *  (1 = serially); artifacts come back in request order. */
std::vector<CompileArtifact>
compileFromLanes(CompilerService &service,
                 const std::vector<CompileRequest> &reqs, int lanes)
{
    std::vector<CompileArtifact> arts(reqs.size());
    ThreadPool(lanes).parallelFor(
        0, reqs.size(),
        [&](std::size_t i, int) { arts[i] = service.compileSync(reqs[i]); });
    return arts;
}

std::vector<Topology>
testTopologies()
{
    std::vector<Topology> topos;
    topos.push_back(Topology::ring(8));
    topos.push_back(Topology::grid(8));
    topos.push_back(Topology::heavyHex65());
    return topos;
}

/** A parameterized 8-qubit workload with dense 1q-rotation layers
 *  (so encoding strategies fuse some pairs into SqEncBoth) and a CCX
 *  (so decomposition runs and the slot map must survive it). */
Circuit
angleFixture(const std::vector<double> &angles, const std::string &name)
{
    Circuit c(8, name);
    std::size_t k = 0;
    auto next = [&] { return angles[k++ % angles.size()]; };
    for (int q = 0; q < 8; ++q)
        c.h(q);
    for (int layer = 0; layer < 2; ++layer) {
        for (int q = 0; q + 1 < 8; q += 2) {
            c.cx(q, q + 1);
            c.rz(next(), q + 1);
            c.cx(q, q + 1);
        }
        for (int q = 1; q + 1 < 8; q += 2) {
            c.cx(q, q + 1);
            c.rz(next(), q + 1);
            c.cx(q, q + 1);
        }
        for (int q = 0; q < 8; ++q)
            c.rx(next(), q);
    }
    c.ccx(0, 1, 2);
    for (int q = 0; q < 8; ++q)
        c.ry(next(), q);
    return c;
}

std::vector<double>
anglesA()
{
    return {0.3, 1.1, 2.7, 0.05};
}

std::vector<double>
anglesB()
{
    return {1.9, 0.4, 3.05, 2.2, 0.7};
}

std::vector<double>
anglesC()
{
    return {0.01, 2.9};
}

// ------------------------------------------------------------------
// Direct rebind API (no service)
// ------------------------------------------------------------------

/** A calibration for @p topo that prices unlike the library
 *  defaults: per-unit qubit T1s from 30 to 56 us, a 20 us ququart T1
 *  and 5% readout error on every unit. */
std::shared_ptr<const DeviceCalibration>
skewedCalibration(const Topology &topo)
{
    const int units = topo.numUnits();
    DeviceCalibration cal = DeviceCalibration::uniform(
        topo.name(), units, 30'000.0, 20'000.0, 0.05);
    for (int u = 0; u < units; ++u)
        cal.t1QubitNs[u] = 30'000.0 + 26'000.0 * u / units;
    return std::make_shared<const DeviceCalibration>(std::move(cal));
}

TEST(TemplateRebind, MatchesFullCompileForEveryStrategyAndTopology)
{
    const Circuit exemplar = angleFixture(anglesA(), "angles");
    const Circuit other = angleFixture(anglesB(), "angles");
    const GateLibrary lib;
    CompilerConfig plain;
    plain.lookaheadWeight = 0.5;

    ASSERT_EQ(structuralCircuitFingerprint(exemplar).value,
              structuralCircuitFingerprint(other).value);

    for (const auto &topo : testTopologies()) {
        CompilerConfig calibrated = plain;
        calibrated.calibration = skewedCalibration(topo);
        for (const CompilerConfig *cfg : {&plain, &calibrated}) {
            const char *pricing =
                cfg->calibration ? " (calibrated)" : "";
            for (const auto &strat : standardStrategies()) {
                CompileResult base;
                try {
                    base = strat->compile(exemplar, topo, lib, *cfg);
                } catch (const FatalError &) {
                    continue; // strategy cannot fit this topology
                }
                const CompiledTemplate tpl = makeTemplate(
                    std::make_shared<const CompileResult>(base),
                    exemplar);
                EXPECT_GT(tpl.numParamSlots, 0u);
                EXPECT_EQ(tpl.numParamSlots,
                          structuralCircuitFingerprint(exemplar)
                              .paramGates.size());

                const CompileResult rebound = rebindTemplate(
                    tpl, other, lib, cfg->calibration.get());
                const CompileResult direct =
                    strat->compile(other, topo, lib, *cfg);
                EXPECT_TRUE(
                    sameResult(rebound, direct, other.numQubits()))
                    << strat->name() << " on " << topo.name() << pricing;
                EXPECT_EQ(rebound.compiled.name(), other.name());
            }
        }
    }
}

TEST(TemplateRebind, PatchesFusedSqEncBothPairs)
{
    // On a ring, eqm pairs the heavily interacting neighbours; the
    // back-to-back rx layers on paired qubits fuse into SqEncBoth
    // physical gates whose param AND param2 must rebind.
    const Circuit exemplar = angleFixture(anglesA(), "angles");
    const Circuit other = angleFixture(anglesC(), "angles");
    const GateLibrary lib;
    const Topology topo = Topology::ring(8);
    const auto strat = makeStrategy("eqm");

    const CompileResult base = strat->compile(exemplar, topo, lib, {});
    int fused_params = 0;
    for (const auto &pg : base.compiled.gates()) {
        if (pg.cls == PhysGateClass::SqEncBoth &&
            gateHasParam(pg.logical) && gateHasParam(pg.logical2))
            ++fused_params;
    }
    ASSERT_GT(fused_params, 0)
        << "fixture no longer exercises fused parameterized pairs";

    const CompiledTemplate tpl = makeTemplate(
        std::make_shared<const CompileResult>(base), exemplar);
    const CompileResult rebound = rebindTemplate(tpl, other, lib);
    const CompileResult direct = strat->compile(other, topo, lib, {});
    EXPECT_TRUE(sameResult(rebound, direct, other.numQubits()));
}

TEST(TemplateRebind, SlotCountMismatchPanics)
{
    const Circuit exemplar = angleFixture(anglesA(), "angles");
    const GateLibrary lib;
    const auto strat = makeStrategy("qubit_only");
    const CompileResult base =
        strat->compile(exemplar, Topology::grid(8), lib, {});
    const CompiledTemplate tpl = makeTemplate(
        std::make_shared<const CompileResult>(base), exemplar);

    Circuit extra = exemplar;
    extra.rz(0.5, 0); // one more slot than the template
    EXPECT_THROW(rebindTemplate(tpl, extra, lib), PanicError);
}

// ------------------------------------------------------------------
// Service template tier
// ------------------------------------------------------------------

TEST(ServiceTemplateTier, ServesAngleVariantsByRebindEverywhere)
{
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;
    const Circuit a = angleFixture(anglesA(), "angles");
    const Circuit b = angleFixture(anglesB(), "angles");
    const Circuit c = angleFixture(anglesC(), "angles");

    for (const auto &topo : testTopologies()) {
        for (int lanes : {1, 2, 8}) {
            CompilerService service;
            std::uint64_t expect_hits = 0;
            for (const auto &strat : standardStrategies()) {
                CompileResult direct_b, direct_c;
                try {
                    direct_b = strat->compile(b, topo, lib, cfg);
                    direct_c = strat->compile(c, topo, lib, cfg);
                } catch (const FatalError &) {
                    continue;
                }
                // Warm the template with one full compile, then let
                // the variants race across the lanes.
                service.compileSync(CompileRequest::forCircuit(
                    a, topo, strat->name(), cfg, lib));
                const auto arts = compileFromLanes(
                    service,
                    {CompileRequest::forCircuit(b, topo, strat->name(),
                                                cfg, lib),
                     CompileRequest::forCircuit(c, topo, strat->name(),
                                                cfg, lib)},
                    lanes);
                expect_hits += 2;
                EXPECT_TRUE(sameResult(*arts[0], direct_b,
                                       b.numQubits()))
                    << strat->name() << " on " << topo.name() << " at "
                    << lanes << " lanes";
                EXPECT_TRUE(sameResult(*arts[1], direct_c,
                                       c.numQubits()))
                    << strat->name() << " on " << topo.name() << " at "
                    << lanes << " lanes";
            }
            const ServiceStats s = service.stats();
            EXPECT_EQ(s.templateHits, expect_hits);
            EXPECT_EQ(s.requests,
                      s.hits + s.templateHits + s.misses + s.coalesced);
        }
    }
}

TEST(ServiceTemplateTier, FullCompileKnobBypassesTheTier)
{
    const GateLibrary lib;
    const Topology topo = Topology::grid(8);
    const Circuit a = angleFixture(anglesA(), "angles");
    const Circuit b = angleFixture(anglesB(), "angles");

    CompilerService service;
    service.compileSync(
        CompileRequest::forCircuit(a, topo, "eqm", {}, lib));
    ASSERT_EQ(service.stats().templateSize, 1u);

    auto full = CompileRequest::forCircuit(b, topo, "eqm", {}, lib);
    full.fullCompile = true;
    const CompileArtifact via_full = service.compileSync(full);
    ServiceStats s = service.stats();
    EXPECT_EQ(s.templateHits, 0u);
    EXPECT_EQ(s.misses, 2u);

    // Without the knob the same request is an exact-tier hit now (the
    // full compile populated it); clear and re-run to see the rebind.
    service.clearCache();
    service.compileSync(
        CompileRequest::forCircuit(a, topo, "eqm", {}, lib));
    const CompileArtifact via_rebind = service.compileSync(
        CompileRequest::forCircuit(b, topo, "eqm", {}, lib));
    s = service.stats();
    EXPECT_EQ(s.templateHits, 1u);
    EXPECT_TRUE(sameResult(*via_full, *via_rebind, b.numQubits()));
}

TEST(ServiceTemplateTier, UnparameterizedCircuitsBypassTheTier)
{
    const GateLibrary lib;
    const Topology topo = Topology::grid(8);
    CompilerService service;
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(8), topo, "eqm", {}, lib));
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.templateSize, 0u);
    EXPECT_EQ(s.templateHits, 0u);
    EXPECT_EQ(s.templateMisses, 0u);
}

TEST(ServiceTemplateTier, DisabledTierCompilesEveryVariant)
{
    const GateLibrary lib;
    const Topology topo = Topology::grid(8);
    ServiceOptions opts;
    opts.templateCacheCapacity = 0;
    CompilerService service(opts);
    service.compileSync(CompileRequest::forCircuit(
        angleFixture(anglesA(), "angles"), topo, "eqm", {}, lib));
    service.compileSync(CompileRequest::forCircuit(
        angleFixture(anglesB(), "angles"), topo, "eqm", {}, lib));
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.templateHits, 0u);
    EXPECT_EQ(s.templateSize, 0u);
    EXPECT_EQ(s.misses, 2u);
}

TEST(ServiceTemplateTier, LruEvictionDropsColdStructures)
{
    const GateLibrary lib;
    const Topology topo = Topology::grid(8);
    ServiceOptions opts;
    opts.templateCacheCapacity = 2;
    CompilerService service(opts);

    // Three structurally distinct parameterized circuits.
    auto structure = [](int variant) {
        Circuit c(8, "s" + std::to_string(variant));
        for (int q = 0; q < 8; ++q)
            c.rx(0.4, q);
        for (int g = 0; g <= variant; ++g)
            c.cx(g, g + 1);
        return c;
    };
    for (int v = 0; v < 3; ++v)
        service.compileSync(CompileRequest::forCircuit(
            structure(v), topo, "eqm", {}, lib));
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.templateSize, 2u);
    EXPECT_EQ(s.templateCapacity, 2u);
    EXPECT_EQ(s.templateEvictions, 1u);

    // Structure 0 was evicted: an angle variant of it misses.
    Circuit variant = bindParams(structure(0), {1.9});
    service.compileSync(CompileRequest::forCircuit(
        variant, topo, "eqm", {}, lib));
    EXPECT_EQ(service.stats().templateHits, 0u);
    EXPECT_EQ(service.stats().templateMisses, 4u);
}

// ------------------------------------------------------------------
// runSweep angle grids
// ------------------------------------------------------------------

TEST(SweepParamGrid, AngleGridIsServedByTheTemplateTier)
{
    // A >= 20-point angle grid over one structure: the first cell
    // full-compiles, everything after is a rebind (serial lanes make
    // the count exact).
    SweepSpec spec;
    spec.families = {"qaoa_random"};
    spec.sizes = {8};
    spec.strategies = {"awe"};
    spec.threads = 1;
    for (int i = 0; i < 21; ++i)
        spec.paramGrid.push_back(
            {0.1 + 0.13 * i, 2.9 - 0.11 * i});
    ServiceStats stats;
    spec.serviceStats = &stats;

    const auto records = runSweep(spec);
    ASSERT_EQ(records.size(), 21u);
    for (int i = 0; i < 21; ++i) {
        EXPECT_EQ(records[i].paramRow, i);
        EXPECT_GT(records[i].qubits, 0);
        EXPECT_GT(records[i].metrics.totalEps, 0.0);
    }
    EXPECT_EQ(stats.requests, 21u);
    EXPECT_EQ(stats.templateHits, 20u);
    EXPECT_EQ(stats.misses, 1u);

    // The angles differ, so the schedule-independent metrics agree
    // across rows while the compiled parameters do not collide into
    // one memoized artifact (every row was a distinct request).
    EXPECT_EQ(stats.hits, 0u);
}

TEST(SweepParamGrid, ParallelGridMatchesSerialGrid)
{
    SweepSpec spec;
    spec.families = {"qaoa_random"};
    spec.sizes = {8};
    spec.strategies = {"awe", "eqm"};
    for (int i = 0; i < 6; ++i)
        spec.paramGrid.push_back({0.2 + 0.31 * i});

    SweepSpec serial = spec;
    serial.threads = 1;
    SweepSpec parallel = spec;
    parallel.threads = 4;
    ServiceStats pstats;
    parallel.serviceStats = &pstats;

    const auto a = runSweep(serial);
    const auto b = runSweep(parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].paramRow, b[i].paramRow);
        EXPECT_EQ(a[i].strategy, b[i].strategy);
        EXPECT_EQ(a[i].qubits, b[i].qubits);
        EXPECT_EQ(a[i].metrics.totalEps, b[i].metrics.totalEps);
        EXPECT_EQ(a[i].metrics.durationNs, b[i].metrics.durationNs);
        EXPECT_EQ(a[i].numCompressions, b[i].numCompressions);
    }
    // Racing lanes may full-compile a few extra rows before the
    // template lands, but the tier must carry the bulk of the grid.
    EXPECT_EQ(pstats.requests,
              pstats.hits + pstats.templateHits + pstats.misses +
                  pstats.coalesced);
    EXPECT_GE(pstats.templateHits, 1u);
}

TEST(SweepParamGrid, PortfolioRowsAreRebindsOfOneArtifact)
{
    // The sweep's service treats a portfolio compile as one artifact
    // like any other strategy's: the first row full-compiles (every
    // member), every later row rebinds that winner's template.
    SweepSpec spec;
    spec.families = {"qaoa_random"};
    spec.sizes = {8};
    spec.strategies = {"portfolio"};
    spec.threads = 1;
    for (int i = 0; i < 4; ++i)
        spec.paramGrid.push_back({0.15 + 0.4 * i, 1.7 - 0.2 * i});
    ServiceStats stats;
    spec.serviceStats = &stats;

    const auto rows = runSweep(spec);
    ASSERT_EQ(rows.size(), 4u);
    for (const auto &r : rows)
        EXPECT_GT(r.qubits, 0);
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.templateHits, 3u);

    // Rebinds change nothing: each row equals a direct portfolio
    // compile of its bound instance.
    const auto &family = benchmarkFamily("qaoa_random");
    const Circuit base = family.make(8);
    for (int i = 0; i < 4; ++i) {
        const Circuit inst = bindParams(base, spec.paramGrid[i]);
        const auto strat = makeStrategy("portfolio");
        const CompileResult direct = strat->compile(
            inst, Topology::grid(inst.numQubits()), GateLibrary{}, {});
        EXPECT_EQ(rows[i].metrics.totalEps, direct.metrics.totalEps)
            << "row " << i;
        EXPECT_EQ(rows[i].metrics.durationNs,
                  direct.metrics.durationNs)
            << "row " << i;
    }
}

} // namespace
} // namespace qompress
