/**
 * @file
 * CompilerService contract tests.
 *
 * The load-bearing suite is the bit-identity matrix: a service compile
 * must equal a direct CompressionStrategy::compile of the same inputs
 * -- compiled gates, metrics, compressions, layouts -- for every
 * standard strategy on ring/grid/heavyHex65, across {cache on/off} x
 * {serial, 2 and 8 concurrent callers}. The rest covers the memo
 * cache (hit rates, LRU eviction, capacity knob, shared artifacts,
 * coalesced concurrent duplicates), the context pool, the structured
 * unknown-strategy error, and the strategy-registry round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "circuits/bv.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/thread_pool.hh"
#include "ir/passes.hh"
#include "ir/serialize.hh"
#include "service/artifact_store.hh"
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

std::vector<Topology>
testTopologies()
{
    std::vector<Topology> topos;
    topos.push_back(Topology::ring(8));
    topos.push_back(Topology::grid(8));
    topos.push_back(Topology::heavyHex65());
    return topos;
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

/**
 * The acceptance matrix: every standard strategy on ring/grid/
 * heavyHex65, service vs direct, across cache configuration and the
 * number of concurrent callers.
 */
TEST(ServiceIdentity, MatchesDirectCompileEverywhere)
{
    const Circuit circuit = bernsteinVazirani(8);
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;

    const auto topos = testTopologies();
    const auto strategies = standardStrategies();

    // Direct references, one per (strategy, topology).
    std::vector<CompileResult> direct;
    std::vector<CompileRequest> reqs;
    for (const auto &strat : strategies) {
        for (const auto &topo : topos) {
            direct.push_back(strat->compile(circuit, topo, lib, cfg));
            reqs.push_back(CompileRequest::forCircuit(
                circuit, topo, strat->name(), cfg, lib));
        }
    }

    for (std::size_t cache_cap : {std::size_t(0), std::size_t(64)}) {
        for (int lanes : {1, 2, 8}) {
            ServiceOptions opts;
            opts.cacheCapacity = cache_cap;
            CompilerService service(opts);
            // Cold, then again on the same service (warm with the
            // cache on, recompiled with it off) -- both must match.
            for (int pass = 0; pass < 2; ++pass) {
                const auto arts = compileFromLanes(service, reqs, lanes);
                for (std::size_t i = 0; i < reqs.size(); ++i) {
                    EXPECT_TRUE(sameResult(*arts[i], direct[i],
                                           circuit.numQubits()))
                        << "cache=" << cache_cap << " lanes=" << lanes
                        << " pass=" << pass << " req=" << i;
                }
            }
        }
    }
}

TEST(ServiceCache, WarmPassHitsEveryRequest)
{
    const Circuit circuit = bernsteinVazirani(6);
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;

    CompilerService service;
    std::vector<CompileRequest> reqs;
    for (const auto &name : {"qubit_only", "eqm", "rb", "awe", "pp"})
        reqs.push_back(CompileRequest::forCircuit(circuit, topo, name,
                                                  CompilerConfig{}, lib));

    std::vector<CompileArtifact> first;
    for (const auto &r : reqs)
        first.push_back(service.compileSync(r));
    ServiceStats s1 = service.stats();
    EXPECT_EQ(s1.requests, reqs.size());
    EXPECT_EQ(s1.misses, reqs.size());
    EXPECT_EQ(s1.hits, 0u);
    EXPECT_EQ(s1.cacheSize, reqs.size());

    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const CompileArtifact again = service.compileSync(reqs[i]);
        // A hit returns the *same* shared immutable artifact.
        EXPECT_EQ(again.get(), first[i].get());
    }
    ServiceStats s2 = service.stats();
    EXPECT_EQ(s2.hits, reqs.size());
    EXPECT_EQ(s2.misses, reqs.size());
}

TEST(ServiceCache, LruEvictionAndCapacityKnob)
{
    const GateLibrary lib;
    const Topology topo = Topology::grid(6);

    ServiceOptions opts;
    opts.cacheCapacity = 2;
    CompilerService service(opts);

    auto req = [&](const char *strategy) {
        return CompileRequest::forCircuit(bernsteinVazirani(6), topo,
                                          strategy, CompilerConfig{},
                                          lib);
    };

    service.compileSync(req("eqm"));        // {eqm}
    service.compileSync(req("rb"));         // {rb, eqm}
    service.compileSync(req("awe"));        // {awe, rb} -- eqm evicted
    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.cacheSize, 2u);

    service.compileSync(req("eqm")); // recompiles (was evicted)
    EXPECT_EQ(service.stats().misses, 4u);
}

TEST(ServiceCache, DisabledCacheStillIdentical)
{
    const Circuit circuit = bernsteinVazirani(6);
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;
    ServiceOptions opts;
    opts.cacheCapacity = 0;
    CompilerService service(opts);
    const auto req = CompileRequest::forCircuit(circuit, topo, "eqm",
                                                CompilerConfig{}, lib);
    const CompileArtifact a = service.compileSync(req);
    const CompileArtifact b = service.compileSync(req);
    EXPECT_NE(a.get(), b.get()); // distinct compiles...
    EXPECT_TRUE(sameResult(*a, *b, circuit.numQubits())); // ...same bits
    EXPECT_EQ(service.stats().hits, 0u);
    EXPECT_EQ(service.stats().misses, 2u);
}

TEST(ServiceContextPool, ReusesWarmContextsAcrossRequests)
{
    const Topology topo = Topology::grid(8);
    const GateLibrary lib;
    ServiceOptions opts;
    opts.cacheCapacity = 0; // force real compiles
    CompilerService service(opts);

    // Same topology/library/config pricing, different strategies and
    // circuits: one context serves all four compiles back to back.
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(8), topo, "eqm", CompilerConfig{}, lib));
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(8), topo, "rb", CompilerConfig{}, lib));
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(7), topo, "eqm", CompilerConfig{}, lib));
    service.compileSync(CompileRequest::forCircuit(
        benchmarkFamily("bv").make(8), topo, "awe", CompilerConfig{}, lib));
    ServiceStats s = service.stats();
    EXPECT_EQ(s.contextsCreated, 1u);
    EXPECT_EQ(s.contextsReused, 3u);
    EXPECT_EQ(s.pooledContexts, 1u);

    // A different pricing configuration gets its own context.
    CompilerConfig nocache;
    nocache.useDistanceCache = false;
    service.compileSync(CompileRequest::forCircuit(
        bernsteinVazirani(8), topo, "eqm", nocache, lib));
    EXPECT_EQ(service.stats().contextsCreated, 2u);

    // clearCache drops pooled contexts too.
    service.clearCache();
    EXPECT_EQ(service.stats().pooledContexts, 0u);
}

TEST(ServiceContextPool, DisabledPoolBuildsColdContexts)
{
    const Topology topo = Topology::grid(6);
    ServiceOptions opts;
    opts.cacheCapacity = 0;
    opts.contextPoolCapacity = 0;
    CompilerService service(opts);
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(6), topo, "eqm", CompilerConfig{}, {});
    service.compileSync(req);
    service.compileSync(req);
    ServiceStats s = service.stats();
    EXPECT_EQ(s.contextsCreated, 2u);
    EXPECT_EQ(s.contextsReused, 0u);
    EXPECT_EQ(s.pooledContexts, 0u);
}

TEST(ServiceRequests, ConcurrentDuplicatesShareOneArtifact)
{
    CompilerService service;
    const std::vector<CompileRequest> reqs(
        4, CompileRequest::forCircuit(bernsteinVazirani(6),
                                      Topology::grid(6), "eqm"));
    std::set<const CompileResult *> distinct;
    for (const CompileArtifact &art : compileFromLanes(service, reqs, 8))
        distinct.insert(art.get());
    EXPECT_EQ(distinct.size(), 1u);
    // Whatever the interleaving, every request is accounted for as
    // exactly one of miss (the compiling owner), coalesced (waited on
    // the owner), or hit (arrived after completion).
    ServiceStats s = service.stats();
    EXPECT_EQ(s.misses + s.coalesced + s.hits, 4u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(ServiceErrors, UnknownStrategyListsValidNames)
{
    try {
        makeStrategy("definitely_not_a_strategy");
        FAIL() << "makeStrategy should have thrown";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("definitely_not_a_strategy"),
                  std::string::npos);
        for (const auto &name : strategyNames())
            EXPECT_NE(msg.find(name), std::string::npos)
                << "error message should list '" << name << "'";
    }

    // The same structured error surfaces through the service.
    CompilerService service;
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(4), Topology::grid(4), "nope");
    EXPECT_THROW(service.compileSync(req), FatalError);
    // Failures are not cached.
    EXPECT_EQ(service.stats().cacheSize, 0u);
}

TEST(StrategyRegistry, RoundTripsEveryName)
{
    const auto &names = strategyNames();
    ASSERT_FALSE(names.empty());
    for (const auto &name : names) {
        const auto strategy = makeStrategy(name);
        ASSERT_NE(strategy, nullptr);
        EXPECT_EQ(strategy->name(), name);
    }
    // The standard evaluation set is a subset of the registry.
    for (const auto &strat : standardStrategies()) {
        EXPECT_NE(std::find(names.begin(), names.end(), strat->name()),
                  names.end());
    }
}

// ------------------------------------------------------------------
// Byte-size-aware LRU + disk tier
// ------------------------------------------------------------------

/** The extended accounting identity every stats snapshot must satisfy:
 *  each processed request is exactly one of the five outcomes. */
::testing::AssertionResult
partitionHolds(const ServiceStats &s)
{
    if (s.requests != s.hits + s.templateHits + s.diskHits + s.misses +
                          s.coalesced)
        return ::testing::AssertionFailure()
               << "requests=" << s.requests << " != hits=" << s.hits
               << " + templateHits=" << s.templateHits
               << " + diskHits=" << s.diskHits
               << " + misses=" << s.misses
               << " + coalesced=" << s.coalesced;
    return ::testing::AssertionSuccess();
}

/** Parameterized 6-qubit circuit; same structure for every angle, so
 *  every serialized artifact has the same byte size. */
Circuit
angleCircuit(double angle)
{
    Circuit c(6, "angles");
    for (QubitId q = 0; q < 6; ++q)
        c.h(q);
    c.rz(angle, 0);
    c.cx(0, 1);
    c.cx(2, 3);
    return c;
}

std::string
serviceStorePath(const char *tag)
{
    const std::string path =
        ::testing::TempDir() + "qompress_svc_" + tag + ".log";
    std::remove(path.c_str());
    return path;
}

TEST(ServiceByteBudget, EvictsInLruOrderUnderBytePressure)
{
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;

    // Learn the (uniform) serialized artifact size first.
    CompilerService probe;
    const std::size_t unit =
        encodeCompileResult(*probe.compileSync(CompileRequest::forCircuit(
                                angleCircuit(0.1), topo, "eqm",
                                CompilerConfig{}, lib)))
            .size();
    ASSERT_GT(unit, 0u);

    ServiceOptions opts;
    opts.cacheBytesCapacity = 2 * unit; // room for exactly two
    opts.templateCacheCapacity = 0;     // isolate the memo tier
    CompilerService service(opts);
    auto req = [&](double angle) {
        return CompileRequest::forCircuit(angleCircuit(angle), topo,
                                          "eqm", CompilerConfig{}, lib);
    };

    service.compileSync(req(0.1)); // {a}
    service.compileSync(req(0.2)); // {b, a}
    EXPECT_EQ(service.stats().sizeEvictions, 0u);
    EXPECT_EQ(service.stats().bytesInUse, 2 * unit);

    service.compileSync(req(0.3)); // {c, b} -- a evicted (LRU)
    ServiceStats s = service.stats();
    EXPECT_EQ(s.sizeEvictions, 1u);
    EXPECT_EQ(s.evictions, 0u); // entry cap untouched: distinct counters
    EXPECT_EQ(s.cacheSize, 2u);
    EXPECT_LE(s.bytesInUse, s.bytesCapacity);

    service.compileSync(req(0.2)); // hit -- b now most recent
    EXPECT_EQ(service.stats().hits, 1u);
    service.compileSync(req(0.1)); // miss (was evicted); evicts c
    s = service.stats();
    EXPECT_EQ(s.sizeEvictions, 2u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_TRUE(partitionHolds(s));

    // An artifact larger than the whole budget is not retained at all.
    ServiceOptions tiny;
    tiny.cacheBytesCapacity = 1;
    tiny.templateCacheCapacity = 0;
    CompilerService cramped(tiny);
    cramped.compileSync(req(0.5));
    cramped.compileSync(req(0.5)); // recompiles: nothing stuck
    ServiceStats t = cramped.stats();
    EXPECT_EQ(t.misses, 2u);
    EXPECT_EQ(t.cacheSize, 0u);
    EXPECT_EQ(t.bytesInUse, 0u);
    EXPECT_EQ(t.sizeEvictions, 2u);
}

TEST(ServiceDiskTier, OffByDefaultLeavesBehaviorUnchanged)
{
    CompilerService service;
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "eqm");
    service.compileSync(req);
    service.compileSync(req);
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.diskWrites, 0u);
    EXPECT_EQ(s.storeRecords, 0u);
    EXPECT_EQ(s.storeBytes, 0u);
    EXPECT_EQ(s.bytesInUse, 0u); // lazy charging: no encode happened
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_TRUE(partitionHolds(s));
}

TEST(ServiceDiskTier, RestartWarmServesCatalogWithZeroCompiles)
{
    const std::string path = serviceStorePath("restart");
    const GateLibrary lib;
    const CompilerConfig cfg;

    // A catalog of five distinct requests, parameterized ones included.
    std::vector<CompileRequest> catalog;
    catalog.push_back(CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "eqm", cfg, lib));
    catalog.push_back(CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "rb", cfg, lib));
    catalog.push_back(CompileRequest::forCircuit(
        bernsteinVazirani(7), Topology::ring(8), "eqm", cfg, lib));
    catalog.push_back(CompileRequest::forCircuit(
        angleCircuit(0.25), Topology::grid(6), "eqm", cfg, lib));
    catalog.push_back(CompileRequest::forCircuit(
        benchmarkFamily("qaoa_random").make(8), Topology::grid(8), "awe",
        cfg, lib));

    std::vector<CompileArtifact> first;
    {
        ServiceOptions opts;
        opts.storePath = path;
        CompilerService service(opts);
        for (const auto &req : catalog)
            first.push_back(service.compileSync(req));
        const ServiceStats s = service.stats();
        EXPECT_EQ(s.misses, catalog.size());
        EXPECT_EQ(s.diskWrites, catalog.size());
        EXPECT_EQ(s.storeRecords, catalog.size());
        EXPECT_GT(s.storeBytes, 0u);
        EXPECT_TRUE(partitionHolds(s));
    }

    // The warm-restart proof: a new service on the same store serves
    // the whole catalog without one full compile, bit-identically.
    ServiceOptions opts;
    opts.storePath = path;
    CompilerService restarted(opts);
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const CompileArtifact art = restarted.compileSync(catalog[i]);
        EXPECT_TRUE(sameResult(*art, *first[i],
                               catalog[i].circuit.numQubits()))
            << "catalog entry " << i;
    }
    const ServiceStats s = restarted.stats();
    EXPECT_EQ(s.misses, 0u);           // zero full compiles...
    EXPECT_EQ(s.contextsCreated, 0u);  // ...so no context was built
    EXPECT_EQ(s.diskHits, catalog.size());
    EXPECT_EQ(s.diskWrites, 0u); // nothing new to persist
    EXPECT_TRUE(partitionHolds(s));

    // Second pass is served by the (now warm) memo tier, not the disk.
    for (const auto &req : catalog)
        restarted.compileSync(req);
    const ServiceStats s2 = restarted.stats();
    EXPECT_EQ(s2.hits, catalog.size());
    EXPECT_EQ(s2.diskHits, catalog.size());
    EXPECT_TRUE(partitionHolds(s2));
    std::remove(path.c_str());
}

TEST(ServiceDiskTier, RebindArtifactsArePersistedToo)
{
    const std::string path = serviceStorePath("rebind");
    const Topology topo = Topology::grid(6);
    const GateLibrary lib;

    std::vector<CompileArtifact> first;
    {
        ServiceOptions opts;
        opts.storePath = path;
        CompilerService service(opts);
        // angle 0.1 full-compiles and plants a template; angle 0.2 is
        // served by rebind -- and must STILL be written behind, or a
        // restarted service's warmth would depend on request order.
        first.push_back(service.compileSync(CompileRequest::forCircuit(
            angleCircuit(0.1), topo, "eqm", CompilerConfig{}, lib)));
        first.push_back(service.compileSync(CompileRequest::forCircuit(
            angleCircuit(0.2), topo, "eqm", CompilerConfig{}, lib)));
        const ServiceStats s = service.stats();
        EXPECT_EQ(s.templateHits, 1u);
        EXPECT_EQ(s.diskWrites, 2u);
        EXPECT_EQ(s.storeRecords, 2u);
        EXPECT_TRUE(partitionHolds(s));
    }

    // New service, REBOUND artifact requested first: disk hit, no
    // compile, bit-identical to the first boot's rebind.
    ServiceOptions opts;
    opts.storePath = path;
    CompilerService restarted(opts);
    const CompileArtifact again =
        restarted.compileSync(CompileRequest::forCircuit(
            angleCircuit(0.2), topo, "eqm", CompilerConfig{}, lib));
    EXPECT_TRUE(sameResult(*again, *first[1], 6));
    const ServiceStats s = restarted.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.misses, 0u);

    // The disk-loaded artifact planted a template: a THIRD angle is
    // served by rebind, not a full compile.
    restarted.compileSync(CompileRequest::forCircuit(
        angleCircuit(0.3), topo, "eqm", CompilerConfig{}, lib));
    const ServiceStats s2 = restarted.stats();
    EXPECT_EQ(s2.templateHits, 1u);
    EXPECT_EQ(s2.misses, 0u);
    EXPECT_TRUE(partitionHolds(s2));
    std::remove(path.c_str());
}

TEST(ServiceDiskTier, CorruptStoreRecordFallsBackToCompile)
{
    const std::string path = serviceStorePath("corrupt");
    const auto req = CompileRequest::forCircuit(
        bernsteinVazirani(6), Topology::grid(6), "eqm");
    CompileArtifact direct;
    {
        ServiceOptions opts;
        opts.storePath = path;
        CompilerService service(opts);
        direct = service.compileSync(req);
    }
    {
        // Corrupt the stored record's payload (the frame CRC guards
        // the log scan, so flip a byte AND fix nothing: recovery drops
        // the frame; the service must quietly recompile).
        std::FILE *f = std::fopen(path.c_str(), "r+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, -9, SEEK_END);
        const int c = std::fgetc(f);
        std::fseek(f, -9, SEEK_END);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }
    ServiceOptions opts;
    opts.storePath = path;
    CompilerService service(opts);
    const CompileArtifact art = service.compileSync(req);
    EXPECT_TRUE(sameResult(*art, *direct, 6));
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_TRUE(partitionHolds(s));
    std::remove(path.c_str());
}

TEST(ServiceFingerprints, ComponentsDistinguishContent)
{
    const Topology g8 = Topology::grid(8);
    EXPECT_EQ(topologyFingerprint(g8),
              topologyFingerprint(Topology::grid(8)));
    EXPECT_NE(topologyFingerprint(g8),
              topologyFingerprint(Topology::ring(8)));

    GateLibrary lib;
    const std::uint64_t base = libraryFingerprint(lib);
    EXPECT_EQ(base, libraryFingerprint(GateLibrary{}));
    lib.setT1(GateLibrary::kT1QubitNs, GateLibrary::kT1QuquartNs * 2);
    EXPECT_NE(base, libraryFingerprint(lib));

    CompilerConfig a, b;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));
    b.lookaheadWeight = 0.5;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    // threads is lane count, not content: results are lane-invariant,
    // so it must not split the cache.
    CompilerConfig c;
    c.threads = 8;
    EXPECT_EQ(configFingerprint(a), configFingerprint(c));
}

} // namespace
} // namespace qompress
