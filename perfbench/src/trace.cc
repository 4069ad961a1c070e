/**
 * @file
 * The traced run: a workload's seeded requests replayed in-process
 * through each layer's public functions, one span per call.
 *
 * HTTP workloads replay what a qompressd worker does for a POST:
 * HTTP parse -> QASM parse -> CompilerService::compileSync ->
 * response. The tier that answered is read off the ServiceStats delta
 * (the replay is single-threaded, so exactly one counter moves), and
 * the work compileSync did inside is then replayed as child spans of
 * its span: device resolution and key fingerprints always; for a miss
 * also context build, choosePairs, decompose, map, route, schedule,
 * validate, metrics, encode, store append and template extraction; for
 * a template hit the rebind; for a disk hit the store load and decode.
 * Every replayed artifact must encode byte for byte like the one the
 * service returned.
 *
 * verify_small replays parse -> device -> staged compile ->
 * checkEquivalence, checked against a direct compile.
 *
 * A span's self time is its duration minus its children's. Replayed
 * children run after compileSync returns, so their durations stand in
 * for the part of compileSync they reproduce (clamped at zero).
 *
 * The named workload is replayed twice, with spans on and off; the
 * wall-time difference is the tracing overhead. Each other workload is
 * replayed once, shorter, so that every per-layer metric has a value:
 * a metric the named workload's traffic never reaches (the disk tier
 * on repeat_zipf, say) is taken from the workload that uses it.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "bench.hh"
#include "common/error.hh"
#include "common/strings.hh"
#include "compiler/mapper.hh"
#include "compiler/rebind.hh"
#include "compiler/router.hh"
#include "compiler/scheduler.hh"
#include "ir/fingerprint.hh"
#include "ir/interaction.hh"
#include "ir/passes.hh"
#include "ir/qasm.hh"
#include "ir/serialize.hh"
#include "server/http.hh"
#include "service/artifact_store.hh"
#include "sim/equivalence.hh"
#include "strategies/strategy.hh"

using namespace qompress;

namespace perfbench {

namespace {

/** Replayed traffic requests per second of --seconds (warm-up requests
 *  come on top). Sized so one traced run takes about --seconds. */
double
replayRate(const std::string &workload)
{
    if (workload == "repeat_zipf")
        return 2500.0;
    if (workload == "sweep_store")
        return 1000.0;
    if (workload == "unique_compile")
        return 25.0;
    return 30.0; // verify_small
}

/** Share of --seconds each other workload's short replay gets. */
constexpr double kSliceShare = 0.125;

/** Replays with spans off (and as many with spans on) behind
 *  trace.overhead_pct. */
constexpr int kOverheadRounds = 3;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct SpanRec
{
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint32_t request = 0;
    std::int64_t t0 = 0, t1 = 0;
};

/** In-memory span log. Switched off, it records nothing but still runs
 *  every wrapped call, so the two replays do the same work. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    int
    begin(std::string_view name, int parent, std::uint32_t request)
    {
        if (!on_)
            return -1;
        spans_.push_back({intern(name), parent, request, nowNs(), 0});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].t1 = nowNs();
    }

    void
    rename(int id, std::string_view name)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].name = intern(name);
    }

    /** Run @p f inside span @p name. */
    template <class F>
    decltype(auto)
    span(std::string_view name, int parent, std::uint32_t request, F &&f)
    {
        struct Closer
        {
            Tracer &t;
            int id;
            ~Closer() { t.end(id); }
        } closer{*this, begin(name, parent, request)};
        return f();
    }

    const std::vector<SpanRec> &spans() const { return spans_; }
    const std::vector<std::string> &names() const { return names_; }

  private:
    std::uint32_t
    intern(std::string_view name)
    {
        const auto [it, fresh] = ids_.emplace(
            std::string(name), static_cast<std::uint32_t>(names_.size()));
        if (fresh)
            names_.emplace_back(name);
        return it->second;
    }

    bool on_;
    std::vector<SpanRec> spans_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> ids_;
};

/** Per-layer metric name of a span: "ir.qasm_parse" -> "ir.qasm_parse_us",
 *  "strategies.choose_pairs.pp" -> "strategies.choose_pairs_us.pp". */
std::string
spanMetric(const std::string &span)
{
    const auto first = span.find('.');
    const auto second = span.find('.', first + 1);
    if (second == std::string::npos)
        return span + "_us";
    return span.substr(0, second) + "_us" + span.substr(second);
}

/** The /compile response body, field for field as qompressd builds it. */
std::string
responseBody(const std::string &strategy, const CompileResult &res)
{
    const Metrics &m = res.metrics;
    return format(
        "{\"name\": \"request\", \"strategy\": \"%s\", "
        "\"compressions\": %zu, \"gates\": %d, \"routing_gates\": %d, "
        "\"two_unit_gates\": %d, \"encoded_units\": %d, "
        "\"duration_ns\": %.1f, \"gate_eps\": %.6g, "
        "\"coherence_eps\": %.6g, \"total_eps\": %.6g}",
        jsonEscape(strategy).c_str(), res.compressions.size(), m.numGates,
        m.numRoutingGates, m.numTwoUnitGates, m.numEncodedUnits,
        m.durationNs, m.gateEps, m.coherenceEps, m.totalEps);
}

bool
parameterized(const Circuit &c)
{
    for (const Gate &g : c.gates())
        if (gateHasParam(g.type))
            return true;
    return false;
}

/** A pooled compile context with the inputs it points into. */
struct PooledContext
{
    PooledContext(Topology t, CompilerConfig c)
        : topo(std::move(t)), cfg(std::move(c))
    {
    }

    Topology topo;
    GateLibrary lib;
    CompilerConfig cfg;
    std::optional<CompileContext> ctx;
};

/** One replay of one workload. */
class Replay
{
  public:
    Replay(const Workload &w, bool traced, std::string outDir)
        : w_(w), tr_(traced), outDir_(std::move(outDir))
    {
    }

    /** Replay the warm-up list, then the first @p n traffic requests. */
    void
    run(std::size_t n)
    {
        std::vector<const Job *> &reqs = jobs_;
        for (const Job &j : w_.warm)
            reqs.push_back(&j);
        for (std::size_t i = 0; i < n && i < w_.seq.size(); ++i)
            reqs.push_back(&w_.jobs[w_.seq[i]]);

        std::optional<CompilerService> svc;
        if (w_.http) {
            opts_ = w_.server.service;
            if (!opts_.storePath.empty()) {
                opts_.storePath = outDir_ + "/trace-service.log";
                const std::string mirror = outDir_ + "/trace-mirror.log";
                std::remove(opts_.storePath.c_str());
                std::remove(mirror.c_str());
                mirror_ = std::make_unique<ArtifactStore>(mirror);
            }
            svc.emplace(opts_);
        }
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto rid = static_cast<std::uint32_t>(i);
            try {
                if (svc)
                    httpRequest(*svc, *reqs[i], rid);
                else
                    verifyJob(*reqs[i], rid);
            } catch (const std::exception &e) {
                fail(format("request %u threw: %s", rid, e.what()));
            }
        }
        wallSeconds = secondsSince(t0);
        requests = reqs.size();
        if (svc)
            final_ = svc->stats();
        svc.reset();
        mirror_.reset();
        if (!opts_.storePath.empty()) {
            std::remove(opts_.storePath.c_str());
            std::remove((outDir_ + "/trace-mirror.log").c_str());
        }
    }

    /** The per-layer metrics of this replay (spans plus counters). */
    MetricMap metrics() const;

    const Tracer &tracer() const { return tr_; }

    /** The replayed requests, by request id. */
    const std::vector<const Job *> &jobs() const { return jobs_; }

    double wallSeconds = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t attempted = 0;
    std::vector<std::string> problems;

  private:
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            problems.push_back(what);
    }
    void fail(const std::string &what) { check(false, what); }

    const CompressionStrategy &
    strategy(const std::string &name)
    {
        auto &s = strategies_[name];
        if (!s)
            s = makeStrategy(name);
        return *s;
    }

    CompileResult stagedCompile(const Circuit &c,
                                const CompressionStrategy &s,
                                PooledContext &pc, int parent,
                                std::uint32_t rid);
    PooledContext &context(const Topology &topo, const CompilerConfig &cfg,
                           const ArtifactKey &key, int parent,
                           std::uint32_t rid);
    void httpRequest(CompilerService &svc, const Job &j, std::uint32_t rid);
    void replayTier(const ServiceStats &a, const ServiceStats &b,
                    const Circuit &c, const Topology &topo,
                    const CompilerConfig &cfg, const ArtifactKey &key,
                    const CompileResult &served, int parent,
                    std::uint32_t rid);
    void writeBehind(const CompileResult &r, const ArtifactKey &key,
                     bool wrote, int parent, std::uint32_t rid);
    void verifyJob(const Job &j, std::uint32_t rid);
    void sameArtifact(const CompileResult &replayed,
                      const CompileResult &served, const char *tier,
                      std::uint32_t rid);

    const Workload &w_;
    std::vector<const Job *> jobs_;
    Tracer tr_;
    const DeviceRegistry registry_;
    std::string outDir_;
    ServiceOptions opts_;
    std::unique_ptr<ArtifactStore> mirror_;
    std::map<std::string, std::unique_ptr<CompressionStrategy>> strategies_;
    std::unordered_map<std::uint64_t, std::unique_ptr<PooledContext>>
        contexts_;
    std::unordered_map<ArtifactKey, std::shared_ptr<const CompiledTemplate>,
                       ArtifactKeyHash>
        templates_;
    ServiceStats final_;

    // Counters behind the ratio and size metrics.
    double qasmBytes_ = 0.0;
    double artifactBytes_ = 0.0;
    std::uint64_t encodes_ = 0;
    double routingGates_ = 0.0;
    std::uint64_t compiles_ = 0;
    std::uint64_t cacheHits_ = 0, cacheMisses_ = 0;
    std::uint64_t equivalenceChecks_ = 0;
};

PooledContext &
Replay::context(const Topology &topo, const CompilerConfig &cfg,
                const ArtifactKey &key, int parent, std::uint32_t rid)
{
    // Keyed like the service's pool (topology x library x config), but
    // never evicted.
    Fingerprinter f;
    f.mixU64(key.topo);
    f.mixU64(key.lib);
    f.mixU64(key.cfg);
    auto &slot = contexts_[f.value()];
    if (!slot) {
        slot = std::make_unique<PooledContext>(topo, cfg);
        tr_.span("compiler.context_build", parent, rid, [&] {
            slot->ctx.emplace(slot->topo, slot->lib, slot->cfg);
        });
    }
    return *slot;
}

/** CompressionStrategy::compile + compileWithPairs, one span per stage. */
CompileResult
Replay::stagedCompile(const Circuit &c, const CompressionStrategy &s,
                      PooledContext &pc, int parent, std::uint32_t rid)
{
    const std::uint64_t hits0 = pc.ctx->cacheStats().hits();
    const std::uint64_t misses0 = pc.ctx->cacheStats().misses();
    const Circuit native =
        isNative(c) ? c : tr_.span("ir.decompose", parent, rid, [&] {
            return decomposeToNativeGates(c);
        });
    const std::vector<Compression> pairs =
        tr_.span("strategies.choose_pairs." + s.name(), parent, rid, [&] {
            return s.choosePairs(native, pc.topo, pc.lib, pc.cfg, *pc.ctx);
        });
    DistanceFieldCache *cache = pc.ctx->cache();
    CompileResult r;
    Layout layout = tr_.span("compiler.map", parent, rid, [&] {
        const InteractionModel im(native);
        MapperOptions mo;
        mo.allowDynamicSlot1 = s.allowDynamicSlot1();
        mo.pairs = pairs;
        Layout l = mapCircuit(native, im, pc.ctx->cost(), mo, cache);
        r.compressions = encodedPairsOf(l);
        r.compiled = CompiledCircuit(l, native.name());
        if (pc.cfg.chargeInitialEnc) {
            for (UnitId u = 0; u < l.numUnits(); ++u) {
                if (!l.unitEncoded(u))
                    continue;
                PhysGate enc;
                enc.cls = PhysGateClass::Encode;
                enc.slots = {makeSlot(u, 0), makeSlot(u, 1)};
                enc.logical = GateType::Swap;
                enc.isRouting = false;
                r.compiled.add(enc);
            }
        }
        return l;
    });
    tr_.span("compiler.route", parent, rid, [&] {
        RouterOptions ro;
        ro.lookaheadWeight = pc.cfg.lookaheadWeight;
        ro.useDistanceCache = cache != nullptr;
        routeCircuit(native, layout, pc.ctx->cost(), r.compiled, ro, cache);
    });
    const DeviceCalibration *cal = pc.cfg.calibration.get();
    tr_.span("compiler.schedule", parent, rid,
             [&] { scheduleCompiled(r.compiled, pc.lib, cal); });
    if (pc.cfg.validate)
        tr_.span("compiler.validate", parent, rid,
                 [&] { validateCompiled(r.compiled, pc.topo); });
    r.metrics = tr_.span("compiler.metrics", parent, rid, [&] {
        return computeMetrics(r.compiled, pc.lib, cal);
    });
    cacheHits_ += pc.ctx->cacheStats().hits() - hits0;
    cacheMisses_ += pc.ctx->cacheStats().misses() - misses0;
    routingGates_ += r.metrics.numRoutingGates;
    ++compiles_;
    return r;
}

void
Replay::sameArtifact(const CompileResult &replayed,
                     const CompileResult &served, const char *tier,
                     std::uint32_t rid)
{
    check(encodeCompileResult(replayed) == encodeCompileResult(served),
          format("replayed %s of request %u is byte-identical to the "
                 "served artifact",
                 tier, rid));
}

void
Replay::httpRequest(CompilerService &svc, const Job &j, std::uint32_t rid)
{
    std::string buffer = j.raw;
    HttpRequest hreq;
    int errStatus = 0;
    std::string err;
    const HttpParseStatus st = tr_.span("server.http_parse", -1, rid, [&] {
        return tryParseHttpRequest(buffer, hreq, errStatus, err,
                                   ServerOptions{}.maxBodyBytes);
    });
    if (st != HttpParseStatus::Complete) {
        fail(format("request %u: HTTP parse failed (%s)", rid, err.c_str()));
        return;
    }
    const Circuit c = tr_.span("ir.qasm_parse", -1, rid, [&] {
        return parseQasm(hreq.body, "request");
    });
    qasmBytes_ += static_cast<double>(hreq.body.size());
    const std::string strategyName = hreq.queryParam("strategy", "eqm");
    const std::string device = hreq.queryParam("device", "");

    const CompileRequest req = [&] {
        if (!device.empty())
            return CompileRequest::forDevice(c, device, strategyName);
        std::shared_ptr<const DeviceCalibration> none;
        Topology topo = tr_.span("server.topology", -1, rid, [&] {
            return topologyOf(j, svc.devices(), none);
        });
        return CompileRequest::forCircuit(c, std::move(topo), strategyName);
    }();

    const ServiceStats a = svc.stats();
    const int sid = tr_.begin("service.compile", -1, rid);
    const CompileArtifact served = svc.compileSync(req);
    tr_.end(sid);
    const ServiceStats b = svc.stats();

    // What compileSync did before its tier lookup: resolve the device
    // and fingerprint the request.
    Topology topo = req.topology;
    CompilerConfig cfg;
    if (!device.empty()) {
        Device d = tr_.span("arch.device_get", sid, rid,
                            [&] { return svc.devices().get(device); });
        topo = std::move(d.topology);
        cfg.calibration = std::move(d.calibration);
    }
    ArtifactKey key;
    key.strategy = strategyName;
    key.circuit = tr_.span("ir.circuit_fp", sid, rid,
                           [&] { return circuitFingerprint(c); });
    tr_.span("service.key", sid, rid, [&] {
        key.topo = topologyFingerprint(topo);
        key.lib = libraryFingerprint(req.library);
        key.cfg = configFingerprint(cfg);
    });
    replayTier(a, b, c, topo, cfg, key, *served, sid, rid);

    tr_.span("server.respond", -1, rid, [&] {
        return httpResponse(200, responseBody(strategyName, *served));
    });
}

/** What the service does after producing an artifact with the disk
 *  tier on: encode it, and append it when the store took a write. */
void
Replay::writeBehind(const CompileResult &r, const ArtifactKey &key,
                    bool wrote, int parent, std::uint32_t rid)
{
    if (!mirror_)
        return;
    const std::vector<std::uint8_t> blob = tr_.span(
        "ir.encode", parent, rid, [&] { return encodeCompileResult(r); });
    artifactBytes_ += static_cast<double>(blob.size());
    ++encodes_;
    if (wrote)
        check(tr_.span("service.store_put", parent, rid,
                       [&] { return mirror_->put(key, blob); }),
              format("request %u: store append", rid));
}

void
Replay::replayTier(const ServiceStats &a, const ServiceStats &b,
                   const Circuit &c, const Topology &topo,
                   const CompilerConfig &cfg, const ArtifactKey &key,
                   const CompileResult &served, int sid, std::uint32_t rid)
{
    const bool hit = b.hits > a.hits;
    const bool rebind = b.templateHits > a.templateHits;
    const bool disk = b.diskHits > a.diskHits;
    const bool miss = b.misses > a.misses;
    const bool wrote = b.diskWrites > a.diskWrites;
    check(hit + rebind + disk + miss + (b.coalesced > a.coalesced) == 1,
          format("request %u moved exactly one tier counter", rid));
    if (hit) {
        tr_.rename(sid, "service.memo_hit");
        return;
    }
    tr_.rename(sid, rebind ? "service.rebind_hit"
                           : disk ? "service.disk_hit" : "service.miss");

    // Exact-tier miss: eligible requests take the structural walk.
    const bool eligible =
        opts_.templateCacheCapacity > 0 && parameterized(c);
    ArtifactKey tkey = key;
    if (eligible)
        tkey.circuit = tr_.span("ir.structural_fp", sid, rid, [&] {
            return structuralCircuitFingerprint(c).value;
        });
    auto plant = [&](const CompileResult &r) {
        if (!eligible || templates_.count(tkey))
            return;
        auto base = std::make_shared<const CompileResult>(r);
        templates_.emplace(
            tkey, tr_.span("compiler.make_template", sid, rid, [&] {
                return std::make_shared<const CompiledTemplate>(
                    makeTemplate(base, c));
            }));
    };

    if (rebind) {
        const auto it = templates_.find(tkey);
        if (it == templates_.end()) {
            fail(format("request %u: rebind without a replayed template",
                        rid));
            return;
        }
        const CompileResult r = tr_.span("compiler.rebind", sid, rid, [&] {
            return rebindTemplate(*it->second, c, GateLibrary{},
                                  cfg.calibration.get());
        });
        writeBehind(r, key, wrote, sid, rid);
        sameArtifact(r, served, "rebind", rid);
    } else if (disk) {
        std::vector<std::uint8_t> blob;
        const StoreStatus st =
            mirror_ ? tr_.span("service.store_load", sid, rid,
                               [&] { return mirror_->loadStatus(key, blob); })
                    : StoreStatus::Miss;
        if (st != StoreStatus::Ok) {
            fail(format("request %u: disk hit not in the replayed store",
                        rid));
            return;
        }
        const CompileResult r = tr_.span(
            "ir.decode", sid, rid, [&] { return decodeCompileResult(blob); });
        plant(r);
        sameArtifact(r, served, "disk load", rid);
    } else if (miss) {
        const CompressionStrategy &s = strategy(key.strategy);
        PooledContext &pc = context(topo, cfg, key, sid, rid);
        const CompileResult r = stagedCompile(c, s, pc, sid, rid);
        writeBehind(r, key, wrote, sid, rid);
        plant(r);
        sameArtifact(r, served, "compile", rid);
    }
}

void
Replay::verifyJob(const Job &j, std::uint32_t rid)
{
    const Circuit c = tr_.span("ir.qasm_parse", -1, rid, [&] {
        return parseQasm(j.raw, "request");
    });
    qasmBytes_ += static_cast<double>(j.raw.size());
    const DeviceRegistry &reg = registry_;
    Device d = tr_.span("arch.device_get", -1, rid,
                        [&] { return reg.get(j.device); });
    const CompressionStrategy &s = strategy(j.strategy);
    CompilerConfig cfg;
    cfg.calibration = std::move(d.calibration);
    PooledContext pc(std::move(d.topology), std::move(cfg));
    CompileResult r;
    if (j.strategy == "fq") {
        // FQ routes at the qudit level inside its own compile().
        r = tr_.span("compiler.fq_compile", -1, rid, [&] {
            return s.compile(c, pc.topo, pc.lib, pc.cfg);
        });
    } else {
        tr_.span("compiler.context_build", -1, rid,
                 [&] { pc.ctx.emplace(pc.topo, pc.lib, pc.cfg); });
        r = stagedCompile(c, s, pc, -1, rid);
    }
    const bool equivalent = tr_.span("sim.equivalence", -1, rid, [&] {
        return checkEquivalence(c, r.compiled).ok;
    });
    ++equivalenceChecks_;
    check(equivalent, format("job %u passes checkEquivalence", rid));
    sameArtifact(r, directCompile(j, reg), "compile", rid);
}

MetricMap
Replay::metrics() const
{
    MetricMap m;
    const auto &spans = tr_.spans();
    const auto &names = tr_.names();
    std::vector<double> childUs(spans.size(), 0.0);
    for (const SpanRec &s : spans)
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.t1 - s.t0) / 1e3;
    std::map<std::string, std::pair<double, std::uint64_t>> byName;
    std::map<std::string, double> selfUs;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &name = names[spans[i].name];
        const double us = static_cast<double>(spans[i].t1 - spans[i].t0) / 1e3;
        auto &agg = byName[name];
        agg.first += us;
        ++agg.second;
        selfUs[name.substr(0, name.find('.'))] +=
            std::max(0.0, us - childUs[i]);
    }
    for (const auto &[name, agg] : byName)
        m[spanMetric(name)] = {agg.first / static_cast<double>(agg.second),
                               "us", agg.second};
    for (const auto &[layer, us] : selfUs)
        m[layer + ".self_us"] = {us / static_cast<double>(requests), "us",
                                 requests};

    auto mean = [](double total, std::uint64_t n) {
        return n ? total / static_cast<double>(n) : std::nan("");
    };
    if (const auto it = byName.find("ir.qasm_parse"); it != byName.end())
        m["ir.qasm_mb_per_s"] = {qasmBytes_ / it->second.first,
                                 "MB/s", it->second.second};
    if (encodes_)
        m["ir.artifact_bytes"] = {mean(artifactBytes_, encodes_), "bytes",
                                  encodes_};
    if (compiles_) {
        m["compiler.routing_gates"] = {mean(routingGates_, compiles_),
                                       "gates", compiles_};
        m["compiler.distance_cache_hit_ratio"] = {
            mean(static_cast<double>(cacheHits_), cacheHits_ + cacheMisses_),
            "ratio", cacheHits_ + cacheMisses_};
    }
    if (equivalenceChecks_)
        m["sim.checks"] = {static_cast<double>(equivalenceChecks_), "count",
                           equivalenceChecks_};
    if (w_.http) {
        const ServiceStats &s = final_;
        auto count = [&](const char *name, double v) {
            m[name] = {v, "count", s.requests};
        };
        count("service.memo_hits", static_cast<double>(s.hits));
        count("service.template_hits", static_cast<double>(s.templateHits));
        count("service.disk_hits", static_cast<double>(s.diskHits));
        count("service.misses", static_cast<double>(s.misses));
        count("service.coalesced", static_cast<double>(s.coalesced));
        count("service.evictions", static_cast<double>(s.evictions));
        count("service.disk_writes", static_cast<double>(s.diskWrites));
        m["service.store_bytes"] = {static_cast<double>(s.storeBytes),
                                    "bytes", s.diskWrites};
        m["service.memo_hit_ratio"] = {mean(static_cast<double>(s.hits),
                                            s.requests),
                                       "ratio", s.requests};
        const std::uint64_t ctxs = s.contextsReused + s.contextsCreated;
        m["service.context_reuse_ratio"] = {
            mean(static_cast<double>(s.contextsReused), ctxs), "ratio", ctxs};
    }
    return m;
}

// ------------------------------------------------------ server /metrics

/** The live server's own view of the replayed requests: its latency
 *  histogram and shed counter, read before and after the traffic (the
 *  warm-up list is sent first and left out). One keep-alive client. */
void
serverView(const Workload &w, std::size_t n, const std::string &outDir,
           MetricMap &m, RunResult &rr)
{
    ServerOptions opts = w.server;
    if (!opts.service.storePath.empty()) {
        opts.service.storePath = outDir + "/trace-server.log";
        std::remove(opts.service.storePath.c_str());
    }
    QompressServer server(opts);
    server.start();
    const int fd = httpConnect("127.0.0.1", server.port());
    std::string leftover, body;
    int status = 0;
    auto send = [&](const Job &j) {
        const bool ok = fd >= 0 && httpSendAll(fd, j.raw) &&
                        httpReadResponse(fd, leftover, status, body) &&
                        status == 200;
        ++rr.attempted;
        if (!ok) {
            ++rr.failed;
            rr.problems.push_back("server view: a replayed request failed");
        }
        return ok;
    };
    for (const Job &j : w.warm)
        send(j);
    const ServerStats s0 = server.stats();
    std::vector<double> clientUs;
    for (std::size_t i = 0; i < n && i < w.seq.size(); ++i) {
        const auto t0 = Clock::now();
        if (send(w.jobs[w.seq[i]]))
            clientUs.push_back(secondsSince(t0) * 1e6);
    }
    const ServerStats s1 = server.stats();
    if (fd >= 0)
        ::close(fd);
    server.stop();
    if (!opts.service.storePath.empty())
        std::remove(opts.service.storePath.c_str());

    LatencyHistogram::Snapshot d;
    d.count = s1.latency.count - s0.latency.count;
    for (std::size_t b = 0; b < d.buckets.size(); ++b)
        d.buckets[b] = s1.latency.buckets[b] - s0.latency.buckets[b];
    // The histogram's p50 is a bucket midpoint; its mean is exact.
    const double serverP50 = d.quantileUs(0.5);
    const double serverMean =
        (s1.latency.mean_us * static_cast<double>(s1.latency.count) -
         s0.latency.mean_us * static_cast<double>(s0.latency.count)) /
        static_cast<double>(d.count);
    double clientMean = 0.0;
    for (const double us : clientUs)
        clientMean += us / static_cast<double>(clientUs.size());
    m["server.side_p50_us"] = {serverP50, "us", d.count};
    m["server.side_mean_us"] = {serverMean, "us", d.count};
    m["server.client_p50_us"] = {quantile(clientUs, 0.5), "us",
                                 clientUs.size()};
    m["server.socket_queue_us"] = {clientMean - serverMean, "us", d.count};
    m["server.shed"] = {static_cast<double>(s1.shed - s0.shed), "count",
                        d.count};
}

// ----------------------------------------------------------- spans file

void
writeSpans(std::ofstream &out, const std::string &workload,
           const Replay &r, bool first)
{
    const auto &spans = r.tracer().spans();
    const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
    out << (first ? "" : ",\n") << "{\"workload\": \"" << workload
        << "\", \"names\": [";
    const auto &names = r.tracer().names();
    for (std::size_t i = 0; i < names.size(); ++i)
        out << (i ? ", " : "") << '"' << names[i] << '"';
    out << "],\n \"requests\": [";
    for (std::size_t i = 0; i < r.jobs().size(); ++i) {
        const Job &j = *r.jobs()[i];
        out << (i ? ", " : "") << "[\"" << j.strategy << "\", \""
            << (j.device.empty() ? j.topology : j.device) << "\", "
            << j.qubits << ']';
    }
    out << "],\n \"columns\": [\"id\", \"parent\", \"request\", \"name\", "
           "\"start_ns\", \"end_ns\"],\n \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        out << (i ? ",\n  " : "\n  ") << '[' << i << ", " << s.parent << ", "
            << s.request << ", " << s.name << ", " << s.t0 - base << ", "
            << s.t1 - base << ']';
    }
    out << "]}";
}

} // namespace

RunResult
runTraced(const std::string &workload, std::uint64_t seed, double seconds,
          const std::string &outDir, const Stamp &stamp)
{
    RunResult rr;
    auto absorb = [&](const Replay &r) {
        rr.attempted += r.attempted;
        rr.failed += r.problems.size();
        rr.problems.insert(rr.problems.end(), r.problems.begin(),
                           r.problems.end());
    };
    // One spans file per workload, overwritten by the next traced run
    // (its stamp names the seed), so repeated runs do not pile them up.
    const std::string spansPath =
        format("%s/%s-spans.json", outDir.c_str(), workload.c_str());
    std::ofstream spans(spansPath);
    spans << "{\"stamp\": " << stamp.json() << ",\n\"replays\": [\n";

    // The named workload first, then every other one, shorter.
    std::vector<std::string> order = {workload};
    for (const std::string &n : workloadNames())
        if (n != workload)
            order.push_back(n);
    for (const std::string &name : order) {
        const bool named = name == workload;
        const double budget = named ? seconds : seconds * kSliceShare;
        const auto n =
            static_cast<std::size_t>(std::ceil(replayRate(name) * budget));
        // Traffic pools are prefix-stable and sized for the closed loop,
        // which runs at least 20 times faster than the replay.
        const Workload w = makeWorkload(name, seed, budget / 20.0, outDir);

        Replay traced(w, true, outDir);
        traced.run(n);
        absorb(traced);
        MetricMap m = traced.metrics();
        if (w.http)
            serverView(w, n, outDir, m, rr);
        m["trace.replay_s"] = {traced.wallSeconds, "s", traced.requests};
        if (named) {
            // Alternate further replays with spans off and on; the
            // overhead compares the medians of each side.
            std::vector<double> on = {traced.wallSeconds}, off;
            for (int round = 0; round < kOverheadRounds; ++round) {
                for (const bool spansOn : {false, true}) {
                    if (spansOn && round == 0)
                        continue; // the replay above is round 0's
                    Replay again(w, spansOn, outDir);
                    again.run(n);
                    absorb(again);
                    (spansOn ? on : off).push_back(again.wallSeconds);
                }
            }
            m["trace.overhead_pct"] = {
                100.0 * (median(on) - median(off)) / median(off), "%",
                on.size() + off.size()};
            m["trace.spans"] = {
                static_cast<double>(traced.tracer().spans().size()), "count",
                traced.requests};
        }
        for (const auto &[metric, v] : m) {
            rr.extra[name + "/" + metric] = v;
            if (!rr.metrics.count(metric))
                rr.metrics[metric] = v;
        }
        writeSpans(spans, name, traced, named);
    }
    spans << "\n]}\n";
    std::printf("spans: %s\n", spansPath.c_str());
    return rr;
}

} // namespace perfbench
