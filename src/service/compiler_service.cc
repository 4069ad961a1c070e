#include "service/compiler_service.hh"

#include <algorithm>

#include "common/error.hh"
#include "ir/fingerprint.hh"
#include "service/artifact_store.hh"

namespace qompress {

const char *
diskTierStateName(DiskTierState state)
{
    switch (state) {
    case DiskTierState::Off:
        return "off";
    case DiskTierState::Ok:
        return "ok";
    case DiskTierState::Degraded:
        return "degraded";
    }
    return "?";
}

// ------------------------------------------------------------------
// Component fingerprints
// ------------------------------------------------------------------

std::uint64_t
topologyFingerprint(const Topology &topo)
{
    Fingerprinter f;
    f.mixString(topo.name());
    f.mixI32(topo.numUnits());
    // Canonical edge order: the same coupling graph built by a
    // different insertion order must fingerprint identically.
    auto edges = topo.graph().edges();
    std::sort(edges.begin(), edges.end(),
              [](const Graph::EdgeRef &a, const Graph::EdgeRef &b) {
                  return a.u != b.u ? a.u < b.u : a.v < b.v;
              });
    f.mixU64(edges.size());
    for (const auto &e : edges) {
        f.mixI32(e.u);
        f.mixI32(e.v);
        f.mixDouble(e.w);
    }
    return f.value();
}

std::uint64_t
libraryFingerprint(const GateLibrary &lib)
{
    Fingerprinter f;
    const int n = static_cast<int>(PhysGateClass::NumClasses);
    f.mixI32(n);
    for (int c = 0; c < n; ++c) {
        const auto cls = static_cast<PhysGateClass>(c);
        f.mixDouble(lib.duration(cls));
        f.mixDouble(lib.fidelity(cls));
    }
    f.mixDouble(lib.t1Qubit());
    f.mixDouble(lib.t1Ququart());
    return f.value();
}

std::uint64_t
configFingerprint(const CompilerConfig &cfg)
{
    Fingerprinter f;
    f.mixI32(cfg.chargeInitialEnc ? 1 : 0);
    f.mixDouble(cfg.throughQuquartPenalty);
    f.mixDouble(cfg.lookaheadWeight);
    f.mixI32(cfg.useDistanceCache ? 1 : 0);
    f.mixI32(cfg.validate ? 1 : 0);
    // The calibration is priced into every compile, so its content
    // fingerprint is part of the config identity: installing a new
    // calibration changes this value and with it every memo/template/
    // disk key priced against the old record -- the partial-
    // invalidation contract, extended to devices. Null (uncalibrated)
    // mixes a fixed 0 so pre-device keys are preserved.
    f.mixU64(cfg.calibration ? cfg.calibration->fingerprint() : 0);
    // cfg.threads deliberately excluded: results are lane-invariant,
    // so requests differing only in lane count share one artifact.
    return f.value();
}

// ------------------------------------------------------------------
// CompileRequest
// ------------------------------------------------------------------

CompileRequest
CompileRequest::forCircuit(Circuit c, Topology topo, std::string strategy,
                           CompilerConfig cfg, GateLibrary lib)
{
    return {std::move(topo), std::move(strategy), std::move(lib),
            std::move(cfg), std::move(c), /*device=*/"",
            /*fullCompile=*/false};
}

CompileRequest
CompileRequest::forDevice(Circuit c, std::string device,
                          std::string strategy, CompilerConfig cfg,
                          GateLibrary lib)
{
    // The topology is a placeholder: compileSync compiles against the
    // registered device's topology (and calibration) and never reads
    // it. CompileRequest has no unset-topology state because Topology
    // is not default-constructible.
    CompileRequest req =
        forCircuit(std::move(c), Topology::line(1), std::move(strategy),
                   std::move(cfg), std::move(lib));
    req.device = std::move(device);
    return req;
}

// ------------------------------------------------------------------
// CompilerService
// ------------------------------------------------------------------

CompilerService::CompilerService(ServiceOptions opts)
    : opts_(std::move(opts))
{
    if (!opts_.storePath.empty()) {
        StoreOptions sopts;
        sopts.fsync = opts_.storeFsync;
        sopts.fsyncIntervalBytes = opts_.storeFsyncIntervalBytes;
        store_ = std::make_unique<ArtifactStore>(opts_.storePath, sopts);
    }
}

CompileArtifact
CompilerService::compileSync(const CompileRequest &req)
{
    // A by-name request compiles against the registered device's
    // topology and CURRENT calibration, bound here in place of the
    // request's own; the request itself is never copied. Because the
    // calibration is part of configFingerprint, a calibration update
    // re-keys every subsequent request for that device (and only that
    // device), and by-name and equal explicit requests share entries.
    std::optional<Device> dev;
    CompilerConfig devConfig;
    if (!req.device.empty()) {
        dev = devices_.get(req.device);
        devConfig = req.config;
        devConfig.calibration = dev->calibration;
    }
    const Topology &topology = dev ? dev->topology : req.topology;
    const CompilerConfig &config = dev ? devConfig : req.config;

    const Circuit &circuit = req.circuit;
    RequestKey key;
    key.circuit = circuitFingerprint(circuit);
    key.topo = topologyFingerprint(topology);
    key.lib = libraryFingerprint(req.library);
    key.cfg = configFingerprint(config);
    key.strategy = req.strategy;
    Fingerprinter cf;
    cf.mixU64(key.topo);
    cf.mixU64(key.lib);
    cf.mixU64(key.cfg);
    const std::uint64_t ctx_fp = cf.value();

    // Template eligibility and the structural key are resolved lazily,
    // on the exact-miss path only: an exact hit (the dominant warm
    // case) must not pay the O(gates) structural walk.
    const bool tier_on =
        opts_.templateCacheCapacity > 0 && !req.fullCompile;
    const bool memo = opts_.cacheCapacity > 0;
    bool tmpl_eligible = false;
    RequestKey tkey;

    std::promise<CompileArtifact> prom;
    std::shared_future<CompileArtifact> wait_on;
    TemplatePtr tmpl;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.requests;
        if (memo) {
            auto it = index_.find(key);
            if (it != index_.end()) {
                ++stats_.hits;
                lru_.splice(lru_.begin(), lru_, it->second);
                return it->second->artifact;
            }
            auto jt = inflight_.find(key);
            if (jt != inflight_.end()) {
                // An identical compile is already running; wait for it
                // (outside the lock) instead of compiling twice.
                ++stats_.coalesced;
                wait_on = jt->second;
            }
        }
        if (!wait_on.valid()) {
            // This request will produce the artifact itself -- by
            // rebinding a cached template when one matches the
            // circuit's structure, else by a full compile. Only
            // parameterized circuits enter the tier (for a fixed
            // circuit -- BV, QFT-like structures -- the exact tier
            // already covers every repeat, so the structural walk is
            // skipped entirely).
            tmpl_eligible =
                tier_on &&
                std::any_of(
                    circuit.gates().begin(), circuit.gates().end(),
                    [](const Gate &g) { return gateHasParam(g.type); });
            if (tmpl_eligible) {
                tkey = key;
                tkey.circuit =
                    structuralCircuitFingerprint(circuit).value;
                auto tt = templateIndex_.find(tkey);
                if (tt != templateIndex_.end()) {
                    ++stats_.templateHits;
                    templateLru_.splice(templateLru_.begin(),
                                        templateLru_, tt->second);
                    tmpl = tt->second->second;
                } else {
                    // Eligible but no template; whether this request
                    // lands as a diskHit or a miss is only knowable
                    // after the disk probe below.
                    ++stats_.templateMisses;
                }
            }
            if (memo)
                inflight_.emplace(key, prom.get_future().share());
        }
    }
    if (wait_on.valid())
        return wait_on.get(); // rethrows the owner's exception

    // Disk tier: probed only after both in-memory tiers miss, and only
    // when the circuit breaker admits it (a degraded store is skipped
    // outright). The loaded blob doubles as the byte-budget charge
    // below (its size IS the serialized size). A corrupt record
    // decodes to FatalError and falls through to a fresh compile --
    // the store is a cache, never an authority. An I/O error does the
    // same, and additionally feeds the breaker.
    CompileArtifact artifact;
    std::vector<std::uint8_t> blob;
    bool from_disk = false;
    if (!tmpl && store_ && admitDiskRead()) {
        const StoreStatus rc = store_->loadStatus(key, blob);
        if (rc != StoreStatus::Miss) {
            // A Miss is an index lookup -- it proves nothing about the
            // disk, so only real reads feed the breaker.
            std::lock_guard<std::mutex> lk(mu_);
            if (rc == StoreStatus::Ok)
                noteStoreSuccessLocked();
            else
                noteStoreErrorLocked();
        }
        if (rc == StoreStatus::Ok) {
            try {
                artifact = std::make_shared<const CompileResult>(
                    decodeCompileResult(blob));
                from_disk = true;
            } catch (const FatalError &) {
                blob.clear();
            }
        } else {
            blob.clear(); // a failed read may have left partial bytes
        }
    }

    try {
        if (from_disk) {
            // Nothing to run; the decode above already produced it.
        } else if (tmpl) {
            // O(gates) path: substitute this instance's angles into
            // the template's compiled structure and re-price. The
            // template key covers the config fingerprint, so the
            // template was built under this same calibration.
            artifact = std::make_shared<const CompileResult>(
                rebindTemplate(*tmpl, circuit, req.library,
                               config.calibration.get()));
        } else {
            artifact = compileUncached(req, topology, config, ctx_fp);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        // Keep the request partition exact for failures too: a throw
        // out of rebind stays under its templateHit; anything else
        // counts as the miss it (unsuccessfully) compiled for.
        if (!tmpl)
            ++stats_.misses;
        if (memo) {
            prom.set_exception(std::current_exception());
            inflight_.erase(key);
        }
        throw;
    }

    // Serialize once, outside the lock, and only when somebody needs
    // the bytes: the store (write-behind) or the byte budget (charge).
    // With both features off the encode is skipped so the memo-only
    // hot path stays exactly as cheap as before this tier existed.
    const bool charge = opts_.cacheBytesCapacity > 0;
    if (!from_disk && (store_ || charge))
        blob = encodeCompileResult(*artifact);
    bool wrote = false;
    if (store_ && !from_disk && !store_->contains(key) && admitDiskWrite()) {
        wrote = store_->put(key, blob);
        std::lock_guard<std::mutex> lk(mu_);
        if (wrote)
            noteStoreSuccessLocked();
        else
            noteStoreErrorLocked();
    }
    const std::size_t bytes = blob.size();

    // Extract a template from a successful full compile OR disk load
    // of an eligible request (outside the lock: the binding walk is
    // O(gates)). Disk-loaded artifacts planting templates is what lets
    // a restarted service serve parameter sweeps by rebind again.
    TemplatePtr fresh;
    if (tmpl_eligible && !tmpl)
        fresh = std::make_shared<const CompiledTemplate>(
            makeTemplate(artifact, circuit));

    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!tmpl) {
            if (from_disk)
                ++stats_.diskHits;
            else
                ++stats_.misses;
        }
        if (wrote)
            ++stats_.diskWrites;
        if (fresh && !templateIndex_.count(tkey)) {
            // Keep-first on a racing extraction: templates of the same
            // structure are interchangeable, so the loser is dropped.
            templateLru_.emplace_front(tkey, std::move(fresh));
            templateIndex_[tkey] = templateLru_.begin();
            while (templateLru_.size() > opts_.templateCacheCapacity) {
                templateIndex_.erase(templateLru_.back().first);
                templateLru_.pop_back();
                ++stats_.templateEvictions;
            }
        }
        if (memo) {
            lru_.push_front(LruEntry{key, artifact, bytes});
            stats_.bytesInUse += bytes;
            index_[key] = lru_.begin();
            evictOverCapacityLocked();
            prom.set_value(artifact);
            inflight_.erase(key);
        }
    }
    return artifact;
}

CompileArtifact
CompilerService::compileUncached(const CompileRequest &req,
                                 const Topology &topology,
                                 const CompilerConfig &config,
                                 std::uint64_t ctx_fp)
{
    // makeStrategy first: an unknown name must fail before a context
    // is built for it.
    const auto strategy = makeStrategy(req.strategy);
    auto pc = acquireContext(topology, req.library, config, ctx_fp);
    // The compile runs against the pooled copies (the context holds
    // pointers into them) but the *caller's* config, so per-request
    // knobs the context does not price (threads) are honored. The two
    // configs agree on every pricing field by construction of ctx_fp.
    CompileResult res = strategy->compile(req.circuit, pc->topo, pc->lib,
                                          config, &*pc->ctx);
    // Pool the context (with its warmed distance fields) only on
    // success; a compile that threw may leave it mid-mutation.
    releaseContext(std::move(pc));
    return std::make_shared<const CompileResult>(std::move(res));
}

std::unique_ptr<CompilerService::PooledContext>
CompilerService::acquireContext(const Topology &topology,
                                const GateLibrary &library,
                                const CompilerConfig &config,
                                std::uint64_t ctx_fp)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
            // Matching is by the 64-bit pricing fingerprint; the
            // structural conjuncts below catch the topology-shape
            // slice of a collision cheaply but do NOT cover library
            // or config content — those rest on the fingerprint alone
            // (see the Fingerprinter doc for the accepted trade).
            if ((*it)->fp == ctx_fp &&
                (*it)->topo.numUnits() == topology.numUnits() &&
                (*it)->topo.name() == topology.name()) {
                auto pc = std::move(*it);
                idle_.erase(std::next(it).base());
                ++stats_.contextsReused;
                return pc;
            }
        }
        ++stats_.contextsCreated;
    }
    // Build outside the lock: graph expansion is the expensive part.
    return std::make_unique<PooledContext>(ctx_fp, topology, library,
                                           config);
}

void
CompilerService::releaseContext(std::unique_ptr<PooledContext> pc)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (opts_.contextPoolCapacity == 0)
        return; // pooling disabled: drop (context dies here)
    idle_.push_back(std::move(pc));
    while (idle_.size() > opts_.contextPoolCapacity)
        idle_.erase(idle_.begin()); // oldest idle context retires
}

void
CompilerService::evictOverCapacityLocked()
{
    while (lru_.size() > opts_.cacheCapacity) {
        stats_.bytesInUse -= lru_.back().bytes;
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
    if (opts_.cacheBytesCapacity == 0)
        return;
    // Byte pressure evicts in the same LRU order but under its own
    // counter. The !empty() guard makes an artifact larger than the
    // whole budget simply not resident, rather than an infinite loop.
    while (stats_.bytesInUse > opts_.cacheBytesCapacity && !lru_.empty()) {
        stats_.bytesInUse -= lru_.back().bytes;
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.sizeEvictions;
    }
}

bool
CompilerService::admitDiskRead()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!tierDegraded_)
            return true;
        const double down_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - degradedSince_)
                .count();
        if (down_ms < opts_.storeCooldownMs || probeInFlight_) {
            ++stats_.degradedSkips;
            return false;
        }
        // Cooldown elapsed: this request becomes the single half-open
        // probe. Everyone else keeps skipping until it resolves.
        probeInFlight_ = true;
    }
    const bool ok = store_->probe();
    std::lock_guard<std::mutex> lk(mu_);
    probeInFlight_ = false;
    if (ok) {
        noteStoreSuccessLocked(); // re-closes the breaker
        return true;
    }
    noteStoreErrorLocked(); // refreshes degradedSince_
    ++stats_.degradedSkips;
    return false;
}

bool
CompilerService::admitDiskWrite()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!tierDegraded_)
        return true;
    // Writes never probe: write-behind is optional, so recovery is the
    // read path's job and a broken disk costs misses one syscall, not
    // one syscall per would-be persist.
    ++stats_.degradedSkips;
    return false;
}

void
CompilerService::noteStoreErrorLocked()
{
    ++stats_.storeErrors;
    ++consecutiveStoreErrors_;
    if (opts_.storeErrorThreshold == 0)
        return; // breaker disabled: count errors but never degrade
    if (consecutiveStoreErrors_ >= opts_.storeErrorThreshold) {
        // Entering degraded, or refreshing the cooldown clock after a
        // failed half-open probe -- either way the tier stays dark for
        // another full cooldown from *now*.
        tierDegraded_ = true;
        degradedSince_ = std::chrono::steady_clock::now();
    }
}

void
CompilerService::noteStoreSuccessLocked()
{
    consecutiveStoreErrors_ = 0;
    if (tierDegraded_) {
        tierDegraded_ = false;
        ++stats_.recoveries;
    }
}

ServiceStats
CompilerService::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s = stats_;
    s.cacheSize = lru_.size();
    s.cacheCapacity = opts_.cacheCapacity;
    s.templateSize = templateLru_.size();
    s.templateCapacity = opts_.templateCacheCapacity;
    s.bytesCapacity = opts_.cacheBytesCapacity;
    s.pooledContexts = idle_.size();
    s.tierState = !store_ ? DiskTierState::Off
                          : (tierDegraded_ ? DiskTierState::Degraded
                                           : DiskTierState::Ok);
    if (store_) {
        s.storeRecords = store_->records();
        s.storeBytes = store_->bytesOnDisk();
    }
    return s;
}

void
CompilerService::clearCache()
{
    std::lock_guard<std::mutex> lk(mu_);
    lru_.clear();
    index_.clear();
    idle_.clear();
    templateLru_.clear();
    templateIndex_.clear();
    stats_.bytesInUse = 0;
    // store_ deliberately untouched: the disk tier exists to survive
    // in-memory cache drops and process restarts.
    // In-flight compiles keep their local promises; entries left in
    // inflight_ are owned by running compiles and expire when they
    // finish. Artifacts already handed out stay alive through their
    // shared_ptrs.
}

} // namespace qompress
