/**
 * @file
 * The request/response front end of the toolchain.
 *
 * Everything below this layer is a library of free functions and
 * per-strategy calls that each caller wires up by hand; CompilerService
 * packages them behind one stable, session-oriented API a high-traffic
 * deployment can sit behind:
 *
 *  - CompileRequest: circuit + topology + strategy name +
 *    CompilerConfig + GateLibrary, all by value so requests are
 *    self-contained and content-addressable.
 *  - compileSync(): the one entry point. It compiles on the calling
 *    thread and is safe to call concurrently; callers that want many
 *    requests at once (runSweep's lanes, qompressd's connection
 *    workers) bring their own threads, and identical requests in
 *    flight at once coalesce onto one compile.
 *  - An artifact memo cache: an LRU keyed by canonical content
 *    fingerprints (circuit x topology x library x config x strategy)
 *    returning shared immutable CompileResults, with hit/miss/eviction
 *    counters and a capacity knob. Identical requests -- the dominant
 *    pattern in evaluation grids, which re-compile the same
 *    circuit x topology x strategy cells over and over -- are served
 *    without recompiling.
 *  - A template tier next to it: a second LRU keyed by the STRUCTURAL
 *    circuit fingerprint (parameter values canonicalized out; see
 *    ir/fingerprint.hh) holding CompiledTemplates (compiler/rebind.hh).
 *    A request that misses the exact tier but matches a template --
 *    same structure, different rotation angles, the shape of every
 *    parameterized sweep -- is served by the O(gates) rebind pass
 *    instead of a full compile, with its own hit/miss/eviction
 *    counters. CompileRequest::fullCompile opts a request out.
 *  - A disk tier (ServiceOptions::storePath, off by default): an
 *    ArtifactStore append-only log holding serialized CompileResults
 *    under the same content keys. Misses that both in-memory tiers
 *    fall through read the disk before compiling; freshly produced
 *    artifacts are written behind. Because compiles are deterministic,
 *    a restarted (or neighboring) service pointed at the same store
 *    starts warm: tier lookup order is memo -> template -> disk ->
 *    compile.
 *  - A circuit breaker in front of the disk tier: after
 *    storeErrorThreshold CONSECUTIVE store I/O failures the tier goes
 *    `degraded` -- disk probes and write-behind appends are skipped
 *    (counted as degradedSkips) while the memory tiers and the
 *    compiler keep serving every request. After storeCooldownMs one
 *    request half-opens the breaker with a cheap header probe;
 *    success closes it again (counted as a recovery), failure re-arms
 *    the cooldown. A failing disk therefore costs at most
 *    threshold + one-probe-per-cooldown syscalls, never an error
 *    surfaced to callers: the store is a cache, losing it degrades
 *    latency, not correctness.
 *  - A context pool: reusable CompileContexts keyed by the
 *    topology/library/config fingerprint, so distance fields warmed by
 *    one request survive into the next (across requests, not just
 *    within one compile as before).
 *
 * Invariant: a service compile is bit-identical to a direct
 * CompressionStrategy::compile of the same inputs, at every thread
 * count and cache configuration. This follows from two properties the
 * lower layers already pin: compiles are deterministic functions of
 * their inputs (so a memoized artifact equals a fresh compile), and
 * distance-field caching never changes what a compile emits (so a
 * pooled, pre-warmed context equals a cold one). tests/test_service.cc
 * asserts the composition.
 *
 * Thread-safety: all public methods are safe to call concurrently.
 * Compiles run outside the service lock; each gets a private
 * CompileContext from the pool (contexts are single-writer).
 */

#ifndef QOMPRESS_SERVICE_COMPILER_SERVICE_HH
#define QOMPRESS_SERVICE_COMPILER_SERVICE_HH

#include <chrono>
#include <cstdint>
#include <future>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "arch/device.hh"
#include "compiler/pipeline.hh"
#include "compiler/rebind.hh"
#include "ir/serialize.hh"
#include "service/artifact_store.hh"
#include "strategies/strategy.hh"

namespace qompress {

/** Health of the service's disk tier (the breaker's public face). */
enum class DiskTierState
{
    Off,      ///< no store configured
    Ok,       ///< breaker closed; disk probes and writes flow
    Degraded, ///< breaker open; disk skipped until a probe succeeds
};

/** "off" | "ok" | "degraded" (for /metrics and /healthz). */
const char *diskTierStateName(DiskTierState state);

/** @name Component fingerprints
 * Content hashes of the non-circuit compile inputs (the circuit hash
 * is ir/fingerprint.hh's circuitFingerprint). Two values are equal
 * exactly when the components are compile-equivalent. @{ */

/** Name, unit count, and the sorted weighted edge list. */
std::uint64_t topologyFingerprint(const Topology &topo);

/** Every per-class duration and fidelity plus both T1 times. */
std::uint64_t libraryFingerprint(const GateLibrary &lib);

/**
 * Every CompilerConfig field EXCEPT threads: compile results are
 * lane-count invariant (pinned by test_threads and bench_hotpaths
 * --check), so requests differing only in lane count share artifacts
 * and contexts.
 */
std::uint64_t configFingerprint(const CompilerConfig &cfg);
/** @} */

/**
 * One self-contained compile request.
 *
 * Circuit, topology and library travel by value: the service keys its
 * caches on content, so callers need not keep request inputs alive,
 * and mutating a GateLibrary between requests can never poison a
 * cached artifact.
 */
struct CompileRequest
{
    Topology topology;
    std::string strategy = "eqm";
    GateLibrary library;
    CompilerConfig config;
    Circuit circuit;

    /** Compile against a REGISTERED device instead of the request's
     *  own topology/calibration: when non-empty, the service compiles
     *  against the named device's topology and current calibration
     *  (FatalError for an unknown name) and ignores @ref topology and
     *  config.calibration. The artifact key is derived from the
     *  resolved content, so requests by name and by equal explicit
     *  content share cache entries. */
    std::string device;

    /** Bypass the template tier for this request: neither serve a
     *  rebind nor extract a template from the result. The exact
     *  memo tier still applies. (Rebinds are bit-identical to full
     *  compiles, so this is a measurement/debugging knob, not a
     *  correctness one.) */
    bool fullCompile = false;

    /** Request for an explicit circuit. */
    static CompileRequest forCircuit(Circuit c, Topology topo,
                                     std::string strategy,
                                     CompilerConfig cfg = {},
                                     GateLibrary lib = {});

    /** Request against a registered device by name (topology and
     *  calibration resolve at compile time; see @ref device). */
    static CompileRequest forDevice(Circuit c, std::string device,
                                    std::string strategy,
                                    CompilerConfig cfg = {},
                                    GateLibrary lib = {});
};

/** Shared immutable compiled artifact. */
using CompileArtifact = std::shared_ptr<const CompileResult>;

/** Service construction knobs. */
struct ServiceOptions
{
    /** Artifact memo LRU capacity in entries; 0 disables memoization
     *  (every request compiles). */
    std::size_t cacheCapacity = 256;

    /** Template-tier LRU capacity in entries; 0 disables the tier
     *  (no rebinds, no template extraction). Independent of
     *  cacheCapacity: templates cover exact-tier NEAR-misses. */
    std::size_t templateCacheCapacity = 128;

    /** Max idle CompileContexts kept warm across requests; 0 disables
     *  pooling (every compile builds a cold context). */
    std::size_t contextPoolCapacity = 8;

    /**
     * Memo LRU budget in *serialized* bytes; 0 means unlimited (the
     * entry cap alone governs). When set, every resident artifact is
     * charged its encodeCompileResult size and the LRU additionally
     * evicts -- counted separately as sizeEvictions -- until under
     * budget. An artifact larger than the whole budget is simply not
     * retained.
     */
    std::size_t cacheBytesCapacity = 0;

    /** Path of the artifact-store log backing the disk tier; empty
     *  (the default) leaves the tier off and behavior byte-identical
     *  to a storeless service. */
    std::string storePath;

    /** How the store opened at storePath syncs its appends; see
     *  artifact_store.hh. */
    StoreOptions store;

    /** Consecutive store I/O failures that open the disk-tier
     *  breaker (degraded mode). 0 disables the breaker: every error
     *  is counted but the disk keeps being probed. */
    std::uint64_t storeErrorThreshold = 3;

    /** How long a degraded disk tier rests before one request
     *  half-opens the breaker with a health probe. */
    double storeCooldownMs = 1000.0;
};

/**
 * Observable service state (one consistent snapshot). The service
 * keeps its counters in one of these; stats() copies it and fills in
 * the gauges (sizes, capacities, store figures, tierState).
 */
struct ServiceStats
{
    std::uint64_t requests = 0;    ///< total requests processed
    std::uint64_t hits = 0;        ///< artifacts served from the memo cache
    std::uint64_t misses = 0;      ///< requests that ran a full compile
    std::uint64_t coalesced = 0;   ///< waited on an identical in-flight compile
    std::uint64_t evictions = 0;   ///< LRU entries dropped over capacity
    std::uint64_t cacheSize = 0;   ///< resident memo entries
    std::uint64_t cacheCapacity = 0; ///< current capacity knob

    /** @name Template tier
     * Requests partition as requests == hits + templateHits + diskHits
     * + misses + coalesced: a template hit is an exact-tier miss
     * served by rebind instead of a compile. templateMisses counts
     * eligible requests (parameterized circuit, tier enabled, not
     * fullCompile) that found no template and fell through to the disk
     * tier or a full compile -- a subset of diskHits + misses, kept
     * separate so sweep warm-up cost is visible. @{ */
    std::uint64_t templateHits = 0;      ///< served by parameter rebind
    std::uint64_t templateMisses = 0;    ///< eligible but no template yet
    std::uint64_t templateEvictions = 0; ///< template LRU drops
    std::uint64_t templateSize = 0;      ///< resident templates
    std::uint64_t templateCapacity = 0;  ///< current tier capacity
    /** @} */

    /** @name Byte-size accounting (cacheBytesCapacity)
     * bytesInUse is the serialized size of every resident memo entry.
     * Charging requires encoding, so it is lazy: with the byte budget
     * unset AND the disk tier off, entries are charged 0 and bytesInUse
     * stays 0 -- the hot path never pays an encode it does not need. @{ */
    std::uint64_t sizeEvictions = 0; ///< LRU drops under byte pressure
    std::uint64_t bytesInUse = 0;    ///< charged bytes currently resident
    std::uint64_t bytesCapacity = 0; ///< current byte-budget knob
    /** @} */

    /** @name Disk tier (storePath)
     * diskHits joins the request partition above; diskWrites counts
     * write-behind appends. storeRecords/storeBytes mirror the
     * ArtifactStore (0 when the tier is off). @{ */
    std::uint64_t diskHits = 0;     ///< served by decode from the store
    std::uint64_t diskWrites = 0;   ///< artifacts appended to the store
    std::uint64_t storeRecords = 0; ///< live records in the log
    std::uint64_t storeBytes = 0;   ///< log size on disk (incl. dead)
    /** @} */

    /** @name Disk-tier circuit breaker
     * storeErrors counts every store I/O failure (loads, writes, and
     * half-open probes). The breaker opens after storeErrorThreshold
     * CONSECUTIVE errors: tierState reads Degraded, disk work is
     * skipped (degradedSkips), and after the cooldown a header probe
     * decides between recovery (recoveries, tierState back to Ok) and
     * another cooldown. Requests themselves never fail on a store
     * error -- they fall through to the compile path. @{ */
    std::uint64_t storeErrors = 0;   ///< store I/O failures observed
    std::uint64_t degradedSkips = 0; ///< disk probes/writes skipped
    std::uint64_t recoveries = 0;    ///< degraded -> ok transitions
    DiskTierState tierState = DiskTierState::Off;
    /** @} */
    std::uint64_t contextsCreated = 0; ///< cold CompileContext builds
    std::uint64_t contextsReused = 0;  ///< warm contexts served from the pool
    std::uint64_t pooledContexts = 0;  ///< idle contexts currently pooled
};

/** One ServiceStats field under its /metrics key: a count, or the
 *  disk-tier state (rendered by diskTierStateName). */
using ServiceStatsField =
    std::pair<const char *, std::variant<std::uint64_t ServiceStats::*,
                                         DiskTierState ServiceStats::*>>;

/** Every ServiceStats field, in /metrics order. A new field is one
 *  member above plus one entry here; the static_assert below fails
 *  when the entry is missing. */
inline constexpr ServiceStatsField kServiceStatsFields[] = {
    {"requests", &ServiceStats::requests},
    {"hits", &ServiceStats::hits},
    {"misses", &ServiceStats::misses},
    {"coalesced", &ServiceStats::coalesced},
    {"evictions", &ServiceStats::evictions},
    {"cacheSize", &ServiceStats::cacheSize},
    {"cacheCapacity", &ServiceStats::cacheCapacity},
    {"templateHits", &ServiceStats::templateHits},
    {"templateMisses", &ServiceStats::templateMisses},
    {"templateEvictions", &ServiceStats::templateEvictions},
    {"templateSize", &ServiceStats::templateSize},
    {"templateCapacity", &ServiceStats::templateCapacity},
    {"diskHits", &ServiceStats::diskHits},
    {"diskWrites", &ServiceStats::diskWrites},
    {"sizeEvictions", &ServiceStats::sizeEvictions},
    {"bytesInUse", &ServiceStats::bytesInUse},
    {"bytesCapacity", &ServiceStats::bytesCapacity},
    {"storeRecords", &ServiceStats::storeRecords},
    {"storeBytes", &ServiceStats::storeBytes},
    {"storeErrors", &ServiceStats::storeErrors},
    {"degradedSkips", &ServiceStats::degradedSkips},
    {"recoveries", &ServiceStats::recoveries},
    {"tierState", &ServiceStats::tierState},
    {"contextsCreated", &ServiceStats::contextsCreated},
    {"contextsReused", &ServiceStats::contextsReused},
    {"pooledContexts", &ServiceStats::pooledContexts},
};
// Every field occupies one 8-byte slot (tierState is padded to one).
static_assert(sizeof(ServiceStats) ==
                  std::size(kServiceStatsFields) * sizeof(std::uint64_t),
              "every ServiceStats field needs a kServiceStatsFields entry");

/** See the file comment. */
class CompilerService
{
  public:
    explicit CompilerService(ServiceOptions opts = {});

    CompilerService(const CompilerService &) = delete;
    CompilerService &operator=(const CompilerService &) = delete;

    /**
     * Compile now, on the calling thread. Returns the shared artifact
     * (possibly memoized). Throws what the compile throws (FatalError
     * for circuits a strategy cannot fit, unknown strategy names, ...).
     * Safe to call from many threads at once; a request identical to
     * one already compiling waits for that compile instead of
     * repeating it.
     */
    CompileArtifact compileSync(const CompileRequest &req);

    ServiceStats stats() const;

    /** Drop all memoized artifacts and pooled contexts (counters are
     *  retained; the disk store, if any, is deliberately untouched --
     *  it is the tier that exists to survive exactly this). */
    void clearCache();

    /** @name The device registry (see arch/device.hh)
     * Shared mutable state with its own lock: registering devices and
     * installing calibrations is safe concurrently with compiles.
     * Invalidation needs no cache surgery -- a new calibration changes
     * the config fingerprint of subsequent by-name requests, so stale
     * artifacts simply stop being addressable (and age out by LRU). @{ */
    DeviceRegistry &devices() { return devices_; }
    const DeviceRegistry &devices() const { return devices_; }
    /** @} */

  private:
    /** Memo-cache key: one 64-bit content fingerprint per component
     *  plus the verbatim strategy name. Equality compares the
     *  fingerprints, not the underlying content — a wrong-artifact
     *  serve therefore requires a single-component 64-bit collision
     *  (see the Fingerprinter doc for why that trade is accepted).
     *  The same key is the on-disk record identity (ir/serialize.hh),
     *  so the memo and disk tiers can never disagree. */
    using RequestKey = ArtifactKey;
    using RequestKeyHash = ArtifactKeyHash;

    /**
     * One pooled compile context. Owns copies of the inputs the
     * CompileContext references (CostModel and ExpandedGraph hold
     * pointers into them), so a pooled context is self-contained and
     * can outlive every request that used it.
     */
    struct PooledContext
    {
        std::uint64_t fp; ///< topo ^ lib ^ cfg pricing fingerprint
        Topology topo;
        GateLibrary lib;
        CompilerConfig cfg;
        std::optional<CompileContext> ctx;

        PooledContext(std::uint64_t fp_, const Topology &t,
                      const GateLibrary &l, const CompilerConfig &c)
            : fp(fp_), topo(t), lib(l), cfg(c)
        {
            ctx.emplace(topo, lib, cfg);
        }
    };

    /** Memo entry. @ref bytes is the serialized-size charge (0 when
     *  charging is off; see ServiceStats::bytesInUse). */
    struct LruEntry
    {
        RequestKey key;
        CompileArtifact artifact;
        std::size_t bytes = 0;
    };

    /** Template-tier entry. The key reuses RequestKey with the
     *  `circuit` field holding the STRUCTURAL fingerprint instead of
     *  the exact one -- same non-circuit components, same hash. */
    using TemplatePtr = std::shared_ptr<const CompiledTemplate>;
    using TemplateEntry = std::pair<RequestKey, TemplatePtr>;

    /** Full compile of @p req against the resolved @p topology and
     *  @p config (a by-name request's device content, else the
     *  request's own). */
    CompileArtifact compileUncached(const CompileRequest &req,
                                    const Topology &topology,
                                    const CompilerConfig &config,
                                    std::uint64_t ctx_fp);

    /** @name Disk-tier circuit breaker (state under mu_)
     * admitDiskRead() gates the miss path's store probe: true when the
     * breaker is closed, or when a cooldown-expired half-open probe
     * (run outside mu_, single-flight via probeInFlight_) just
     * succeeded. admitDiskWrite() gates write-behind: degraded skips,
     * recovery is the read path's job. note*() feed the error/success
     * edges. @{ */
    bool admitDiskRead();
    bool admitDiskWrite();
    void noteStoreErrorLocked();
    void noteStoreSuccessLocked();
    /** @} */
    std::unique_ptr<PooledContext> acquireContext(const Topology &topology,
                                                  const GateLibrary &library,
                                                  const CompilerConfig &config,
                                                  std::uint64_t ctx_fp);
    void releaseContext(std::unique_ptr<PooledContext> pc);
    void evictOverCapacityLocked();

    ServiceOptions opts_;

    /** Named backends; internally locked, never touched under mu_. */
    DeviceRegistry devices_;

    mutable std::mutex mu_; ///< guards cache, context pool, counters
    std::list<LruEntry> lru_; ///< front = most recently used
    std::unordered_map<RequestKey, std::list<LruEntry>::iterator,
                       RequestKeyHash>
        index_;
    std::unordered_map<RequestKey, std::shared_future<CompileArtifact>,
                       RequestKeyHash>
        inflight_;
    std::vector<std::unique_ptr<PooledContext>> idle_;

    std::list<TemplateEntry> templateLru_; ///< front = most recently used
    std::unordered_map<RequestKey, std::list<TemplateEntry>::iterator,
                       RequestKeyHash>
        templateIndex_;

    /** The disk tier; null when ServiceOptions::storePath is empty.
     *  The store has its own internal mutex and is only ever called
     *  outside mu_ (loads/puts) or strictly after acquiring mu_
     *  (stats), so the lock order is always mu_ -> store. */
    std::unique_ptr<ArtifactStore> store_;

    /** The counters (and the running bytesInUse); stats() adds the
     *  gauges to a copy. */
    ServiceStats stats_;
    std::uint64_t consecutiveStoreErrors_ = 0;
    bool tierDegraded_ = false;
    bool probeInFlight_ = false; ///< one half-open probe at a time
    std::chrono::steady_clock::time_point degradedSince_{};
};

} // namespace qompress

#endif // QOMPRESS_SERVICE_COMPILER_SERVICE_HH
