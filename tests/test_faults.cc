/**
 * @file
 * The fault-injection wall: proves the persistence/service stack
 * degrades instead of breaking, for every failure the fault points in
 * service/artifact_store.cc can deliver.
 *
 * Four walls:
 *  - FaultPoint semantics: the disarmed hot path is allocation-free,
 *    nth/probability/limit/compose arming behaves as documented, and
 *    misuse (ShortIo of zero bytes, double install) fails loudly.
 *  - Store faults: EINTR is retried transparently, short reads/writes
 *    are completed by the exact-IO loops, torn appends are trimmed,
 *    ENOSPC/EIO fail the one operation cleanly, and fsync policies
 *    sync when promised (and a failed required fsync fails the put).
 *  - The fault matrix: every fault point x every call index x
 *    open/put/reput/load/restart must end in a false return or a
 *    FatalError -- never a PanicError, a crash, or a store whose
 *    surviving records differ from what was acknowledged (for a
 *    re-put key, the newest acknowledged blob).
 *  - The circuit breaker: the disk tier opens after K consecutive
 *    store errors, skips (not retries) while degraded, re-probes
 *    after the cooldown from the read path, recovers, and keeps the
 *    ServiceStats request partition exact throughout -- including
 *    under concurrent traffic with probabilistic faults (the TSan
 *    matrix runs this binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/faultpoint.hh"
#include "common/rng.hh"
#include "ir/circuit.hh"
#include "service/artifact_store.hh"
#include "service/compiler_service.hh"

// ------------------------------------------------------------------
// Thread-local allocation counter (same pattern as bench_hotpaths):
// proves the disarmed QFAULT_POINT path performs zero allocations
// without blaming gtest's own allocations on other threads.
// ------------------------------------------------------------------

static thread_local std::uint64_t t_alloc_count = 0;

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

namespace qompress {
namespace {

using Blob = std::vector<std::uint8_t>;

std::string
tempPath(const char *tag)
{
    const std::string path =
        ::testing::TempDir() + "qompress_faults_" + tag + ".log";
    std::remove(path.c_str());
    return path;
}

ArtifactKey
mkey(std::uint64_t n)
{
    return ArtifactKey{n, n * 31, n * 97, n * 131, "eqm"};
}

/** Deterministic opaque record bytes; the store never interprets
 *  blobs, so byte equality after a fault IS the corruption check. */
Blob
patternBlob(std::uint64_t n)
{
    Blob b(64 + (n % 37));
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<std::uint8_t>((n * 131 + i * 7) & 0xff);
    return b;
}

FaultSpec
failWith(int err, std::uint64_t nth = 0)
{
    FaultSpec f;
    f.kind = FaultKind::Fail;
    f.err = err;
    f.nth = nth;
    return f;
}

// ------------------------------------------------------------------
// FaultPoint semantics
// ------------------------------------------------------------------

TEST(FaultPoint, DisarmedCheckIsAllocationFreeAndNeverFires)
{
    ASSERT_EQ(detail::g_faultInjector.load(), nullptr);
    for (int i = 0; i < 8; ++i)
        (void)QFAULT_POINT("alloc.probe"); // warm any lazy state
    const std::uint64_t before = t_alloc_count;
    bool fired = false;
    for (int i = 0; i < 10000; ++i)
        fired |= QFAULT_POINT("alloc.probe").fired;
    EXPECT_FALSE(fired);
    EXPECT_EQ(t_alloc_count, before)
        << "disarmed fault points must not allocate";
}

TEST(FaultPoint, NthFiresExactlyOnce)
{
    FaultInjector inj;
    inj.arm("p", failWith(EIO, 3));
    ScopedFaultInjection sc(inj);
    for (int call = 1; call <= 6; ++call) {
        const FaultFire f = QFAULT_POINT("p");
        EXPECT_EQ(f.fired, call == 3) << "call " << call;
        if (f.fired) {
            EXPECT_EQ(f.err, EIO);
        }
    }
    EXPECT_EQ(inj.calls("p"), 6u);
    EXPECT_EQ(inj.fires("p"), 1u);
}

TEST(FaultPoint, ProbabilityZeroNeverOneAlwaysAndLimitCaps)
{
    FaultInjector inj(7);
    FaultSpec never = failWith(EIO);
    never.probability = 0.0;
    inj.arm("never", never);
    FaultSpec capped = failWith(ENOSPC);
    capped.limit = 2;
    inj.arm("capped", capped);
    ScopedFaultInjection sc(inj);
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(QFAULT_POINT("never").fired);
    int fires = 0;
    for (int i = 0; i < 50; ++i)
        fires += QFAULT_POINT("capped").fired ? 1 : 0;
    EXPECT_EQ(fires, 2) << "limit must cap total fires";
}

TEST(FaultPoint, EintrKindAlwaysDeliversEintr)
{
    FaultInjector inj;
    FaultSpec f;
    f.kind = FaultKind::Eintr;
    f.err = EIO; // deliberately wrong; Eintr must override it
    f.limit = 1;
    inj.arm("p", f);
    ScopedFaultInjection sc(inj);
    const FaultFire fire = QFAULT_POINT("p");
    ASSERT_TRUE(fire.fired);
    EXPECT_EQ(fire.err, EINTR);
}

TEST(FaultPoint, SpecsComposeIntoTornAppendShape)
{
    // Short write on call 1, hard failure on call 2: the classic torn
    // append, armed as two composed specs on one point.
    FaultInjector inj;
    FaultSpec shortio;
    shortio.kind = FaultKind::ShortIo;
    shortio.bytes = 8;
    shortio.nth = 1;
    inj.arm("p", shortio);
    inj.arm("p", failWith(EIO, 2));
    ScopedFaultInjection sc(inj);
    const FaultFire first = QFAULT_POINT("p");
    ASSERT_TRUE(first.fired);
    EXPECT_EQ(first.kind, FaultKind::ShortIo);
    EXPECT_EQ(first.bytes, 8u);
    const FaultFire second = QFAULT_POINT("p");
    ASSERT_TRUE(second.fired);
    EXPECT_EQ(second.kind, FaultKind::Fail);
    EXPECT_FALSE(QFAULT_POINT("p").fired);
}

TEST(FaultPoint, ShortIoOfZeroBytesIsRejected)
{
    FaultInjector inj;
    FaultSpec f;
    f.kind = FaultKind::ShortIo;
    f.bytes = 0; // would turn exact-IO retry loops into spins
    EXPECT_THROW(inj.arm("p", f), FatalError);
}

TEST(FaultPoint, SecondInstallPanics)
{
    FaultInjector a, b;
    ScopedFaultInjection sc(a);
    EXPECT_THROW(b.install(), PanicError);
}

TEST(FaultPoint, CallsAreCountedWithNothingArmed)
{
    // The discovery knob: an empty injector observing traffic tells
    // the matrix how many syscalls an operation performs.
    FaultInjector inj;
    ScopedFaultInjection sc(inj);
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(QFAULT_POINT("observed").fired);
    EXPECT_EQ(inj.calls("observed"), 5u);
    EXPECT_EQ(inj.fires("observed"), 0u);
    const auto points = inj.touchedPoints();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0], "observed");
}

// ------------------------------------------------------------------
// Store faults: targeted shapes
// ------------------------------------------------------------------

TEST(StoreFaults, EintrIsRetriedNotFailed)
{
    const std::string path = tempPath("eintr");
    StoreOptions so;
    so.fsync = FsyncPolicy::Always;
    FaultInjector inj;
    for (const char *point :
         {"store.open", "store.pread", "store.pwrite", "store.fsync"}) {
        FaultSpec f;
        f.kind = FaultKind::Eintr;
        f.limit = 3; // terminate against the retry loops
        inj.arm(point, f);
    }
    ScopedFaultInjection sc(inj);
    ArtifactStore store(path, so);
    EXPECT_TRUE(store.put(mkey(1), patternBlob(1)));
    Blob out;
    EXPECT_EQ(store.loadStatus(mkey(1), out), StoreStatus::Ok);
    EXPECT_EQ(out, patternBlob(1));
}

TEST(StoreFaults, ShortWritesAreCompletedByTheExactLoop)
{
    const std::string path = tempPath("shortwrite");
    FaultInjector inj;
    FaultSpec f;
    f.kind = FaultKind::ShortIo;
    f.bytes = 8;
    f.limit = 6; // several consecutive 8-byte dribbles, then normal
    inj.arm("store.pwrite", f);
    ScopedFaultInjection sc(inj);
    ArtifactStore store(path);
    EXPECT_TRUE(store.put(mkey(1), patternBlob(1)));
    EXPECT_GE(inj.fires("store.pwrite"), 2u);
    Blob out;
    EXPECT_EQ(store.loadStatus(mkey(1), out), StoreStatus::Ok);
    EXPECT_EQ(out, patternBlob(1));
}

TEST(StoreFaults, ShortReadsAreCompletedByTheExactLoop)
{
    const std::string path = tempPath("shortread");
    {
        ArtifactStore store(path);
        ASSERT_TRUE(store.put(mkey(1), patternBlob(1)));
    }
    FaultInjector inj;
    FaultSpec f;
    f.kind = FaultKind::ShortIo;
    f.bytes = 4;
    f.limit = 8;
    inj.arm("store.pread", f);
    ScopedFaultInjection sc(inj);
    ArtifactStore store(path); // recovery scan also reads short
    Blob out;
    EXPECT_EQ(store.loadStatus(mkey(1), out), StoreStatus::Ok);
    EXPECT_EQ(out, patternBlob(1));
}

TEST(StoreFaults, TornAppendIsTrimmedAndTheStoreStaysServable)
{
    const std::string path = tempPath("tornappend");
    ArtifactStore store(path);
    ASSERT_TRUE(store.put(mkey(1), patternBlob(1)));
    {
        FaultInjector inj;
        FaultSpec shortio;
        shortio.kind = FaultKind::ShortIo;
        shortio.bytes = 8;
        shortio.nth = 1;
        inj.arm("store.pwrite", shortio);
        inj.arm("store.pwrite", failWith(EIO, 2));
        ScopedFaultInjection sc(inj);
        EXPECT_FALSE(store.put(mkey(2), patternBlob(2)));
    }
    EXPECT_FALSE(store.contains(mkey(2)));
    Blob out;
    EXPECT_EQ(store.loadStatus(mkey(1), out), StoreStatus::Ok);
    // The torn bytes were truncated away: a fresh append works and a
    // reopen sees exactly the two acknowledged records.
    EXPECT_TRUE(store.put(mkey(3), patternBlob(3)));
    ArtifactStore reopened(path);
    EXPECT_EQ(reopened.records(), 2u);
    EXPECT_EQ(reopened.loadStatus(mkey(3), out), StoreStatus::Ok);
    EXPECT_EQ(out, patternBlob(3));
}

TEST(StoreFaults, EnospcFailsTheOnePutCleanly)
{
    const std::string path = tempPath("enospc");
    ArtifactStore store(path);
    {
        FaultInjector inj;
        FaultSpec f = failWith(ENOSPC);
        f.limit = 1;
        inj.arm("store.pwrite", f);
        ScopedFaultInjection sc(inj);
        EXPECT_FALSE(store.put(mkey(1), patternBlob(1)));
    }
    EXPECT_TRUE(store.put(mkey(1), patternBlob(1)))
        << "the store must keep working once space is back";
    EXPECT_EQ(store.records(), 1u);
}

TEST(StoreFaults, RequiredFsyncFailureFailsThePut)
{
    const std::string path = tempPath("fsyncfail");
    StoreOptions so;
    so.fsync = FsyncPolicy::Always;
    ArtifactStore store(path, so);
    ASSERT_TRUE(store.put(mkey(1), patternBlob(1)));
    {
        FaultInjector inj;
        FaultSpec f = failWith(EIO);
        f.limit = 1;
        inj.arm("store.fsync", f);
        ScopedFaultInjection sc(inj);
        // Under Always, acknowledged == durable: an un-syncable append
        // must not be acknowledged, and is trimmed so the log never
        // holds bytes the caller was told failed.
        EXPECT_FALSE(store.put(mkey(2), patternBlob(2)));
    }
    ArtifactStore reopened(path, so);
    EXPECT_EQ(reopened.records(), 1u);
    EXPECT_FALSE(reopened.contains(mkey(2)));
}

/**
 * Put three records, then reopen with the @p nth store.pread failing
 * with EIO: the open must throw a FatalError naming the path, and a
 * clean reopen must serve all three records byte-identical.
 */
void
expectReadErrorAtOpenKeepsEveryRecord(const char *tag, std::uint64_t nth)
{
    const std::string path = tempPath(tag);
    {
        ArtifactStore store(path);
        for (std::uint64_t i = 1; i <= 3; ++i)
            ASSERT_TRUE(store.put(mkey(i), patternBlob(i)));
    }
    {
        FaultInjector inj;
        inj.arm("store.pread", failWith(EIO, nth));
        ScopedFaultInjection sc(inj);
        try {
            ArtifactStore reopened(path);
            ADD_FAILURE() << "a failed read at open must end the open";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
    }
    ArtifactStore clean(path);
    EXPECT_EQ(clean.records(), 3u);
    for (std::uint64_t i = 1; i <= 3; ++i) {
        Blob out;
        ASSERT_EQ(clean.loadStatus(mkey(i), out), StoreStatus::Ok)
            << "record " << i;
        EXPECT_EQ(out, patternBlob(i)) << "record " << i;
    }
}

TEST(StoreFaults, ReadErrorOnAFrameAtOpenKeepsEveryRecord)
{
    // pread call 1 reads the store header, 2-3 frame 1, 4 frame 2's
    // header: a torn-tail scan would truncate frames 2 and 3 away.
    expectReadErrorAtOpenKeepsEveryRecord("readerr_frame", 4);
}

TEST(StoreFaults, ReadErrorOnTheHeaderAtOpenKeepsEveryRecord)
{
    // An unread header is not a foreign one: starting cold would
    // truncate the whole log.
    expectReadErrorAtOpenKeepsEveryRecord("readerr_header", 1);
}

TEST(StoreFaults, FsyncPoliciesSyncWhenPromised)
{
    // An installed injector with nothing armed counts the fsyncs.
    const auto fsyncs = [](const char *tag, const StoreOptions &so) {
        FaultInjector inj;
        ScopedFaultInjection sc(inj);
        ArtifactStore store(tempPath(tag), so);
        for (std::uint64_t i = 1; i <= 8; ++i)
            EXPECT_TRUE(store.put(mkey(i), patternBlob(i)));
        return inj.calls("store.fsync");
    };
    StoreOptions so;
    EXPECT_EQ(fsyncs("fs_never", so), 0u);
    so.fsync = FsyncPolicy::Always;
    EXPECT_EQ(fsyncs("fs_always", so), 8u);
    so.fsync = FsyncPolicy::Interval;
    so.fsyncIntervalBytes = 1; // every append crosses the line
    EXPECT_EQ(fsyncs("fs_interval", so), 8u);
    so.fsyncIntervalBytes = 1 << 30; // never crossed by this test
    EXPECT_EQ(fsyncs("fs_interval_big", so), 0u);
}

TEST(StoreFaults, FsyncPolicyParsesAndRejects)
{
    EXPECT_EQ(fsyncPolicyFromString("never"), FsyncPolicy::Never);
    EXPECT_EQ(fsyncPolicyFromString("interval"), FsyncPolicy::Interval);
    EXPECT_EQ(fsyncPolicyFromString("always"), FsyncPolicy::Always);
    EXPECT_THROW(fsyncPolicyFromString("sometimes"), FatalError);
}

// ------------------------------------------------------------------
// The fault matrix
// ------------------------------------------------------------------

enum class Op { Open, Put, Reput, Load, Restart };

constexpr Op kOps[] = {Op::Open, Op::Put, Op::Reput, Op::Load,
                       Op::Restart};

const char *
opName(Op op)
{
    switch (op) {
    case Op::Open: return "open";
    case Op::Put: return "put";
    case Op::Reput: return "reput";
    case Op::Load: return "load";
    case Op::Restart: return "restart";
    }
    return "?";
}

struct Outcome
{
    bool fatal = false;    ///< FatalError escaped (allowed)
    bool panic = false;    ///< PanicError escaped (NEVER allowed)
    bool other = false;    ///< anything else escaped (NEVER allowed)
    bool retFalse = false; ///< the op reported failure by value
};

/**
 * Run @p op against a freshly seeded two-record store at @p path with
 * @p inj installed for exactly the op (seeding and teardown run
 * disarmed). Fills @p expected with what the log must still serve
 * afterwards.
 */
Outcome
runOp(Op op, const std::string &path, FaultInjector *inj,
      std::map<std::uint64_t, Blob> &expected)
{
    std::remove(path.c_str());
    StoreOptions so;
    so.fsync = FsyncPolicy::Always; // widest syscall coverage per op
    expected.clear();
    expected[1] = patternBlob(1);
    expected[2] = patternBlob(2);

    Outcome out;
    try {
        std::unique_ptr<ArtifactStore> store =
            std::make_unique<ArtifactStore>(path, so);
        for (std::uint64_t i = 1; i <= 2; ++i)
            EXPECT_TRUE(store->put(mkey(i), expected[i]));
        if (op == Op::Open)
            store.reset(); // open happens fully under injection

        std::optional<ScopedFaultInjection> scoped;
        if (inj)
            scoped.emplace(*inj);
        switch (op) {
        case Op::Open: {
            ArtifactStore reopened(path, so);
            break;
        }
        case Op::Put: {
            if (!store->put(mkey(9), patternBlob(9)))
                out.retFalse = true;
            else
                expected[9] = patternBlob(9);
            break;
        }
        case Op::Reput: {
            // Last wins: an acknowledged re-put must replace key 1's
            // blob, a failed one must leave the old blob served.
            if (!store->put(mkey(1), patternBlob(11)))
                out.retFalse = true;
            else
                expected[1] = patternBlob(11);
            break;
        }
        case Op::Load: {
            Blob b;
            const StoreStatus rc = store->loadStatus(mkey(1), b);
            if (rc != StoreStatus::Ok)
                out.retFalse = true;
            else
                EXPECT_EQ(b, expected[1]);
            EXPECT_NE(rc, StoreStatus::Miss)
                << "a read failure must not masquerade as absence";
            break;
        }
        case Op::Restart: {
            store.reset(); // close fires under injection too
            ArtifactStore reopened(path, so);
            break;
        }
        }
        scoped.reset(); // uninstall before the teardown close
    } catch (const FatalError &) {
        out.fatal = true;
    } catch (const PanicError &) {
        out.panic = true;
    } catch (...) {
        out.other = true;
    }
    return out;
}

/**
 * Reopen the log at @p path disarmed: it must serve exactly the
 * acknowledged keys, each byte-identical to the blob last acknowledged
 * for it. @p cell names the matrix cell in failure messages.
 */
void
expectServesAcknowledged(const std::string &path,
                         const std::map<std::uint64_t, Blob> &expected,
                         const std::string &cell)
{
    ArtifactStore verify(path);
    EXPECT_EQ(verify.records(), expected.size())
        << cell << ": the store must serve exactly the acknowledged keys";
    for (const auto &[n, blob] : expected) {
        Blob b;
        ASSERT_EQ(verify.loadStatus(mkey(n), b), StoreStatus::Ok)
            << cell << ": acknowledged record " << n << " lost";
        EXPECT_EQ(b, blob) << cell << ": record " << n << " corrupted";
    }
}

TEST(FaultMatrix, EveryPointEveryCallIndexEveryOp)
{
    const std::string path = tempPath("matrix");
    for (const Op op : kOps) {
        // Discovery: an empty injector counts the syscalls the op
        // makes per point, sizing the sweep below.
        FaultInjector discovery;
        std::map<std::uint64_t, Blob> expected;
        const Outcome base = runOp(op, path, &discovery, expected);
        ASSERT_FALSE(base.fatal || base.panic || base.other ||
                     base.retFalse)
            << opName(op) << " must succeed with nothing armed";
        expectServesAcknowledged(path, expected, opName(op));

        for (const std::string &point : discovery.touchedPoints()) {
            const std::uint64_t calls = discovery.calls(point);
            ASSERT_GT(calls, 0u);
            for (std::uint64_t nth = 1; nth <= calls; ++nth) {
                const std::string cell = std::string(opName(op)) +
                                         " x " + point + "[" +
                                         std::to_string(nth) + "]";
                FaultInjector inj;
                inj.arm(point, failWith(EIO, nth));
                const Outcome got = runOp(op, path, &inj, expected);
                EXPECT_FALSE(got.panic)
                    << cell << ": PanicError is an internal-bug signal, "
                               "never a fault outcome";
                EXPECT_FALSE(got.other)
                    << cell << ": unexpected exception type";

                // Whatever happened, the log must reopen to records
                // whose bytes match exactly what was acknowledged.
                expectServesAcknowledged(path, expected, cell);
            }
        }
    }
}

// ------------------------------------------------------------------
// Circuit breaker (service disk tier)
// ------------------------------------------------------------------

/** Unique-angle copy of a parameterized base circuit: every request
 *  is a distinct artifact key, forcing disk-tier traffic. */
CompileRequest
uniqueReq(const Circuit &base, const Topology &topo, Rng &rng)
{
    Circuit c(base.numQubits(), base.name());
    for (Gate g : base.gates()) {
        if (gateHasParam(g.type))
            g.param = rng.nextDouble(-3.0, 3.0);
        c.add(std::move(g));
    }
    CompileRequest req = CompileRequest::forCircuit(
        std::move(c), topo, "eqm", CompilerConfig{}, GateLibrary{});
    req.fullCompile = true; // bypass the template tier: every request
                            // must consult the disk tier
    return req;
}

TEST(Breaker, OpensAfterConsecutiveErrorsThenSkips)
{
    ServiceOptions opts;
    opts.storePath = tempPath("breaker_open");
    opts.storeErrorThreshold = 2;
    opts.storeCooldownMs = 60000.0; // no probe inside this test
    CompilerService svc(opts);
    const Circuit base = benchmarkFamily("qaoa_random").make(8);
    const Topology topo = Topology::grid(6);
    Rng rng(9);

    FaultInjector inj;
    inj.arm("store.pwrite", failWith(EIO));
    {
        ScopedFaultInjection sc(inj);
        for (int i = 0; i < 4; ++i)
            svc.compileSync(uniqueReq(base, topo, rng)); // all succeed
    }
    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.tierState, DiskTierState::Degraded);
    EXPECT_EQ(s.storeErrors, 2u)
        << "after the threshold the tier is skipped, not retried";
    EXPECT_GE(s.degradedSkips, 2u);
    EXPECT_EQ(s.requests, 4u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.requests, s.hits + s.templateHits + s.diskHits +
                              s.misses + s.coalesced);
}

TEST(Breaker, ReadProbeRecoversAfterCooldown)
{
    ServiceOptions opts;
    opts.storePath = tempPath("breaker_recover");
    opts.storeErrorThreshold = 1;
    opts.storeCooldownMs = 5.0;
    CompilerService svc(opts);
    const Circuit base = benchmarkFamily("qaoa_random").make(8);
    const Topology topo = Topology::grid(6);
    Rng rng(11);
    const CompileRequest req = uniqueReq(base, topo, rng);

    {
        FaultInjector inj;
        inj.arm("store.pwrite", failWith(EIO));
        ScopedFaultInjection sc(inj);
        svc.compileSync(req); // write-behind fails -> degraded
    }
    EXPECT_EQ(svc.stats().tierState, DiskTierState::Degraded);
    EXPECT_EQ(svc.stats().recoveries, 0u);

    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    svc.clearCache();
    svc.compileSync(req); // cooldown elapsed: the miss path's probe
                          // re-closes the breaker, then persists
    ServiceStats s = svc.stats();
    EXPECT_EQ(s.tierState, DiskTierState::Ok);
    EXPECT_EQ(s.recoveries, 1u);
    EXPECT_EQ(s.diskWrites, 1u);

    svc.clearCache();
    svc.compileSync(req); // now a genuine disk hit
    s = svc.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.requests, s.hits + s.templateHits + s.diskHits +
                              s.misses + s.coalesced);
}

TEST(Breaker, ThresholdZeroDisablesDegradation)
{
    ServiceOptions opts;
    opts.storePath = tempPath("breaker_off");
    opts.storeErrorThreshold = 0;
    CompilerService svc(opts);
    const Circuit base = benchmarkFamily("qaoa_random").make(8);
    const Topology topo = Topology::grid(6);
    Rng rng(13);

    FaultInjector inj;
    inj.arm("store.pwrite", failWith(EIO));
    {
        ScopedFaultInjection sc(inj);
        for (int i = 0; i < 4; ++i)
            svc.compileSync(uniqueReq(base, topo, rng));
    }
    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.storeErrors, 4u) << "errors still counted";
    EXPECT_EQ(s.tierState, DiskTierState::Ok) << "but never degraded";
    EXPECT_EQ(s.degradedSkips, 0u);
}

TEST(Breaker, TierStateIsOffWithoutAStore)
{
    CompilerService svc(ServiceOptions{});
    EXPECT_EQ(svc.stats().tierState, DiskTierState::Off);
    EXPECT_STREQ(diskTierStateName(DiskTierState::Off), "off");
    EXPECT_STREQ(diskTierStateName(DiskTierState::Degraded), "degraded");
}

// ------------------------------------------------------------------
// Concurrency (the TSan matrix runs this binary)
// ------------------------------------------------------------------

TEST(BreakerThreads, PartitionHoldsUnderConcurrentProbabilisticFaults)
{
    ServiceOptions opts;
    opts.storePath = tempPath("breaker_threads");
    opts.storeErrorThreshold = 3;
    opts.storeCooldownMs = 1.0; // flap on purpose: open/probe/close
                                // under contention is the hard case
    CompilerService svc(opts);
    const Circuit base = benchmarkFamily("qaoa_random").make(8);
    const Topology topo = Topology::grid(6);

    FaultInjector inj(42);
    FaultSpec flaky = failWith(EIO);
    flaky.probability = 0.5;
    inj.arm("store.pwrite", flaky);
    inj.arm("store.pread", flaky);
    {
        ScopedFaultInjection sc(inj);
        std::vector<std::thread> threads;
        std::atomic<int> failures{0};
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&, t] {
                Rng rng(100 + t);
                for (int i = 0; i < 20; ++i) {
                    try {
                        svc.compileSync(uniqueReq(base, topo, rng));
                    } catch (...) {
                        failures.fetch_add(1);
                    }
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
        EXPECT_EQ(failures.load(), 0)
            << "store faults must never fail a compile";
    }
    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.requests, 80u);
    EXPECT_EQ(s.requests, s.hits + s.templateHits + s.diskHits +
                              s.misses + s.coalesced)
        << "the counter partition survives concurrent degradation";
}

} // namespace
} // namespace qompress
