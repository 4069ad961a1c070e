/**
 * @file
 * Deterministic fault injection for syscall-shaped failure seams.
 *
 * A *fault point* is a named site in library code where an I/O call
 * can be made to fail on purpose:
 *
 *     const FaultFire f = QFAULT_POINT("store.pwrite");
 *     if (f.fired) { errno = f.err; return -1; }
 *     return ::pwrite(...);
 *
 * When no injector is installed the check is a single relaxed atomic
 * load and one predictable branch -- no allocation, no lock, no
 * string work -- so fault points are safe to leave in production hot
 * paths (the persist_* bench gates hold them to that).
 *
 * When a test installs a FaultInjector, every check routes through it:
 * the injector counts calls per point name (so tests can discover how
 * many syscalls an operation performs before deciding where to cut)
 * and fires the specs armed for that point. A spec can fire on the
 * Nth call, with seeded probability p, or on every call, optionally
 * capped by a total fire limit; what it injects is an errno-style
 * failure (EIO, ENOSPC, ...), an EINTR, or a short read/write.
 * Multiple specs per point compose, so "short write, then hard
 * failure" -- the classic torn-append shape -- is one arm() sequence.
 *
 * Determinism: the probability path draws from the injector's own
 * seeded Rng under its lock, so a (seed, traffic) pair replays the
 * same fault schedule every run. There is at most one installed
 * injector process-wide; tests hold it in a ScopedFaultInjection so
 * an assertion failure cannot leak an armed injector into later
 * tests.
 *
 * Registry of points currently wired (all in service/artifact_store):
 *   store.open store.fstat store.pread store.pwrite store.fsync
 *   store.ftruncate store.close
 * docs/ARCHITECTURE.md ("Failure domains & degradation") keeps the
 * authoritative table.
 */

#ifndef QOMPRESS_COMMON_FAULTPOINT_HH
#define QOMPRESS_COMMON_FAULTPOINT_HH

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"

namespace qompress {

/** What an armed fault injects at the call site. */
enum class FaultKind : std::uint8_t
{
    Fail,    ///< the call fails with FaultSpec::err set as errno
    Eintr,   ///< the call fails with EINTR (callers should retry)
    ShortIo, ///< a read/write transfers only FaultSpec::bytes bytes
};

/** One armed fault: what to inject and when to fire. */
struct FaultSpec
{
    FaultKind kind = FaultKind::Fail;

    /** errno delivered by Fail (EIO, ENOSPC, EBADF, ...). */
    int err = EIO;

    /** Bytes a ShortIo transfer is clipped to (>= 1 keeps the call
     *  "successful but short", exercising the caller's retry loop). */
    std::uint64_t bytes = 1;

    /** Fire only on the @p nth call to the point (1-based) since the
     *  injector was installed/reset; 0 = every call, gated by
     *  @ref probability instead. */
    std::uint64_t nth = 0;

    /** With nth == 0, fire with this probability per call (seeded,
     *  deterministic). 1.0 = always. */
    double probability = 1.0;

    /** Total fires allowed for this spec; 0 = unlimited. Lets "EINTR
     *  every call" arms terminate against retry loops. */
    std::uint64_t limit = 0;
};

/** Result of one fault-point check. Default state = nothing fired. */
struct FaultFire
{
    bool fired = false;
    FaultKind kind = FaultKind::Fail;
    int err = 0;
    std::uint64_t bytes = 0;
};

/** See the file comment. All methods are thread-safe. */
class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 0x5eed) : rng_(seed) {}

    /** Add @p spec to the point's armed list (specs compose; the
     *  first matching spec per call wins, in arm order). */
    void arm(const std::string &point, FaultSpec spec);

    /** Drop every spec armed on @p point (counters survive). */
    void disarm(const std::string &point);

    /** Drop all specs and zero every per-point counter. */
    void reset();

    /** Calls observed at @p point while this injector was installed
     *  (counted whether or not anything fired -- the discovery knob
     *  the fault-matrix tests size their sweeps with). */
    std::uint64_t calls(const std::string &point) const;

    /** Faults actually delivered at @p point. */
    std::uint64_t fires(const std::string &point) const;

    /** Every point name observed so far (sorted). */
    std::vector<std::string> touchedPoints() const;

    /** Make this the process-wide injector / remove it again. At most
     *  one may be installed; prefer ScopedFaultInjection in tests. */
    void install();
    static void uninstall();

    /** The armed-path check behind QFAULT_POINT; call via the macro. */
    FaultFire check(const char *point);

  private:
    struct PointState
    {
        std::vector<FaultSpec> specs;
        std::vector<std::uint64_t> specFires; ///< parallel to specs
        std::uint64_t calls = 0;
        std::uint64_t fires = 0;
    };

    mutable std::mutex mu_;
    Rng rng_;
    std::unordered_map<std::string, PointState> points_;
};

namespace detail {
/** nullptr = disarmed (the common case). Release/acquire so an
 *  installed injector's armed specs are visible to every thread that
 *  observes the pointer. */
extern std::atomic<FaultInjector *> g_faultInjector;
} // namespace detail

/**
 * The hot-path check: one atomic load and one branch when disarmed.
 * @p point must be a string literal (it is only read on the armed
 * slow path).
 */
inline FaultFire
faultPointCheck(const char *point)
{
    FaultInjector *inj =
        detail::g_faultInjector.load(std::memory_order_acquire);
    if (!inj)
        return FaultFire{};
    return inj->check(point);
}

/** RAII install/uninstall so a throwing test cannot leak an armed
 *  injector into the rest of the process. */
class ScopedFaultInjection
{
  public:
    explicit ScopedFaultInjection(FaultInjector &inj) { inj.install(); }
    ~ScopedFaultInjection() { FaultInjector::uninstall(); }

    ScopedFaultInjection(const ScopedFaultInjection &) = delete;
    ScopedFaultInjection &operator=(const ScopedFaultInjection &) = delete;
};

} // namespace qompress

/** Named fault point; evaluates to a qompress::FaultFire. */
#define QFAULT_POINT(point) ::qompress::faultPointCheck(point)

#endif // QOMPRESS_COMMON_FAULTPOINT_HH
