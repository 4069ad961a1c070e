/**
 * @file
 * qompressd: the Qompress compile server (see src/server/server.hh).
 *
 *   qompressd [options]
 *
 * Options:
 *   --port=N            listen port (default 8080; 0 = ephemeral,
 *                       printed at startup)
 *   --bind=ADDR         bind address (default 127.0.0.1)
 *   --workers=N         connection workers = max concurrent compiles
 *                       (default: hardware concurrency, min 2)
 *   --queue=N           admission queue bound (>= 1, default 64)
 *   --deadline-ms=X     default per-request deadline (0 = none)
 *   --idle-timeout-ms=N keep-alive/slow-client read timeout
 *   --cache=N           artifact memo LRU capacity
 *   --cache-bytes=N     memo LRU byte budget (0 = unlimited)
 *   --template-cache=N  template-tier LRU capacity
 *   --contexts=N        warm CompileContext pool capacity
 *   --store=PATH        artifact-store log backing the disk tier
 *                       (restarts with the same PATH boot warm)
 *   --fsync=POLICY      store durability: never (default) | interval |
 *                       always (acknowledged == durable)
 *   --fsync-interval-bytes=N
 *                       appended bytes between syncs under
 *                       --fsync=interval (default 1 MiB)
 *   --store-error-threshold=K
 *                       consecutive store failures before the disk
 *                       tier degrades (0 = breaker off; default 3)
 *   --store-cooldown-ms=X
 *                       how long a degraded tier waits before its
 *                       next recovery probe (default 1000)
 *   --drain-grace-ms=N  on SIGINT/SIGTERM, report "draining" (503) on
 *                       /healthz for N ms before stopping, so load
 *                       balancers bleed traffic away first (default 0)
 *   --max-units=N       largest topology a request may ask for
 *   --device=NAME=PATH  register a custom device NAME from a topology
 *                       file (see Topology::fromFile); repeatable
 *   --calibration=NAME=PATH
 *                       install a qcal calibration on device NAME at
 *                       boot (see arch/device.hh); repeatable, applied
 *                       after every --device
 *   --debug-endpoints   enable POST /debug/sleep and
 *                       POST /devices/<name>/calibration
 *
 * Numeric values are strict: digits only (a finite number >= 0 for the
 * -ms flags taking X), range-checked; a malformed value exits 2 with
 * an error naming the flag.
 *
 * SIGINT/SIGTERM trigger a graceful shutdown: flip /healthz to
 * draining, wait the drain grace, stop accepting, answer queued
 * connections with 503, finish in-flight compiles, exit 0.
 */

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "flags.hh"
#include "server/server.hh"

using namespace qompress;

namespace {

volatile std::sig_atomic_t g_stop = 0;

/** --drain-grace-ms: how long /healthz says "draining" before stop(). */
int g_drainGraceMs = 0;

/** --device / --calibration: NAME=PATH pairs applied to the server's
 *  registry after construction, in command-line order. */
std::vector<std::pair<std::string, std::string>> g_devices;
std::vector<std::pair<std::string, std::string>> g_calibrations;

std::pair<std::string, std::string>
namePathPair(const std::string &spec, const char *flag)
{
    const auto eq = spec.find('=');
    QFATAL_IF(eq == std::string::npos || eq == 0 ||
              eq + 1 == spec.size(),
              flag, " expects NAME=PATH, got '", spec, "'");
    return {spec.substr(0, eq), spec.substr(eq + 1)};
}

void
onSignal(int)
{
    g_stop = 1;
}

void
usage()
{
    std::printf(
        "usage: qompressd [--port=N] [--bind=ADDR] [--workers=N]\n"
        "       [--queue=N] [--deadline-ms=X] [--idle-timeout-ms=N]\n"
        "       [--cache=N] [--cache-bytes=N] [--template-cache=N]\n"
        "       [--contexts=N] [--store=PATH] [--max-units=N]\n"
        "       [--fsync=never|interval|always]\n"
        "       [--fsync-interval-bytes=N] [--store-error-threshold=K]\n"
        "       [--store-cooldown-ms=X] [--drain-grace-ms=N]\n"
        "       [--device=NAME=PATH] [--calibration=NAME=PATH]\n"
        "       [--debug-endpoints]\n");
}

ServerOptions
parse(int argc, char **argv)
{
    constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
    constexpr std::uint64_t kInt = std::numeric_limits<int>::max();
    ServerOptions opts;
    opts.port = 8080;
    const unsigned hw = std::thread::hardware_concurrency();
    opts.workers = hw > 2 ? static_cast<int>(hw) : 2;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        const std::string flag = a.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : a.substr(eq + 1);
        auto integer = [&](std::uint64_t lo, std::uint64_t hi) {
            return integerFlag(flag, value, lo, hi);
        };
        if (flag == "--port") {
            opts.port = static_cast<int>(integer(0, 65535));
        } else if (flag == "--bind") {
            opts.bindAddress = value;
        } else if (flag == "--workers") {
            opts.workers = static_cast<int>(integer(1, kInt));
        } else if (flag == "--queue") {
            opts.maxQueue = integer(1, kAny);
        } else if (flag == "--deadline-ms") {
            opts.defaultDeadlineMs = nonNegativeFlag(flag, value);
        } else if (flag == "--idle-timeout-ms") {
            opts.idleTimeoutMs = static_cast<int>(integer(0, kInt));
        } else if (flag == "--cache") {
            opts.service.cacheCapacity = integer(0, kAny);
        } else if (flag == "--cache-bytes") {
            opts.service.cacheBytesCapacity = integer(0, kAny);
        } else if (flag == "--store") {
            opts.service.storePath = value;
        } else if (flag == "--fsync") {
            opts.service.store.fsync = fsyncPolicyFromString(value);
        } else if (flag == "--fsync-interval-bytes") {
            opts.service.store.fsyncIntervalBytes = integer(0, kAny);
        } else if (flag == "--store-error-threshold") {
            opts.service.storeErrorThreshold = integer(0, kAny);
        } else if (flag == "--store-cooldown-ms") {
            opts.service.storeCooldownMs = nonNegativeFlag(flag, value);
        } else if (flag == "--drain-grace-ms") {
            g_drainGraceMs = static_cast<int>(integer(0, kInt));
        } else if (flag == "--template-cache") {
            opts.service.templateCacheCapacity = integer(0, kAny);
        } else if (flag == "--contexts") {
            opts.service.contextPoolCapacity = integer(0, kAny);
        } else if (flag == "--max-units") {
            opts.maxUnits = static_cast<int>(integer(1, kInt));
        } else if (flag == "--device") {
            g_devices.push_back(namePathPair(value, "--device"));
        } else if (flag == "--calibration") {
            g_calibrations.push_back(
                namePathPair(value, "--calibration"));
        } else if (a == "--debug-endpoints") {
            opts.debugEndpoints = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            QFATAL("unknown option '", a, "' (see --help)");
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const ServerOptions opts = parse(argc, argv);
        QompressServer server(opts);
        // Customs first, then calibrations, so a boot calibration can
        // target a device registered on the same command line.
        for (const auto &[name, path] : g_devices)
            server.service().devices().addFromFile(name, path);
        for (const auto &[name, path] : g_calibrations) {
            server.service().devices().setCalibration(
                name, DeviceCalibration::fromFile(path));
        }
        server.start();
        std::printf("qompressd listening on %s:%d (workers=%d, "
                    "queue=%zu, cache=%zu, template-cache=%zu, "
                    "store=%s)\n",
                    opts.bindAddress.c_str(), server.port(),
                    opts.workers, opts.maxQueue,
                    opts.service.cacheCapacity,
                    opts.service.templateCacheCapacity,
                    opts.service.storePath.empty()
                        ? "off"
                        : opts.service.storePath.c_str());
        std::fflush(stdout);

        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        while (!g_stop)
            std::this_thread::sleep_for(std::chrono::milliseconds(200));

        std::printf("qompressd: draining and shutting down\n");
        std::fflush(stdout);
        if (g_drainGraceMs > 0) {
            // Advertise "draining" on /healthz while still serving, so
            // load balancers stop routing here before we stop.
            server.beginDrain();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(g_drainGraceMs));
        }
        server.stop();
        const ServerStats s = server.stats();
        std::printf("qompressd: served %llu requests (%llu ok, %llu "
                    "4xx, %llu 5xx, %llu shed)\n",
                    static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.ok),
                    static_cast<unsigned long long>(s.clientErrors),
                    static_cast<unsigned long long>(s.serverErrors),
                    static_cast<unsigned long long>(s.shed));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qompressd: %s\n", e.what());
        return 2;
    }
}
