/**
 * @file
 * qompressd: the network edge in front of CompilerService.
 *
 * QompressServer owns a listening TCP socket, one acceptor thread,
 * and a fixed pool of connection workers. The acceptor performs
 * admission control: accepted connections go into a bounded queue and
 * are shed with an immediate 503 (plus Retry-After) when the queue is
 * full — overload degrades to fast rejections, never to unbounded
 * memory or latency. Workers speak the HTTP/1.1 subset in
 * server/http.hh (keep-alive, Content-Length framing) and call
 * CompilerService::compileSync once per circuit, so the memo tier,
 * template tier, and context pool carry all network traffic and
 * compile concurrency equals the worker count.
 *
 * Endpoints:
 *   POST /compile            body = OpenQASM 2.0; query: strategy,
 *                            topology (grid|heavyhex|ring|line) OR
 *                            device=<registered name> (registry
 *                            topology + current calibration),
 *                            units, full (1 = bypass template tier),
 *                            deadline_ms
 *   GET  /compile            query: family, size or sizes=csv (batch,
 *                            compiled in order; the first failing
 *                            size fails the request), plus the same
 *                            knobs as POST
 *   GET  /devices            the device registry: units/edges/
 *                            calibrated/calVersion per device
 *   POST /devices/<name>/calibration
 *                            body = qcal text (arch/device.hh); only
 *                            with ServerOptions::debugEndpoints (404
 *                            otherwise, exactly like /debug/sleep).
 *                            Bumps the device's calVersion and re-keys
 *                            every subsequent compile against it --
 *                            the cache-invalidation path the smoke
 *                            test drives over the wire
 *   GET  /metrics            the ServerStats counts, the latency
 *                            histogram, the full ServiceStats snapshot
 *                            (both rendered from their field lists)
 *                            and the device registry, as JSON
 *   GET  /healthz            health probe; body {"status": "..."} is
 *                            "ok" (fully healthy), "degraded" (disk
 *                            tier circuit breaker open, memory tiers
 *                            still serving; still 200) or "draining"
 *                            (503 + Retry-After: shutdown has begun,
 *                            stop sending traffic)
 *   POST /debug/sleep?ms=N   only with ServerOptions::debugEndpoints;
 *                            occupies a worker (overload testing)
 *
 * Error taxonomy -> status code (the contract tests pin this):
 *   FatalError (bad QASM, unknown strategy/family/topology,
 *   circuit does not fit)                          -> 400
 *   malformed HTTP                                 -> 400/413/431/505
 *   unknown path / wrong method                    -> 404 / 405
 *   admission queue full                           -> 503
 *   deadline exceeded (see below)                  -> 504
 *   PanicError / unexpected exception              -> 500
 * Every error body is structured JSON:
 *   {"error": {"status": N, "type": "...", "message": "..."}}.
 *
 * Deadlines: deadline_ms (query or X-Deadline-Ms header) bounds
 * parse+compile wall time. Compiles are not cancelled mid-flight; a
 * request whose work finishes past its deadline gets a 504 and the
 * artifact still warms the caches. deadline_ms=0 expires immediately
 * (a deterministic 504, used by tests); absent or negative = none; a
 * value that is not finite or starts with whitespace is a 400.
 *
 * Shutdown: stop() closes the listen socket, answers every
 * still-queued connection with 503, and lets in-flight requests
 * finish and deliver their responses. Compiles run on the workers
 * themselves, so joining the workers leaves no compile behind. The
 * destructor calls stop().
 */

#ifndef QOMPRESS_SERVER_SERVER_HH
#define QOMPRESS_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/histogram.hh"
#include "server/http.hh"
#include "service/compiler_service.hh"

namespace qompress {

/** A request whose work finished past its deadline (mapped to 504).
 *  Distinct from FatalError: the input was fine, the time budget was
 *  not, and the computed artifact still warmed the caches. */
class DeadlineExceeded : public std::runtime_error
{
  public:
    explicit DeadlineExceeded(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Construction knobs for the network edge. */
struct ServerOptions
{
    /** TCP port; 0 binds an ephemeral port (read it back via port()). */
    int port = 0;

    std::string bindAddress = "127.0.0.1";

    /** Connection workers == max concurrent compiles. */
    int workers = 4;

    /** Accepted-connection admission queue bound (at least 1); a
     *  connection arriving while `maxQueue` others wait is shed with
     *  503. */
    std::size_t maxQueue = 64;

    /** Request body cap (the QASM program), bytes. */
    std::size_t maxBodyBytes = 4 * 1024 * 1024;

    /** Per-connection idle / slow-client read timeout. */
    int idleTimeoutMs = 5000;

    /** Server-wide deadline applied when a request names none;
     *  <= 0 = unlimited. */
    double defaultDeadlineMs = 0.0;

    /** Largest topology the server will build for a request. */
    int maxUnits = 1024;

    /** Enable POST /debug/sleep and POST /devices/<name>/calibration
     *  (tests, load experiments, and trusted operators only). */
    bool debugEndpoints = false;

    /** Knobs for the owned CompilerService. */
    ServiceOptions service;
};

/** Monotonic server counters, gauges, and a latency snapshot. */
struct ServerStats
{
    std::uint64_t accepted = 0;    ///< connections taken off the socket
    std::uint64_t shed = 0;        ///< connections 503'd at admission
    std::uint64_t requests = 0;    ///< HTTP requests parsed
    std::uint64_t ok = 0;          ///< 2xx responses
    std::uint64_t clientErrors = 0; ///< 4xx responses
    std::uint64_t serverErrors = 0; ///< 5xx responses (excluding shed 503s)
    std::uint64_t deadlineMisses = 0; ///< 504s (also counted in serverErrors)
    std::uint64_t queueDepth = 0;  ///< connections waiting right now
    std::uint64_t workers = 0;     ///< ServerOptions::workers
    std::uint64_t maxQueue = 0;    ///< ServerOptions::maxQueue
    LatencyHistogram::Snapshot latency; ///< per-request service time
};

/** Every ServerStats count under its /metrics key, in /metrics order
 *  (the latency snapshot renders as its own section). A new field is
 *  one member above plus one entry here; the static_assert below fails
 *  when the entry is missing. */
inline constexpr std::pair<const char *, std::uint64_t ServerStats::*>
    kServerStatsFields[] = {
        {"accepted", &ServerStats::accepted},
        {"shed", &ServerStats::shed},
        {"requests", &ServerStats::requests},
        {"ok", &ServerStats::ok},
        {"clientErrors", &ServerStats::clientErrors},
        {"serverErrors", &ServerStats::serverErrors},
        {"deadlineMisses", &ServerStats::deadlineMisses},
        {"queueDepth", &ServerStats::queueDepth},
        {"workers", &ServerStats::workers},
        {"maxQueue", &ServerStats::maxQueue},
};
static_assert(sizeof(ServerStats) ==
                  std::size(kServerStatsFields) * sizeof(std::uint64_t) +
                      sizeof(LatencyHistogram::Snapshot),
              "every ServerStats count needs a kServerStatsFields entry");

/** See the file comment. */
class QompressServer
{
  public:
    explicit QompressServer(ServerOptions opts = {});
    ~QompressServer();

    QompressServer(const QompressServer &) = delete;
    QompressServer &operator=(const QompressServer &) = delete;

    /** Bind, listen, and spawn the acceptor + workers. Throws
     *  FatalError when the address cannot be bound. */
    void start();

    /** Graceful shutdown (idempotent; see the file comment). Implies
     *  beginDrain(), so /healthz flips to draining the moment stop()
     *  starts, before any worker is joined. */
    void stop();

    /**
     * Flip /healthz to "draining" (503) without stopping anything:
     * load balancers see the signal and bleed traffic away while
     * in-flight and newly arriving requests still complete. Call it
     * a grace period before stop() for zero-error rolling restarts.
     */
    void beginDrain() { draining_.store(true); }

    bool draining() const { return draining_.load(); }

    /** The bound port (after start()). */
    int port() const { return port_; }

    bool running() const { return running_.load(); }

    ServerStats stats() const;

    /** The owned service (its stats feed /metrics). */
    CompilerService &service() { return service_; }

    /** One /metrics JSON document (also what GET /metrics returns). */
    std::string metricsJson() const;

  private:
    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);

    /** Route one parsed request; returns the serialized response. */
    std::string handleRequest(const HttpRequest &req);

    std::string handleCompile(const HttpRequest &req);

    /** GET /devices listing body. */
    std::string devicesJson() const;

    /** POST /devices/<name>/calibration: parse the qcal body, install
     *  it, return {"device", "calVersion"}. */
    std::string handleCalibration(const std::string &name,
                                  const HttpRequest &req);

    /** Pop the next queued connection; -1 when stopping. */
    int popConnection();

    ServerOptions opts_;
    CompilerService service_;

    /** Atomic: the acceptor polls it while stop() claims and closes
     *  it (exchange to -1), so the two never race on the fd value. */
    std::atomic<int> listenFd_{-1};
    int port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};

    std::thread acceptor_;
    std::vector<std::thread> workers_;

    mutable std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<int> queue_; ///< accepted fds awaiting a worker

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> ok_{0};
    std::atomic<std::uint64_t> clientErrors_{0};
    std::atomic<std::uint64_t> serverErrors_{0};
    std::atomic<std::uint64_t> deadlineMisses_{0};
    LatencyHistogram latency_;
};

} // namespace qompress

#endif // QOMPRESS_SERVER_SERVER_HH
