/**
 * @file
 * The measured (untraced) run: repeated cold setups, a closed-loop timed
 * window, then the correctness gate -- all from one process.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "bench.hh"
#include "common/error.hh"
#include "common/strings.hh"
#include "ir/serialize.hh"
#include "server/http.hh"
#include "sim/equivalence.hh"

using namespace qompress;

namespace perfbench {

namespace {

/** Unmeasured traffic between setup and the timed window. */
constexpr double kWarmSeconds = 0.5;

/** Length of one throughput/CPU slice of the timed window. */
constexpr double kSliceSeconds = 1.0;

/** Every 997th request position keeps its response for the gate. */
constexpr std::size_t kSampleStride = 997;
constexpr std::size_t kMaxSamples = 16;

double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Cumulative {steal, total} jiffies of all CPUs (zeros when
 *  /proc/stat is unreadable): time a hypervisor ran something else
 *  while this machine's CPUs had work. */
std::pair<double, double>
stealJiffies()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return {0.0, 0.0};
    double v[8] = {};
    const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (n != 8)
        return {0.0, 0.0};
    double total = 0.0;
    for (const double x : v)
        total += x;
    return {v[7], total};
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One keep-alive loopback connection. A transport error is a failed
 *  operation; the next request reconnects. */
class Client
{
  public:
    explicit Client(int port) : port_(port) {}
    ~Client() { reset(); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool
    request(const std::string &raw, int &status, std::string &body)
    {
        if (fd_ < 0) {
            fd_ = httpConnect("127.0.0.1", port_);
            leftover_.clear();
            if (fd_ < 0)
                return false;
        }
        if (httpSendAll(fd_, raw) &&
            httpReadResponse(fd_, leftover_, status, body))
            return true;
        reset();
        return false;
    }

  private:
    void
    reset()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    int port_;
    int fd_ = -1;
    std::string leftover_;
};

/** A served answer passes the per-request check when it is a 200 whose
 *  body carries the compile summary. */
bool
answerOk(bool sent, int status, const std::string &body)
{
    return sent && status == 200 &&
           body.find("\"total_eps\"") != std::string::npos;
}

/** One slice of the timed window. */
struct Slice
{
    double rate = 0.0;         ///< successful ops/s
    double cpuPerOp = 0.0;     ///< process CPU us per successful op
    double steal = 0.0;        ///< CPU time the hypervisor took (share)
    std::vector<double> latencyUs; ///< operations that started in it
};

/** Result of one closed-loop window. */
struct Window
{
    std::vector<Slice> slices;
    std::uint64_t attempted = 0; ///< every operation, timed or not
    std::uint64_t failed = 0;
    std::map<std::size_t, std::string> samples; ///< seq position -> body
    bool exhausted = false;
    ServiceStats before, after;
};

/**
 * Closed loop: kClients threads each take the next sequence position
 * and wait for its answer before taking another. A request belongs to
 * the timed window, and to one of its slices, by when it starts.
 * @p op runs position @p pos on client @p c and returns whether the
 * answer passed its check; @p body receives sampled responses.
 */
Window
closedLoop(std::size_t seqLen, double seconds,
           const std::function<bool(int, std::size_t, std::string *)> &op,
           const std::function<ServiceStats()> &stats)
{
    Window win;
    const int slices =
        std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
    const double sliceNs = seconds * 1e9 / slices;
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> exhausted{false};
    std::atomic<std::int64_t> startNs{std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> endNs{std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::uint64_t> done{0};
    std::atomic<int> alive{kClients};

    struct PerClient
    {
        std::vector<std::pair<int, double>> lat; ///< slice, latency us
        std::uint64_t attempted = 0, failed = 0;
        std::map<std::size_t, std::string> samples;
    };
    std::vector<PerClient> per(kClients);
    auto nowNs = [] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            PerClient &me = per[static_cast<std::size_t>(c)];
            me.lat.reserve(1 << 16);
            std::string body;
            while (!stop.load(std::memory_order_relaxed)) {
                const std::size_t pos = cursor.fetch_add(1);
                if (pos >= seqLen) {
                    exhausted.store(true);
                    break;
                }
                const bool sample = pos % kSampleStride == 0 &&
                                    me.samples.size() < kMaxSamples;
                const std::int64_t t0 = nowNs();
                const bool ok = op(c, pos, sample ? &body : nullptr);
                const std::int64_t t1 = nowNs();
                ++me.attempted;
                me.failed += !ok;
                const std::int64_t start =
                    startNs.load(std::memory_order_relaxed);
                if (t0 < start || t0 >= endNs.load(std::memory_order_relaxed))
                    continue;
                const int slice = std::min(
                    slices - 1,
                    static_cast<int>(static_cast<double>(t0 - start) /
                                     sliceNs));
                me.lat.emplace_back(slice,
                                    static_cast<double>(t1 - t0) / 1e3);
                if (ok)
                    done.fetch_add(1, std::memory_order_relaxed);
                if (sample && ok)
                    me.samples.emplace(pos, body);
            }
            alive.fetch_sub(1);
        });
    }

    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmSeconds));
    win.before = stats();
    const auto t0 = Clock::now();
    startNs.store(nowNs());
    double cpu0 = cpuSeconds();
    auto steal0 = stealJiffies();
    std::uint64_t done0 = done.load();
    auto tPrev = t0;
    for (int s = 1; s <= slices && alive.load() > 0; ++s) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(s * seconds / slices)));
        if (alive.load() == 0)
            break; // inputs ran out: drop the partial slice
        const auto t = Clock::now();
        const double cpu = cpuSeconds();
        const auto steal = stealJiffies();
        const std::uint64_t d = done.load();
        const double dt = std::chrono::duration<double>(t - tPrev).count();
        Slice sl;
        sl.rate = static_cast<double>(d - done0) / dt;
        sl.cpuPerOp = d > done0 ? (cpu - cpu0) * 1e6 /
                                      static_cast<double>(d - done0)
                                : std::nan("");
        if (steal.second > steal0.second)
            sl.steal = (steal.first - steal0.first) /
                       (steal.second - steal0.second);
        win.slices.push_back(std::move(sl));
        tPrev = t;
        cpu0 = cpu;
        steal0 = steal;
        done0 = d;
    }
    endNs.store(nowNs());
    stop.store(true);
    for (std::thread &t : threads)
        t.join();
    win.after = stats();
    win.exhausted = exhausted.load();
    for (PerClient &p : per) {
        for (const auto &[slice, us] : p.lat)
            if (slice < static_cast<int>(win.slices.size()))
                win.slices[static_cast<std::size_t>(slice)]
                    .latencyUs.push_back(us);
        win.attempted += p.attempted;
        win.failed += p.failed;
        win.samples.insert(p.samples.begin(), p.samples.end());
    }
    return win;
}

void
problem(RunResult &rr, bool ok, const std::string &what)
{
    ++rr.attempted;
    if (!ok) {
        ++rr.failed;
        rr.problems.push_back(what);
    }
}

/** Warm @p jobs over HTTP on kClients connections; all must succeed. */
void
warmHttp(int port, const std::vector<Job> &jobs, RunResult &rr)
{
    std::atomic<std::size_t> next{0};
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&] {
            Client client(port);
            int status = 0;
            std::string body;
            for (std::size_t i = next++; i < jobs.size(); i = next++) {
                const bool sent = client.request(jobs[i].raw, status, body);
                if (!answerOk(sent, status, body))
                    ++bad;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    problem(rr, bad.load() == 0, "warm-up: every cold compile answered 200");
}

/**
 * Throughput, CPU and latency over the quieter half of the window's
 * slices: those in which the hypervisor took the least CPU time from
 * this machine (ties by position). The selection looks only at steal,
 * never at the metrics, so a slower program still reads slower; it
 * keeps a phase of host contention from deciding a run's numbers.
 */
void
addLatencyMetrics(const Window &win, MetricMap &m, MetricMap &extra)
{
    std::vector<const Slice *> quiet;
    double steal = 0.0;
    for (const Slice &s : win.slices) {
        quiet.push_back(&s);
        steal += s.steal / static_cast<double>(win.slices.size());
    }
    std::stable_sort(quiet.begin(), quiet.end(),
                     [](const Slice *a, const Slice *b) {
                         return a->steal < b->steal;
                     });
    quiet.resize((quiet.size() + 1) / 2);
    std::vector<double> rate, cpu, lat;
    double quietSteal = 0.0;
    for (const Slice *s : quiet) {
        rate.push_back(s->rate);
        if (std::isfinite(s->cpuPerOp))
            cpu.push_back(s->cpuPerOp);
        lat.insert(lat.end(), s->latencyUs.begin(), s->latencyUs.end());
        quietSteal += s->steal / static_cast<double>(quiet.size());
    }
    const auto n = static_cast<std::uint64_t>(lat.size());
    m["ops_per_s"] = {median(rate), "1/s", rate.size()};
    m["p50_ms"] = {quantile(lat, 0.50) / 1e3, "ms", n};
    m["p99_ms"] = {quantile(lat, 0.99) / 1e3, "ms", n};
    m["cpu_us_per_op"] = {median(cpu), "us", cpu.size()};
    extra["host_steal_share"] = {steal, "share", win.slices.size()};
    extra["quiet_steal_share"] = {quietSteal, "share", quiet.size()};
}

/** Value of `"key": <number>` in a flat JSON body (NaN when absent). */
double
jsonField(const std::string &body, const std::string &key)
{
    const auto k = body.find("\"" + key + "\":");
    if (k == std::string::npos)
        return std::nan("");
    return std::atof(body.c_str() + k + key.size() + 3);
}

/** Whether a served /compile body carries @p res's summary fields. */
bool
responseMatches(const std::string &body, const CompileResult &res)
{
    const Metrics &m = res.metrics;
    auto same = [&](const char *key, double want) {
        const double got = jsonField(body, key);
        return std::fabs(got - want) <= 1e-5 * std::fabs(want) + 1e-12;
    };
    return same("compressions", static_cast<double>(res.compressions.size())) &&
           same("gates", m.numGates) &&
           same("routing_gates", m.numRoutingGates) &&
           same("two_unit_gates", m.numTwoUnitGates) &&
           same("gate_eps", m.gateEps) && same("total_eps", m.totalEps);
}

/** eps_geomean and routing_gates_mean over the workload's fixed set. */
void
addQualityMetrics(const Workload &w, MetricMap &out, RunResult &rr)
{
    const DeviceRegistry reg;
    double logEps = 0.0, routing = 0.0;
    for (const Job &j : w.quality) {
        const CompileResult res = directCompile(j, reg);
        logEps += std::log(res.metrics.totalEps);
        routing += res.metrics.numRoutingGates;
    }
    const auto n = static_cast<double>(w.quality.size());
    out["eps_geomean"] = {std::exp(logEps / n), "prob", w.quality.size()};
    out["routing_gates_mean"] = {routing / n, "gates", w.quality.size()};
    problem(rr, std::isfinite(logEps) && n > 0,
            "quality set compiled with finite EPS");
}

/** Equivalence-check every distinct program of at most 8 qubits in
 *  @p jobs; returns the checks run. */
std::uint64_t
gateEquivalence(const std::vector<Job> &jobs, const DeviceRegistry &reg,
                RunResult &rr)
{
    std::set<std::string> seen;
    std::uint64_t checks = 0;
    for (const Job &j : jobs) {
        if (j.qubits > 8 ||
            !seen.insert(j.raw + j.strategy + j.device + j.topology +
                         std::to_string(j.units))
                 .second)
            continue;
        const CompileResult res = directCompile(j, reg);
        problem(rr, checkEquivalence(programOf(j), res.compiled).ok,
                format("equivalence of a %d-qubit program under %s on %s%s",
                       j.qubits, j.strategy.c_str(), j.device.c_str(),
                       j.topology.c_str()));
        ++checks;
    }
    return checks;
}

// ------------------------------------------------------------ HTTP runs

std::string
describe(const Job &j)
{
    return format("%d-qubit program under %s on %s", j.qubits,
                  j.strategy.c_str(), j.device.c_str());
}

RunResult
runHttp(const Workload &w, double seconds)
{
    RunResult rr;
    std::vector<double> setups;
    std::unique_ptr<QompressServer> server;
    for (int i = 0; i < kSetups; ++i) {
        server.reset(); // stop and drop the previous instance first
        if (!w.server.service.storePath.empty())
            std::remove(w.server.service.storePath.c_str());
        const auto t0 = Clock::now();
        server = std::make_unique<QompressServer>(w.server);
        server->start();
        warmHttp(server->port(), w.warm, rr);
        setups.push_back(secondsSince(t0));
    }
    rr.metrics["setup_s"] = {median(setups), "s",
                             static_cast<std::uint64_t>(setups.size())};

    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kClients; ++c)
        clients.push_back(std::make_unique<Client>(server->port()));
    CompilerService &svc = server->service();
    const ServerStats sv0 = server->stats();
    std::mutex failMu;
    const Window win = closedLoop(
        w.seq.size(), seconds,
        [&](int c, std::size_t pos, std::string *keep) {
            int status = 0;
            std::string body;
            const Job &j = w.jobs[w.seq[pos]];
            const bool sent = clients[static_cast<std::size_t>(c)]->request(
                j.raw, status, body);
            const bool ok = answerOk(sent, status, body);
            if (!ok) {
                std::lock_guard<std::mutex> lk(failMu);
                rr.problems.push_back(format(
                    "timed request %zu (%s): %s", pos, describe(j).c_str(),
                    sent ? format("HTTP %d %s", status, body.c_str()).c_str()
                         : "transport error"));
            }
            if (keep)
                *keep = std::move(body);
            return ok;
        },
        [&] { return svc.stats(); });
    clients.clear();
    const ServerStats sv1 = server->stats();

    addLatencyMetrics(win, rr.metrics, rr.extra);
    rr.attempted += win.attempted;
    rr.failed += win.failed;
    rr.extra["shed"] = {static_cast<double>(sv1.shed - sv0.shed), "count",
                        win.attempted};
    problem(rr, !win.exhausted, "the inputs lasted the whole timed window");

    // ---- correctness gate (outside the timed window) ----
    const ServiceStats &a = win.before, &b = win.after;
    const std::uint64_t dReq = b.requests - a.requests;
    const std::uint64_t dHits = b.hits - a.hits;
    const std::uint64_t dMisses = b.misses - a.misses;
    const std::uint64_t dOther = (b.templateHits - a.templateHits) +
                                 (b.diskHits - a.diskHits) +
                                 (b.coalesced - a.coalesced);
    problem(rr, b.requests == b.hits + b.templateHits + b.diskHits +
                                  b.misses + b.coalesced,
            "ServiceStats partition: requests == hits + templateHits + "
            "diskHits + misses + coalesced");
    // Tier deltas, not request deltas: a request in flight at a window
    // edge is counted by `requests` when it starts and by its tier when
    // it finishes.
    if (w.name == "repeat_zipf")
        problem(rr, dHits > 0 && dMisses == 0 && dOther == 0,
                "repeat_zipf: every timed request was a memo hit");
    if (w.name == "unique_compile")
        problem(rr, dMisses > 0 && dHits == 0 && dOther == 0,
                "unique_compile: every timed request was a full compile");
    if (w.name == "sweep_store") {
        problem(rr, b.templateHits > a.templateHits,
                "sweep_store: templateHits grew in the timed window");
        problem(rr, b.diskHits > a.diskHits,
                "sweep_store: diskHits grew in the timed window");
        problem(rr, b.diskWrites > a.diskWrites,
                "sweep_store: diskWrites grew in the timed window");
    }
    rr.extra["memo_hits"] = {static_cast<double>(b.hits - a.hits), "count",
                             dReq};
    rr.extra["template_hits"] = {
        static_cast<double>(b.templateHits - a.templateHits), "count", dReq};
    rr.extra["disk_hits"] = {static_cast<double>(b.diskHits - a.diskHits),
                             "count", dReq};
    rr.extra["misses"] = {static_cast<double>(b.misses - a.misses), "count",
                          dReq};
    rr.extra["disk_writes"] = {
        static_cast<double>(b.diskWrites - a.diskWrites), "count", dReq};

    // Served responses vs a fresh direct compile of the same inputs,
    // and the service's artifact byte for byte.
    const DeviceRegistry &reg = svc.devices();
    std::vector<Job> gateJobs = w.warm;
    for (const auto &[pos, body] : win.samples) {
        const Job &j = w.jobs[w.seq[pos]];
        const CompileResult direct = directCompile(j, reg);
        problem(rr, responseMatches(body, direct),
                format("served response at position %zu matches a direct "
                       "compile", pos));
        const CompileArtifact served = svc.compileSync(requestOf(j));
        problem(rr, encodeCompileResult(*served) ==
                        encodeCompileResult(direct),
                format("service artifact at position %zu is byte-identical "
                       "to a direct compile", pos));
        gateJobs.push_back(j);
    }
    problem(rr, !win.samples.empty(), "the gate sampled served responses");
    gateJobs.insert(gateJobs.end(), w.quality.begin(), w.quality.end());
    rr.extra["equivalence_checks"] = {
        static_cast<double>(gateEquivalence(gateJobs, reg, rr)), "count", 1};
    server.reset();
    if (!w.server.service.storePath.empty())
        std::remove(w.server.service.storePath.c_str());
    return rr;
}

// --------------------------------------------------------- verify_small

/** One `qompress_cli --verify` job: parse, resolve the device,
 *  compile, check. Returns why it failed, or an empty string. */
std::string
verifyJob(const Job &j, const DeviceRegistry &reg)
{
    try {
        const Circuit c = programOf(j);
        const CompileResult res = directCompile(j, c, reg);
        if (checkEquivalence(c, res.compiled).ok)
            return "";
        return "not equivalent";
    } catch (const std::exception &e) {
        return e.what();
    }
}


RunResult
runVerify(const Workload &w, double seconds)
{
    RunResult rr;
    std::vector<double> setups;
    std::unique_ptr<DeviceRegistry> reg;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        reg = std::make_unique<DeviceRegistry>();
        std::atomic<std::size_t> next{0};
        std::vector<std::string> why(w.warm.size());
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&] {
                for (std::size_t k = next++; k < w.warm.size(); k = next++)
                    why[k] = verifyJob(w.warm[k], *reg);
            });
        }
        for (std::thread &t : threads)
            t.join();
        setups.push_back(secondsSince(t0));
        for (std::size_t k = 0; k < why.size(); ++k)
            problem(rr, why[k].empty(),
                    "warm-up: " + describe(w.warm[k]) + " verified " + why[k]);
    }
    rr.metrics["setup_s"] = {median(setups), "s",
                             static_cast<std::uint64_t>(setups.size())};

    std::mutex failMu;
    const Window win = closedLoop(
        w.seq.size(), seconds,
        [&](int, std::size_t pos, std::string *) {
            const Job &j = w.jobs[w.seq[pos]];
            const std::string why = verifyJob(j, *reg);
            if (!why.empty()) {
                std::lock_guard<std::mutex> lk(failMu);
                rr.problems.push_back(format("timed job %zu: ", pos) +
                                      describe(j) + ": " + why);
            }
            return why.empty();
        },
        [] { return ServiceStats{}; });
    addLatencyMetrics(win, rr.metrics, rr.extra);
    rr.attempted += win.attempted;
    rr.failed += win.failed;
    problem(rr, !win.exhausted, "the inputs lasted the whole timed window");
    rr.extra["equivalence_checks"] = {
        static_cast<double>(gateEquivalence(w.quality, *reg, rr)) +
            static_cast<double>(win.attempted),
        "count", 1};
    return rr;
}

} // namespace

// ------------------------------------------------------- shared helpers

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    return format("%.17g", v);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    const std::size_t k = std::min(
        v.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

RunResult
runMeasured(const Workload &w, double seconds, const std::string &,
            const Stamp &)
{
    RunResult rr = w.http ? runHttp(w, seconds) : runVerify(w, seconds);
    rr.metrics["peak_rss_mb"] = {peakRssMb(), "MB", 1};
    addQualityMetrics(w, rr.metrics, rr);
    rr.metrics["failed_share"] = {
        rr.attempted ? static_cast<double>(rr.failed) /
                           static_cast<double>(rr.attempted)
                     : 1.0,
        "share", rr.attempted};
    return rr;
}

} // namespace perfbench
