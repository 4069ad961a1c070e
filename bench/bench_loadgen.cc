/**
 * @file
 * Closed- and open-loop traffic generator for qompressd: the
 * end-to-end acceptance smoke over real sockets.
 *
 * Traffic mixes (all over real sockets, keep-alive connections):
 *
 *  - Zipf mix: POST /compile bodies drawn from a catalog of registry
 *    circuits with Zipf(1.1)-ranked popularity — the repeat-heavy
 *    shape of production compile traffic. Warm requests are exact
 *    memo-tier hits.
 *  - Parameterized-sweep mix: the same QAOA structure with fresh
 *    random rotation angles per request — every request is an exact-
 *    tier NEAR-miss that the template tier must serve by rebind.
 *  - Burst (open-loop-ish) arrivals: fixed-size back-to-back volleys
 *    separated by idle gaps.
 *  - Malformed mix: adversarial QASM and raw-garbage HTTP; each must
 *    come back as a structured 4xx while the server keeps serving.
 *  - Fault scenario: a dedicated store-backed server is driven
 *    through a disk-fault episode (every store read/write failing
 *    with EIO via common/faultpoint.hh). The disk tier must degrade
 *    while every request keeps succeeding, recover once the faults
 *    clear, flip /healthz through ok -> degraded -> draining, and
 *    leave a log a cold restart fully recovers.
 *
 * It times nothing: perfbench (perfbench/README.md) measures these
 * request paths. It prints its acceptance invariants as PASS:/FAIL:
 * lines and exits nonzero when one fails: zero 5xx, zero transport
 * errors, templateHits > 0 from the sweep mix, the ServiceStats
 * partition (requests == hits + templateHits + diskHits + misses +
 * coalesced), liveness after the malformed mix, and the fault
 * scenario's degrade/recover trajectory.
 *
 * Usage:
 *   bench_loadgen [--connect=HOST:PORT] [--conns=N] [--seed=N]
 *
 * Without --connect an in-process qompressd is booted on an ephemeral
 * loopback port (still real sockets), so the bench is self-contained;
 * with --connect it drives an external server (the CI smoke job boots
 * ./qompressd and points the loadgen at it).
 */

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/faultpoint.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "ir/circuit.hh"
#include "server/http.hh"
#include "server/server.hh"
#include "service/artifact_store.hh"

using namespace qompress;
using bench::Checks;

namespace {

struct Args
{
    std::string host;
    int port = 0;
    int conns = 0;
    std::uint64_t seed = 12345;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string s = argv[i];
        if (s.rfind("--connect=", 0) == 0) {
            const std::string hp = s.substr(10);
            const auto colon = hp.find(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr,
                             "--connect wants HOST:PORT, got '%s'\n",
                             hp.c_str());
                std::exit(2);
            }
            a.host = hp.substr(0, colon);
            a.port = std::atoi(hp.c_str() + colon + 1);
        } else if (s.rfind("--conns=", 0) == 0) {
            a.conns = std::atoi(s.c_str() + 8);
        } else if (s.rfind("--seed=", 0) == 0) {
            a.seed = std::strtoull(s.c_str() + 7, nullptr, 10);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", s.c_str());
            std::exit(2);
        }
    }
    return a;
}

/** One keep-alive client connection with auto-reconnect. */
class Client
{
  public:
    Client(std::string host, int port, std::uint64_t seed = 1)
        : host_(std::move(host)), port_(port), rng_(seed)
    {
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** Issue one request; false on transport failure (after one
     *  reconnect attempt, since the server may close on errors). */
    bool
    request(const std::string &raw, int &status, std::string &body)
    {
        std::map<std::string, std::string> headers;
        return requestOnce(raw, status, headers, body);
    }

    /**
     * request() plus jittered exponential backoff: transport failures
     * and 503s (overload shed, draining) are retried up to
     * @p maxAttempts times, sleeping ~5, ~10, ~20... ms between tries
     * with a uniform 0.5-1.5x jitter so synchronized clients spread
     * out instead of re-stampeding. A 503 carrying Retry-After raises
     * the sleep to what the server asked for.
     */
    bool
    requestWithRetry(const std::string &raw, int &status,
                     std::string &body, int maxAttempts = 4)
    {
        double backoff_ms = 5.0;
        for (int attempt = 1;; ++attempt) {
            std::map<std::string, std::string> headers;
            const bool sent = requestOnce(raw, status, headers, body);
            if (sent && status != 503)
                return true;
            if (attempt >= maxAttempts)
                return sent;
            double wait_ms = backoff_ms * rng_.nextDouble(0.5, 1.5);
            if (sent) {
                if (const auto ra = headers.find("retry-after");
                    ra != headers.end()) {
                    const double ra_ms =
                        std::atof(ra->second.c_str()) * 1000.0;
                    if (ra_ms > wait_ms)
                        wait_ms = ra_ms;
                }
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(wait_ms));
            backoff_ms *= 2.0;
        }
    }

  private:
    bool
    requestOnce(const std::string &raw, int &status,
                std::map<std::string, std::string> &headers,
                std::string &body)
    {
        for (int attempt = 0; attempt < 2; ++attempt) {
            if (fd_ < 0) {
                fd_ = httpConnect(host_, port_);
                leftover_.clear();
                if (fd_ < 0)
                    continue;
            }
            if (httpSendAll(fd_, raw) &&
                httpReadResponse(fd_, leftover_, status, headers,
                                 body)) {
                return true;
            }
            ::close(fd_);
            fd_ = -1;
        }
        return false;
    }

    std::string host_;
    int port_;
    int fd_ = -1;
    std::string leftover_;
    Rng rng_;
};

std::string
postCompile(const std::string &qasm, const std::string &query = "")
{
    return "POST /compile" + query + " HTTP/1.1\r\n" +
           "Host: loadgen\r\n" +
           "Content-Length: " + std::to_string(qasm.size()) +
           "\r\n\r\n" + qasm;
}

std::string
get(const std::string &target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: loadgen\r\n\r\n";
}

/** Copy of @p base with every rotation angle re-rolled: identical
 *  structure (template-tier near-miss), fresh parameters. */
Circuit
rerollAngles(const Circuit &base, Rng &rng)
{
    Circuit out(base.numQubits(), base.name());
    for (Gate g : base.gates()) {
        if (gateHasParam(g.type))
            g.param = rng.nextDouble(-3.14159, 3.14159);
        out.add(std::move(g));
    }
    return out;
}

/** Value of `"key": <number>` inside the named top-level section of a
 *  /metrics document (sections never nest, so a forward scan works). */
double
scrape(const std::string &doc, const std::string &section,
       const std::string &key)
{
    const auto s = doc.find("\"" + section + "\"");
    if (s == std::string::npos)
        return -1.0;
    const auto k = doc.find("\"" + key + "\":", s);
    if (k == std::string::npos)
        return -1.0;
    return std::atof(doc.c_str() + k + key.size() + 3);
}

/** Same, for string-valued keys ("tierState": "degraded"). */
std::string
scrapeString(const std::string &doc, const std::string &section,
             const std::string &key)
{
    const auto s = doc.find("\"" + section + "\"");
    if (s == std::string::npos)
        return "";
    const auto k = doc.find("\"" + key + "\": \"", s);
    if (k == std::string::npos)
        return "";
    const auto start = k + key.size() + 5;
    const auto end = doc.find('"', start);
    return end == std::string::npos ? "" : doc.substr(start, end - start);
}

struct Tally
{
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> c4xx{0};
    std::atomic<std::uint64_t> c5xx{0};
    std::atomic<std::uint64_t> transport{0};

    void
    count(bool sent, int status)
    {
        if (!sent)
            transport.fetch_add(1);
        else if (status >= 200 && status < 300)
            ok.fetch_add(1);
        else if (status >= 400 && status < 500)
            c4xx.fetch_add(1);
        else
            c5xx.fetch_add(1);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Enough traffic for every tier and invariant to show, small
    // enough for a ctest.
    const int conns = args.conns > 0 ? args.conns : 2;
    const int zipf_requests = 120;
    const int sweep_requests = 60;
    const int bursts = 4;
    const int burst_size = 8;
    const int burst_gap_ms = 10;

    // Boot an in-process server unless pointed at an external one.
    std::unique_ptr<QompressServer> own;
    std::string host = args.host;
    int port = args.port;
    if (host.empty()) {
        ServerOptions opts;
        opts.port = 0;
        opts.workers = 2;
        opts.maxQueue = 128;
        own = std::make_unique<QompressServer>(opts);
        own->start();
        host = "127.0.0.1";
        port = own->port();
        std::printf("loadgen: in-process qompressd on 127.0.0.1:%d\n",
                    port);
    } else {
        std::printf("loadgen: driving external server %s:%d\n",
                    host.c_str(), port);
    }

    // ----------------------------------------------------------- catalog
    // Zipf-ranked payload catalog over registry families.
    const std::vector<std::pair<std::string, int>> kCatalog = {
        {"bv", 12}, {"qaoa_random", 10}, {"bv", 16},
        {"cuccaro", 8}, {"cnu", 8}, {"qram", 10},
    };
    std::vector<std::string> payloads;
    for (const auto &[family, size] : kCatalog)
        payloads.push_back(
            postCompile(benchmarkFamily(family).make(size).toQasm()));
    std::vector<double> zipfCdf;
    {
        double total = 0.0;
        for (std::size_t i = 0; i < payloads.size(); ++i)
            total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
        double acc = 0.0;
        for (std::size_t i = 0; i < payloads.size(); ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i + 1), 1.1) /
                   total;
            zipfCdf.push_back(acc);
        }
    }
    const Circuit sweepBase =
        benchmarkFamily("qaoa_random").make(12);

    Tally tally;
    Checks checks;

    // ----------------------------------------------------------- warmup
    // One cold compile per catalog entry + one sweep structure, plus
    // the family batch endpoint (GET /compile with several sizes).
    Client warm(host, port);
    int status = 0;
    std::string body;
    bool alive = warm.request(get("/healthz"), status, body);
    if (!alive || status != 200) {
        std::fprintf(stderr, "loadgen: server %s:%d not reachable\n",
                     host.c_str(), port);
        return 1;
    }
    const std::string before =
        (warm.request(get("/metrics"), status, body), body);
    for (const std::string &p : payloads) {
        warm.request(p, status, body);
        tally.count(true, status);
    }
    {
        Rng rng(args.seed);
        warm.request(postCompile(rerollAngles(sweepBase, rng).toQasm()),
                     status, body);
        tally.count(true, status);
    }
    warm.request(get("/compile?family=bv&sizes=12,16"), status, body);
    tally.count(true, status);

    // -------------------------------------------------------- zipf mix
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                Client client(host, port,
                              args.seed + 100 + static_cast<unsigned>(c));
                Rng rng(args.seed + 1000 + static_cast<unsigned>(c));
                const int mine = zipf_requests / conns +
                                 (c < zipf_requests % conns ? 1 : 0);
                for (int i = 0; i < mine; ++i) {
                    const double u = rng.nextDouble();
                    std::size_t pick = 0;
                    while (pick + 1 < zipfCdf.size() &&
                           u > zipfCdf[pick])
                        ++pick;
                    int st = 0;
                    std::string b;
                    const bool sent =
                        client.requestWithRetry(payloads[pick], st, b);
                    tally.count(sent, st);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    // ------------------------------------------------------- sweep mix
    // Unique angles per request: exact-tier misses the template tier
    // must absorb as rebinds.
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                Client client(host, port,
                              args.seed + 200 + static_cast<unsigned>(c));
                Rng rng(args.seed + 2000 + static_cast<unsigned>(c));
                const int mine = sweep_requests / conns +
                                 (c < sweep_requests % conns ? 1 : 0);
                for (int i = 0; i < mine; ++i) {
                    const std::string p = postCompile(
                        rerollAngles(sweepBase, rng).toQasm());
                    int st = 0;
                    std::string b;
                    const bool sent = client.requestWithRetry(p, st, b);
                    tally.count(sent, st);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    // ---------------------------------------------------- burst arrivals
    // Idle gap, then a volley: the arrival shape that exposes queueing
    // a closed loop hides.
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                Client client(host, port,
                              args.seed + 300 + static_cast<unsigned>(c));
                Rng rng(args.seed + 3000 + static_cast<unsigned>(c));
                for (int b = 0; b < bursts; ++b) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(burst_gap_ms));
                    for (int i = 0; i < burst_size; ++i) {
                        const std::size_t pick =
                            rng.nextUint(payloads.size());
                        int st = 0;
                        std::string bd;
                        const bool sent = client.requestWithRetry(
                            payloads[pick], st, bd);
                        tally.count(sent, st);
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    // ---------------------------------------------------- malformed mix
    // Adversarial QASM: every case must be a structured 4xx naming the
    // problem, and the server must keep serving afterwards.
    const std::vector<std::string> kMalformed = {
        "OPENQASM 2.0; qreg q[2]; cx q[0],q[0];",          // dup operand
        "OPENQASM 2.0; qreg q[99999999999999]; x q[0];",   // int overflow
        "OPENQASM 2.0; qreg q[1]; rz(1.2.3) q[0];",        // bad number
        "OPENQASM 2.0; qreg q[2]; cx q[0],",               // truncated
        "OPENQASM 2.0; qreg q[2]; cx r[0],q[1];",          // unknown reg
        "OPENQASM 2.0; qreg q[1]; rz(" +
            std::string(300, '(') + "1" + std::string(300, ')') +
            ") q[0];",                                     // paren bomb
    };
    std::uint64_t malformed400 = 0;
    bool malformedStructured = true;
    {
        Client client(host, port);
        for (const std::string &bad : kMalformed) {
            int st = 0;
            std::string b;
            if (client.request(postCompile(bad), st, b) && st == 400)
                ++malformed400;
            if (b.find("\"error\"") == std::string::npos)
                malformedStructured = false;
        }
        // Unknown strategy on a valid circuit: also a structured 400.
        int st = 0;
        std::string b;
        if (client.request(postCompile("OPENQASM 2.0; qreg q[2]; "
                                       "cx q[0],q[1];",
                                       "?strategy=nope"),
                           st, b) &&
            st == 400 && b.find("\"error\"") != std::string::npos)
            ++malformed400;
        // Raw garbage at the HTTP layer: 400, connection dropped,
        // next request (auto-reconnect) must succeed.
        client.request("GARBAGE\r\n\r\n", st, b);
        const bool aliveAfter =
            client.request(get("/healthz"), st, b) && st == 200;
        if (!aliveAfter)
            malformedStructured = false;
    }

    // ------------------------------------------------------- metrics
    // Read before the fault scenario: its dedicated server never
    // touches the traffic server's counters.
    Client probe(host, port);
    probe.request(get("/metrics"), status, body);
    const std::string after = body;
    auto delta = [&](const char *key) {
        return scrape(after, "service", key) -
               scrape(before, "service", key);
    };
    const double d_requests = delta("requests");
    const double d_hits = delta("hits");
    const double d_template = delta("templateHits");
    const double d_misses = delta("misses");
    const double d_coalesced = delta("coalesced");
    const double d_disk = delta("diskHits");
    const double server_5xx = scrape(after, "server", "serverErrors");
    const double server_p99 = scrape(after, "latency", "p99_us");

    checks.expect(tally.c5xx.load() == 0, "zero 5xx responses observed");
    checks.expect(tally.transport.load() == 0, "zero transport errors");
    checks.expect(server_5xx == 0.0, "server counted zero 5xx");
    checks.expect(d_template > 0.0,
                  "template tier served the sweep mix (templateHits > 0)");
    checks.expect(d_hits > 0.0, "memo tier served the zipf mix (hits > 0)");
    checks.expect(d_requests == d_hits + d_template + d_disk + d_misses +
                                    d_coalesced,
                  "ServiceStats partition: requests == hits + "
                  "templateHits + diskHits + misses + coalesced");
    checks.expect(malformed400 == kMalformed.size() + 1,
                  "every malformed/unknown-input request answered 400");
    checks.expect(malformedStructured,
                  "malformed requests got structured errors and the "
                  "server kept serving");
    checks.expect(server_p99 > 0.0, "server-side p99 latency reported");

    // ------------------------------------------------- fault scenario
    // A dedicated store-backed server (always in-process, even under
    // --connect: the fault injector is process-global) is marched
    // through a disk-fault episode. Requests are full=1 with unique
    // angles so every one bypasses the template tier and must talk to
    // the disk tier -- the traffic shape that exercises the breaker.
    const int fault_phase = 24;
    {
        const std::string storePath =
            format("/tmp/qompress_loadgen_fault_%d.qst",
                   static_cast<int>(::getpid()));
        ::unlink(storePath.c_str());
        ServerOptions fopts;
        fopts.port = 0;
        fopts.workers = 2;
        fopts.service.storePath = storePath;
        fopts.service.storeErrorThreshold = 3;
        fopts.service.storeCooldownMs = 50.0;
        auto fsrv = std::make_unique<QompressServer>(fopts);
        fsrv->start();
        Client fc("127.0.0.1", fsrv->port(), args.seed + 77);
        Rng rng(args.seed + 4000);
        std::uint64_t fault5xx = 0, faultTransport = 0;
        auto send = [&](const std::string &p) {
            int st = 0;
            std::string b;
            if (!fc.requestWithRetry(p, st, b))
                ++faultTransport;
            else if (st >= 500)
                ++fault5xx;
        };
        auto drive = [&](int n, std::vector<std::string> *save) {
            for (int i = 0; i < n; ++i) {
                const std::string p = postCompile(
                    rerollAngles(sweepBase, rng).toQasm(), "?full=1");
                if (save)
                    save->push_back(p);
                send(p);
            }
        };

        // Phase A, healthy: unique full compiles write-behind into the
        // store. Their payloads are kept for the recovery phase.
        std::vector<std::string> phaseA;
        drive(fault_phase, &phaseA);

        // Phase B, faulted: every store read and write fails with EIO.
        // The breaker must open after 3 consecutive errors; requests
        // keep compiling from scratch and keep answering 200.
        {
            FaultInjector inj(args.seed + 5000);
            FaultSpec eio;
            eio.kind = FaultKind::Fail;
            eio.err = EIO;
            inj.arm("store.pwrite", eio);
            inj.arm("store.pread", eio);
            ScopedFaultInjection scoped(inj);
            drive(fault_phase, nullptr);
            int st = 0;
            std::string b;
            fc.request(get("/metrics"), st, b);
            const double storeErrors = scrape(b, "service", "storeErrors");
            checks.expect(storeErrors > 0.0,
                          "fault scenario: /metrics surfaced storeErrors "
                          "> 0");
            checks.expect(
                scrapeString(b, "service", "tierState") == "degraded",
                "fault scenario: disk tier degraded under sustained "
                "faults");
            // Health stays 200 (memory tiers serve) but names the state.
            fc.request(get("/healthz"), st, b);
            checks.expect(st == 200 &&
                              b.find("degraded") != std::string::npos,
                          "fault scenario: /healthz reported degraded "
                          "(still 200)");
        }

        // Phase C, recovered: faults gone, cooldown elapsed. Clearing
        // the memo cache turns the phase A repeats into disk reads, so
        // the first one carries the half-open probe that re-closes the
        // breaker and the rest are served as diskHits.
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        fsrv->service().clearCache();
        for (const std::string &p : phaseA)
            send(p);
        checks.expect(fault5xx == 0 && faultTransport == 0,
                      "fault scenario: zero 5xx/transport errors under "
                      "disk faults");
        {
            int st = 0;
            std::string b;
            fc.request(get("/metrics"), st, b);
            const double recoveries = scrape(b, "service", "recoveries");
            const double diskHits = scrape(b, "service", "diskHits");
            checks.expect(
                scrapeString(b, "service", "tierState") == "ok" &&
                    recoveries > 0.0,
                "fault scenario: tier recovered after faults cleared");
            checks.expect(diskHits > 0.0,
                          "fault scenario: recovered tier served disk "
                          "hits");
            checks.expect(scrape(b, "service", "requests") ==
                              scrape(b, "service", "hits") +
                                  scrape(b, "service", "templateHits") +
                                  diskHits + scrape(b, "service", "misses") +
                                  scrape(b, "service", "coalesced"),
                          "fault scenario: ServiceStats partition held "
                          "through the episode");
            // Draining: /healthz flips to 503 + Retry-After before
            // stop(), the signal load balancers bleed traffic on.
            fsrv->beginDrain();
            fc.request(get("/healthz"), st, b);
            checks.expect(st == 503 &&
                              b.find("draining") != std::string::npos,
                          "fault scenario: /healthz answered 503 draining "
                          "after beginDrain()");
        }
        fsrv->stop();
        fsrv.reset();

        // Cold restart over the log the faults battered: every record
        // that survived must load and decode.
        bool faultRestart = true;
        try {
            ArtifactStore store(storePath);
            if (store.records() == 0)
                faultRestart = false;
            for (const ArtifactKey &key : store.keys()) {
                std::vector<std::uint8_t> blob;
                if (store.loadStatus(key, blob) != StoreStatus::Ok) {
                    faultRestart = false;
                    continue;
                }
                try {
                    (void)decodeCompileResult(blob);
                } catch (const FatalError &) {
                    faultRestart = false;
                }
            }
        } catch (const FatalError &) {
            faultRestart = false;
        }
        ::unlink(storePath.c_str());
        checks.expect(faultRestart,
                      "fault scenario: cold restart recovered the log and "
                      "every record decodes");
    }

    const int failures = checks.print();
    if (own)
        own->stop();
    return failures == 0 ? 0 : 1;
}
