/**
 * @file
 * qompressd contract tests: real sockets against an in-process
 * QompressServer on an ephemeral loopback port.
 *
 * Pins the public contract in server/server.hh: endpoint behavior and
 * JSON shapes, the error-taxonomy -> status-code table (malformed QASM
 * is a structured 400 that leaves the connection serving, unknown
 * paths 404, wrong methods 405, expired deadlines 504, admission
 * overflow 503), keep-alive + pipelining at the HTTP layer, the
 * /metrics ServiceStats partition invariant, every ServerStats and
 * ServiceStats field rendered from its field list, template-tier hits from
 * parameterized sweep traffic, and graceful shutdown. Runs under the
 * TSan CI job (labels: threads;server).
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/faultpoint.hh"
#include "common/rng.hh"
#include "ir/circuit.hh"
#include "server/histogram.hh"
#include "server/http.hh"
#include "server/server.hh"

namespace qompress {
namespace {

/** Blocking test client over the shared http.hh helpers. */
class TestClient
{
  public:
    TestClient(const std::string &host, int port)
    {
        fd_ = httpConnect(host, port);
        EXPECT_GE(fd_, 0) << "connect to " << host << ":" << port;
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return fd_ >= 0; }

    bool
    send(const std::string &raw)
    {
        return fd_ >= 0 && httpSendAll(fd_, raw);
    }

    bool
    read(int &status, std::string &body, int timeoutMs = 30000)
    {
        return fd_ >= 0 &&
               httpReadResponse(fd_, leftover_, status, body, timeoutMs);
    }

    /** One round trip; returns false on transport failure. */
    bool
    request(const std::string &raw, int &status, std::string &body)
    {
        return send(raw) && read(status, body);
    }

    /** Drain the raw response (status line + headers + body) until
     *  the peer closes. Shed connections are 503'd and closed by the
     *  acceptor, so EOF bounds the read; httpReadResponse discards
     *  headers, which the Retry-After assertion needs to see. */
    std::string
    readRaw(int timeoutMs = 30000)
    {
        std::string out;
        if (fd_ < 0)
            return out;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeoutMs);
        char buf[4096];
        while (std::chrono::steady_clock::now() < deadline) {
            pollfd pfd{fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n <= 0)
                break;
            out.append(buf, static_cast<std::size_t>(n));
        }
        return out;
    }

  private:
    int fd_ = -1;
    std::string leftover_;
};

std::string
postCompile(const std::string &qasm, const std::string &query = "")
{
    return "POST /compile" + query + " HTTP/1.1\r\nHost: t\r\n"
           "Content-Length: " + std::to_string(qasm.size()) +
           "\r\n\r\n" + qasm;
}

std::string
get(const std::string &target, bool close = false)
{
    return "GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
           (close ? "Connection: close\r\n" : "") + "\r\n";
}

/** FaultSpec that fails every matching call with @p err. */
FaultSpec
failWith(int err)
{
    FaultSpec s;
    s.kind = FaultKind::Fail;
    s.err = err;
    return s;
}

/** Value of a header within a raw HTTP response, "" when absent. */
std::string
headerValue(const std::string &raw, const std::string &name)
{
    const auto end = raw.find("\r\n\r\n");
    const std::string head =
        raw.substr(0, end == std::string::npos ? raw.size() : end);
    auto p = head.find("\r\n" + name + ":");
    if (p == std::string::npos)
        return "";
    p += 2 + name.size() + 1;
    const auto e = head.find("\r\n", p);
    std::string v = head.substr(p, e == std::string::npos ? std::string::npos
                                                          : e - p);
    while (!v.empty() && (v.front() == ' ' || v.front() == '\t'))
        v.erase(v.begin());
    while (!v.empty() && (v.back() == ' ' || v.back() == '\r'))
        v.pop_back();
    return v;
}

/** Spin until the server's own counters satisfy `pred`: barriers on
 *  observable state instead of wall-clock sleeps, so sequencing holds
 *  even when TSan stretches the scheduler. */
template <typename Pred>
bool
waitForStats(const QompressServer &server, Pred pred, int timeoutMs = 10000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred(server.stats()))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

/** Value of `"key": <number>` within the named /metrics section. */
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

/** Boots a server for a test, ephemeral port, debug endpoints on. */
struct ServerFixture
{
    explicit ServerFixture(ServerOptions opts = {})
    {
        opts.port = 0;
        opts.debugEndpoints = true;
        server = std::make_unique<QompressServer>(opts);
        server->start();
    }

    ~ServerFixture() { server->stop(); }

    TestClient
    client()
    {
        return TestClient("127.0.0.1", server->port());
    }

    std::unique_ptr<QompressServer> server;
};

const char *kValidQasm =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
    "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";

TEST(Server, CompilesInlineQasmOverPost)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"gates\""), std::string::npos);
    EXPECT_NE(body.find("\"total_eps\""), std::string::npos);
    EXPECT_NE(body.find("\"strategy\""), std::string::npos);
}

TEST(Server, FamilyBatchOverGet)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request(get("/compile?family=bv&sizes=8,10"), status,
                          body));
    EXPECT_EQ(status, 200);
    // Batch responses wrap the per-size objects.
    EXPECT_NE(body.find("\"results\""), std::string::npos);
    EXPECT_NE(body.find("bv_8"), std::string::npos);
    EXPECT_NE(body.find("bv_10"), std::string::npos);

    // A batch stops at its first failing size: bv_10 cannot fit six
    // qubit-only units, so the request is a 400 and bv_4 never reaches
    // the service.
    const ServiceStats before = fx.server->service().stats();
    ASSERT_TRUE(c.request(
        get("/compile?family=bv&sizes=10,4&units=6&strategy=qubit_only"),
        status, body));
    EXPECT_EQ(status, 400);
    EXPECT_NE(body.find("\"type\": \"fatal\""), std::string::npos) << body;
    const ServiceStats after = fx.server->service().stats();
    EXPECT_EQ(after.requests, before.requests + 1);
    EXPECT_EQ(after.requests, after.hits + after.templateHits +
                                  after.diskHits + after.misses +
                                  after.coalesced);
}

TEST(Server, MalformedQasmIsStructured400AndServerKeepsServing)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    // Duplicate operand: the satellite parser fix, via the network.
    ASSERT_TRUE(c.request(
        postCompile("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];"), status,
        body));
    EXPECT_EQ(status, 400);
    EXPECT_NE(body.find("\"error\""), std::string::npos);
    EXPECT_NE(body.find("duplicate qubit operand"), std::string::npos);
    EXPECT_NE(body.find("line"), std::string::npos);

    // The same keep-alive connection must still serve good requests.
    ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
    EXPECT_EQ(status, 200);
}

TEST(Server, AdversarialQasmNeverEscapesAsPanicOr500)
{
    ServerFixture fx;
    const std::vector<std::string> bad = {
        "OPENQASM 2.0; qreg q[99999999999999]; x q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(1.2.3) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(1e) q[0];",
        "OPENQASM 2.0; qreg q[2]; cx q[0],",
        "OPENQASM 2.0; qreg q[2]; cx r[0],q[1];",
        "OPENQASM 2.0; cx q[0],q[1];",
        "OPENQASM 2.0; qreg q[1]; rz(" + std::string(300, '(') + "1" +
            std::string(300, ')') + ") q[0];",
        "",
    };
    TestClient c = fx.client();
    for (const std::string &qasm : bad) {
        int status = 0;
        std::string body;
        ASSERT_TRUE(c.request(postCompile(qasm), status, body)) << qasm;
        EXPECT_EQ(status, 400) << qasm;
        EXPECT_NE(body.find("\"error\""), std::string::npos) << qasm;
    }
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request(get("/healthz"), status, body));
    EXPECT_EQ(status, 200);
}

TEST(Server, UnknownStrategyFamilyTopologyAre400)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request(postCompile(kValidQasm, "?strategy=nope"),
                          status, body));
    EXPECT_EQ(status, 400);
    ASSERT_TRUE(c.request(get("/compile?family=nope&size=8"), status,
                          body));
    EXPECT_EQ(status, 400);
    ASSERT_TRUE(c.request(postCompile(kValidQasm, "?topology=nope"),
                          status, body));
    EXPECT_EQ(status, 400);
}

TEST(Server, RoutingErrors404And405)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request(get("/nope"), status, body));
    EXPECT_EQ(status, 404);
    ASSERT_TRUE(c.request("DELETE /compile HTTP/1.1\r\nHost: t\r\n\r\n",
                          status, body));
    EXPECT_EQ(status, 405);
}

TEST(Server, MalformedHttpIs400AndCountsAsClientError)
{
    ServerFixture fx;
    {
        TestClient c = fx.client();
        int status = 0;
        std::string body;
        ASSERT_TRUE(c.request("GARBAGE\r\n\r\n", status, body));
        EXPECT_EQ(status, 400);
    }
    const ServerStats s = fx.server->stats();
    EXPECT_GE(s.clientErrors, 1u);
    EXPECT_EQ(s.serverErrors, 0u);
}

TEST(Server, ZeroDeadlineIsDeterministic504)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request(postCompile(kValidQasm, "?deadline_ms=0"),
                          status, body));
    EXPECT_EQ(status, 504);
    EXPECT_NE(body.find("deadline"), std::string::npos);
    // Header spelling too.
    ASSERT_TRUE(c.request("POST /compile HTTP/1.1\r\nHost: t\r\n"
                          "X-Deadline-Ms: 0\r\nContent-Length: " +
                              std::to_string(std::string(kValidQasm)
                                                 .size()) +
                              "\r\n\r\n" + kValidQasm,
                          status, body));
    EXPECT_EQ(status, 504);
    const ServerStats s = fx.server->stats();
    EXPECT_GE(s.deadlineMisses, 2u);
    // A deadline miss is a server-side failure in the stats.
    EXPECT_GE(s.serverErrors, 2u);
    // Liveness after 504s.
    ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
    EXPECT_EQ(status, 200);
}

TEST(Server, OverloadShedsWith503)
{
    // One worker, one queue slot. Each step gates on the server's own
    // counters rather than wall-clock sleeps, so the sequencing holds
    // even when TSan stretches the scheduler: the lone worker provably
    // holds the sleeper, the second connection provably occupies the
    // queue slot, and only then does the third connection arrive --
    // which must be shed with a 503 at admission instead of queueing
    // without bound.
    ServerOptions opts;
    opts.workers = 1;
    opts.maxQueue = 1;
    ServerFixture fx(opts);

    TestClient sleeper = fx.client();
    ASSERT_TRUE(sleeper.send("POST /debug/sleep?ms=1500 HTTP/1.1\r\n"
                             "Host: t\r\nContent-Length: 0\r\n\r\n"));
    // Barrier: the worker has parsed the sleeper's request (so it is
    // occupied for the full sleep) and the queue slot is free again.
    ASSERT_TRUE(waitForStats(*fx.server, [](const ServerStats &s) {
        return s.requests >= 1 && s.queueDepth == 0;
    }));

    TestClient queued = fx.client(); // occupies the single queue slot
    ASSERT_TRUE(waitForStats(*fx.server, [](const ServerStats &s) {
        return s.accepted >= 2 && s.queueDepth == 1;
    }));

    // Shedding happens at admission, before any bytes are read, so
    // the 503 arrives unprompted and the acceptor closes the socket.
    TestClient shedMe = fx.client();
    const std::string raw = shedMe.readRaw();
    EXPECT_EQ(raw.rfind("HTTP/1.1 503", 0), 0u) << raw;
    EXPECT_NE(raw.find("queue is full"), std::string::npos) << raw;
    // Retry-After must be a positive integer, not just present.
    const std::string retry = headerValue(raw, "Retry-After");
    ASSERT_FALSE(retry.empty()) << raw;
    EXPECT_EQ(retry.find_first_not_of("0123456789"), std::string::npos)
        << retry;
    EXPECT_GT(std::atoi(retry.c_str()), 0) << retry;

    // The sleeper finishes, then the queued connection gets served:
    // overload sheds the excess, never the admitted work.
    int status = 0;
    std::string body;
    ASSERT_TRUE(sleeper.read(status, body));
    EXPECT_EQ(status, 200);
    // Release the lone worker deterministically: a close-flagged
    // request ends the sleeper's keep-alive hold, so the queued
    // connection is picked up without waiting out the idle timeout.
    ASSERT_TRUE(sleeper.request(get("/healthz", true), status, body));
    EXPECT_EQ(status, 200);
    ASSERT_TRUE(queued.request(get("/healthz"), status, body));
    EXPECT_EQ(status, 200);
    EXPECT_GE(fx.server->stats().shed, 1u);
}

TEST(Server, MetricsExposeServiceStatsAndPartitionHolds)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    // Two identical compiles: second must be a memo hit.
    ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
    ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
    ASSERT_TRUE(c.request(get("/metrics"), status, body));
    EXPECT_EQ(status, 200);
    const double requests = scrape(body, "service", "requests");
    const double hits = scrape(body, "service", "hits");
    const double misses = scrape(body, "service", "misses");
    const double tmpl = scrape(body, "service", "templateHits");
    const double coalesced = scrape(body, "service", "coalesced");
    const double disk = scrape(body, "service", "diskHits");
    EXPECT_EQ(requests, 2.0);
    EXPECT_GE(hits, 1.0);
    EXPECT_EQ(requests, hits + tmpl + disk + misses + coalesced);
    // All cache tiers are visible; persistence keys are exported even
    // with the store off (scrape returns -1 for an absent key).
    EXPECT_GE(scrape(body, "service", "cacheSize"), 1.0);
    EXPECT_GE(scrape(body, "service", "templateCapacity"), 0.0);
    EXPECT_GE(disk, 0.0);
    EXPECT_GE(scrape(body, "service", "bytesInUse"), 0.0);
    EXPECT_GE(scrape(body, "service", "storeRecords"), 0.0);
    EXPECT_GE(scrape(body, "service", "sizeEvictions"), 0.0);
    // Server section + latency histogram.
    EXPECT_GE(scrape(body, "server", "requests"), 2.0);
    EXPECT_GT(scrape(body, "latency", "p99_us"), 0.0);
    EXPECT_GE(scrape(body, "latency", "count"), 2.0);
}

/** Text of the named top-level /metrics section's {...} block. */
std::string
section(const std::string &doc, const std::string &name)
{
    const auto s = doc.find("\"" + name + "\": {");
    if (s == std::string::npos)
        return "";
    return doc.substr(s, doc.find('}', s) - s + 1);
}

TEST(Server, MetricsRenderEveryStatsFieldFromItsList)
{
    ServerFixture fx;
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
    ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
    ASSERT_TRUE(c.request(get("/metrics"), status, body));
    ASSERT_EQ(status, 200);
    const std::string server = section(body, "server");
    for (const auto &[name, member] : kServerStatsFields) {
        EXPECT_NE(server.find("\"" + std::string(name) + "\": "),
                  std::string::npos)
            << name;
    }
    // Both compiles have answered, so the service is quiescent: every
    // rendered value must equal the live snapshot.
    const ServiceStats st = fx.server->service().stats();
    const std::string service = section(body, "service");
    for (const auto &[name, member] : kServiceStatsFields) {
        const std::string key = "\"" + std::string(name) + "\": ";
        const std::string want =
            std::holds_alternative<std::uint64_t ServiceStats::*>(member)
                ? std::to_string(
                      st.*std::get<std::uint64_t ServiceStats::*>(member))
                : "\"" + std::string(diskTierStateName(st.tierState)) +
                      "\"";
        EXPECT_TRUE(service.find(key + want + ",") != std::string::npos ||
                    service.find(key + want + "}") != std::string::npos)
            << name << " = " << want << " in " << service;
    }
}

TEST(Server, ParameterizedSweepTrafficHitsTemplateTier)
{
    ServerFixture fx;
    const Circuit base = benchmarkFamily("qaoa_random").make(8);
    Rng rng(7);
    TestClient c = fx.client();
    int status = 0;
    std::string body;
    for (int i = 0; i < 4; ++i) {
        Circuit variant(base.numQubits(), base.name());
        for (Gate g : base.gates()) {
            if (gateHasParam(g.type))
                g.param = rng.nextDouble(-3.0, 3.0);
            variant.add(std::move(g));
        }
        ASSERT_TRUE(c.request(postCompile(variant.toQasm()), status,
                              body));
        EXPECT_EQ(status, 200);
    }
    ASSERT_TRUE(c.request(get("/metrics"), status, body));
    EXPECT_GE(scrape(body, "service", "templateHits"), 3.0);
}

TEST(Server, KeepAliveServesPipelinedRequests)
{
    ServerFixture fx;
    TestClient c = fx.client();
    // Two pipelined requests in one write; both answered in order.
    ASSERT_TRUE(c.send(get("/healthz") + get("/healthz", true)));
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.read(status, body));
    EXPECT_EQ(status, 200);
    ASSERT_TRUE(c.read(status, body));
    EXPECT_EQ(status, 200);
}

TEST(Server, ConcurrentClientsAllSucceed)
{
    ServerOptions opts;
    opts.workers = 4;
    ServerFixture fx(opts);
    std::vector<std::thread> clients;
    std::atomic<int> ok{0};
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&fx, &ok] {
            TestClient c("127.0.0.1", fx.server->port());
            for (int i = 0; i < 5; ++i) {
                int status = 0;
                std::string body;
                if (c.request(postCompile(kValidQasm), status, body) &&
                    status == 200)
                    ok.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), 20);
    const ServerStats s = fx.server->stats();
    EXPECT_EQ(s.serverErrors, 0u);
    EXPECT_EQ(s.ok, 20u);
}

TEST(Server, GracefulStopDrainsAndStopsListening)
{
    auto server = std::make_unique<QompressServer>(ServerOptions{});
    server->start();
    const int port = server->port();
    {
        TestClient c("127.0.0.1", port);
        int status = 0;
        std::string body;
        ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
        EXPECT_EQ(status, 200);
    }
    server->stop();
    EXPECT_FALSE(server->running());
    // Stop is idempotent and the port is released.
    server->stop();
    EXPECT_LT(httpConnect("127.0.0.1", port), 0);
}

TEST(Server, HealthzReportsOkThenDrainingAfterBeginDrain)
{
    ServerFixture fx;
    {
        TestClient c = fx.client();
        int status = 0;
        std::string body;
        ASSERT_TRUE(c.request(get("/healthz"), status, body));
        EXPECT_EQ(status, 200);
        EXPECT_NE(body.find("\"ok\""), std::string::npos);
    }

    fx.server->beginDrain();
    EXPECT_TRUE(fx.server->running()); // draining != stopped

    // Draining answers 503 with a Retry-After hint so load balancers
    // bleed traffic away before stop() closes the listener.
    {
        TestClient c = fx.client();
        ASSERT_TRUE(c.send(get("/healthz", /*close=*/true)));
        const std::string raw = c.readRaw();
        EXPECT_NE(raw.find("503"), std::string::npos) << raw;
        EXPECT_NE(raw.find("\"draining\""), std::string::npos) << raw;
        EXPECT_FALSE(headerValue(raw, "Retry-After").empty()) << raw;
    }

    // The data plane keeps serving while draining: only the health
    // signal flips, so in-flight users finish cleanly.
    {
        TestClient c = fx.client();
        int status = 0;
        std::string body;
        ASSERT_TRUE(c.request(postCompile(kValidQasm), status, body));
        EXPECT_EQ(status, 200);
    }
}

TEST(Server, HealthzReportsDegradedWhenDiskTierTrips)
{
    const std::string storePath =
        ::testing::TempDir() + "qompress_server_degraded.qst";
    std::remove(storePath.c_str());

    ServerOptions opts;
    opts.service.storePath = storePath;
    opts.service.storeErrorThreshold = 1;
    opts.service.storeCooldownMs = 60000.0; // stay degraded for the test
    ServerFixture fx(opts);

    {
        FaultInjector inj(7);
        inj.arm("store.pwrite", failWith(EIO));
        ScopedFaultInjection scope(inj);

        // A full compile misses every memory tier and tries the
        // write-behind, which the armed fault fails -> breaker trips.
        TestClient c = fx.client();
        int status = 0;
        std::string body;
        ASSERT_TRUE(c.request(postCompile(kValidQasm, "?full=1"), status,
                              body));
        EXPECT_EQ(status, 200); // degradation is invisible to the caller
    }

    int status = 0;
    std::string body;
    TestClient c = fx.client();
    ASSERT_TRUE(c.request(get("/healthz"), status, body));
    EXPECT_EQ(status, 200); // memory tiers still serve: up, not down
    EXPECT_NE(body.find("\"degraded\""), std::string::npos) << body;

    ASSERT_TRUE(c.request(get("/metrics"), status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"tierState\": \"degraded\""), std::string::npos)
        << body;
    EXPECT_GE(scrape(body, "service", "storeErrors"), 1.0);

    std::remove(storePath.c_str());
}

TEST(Server, DebugEndpointsAreOffByDefault)
{
    ServerOptions opts; // debugEndpoints defaults to false...
    opts.port = 0;
    QompressServer server(opts); // ...and the fixture is not used here
    server.start();
    TestClient c("127.0.0.1", server.port());
    int status = 0;
    std::string body;
    ASSERT_TRUE(c.request("POST /debug/sleep?ms=1 HTTP/1.1\r\nHost: t"
                          "\r\nContent-Length: 0\r\n\r\n",
                          status, body));
    EXPECT_EQ(status, 404);
    server.stop();
}

} // namespace
} // namespace qompress
