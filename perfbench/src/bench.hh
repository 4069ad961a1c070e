/**
 * @file
 * Shared types of the repo benchmark (see perfbench/README.md).
 *
 * A workload is a seeded, fully pre-generated set of compile requests:
 * the program under test only ever sees the generated bytes. Three
 * workloads drive an in-process QompressServer over loopback sockets;
 * verify_small calls the library directly, like `qompress_cli --verify`.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "server/server.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Closed-loop client threads and server workers: together they stay
 *  within a 4-core host. */
constexpr int kClients = 2;
constexpr int kWorkers = 2;

/** CPUs the benchmark process is pinned to (see pinCpus in main.cc). */
constexpr int kCpus = 2;

/** Setups per run; setup_s reports their median. */
constexpr int kSetups = 9;

/** One compile request exactly as a workload sends it. */
struct Job
{
    /** The bytes the program receives: a full HTTP request for the
     *  server workloads, the bare program text for verify_small. */
    std::string raw;
    std::size_t bodyAt = 0; ///< where the program text starts in raw
    std::string strategy;
    std::string device;   ///< registered device name, or empty
    std::string topology; ///< explicit topology kind when device is empty
    int units = 0;        ///< explicit topology size
    int qubits = 0;

    std::string qasm() const { return raw.substr(bodyAt); }
};

struct Workload
{
    std::string name;
    bool http = true;
    qompress::ServerOptions server;
    std::vector<Job> warm;          ///< cold warm-up, part of setup_s
    std::vector<Job> jobs;          ///< distinct requests of the traffic
    std::vector<std::uint32_t> seq; ///< request order (indices into jobs)
    std::vector<Job> quality;       ///< fixed set behind the quality metrics
};

/** The four workload names, in their documented order. */
const std::vector<std::string> &workloadNames();

/**
 * Generate workload @p name from @p seed, sized for a timed window of
 * @p seconds. @p outDir holds any files the workload writes (the
 * sweep_store artifact log).
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      double seconds, const std::string &outDir);

/** @name Direct library access to a Job (no server) @{ */
qompress::Circuit programOf(const Job &j);

/** Resolve the job's topology and calibration the way the server does. */
qompress::Topology topologyOf(const Job &j,
                              const qompress::DeviceRegistry &reg,
                              std::shared_ptr<const qompress::DeviceCalibration>
                                  &cal);

/** The CompileRequest the server builds for this job's POST. */
qompress::CompileRequest requestOf(const Job &j);

/** makeStrategy(j.strategy)->compile of the job's inputs. */
qompress::CompileResult directCompile(const Job &j,
                                      const qompress::DeviceRegistry &reg);
/** The same, for the already parsed program @p c of @p j. */
qompress::CompileResult directCompile(const Job &j, const qompress::Circuit &c,
                                      const qompress::DeviceRegistry &reg);
/** @} */

/** One end-to-end or per-layer metric value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0; ///< observations behind the value
};

using MetricMap = std::map<std::string, Metric>;

/** Host and build identity stamped into every output. */
struct Stamp
{
    std::uint64_t seed = 0;
    std::string workload;
    std::string commit;
    int cpus = 0; ///< CPUs the process runs on after pinning
    std::string json() const;
};

/** Outcome of one benchmark invocation. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems; ///< every failed check, by name
    MetricMap metrics;                 ///< the result line's metrics
    MetricMap extra;                   ///< printed and saved, not reported
};

/** Timed closed-loop run plus correctness gate (tracing off). */
RunResult runMeasured(const Workload &w, double seconds,
                      const std::string &outDir, const Stamp &stamp);

/** Traced replay through each layer's public functions. */
RunResult runTraced(const std::string &workload, std::uint64_t seed,
                    double seconds, const std::string &outDir,
                    const Stamp &stamp);

/** Shared helpers. @{ */
std::string jsonNumber(double v);
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
