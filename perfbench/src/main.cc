/**
 * @file
 * perfbench: the repo benchmark's measuring binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--commit SHA]
 *
 * Prints a human-readable report, then, as the last line of standard
 * output, one JSON object {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 reports the end-to-end metrics of a timed closed-loop run;
 * --trace 1 reports the per-layer metrics of a traced replay. The full
 * report (host stamp, sample counts, every check) is written to
 * DIR/<workload>-seed<N>-trace<T>.json. Exit status 0 only when every
 * check passed.
 */

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench.hh"
#include "common/error.hh"
#include "common/strings.hh"

using namespace qompress;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX
#define PERFBENCH_CXX "unknown"
#endif

namespace perfbench {

std::string
Stamp::json() const
{
    const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
    return format("{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
                  "\"pinned_cpus\": %d, "
                  "\"build_type\": \"%s\", \"release\": %s, "
                  "\"compiler\": \"%s\", \"commit\": \"%s\"}",
                  workload.c_str(), static_cast<unsigned long long>(seed),
                  ::sysconf(_SC_NPROCESSORS_ONLN), cpus, PERFBENCH_BUILD_TYPE,
                  release ? "true" : "false", PERFBENCH_CXX,
                  jsonEscape(commit).c_str());
}

} // namespace perfbench

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10), haveSeed = true;
        else if (flag == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (flag == "--out-dir")
            a.outDir = v;
        else if (flag == "--commit")
            a.commit = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    bool known = false;
    for (const std::string &n : workloadNames())
        known = known || n == a.workload;
    if (!known)
        usage("--workload must be one of repeat_zipf, unique_compile, "
              "sweep_store, verify_small");
    if (!haveSeed)
        usage("--seed is required");
    if (!(a.seconds > 0.0 && a.seconds <= 120.0))
        usage("--seconds must be in (0, 120]");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    return a;
}

/**
 * Pin this process, and so every thread it starts, to the first
 * kCpus CPUs it may run on; returns how many it runs on. On a shared
 * virtual machine, busy threads spread over all four vCPUs drew 4-25%
 * hypervisor steal and ran the loopback workloads up to 4x slower
 * than the same threads on two vCPUs, where steal stayed near 1%.
 */
int
pinCpus()
{
    cpu_set_t allowed;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return 0;
    cpu_set_t want;
    CPU_ZERO(&want);
    int n = 0;
    for (int c = 0; c < CPU_SETSIZE && n < kCpus; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            CPU_SET(c, &want);
            ++n;
        }
    }
    if (::sched_setaffinity(0, sizeof want, &want) != 0)
        return CPU_COUNT(&allowed);
    return n;
}

std::string
metricsJson(const MetricMap &m, bool withSamples)
{
    std::vector<std::string> rows;
    for (const auto &[name, v] : m) {
        std::string row = format("\"%s\": {\"value\": %s, \"unit\": \"%s\"",
                                 name.c_str(), jsonNumber(v.value).c_str(),
                                 v.unit.c_str());
        if (withSamples)
            row += format(", \"samples\": %llu",
                          static_cast<unsigned long long>(v.samples));
        rows.push_back(row + "}");
    }
    return "{" + join(rows, ", ") + "}";
}

void
printTable(const char *title, const MetricMap &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, v] : m)
        std::printf("  %-36s %16.6g %-6s (n=%llu)\n", name.c_str(), v.value,
                    v.unit.c_str(), static_cast<unsigned long long>(v.samples));
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    ::mkdir(args.outDir.c_str(), 0755);
    Stamp stamp;
    stamp.cpus = pinCpus();
    stamp.seed = args.seed;
    stamp.workload = args.workload;
    stamp.commit = args.commit;
    std::printf("perfbench %s\n", stamp.json().c_str());
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        std::printf("WARNING: %s build; timings are not comparable\n",
                    PERFBENCH_BUILD_TYPE);
    std::fflush(stdout);

    RunResult rr;
    try {
        if (args.trace) {
            rr = runTraced(args.workload, args.seed, args.seconds,
                           args.outDir, stamp);
        } else {
            const Workload w = makeWorkload(args.workload, args.seed,
                                            args.seconds, args.outDir);
            rr = runMeasured(w, args.seconds, args.outDir, stamp);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    printTable(args.trace ? "per-layer metrics:" : "end-to-end metrics:",
               rr.metrics);
    printTable("informational:", rr.extra);
    for (const std::string &p : rr.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    const bool correct = rr.failed == 0 && rr.problems.empty();
    const std::string path =
        format("%s/%s-seed%llu-trace%d.json", args.outDir.c_str(),
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace);
    {
        std::vector<std::string> probs;
        for (const std::string &p : rr.problems)
            probs.push_back("\"" + jsonEscape(p) + "\"");
        std::ofstream out(path);
        out << "{\"stamp\": " << stamp.json() << ",\n \"correct\": "
            << (correct ? "true" : "false") << ", \"attempted\": "
            << rr.attempted << ", \"failed\": " << rr.failed
            << ",\n \"metrics\": " << metricsJson(rr.metrics, true)
            << ",\n \"informational\": " << metricsJson(rr.extra, true)
            << ",\n \"problems\": [" << join(probs, ", ") << "]}\n";
    }
    std::printf("report: %s\n", path.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rr.attempted),
                static_cast<unsigned long long>(rr.failed),
                metricsJson(rr.metrics, false).c_str());
    return correct ? 0 : 1;
}
