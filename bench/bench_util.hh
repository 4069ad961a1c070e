/**
 * @file
 * Shared helpers for the benches: argument parsing, size sweeps, and
 * ratio formatting for the figure/table reproductions, plus the one
 * section timer, the named-metric JSON report and the --check tally of
 * the machine-readable benches (bench_hotpaths, bench_loadgen).
 *
 * Every figure/table bench prints the rows/series of one paper table
 * or figure. Common flags: --quick (smaller sweeps), --csv
 * (machine-readable), --sizes=a,b,c (override the size sweep).
 */

#ifndef QOMPRESS_BENCH_BENCH_UTIL_HH
#define QOMPRESS_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "sim/statevector.hh"

namespace qompress::bench {

/** Parsed command-line options shared by all benches. */
struct BenchArgs
{
    bool quick = false;
    bool csv = false;
    std::vector<int> sizes;
    std::vector<std::string> extra;

    bool
    has(const std::string &flag) const
    {
        for (const auto &e : extra) {
            if (e == flag)
                return true;
        }
        return false;
    }
};

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--quick") {
            args.quick = true;
        } else if (a == "--csv") {
            args.csv = true;
        } else if (a.rfind("--sizes=", 0) == 0) {
            for (const auto &tok : split(a.substr(8), ','))
                args.sizes.push_back(std::stoi(tok));
        } else {
            args.extra.push_back(a);
        }
    }
    return args;
}

/** The paper's size sweep (5 to 40); --quick halves it. */
inline std::vector<int>
defaultSizes(const BenchArgs &args)
{
    if (!args.sizes.empty())
        return args.sizes;
    if (args.quick)
        return {10, 20, 30};
    return {5, 10, 15, 20, 25, 30, 35, 40};
}

/** Render a value/baseline ratio like "1.43x". */
inline std::string
ratio(double value, double baseline)
{
    if (baseline <= 0.0)
        return "n/a";
    return format("%.3fx", value / baseline);
}

inline void
emit(const TablePrinter &table, const BenchArgs &args)
{
    if (args.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << '\n';
}

inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "=== " << title << " ===\n"
              << paper_ref << "\n\n";
}

/** @name Machine-readable reports (bench_hotpaths, bench_loadgen) @{ */

/**
 * The benches' one timing primitive. Each time() call is one timed
 * window around @p fn, so setup done outside the call stays untimed;
 * ms() is the mean window.
 */
class SectionTimer
{
  public:
    /** Run @p fn once as a window; returns that window's ms. */
    template <typename Fn>
    double
    time(Fn &&fn)
    {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        totalMs_ += ms;
        ++windows_;
        return ms;
    }

    /** Mean window in milliseconds (0 before the first window). */
    double ms() const { return windows_ ? totalMs_ / windows_ : 0.0; }

  private:
    double totalMs_ = 0.0;
    std::uint64_t windows_ = 0;
};

/** @p slow_ms / @p fast_ms, or 0 when @p fast_ms is not positive. */
inline double
speedup(double slow_ms, double fast_ms)
{
    return fast_ms > 0.0 ? slow_ms / fast_ms : 0.0;
}

#ifndef QOMPRESS_BUILD_TYPE
#define QOMPRESS_BUILD_TYPE "unknown"
#endif

/**
 * One bench's JSON document, {"bench", "host", "metrics"}, with the
 * metrics in the order they were added. The host object (nproc,
 * QOMPRESS_THREADS, build type) keeps snapshots from different
 * machines interpretable; tools/bench_diff.py compares two documents.
 */
class Report
{
  public:
    explicit Report(std::string bench) : bench_(std::move(bench)) {}

    /** @name Add one metric, rendered with printf format @p fmt. @{ */
    void
    add(const std::string &name, double value, const char *fmt = "%.4f")
    {
        metrics_.emplace_back(name, format(fmt, value));
    }
    void
    add(const std::string &name, std::uint64_t value)
    {
        metrics_.emplace_back(name, std::to_string(value));
    }
    void
    add(const std::string &name, bool value)
    {
        metrics_.emplace_back(name, value ? "true" : "false");
    }
    /** @} */

    std::string
    json() const
    {
        const char *threads = std::getenv("QOMPRESS_THREADS");
        std::string out = format(
            "{\n  \"bench\": \"%s\",\n  \"host\": {\n"
            "    \"nproc\": %u,\n    \"qompress_threads\": \"%s\",\n"
            "    \"build_type\": \"%s\"\n  },\n  \"metrics\": {\n",
            bench_.c_str(), std::thread::hardware_concurrency(),
            threads ? threads : "unset", QOMPRESS_BUILD_TYPE);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            out += format("    \"%s\": %s%s\n", metrics_[i].first.c_str(),
                          metrics_[i].second.c_str(),
                          i + 1 < metrics_.size() ? "," : "");
        }
        return out + "  }\n}\n";
    }

    /** Write json() to @p path; false (with a message) on failure. */
    bool
    save(const std::string &path) const
    {
        std::ofstream out(path);
        out << json();
        if (!out)
            std::cerr << "error: cannot write '" << path << "'\n";
        return static_cast<bool>(out);
    }

  private:
    std::string bench_;
    std::vector<std::pair<std::string, std::string>> metrics_;
};

/**
 * --check assertions, stated where their inputs are measured and
 * printed together afterwards as PASS:/FAIL: lines on stderr.
 */
class Checks
{
  public:
    void
    expect(bool ok, std::string what)
    {
        results_.emplace_back(ok, std::move(what));
    }

    /** Print every assertion in order; returns the failure count. */
    int
    print() const
    {
        int failures = 0;
        for (const auto &[ok, what] : results_) {
            std::cerr << (ok ? "PASS: " : "FAIL: ") << what << '\n';
            failures += ok ? 0 : 1;
        }
        return failures;
    }

  private:
    std::vector<std::pair<bool, std::string>> results_;
};
/** @} */

/** @name Randomized mixed-radix fixtures shared by bench_hotpaths and
 *  the differential tests. @{ */

/** Haar-ish random k x k unitary via Gram-Schmidt of a Gaussian
 *  matrix -- enough structure to exercise dense kernels. */
inline GateMatrix
randomUnitary(std::size_t k, Rng &rng)
{
    GateMatrix m(k);
    for (std::size_t r = 0; r < k; ++r)
        for (std::size_t c = 0; c < k; ++c)
            m[r][c] = Cplx(rng.nextGaussian(), rng.nextGaussian());
    for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t prev = 0; prev < c; ++prev) {
            Cplx dot = 0.0;
            for (std::size_t r = 0; r < k; ++r)
                dot += std::conj(m[r][prev]) * m[r][c];
            for (std::size_t r = 0; r < k; ++r)
                m[r][c] -= dot * m[r][prev];
        }
        double norm = 0.0;
        for (std::size_t r = 0; r < k; ++r)
            norm += std::norm(m[r][c]);
        norm = std::sqrt(norm);
        for (std::size_t r = 0; r < k; ++r)
            m[r][c] /= norm;
    }
    return m;
}

/** Random normalized product state over the given dimensions. */
inline MixedRadixState
randomState(const std::vector<int> &dims, Rng &rng)
{
    std::vector<std::vector<Cplx>> unit_states;
    for (int d : dims) {
        std::vector<Cplx> s(static_cast<std::size_t>(d));
        double norm = 0.0;
        for (auto &amp : s) {
            amp = Cplx(rng.nextGaussian(), rng.nextGaussian());
            norm += std::norm(amp);
        }
        for (auto &amp : s)
            amp /= std::sqrt(norm);
        unit_states.push_back(std::move(s));
    }
    return MixedRadixState::product(unit_states);
}

/** Largest elementwise amplitude deviation between two states. */
inline double
maxAmpDiff(const MixedRadixState &a, const MixedRadixState &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a.amp(i) - b.amp(i)));
    return worst;
}

/** One gate of a random statevector workload. */
struct WorkloadGate
{
    std::vector<int> units;
    GateMatrix u;
};

/** Representative mixed-radix workload: one random single-qudit
 *  unitary per unit plus one random two-qudit unitary per adjacent
 *  pair (k = 4, 8, 16 depending on dims). */
inline std::vector<WorkloadGate>
mixedGateWorkload(const std::vector<int> &dims, Rng &rng)
{
    std::vector<WorkloadGate> gates;
    const int n = static_cast<int>(dims.size());
    for (int u = 0; u < n; ++u) {
        gates.push_back(
            {{u}, randomUnitary(static_cast<std::size_t>(dims[u]), rng)});
    }
    for (int u = 0; u + 1 < n; ++u) {
        const std::size_t k =
            static_cast<std::size_t>(dims[u]) * dims[u + 1];
        gates.push_back({{u, u + 1}, randomUnitary(k, rng)});
    }
    return gates;
}
/** @} */

} // namespace qompress::bench

#endif // QOMPRESS_BENCH_BENCH_UTIL_HH
