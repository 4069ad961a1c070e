#include <algorithm>
#include <cmath>
#include <set>

#include "bench.hh"
#include "circuits/graphs.hh"
#include "circuits/qaoa.hh"
#include "circuits/registry.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "ir/fingerprint.hh"
#include "ir/qasm.hh"
#include "strategies/strategy.hh"

using namespace qompress;

namespace perfbench {

namespace {

/** The registry zoo, in a fixed order (the workloads must not change
 *  when a later change registers another device). */
const std::vector<std::string> kZoo = {"falcon27",    "heavyhex23",
                                       "heavyhex65",  "heavyhex127",
                                       "ring65",      "grid64"};

/**
 * unique_compile's devices: the zoo without heavyhex65, where about one
 * rb or eqm compile of a random 8-20 qubit QAOA program in two thousand
 * fails with "no routing path ... (disconnected occupied region)". The
 * workload must not fail, and screening programs with a compile would
 * let the compiler under test choose the inputs.
 */
const std::vector<std::string> kUniqueDevices = {
    "falcon27", "heavyhex23", "heavyhex127", "ring65", "grid64"};

/** Strategies whose compile() is the staged pipeline and that run on
 *  one lane (fq, ec and portfolio are excluded; see the README). */
const std::vector<std::string> kStagedStrategies = {"qubit_only", "eqm",
                                                    "rb", "awe", "pp"};

/** Fixed seed behind the quality sets: eps_geomean and
 *  routing_gates_mean must repeat exactly across runs and seeds. */
constexpr std::uint64_t kQualitySeed = 0x51ab1e;

/** A job for program @p c; @p http wraps it in its POST /compile. */
Job
makeJob(const Circuit &c, const std::string &strategy,
        const std::string &device, const std::string &topology = "",
        int units = 0, bool http = true)
{
    Job j;
    j.qubits = c.numQubits();
    j.strategy = strategy;
    j.device = device;
    j.topology = topology;
    j.units = units;
    const std::string qasm = c.toQasm();
    if (!http) {
        j.raw = qasm;
        return j;
    }
    std::string q = "?strategy=" + strategy;
    if (!device.empty())
        q += "&device=" + device;
    else
        q += "&topology=" + topology + "&units=" + std::to_string(units);
    j.raw = "POST /compile" + q + " HTTP/1.1\r\nHost: perfbench\r\n" +
            "Content-Length: " + std::to_string(qasm.size()) + "\r\n\r\n";
    j.bodyAt = j.raw.size();
    j.raw += qasm;
    return j;
}

/** Same structure as @p base, every rotation angle re-drawn. */
Circuit
rerollAngles(const Circuit &base, Rng &rng)
{
    Circuit out(base.numQubits(), base.name());
    for (Gate g : base.gates()) {
        if (gateHasParam(g.type))
            g.param = canonicalQasmParam(rng.nextDouble(-3.14159, 3.14159));
        out.add(std::move(g));
    }
    return out;
}

/** A fresh QAOA instance on a seeded random graph of @p n vertices. */
Circuit
randomQaoa(int n, Rng &rng)
{
    QaoaOptions opts;
    opts.gamma = canonicalQasmParam(rng.nextDouble(0.1, 1.5));
    opts.order_seed = rng();
    const double density = rng.nextDouble(0.25, 0.4);
    return qaoaFromGraph(randomGraph(n, density, rng()), opts,
                         format("qaoa_u%d", n));
}

/** Zipf(s) cumulative distribution over @p n ranks. */
std::vector<double>
zipfCdf(std::size_t n, double s)
{
    std::vector<double> cdf(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), s) / total;
        cdf[i] = acc;
    }
    cdf.back() = 1.0;
    return cdf;
}

std::uint32_t
drawCdf(const std::vector<double> &cdf, Rng &rng)
{
    const double u = rng.nextDouble();
    return static_cast<std::uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/** Requests a workload may need: an upper-bound rate times the timed
 *  window plus warm traffic (a run ends early only if it outruns this). */
std::size_t
poolSize(double maxRatePerSec, double seconds)
{
    return static_cast<std::size_t>(maxRatePerSec * (seconds + 1.0)) + 64;
}

// ---------------------------------------------------------- repeat_zipf

/**
 * 48 fixed catalog entries: registry programs x zoo devices (by name)
 * and explicit topology/units requests. Entry 3 is the 4.4 KB
 * QAOA-heavyhex-40 body on heavyhex127.
 */
std::vector<Job>
repeatCatalog()
{
    struct Prog
    {
        const char *family;
        int size;
    };
    const std::vector<Prog> progs = {
        {"bv", 8},           {"qaoa_random", 10}, {"cuccaro", 8},
        {"bv", 12},          {"cnu", 8},          {"qaoa_cylinder", 12},
        {"qram", 10},        {"bv", 16},          {"qaoa_random", 12},
        {"qaoa_bwt", 10},    {"cuccaro", 10},     {"qaoa_random", 14},
    };
    const std::vector<std::string> strategies = {"eqm", "rb", "awe",
                                                 "qubit_only", "pp"};
    std::vector<Job> out;
    for (int k = 0; static_cast<int>(out.size()) < 48; ++k) {
        if (out.size() == 3) {
            out.push_back(makeJob(benchmarkFamily("qaoa_heavyhex").make(40),
                                  "eqm", "heavyhex127"));
            continue;
        }
        const Prog &p = progs[static_cast<std::size_t>(k) % progs.size()];
        const Circuit c = benchmarkFamily(p.family).make(p.size);
        const std::string &s =
            strategies[static_cast<std::size_t>(k / 3) % strategies.size()];
        if (k % 2 == 0) {
            out.push_back(makeJob(
                c, s, kZoo[static_cast<std::size_t>(k / 2) % kZoo.size()]));
        } else {
            static const char *kinds[] = {"ring", "grid", "line"};
            out.push_back(makeJob(c, s, "", kinds[(k / 2) % 3],
                                  c.numQubits() + (k % 5)));
        }
    }
    return out;
}

Workload
repeatZipf(std::uint64_t seed, double seconds)
{
    Workload w;
    w.jobs = repeatCatalog();
    w.warm = w.jobs;
    w.quality = w.jobs;
    // Popularity follows catalog order, so every seed sees the same
    // per-entry shares; the seed draws the request sequence.
    const auto cdf = zipfCdf(w.jobs.size(), 1.1);
    Rng rng(seed);
    w.seq.resize(poolSize(50000.0, seconds));
    for (auto &s : w.seq)
        s = drawCdf(cdf, rng);
    return w;
}

// ------------------------------------------------------- unique_compile

Workload
uniqueCompile(std::uint64_t seed, double seconds)
{
    Workload w;
    std::set<std::uint64_t> seen;
    auto fresh = [&](Rng &rng, int lo, int hi) {
        while (true) {
            Circuit c = randomQaoa(rng.nextInt(lo, hi), rng);
            // Unique as the service sees it: after the QASM round trip.
            const Circuit parsed = parseQasm(c.toQasm(), "request");
            if (seen.insert(structuralCircuitFingerprint(parsed).value)
                    .second)
                return c;
        }
    };
    Rng qrng(kQualitySeed);
    for (int i = 0; i < 30; ++i) {
        w.quality.push_back(makeJob(
            fresh(qrng, 8, 20),
            kStagedStrategies[static_cast<std::size_t>(i) %
                              kStagedStrategies.size()],
            kUniqueDevices[static_cast<std::size_t>(i / 5) %
                           kUniqueDevices.size()]));
    }
    // Warm-up: one cold compile per (device, strategy), building the
    // context pool. Fixed programs, so every seed sets up alike; they
    // never recur in the traffic.
    Rng wrng(kQualitySeed ^ 0x77a3);
    for (const std::string &d : kUniqueDevices)
        for (const std::string &s : kStagedStrategies)
            w.warm.push_back(makeJob(fresh(wrng, 8, 20), s, d));

    Rng rng(seed);
    const std::size_t n = poolSize(1200.0, seconds);
    w.jobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Circuit c = fresh(rng, 8, 20);
        w.jobs.push_back(makeJob(
            c, kStagedStrategies[rng.nextUint(kStagedStrategies.size())],
            kUniqueDevices[rng.nextUint(kUniqueDevices.size())]));
        w.seq.push_back(static_cast<std::uint32_t>(i));
    }
    return w;
}

// ---------------------------------------------------------- sweep_store

/** Non-parameterized catalog: 64 entries, four times the memo. */
std::vector<Job>
fixedCatalog()
{
    const std::vector<std::pair<const char *, int>> progs = {
        {"bv", 6},   {"bv", 8},   {"bv", 10},   {"bv", 12},
        {"cnu", 6},  {"cnu", 8},  {"cuccaro", 6}, {"cuccaro", 8},
    };
    const std::vector<std::string> strategies = {"eqm", "rb", "awe",
                                                 "qubit_only"};
    std::vector<Job> out;
    for (std::size_t k = 0; k < 64; ++k) {
        const auto &[family, size] = progs[k % progs.size()];
        const Circuit c = benchmarkFamily(family).make(size);
        const std::string &s = strategies[(k / progs.size()) %
                                          strategies.size()];
        if (k % 2 == 0)
            out.push_back(makeJob(c, s, kZoo[(k / 2) % kZoo.size()]));
        else
            out.push_back(makeJob(c, s, "", "ring", c.numQubits() + 2));
    }
    return out;
}

Workload
sweepStore(std::uint64_t seed, double seconds, const std::string &outDir)
{
    Workload w;
    w.server.service.cacheCapacity = 16;
    w.server.service.storePath = outDir + "/sweep_store.log";

    struct Base
    {
        Circuit circuit;
        std::string strategy;
        std::string device;
    };
    const std::vector<Base> bases = {
        {benchmarkFamily("qaoa_random").make(8), "eqm", "heavyhex23"},
        {benchmarkFamily("qaoa_random").make(10), "rb", "falcon27"},
        {benchmarkFamily("qaoa_cylinder").make(8), "awe", "heavyhex65"},
        {benchmarkFamily("qaoa_bwt").make(6), "qubit_only", "grid64"},
    };
    const std::vector<Job> catalog = fixedCatalog();

    // Warm-up: compile the catalog (written to the store) and one
    // exemplar per sweep structure (plants its template).
    w.warm = catalog;
    for (const Base &b : bases)
        w.warm.push_back(makeJob(b.circuit, b.strategy, b.device));
    w.quality = w.warm;

    // Traffic: one in four requests is a fresh-angle sweep point
    // (template rebind + write-behind), the rest repeat the catalog
    // (memo hits or, mostly, disk decodes).
    w.jobs = catalog;
    Rng rng(seed);
    const std::size_t n = poolSize(25000.0, seconds);
    w.seq.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 4 == 3) {
            const Base &b = bases[rng.nextUint(bases.size())];
            w.seq.push_back(static_cast<std::uint32_t>(w.jobs.size()));
            w.jobs.push_back(makeJob(rerollAngles(b.circuit, rng),
                                     b.strategy, b.device));
        } else {
            w.seq.push_back(
                static_cast<std::uint32_t>(rng.nextUint(catalog.size())));
        }
    }
    return w;
}

// --------------------------------------------------------- verify_small

/** The paper's standard strategies; pool entry i uses entry i % 6. */
const std::vector<std::string> kVerifyStrategies = {
    "qubit_only", "fq", "eqm", "rb", "awe", "pp"};

struct VerifyProgram
{
    Circuit circuit;
    std::string strategy;
    std::string device;
};

/**
 * The fixed program pool behind verify_small, drawn once from
 * kQualitySeed. Simulation cost is exponential in the units a compiled
 * circuit touches, and fq touches many more than the qubit strategies,
 * so fq gets programs of at most 5 qubits: a 6-qubit fq check takes
 * about 16 ms, ten times a 5-qubit one, and 6-qubit checks made 60% of
 * the workload's time; at 7-8 qubits they take 40 ms to seconds.
 * 480 programs, so that no single program holds the 1% of draws that
 * decides p99_ms (with 96, p99 flipped between 4.5 and 9 ms by seed).
 */
const std::vector<VerifyProgram> &
verifyPool()
{
    static const std::vector<VerifyProgram> pool = [] {
        std::vector<VerifyProgram> out;
        Rng rng(kQualitySeed);
        for (std::size_t i = 0; i < 480; ++i) {
            const std::string &s = kVerifyStrategies[i % 6];
            const int hi = s == "fq" ? 5 : 8;
            Circuit c = [&] {
                switch (rng.nextUint(4)) {
                case 0:
                    return benchmarkFamily("bv").make(rng.nextInt(4, hi));
                case 1: // the adder needs 6 qubits; fq gets a cnu
                    if (hi >= 6)
                        return benchmarkFamily("cuccaro").make(
                            rng.nextInt(6, hi));
                    return benchmarkFamily("cnu").make(rng.nextInt(5, hi));
                case 2:
                    return benchmarkFamily("cnu").make(rng.nextInt(5, hi));
                default:
                    return randomQaoa(rng.nextInt(5, hi), rng);
                }
            }();
            const char *device = rng.nextBool() ? "heavyhex23" : "falcon27";
            out.push_back({std::move(c), s, device});
        }
        return out;
    }();
    return pool;
}

Job
verifyJob(const VerifyProgram &p, const Circuit &c)
{
    return makeJob(c, p.strategy, p.device, "", 0, false);
}

Workload
verifySmall(std::uint64_t seed, double seconds)
{
    Workload w;
    w.http = false;
    for (const VerifyProgram &p : verifyPool())
        w.quality.push_back(verifyJob(p, p.circuit));
    // Warm-up: the first fifth of the pool, every strategy and device.
    w.warm.assign(w.quality.begin(), w.quality.begin() + 96);
    // The seed draws the job order and re-draws every QAOA angle;
    // neither changes what a compile or a check costs.
    Rng rng(seed);
    const std::size_t n = poolSize(5000.0, seconds);
    for (std::size_t i = 0; i < n; ++i) {
        const VerifyProgram &p =
            verifyPool()[rng.nextUint(verifyPool().size())];
        w.jobs.push_back(verifyJob(p, rerollAngles(p.circuit, rng)));
        w.seq.push_back(static_cast<std::uint32_t>(i));
    }
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "repeat_zipf", "unique_compile", "sweep_store", "verify_small"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, double seconds,
             const std::string &outDir)
{
    Workload w;
    if (name == "repeat_zipf")
        w = repeatZipf(seed, seconds);
    else if (name == "unique_compile")
        w = uniqueCompile(seed, seconds);
    else if (name == "sweep_store")
        w = sweepStore(seed, seconds, outDir);
    else if (name == "verify_small")
        w = verifySmall(seed, seconds);
    else
        QFATAL("unknown workload '", name, "'");
    w.name = name;
    w.server.workers = kWorkers;
    w.server.maxQueue = 64;
    return w;
}

// ------------------------------------------------------- direct access

Circuit
programOf(const Job &j)
{
    // The server names every POSTed program "request"; the name is part
    // of the compiled artifact, so direct compiles must match it.
    return parseQasm(j.bodyAt ? j.qasm() : j.raw, "request");
}

namespace {

/** Mirrors QompressServer's topology=/units= handling. */
Topology
explicitTopology(const Job &j)
{
    if (j.topology == "grid")
        return Topology::grid(j.units);
    if (j.topology == "ring")
        return Topology::ring(std::max(3, j.units));
    if (j.topology == "line")
        return Topology::line(std::max(2, j.units));
    QFATAL("perfbench: unsupported topology '", j.topology, "'");
}

} // namespace

Topology
topologyOf(const Job &j, const DeviceRegistry &reg,
           std::shared_ptr<const DeviceCalibration> &cal)
{
    cal.reset();
    if (j.device.empty())
        return explicitTopology(j);
    Device d = reg.get(j.device);
    cal = d.calibration;
    return std::move(d.topology);
}

CompileRequest
requestOf(const Job &j)
{
    if (!j.device.empty())
        return CompileRequest::forDevice(programOf(j), j.device, j.strategy);
    return CompileRequest::forCircuit(programOf(j), explicitTopology(j),
                                      j.strategy);
}

CompileResult
directCompile(const Job &j, const Circuit &c, const DeviceRegistry &reg)
{
    std::shared_ptr<const DeviceCalibration> cal;
    const Topology topo = topologyOf(j, reg, cal);
    CompilerConfig cfg;
    cfg.calibration = cal;
    return makeStrategy(j.strategy)->compile(c, topo, GateLibrary{}, cfg);
}

CompileResult
directCompile(const Job &j, const DeviceRegistry &reg)
{
    return directCompile(j, programOf(j), reg);
}

} // namespace perfbench
