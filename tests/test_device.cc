/**
 * @file
 * Device-subsystem tests: the qcal calibration codec (round-trip and
 * the malformed-input suite -- always FatalError, never a panic), the
 * topology zoo generators (heavy-hex family, falcon27, hardened
 * fromText/fromFile), the DeviceRegistry, calibration-driven
 * pricing, and the service-level invalidation contract.
 *
 * The load-bearing suites are the two differentials:
 *  - uncalibrated == today: a null calibration and a NEUTRAL uniform
 *    calibration (library-default T1s, zero readout, no edges) both
 *    compile bit-identically to the pre-device pipeline, for every
 *    standard strategy on ring/grid/heavyHex65;
 *  - a calibration update invalidates exactly the artifacts priced
 *    against it: the stale device misses, unrelated warm entries keep
 *    hitting, and the request-partition invariant holds throughout.
 *
 * Runs under the TSan CI job (labels: threads;service).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <set>

#include "arch/device.hh"
#include "arch/gate_library.hh"
#include "arch/topology.hh"
#include "circuits/bv.hh"
#include "circuits/qaoa.hh"
#include "common/error.hh"
#include "graph/algorithms.hh"
#include "service/compiler_service.hh"
#include "strategies/strategy.hh"

namespace qompress {
namespace {

// ------------------------------------------------------------------
// Helpers (self-contained copies of the test_service comparators)
// ------------------------------------------------------------------

bool
samePhysGates(const CompiledCircuit &a, const CompiledCircuit &b)
{
    if (a.numGates() != b.numGates())
        return false;
    for (int i = 0; i < a.numGates(); ++i) {
        const PhysGate &x = a.gates()[i];
        const PhysGate &y = b.gates()[i];
        if (x.cls != y.cls || x.slots != y.slots ||
            x.logical != y.logical || x.logical2 != y.logical2 ||
            x.param != y.param || x.param2 != y.param2 ||
            x.isRouting != y.isRouting || x.sourceGate != y.sourceGate ||
            x.sourceGate2 != y.sourceGate2 ||
            x.start != y.start || x.duration != y.duration ||
            x.fidelity != y.fidelity)
            return false;
    }
    return true;
}

::testing::AssertionResult
sameResult(const CompileResult &a, const CompileResult &b)
{
    if (!samePhysGates(a.compiled, b.compiled))
        return ::testing::AssertionFailure() << "physical gates differ";
    if (a.compressions != b.compressions)
        return ::testing::AssertionFailure() << "compressions differ";
    if (a.metrics.gateEps != b.metrics.gateEps ||
        a.metrics.coherenceEps != b.metrics.coherenceEps ||
        a.metrics.readoutEps != b.metrics.readoutEps ||
        a.metrics.totalEps != b.metrics.totalEps ||
        a.metrics.durationNs != b.metrics.durationNs ||
        a.metrics.numGates != b.metrics.numGates ||
        a.metrics.classHistogram != b.metrics.classHistogram ||
        a.metrics.qubitTimeNs != b.metrics.qubitTimeNs ||
        a.metrics.ququartTimeNs != b.metrics.ququartTimeNs)
        return ::testing::AssertionFailure() << "metrics differ";
    return ::testing::AssertionSuccess();
}

/** A small syntactically complete qcal record for a 3-unit device. */
std::string
validQcal()
{
    return "qcal 1\n"
           "device line3   # which backend\n"
           "version 4\n"
           "units 3\n"
           "unit 0 t1q 163500 t1qq 54500 ro 0.01\n"
           "unit 1 t1q 150000 t1qq 50000 ro 0.02\n"
           "unit 2 t1q 170000 t1qq 60000 ro 0.0\n"
           "edge 0 1 fid 0.98 dur 1.1\n";
}

// ------------------------------------------------------------------
// qcal codec
// ------------------------------------------------------------------

TEST(Qcal, ParsesCompleteRecord)
{
    const DeviceCalibration cal =
        DeviceCalibration::parse(validQcal(), "test");
    EXPECT_EQ(cal.device, "line3");
    EXPECT_EQ(cal.version, 4);
    EXPECT_EQ(cal.numUnits(), 3);
    EXPECT_DOUBLE_EQ(cal.t1QubitNs[1], 150000.0);
    EXPECT_DOUBLE_EQ(cal.t1QuquartNs[2], 60000.0);
    EXPECT_DOUBLE_EQ(cal.readoutError[0], 0.01);
    ASSERT_NE(cal.edge(0, 1), nullptr);
    EXPECT_DOUBLE_EQ(cal.edge(0, 1)->fidelityScale, 0.98);
    EXPECT_DOUBLE_EQ(cal.edge(0, 1)->durationScale, 1.1);
    // Undirected: the reversed lookup sees the same record.
    EXPECT_EQ(cal.edge(1, 0), cal.edge(0, 1));
    EXPECT_EQ(cal.edge(1, 2), nullptr);
}

TEST(Qcal, RoundTripsExactly)
{
    const DeviceCalibration cal =
        DeviceCalibration::parse(validQcal(), "test");
    const DeviceCalibration again =
        DeviceCalibration::parse(cal.toText(), "round-trip");
    EXPECT_TRUE(cal == again);
    EXPECT_EQ(cal.fingerprint(), again.fingerprint());
}

TEST(Qcal, FingerprintSeesEveryPricedField)
{
    const DeviceCalibration base =
        DeviceCalibration::parse(validQcal(), "test");
    auto fp = [](DeviceCalibration c) { return c.fingerprint(); };

    DeviceCalibration t1 = base;
    t1.t1QubitNs[0] *= 2.0;
    EXPECT_NE(fp(t1), base.fingerprint());

    DeviceCalibration ro = base;
    ro.readoutError[2] = 0.5;
    EXPECT_NE(fp(ro), base.fingerprint());

    DeviceCalibration ver = base;
    ver.version = 5;
    EXPECT_NE(fp(ver), base.fingerprint());

    DeviceCalibration edge = base;
    edge.setEdge(1, 2, 0.9, 1.0);
    EXPECT_NE(fp(edge), base.fingerprint());
}

TEST(Qcal, MalformedInputIsAlwaysFatalError)
{
    auto reject = [](const std::string &text) {
        EXPECT_THROW(DeviceCalibration::parse(text, "test"), FatalError)
            << "accepted: " << text;
    };
    // Header problems.
    reject("");
    reject("qcal 2\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n");
    reject("device d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n");
    // Missing / duplicate directives.
    reject("qcal 1\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n"); // no device
    reject("qcal 1\ndevice d\ndevice e\nunits 1\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunit 0 t1q 1 t1qq 1 ro 0\n"); // no units
    // Truncation: unit 1 never calibrated.
    reject("qcal 1\ndevice d\nunits 2\nunit 0 t1q 1 t1qq 1 ro 0\n");
    // Unknown unit ids and duplicates.
    reject("qcal 1\ndevice d\nunits 1\nunit 1 t1q 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 0\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
    // NaN / inf / negative / zero T1, readout out of range.
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q nan t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q inf t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q -5 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 0 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq nan ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro 1\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1 ro -0.1\n");
    // Edge problems: unknown units, self-loop, duplicate, bad scales.
    const std::string two = "qcal 1\ndevice d\nunits 2\n"
                            "unit 0 t1q 1 t1qq 1 ro 0\n"
                            "unit 1 t1q 1 t1qq 1 ro 0\n";
    reject(two + "edge 0 2 fid 0.9 dur 1\n");
    reject(two + "edge 0 0 fid 0.9 dur 1\n");
    reject(two + "edge 0 1 fid 0.9 dur 1\nedge 1 0 fid 0.9 dur 1\n");
    reject(two + "edge 0 1 fid 0 dur 1\n");
    reject(two + "edge 0 1 fid 1.5 dur 1\n");
    reject(two + "edge 0 1 fid 0.9 dur 0\n");
    reject(two + "edge 0 1 fid 0.9 dur 1001\n");
    reject(two + "edge 0 1 fid nan dur 1\n");
    // Structure: wrong token counts, unknown directives, bad ints.
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1q 1 t1qq 1\n");
    reject("qcal 1\ndevice d\nunits 1\nunit 0 t1x 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits 1\nbogus 3\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
    reject("qcal 1\ndevice d\nunits -1\n");
    reject("qcal 1\ndevice d\nunits 99999999\n");
    reject("qcal 1\ndevice d\nversion 0\nunits 1\n"
           "unit 0 t1q 1 t1qq 1 ro 0\n");
}

TEST(Qcal, UniformBuildsNeutralRecord)
{
    const DeviceCalibration cal = DeviceCalibration::uniform(
        "dev", 4, GateLibrary::kT1QubitNs, GateLibrary::kT1QuquartNs);
    EXPECT_EQ(cal.numUnits(), 4);
    EXPECT_TRUE(cal.edges.empty());
    for (int u = 0; u < 4; ++u) {
        EXPECT_DOUBLE_EQ(cal.t1QubitNs[u], GateLibrary::kT1QubitNs);
        EXPECT_DOUBLE_EQ(cal.readoutError[u], 0.0);
    }
}

TEST(Qcal, FromFileMissingIsFatalError)
{
    EXPECT_THROW(DeviceCalibration::fromFile("/nonexistent/x.qcal"),
                 FatalError);
}

// ------------------------------------------------------------------
// Topology zoo generators
// ------------------------------------------------------------------

TEST(TopologyZoo, HeavyHexFamilyReproducesHeavyHex65)
{
    // The IBM 65-qubit coupling map, written out independently of the
    // generator: qubit rows (inclusive ranges) chained first, then the
    // bridge qubits {bridge, upper-row qubit, lower-row qubit}.
    const std::vector<std::pair<int, int>> rows = {
        {0, 9}, {13, 23}, {27, 37}, {41, 51}, {55, 64},
    };
    const std::vector<std::array<int, 3>> bridges = {
        {10, 0, 13},  {11, 4, 17},  {12, 8, 21},
        {24, 15, 29}, {25, 19, 33}, {26, 23, 37},
        {38, 27, 41}, {39, 31, 45}, {40, 35, 49},
        {52, 43, 56}, {53, 47, 60}, {54, 51, 64},
    };
    Graph ibm(65);
    for (const auto &[lo, hi] : rows) {
        for (int q = lo; q < hi; ++q)
            ibm.addEdge(q, q + 1);
    }
    for (const auto &[b, up, down] : bridges) {
        ibm.addEdge(b, up);
        ibm.addEdge(b, down);
    }

    // Same graph, not merely isomorphic: identical edges inserted in
    // the same order (adjacency order feeds Dijkstra tie-breaks, so
    // this is what bit-identity rests on).
    for (const Topology &t :
         {Topology::heavyHex(5, 11), Topology::heavyHex65()}) {
        EXPECT_EQ(t.name(), "heavyhex_65");
        ASSERT_EQ(t.numUnits(), 65);
        EXPECT_EQ(t.numEdges(), 72);
        for (int u = 0; u < 65; ++u) {
            const auto &got = t.graph().neighbors(u);
            const auto &want = ibm.neighbors(u);
            ASSERT_EQ(got.size(), want.size()) << "unit " << u;
            for (std::size_t k = 0; k < want.size(); ++k)
                EXPECT_EQ(got[k].to, want[k].to) << "unit " << u;
        }
    }
}

TEST(TopologyZoo, HeavyHexFamilySizes)
{
    EXPECT_EQ(Topology::heavyHex(3, 7).numUnits(), 23);
    EXPECT_EQ(Topology::heavyHex(7, 15).numUnits(), 127); // IBM Eagle
    // Every family member is connected.
    for (const auto &t :
         {Topology::heavyHex(3, 7), Topology::heavyHex(7, 15)}) {
        for (int c : connectedComponents(t.graph()))
            EXPECT_EQ(c, 0);
    }
}

TEST(TopologyZoo, HeavyHexRejectsInvalidParameters)
{
    EXPECT_THROW(Topology::heavyHex(2, 11), FatalError); // even rows
    EXPECT_THROW(Topology::heavyHex(1, 11), FatalError); // too few
    EXPECT_THROW(Topology::heavyHex(5, 10), FatalError); // not 3 mod 4
    EXPECT_THROW(Topology::heavyHex(5, 3), FatalError);  // too short
    EXPECT_THROW(Topology::heavyHex(-3, 11), FatalError);
}

TEST(TopologyZoo, Falcon27Shape)
{
    const Topology t = Topology::falcon27();
    EXPECT_EQ(t.numUnits(), 27);
    EXPECT_EQ(t.numEdges(), 28);
    EXPECT_TRUE(t.adjacent(0, 1));
    EXPECT_TRUE(t.adjacent(25, 26));
    EXPECT_TRUE(t.adjacent(12, 15));
    EXPECT_FALSE(t.adjacent(0, 26));
    for (int c : connectedComponents(t.graph()))
        EXPECT_EQ(c, 0);
}

// ------------------------------------------------------------------
// Hardened fromText / fromFile
// ------------------------------------------------------------------

TEST(TopologyText, ParsesEdgeListWithComments)
{
    const Topology t = Topology::fromText("# a triangle\n"
                                          "0 1\n"
                                          "1 2  # last edge\n"
                                          "2 0\n",
                                          "inline");
    EXPECT_EQ(t.numUnits(), 3);
    EXPECT_EQ(t.numEdges(), 3);
    EXPECT_EQ(t.name(), "inline");
}

TEST(TopologyText, RejectsMalformedInput)
{
    auto reject = [](const std::string &text) {
        EXPECT_THROW(Topology::fromText(text, "t"), FatalError)
            << "accepted: " << text;
    };
    reject("");             // no edges at all
    reject("# only\n\n");   // comments only
    reject("0\n");          // one token
    reject("0 1 2\n");      // trailing token
    reject("0 -1\n");       // not a digit string
    reject("0 1.5\n");      // not an integer
    reject("0 0\n");        // self-loop
    reject("0 1\n1 0\n");   // duplicate (undirected)
    reject("0 9999999\n");  // over the unit cap
    reject("0 abc\n");
}

TEST(TopologyText, ErrorsCarryLineNumbers)
{
    try {
        Topology::fromText("0 1\n1 1\n", "t");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(TopologyText, FromFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "qompress_topo.txt";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("0 1\n1 2\n2 3\n3 0\n", f);
        std::fclose(f);
    }
    const Topology t = Topology::fromFile(path);
    EXPECT_EQ(t.numUnits(), 4);
    EXPECT_EQ(t.numEdges(), 4);
    EXPECT_EQ(t.name(), "qompress_topo.txt"); // basename
    std::remove(path.c_str());
    EXPECT_THROW(Topology::fromFile("/nonexistent/topo.txt"),
                 FatalError);
}

// ------------------------------------------------------------------
// DeviceRegistry
// ------------------------------------------------------------------

TEST(DeviceRegistry, DefaultZoo)
{
    DeviceRegistry reg;
    for (const char *want : {"falcon27", "heavyhex23", "heavyhex65",
                             "heavyhex127", "ring65", "grid64"}) {
        EXPECT_NO_THROW(reg.get(want)) << "zoo is missing " << want;
    }
    EXPECT_GE(reg.info().size(), 5u);
    const Device hh = reg.get("heavyhex65");
    EXPECT_EQ(hh.topology.numUnits(), 65);
    EXPECT_EQ(hh.calibration, nullptr);
    EXPECT_EQ(hh.calVersion, 0u);
    for (const DeviceInfo &d : reg.info()) {
        EXPECT_FALSE(d.calibrated);
        EXPECT_GT(d.units, 0);
    }
}

TEST(DeviceRegistry, UnknownDeviceErrorListsNames)
{
    // get() and setCalibration() word an unknown name alike, listing
    // every registered device in name order.
    DeviceRegistry reg;
    const std::string want =
        "unknown device 'bogus'; registered devices: falcon27, grid64, "
        "heavyhex127, heavyhex23, heavyhex65, ring65";
    const auto expectListed = [&](const auto &call, const char *via) {
        try {
            call();
            ADD_FAILURE() << via << ": expected FatalError";
        } catch (const FatalError &e) {
            // The message ends with the text; a location prefix leads.
            const std::string what = e.what();
            EXPECT_TRUE(what.size() >= want.size() &&
                        what.compare(what.size() - want.size(),
                                     want.size(), want) == 0)
                << via << ": " << what;
        }
    };
    expectListed([&] { reg.get("bogus"); }, "get");
    expectListed(
        [&] {
            reg.setCalibration("bogus", DeviceCalibration::uniform(
                                            "bogus", 3, 1000.0, 500.0));
        },
        "setCalibration");
}

TEST(DeviceRegistry, AddValidatesNames)
{
    DeviceRegistry reg;
    reg.add("custom", Topology::ring(5));
    EXPECT_EQ(reg.get("custom").topology.numUnits(), 5);
    EXPECT_THROW(reg.add("custom", Topology::ring(5)), FatalError);
    EXPECT_THROW(reg.add("", Topology::ring(5)), FatalError);
}

TEST(DeviceRegistry, SetCalibrationValidatesAndVersions)
{
    DeviceRegistry reg;
    reg.add("line3", Topology::line(3));
    DeviceCalibration cal =
        DeviceCalibration::parse(validQcal(), "test");

    EXPECT_THROW(reg.setCalibration("bogus", cal), FatalError);

    // Unit-count mismatch against the topology.
    DeviceCalibration wrongSize = DeviceCalibration::uniform(
        "line3", 4, 1000.0, 500.0);
    EXPECT_THROW(reg.setCalibration("line3", wrongSize), FatalError);

    // Record naming a different device.
    DeviceCalibration wrongName = cal;
    wrongName.device = "other";
    EXPECT_THROW(reg.setCalibration("line3", wrongName), FatalError);

    // An edge that is not a coupling of the topology.
    DeviceCalibration badEdge = cal;
    badEdge.setEdge(0, 2, 0.9, 1.0); // line3 has no (0, 2)
    EXPECT_THROW(reg.setCalibration("line3", badEdge), FatalError);

    // A valid install bumps the version each time.
    EXPECT_EQ(reg.setCalibration("line3", cal), 1u);
    EXPECT_EQ(reg.setCalibration("line3", cal), 2u);
    const Device dev = reg.get("line3");
    ASSERT_NE(dev.calibration, nullptr);
    EXPECT_EQ(dev.calVersion, 2u);
    EXPECT_TRUE(*dev.calibration == cal);
}

// ------------------------------------------------------------------
// Calibration-driven pricing
// ------------------------------------------------------------------

/** The acceptance differential: for every standard strategy on
 *  ring/grid/heavyHex65, a null calibration AND a neutral uniform
 *  calibration both produce results bit-identical to a config without
 *  the field (which is what pre-device builds compiled). */
TEST(CalibrationPricing, UncalibratedIsBitIdenticalToToday)
{
    const Circuit circuit = bernsteinVazirani(8);
    const GateLibrary lib;
    std::vector<Topology> topos;
    topos.push_back(Topology::ring(8));
    topos.push_back(Topology::grid(8));
    topos.push_back(Topology::heavyHex65());

    for (const Topology &topo : topos) {
        for (const std::string &name : strategyNames()) {
            const auto strategy = makeStrategy(name);
            CompilerConfig plain;
            const CompileResult base =
                strategy->compile(circuit, topo, lib, plain);

            // Null calibration: the field exists but is unset.
            CompilerConfig nullCal;
            EXPECT_TRUE(sameResult(
                base, strategy->compile(circuit, topo, lib, nullCal)))
                << name << " on " << topo.name() << " (null)";

            // Neutral uniform calibration: every value equals the
            // library constant, readout zero, no edge scales.
            CompilerConfig neutral;
            neutral.calibration =
                std::make_shared<const DeviceCalibration>(
                    DeviceCalibration::uniform(
                        topo.name(), topo.numUnits(),
                        GateLibrary::kT1QubitNs,
                        GateLibrary::kT1QuquartNs));
            EXPECT_TRUE(sameResult(
                base, strategy->compile(circuit, topo, lib, neutral)))
                << name << " on " << topo.name() << " (neutral)";
        }
    }
}

TEST(CalibrationPricing, PerUnitT1ChangesPricing)
{
    const Circuit circuit = bernsteinVazirani(6);
    const GateLibrary lib;
    const Topology topo = Topology::grid(6);
    const auto strategy = makeStrategy("eqm");

    CompilerConfig plain;
    const CompileResult base =
        strategy->compile(circuit, topo, lib, plain);

    // Crush every unit's T1 100x: coherence must get strictly worse.
    CompilerConfig bad;
    bad.calibration = std::make_shared<const DeviceCalibration>(
        DeviceCalibration::uniform(topo.name(), topo.numUnits(),
                                   GateLibrary::kT1QubitNs / 100.0,
                                   GateLibrary::kT1QuquartNs / 100.0));
    const CompileResult worse =
        strategy->compile(circuit, topo, lib, bad);
    EXPECT_LT(worse.metrics.coherenceEps, base.metrics.coherenceEps);
    EXPECT_LT(worse.metrics.totalEps, base.metrics.totalEps);
}

TEST(CalibrationPricing, ReadoutErrorFoldsIntoTotalEps)
{
    const Circuit circuit = bernsteinVazirani(4);
    const GateLibrary lib;
    const Topology topo = Topology::grid(4);

    CompilerConfig ro;
    ro.calibration = std::make_shared<const DeviceCalibration>(
        DeviceCalibration::uniform(topo.name(), topo.numUnits(),
                                   GateLibrary::kT1QubitNs,
                                   GateLibrary::kT1QuquartNs, 0.05));
    CompilerConfig plain;
    for (const char *name : {"qubit_only", "fq"}) {
        const auto strategy = makeStrategy(name);
        const CompileResult res =
            strategy->compile(circuit, topo, lib, ro);
        // 4 measured qubits at 5% readout error each.
        EXPECT_NEAR(res.metrics.readoutEps, std::pow(0.95, 4), 1e-12)
            << name;
        EXPECT_DOUBLE_EQ(res.metrics.totalEps,
                         res.metrics.gateEps * res.metrics.coherenceEps *
                             res.metrics.readoutEps)
            << name;

        const CompileResult base =
            strategy->compile(circuit, topo, lib, plain);
        EXPECT_DOUBLE_EQ(base.metrics.readoutEps, 1.0) << name;
    }
}

TEST(CalibrationPricing, EdgeScalesReachScheduledGates)
{
    // Two qubits on a 2-unit line: every cross-unit gate runs on the
    // single coupling, so a fidelity scale must show up in gateEps.
    Circuit c(2, "bell");
    c.h(0);
    c.cx(0, 1);
    const GateLibrary lib;
    const Topology topo = Topology::line(2);
    const auto strategy = makeStrategy("qubit_only");

    CompilerConfig plain;
    const CompileResult base =
        strategy->compile(c, topo, lib, plain);

    DeviceCalibration cal = DeviceCalibration::uniform(
        topo.name(), 2, GateLibrary::kT1QubitNs,
        GateLibrary::kT1QuquartNs);
    cal.setEdge(0, 1, 0.5, 1.0);
    CompilerConfig scaled;
    scaled.calibration =
        std::make_shared<const DeviceCalibration>(std::move(cal));
    const CompileResult res = strategy->compile(c, topo, lib, scaled);
    EXPECT_LT(res.metrics.gateEps, base.metrics.gateEps);
    // The scale applies per cross-unit gate; with exactly one CX the
    // ratio is exactly the fidelity scale.
    EXPECT_NEAR(res.metrics.gateEps / base.metrics.gateEps, 0.5, 1e-12);
}

TEST(CalibrationPricing, MismatchedUnitCountIsFatalError)
{
    const Circuit circuit = bernsteinVazirani(4);
    const Topology topo = Topology::grid(4);
    CompilerConfig cfg;
    cfg.calibration = std::make_shared<const DeviceCalibration>(
        DeviceCalibration::uniform("x", topo.numUnits() + 3, 1000.0,
                                   500.0));
    EXPECT_THROW(
        makeStrategy("eqm")->compile(circuit, topo, GateLibrary{}, cfg),
        FatalError);
}

// ------------------------------------------------------------------
// Service integration: by-name requests and cache invalidation
// ------------------------------------------------------------------

/** Resolution by name adds no semantic drift on any zoo device: a
 *  by-name compile equals a direct compile on the registry topology,
 *  and an explicit-topology request for the same device hits its
 *  memo entry. */
TEST(ServiceDevices, ByNameMatchesExplicitTopology)
{
    const Circuit circuit = bernsteinVazirani(16);
    const GateLibrary lib;
    CompilerConfig cfg;
    cfg.lookaheadWeight = 0.5;
    for (const char *dev : {"falcon27", "heavyhex23", "heavyhex65",
                            "heavyhex127", "ring65", "grid64"}) {
        for (const char *strat : {"eqm", "rb", "awe"}) {
            CompilerService svc;
            const Topology topo = svc.devices().get(dev).topology;
            const CompileArtifact byName =
                svc.compileSync(CompileRequest::forDevice(circuit, dev,
                                                          strat, cfg, lib));
            EXPECT_TRUE(sameResult(
                *byName,
                makeStrategy(strat)->compile(circuit, topo, lib, cfg)))
                << strat << " on " << dev;
            const CompileArtifact explicitTopo = svc.compileSync(
                CompileRequest::forCircuit(circuit, topo, strat, cfg, lib));
            EXPECT_TRUE(sameResult(*byName, *explicitTopo))
                << strat << " on " << dev;
            // Same resolved content -> same artifact key: the second
            // request must have been a memo hit on the first's entry.
            const ServiceStats st = svc.stats();
            EXPECT_EQ(st.requests, 2u) << strat << " on " << dev;
            EXPECT_EQ(st.misses, 1u) << strat << " on " << dev;
            EXPECT_EQ(st.hits, 1u) << strat << " on " << dev;
        }
    }
}

TEST(ServiceDevices, UnknownDeviceIsFatalError)
{
    CompilerService svc;
    EXPECT_THROW(svc.compileSync(CompileRequest::forDevice(
                     bernsteinVazirani(4), "bogus", "eqm")),
                 FatalError);
}

/** The invalidation acceptance: installing a calibration re-keys
 *  exactly the calibrated device. Stale requests miss, unrelated warm
 *  entries keep hitting, and the partition invariant
 *  requests == hits + templateHits + diskHits + misses + coalesced
 *  holds at every step. */
TEST(ServiceDevices, CalibrationUpdateInvalidatesExactlyItsDevice)
{
    CompilerService svc;
    const Circuit circuit = bernsteinVazirani(8);
    auto partitionHolds = [&svc] {
        const ServiceStats s = svc.stats();
        return s.requests == s.hits + s.templateHits + s.diskHits +
                                 s.misses + s.coalesced;
    };

    // Warm both devices.
    const CompileArtifact falconCold = svc.compileSync(
        CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    svc.compileSync(CompileRequest::forDevice(circuit, "ring65", "eqm"));
    ServiceStats st = svc.stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_TRUE(partitionHolds());

    // Warm repeat: both hit.
    svc.compileSync(CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    svc.compileSync(CompileRequest::forDevice(circuit, "ring65", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.misses, 2u);

    // Install a real calibration on falcon27 only.
    svc.devices().setCalibration(
        "falcon27", DeviceCalibration::uniform("falcon27", 27,
                                               100000.0, 30000.0, 0.01));

    // falcon27 requests now miss (new key) and reprice...
    const CompileArtifact falconFresh = svc.compileSync(
        CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.misses, 3u);
    EXPECT_NE(falconFresh->metrics.totalEps,
              falconCold->metrics.totalEps);
    EXPECT_TRUE(partitionHolds());

    // ...then hit on their own fresh entry...
    svc.compileSync(CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 3u);

    // ...while the unrelated device's warm entry survives untouched.
    svc.compileSync(CompileRequest::forDevice(circuit, "ring65", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.hits, 4u);
    EXPECT_EQ(st.misses, 3u);
    EXPECT_TRUE(partitionHolds());

    // A second install bumps the key again: stale again, exactly once.
    svc.devices().setCalibration(
        "falcon27", DeviceCalibration::uniform("falcon27", 27,
                                               90000.0, 25000.0, 0.02));
    svc.compileSync(CompileRequest::forDevice(circuit, "falcon27", "eqm"));
    st = svc.stats();
    EXPECT_EQ(st.misses, 4u);
    EXPECT_TRUE(partitionHolds());
}

TEST(ServiceDevices, TemplateTierRespectsCalibrationKeys)
{
    // Parameterized instances of one structure: the second compile is
    // served by rebind. After a calibration lands, the old template is
    // unreachable (new cfg fingerprint) and a fresh full compile runs.
    CompilerService svc;
    QaoaOptions o1;
    o1.gamma = 0.3;
    QaoaOptions o2;
    o2.gamma = 0.7;
    QaoaOptions o3;
    o3.gamma = 0.9;
    const Topology ringTopo = Topology::ring(8);
    const Graph &problem = ringTopo.graph();

    auto reqFor = [&](const QaoaOptions &o) {
        return CompileRequest::forDevice(
            qaoaFromGraph(problem, o), "ring65", "eqm");
    };

    svc.compileSync(reqFor(o1));
    svc.compileSync(reqFor(o2));
    ServiceStats st = svc.stats();
    EXPECT_EQ(st.templateHits, 1u);
    EXPECT_EQ(st.misses, 1u);

    svc.devices().setCalibration(
        "ring65", DeviceCalibration::uniform("ring65", 65, 120000.0,
                                             40000.0));
    svc.compileSync(reqFor(o3));
    st = svc.stats();
    // The calibrated request could not use the stale template.
    EXPECT_EQ(st.templateHits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.requests,
              st.hits + st.templateHits + st.diskHits + st.misses +
                  st.coalesced);
}

} // namespace
} // namespace qompress
