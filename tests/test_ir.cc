/**
 * @file
 * Unit tests for the circuit IR: gates, circuits, passes, interaction
 * analysis.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "circuits/registry.hh"
#include "common/error.hh"
#include "ir/circuit.hh"
#include "ir/fingerprint.hh"
#include "ir/interaction.hh"
#include "ir/passes.hh"
#include "ir/qasm.hh"

namespace qompress {
namespace {

TEST(Gate, ArityAndNames)
{
    EXPECT_EQ(gateArity(GateType::X), 1);
    EXPECT_EQ(gateArity(GateType::CX), 2);
    EXPECT_EQ(gateArity(GateType::CCX), 3);
    EXPECT_EQ(gateName(GateType::Swap), "swap");
    EXPECT_TRUE(gateHasParam(GateType::RZ));
    EXPECT_FALSE(gateHasParam(GateType::H));
}

TEST(Gate, StrRendering)
{
    Gate g{GateType::CX, {3, 7}};
    EXPECT_EQ(g.str(), "cx q3, q7");
    Gate r{GateType::RZ, {1}, 0.5};
    EXPECT_EQ(r.str(), "rz(0.5) q1");
}

TEST(Circuit, BuildersAndValidation)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.ccx(0, 1, 2);
    EXPECT_EQ(c.numGates(), 3);
    EXPECT_EQ(c.numTwoQubitGates(), 1);
    EXPECT_THROW(c.cx(0, 0), PanicError);   // duplicate operand
    EXPECT_THROW(c.x(5), PanicError);       // out of range
}

TEST(Circuit, DuplicateOperandFromQasmIsFatalNotPanic)
{
    // Regression: `cx q[0],q[0]` arriving as untrusted QASM used to
    // sail past the parser and trip Circuit::add's QPANIC — the
    // internal-bug error class (a 500 at the server), not the
    // bad-input class. The parser must reject it as a FatalError
    // naming the line, for every multi-qubit gate shape.
    const std::vector<std::string> dup = {
        "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[0];",
        "OPENQASM 2.0;\nqreg q[3];\ncz q[2],q[2];",
        "OPENQASM 2.0;\nqreg q[3];\nswap q[1],q[1];",
        "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[0];",
        "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[1];",
    };
    for (const std::string &src : dup) {
        try {
            parseQasm(src);
            FAIL() << "expected FatalError for: " << src;
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("duplicate qubit operand"),
                      std::string::npos) << msg;
            EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        }
    }
    // Distinct operands still parse.
    const Circuit ok =
        parseQasm("OPENQASM 2.0; qreg q[2]; cx q[0],q[1];");
    EXPECT_EQ(ok.numGates(), 1);
}

TEST(Circuit, AsapLayersAndDepth)
{
    Circuit c(3);
    c.h(0);        // layer 1
    c.h(1);        // layer 1
    c.cx(0, 1);    // layer 2
    c.x(2);        // layer 1
    c.cx(1, 2);    // layer 3
    const auto layers = c.asapLayers();
    const std::vector<int> want{1, 1, 2, 1, 3};
    EXPECT_EQ(layers, want);
    EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, QasmDump)
{
    Circuit c(2);
    c.h(0);
    c.rz(0.25, 1);
    c.cx(0, 1);
    const std::string qasm = c.toQasm();
    EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("rz(0.25) q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
}

TEST(Passes, CcxDecomposesToFifteenNativeGates)
{
    Circuit c(3);
    c.ccx(0, 1, 2);
    const Circuit native = decomposeToNativeGates(c);
    EXPECT_TRUE(isNative(native));
    EXPECT_EQ(native.numGates(), 15);
    EXPECT_EQ(native.numTwoQubitGates(), 6);
}

TEST(Passes, CzLowersToHCxH)
{
    Circuit c(2);
    c.cz(0, 1);
    const Circuit native = decomposeToNativeGates(c);
    ASSERT_EQ(native.numGates(), 3);
    EXPECT_EQ(native.gates()[0].type, GateType::H);
    EXPECT_EQ(native.gates()[1].type, GateType::CX);
    EXPECT_EQ(native.gates()[2].type, GateType::H);
}

TEST(Passes, NativeGatesPassThrough)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.swap(0, 1);
    const Circuit native = decomposeToNativeGates(c);
    EXPECT_EQ(native.numGates(), 3);
    EXPECT_TRUE(isNative(c));
}

TEST(Passes, CancelAdjacentPairs)
{
    Circuit c(2);
    c.h(0);
    c.h(0);        // cancels
    c.cx(0, 1);
    c.cx(0, 1);    // cancels
    c.x(1);
    const Circuit out = cancelAdjacentPairs(c);
    EXPECT_EQ(out.numGates(), 1);
    EXPECT_EQ(out.gates()[0].type, GateType::X);
}

TEST(Passes, CancelDoesNotCrossInterveningGate)
{
    Circuit c(2);
    c.h(0);
    c.x(0);
    c.h(0); // must NOT cancel with the first h
    const Circuit out = cancelAdjacentPairs(c);
    EXPECT_EQ(out.numGates(), 3);
}

TEST(Interaction, WeightsFollowOneOverTimestep)
{
    Circuit c(3);
    c.cx(0, 1); // layer 1: w(0,1) += 1
    c.cx(1, 2); // layer 2: w(1,2) += 1/2
    c.cx(0, 1); // layer 3: w(0,1) += 1/3
    const InteractionModel im(c);
    EXPECT_NEAR(im.weight(0, 1), 1.0 + 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(im.weight(1, 2), 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(im.weight(0, 2), 0.0);
    EXPECT_NEAR(im.totalWeight(1), 1.0 + 1.0 / 3.0 + 0.5, 1e-12);
    EXPECT_EQ(im.pairGateCount(0, 1), 2);
    EXPECT_EQ(im.pairGateCount(0, 2), 0);
}

TEST(Interaction, SimultaneousUseCountsParallelGates)
{
    Circuit c(4);
    c.cx(0, 1); // layer 1
    c.cx(2, 3); // layer 1: (0,2), (0,3), (1,2), (1,3) simultaneous
    const InteractionModel im(c);
    EXPECT_EQ(im.simultaneousUse(0, 2), 1);
    EXPECT_EQ(im.simultaneousUse(1, 3), 1);
    EXPECT_EQ(im.simultaneousUse(0, 1), 0); // same gate
}

TEST(Interaction, SharedNeighbors)
{
    Circuit c(4);
    c.cx(0, 2);
    c.cx(1, 2);
    c.cx(0, 3);
    c.cx(1, 3);
    const InteractionModel im(c);
    EXPECT_EQ(im.sharedNeighbors(0, 1), 2); // both touch 2 and 3
    EXPECT_EQ(im.sharedNeighbors(2, 3), 2);
}

// ------------------------------------------------------------------
// Canonical circuit fingerprint (the service memo cache's identity)
// ------------------------------------------------------------------

namespace {

Circuit
fingerprintFixture()
{
    Circuit c(3, "fp_fixture");
    c.h(0);
    c.cx(0, 1);
    c.rz(0.5, 2); // 0.5 survives toQasm's %.12g exactly
    c.ccx(0, 1, 2);
    return c;
}

} // namespace

TEST(CircuitFingerprint, StableAcrossRebuildsAndReparses)
{
    const Circuit a = fingerprintFixture();
    const Circuit b = fingerprintFixture();
    EXPECT_EQ(circuitFingerprint(a), circuitFingerprint(b));

    // A dump/parse round trip that reproduces the content (same name,
    // parameters exactly representable at toQasm's %.12g) fingerprints
    // identically -- the artifact cache survives serialization.
    const Circuit reparsed = parseQasm(a.toQasm(), a.name());
    EXPECT_EQ(circuitFingerprint(a), circuitFingerprint(reparsed));
}

TEST(CircuitFingerprint, SensitiveToEveryContentChange)
{
    const Circuit base = fingerprintFixture();
    const std::uint64_t fp = circuitFingerprint(base);

    { // gate type
        Circuit c(3, "fp_fixture");
        c.x(0); // was h
        c.cx(0, 1);
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(circuitFingerprint(c), fp);
    }
    { // operand order
        Circuit c(3, "fp_fixture");
        c.h(0);
        c.cx(1, 0); // was cx(0, 1)
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(circuitFingerprint(c), fp);
    }
    { // parameter, down to the last bit
        Circuit c(3, "fp_fixture");
        c.h(0);
        c.cx(0, 1);
        c.rz(0.5 + 1e-15, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(circuitFingerprint(c), fp);
    }
    { // appended gate
        Circuit c = fingerprintFixture();
        c.x(0);
        EXPECT_NE(circuitFingerprint(c), fp);
    }
    { // gate order
        Circuit c(3, "fp_fixture");
        c.cx(0, 1);
        c.h(0); // swapped with the cx
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(circuitFingerprint(c), fp);
    }
    { // width (same gates, one more idle qubit)
        Circuit c(4, "fp_fixture");
        c.h(0);
        c.cx(0, 1);
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(circuitFingerprint(c), fp);
    }
    { // name (the compiled artifact embeds it)
        Circuit c = fingerprintFixture();
        c.setName("renamed");
        EXPECT_NE(circuitFingerprint(c), fp);
    }
    { // the sign of zero is a representational change
        Circuit pos(1, "z");
        pos.rz(0.0, 0);
        Circuit neg(1, "z");
        neg.rz(-0.0, 0);
        EXPECT_NE(circuitFingerprint(pos), circuitFingerprint(neg));
    }
}

TEST(CircuitFingerprint, CanonicalParamSurvivesQasmRoundTrip)
{
    // toQasm prints parameters at %.12g, so an angle with more
    // significant digits fingerprints differently after a dump/parse
    // round trip -- the documented caveat. canonicalQasmParam snaps an
    // angle to its %.12g representative, making round trips stable.
    const double raw = 0.1234567890123456789; // > 12 significant digits
    Circuit lossy(1, "rt");
    lossy.rz(raw, 0);
    const Circuit lossy_rt = parseQasm(lossy.toQasm(), lossy.name());
    EXPECT_NE(circuitFingerprint(lossy), circuitFingerprint(lossy_rt));

    Circuit canon(1, "rt");
    canon.rz(canonicalQasmParam(raw), 0);
    const Circuit canon_rt = parseQasm(canon.toQasm(), canon.name());
    EXPECT_EQ(circuitFingerprint(canon), circuitFingerprint(canon_rt));

    // Snapping is idempotent and exact for representable values.
    EXPECT_EQ(canonicalQasmParam(canonicalQasmParam(raw)),
              canonicalQasmParam(raw));
    EXPECT_EQ(canonicalQasmParam(0.5), 0.5);
}

// ------------------------------------------------------------------
// Structural fingerprint (the template tier's identity)
// ------------------------------------------------------------------

TEST(StructuralFingerprint, InvariantToParameterValuesAndName)
{
    const Circuit base = fingerprintFixture();
    const auto sfp = structuralCircuitFingerprint(base);

    { // any parameter change preserves the structural fp
        Circuit c(3, "fp_fixture");
        c.h(0);
        c.cx(0, 1);
        c.rz(-2.75, 2); // was rz(0.5)
        c.ccx(0, 1, 2);
        EXPECT_EQ(structuralCircuitFingerprint(c).value, sfp.value);
        EXPECT_EQ(structuralCircuitFingerprint(c).paramGates,
                  sfp.paramGates);
    }
    { // ... including the sign of zero
        Circuit pos(1, "z"), neg(1, "z");
        pos.rz(0.0, 0);
        neg.rz(-0.0, 0);
        EXPECT_EQ(structuralCircuitFingerprint(pos).value,
                  structuralCircuitFingerprint(neg).value);
    }
    { // the name is not structure (rebind stamps the instance's name)
        Circuit c = fingerprintFixture();
        c.setName("renamed");
        EXPECT_EQ(structuralCircuitFingerprint(c).value, sfp.value);
    }
    // The exact fingerprint still distinguishes what the structural
    // one identifies (the two tiers key different things).
    Circuit other(3, "fp_fixture");
    other.h(0);
    other.cx(0, 1);
    other.rz(1.25, 2);
    other.ccx(0, 1, 2);
    EXPECT_NE(circuitFingerprint(other), circuitFingerprint(base));
}

TEST(StructuralFingerprint, SensitiveToEveryStructuralChange)
{
    const Circuit base = fingerprintFixture();
    const std::uint64_t fp = structuralCircuitFingerprint(base).value;

    { // gate type
        Circuit c(3, "fp_fixture");
        c.x(0); // was h
        c.cx(0, 1);
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(structuralCircuitFingerprint(c).value, fp);
    }
    { // parameterized gate type (same slot layout, different axis)
        Circuit c(3, "fp_fixture");
        c.h(0);
        c.cx(0, 1);
        c.rx(0.5, 2); // was rz
        c.ccx(0, 1, 2);
        EXPECT_NE(structuralCircuitFingerprint(c).value, fp);
    }
    { // operand order
        Circuit c(3, "fp_fixture");
        c.h(0);
        c.cx(1, 0); // was cx(0, 1)
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(structuralCircuitFingerprint(c).value, fp);
    }
    { // appended gate
        Circuit c = fingerprintFixture();
        c.x(0);
        EXPECT_NE(structuralCircuitFingerprint(c).value, fp);
    }
    { // gate order
        Circuit c(3, "fp_fixture");
        c.cx(0, 1);
        c.h(0); // swapped with the cx
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(structuralCircuitFingerprint(c).value, fp);
    }
    { // width
        Circuit c(4, "fp_fixture");
        c.h(0);
        c.cx(0, 1);
        c.rz(0.5, 2);
        c.ccx(0, 1, 2);
        EXPECT_NE(structuralCircuitFingerprint(c).value, fp);
    }
}

TEST(StructuralFingerprint, ParamGatesListsSlotsInProgramOrder)
{
    Circuit c(3, "slots");
    c.h(0);           // no slot
    c.rz(0.1, 0);     // slot 0 -> gate 1
    c.cx(0, 1);       // no slot
    c.rx(0.2, 1);     // slot 1 -> gate 3
    c.ry(0.3, 2);     // slot 2 -> gate 4
    const auto sfp = structuralCircuitFingerprint(c);
    const std::vector<int> want{1, 3, 4};
    EXPECT_EQ(sfp.paramGates, want);

    // An unparameterized circuit exposes no slots.
    Circuit plain(2, "plain");
    plain.h(0);
    plain.cx(0, 1);
    EXPECT_TRUE(
        structuralCircuitFingerprint(plain).paramGates.empty());
}

TEST(CircuitFingerprint, NoCollisionsAcrossTheRegistry)
{
    // Every registry family at several sizes: all distinct circuits
    // must have distinct fingerprints (a collision here would let the
    // artifact cache serve the wrong compile).
    std::map<std::uint64_t, std::string> seen;
    for (const auto &family : benchmarkFamilies()) {
        std::set<int> family_sizes; // families snap sizes downward
        for (int size : {6, 8, 10, 12, 16}) {
            if (size < family.minQubits)
                continue;
            const Circuit c = family.make(size);
            if (!family_sizes.insert(c.numQubits()).second)
                continue; // snapped duplicate of a smaller request
            const std::uint64_t fp = circuitFingerprint(c);
            const auto label = family.name + "/" +
                               std::to_string(c.numQubits());
            const auto [it, inserted] = seen.emplace(fp, label);
            EXPECT_TRUE(inserted)
                << label << " collides with " << it->second;
        }
    }
    EXPECT_GE(seen.size(), 20u);
}

} // namespace
} // namespace qompress
