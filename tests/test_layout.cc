/**
 * @file
 * Tests for the Layout bidirectional qubit/slot map, including
 * property tests of the invariants the distance-field cache relies
 * on: occupancy bijectivity and a per-unit signature array that always
 * equals the occupancy it summarizes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "compiler/layout.hh"

namespace qompress {
namespace {

TEST(Layout, PlaceAndLookup)
{
    Layout l(3, 4);
    EXPECT_EQ(l.numSlots(), 8);
    l.place(0, makeSlot(1, 0));
    EXPECT_EQ(l.slotOf(0), makeSlot(1, 0));
    EXPECT_EQ(l.qubitAt(makeSlot(1, 0)), 0);
    EXPECT_TRUE(l.isMapped(0));
    EXPECT_FALSE(l.isMapped(1));
    EXPECT_EQ(l.numMapped(), 1);
}

TEST(Layout, DoublePlacePanics)
{
    Layout l(2, 2);
    l.place(0, 0);
    EXPECT_THROW(l.place(0, 1), PanicError); // qubit again
    EXPECT_THROW(l.place(1, 0), PanicError); // slot occupied
}

TEST(Layout, RemoveFreesBoth)
{
    Layout l(2, 2);
    l.place(0, 2);
    l.remove(0);
    EXPECT_FALSE(l.isMapped(0));
    EXPECT_FALSE(l.occupied(2));
    EXPECT_THROW(l.remove(0), PanicError);
}

TEST(Layout, SwapSlotsOccupiedPair)
{
    Layout l(2, 2);
    l.place(0, makeSlot(0, 0));
    l.place(1, makeSlot(1, 0));
    l.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    EXPECT_EQ(l.qubitAt(makeSlot(0, 0)), 1);
    EXPECT_EQ(l.qubitAt(makeSlot(1, 0)), 0);
    EXPECT_EQ(l.slotOf(0), makeSlot(1, 0));
}

TEST(Layout, SwapSlotsWithEmpty)
{
    Layout l(1, 2);
    l.place(0, makeSlot(0, 0));
    l.swapSlots(makeSlot(0, 0), makeSlot(1, 0));
    EXPECT_FALSE(l.occupied(makeSlot(0, 0)));
    EXPECT_EQ(l.slotOf(0), makeSlot(1, 0));
}

TEST(Layout, SignaturesTrackOccupancy)
{
    Layout l(4, 3);
    ASSERT_EQ(l.signatures().size(), 3u);
    for (UnitId u = 0; u < 3; ++u)
        EXPECT_EQ(l.unitSignature(u), 0);

    l.place(0, makeSlot(1, 0));
    EXPECT_EQ(l.signatures(), (std::vector<std::uint8_t>{0, 1, 0}));

    l.place(1, makeSlot(1, 1));
    EXPECT_EQ(l.unitSignature(1), 3);

    // Occupied <-> occupied exchange: no signature moves.
    l.place(2, makeSlot(2, 0));
    const std::vector<std::uint8_t> before = l.signatures();
    l.swapSlots(makeSlot(1, 0), makeSlot(2, 0));
    EXPECT_EQ(l.signatures(), before);

    // Occupied <-> empty moves occupancy on BOTH endpoint units.
    l.swapSlots(makeSlot(2, 0), makeSlot(0, 1));
    EXPECT_EQ(l.signatures(), (std::vector<std::uint8_t>{2, 3, 0}));

    // Within one unit: the count stays, the occupied position moves.
    l.swapSlots(makeSlot(0, 1), makeSlot(0, 0));
    EXPECT_EQ(l.signatures(), (std::vector<std::uint8_t>{1, 3, 0}));

    l.remove(1);
    EXPECT_EQ(l.signatures(), (std::vector<std::uint8_t>{1, 1, 0}));
}

TEST(Layout, CopiesAreIndependentValues)
{
    Layout a(2, 2);
    a.place(0, makeSlot(1, 0));
    Layout b = a;
    Layout c;
    c = a;
    EXPECT_EQ(b.signatures(), a.signatures());
    EXPECT_EQ(c.signatures(), a.signatures());
    EXPECT_EQ(c.slotOf(0), makeSlot(1, 0));

    // Diverging copies leave the original untouched.
    b.place(1, makeSlot(1, 1));
    c.remove(0);
    EXPECT_EQ(a.signatures(), (std::vector<std::uint8_t>{0, 1}));
    EXPECT_EQ(b.signatures(), (std::vector<std::uint8_t>{0, 3}));
    EXPECT_EQ(c.signatures(), (std::vector<std::uint8_t>{0, 0}));
    EXPECT_EQ(a.slotOf(0), makeSlot(1, 0));
    EXPECT_FALSE(a.isMapped(1));
}

/**
 * Property test: random mutation sequences preserve the invariants
 * the cache depends on. Mirrors the Layout against a simple shadow
 * model and checks after every step.
 */
TEST(LayoutProperties, InvariantsUnderRandomMutationSequences)
{
    Rng rng(20260725);
    const int kQubits = 10;
    const int kUnits = 8;
    const int kSteps = 2000;

    Layout l(kQubits, kUnits);
    std::vector<SlotId> shadow(kQubits, kInvalid); // qubit -> slot

    auto check = [&]() {
        // Occupancy bijectivity against the shadow model.
        int mapped = 0;
        for (QubitId q = 0; q < kQubits; ++q) {
            ASSERT_EQ(l.slotOf(q), shadow[q]) << "qubit " << q;
            if (shadow[q] != kInvalid) {
                ++mapped;
                ASSERT_EQ(l.qubitAt(shadow[q]), q);
            }
        }
        ASSERT_EQ(l.numMapped(), mapped);
        for (SlotId s = 0; s < l.numSlots(); ++s) {
            const QubitId q = l.qubitAt(s);
            if (q != kInvalid) {
                ASSERT_EQ(shadow[q], s) << "slot " << s;
            }
        }
        // The signature array equals the shadow's occupancy, and the
        // per-unit accessors agree with it.
        std::vector<std::uint8_t> want(kUnits, 0);
        for (QubitId q = 0; q < kQubits; ++q) {
            if (shadow[q] != kInvalid)
                want[slotUnit(shadow[q])] |= 1u << slotPos(shadow[q]);
        }
        ASSERT_EQ(l.signatures(), want);
        for (UnitId u = 0; u < kUnits; ++u) {
            const std::uint8_t sig = l.unitSignature(u);
            ASSERT_EQ(sig, want[u]) << "unit " << u;
            ASSERT_EQ((sig & 1) + ((sig >> 1) & 1), l.unitOccupancy(u));
            ASSERT_EQ(sig == 3, l.unitEncoded(u));
        }
    };

    check();
    for (int step = 0; step < kSteps; ++step) {
        const int op = rng.nextInt(0, 2);
        if (op == 0) { // place a random unmapped qubit on a free slot
            const QubitId q = rng.nextInt(0, kQubits - 1);
            const SlotId s = rng.nextInt(0, l.numSlots() - 1);
            if (shadow[q] == kInvalid && l.qubitAt(s) == kInvalid) {
                l.place(q, s);
                shadow[q] = s;
            }
        } else if (op == 1) { // remove a random mapped qubit
            const QubitId q = rng.nextInt(0, kQubits - 1);
            if (shadow[q] != kInvalid) {
                l.remove(q);
                shadow[q] = kInvalid;
            }
        } else { // swap two random slots (any occupancy combination)
            const SlotId a = rng.nextInt(0, l.numSlots() - 1);
            const SlotId b = rng.nextInt(0, l.numSlots() - 1);
            const QubitId qa = l.qubitAt(a);
            const QubitId qb = l.qubitAt(b);
            l.swapSlots(a, b);
            if (qa != kInvalid)
                shadow[qa] = b;
            if (qb != kInvalid)
                shadow[qb] = a;
        }
        check();
    }
}

TEST(Layout, EncodedStateTracking)
{
    Layout l(4, 3);
    l.place(0, makeSlot(0, 0));
    EXPECT_FALSE(l.unitEncoded(0));
    EXPECT_EQ(l.unitOccupancy(0), 1);
    l.place(1, makeSlot(0, 1));
    EXPECT_TRUE(l.unitEncoded(0));
    EXPECT_EQ(l.unitOccupancy(0), 2);
    l.place(2, makeSlot(2, 0));
    EXPECT_EQ(l.numEncodedUnits(), 1);
}

} // namespace
} // namespace qompress
