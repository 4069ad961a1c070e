/**
 * @file
 * The logical-qubit-to-slot assignment tracked through mapping and
 * routing.
 */

#ifndef QOMPRESS_COMPILER_LAYOUT_HH
#define QOMPRESS_COMPILER_LAYOUT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace qompress {

/**
 * Bidirectional map between logical qubits and expanded-graph slots.
 *
 * A unit is *encoded* (ququart) iff both of its slots are occupied.
 * Routing only ever swaps occupants, so occupancy -- and therefore the
 * encoded state of every unit -- is invariant during routing; ENC/DEC
 * (used by the FQ baseline) are the only operations that change it.
 *
 * A Layout is a plain value: copies and moves are memberwise, and a
 * copy is independent of its original. Edge costs depend on a layout
 * only through its per-unit occupancy signatures(), so a distance
 * field cached against one Layout is valid for any other with the
 * same signature bytes (see DistanceFieldCache).
 */
class Layout
{
  public:
    Layout() = default;

    /** Empty layout over @p num_qubits logical and @p num_units units. */
    Layout(int num_qubits, int num_units);

    int numQubits() const { return static_cast<int>(qubitToSlot_.size()); }
    int numUnits() const { return static_cast<int>(unitSig_.size()); }
    int numSlots() const { return static_cast<int>(slotToQubit_.size()); }

    /** Slot of logical qubit @p q; kInvalid if unmapped. */
    SlotId slotOf(QubitId q) const;

    /** Logical qubit at @p slot; kInvalid if empty. */
    QubitId qubitAt(SlotId slot) const;

    bool isMapped(QubitId q) const { return slotOf(q) != kInvalid; }
    bool occupied(SlotId slot) const { return qubitAt(slot) != kInvalid; }

    /** Number of logical qubits currently placed. */
    int numMapped() const;

    /** Place @p q at @p slot. @pre q unmapped and slot empty. */
    void place(QubitId q, SlotId slot);

    /** Remove @p q from the layout. @pre mapped. */
    void remove(QubitId q);

    /** Exchange the occupants of two slots (either may be empty). */
    void swapSlots(SlotId a, SlotId b);

    /** True iff both slots of @p u are occupied. */
    bool unitEncoded(UnitId u) const { return unitSignature(u) == 3; }

    /** Number of logical qubits on unit @p u (0, 1 or 2). */
    int unitOccupancy(UnitId u) const;

    /** Number of encoded (two-qubit) units. */
    int numEncodedUnits() const;

    /**
     * Occupancy signature of unit @p u: bit 0 = position-0 slot
     * occupied, bit 1 = position-1 slot occupied (so 3 == encoded).
     * Every mapping/routing edge cost is a pure function of these
     * signatures.
     */
    std::uint8_t unitSignature(UnitId u) const;

    /**
     * Every unit's unitSignature(), indexed by unit, kept current by
     * place/remove/swapSlots. The cost model's distance fields read
     * it, and DistanceFieldCache compares it against the array a
     * field was computed at.
     */
    const std::vector<std::uint8_t> &signatures() const
    {
        return unitSig_;
    }

  private:
    /** Record that @p slot changed between empty and occupied. */
    void flipOccupancy(SlotId slot);

    std::vector<SlotId> qubitToSlot_;
    std::vector<QubitId> slotToQubit_;
    std::vector<std::uint8_t> unitSig_;
};

} // namespace qompress

#endif // QOMPRESS_COMPILER_LAYOUT_HH
