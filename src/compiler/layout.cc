#include "compiler/layout.hh"

#include "common/error.hh"

namespace qompress {

Layout::Layout(int num_qubits, int num_units)
{
    QFATAL_IF(num_qubits < 0 || num_units < 0, "negative layout size");
    qubitToSlot_.assign(num_qubits, kInvalid);
    slotToQubit_.assign(2 * static_cast<std::size_t>(num_units), kInvalid);
    unitSig_.assign(num_units, 0);
}

SlotId
Layout::slotOf(QubitId q) const
{
    QPANIC_IF(q < 0 || q >= numQubits(), "slotOf: bad qubit ", q);
    return qubitToSlot_[q];
}

QubitId
Layout::qubitAt(SlotId slot) const
{
    QPANIC_IF(slot < 0 || slot >= numSlots(), "qubitAt: bad slot ", slot);
    return slotToQubit_[slot];
}

int
Layout::numMapped() const
{
    int count = 0;
    for (SlotId s : qubitToSlot_) {
        if (s != kInvalid)
            ++count;
    }
    return count;
}

std::uint8_t
Layout::unitSignature(UnitId u) const
{
    QPANIC_IF(u < 0 || u >= numUnits(), "unitSignature: bad unit ", u);
    return unitSig_[u];
}

void
Layout::flipOccupancy(SlotId slot)
{
    unitSig_[slotUnit(slot)] ^= static_cast<std::uint8_t>(1u << slotPos(slot));
}

void
Layout::place(QubitId q, SlotId slot)
{
    QPANIC_IF(slotOf(q) != kInvalid, "place: qubit ", q, " already mapped");
    QPANIC_IF(qubitAt(slot) != kInvalid, "place: slot ", slot, " occupied");
    qubitToSlot_[q] = slot;
    slotToQubit_[slot] = q;
    flipOccupancy(slot);
}

void
Layout::remove(QubitId q)
{
    const SlotId s = slotOf(q);
    QPANIC_IF(s == kInvalid, "remove: qubit ", q, " not mapped");
    qubitToSlot_[q] = kInvalid;
    slotToQubit_[s] = kInvalid;
    flipOccupancy(s);
}

void
Layout::swapSlots(SlotId a, SlotId b)
{
    QPANIC_IF(a < 0 || a >= numSlots() || b < 0 || b >= numSlots(),
              "swapSlots: bad slots ", a, ", ", b);
    const QubitId qa = slotToQubit_[a];
    const QubitId qb = slotToQubit_[b];
    slotToQubit_[a] = qb;
    slotToQubit_[b] = qa;
    if (qa != kInvalid)
        qubitToSlot_[qa] = b;
    if (qb != kInvalid)
        qubitToSlot_[qb] = a;
    // Occupancy (hence every signature) changes only when exactly one
    // side was occupied: then both slots change hands. The occupied
    // <-> occupied exchanges routing performs leave it intact.
    if ((qa == kInvalid) != (qb == kInvalid)) {
        flipOccupancy(a);
        flipOccupancy(b);
    }
}

int
Layout::unitOccupancy(UnitId u) const
{
    const std::uint8_t sig = unitSignature(u);
    return (sig & 1) + (sig >> 1);
}

int
Layout::numEncodedUnits() const
{
    int count = 0;
    for (std::uint8_t sig : unitSig_) {
        if (sig == 3)
            ++count;
    }
    return count;
}

} // namespace qompress
