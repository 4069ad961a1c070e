/**
 * @file
 * The expanded (slot-level) interaction graph of a mixed-radix device
 * (paper section 4.1): every physical unit contributes two logical
 * slots, yielding 2V nodes and 4E + V edges.
 */

#ifndef QOMPRESS_ARCH_EXPANDED_GRAPH_HH
#define QOMPRESS_ARCH_EXPANDED_GRAPH_HH

#include "arch/topology.hh"
#include "common/types.hh"
#include "graph/graph.hh"

namespace qompress {

/**
 * Slot-level view of a Topology.
 *
 * Slot ids follow common/types.hh: unit u owns slots 2u (encode
 * position 0) and 2u+1 (position 1). Two slots are adjacent iff they
 * share a unit (internal edge) or their units are coupled (the four
 * cross edges per coupling).
 */
class ExpandedGraph
{
  public:
    explicit ExpandedGraph(const Topology &topo);

    /** Number of slots (2V). */
    int numSlots() const { return graph_.numVertices(); }

    /** Underlying slot graph (2V nodes, 4E + V edges). */
    const Graph &graph() const { return graph_; }

    /** The topology this expansion was built from. */
    const Topology &topology() const { return *topo_; }

    /**
     * Topology::centerUnit(), found once here: that is an all-pairs
     * BFS, and mapping seeds every placement at the center (progressive
     * pairing maps up to n/2 + 1 times per compile).
     */
    UnitId centerUnit() const { return center_; }

    /** True iff two slots may host a 2-operand gate directly. */
    bool adjacent(SlotId a, SlotId b) const
    {
        return graph_.hasEdge(a, b);
    }

    /** True iff the slots belong to one physical unit. */
    static bool sameUnit(SlotId a, SlotId b)
    {
        return slotUnit(a) == slotUnit(b);
    }

  private:
    const Topology *topo_;
    Graph graph_;
    UnitId center_;
};

} // namespace qompress

#endif // QOMPRESS_ARCH_EXPANDED_GRAPH_HH
