#include "arch/expanded_graph.hh"

namespace qompress {

ExpandedGraph::ExpandedGraph(const Topology &topo)
    : topo_(&topo), graph_(2 * topo.numUnits()),
      center_(topo.centerUnit())
{
    for (UnitId u = 0; u < topo.numUnits(); ++u)
        graph_.addEdge(makeSlot(u, 0), makeSlot(u, 1));
    for (const auto &e : topo.graph().edges()) {
        for (int pa = 0; pa < 2; ++pa) {
            for (int pb = 0; pb < 2; ++pb) {
                graph_.addEdge(makeSlot(e.u, pa), makeSlot(e.v, pb));
            }
        }
    }
}

} // namespace qompress
