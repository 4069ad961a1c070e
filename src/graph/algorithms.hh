/**
 * @file
 * Graph algorithms used by mapping, routing, and compression strategies:
 * BFS/Dijkstra shortest paths, shortest cycle through a vertex, and
 * connected components.
 */

#ifndef QOMPRESS_GRAPH_ALGORITHMS_HH
#define QOMPRESS_GRAPH_ALGORITHMS_HH

#include <functional>
#include <limits>
#include <vector>

#include "graph/graph.hh"

namespace qompress {

/** Result of a single-source shortest-path computation. */
struct ShortestPaths
{
    /** dist[v] is the distance from the source; infinity if unreachable. */
    std::vector<double> dist;
    /** parent[v] on a shortest path tree; -1 for source/unreachable. */
    std::vector<int> parent;

    /** Convenience: the path source -> v (empty if unreachable). */
    std::vector<int> pathTo(int v) const;

    static constexpr double kInf = std::numeric_limits<double>::infinity();
};

/** Unweighted BFS distances (edge count). */
ShortestPaths bfs(const Graph &g, int source);

/**
 * Dijkstra with non-negative edge weights.
 *
 * @param weight_override optional callable (u, v, default_w) -> cost;
 *        lets the mapper price edges dynamically (encoded vs bare) while
 *        reusing one topology graph. Must be symmetric.
 */
ShortestPaths dijkstra(
    const Graph &g, int source,
    const std::function<double(int, int, double)> &weight_override = {});

/** Connected component id per vertex (ids are dense, start at 0). */
std::vector<int> connectedComponents(const Graph &g);

/**
 * Shortest cycle passing through @p v, as an ordered vertex list
 * (v first, no repeated endpoint). Empty if v lies on no cycle.
 *
 * Used by the Ring-Based strategy (paper section 5.3) which compresses
 * qubits within small interaction cycles. Runs one BFS from v and closes
 * the cycle at the first non-tree edge joining two different root
 * branches.
 */
std::vector<int> shortestCycleThrough(const Graph &g, int v);

} // namespace qompress

#endif // QOMPRESS_GRAPH_ALGORITHMS_HH
