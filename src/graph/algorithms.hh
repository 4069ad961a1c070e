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
#include <queue>
#include <utility>
#include <vector>

#include "common/error.hh"
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

/** dijkstra's default edge weight: the weight stored on the edge. */
struct StoredWeight
{
    double operator()(int, int, double w) const { return w; }
};

/**
 * Dijkstra with non-negative edge weights.
 *
 * @param weight callable (u, v, stored_w) -> cost of relaxing u -> v;
 *        lets the cost model price edges dynamically (encoded vs bare)
 *        while reusing one topology graph. Must be symmetric; a
 *        negative cost panics. A template parameter, not a
 *        std::function, so the pricing inlines into the relaxation
 *        loop that mapping and routing run tens of thousands of times
 *        per compile.
 */
template <typename Weight = StoredWeight>
ShortestPaths
dijkstra(const Graph &g, int source, const Weight &weight = {})
{
    const int n = g.numVertices();
    QPANIC_IF(source < 0 || source >= n, "dijkstra: bad source ", source);
    ShortestPaths sp;
    sp.dist.assign(n, ShortestPaths::kInf);
    sp.parent.assign(n, -1);
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    sp.dist[source] = 0.0;
    pq.emplace(0.0, source);
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > sp.dist[u])
            continue;
        for (const auto &e : g.neighbors(u)) {
            const double w = weight(u, e.to, e.weight);
            QPANIC_IF(w < 0.0, "dijkstra: negative weight on (",
                      u, ", ", e.to, ")");
            const double nd = d + w;
            if (nd < sp.dist[e.to]) {
                sp.dist[e.to] = nd;
                sp.parent[e.to] = u;
                pq.emplace(nd, e.to);
            }
        }
    }
    return sp;
}

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
