/**
 * @file
 * A small undirected weighted graph used for device topologies and
 * circuit interaction structure.
 */

#ifndef QOMPRESS_GRAPH_GRAPH_HH
#define QOMPRESS_GRAPH_GRAPH_HH

#include <cstddef>
#include <vector>

namespace qompress {

/** One directed half of an undirected edge. */
struct GraphEdge
{
    int to;         ///< neighbour vertex
    double weight;  ///< edge weight (semantics chosen by the user)
};

/**
 * Undirected weighted multigraph-free graph with O(deg) edge lookup.
 *
 * Vertices are dense integers [0, numVertices()). Parallel edges are
 * rejected; weights can be updated in place.
 */
class Graph
{
  public:
    /** Create a graph with @p n isolated vertices. */
    explicit Graph(int n = 0);

    /** Number of vertices. */
    int numVertices() const { return static_cast<int>(adj_.size()); }

    /** Number of undirected edges. */
    int numEdges() const { return numEdges_; }

    /**
     * Insert undirected edge (u, v) with @p weight.
     * @return false if the edge already existed (weight left unchanged).
     */
    bool addEdge(int u, int v, double weight = 1.0);

    /** True iff (u, v) is an edge. */
    bool hasEdge(int u, int v) const;

    /** Weight of edge (u, v). @pre hasEdge(u, v). */
    double edgeWeight(int u, int v) const;

    /** Set the weight of an existing edge. @pre hasEdge(u, v). */
    void setEdgeWeight(int u, int v, double weight);

    /** Add @p delta to edge (u, v), inserting it at weight 0 if absent. */
    void bumpEdgeWeight(int u, int v, double delta);

    /** Remove edge (u, v) if present; returns whether it existed. */
    bool removeEdge(int u, int v);

    /** Neighbour list of @p u. */
    const std::vector<GraphEdge> &neighbors(int u) const;

    /** Degree of @p u. */
    int degree(int u) const;

    /** All undirected edges as (u, v, w) with u < v. */
    struct EdgeRef { int u; int v; double w; };
    std::vector<EdgeRef> edges() const;

    /** Sum of all edge weights. */
    double totalWeight() const;

    /**
     * Contract vertex @p v into vertex @p u.
     *
     * All of v's edges are re-attached to u (weights of duplicate edges
     * add); v becomes isolated. Vertex ids are preserved (v stays a valid
     * but disconnected vertex) so callers can keep external id maps.
     */
    void contract(int u, int v);

  private:
    void checkVertex(int u) const;

    std::vector<std::vector<GraphEdge>> adj_;
    int numEdges_ = 0;
};

} // namespace qompress

#endif // QOMPRESS_GRAPH_GRAPH_HH
