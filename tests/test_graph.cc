/**
 * @file
 * Unit tests for the graph container and algorithms.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hh"
#include "graph/algorithms.hh"
#include "graph/graph.hh"

namespace qompress {
namespace {

Graph
triangle()
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    return g;
}

TEST(Graph, AddAndQueryEdges)
{
    Graph g(4);
    EXPECT_TRUE(g.addEdge(0, 1, 2.5));
    EXPECT_FALSE(g.addEdge(1, 0)); // duplicate rejected
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_DOUBLE_EQ(g.edgeWeight(1, 0), 2.5);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, SetAndBumpWeights)
{
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    g.setEdgeWeight(0, 1, 4.0);
    EXPECT_DOUBLE_EQ(g.edgeWeight(1, 0), 4.0);
    g.bumpEdgeWeight(0, 1, 0.5);
    EXPECT_DOUBLE_EQ(g.edgeWeight(0, 1), 4.5);
    g.bumpEdgeWeight(1, 2, 3.0); // creates the edge
    EXPECT_DOUBLE_EQ(g.edgeWeight(1, 2), 3.0);
    EXPECT_EQ(g.numEdges(), 2);
}

TEST(Graph, RemoveEdge)
{
    Graph g = triangle();
    EXPECT_TRUE(g.removeEdge(0, 1));
    EXPECT_FALSE(g.removeEdge(0, 1));
    EXPECT_EQ(g.numEdges(), 2);
    EXPECT_FALSE(g.hasEdge(0, 1));
}

TEST(Graph, SelfLoopPanics)
{
    Graph g(2);
    EXPECT_THROW(g.addEdge(1, 1), PanicError);
}

TEST(Graph, EdgesListSortedEndpoints)
{
    Graph g = triangle();
    const auto edges = g.edges();
    EXPECT_EQ(edges.size(), 3u);
    for (const auto &e : edges)
        EXPECT_LT(e.u, e.v);
}

TEST(Graph, ContractMergesNeighborhoods)
{
    // 0-1, 1-2, 0-2, 2-3. Contract 1 into 0: expect 0-2 (weight
    // summed), 2-3, and vertex 1 isolated.
    Graph g(4);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 2.0);
    g.addEdge(0, 2, 3.0);
    g.addEdge(2, 3, 1.0);
    g.contract(0, 1);
    EXPECT_EQ(g.degree(1), 0);
    EXPECT_DOUBLE_EQ(g.edgeWeight(0, 2), 5.0);
    EXPECT_TRUE(g.hasEdge(2, 3));
    EXPECT_EQ(g.numEdges(), 2);
}

TEST(Algorithms, BfsDistances)
{
    Graph g(5); // path 0-1-2-3, isolated 4
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    const auto sp = bfs(g, 0);
    EXPECT_DOUBLE_EQ(sp.dist[3], 3.0);
    EXPECT_EQ(sp.dist[4], ShortestPaths::kInf);
    const auto path = sp.pathTo(3);
    const std::vector<int> want{0, 1, 2, 3};
    EXPECT_EQ(path, want);
    EXPECT_TRUE(sp.pathTo(4).empty());
}

TEST(Algorithms, DijkstraPrefersCheapDetour)
{
    Graph g(4);
    g.addEdge(0, 1, 10.0);
    g.addEdge(0, 2, 1.0);
    g.addEdge(2, 3, 1.0);
    g.addEdge(3, 1, 1.0);
    const auto sp = dijkstra(g, 0);
    EXPECT_DOUBLE_EQ(sp.dist[1], 3.0);
    const std::vector<int> want{0, 2, 3, 1};
    EXPECT_EQ(sp.pathTo(1), want);
}

TEST(Algorithms, DijkstraWeightOverride)
{
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 1.0);
    const auto sp = dijkstra(g, 0, [](int, int, double w) {
        return w * 5.0;
    });
    EXPECT_DOUBLE_EQ(sp.dist[2], 10.0);
}

TEST(Algorithms, ConnectedComponents)
{
    Graph g(5);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    const auto comp = connectedComponents(g);
    EXPECT_EQ(comp[0], comp[1]);
    EXPECT_EQ(comp[2], comp[3]);
    EXPECT_NE(comp[0], comp[2]);
    EXPECT_NE(comp[4], comp[0]);
    EXPECT_NE(comp[4], comp[2]);
}

TEST(Algorithms, ShortestCycleTriangle)
{
    Graph g = triangle();
    for (int v = 0; v < 3; ++v) {
        const auto cyc = shortestCycleThrough(g, v);
        EXPECT_EQ(cyc.size(), 3u);
        EXPECT_EQ(cyc.front(), v);
    }
}

TEST(Algorithms, ShortestCycleSquare)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    g.addEdge(3, 0);
    const auto cyc = shortestCycleThrough(g, 0);
    EXPECT_EQ(cyc.size(), 4u);
}

TEST(Algorithms, NoCycleInTree)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(0, 3);
    for (int v = 0; v < 4; ++v)
        EXPECT_TRUE(shortestCycleThrough(g, v).empty());
}

TEST(Algorithms, CycleThroughVertexIgnoresRemoteCycle)
{
    // Triangle 1-2-3 plus pendant 0-1: vertex 0 lies on no cycle.
    Graph g(4);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    g.addEdge(3, 1);
    g.addEdge(0, 1);
    EXPECT_TRUE(shortestCycleThrough(g, 0).empty());
    EXPECT_EQ(shortestCycleThrough(g, 2).size(), 3u);
}

TEST(Algorithms, ShortestCyclePicksSmallest)
{
    // Vertex 0 on a triangle and a square; expect the triangle.
    Graph g(6);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    g.addEdge(0, 3);
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    g.addEdge(5, 0);
    EXPECT_EQ(shortestCycleThrough(g, 0).size(), 3u);
}

} // namespace
} // namespace qompress
