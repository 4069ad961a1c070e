#include "graph/graph.hh"

#include <algorithm>

#include "common/error.hh"

namespace qompress {

Graph::Graph(int n)
{
    QFATAL_IF(n < 0, "graph size must be non-negative, got ", n);
    adj_.resize(n);
}

void
Graph::checkVertex(int u) const
{
    QPANIC_IF(u < 0 || u >= numVertices(),
              "vertex ", u, " out of range [0, ", numVertices(), ")");
}

bool
Graph::addEdge(int u, int v, double weight)
{
    checkVertex(u);
    checkVertex(v);
    QPANIC_IF(u == v, "self loop on vertex ", u);
    if (hasEdge(u, v))
        return false;
    adj_[u].push_back({v, weight});
    adj_[v].push_back({u, weight});
    ++numEdges_;
    return true;
}

bool
Graph::hasEdge(int u, int v) const
{
    checkVertex(u);
    checkVertex(v);
    const auto &a = adj_[u];
    return std::any_of(a.begin(), a.end(),
                       [v](const GraphEdge &e) { return e.to == v; });
}

double
Graph::edgeWeight(int u, int v) const
{
    checkVertex(u);
    checkVertex(v);
    for (const auto &e : adj_[u]) {
        if (e.to == v)
            return e.weight;
    }
    QPANIC("edgeWeight: no edge (", u, ", ", v, ")");
}

void
Graph::setEdgeWeight(int u, int v, double weight)
{
    checkVertex(u);
    checkVertex(v);
    bool found = false;
    for (auto &e : adj_[u]) {
        if (e.to == v) {
            e.weight = weight;
            found = true;
        }
    }
    for (auto &e : adj_[v]) {
        if (e.to == u)
            e.weight = weight;
    }
    QPANIC_IF(!found, "setEdgeWeight: no edge (", u, ", ", v, ")");
}

void
Graph::bumpEdgeWeight(int u, int v, double delta)
{
    if (!hasEdge(u, v))
        addEdge(u, v, 0.0);
    setEdgeWeight(u, v, edgeWeight(u, v) + delta);
}

bool
Graph::removeEdge(int u, int v)
{
    checkVertex(u);
    checkVertex(v);
    if (!hasEdge(u, v))
        return false;
    auto erase = [](std::vector<GraphEdge> &a, int t) {
        a.erase(std::remove_if(a.begin(), a.end(),
                               [t](const GraphEdge &e) {
                                   return e.to == t;
                               }),
                a.end());
    };
    erase(adj_[u], v);
    erase(adj_[v], u);
    --numEdges_;
    return true;
}

const std::vector<GraphEdge> &
Graph::neighbors(int u) const
{
    checkVertex(u);
    return adj_[u];
}

int
Graph::degree(int u) const
{
    checkVertex(u);
    return static_cast<int>(adj_[u].size());
}

std::vector<Graph::EdgeRef>
Graph::edges() const
{
    std::vector<EdgeRef> out;
    out.reserve(numEdges_);
    for (int u = 0; u < numVertices(); ++u) {
        for (const auto &e : adj_[u]) {
            if (u < e.to)
                out.push_back({u, e.to, e.weight});
        }
    }
    return out;
}

double
Graph::totalWeight() const
{
    double sum = 0.0;
    for (const auto &e : edges())
        sum += e.w;
    return sum;
}

void
Graph::contract(int u, int v)
{
    checkVertex(u);
    checkVertex(v);
    QPANIC_IF(u == v, "contract: identical vertices");
    // Collect v's neighbours first: removing edges mutates adj_[v].
    const std::vector<GraphEdge> vedges = adj_[v];
    for (const auto &e : vedges) {
        removeEdge(v, e.to);
        if (e.to == u)
            continue;
        bumpEdgeWeight(u, e.to, e.weight);
    }
}

} // namespace qompress
