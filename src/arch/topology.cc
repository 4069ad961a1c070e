#include "arch/topology.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/error.hh"
#include "common/strings.hh"
#include "graph/algorithms.hh"

namespace qompress {

namespace {

/** Caps for untrusted coupling-list input (fromText). */
constexpr int kMaxTopologyUnits = 16384;
constexpr std::size_t kMaxTopologyEdges = 262144;

/** Strict digit-only unit index with the cap applied. */
UnitId
topoUnit(const std::string &tok, const std::string &what, int lineno)
{
    QFATAL_IF(tok.empty() || tok.size() > 6 ||
                  tok.find_first_not_of("0123456789") != std::string::npos,
              "topology ", what, " line ", lineno,
              ": malformed unit index '", tok, "'");
    const long v = std::strtol(tok.c_str(), nullptr, 10);
    QFATAL_IF(v >= kMaxTopologyUnits, "topology ", what, " line ", lineno,
              ": unit ", v, " exceeds the cap of ", kMaxTopologyUnits - 1);
    return static_cast<UnitId>(v);
}

} // namespace

Topology::Topology(Graph coupling, std::string name)
    : coupling_(std::move(coupling)), name_(std::move(name))
{
    QFATAL_IF(coupling_.numVertices() < 1, "topology needs >= 1 unit");
}

UnitId
Topology::centerUnit() const
{
    const int n = numUnits();
    UnitId best = 0;
    double best_ecc = ShortestPaths::kInf;
    for (UnitId u = 0; u < n; ++u) {
        const auto sp = bfs(coupling_, u);
        double ecc = 0.0;
        for (double d : sp.dist) {
            if (d != ShortestPaths::kInf)
                ecc = std::max(ecc, d);
        }
        if (ecc < best_ecc) {
            best_ecc = ecc;
            best = u;
        }
    }
    return best;
}

Topology
Topology::grid(int min_units)
{
    QFATAL_IF(min_units < 1, "grid needs >= 1 unit");
    const int cols = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(min_units))));
    const int rows = (min_units + cols - 1) / cols;
    Topology t = gridExplicit(std::max(rows, 1), cols);
    return t;
}

Topology
Topology::gridExplicit(int rows, int cols)
{
    QFATAL_IF(rows < 1 || cols < 1, "grid dims must be positive, got ",
              rows, "x", cols);
    Graph g(rows * cols);
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                g.addEdge(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                g.addEdge(id(r, c), id(r + 1, c));
        }
    }
    return Topology(std::move(g), format("grid_%dx%d", rows, cols));
}

Topology
Topology::heavyHex65()
{
    return heavyHex(5, 11);
}

Topology
Topology::heavyHex(int rows, int row_len)
{
    QFATAL_IF(rows < 3 || rows % 2 == 0,
              "heavyHex needs an odd row count >= 3, got ", rows);
    QFATAL_IF(row_len < 7 || row_len % 4 != 3,
              "heavyHex needs a row length >= 7 with row_len % 4 == 3, "
              "got ", row_len);

    // Numbering interleaves each qubit row with the bridge units below
    // it: row 0, bridges(0,1), row 1, bridges(1,2), ... -- the IBM
    // heavy-hex numbering. The first and last rows are one unit
    // shorter: the first omits the final column, the last omits
    // column 0.
    const auto row_units = [&](int r) {
        return (r == 0 || r == rows - 1) ? row_len - 1 : row_len;
    };
    // Bridge columns of the row pair (r, r+1): every 4th column,
    // offset 0 for even pairs and 2 for odd pairs.
    const auto bridge_cols = [&](int r) {
        std::vector<int> cols;
        for (int c = (r % 2 == 0) ? 0 : 2; c < row_len; c += 4)
            cols.push_back(c);
        return cols;
    };

    std::vector<int> row_start(static_cast<std::size_t>(rows), 0);
    std::vector<int> bridge_start(static_cast<std::size_t>(rows), 0);
    int next = 0;
    for (int r = 0; r < rows; ++r) {
        row_start[static_cast<std::size_t>(r)] = next;
        next += row_units(r);
        if (r + 1 < rows) {
            bridge_start[static_cast<std::size_t>(r)] = next;
            next += static_cast<int>(bridge_cols(r).size());
        }
    }
    const int total = next;
    QFATAL_IF(total > kMaxTopologyUnits, "heavyHex(", rows, ", ",
              row_len, ") would have ", total,
              " units, exceeding the cap of ", kMaxTopologyUnits);

    // Unit at (row r, column c); the short first/last rows shift.
    const auto unit_at = [&](int r, int c) {
        if (r == rows - 1)
            return row_start[static_cast<std::size_t>(r)] + c - 1;
        return row_start[static_cast<std::size_t>(r)] + c;
    };

    Graph g(total);
    // Row chains first, then bridges: the IBM insertion order, which
    // test_device pins for heavyHex(5, 11). Adjacency-list order feeds
    // tie-breaks in Dijkstra, so compiled outputs depend on the order,
    // not just on the edge set.
    for (int r = 0; r < rows; ++r) {
        const int lo = row_start[static_cast<std::size_t>(r)];
        for (int q = lo; q + 1 < lo + row_units(r); ++q)
            g.addEdge(q, q + 1);
    }
    for (int r = 0; r + 1 < rows; ++r) {
        const std::vector<int> cols = bridge_cols(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            const int b =
                bridge_start[static_cast<std::size_t>(r)] +
                static_cast<int>(k);
            g.addEdge(b, unit_at(r, cols[k]));
            g.addEdge(b, unit_at(r + 1, cols[k]));
        }
    }
    return Topology(std::move(g), format("heavyhex_%d", total));
}

Topology
Topology::falcon27()
{
    // The IBM 27-qubit Falcon coupling map (ibmq_mumbai/montreal/...):
    // a 3-row heavy-hex fragment, 27 units, 28 edges.
    static const std::pair<UnitId, UnitId> kEdges[] = {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
        {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
        {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
        {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
        {22, 25}, {23, 24}, {24, 25}, {25, 26},
    };
    Graph g(27);
    for (const auto &[u, v] : kEdges)
        g.addEdge(u, v);
    return Topology(std::move(g), "falcon_27");
}

Topology
Topology::ring(int n)
{
    QFATAL_IF(n < 3, "ring needs >= 3 units, got ", n);
    Graph g(n);
    for (int i = 0; i < n; ++i)
        g.addEdge(i, (i + 1) % n);
    return Topology(std::move(g), format("ring_%d", n));
}

Topology
Topology::line(int n)
{
    QFATAL_IF(n < 1, "line needs >= 1 unit, got ", n);
    Graph g(n);
    for (int i = 0; i + 1 < n; ++i)
        g.addEdge(i, i + 1);
    return Topology(std::move(g), format("line_%d", n));
}

Topology
Topology::fromEdgeList(
    const std::vector<std::pair<UnitId, UnitId>> &edges,
    std::string name, int min_units)
{
    int n = min_units;
    for (const auto &[u, v] : edges) {
        QFATAL_IF(u < 0 || v < 0, "negative unit index in edge list");
        n = std::max({n, u + 1, v + 1});
    }
    QFATAL_IF(n < 1, "custom topology needs at least one unit");
    Graph g(n);
    for (const auto &[u, v] : edges) {
        QFATAL_IF(u == v, "self-coupling on unit ", u);
        g.addEdge(u, v); // duplicates are tolerated
    }
    return Topology(std::move(g), std::move(name));
}

Topology
Topology::fromText(const std::string &text, const std::string &what)
{
    std::vector<std::pair<UnitId, UnitId>> edges;
    std::unordered_set<std::uint64_t> seen;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        std::vector<std::string> tok;
        for (std::string t; ls >> t;)
            tok.push_back(std::move(t));
        if (tok.empty())
            continue; // blank or comment-only line
        QFATAL_IF(tok.size() != 2, "topology ", what, " line ", lineno,
                  ": expected exactly 'u v', got ", tok.size(),
                  " tokens");
        const UnitId u = topoUnit(tok[0], what, lineno);
        const UnitId v = topoUnit(tok[1], what, lineno);
        QFATAL_IF(u == v, "topology ", what, " line ", lineno,
                  ": self-coupling on unit ", u);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
            static_cast<std::uint64_t>(std::max(u, v));
        QFATAL_IF(!seen.insert(key).second, "topology ", what, " line ",
                  lineno, ": duplicate coupling (", u, ", ", v, ")");
        QFATAL_IF(edges.size() >= kMaxTopologyEdges, "topology ", what,
                  " line ", lineno, ": too many couplings (cap ",
                  kMaxTopologyEdges, ")");
        edges.push_back({u, v});
    }
    QFATAL_IF(edges.empty(), "topology ", what, " has no couplings");
    return fromEdgeList(edges, what);
}

Topology
Topology::fromFile(const std::string &path)
{
    std::ifstream in(path);
    QFATAL_IF(!in, "cannot open topology file '", path, "'");
    std::ostringstream body;
    body << in.rdbuf();
    const Topology parsed = fromText(body.str(), path);
    std::string name = path;
    if (const auto slash = name.find_last_of('/');
        slash != std::string::npos) {
        name = name.substr(slash + 1);
    }
    return Topology(parsed.graph(), std::move(name));
}

} // namespace qompress
