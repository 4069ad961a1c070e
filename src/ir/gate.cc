#include "ir/gate.hh"

#include <array>

#include "common/error.hh"
#include "common/strings.hh"

namespace qompress {

namespace {

struct GateMeta
{
    const char *name;
    int arity;
    bool hasParam;
};

const std::array<GateMeta, 15> kMeta = {{
    {"x", 1, false},   {"y", 1, false},   {"z", 1, false},
    {"h", 1, false},   {"s", 1, false},   {"sdg", 1, false},
    {"t", 1, false},   {"tdg", 1, false}, {"rx", 1, true},
    {"ry", 1, true},   {"rz", 1, true},   {"cx", 2, false},
    {"cz", 2, false},  {"swap", 2, false}, {"ccx", 3, false},
}};

const GateMeta &
meta(GateType t)
{
    const auto idx = static_cast<std::size_t>(t);
    QPANIC_IF(idx >= kMeta.size(), "unknown gate type ", idx);
    return kMeta[idx];
}

} // namespace

int
gateArity(GateType t)
{
    return meta(t).arity;
}

bool
gateHasParam(GateType t)
{
    return meta(t).hasParam;
}

const std::string &
gateName(GateType t)
{
    static std::array<std::string, 15> names = [] {
        std::array<std::string, 15> out;
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = kMeta[i].name;
        return out;
    }();
    return names[static_cast<std::size_t>(t)];
}

std::string
Gate::str() const
{
    std::string out = gateName(type);
    if (gateHasParam(type))
        out += format("(%g)", param);
    out += ' ';
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        if (i)
            out += ", ";
        out += format("q%d", qubits[i]);
    }
    return out;
}

} // namespace qompress
