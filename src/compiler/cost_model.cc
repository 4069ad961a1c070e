#include "compiler/cost_model.hh"

#include <cmath>

#include "arch/device.hh"
#include "common/error.hh"

namespace qompress {

CostModel::CostModel(const ExpandedGraph &xg, const GateLibrary &lib,
                     double through_ququart_penalty,
                     const DeviceCalibration *cal)
    : xg_(&xg), lib_(&lib), penalty_(through_ququart_penalty), cal_(cal)
{
    QFATAL_IF(penalty_ < 1.0, "through-ququart penalty must be >= 1");
    QFATAL_IF(cal_ && cal_->numUnits() != xg.topology().numUnits(),
              "calibration '", cal_ ? cal_->device : "", "' covers ",
              cal_ ? cal_->numUnits() : 0, " units but topology '",
              xg.topology().name(), "' has ", xg.topology().numUnits());
}

double
CostModel::unitDecay(UnitId u, double duration, const Layout &layout) const
{
    const double t1 =
        cal_ ? (layout.unitEncoded(u) ? cal_->t1QuquartNs[u]
                                      : cal_->t1QubitNs[u])
             : (layout.unitEncoded(u) ? lib_->t1Ququart()
                                      : lib_->t1Qubit());
    return std::exp(-duration / t1);
}

double
CostModel::gateSuccess(PhysGateClass c, SlotId a, SlotId b,
                       const Layout &layout) const
{
    double dur = lib_->duration(c);
    double fid = lib_->fidelity(c);
    if (cal_ && b != kInvalid && slotUnit(b) != slotUnit(a)) {
        if (const auto *e = cal_->edge(slotUnit(a), slotUnit(b))) {
            fid *= e->fidelityScale;
            dur *= e->durationScale;
        }
    }
    double s = fid * unitDecay(slotUnit(a), dur, layout);
    if (b != kInvalid && slotUnit(b) != slotUnit(a))
        s *= unitDecay(slotUnit(b), dur, layout);
    return s;
}

double
CostModel::swapCost(SlotId a, SlotId b, const Layout &layout) const
{
    const bool same = ExpandedGraph::sameUnit(a, b);
    const PhysGateClass c = classifySwap(
        slotPos(a), layout.unitEncoded(slotUnit(a)),
        slotPos(b), layout.unitEncoded(slotUnit(b)), same);
    return -std::log(gateSuccess(c, a, b, layout));
}

double
CostModel::routingHopCost(SlotId from, SlotId into,
                          const Layout &layout) const
{
    if (!layout.occupied(into))
        return ShortestPaths::kInf;
    double cost = swapCost(from, into, layout);
    if (!ExpandedGraph::sameUnit(from, into) &&
        layout.unitEncoded(slotUnit(into))) {
        cost *= penalty_;
    }
    return cost;
}

double
CostModel::cxCost(SlotId ctl, SlotId tgt, const Layout &layout) const
{
    const bool same = ExpandedGraph::sameUnit(ctl, tgt);
    const PhysGateClass c = classifyCx(
        slotPos(ctl), layout.unitEncoded(slotUnit(ctl)),
        slotPos(tgt), layout.unitEncoded(slotUnit(tgt)), same);
    return -std::log(gateSuccess(c, ctl, tgt, layout));
}

ShortestPaths
CostModel::mappingDistances(SlotId source, const Layout &layout) const
{
    return dijkstra(
        xg_->graph(), source,
        [this, &layout](int u, int v, double) {
            return swapCost(u, v, layout);
        });
}

ShortestPaths
CostModel::routingDistances(SlotId source, const Layout &layout) const
{
    return dijkstra(
        xg_->graph(), source,
        [this, &layout](int u, int v, double) {
            return routingHopCost(u, v, layout);
        });
}

double
CostModel::swap4Cost(UnitId u, UnitId v, const Layout &layout) const
{
    double dur = lib_->duration(PhysGateClass::SwapFull);
    double fid = lib_->fidelity(PhysGateClass::SwapFull);
    if (cal_) {
        if (const auto *e = cal_->edge(u, v)) {
            fid *= e->fidelityScale;
            dur *= e->durationScale;
        }
    }
    auto decay = [&](UnitId w) {
        const double t1 =
            cal_ ? (layout.unitEncoded(w) ? cal_->t1QuquartNs[w]
                                          : cal_->t1QubitNs[w])
                 : (layout.unitEncoded(w) ? lib_->t1Ququart()
                                          : lib_->t1Qubit());
        return std::exp(-dur / t1);
    };
    return -std::log(fid * decay(u) * decay(v));
}

ShortestPaths
CostModel::unitDistances(UnitId source, const Layout &layout) const
{
    return dijkstra(
        xg_->topology().graph(), source,
        [this, &layout](int u, int v, double) {
            return swap4Cost(u, v, layout);
        });
}

void
DistanceFieldCache::stamp(Entry &e, const Layout &layout)
{
    e.layoutId = layout.instanceId();
    e.version = layout.costVersion();
    const int nu = layout.numUnits();
    e.snap.resize(static_cast<std::size_t>(nu));
    for (UnitId u = 0; u < nu; ++u)
        e.snap[u] = layout.unitSignature(u);
}

bool
DistanceFieldCache::entryStillValid(const Entry &e, const Layout &layout,
                                    Relevance rel) const
{
    const int nu = layout.numUnits();
    if (static_cast<int>(e.snap.size()) != nu)
        return false;
    // Same instance: units whose epoch has not moved past the stamp
    // still carry the snapshotted state and can be skipped. A
    // different instance has an incomparable epoch clock, so every
    // unit is checked.
    const bool same_layout = e.layoutId == layout.instanceId();
    for (UnitId u = 0; u < nu; ++u) {
        if (same_layout && layout.unitEpoch(u) <= e.version)
            continue;
        const std::uint8_t cur = layout.unitSignature(u);
        if (rel == Relevance::Occupancy) {
            if (cur != e.snap[u])
                return false;
        } else {
            if ((cur == 3) != (e.snap[u] == 3))
                return false;
        }
    }
    return true;
}

template <typename Compute>
const ShortestPaths &
DistanceFieldCache::lookup(std::unordered_map<int, Entry> &entries,
                           int source, const Layout &layout, Relevance rel,
                           const Compute &compute)
{
    Entry &e = entries[source];
    if (!e.field.dist.empty()) {
        if (e.layoutId == layout.instanceId() &&
            e.version == layout.costVersion()) {
            ++hits_;
            return e.field;
        }
        if (entryStillValid(e, layout, rel)) {
            // No depended-on bit changed: adopt the new stamp so the
            // next lookup takes the O(1) path.
            stamp(e, layout);
            ++hits_;
            ++revalidations_;
            return e.field;
        }
    }
    e.field = compute(source, layout);
    stamp(e, layout);
    ++misses_;
    return e.field;
}

const ShortestPaths &
DistanceFieldCache::routing(SlotId source, const Layout &layout)
{
    return lookup(routing_, source, layout, Relevance::Occupancy,
                  [this](SlotId s, const Layout &l) {
                      return cost_->routingDistances(s, l);
                  });
}

const ShortestPaths &
DistanceFieldCache::mapping(SlotId source, const Layout &layout)
{
    return lookup(mapping_, source, layout, Relevance::Encoding,
                  [this](SlotId s, const Layout &l) {
                      return cost_->mappingDistances(s, l);
                  });
}

const ShortestPaths &
DistanceFieldCache::unit(UnitId source, const Layout &layout)
{
    return lookup(unit_, source, layout, Relevance::Encoding,
                  [this](UnitId u, const Layout &l) {
                      return cost_->unitDistances(u, l);
                  });
}

} // namespace qompress
