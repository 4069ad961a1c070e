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
CostModel::decay(UnitId u, double duration, bool encoded) const
{
    const double t1 =
        cal_ ? (encoded ? cal_->t1QuquartNs[u] : cal_->t1QubitNs[u])
             : (encoded ? lib_->t1Ququart() : lib_->t1Qubit());
    return std::exp(-duration / t1);
}

double
CostModel::success(PhysGateClass c, SlotId a, SlotId b, bool enc_a,
                   bool enc_b) const
{
    double dur = lib_->duration(c);
    double fid = lib_->fidelity(c);
    const bool two_unit = b != kInvalid && slotUnit(b) != slotUnit(a);
    if (cal_ && two_unit) {
        if (const auto *e = cal_->edge(slotUnit(a), slotUnit(b))) {
            fid *= e->fidelityScale;
            dur *= e->durationScale;
        }
    }
    double s = fid * decay(slotUnit(a), dur, enc_a);
    if (two_unit)
        s *= decay(slotUnit(b), dur, enc_b);
    return s;
}

double
CostModel::swapPrice(SlotId a, SlotId b, bool enc_a, bool enc_b) const
{
    const PhysGateClass c =
        classifySwap(slotPos(a), enc_a, slotPos(b), enc_b,
                     ExpandedGraph::sameUnit(a, b));
    return -std::log(success(c, a, b, enc_a, enc_b));
}

double
CostModel::hopPrice(SlotId from, SlotId into, std::uint8_t sig_from,
                    std::uint8_t sig_into) const
{
    if (((sig_into >> slotPos(into)) & 1) == 0)
        return ShortestPaths::kInf;
    double cost = swapPrice(from, into, sig_from == 3, sig_into == 3);
    if (!ExpandedGraph::sameUnit(from, into) && sig_into == 3)
        cost *= penalty_;
    return cost;
}

double
CostModel::swap4Price(UnitId u, UnitId v, bool enc_u, bool enc_v) const
{
    return -std::log(success(PhysGateClass::SwapFull, makeSlot(u, 0),
                             makeSlot(v, 0), enc_u, enc_v));
}

double
CostModel::gateSuccess(PhysGateClass c, SlotId a, SlotId b,
                       const Layout &layout) const
{
    return success(c, a, b, layout.unitEncoded(slotUnit(a)),
                   b != kInvalid && layout.unitEncoded(slotUnit(b)));
}

double
CostModel::swapCost(SlotId a, SlotId b, const Layout &layout) const
{
    return swapPrice(a, b, layout.unitEncoded(slotUnit(a)),
                     layout.unitEncoded(slotUnit(b)));
}

double
CostModel::routingHopCost(SlotId from, SlotId into,
                          const Layout &layout) const
{
    return hopPrice(from, into, layout.unitSignature(slotUnit(from)),
                    layout.unitSignature(slotUnit(into)));
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
    const auto &sig = layout.signatures();
    return dijkstra(xg_->graph(), source, [&](int a, int b, double) {
        return swapPrice(a, b, sig[slotUnit(a)] == 3,
                         sig[slotUnit(b)] == 3);
    });
}

ShortestPaths
CostModel::routingDistances(SlotId source, const Layout &layout) const
{
    const auto &sig = layout.signatures();
    return dijkstra(xg_->graph(), source, [&](int from, int into, double) {
        return hopPrice(from, into, sig[slotUnit(from)],
                        sig[slotUnit(into)]);
    });
}

double
CostModel::swap4Cost(UnitId u, UnitId v, const Layout &layout) const
{
    return swap4Price(u, v, layout.unitEncoded(u), layout.unitEncoded(v));
}

ShortestPaths
CostModel::unitDistances(UnitId source, const Layout &layout) const
{
    const auto &sig = layout.signatures();
    return dijkstra(xg_->topology().graph(), source,
                    [&](int u, int v, double) {
                        return swap4Price(u, v, sig[u] == 3, sig[v] == 3);
                    });
}

namespace {

/** True iff @p a and @p b agree on every bit a family reads: all of
 *  them for routing fields, the encoded bit for the others. */
bool
sameReadBits(const std::vector<std::uint8_t> &a,
             const std::vector<std::uint8_t> &b, bool encoded_only)
{
    if (!encoded_only)
        return a == b; // one memcmp
    if (a.size() != b.size())
        return false;
    for (std::size_t u = 0; u < a.size(); ++u) {
        if ((a[u] == 3) != (b[u] == 3))
            return false;
    }
    return true;
}

} // namespace

template <typename Compute>
const ShortestPaths &
DistanceFieldCache::lookup(std::unordered_map<int, Entry> &entries,
                           int source, const Layout &layout, Relevance rel,
                           const Compute &compute)
{
    Entry &e = entries[source];
    const std::vector<std::uint8_t> &sig = layout.signatures();
    if (!e.field.dist.empty() &&
        sameReadBits(e.sig, sig, rel == Relevance::Encoding)) {
        ++hits_;
        return e.field;
    }
    e.field = compute(source, layout);
    e.sig = sig;
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
