#include "strategies/progressive_pairing.hh"

#include <algorithm>

#include "common/error.hh"
#include "ir/interaction.hh"

namespace qompress {

std::vector<Compression>
ProgressivePairingStrategy::choosePairs(const Circuit &native,
                                        const Topology &topo,
                                        const GateLibrary &lib,
                                        const CompilerConfig &cfg,
                                        CompileContext &ctx) const
{
    (void)topo;
    (void)lib;
    (void)cfg;
    const InteractionModel im(native);
    const CostModel &cost = ctx.cost();
    DistanceFieldCache *cache = ctx.cache();
    const int n = native.numQubits();

    std::vector<Compression> pairs;
    std::vector<bool> paired(n, false);

    while (static_cast<int>(pairs.size()) < n / 2) {
        // Full picture: remap with the pairs committed so far (qubits
        // outside pairs strictly one per unit), then price every
        // candidate from distance changes only -- no rerouting, as the
        // paper prescribes. The shared cache survives the remap:
        // layouts of successive rounds mostly agree on encoded bits,
        // which is all a mapping field reads, so repeat fields hit.
        MapperOptions mopts;
        mopts.pairs = pairs;
        Layout layout = mapCircuit(native, im, cost, mopts, cache);

        // One swap-cost distance field per qubit's current slot.
        // Cached fields are referenced in place (the layout is not
        // mutated while they are alive); uncached ones are copied.
        std::vector<const ShortestPaths *> field(n);
        std::vector<ShortestPaths> holders;
        if (!cache)
            holders.resize(static_cast<std::size_t>(n));
        for (QubitId q = 0; q < n; ++q) {
            if (cache) {
                field[q] = &cache->mapping(layout.slotOf(q), layout);
            } else {
                holders[q] = cost.mappingDistances(layout.slotOf(q),
                                                   layout);
                field[q] = &holders[q];
            }
        }

        // Estimated -log-success of all interactions of q if q sits at
        // slot s (distances measured from the partners' sides).
        auto cost_at = [&](QubitId q, SlotId s, QubitId moved_partner,
                           SlotId moved_slot) {
            double total = 0.0;
            for (const auto &e : im.graph().neighbors(q)) {
                const int count = im.pairGateCount(q, e.to);
                SlotId ps = layout.slotOf(e.to);
                if (e.to == moved_partner)
                    ps = moved_slot;
                if (ExpandedGraph::sameUnit(s, ps)) {
                    // Internal gate: cheap fixed interaction.
                    total += count * cost.cxCost(s, ps, layout);
                } else {
                    total += count * field[e.to]->dist[s];
                }
            }
            return total;
        };

        double best_gain = 1e-9;
        Compression best{kInvalid, kInvalid};
        for (QubitId a = 0; a < n; ++a) {
            if (paired[a])
                continue;
            const SlotId sa = layout.slotOf(a);
            const SlotId s1 = makeSlot(slotUnit(sa), 1);
            if (layout.occupied(s1))
                continue;
            for (QubitId b = 0; b < n; ++b) {
                if (b == a || paired[b])
                    continue;
                // Order (a, b): b joins position 1 of a's unit; only
                // interactions touching a or b change cost.
                const double before =
                    cost_at(a, sa, kInvalid, kInvalid) +
                    cost_at(b, layout.slotOf(b), kInvalid, kInvalid);
                const double after = cost_at(a, sa, b, s1) +
                                     cost_at(b, s1, a, sa);
                const double gain = before - after;
                if (gain > best_gain) {
                    best_gain = gain;
                    best = {a, b};
                }
            }
        }
        if (best.first == kInvalid)
            break;
        pairs.push_back(best);
        paired[best.first] = true;
        paired[best.second] = true;
    }
    return pairs;
}

} // namespace qompress
