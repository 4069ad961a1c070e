/**
 * @file
 * Success-probability pricing of physical operations (paper Eq. 4 and
 * section 6.1.1): S(i,j,g) = F(g) * exp(-T(g)/T1_i) * exp(-T(g)/T1_j),
 * with -log S as the additive path cost used by mapping and routing.
 */

#ifndef QOMPRESS_COMPILER_COST_MODEL_HH
#define QOMPRESS_COMPILER_COST_MODEL_HH

#include <cstdint>
#include <unordered_map>

#include "arch/expanded_graph.hh"
#include "arch/gate_library.hh"
#include "compiler/layout.hh"
#include "graph/algorithms.hh"

namespace qompress {

struct DeviceCalibration;

/**
 * Prices gates and swap paths against a layout's current encoding
 * state. The model holds references only; callers own the pieces.
 *
 * With a DeviceCalibration the per-unit T1 arrays replace the two
 * GateLibrary constants in every decay term, and cross-unit gates pick
 * up the coupling's fidelity/duration scales. A null calibration is
 * the uncalibrated device and prices bit-identically to the
 * calibration-free model (differentially pinned by tests/test_device).
 */
class CostModel
{
  public:
    CostModel(const ExpandedGraph &xg, const GateLibrary &lib,
              double through_ququart_penalty = 1.25,
              const DeviceCalibration *cal = nullptr);

    /** Success probability of one gate of class @p c on the units of
     *  @p a (and @p b if two-unit), given the current layout. */
    double gateSuccess(PhysGateClass c, SlotId a, SlotId b,
                       const Layout &layout) const;

    /** -log success of a SWAP across expanded-graph edge (a, b). */
    double swapCost(SlotId a, SlotId b, const Layout &layout) const;

    /**
     * Routing edge cost: swapCost with the avoid-through-ququarts
     * penalty applied when the hop displaces a qubit of an encoded
     * unit (paper section 4.2's second routing constraint). @p into is
     * the slot whose occupant gets displaced. Infinite when @p into is
     * unoccupied (routing never creates encodings).
     */
    double routingHopCost(SlotId from, SlotId into,
                          const Layout &layout) const;

    /** -log success of a CX with control slot @p ctl, target @p tgt. */
    double cxCost(SlotId ctl, SlotId tgt, const Layout &layout) const;

    /**
     * Mapping distance field from @p source: Dijkstra over the
     * expanded graph with swap-cost edges priced by the current
     * encoding state (empty slots traversable at bare-qubit prices --
     * the optimistic assumption used during placement).
     */
    ShortestPaths mappingDistances(SlotId source,
                                   const Layout &layout) const;

    /**
     * Routing distance field from @p source: like mappingDistances but
     * restricted to occupied slots and with the through-ququart
     * penalty (used to pick SWAP paths).
     */
    ShortestPaths routingDistances(SlotId source,
                                   const Layout &layout) const;

    /** -log success of a SWAP4 exchanging the full contents of
     *  coupled units @p u and @p v (the FQ baseline's only routing
     *  move). Depends on the layout only through the encoded state of
     *  the two endpoint units. */
    double swap4Cost(UnitId u, UnitId v, const Layout &layout) const;

    /**
     * Unit-level distance field from @p source over the topology
     * coupling graph with SWAP4 edge costs (the FQ baseline's routing
     * metric; every qubit-level strategy uses the slot-level fields
     * above instead).
     */
    ShortestPaths unitDistances(UnitId source, const Layout &layout) const;

    const ExpandedGraph &expanded() const { return *xg_; }
    const GateLibrary &library() const { return *lib_; }
    double throughQuquartPenalty() const { return penalty_; }

    /** The active calibration, or nullptr when uncalibrated. */
    const DeviceCalibration *calibration() const { return cal_; }

  private:
    double unitDecay(UnitId u, double duration,
                     const Layout &layout) const;

    const ExpandedGraph *xg_;
    const GateLibrary *lib_;
    double penalty_;
    const DeviceCalibration *cal_;
};

/**
 * Memoized Dijkstra distance fields with partial invalidation.
 *
 * Every mapping/routing edge cost is a pure function of per-unit
 * occupancy signatures (Layout::unitSignature): routing costs read the
 * full signature (which slot of a unit is occupied gates traversal),
 * while mapping and unit-level SWAP4 costs read only the encoded bit
 * (signature == 3). Each cached field is stamped with the layout's
 * (instanceId, costVersion) and a snapshot of all unit signatures.
 *
 * Lookup is a three-tier check:
 *  1. identical (id, version) stamp -- O(1) hit (the common case
 *     inside routing, where occupied<->occupied SWAPs never bump the
 *     version);
 *  2. stamp moved -- revalidate by scanning units, skipping any whose
 *     Layout::unitEpoch() has not advanced past the stamp (the
 *     per-node dirty epoch) and comparing only the signature bits the
 *     field's family depends on for the rest. A placement that does
 *     not flip a unit's encoded bit therefore leaves every mapping
 *     field valid -- the case that made whole-cache version keying
 *     thrash inside mapCircuit and progressive pairing;
 *  3. a depended-on bit actually changed -- recompute (a miss).
 *
 * Because revalidation compares semantic signatures, one cache can be
 * shared across distinct Layout instances (progressive pairing remaps
 * from scratch each round; the exhaustive strategy compiles hundreds
 * of candidate layouts) and still never serves a stale field.
 *
 * The cache must not outlive mutations of the underlying GateLibrary's
 * durations/fidelities or of the calibration (sensitivity sweeps,
 * calibration installs): those change edge costs without changing any
 * occupancy, so no stamp would notice. Scope one cache per set of
 * pricing inputs, as CompileContext does. The service pools contexts
 * by the fingerprint of their topology, library and config, so a
 * calibration install reaches compiles as a different context, never
 * as a mutation of a live one.
 */
class DistanceFieldCache
{
  public:
    explicit DistanceFieldCache(const CostModel &cost) : cost_(&cost) {}

    /** Cached CostModel::routingDistances. The reference stays valid
     *  until the entry for @p source is recomputed. */
    const ShortestPaths &routing(SlotId source, const Layout &layout);

    /** Cached CostModel::mappingDistances. */
    const ShortestPaths &mapping(SlotId source, const Layout &layout);

    /** Cached CostModel::unitDistances (FQ's SWAP4 routing metric). */
    const ShortestPaths &unit(UnitId source, const Layout &layout);

    /** @name Effectiveness counters (reported by bench_hotpaths and
     *  asserted by the invalidation stress tests). A lookup is exactly
     *  one of: hit (valid stamp), revalidation (stamp moved but no
     *  depended-on signature bit changed; also counted as a hit), or
     *  miss (recompute). @{ */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t revalidations() const { return revalidations_; }
    /** @} */

  private:
    /** Which signature bits a field family's edge costs consume. */
    enum class Relevance
    {
        Occupancy, ///< full per-slot occupancy (routing fields)
        Encoding,  ///< encoded bit only (mapping and SWAP4 fields)
    };

    struct Entry
    {
        std::uint64_t layoutId = 0;
        std::uint64_t version = 0;
        /** Per-unit occupancy signature at the stamp. */
        std::vector<std::uint8_t> snap;
        ShortestPaths field;
    };

    template <typename Compute>
    const ShortestPaths &lookup(std::unordered_map<int, Entry> &entries,
                                int source, const Layout &layout,
                                Relevance rel, const Compute &compute);

    bool entryStillValid(const Entry &e, const Layout &layout,
                         Relevance rel) const;
    static void stamp(Entry &e, const Layout &layout);

    const CostModel *cost_;
    std::unordered_map<int, Entry> routing_;
    std::unordered_map<int, Entry> mapping_;
    std::unordered_map<int, Entry> unit_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t revalidations_ = 0;
};

} // namespace qompress

#endif // QOMPRESS_COMPILER_COST_MODEL_HH
