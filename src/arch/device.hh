/**
 * @file
 * The device layer: per-device calibration records and a named
 * registry of backends (topology + calibration) the service compiles
 * against.
 *
 * A DeviceCalibration carries what a real backend's daily calibration
 * publishes and the single GateLibrary constants cannot express:
 * per-unit T1 times (qubit and ququart state), per-unit readout error,
 * and per-edge two-unit gate quality (fidelity/duration scale factors
 * on the library's class constants). CostModel, the scheduler, and the
 * metrics pass consume it through CompilerConfig::calibration; a null
 * calibration is the uncalibrated device and prices bit-identically to
 * the pre-calibration code (tests/test_device.cc pins this
 * differentially).
 *
 * The text codec ("qcal") follows the hardened-parser contract the
 * QASM front end established: untrusted input either parses completely
 * or raises FatalError with a line number -- never PanicError, never a
 * partial record. Layout:
 *
 *   qcal 1                      # format header, exactly this
 *   device falcon27             # which backend this calibrates
 *   version 3                   # optional calibration generation (>= 1)
 *   units 27                    # unit count; then one line per unit:
 *   unit 0 t1q 163500 t1qq 54500 ro 0.01
 *   ...
 *   edge 0 1 fid 0.98 dur 1.1   # optional per-coupling scales
 *
 * '#' starts a comment; every unit in [0, units) must be calibrated
 * exactly once; edges are optional, undirected, deduplicated, and must
 * join distinct valid units. fid scales the library fidelity of
 * cross-unit gates on that coupling (in (0, 1]); dur scales their
 * duration (in (0, 1000]).
 *
 * DeviceRegistry maps device names to {topology, calibration,
 * calVersion}. The default zoo covers the paper's evaluation backends
 * plus real-machine shapes: falcon27 (IBM Falcon r5.11 coupling),
 * heavyhex23/65/127 (the heavy-hex family; 65 is the paper's
 * "Ithaca"), ring65, and grid64. Uploading a calibration bumps the
 * device's calVersion and -- because the calibration fingerprint is
 * mixed into the request's config fingerprint -- invalidates exactly
 * the memo/template/disk artifacts priced against the old record.
 */

#ifndef QOMPRESS_ARCH_DEVICE_HH
#define QOMPRESS_ARCH_DEVICE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/topology.hh"
#include "common/types.hh"

namespace qompress {

/** Per-device calibration record; see the file comment for the codec. */
struct DeviceCalibration
{
    /** Multiplicative quality scales for one coupling, applied on top
     *  of the GateLibrary class constants for cross-unit gates. */
    struct Edge
    {
        double fidelityScale = 1.0;
        double durationScale = 1.0;

        bool operator==(const Edge &o) const
        {
            return fidelityScale == o.fidelityScale &&
                   durationScale == o.durationScale;
        }
    };

    /** Backend this record calibrates (matched by the registry). */
    std::string device;

    /** Calibration generation, >= 1 (backends republish daily). */
    int version = 1;

    /** @name Per-unit arrays, all sized numUnits(). @{ */
    std::vector<double> t1QubitNs;   ///< T1 in the bare (qubit) state
    std::vector<double> t1QuquartNs; ///< T1 in the encoded state
    std::vector<double> readoutError; ///< per-qubit readout error in [0, 1)
    /** @} */

    /** Per-coupling scales keyed by edgeKey(); absent = 1.0/1.0. */
    std::unordered_map<std::uint64_t, Edge> edges;

    int numUnits() const { return static_cast<int>(t1QubitNs.size()); }

    /** Canonical undirected key: (min << 32) | max. */
    static std::uint64_t edgeKey(UnitId u, UnitId v);

    /** The scales for coupling (u, v), or nullptr when uncalibrated. */
    const Edge *edge(UnitId u, UnitId v) const;

    void setEdge(UnitId u, UnitId v, double fidelity_scale,
                 double duration_scale);

    /**
     * A calibration assigning every unit the same values -- with the
     * GateLibrary defaults and ro = 0 this is the NEUTRAL record that
     * prices bit-identically to no calibration at all (pinned by
     * tests/test_device.cc).
     */
    static DeviceCalibration uniform(std::string device, int units,
                                     double t1_qubit_ns,
                                     double t1_ququart_ns,
                                     double readout_error = 0.0);

    /** Parse qcal text; @p what names the source in errors (a path,
     *  "request body", ...). @throws FatalError on malformed input. */
    static DeviceCalibration parse(const std::string &text,
                                   const std::string &what);

    /** parse() over a file's contents. @throws FatalError. */
    static DeviceCalibration fromFile(const std::string &path);

    /** Canonical qcal rendering; parse(toText()) round-trips exactly
     *  (doubles are printed with full precision, edges sorted). */
    std::string toText() const;

    /** Content fingerprint: equal exactly when every priced field is
     *  equal. Mixed into the service's config fingerprint, this is
     *  what makes a calibration update a cache-key change. */
    std::uint64_t fingerprint() const;

    bool operator==(const DeviceCalibration &o) const;
};

/** One registered backend: a topology plus its current calibration. */
struct Device
{
    std::string name;
    Topology topology;
    /** Null = uncalibrated (library-constant pricing). */
    std::shared_ptr<const DeviceCalibration> calibration;
    /** Bumped on every setCalibration; 0 = never calibrated. */
    std::uint64_t calVersion = 0;
};

/** Cheap listing row (no topology copy); feeds /devices and /metrics. */
struct DeviceInfo
{
    std::string name;
    int units = 0;
    int edges = 0;
    bool calibrated = false;
    std::uint64_t calVersion = 0;
};

/**
 * Thread-safe name -> Device map. Default-constructed with the zoo
 * described in the file comment; customs join via add()/addFromFile().
 */
class DeviceRegistry
{
  public:
    /** Registers the default zoo. */
    DeviceRegistry();

    /** Listing rows, sorted by name. */
    std::vector<DeviceInfo> info() const;

    /** A snapshot of the device (topology and calibration are copies /
     *  shared immutables -- safe to use without the registry lock).
     *  @throws FatalError for an unknown name, listing valid ones. */
    Device get(const std::string &name) const;

    /** Register a custom backend. @throws FatalError on a duplicate
     *  name or an empty one. */
    void add(const std::string &name, Topology topo);

    /** Register a custom backend from a topology file (see
     *  Topology::fromFile); the device is named @p name regardless of
     *  the file's basename. @throws FatalError. */
    void addFromFile(const std::string &name, const std::string &path);

    /**
     * Install a calibration on a registered device and return its new
     * calVersion. @throws FatalError when the device is unknown, the
     * record's unit count does not match the topology, or the record
     * names a different device.
     */
    std::uint64_t setCalibration(const std::string &name,
                                 DeviceCalibration cal);

  private:
    /** Throw the unknown-device FatalError, listing every registered
     *  name. @pre mu_ is held. */
    [[noreturn]] void failUnknownLocked(const std::string &name) const;

    mutable std::mutex mu_;
    std::map<std::string, Device> devices_;
};

} // namespace qompress

#endif // QOMPRESS_ARCH_DEVICE_HH
