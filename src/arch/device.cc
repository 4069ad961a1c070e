#include "arch/device.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hh"
#include "common/strings.hh"
#include "ir/fingerprint.hh"

namespace qompress {

namespace {

/** Largest device a calibration may describe; matches the topology
 *  parser's cap so the two untrusted-input paths agree. */
constexpr int kMaxCalibrationUnits = 16384;
constexpr int kMaxCalibrationVersion = 1'000'000'000;

/** Strict non-negative integer token: digits only, bounded width. */
int
calInt(const std::string &tok, const char *field, const std::string &what,
       int lineno, int max_value)
{
    QFATAL_IF(tok.empty() || tok.size() > 10 ||
                  tok.find_first_not_of("0123456789") != std::string::npos,
              "calibration ", what, " line ", lineno, ": malformed ",
              field, " '", tok, "'");
    errno = 0;
    const long v = std::strtol(tok.c_str(), nullptr, 10);
    QFATAL_IF(errno != 0 || v > max_value, "calibration ", what, " line ",
              lineno, ": ", field, " ", tok, " out of range [0, ",
              max_value, "]");
    return static_cast<int>(v);
}

/** Strict finite double token (full-token parse; NaN/inf rejected). */
double
calDouble(const std::string &tok, const char *field,
          const std::string &what, int lineno)
{
    QFATAL_IF(tok.empty() || tok.size() > 48, "calibration ", what,
              " line ", lineno, ": malformed ", field, " '", tok, "'");
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(tok.c_str(), &end);
    QFATAL_IF(end != tok.c_str() + tok.size() || errno == ERANGE,
              "calibration ", what, " line ", lineno, ": malformed ",
              field, " '", tok, "'");
    QFATAL_IF(!std::isfinite(v), "calibration ", what, " line ", lineno,
              ": non-finite ", field, " '", tok, "'");
    return v;
}

/** A T1 time must be a positive, physically plausible nanosecond
 *  count; zero or negative would divide-by-zero the decay model. */
double
calT1(const std::string &tok, const char *field, const std::string &what,
      int lineno)
{
    const double v = calDouble(tok, field, what, lineno);
    QFATAL_IF(v <= 0.0 || v > 1e15, "calibration ", what, " line ",
              lineno, ": ", field, " must be in (0, 1e15] ns, got ", v);
    return v;
}

/** The literal field-name token each value must be introduced by. */
void
calExpect(const std::string &tok, const char *field,
          const std::string &what, int lineno)
{
    QFATAL_IF(tok != field, "calibration ", what, " line ", lineno,
              ": expected '", field, "', got '", tok, "'");
}

} // namespace

std::uint64_t
DeviceCalibration::edgeKey(UnitId u, UnitId v)
{
    const std::uint64_t lo = static_cast<std::uint64_t>(std::min(u, v));
    const std::uint64_t hi = static_cast<std::uint64_t>(std::max(u, v));
    return (lo << 32) | hi;
}

const DeviceCalibration::Edge *
DeviceCalibration::edge(UnitId u, UnitId v) const
{
    const auto it = edges.find(edgeKey(u, v));
    return it == edges.end() ? nullptr : &it->second;
}

void
DeviceCalibration::setEdge(UnitId u, UnitId v, double fidelity_scale,
                           double duration_scale)
{
    edges[edgeKey(u, v)] = Edge{fidelity_scale, duration_scale};
}

DeviceCalibration
DeviceCalibration::uniform(std::string device, int units,
                           double t1_qubit_ns, double t1_ququart_ns,
                           double readout_error)
{
    QFATAL_IF(units < 1 || units > kMaxCalibrationUnits,
              "calibration unit count ", units, " out of range [1, ",
              kMaxCalibrationUnits, "]");
    DeviceCalibration cal;
    cal.device = std::move(device);
    cal.t1QubitNs.assign(static_cast<std::size_t>(units), t1_qubit_ns);
    cal.t1QuquartNs.assign(static_cast<std::size_t>(units),
                           t1_ququart_ns);
    cal.readoutError.assign(static_cast<std::size_t>(units),
                            readout_error);
    return cal;
}

DeviceCalibration
DeviceCalibration::parse(const std::string &text, const std::string &what)
{
    DeviceCalibration cal;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    bool saw_header = false;
    bool saw_device = false;
    bool saw_version = false;
    int units = -1; // -1 until the `units` directive
    std::vector<bool> seen_unit;

    while (std::getline(in, line)) {
        ++lineno;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        std::vector<std::string> tok;
        for (std::string t; ls >> t;)
            tok.push_back(std::move(t));
        if (tok.empty())
            continue;

        if (!saw_header) {
            QFATAL_IF(tok.size() != 2 || tok[0] != "qcal" ||
                          tok[1] != "1",
                      "calibration ", what, " line ", lineno,
                      ": expected header 'qcal 1'");
            saw_header = true;
            continue;
        }
        if (tok[0] == "device") {
            QFATAL_IF(saw_device, "calibration ", what, " line ", lineno,
                      ": duplicate 'device' directive");
            QFATAL_IF(tok.size() != 2, "calibration ", what, " line ",
                      lineno, ": expected 'device <name>'");
            cal.device = tok[1];
            saw_device = true;
            continue;
        }
        if (tok[0] == "version") {
            QFATAL_IF(saw_version, "calibration ", what, " line ", lineno,
                      ": duplicate 'version' directive");
            QFATAL_IF(tok.size() != 2, "calibration ", what, " line ",
                      lineno, ": expected 'version <n>'");
            cal.version = calInt(tok[1], "version", what, lineno,
                                 kMaxCalibrationVersion);
            QFATAL_IF(cal.version < 1, "calibration ", what, " line ",
                      lineno, ": version must be >= 1");
            saw_version = true;
            continue;
        }
        if (tok[0] == "units") {
            QFATAL_IF(units >= 0, "calibration ", what, " line ", lineno,
                      ": duplicate 'units' directive");
            QFATAL_IF(tok.size() != 2, "calibration ", what, " line ",
                      lineno, ": expected 'units <n>'");
            units = calInt(tok[1], "units", what, lineno,
                           kMaxCalibrationUnits);
            QFATAL_IF(units < 1, "calibration ", what, " line ", lineno,
                      ": need >= 1 unit");
            cal.t1QubitNs.assign(static_cast<std::size_t>(units), 0.0);
            cal.t1QuquartNs.assign(static_cast<std::size_t>(units), 0.0);
            cal.readoutError.assign(static_cast<std::size_t>(units), 0.0);
            seen_unit.assign(static_cast<std::size_t>(units), false);
            continue;
        }
        if (tok[0] == "unit") {
            QFATAL_IF(units < 0, "calibration ", what, " line ", lineno,
                      ": 'unit' before 'units <n>'");
            QFATAL_IF(tok.size() != 8, "calibration ", what, " line ",
                      lineno,
                      ": expected 'unit <id> t1q <ns> t1qq <ns> ro <e>'");
            const int u = calInt(tok[1], "unit id", what, lineno,
                                 kMaxCalibrationUnits);
            QFATAL_IF(u >= units, "calibration ", what, " line ", lineno,
                      ": unit ", u, " out of range [0, ", units, ")");
            QFATAL_IF(seen_unit[static_cast<std::size_t>(u)],
                      "calibration ", what, " line ", lineno,
                      ": duplicate calibration for unit ", u);
            calExpect(tok[2], "t1q", what, lineno);
            cal.t1QubitNs[static_cast<std::size_t>(u)] =
                calT1(tok[3], "t1q", what, lineno);
            calExpect(tok[4], "t1qq", what, lineno);
            cal.t1QuquartNs[static_cast<std::size_t>(u)] =
                calT1(tok[5], "t1qq", what, lineno);
            calExpect(tok[6], "ro", what, lineno);
            const double ro = calDouble(tok[7], "ro", what, lineno);
            QFATAL_IF(ro < 0.0 || ro >= 1.0, "calibration ", what,
                      " line ", lineno,
                      ": readout error must be in [0, 1), got ", ro);
            cal.readoutError[static_cast<std::size_t>(u)] = ro;
            seen_unit[static_cast<std::size_t>(u)] = true;
            continue;
        }
        if (tok[0] == "edge") {
            QFATAL_IF(units < 0, "calibration ", what, " line ", lineno,
                      ": 'edge' before 'units <n>'");
            QFATAL_IF(tok.size() != 7, "calibration ", what, " line ",
                      lineno,
                      ": expected 'edge <u> <v> fid <f> dur <d>'");
            const int u = calInt(tok[1], "edge unit", what, lineno,
                                 kMaxCalibrationUnits);
            const int v = calInt(tok[2], "edge unit", what, lineno,
                                 kMaxCalibrationUnits);
            QFATAL_IF(u >= units || v >= units, "calibration ", what,
                      " line ", lineno, ": edge (", u, ", ", v,
                      ") names a unit out of range [0, ", units, ")");
            QFATAL_IF(u == v, "calibration ", what, " line ", lineno,
                      ": self-edge on unit ", u);
            QFATAL_IF(cal.edges.count(edgeKey(u, v)) != 0, "calibration ",
                      what, " line ", lineno, ": duplicate edge (", u,
                      ", ", v, ")");
            calExpect(tok[3], "fid", what, lineno);
            const double fid = calDouble(tok[4], "fid", what, lineno);
            QFATAL_IF(fid <= 0.0 || fid > 1.0, "calibration ", what,
                      " line ", lineno,
                      ": fid scale must be in (0, 1], got ", fid);
            calExpect(tok[5], "dur", what, lineno);
            const double dur = calDouble(tok[6], "dur", what, lineno);
            QFATAL_IF(dur <= 0.0 || dur > 1000.0, "calibration ", what,
                      " line ", lineno,
                      ": dur scale must be in (0, 1000], got ", dur);
            cal.setEdge(u, v, fid, dur);
            continue;
        }
        QFATAL("calibration ", what, " line ", lineno,
               ": unknown directive '", tok[0], "'");
    }

    QFATAL_IF(!saw_header, "calibration ", what,
              ": empty input (expected 'qcal 1' header)");
    QFATAL_IF(!saw_device, "calibration ", what,
              ": missing 'device <name>' directive");
    QFATAL_IF(units < 0, "calibration ", what,
              ": missing 'units <n>' directive");
    for (int u = 0; u < units; ++u) {
        QFATAL_IF(!seen_unit[static_cast<std::size_t>(u)], "calibration ",
                  what, ": truncated record -- unit ", u,
                  " was never calibrated");
    }
    return cal;
}

DeviceCalibration
DeviceCalibration::fromFile(const std::string &path)
{
    std::ifstream in(path);
    QFATAL_IF(!in, "cannot open calibration file '", path, "'");
    std::ostringstream body;
    body << in.rdbuf();
    return parse(body.str(), path);
}

std::string
DeviceCalibration::toText() const
{
    std::string out = "qcal 1\n";
    out += format("device %s\n", device.c_str());
    out += format("version %d\n", version);
    out += format("units %d\n", numUnits());
    for (int u = 0; u < numUnits(); ++u) {
        out += format("unit %d t1q %.17g t1qq %.17g ro %.17g\n", u,
                      t1QubitNs[static_cast<std::size_t>(u)],
                      t1QuquartNs[static_cast<std::size_t>(u)],
                      readoutError[static_cast<std::size_t>(u)]);
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(edges.size());
    for (const auto &[k, e] : edges) {
        (void)e;
        keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::uint64_t k : keys) {
        const Edge &e = edges.at(k);
        out += format("edge %d %d fid %.17g dur %.17g\n",
                      static_cast<int>(k >> 32),
                      static_cast<int>(k & 0xffffffffu), e.fidelityScale,
                      e.durationScale);
    }
    return out;
}

std::uint64_t
DeviceCalibration::fingerprint() const
{
    Fingerprinter f;
    f.mixString("qcal");
    f.mixString(device);
    f.mixI32(version);
    f.mixI32(numUnits());
    for (const double v : t1QubitNs)
        f.mixDouble(v);
    for (const double v : t1QuquartNs)
        f.mixDouble(v);
    for (const double v : readoutError)
        f.mixDouble(v);
    std::vector<std::uint64_t> keys;
    keys.reserve(edges.size());
    for (const auto &[k, e] : edges) {
        (void)e;
        keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    f.mixU64(keys.size());
    for (const std::uint64_t k : keys) {
        const Edge &e = edges.at(k);
        f.mixU64(k);
        f.mixDouble(e.fidelityScale);
        f.mixDouble(e.durationScale);
    }
    return f.value();
}

bool
DeviceCalibration::operator==(const DeviceCalibration &o) const
{
    return device == o.device && version == o.version &&
           t1QubitNs == o.t1QubitNs && t1QuquartNs == o.t1QuquartNs &&
           readoutError == o.readoutError && edges == o.edges;
}

// ------------------------------------------------------------------
// DeviceRegistry
// ------------------------------------------------------------------

DeviceRegistry::DeviceRegistry()
{
    add("falcon27", Topology::falcon27());
    add("heavyhex23", Topology::heavyHex(3, 7));
    add("heavyhex65", Topology::heavyHex65());
    add("heavyhex127", Topology::heavyHex(7, 15));
    add("ring65", Topology::ring(65));
    add("grid64", Topology::gridExplicit(8, 8));
}

std::vector<DeviceInfo>
DeviceRegistry::info() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<DeviceInfo> out;
    out.reserve(devices_.size());
    for (const auto &[name, dev] : devices_) {
        out.push_back({name, dev.topology.numUnits(),
                       dev.topology.numEdges(),
                       dev.calibration != nullptr, dev.calVersion});
    }
    return out;
}

void
DeviceRegistry::failUnknownLocked(const std::string &name) const
{
    std::vector<std::string> valid;
    valid.reserve(devices_.size());
    for (const auto &[n, dev] : devices_) {
        (void)dev;
        valid.push_back(n);
    }
    QFATAL("unknown device '", name, "'; registered devices: ",
           join(valid, ", "));
}

Device
DeviceRegistry::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = devices_.find(name);
    if (it == devices_.end())
        failUnknownLocked(name);
    return it->second;
}

void
DeviceRegistry::add(const std::string &name, Topology topo)
{
    QFATAL_IF(name.empty(), "device name must not be empty");
    std::lock_guard<std::mutex> lk(mu_);
    QFATAL_IF(devices_.count(name) != 0, "device '", name,
              "' is already registered");
    devices_.emplace(name,
                     Device{name, std::move(topo), nullptr, 0});
}

void
DeviceRegistry::addFromFile(const std::string &name,
                            const std::string &path)
{
    // Re-wrap under the device's name so two devices loaded from the
    // same file (or renamed files with the same coupling) are still
    // distinguishable by topology fingerprint only through content.
    const Topology loaded = Topology::fromFile(path);
    add(name, Topology(loaded.graph(), name));
}

std::uint64_t
DeviceRegistry::setCalibration(const std::string &name,
                               DeviceCalibration cal)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = devices_.find(name);
    if (it == devices_.end())
        failUnknownLocked(name);
    Device &dev = it->second;
    QFATAL_IF(!cal.device.empty() && cal.device != name, "calibration is "
              "for device '", cal.device, "', not '", name, "'");
    QFATAL_IF(cal.numUnits() != dev.topology.numUnits(), "calibration "
              "covers ", cal.numUnits(), " units but device '", name,
              "' has ", dev.topology.numUnits());
    for (const auto &[key, e] : cal.edges) {
        (void)e;
        const UnitId u = static_cast<UnitId>(key >> 32);
        const UnitId v = static_cast<UnitId>(key & 0xffffffffu);
        QFATAL_IF(!dev.topology.adjacent(u, v), "calibration edge (", u,
                  ", ", v, ") is not a coupling of device '", name, "'");
    }
    dev.calibration =
        std::make_shared<const DeviceCalibration>(std::move(cal));
    return ++dev.calVersion;
}

} // namespace qompress
