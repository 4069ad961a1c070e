#include "ir/serialize.hh"

#include <cstring>

#include "common/error.hh"
#include "ir/fingerprint.hh"

namespace qompress {

namespace {

/** Decode-side sanity bounds. Far above anything the compiler emits
 *  (the server caps topologies at ~1k units) yet small enough that a
 *  hostile length field cannot make the decoder allocate more than a
 *  few megabytes before a bounds check trips. */
constexpr std::int32_t kMaxLayoutQubits = 1 << 17;
constexpr std::int32_t kMaxLayoutUnits = 1 << 16;
constexpr std::uint8_t kMaxGateSlots = 4;

/** Smallest possible encoded PhysGate (5 u8s, no slots, 5 doubles,
 *  2 i32s); used to bound a declared gate count by the bytes present. */
constexpr std::size_t kMinGateBytes = 5 + 5 * 8 + 2 * 4;

const std::uint32_t *
crcTable()
{
    static const auto table = [] {
        static std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    const std::uint32_t *table = crcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// ------------------------------------------------------------------
// ByteWriter / ByteReader
// ------------------------------------------------------------------

void
ByteWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
ByteWriter::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + n);
}

void
ByteReader::need(std::size_t n)
{
    QFATAL_IF(n > remaining(), what_, " truncated: need ", n,
              " byte(s), have ", remaining());
}

std::uint8_t
ByteReader::u8()
{
    need(1);
    return p_[off_++];
}

std::uint32_t
ByteReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p_[off_ + i]) << (8 * i);
    off_ += 4;
    return v;
}

std::uint64_t
ByteReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p_[off_ + i]) << (8 * i);
    off_ += 8;
    return v;
}

double
ByteReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
ByteReader::str()
{
    const std::uint64_t len = u64();
    need(len); // also rejects len > remaining before any allocation
    std::string s(reinterpret_cast<const char *>(p_ + off_),
                  static_cast<std::size_t>(len));
    off_ += static_cast<std::size_t>(len);
    return s;
}

std::uint64_t
ByteReader::count(std::size_t min_bytes)
{
    const std::uint64_t n = u64();
    QFATAL_IF(min_bytes > 0 && n > remaining() / min_bytes, what_,
              " corrupt: declared count ", n,
              " exceeds what the remaining ", remaining(),
              " byte(s) can hold");
    return n;
}

// ------------------------------------------------------------------
// ArtifactKey
// ------------------------------------------------------------------

std::size_t
ArtifactKeyHash::operator()(const ArtifactKey &k) const
{
    Fingerprinter f;
    f.mixU64(k.circuit);
    f.mixU64(k.topo);
    f.mixU64(k.lib);
    f.mixU64(k.cfg);
    f.mixString(k.strategy);
    return static_cast<std::size_t>(f.value());
}

void
encodeArtifactKey(ByteWriter &w, const ArtifactKey &key)
{
    w.u64(key.circuit);
    w.u64(key.topo);
    w.u64(key.lib);
    w.u64(key.cfg);
    w.str(key.strategy);
}

ArtifactKey
decodeArtifactKey(ByteReader &r)
{
    ArtifactKey key;
    key.circuit = r.u64();
    key.topo = r.u64();
    key.lib = r.u64();
    key.cfg = r.u64();
    key.strategy = r.str();
    return key;
}

// ------------------------------------------------------------------
// CompileResult payload
// ------------------------------------------------------------------

namespace {

void
encodeLayout(ByteWriter &w, const Layout &l)
{
    w.i32(l.numQubits());
    w.i32(l.numUnits());
    for (QubitId q = 0; q < l.numQubits(); ++q)
        w.i32(l.slotOf(q));
}

/**
 * Rebuild a Layout from (numQubits, numUnits, per-qubit slot): the
 * same slotOf/qubitAt maps, and so the same signatures, as the
 * encoded one. Slots are validated (range + no double occupancy)
 * BEFORE place() so hostile bytes surface as FatalError, never as a
 * precondition panic.
 */
Layout
decodeLayout(ByteReader &r)
{
    const std::int32_t nq = r.i32();
    const std::int32_t nu = r.i32();
    QFATAL_IF(nq < 0 || nq > kMaxLayoutQubits, r.what(),
              " corrupt: layout qubit count ", nq, " out of range");
    QFATAL_IF(nu < 0 || nu > kMaxLayoutUnits, r.what(),
              " corrupt: layout unit count ", nu, " out of range");
    QFATAL_IF(static_cast<std::size_t>(nq) * 4 > r.remaining(), r.what(),
              " truncated: layout slot table");
    Layout l(nq, nu);
    std::vector<char> seen(static_cast<std::size_t>(nu) * 2, 0);
    for (QubitId q = 0; q < nq; ++q) {
        const std::int32_t slot = r.i32();
        if (slot == kInvalid)
            continue; // unmapped qubit
        QFATAL_IF(slot < 0 || slot >= nu * 2, r.what(),
                  " corrupt: layout slot ", slot, " out of range");
        QFATAL_IF(seen[static_cast<std::size_t>(slot)], r.what(),
                  " corrupt: layout slot ", slot, " occupied twice");
        seen[static_cast<std::size_t>(slot)] = 1;
        l.place(q, slot);
    }
    return l;
}

void
encodeGate(ByteWriter &w, const PhysGate &g)
{
    w.u8(static_cast<std::uint8_t>(g.cls));
    w.u8(static_cast<std::uint8_t>(g.logical));
    w.u8(static_cast<std::uint8_t>(g.logical2));
    w.u8(g.isRouting ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(g.slots.size()));
    for (const SlotId s : g.slots)
        w.i32(s);
    w.f64(g.param);
    w.f64(g.param2);
    w.i32(g.sourceGate);
    w.i32(g.sourceGate2);
    w.f64(g.start);
    w.f64(g.duration);
    w.f64(g.fidelity);
}

GateType
decodeGateType(ByteReader &r)
{
    const std::uint8_t v = r.u8();
    QFATAL_IF(v > static_cast<std::uint8_t>(GateType::CCX), r.what(),
              " corrupt: logical gate type ", int(v), " out of range");
    return static_cast<GateType>(v);
}

PhysGate
decodeGate(ByteReader &r)
{
    PhysGate g;
    const std::uint8_t cls = r.u8();
    QFATAL_IF(cls >=
                  static_cast<std::uint8_t>(PhysGateClass::NumClasses),
              r.what(), " corrupt: gate class ", int(cls),
              " out of range");
    g.cls = static_cast<PhysGateClass>(cls);
    g.logical = decodeGateType(r);
    g.logical2 = decodeGateType(r);
    const std::uint8_t routing = r.u8();
    QFATAL_IF(routing > 1, r.what(), " corrupt: routing flag ",
              int(routing));
    g.isRouting = routing == 1;
    const std::uint8_t nslots = r.u8();
    QFATAL_IF(nslots > kMaxGateSlots, r.what(),
              " corrupt: gate names ", int(nslots), " slots");
    g.slots.reserve(nslots);
    for (std::uint8_t i = 0; i < nslots; ++i)
        g.slots.push_back(r.i32());
    g.param = r.f64();
    g.param2 = r.f64();
    g.sourceGate = r.i32();
    g.sourceGate2 = r.i32();
    g.start = r.f64();
    g.duration = r.f64();
    g.fidelity = r.f64();
    return g;
}

void
encodePayload(ByteWriter &w, const CompileResult &res)
{
    const CompiledCircuit &cc = res.compiled;
    w.str(cc.name());
    encodeLayout(w, cc.initialLayout());
    encodeLayout(w, cc.finalLayout());
    w.u64(cc.gates().size());
    for (const PhysGate &g : cc.gates())
        encodeGate(w, g);

    const Metrics &m = res.metrics;
    w.f64(m.gateEps);
    w.f64(m.coherenceEps);
    w.f64(m.readoutEps);
    w.f64(m.totalEps);
    w.f64(m.durationNs);
    w.i32(m.numGates);
    w.i32(m.numRoutingGates);
    w.i32(m.numTwoUnitGates);
    w.i32(m.numEncodedUnits);
    w.u64(m.classHistogram.size());
    for (const int c : m.classHistogram)
        w.i32(c);
    w.f64(m.qubitTimeNs);
    w.f64(m.ququartTimeNs);

    w.u64(res.compressions.size());
    for (const Compression &c : res.compressions) {
        w.i32(c.first);
        w.i32(c.second);
    }
}

CompileResult
decodePayload(ByteReader &r)
{
    CompileResult res;
    const std::string name = r.str();
    Layout initial = decodeLayout(r);
    Layout final_ = decodeLayout(r);
    CompiledCircuit cc(std::move(initial), name);
    cc.setFinalLayout(std::move(final_));
    const std::uint64_t ngates = r.count(kMinGateBytes);
    for (std::uint64_t i = 0; i < ngates; ++i)
        cc.add(decodeGate(r));
    res.compiled = std::move(cc);

    Metrics &m = res.metrics;
    m.gateEps = r.f64();
    m.coherenceEps = r.f64();
    m.readoutEps = r.f64();
    m.totalEps = r.f64();
    m.durationNs = r.f64();
    m.numGates = r.i32();
    m.numRoutingGates = r.i32();
    m.numTwoUnitGates = r.i32();
    m.numEncodedUnits = r.i32();
    const std::uint64_t nhist = r.count(4);
    m.classHistogram.reserve(static_cast<std::size_t>(nhist));
    for (std::uint64_t i = 0; i < nhist; ++i)
        m.classHistogram.push_back(r.i32());
    m.qubitTimeNs = r.f64();
    m.ququartTimeNs = r.f64();

    const std::uint64_t ncomp = r.count(8);
    res.compressions.reserve(static_cast<std::size_t>(ncomp));
    for (std::uint64_t i = 0; i < ncomp; ++i) {
        Compression c;
        c.first = r.i32();
        c.second = r.i32();
        res.compressions.push_back(c);
    }
    return res;
}

} // namespace

std::vector<std::uint8_t>
encodeCompileResult(const CompileResult &res)
{
    ByteWriter payload;
    encodePayload(payload, res);

    ByteWriter record;
    record.u32(kArtifactMagic);
    record.u32(kArtifactFormatVersion);
    record.u64(payload.size());
    record.u32(crc32(payload.data().data(), payload.size()));
    record.bytes(payload.data().data(), payload.size());
    return record.take();
}

CompileResult
decodeCompileResult(const std::uint8_t *data, std::size_t n)
{
    ByteReader header(data, n, "artifact record");
    QFATAL_IF(n < kArtifactHeaderBytes,
              "artifact record truncated: ", n,
              " byte(s) is smaller than the ", kArtifactHeaderBytes,
              "-byte header");
    const std::uint32_t magic = header.u32();
    QFATAL_IF(magic != kArtifactMagic,
              "artifact record has wrong magic ", magic);
    const std::uint32_t version = header.u32();
    QFATAL_IF(version != kArtifactFormatVersion,
              "artifact record has unsupported format version ",
              version, " (this build reads version ",
              kArtifactFormatVersion, ")");
    const std::uint64_t payload_len = header.u64();
    const std::uint32_t declared_crc = header.u32();
    QFATAL_IF(payload_len != n - kArtifactHeaderBytes,
              "artifact record corrupt: declared payload of ",
              payload_len, " byte(s), found ",
              n - kArtifactHeaderBytes);
    const std::uint8_t *payload = data + kArtifactHeaderBytes;
    const std::uint32_t actual_crc =
        crc32(payload, static_cast<std::size_t>(payload_len));
    QFATAL_IF(actual_crc != declared_crc,
              "artifact record corrupt: checksum mismatch (stored ",
              declared_crc, ", computed ", actual_crc, ")");

    ByteReader r(payload, static_cast<std::size_t>(payload_len),
                 "artifact record");
    CompileResult res = decodePayload(r);
    QFATAL_IF(!r.atEnd(), "artifact record corrupt: ", r.remaining(),
              " trailing byte(s) after payload");
    return res;
}

} // namespace qompress
