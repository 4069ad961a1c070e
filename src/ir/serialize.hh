/**
 * @file
 * Versioned binary serialization for compiled artifacts.
 *
 * The persistence contract behind the service's disk tier: a
 * CompileResult encodes to one self-describing record --
 *
 *   [u32 magic "QCR1"] [u32 format version] [u64 payload length]
 *   [u32 CRC-32 of payload] [payload]
 *
 * -- and decodes back bit-identically. Doubles travel as raw IEEE-754
 * bits (the sign of zero, denormals, and NaN payloads all round-trip;
 * the same lesson circuitFingerprint already encodes), integers as
 * fixed-width little-endian, variable-length runs behind a length
 * prefix that is validated against the bytes actually present before
 * anything is allocated.
 *
 * Decoding fronts untrusted bytes (a store file another process or a
 * crash may have mangled), so every failure -- truncation, bad magic,
 * unsupported version, checksum mismatch, out-of-range enum, oversized
 * declared length, trailing garbage -- is a structured FatalError.
 * decodeCompileResult never throws PanicError, never crashes, and
 * never allocates more than the input buffer justifies.
 *
 * Versioning contract: kArtifactFormatVersion names the record layout
 * and the compiler that filled it. Any change to the payload encoding
 * (field added, reordered, widened) MUST bump it, and so must a change
 * to what a compile emits for an existing key (a record keyed by the
 * same inputs would otherwise keep serving the old output). Decoders
 * reject other versions outright rather than guessing, and the
 * artifact store treats a version mismatch as "start cold" (artifacts
 * are caches of deterministic compiles, so dropping them is always
 * safe).
 *
 * ArtifactKey lives here too: the on-disk identity of a record is the
 * same four component content fingerprints + strategy name the
 * service's memo tier keys on (see compiler_service.hh), so the two
 * tiers can never disagree about what a stored artifact is for.
 */

#ifndef QOMPRESS_IR_SERIALIZE_HH
#define QOMPRESS_IR_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compiler/pipeline.hh"

namespace qompress {

/** Record magic: "QCR1" as little-endian bytes. */
constexpr std::uint32_t kArtifactMagic = 0x31524351u;

/** Bump on ANY payload layout change, or on a change to what a
 *  compile emits for an existing key (see the file comment).
 *  v2: Metrics grew readoutEps (device calibration pricing).
 *  v3: fq schedules and prices with the device calibration. */
constexpr std::uint32_t kArtifactFormatVersion = 3;

/** Fixed prefix of every record (magic + version + length + CRC). */
constexpr std::size_t kArtifactHeaderBytes = 20;

/** CRC-32 (IEEE 802.3 polynomial, reflected) of @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/**
 * Little-endian byte-buffer writer for record payloads. Strings and
 * byte runs are length-prefixed (u64); doubles are raw bit images.
 */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

    /** Raw IEEE-754 bits: -0.0, denormals and NaNs all round-trip. */
    void f64(double v);

    void bytes(const void *data, std::size_t n);

    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::size_t size() const { return buf_.size(); }
    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over an untrusted byte buffer. Every overrun
 * (including a declared length larger than the bytes remaining) is a
 * FatalError carrying @p what from the constructor, so store-level and
 * record-level failures are distinguishable in error messages.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t n,
               const char *what = "artifact record")
        : p_(data), n_(n), what_(what)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64();
    std::string str();

    /** A declared element count for elements of at least
     *  @p min_bytes each; throws FatalError when the buffer cannot
     *  possibly hold that many (the no-OOM guard). */
    std::uint64_t count(std::size_t min_bytes);

    std::size_t remaining() const { return n_ - off_; }
    bool atEnd() const { return off_ == n_; }
    const char *what() const { return what_; }

  private:
    void need(std::size_t n);

    const std::uint8_t *p_;
    std::size_t n_;
    std::size_t off_ = 0;
    const char *what_;
};

/**
 * The identity of a stored artifact: the memo tier's request key --
 * one 64-bit content fingerprint per compile input component plus the
 * verbatim strategy name (see compiler_service.hh for the collision
 * trade this accepts).
 */
struct ArtifactKey
{
    std::uint64_t circuit = 0;
    std::uint64_t topo = 0;
    std::uint64_t lib = 0;
    std::uint64_t cfg = 0;
    std::string strategy;

    bool operator==(const ArtifactKey &o) const
    {
        return circuit == o.circuit && topo == o.topo && lib == o.lib &&
               cfg == o.cfg && strategy == o.strategy;
    }
};

struct ArtifactKeyHash
{
    std::size_t operator()(const ArtifactKey &k) const;
};

/** Append @p key to @p w (fixed fields + length-prefixed strategy). */
void encodeArtifactKey(ByteWriter &w, const ArtifactKey &key);

/** Inverse of encodeArtifactKey; throws FatalError on truncation. */
ArtifactKey decodeArtifactKey(ByteReader &r);

/** Encode @p res as one framed, checksummed record. */
std::vector<std::uint8_t> encodeCompileResult(const CompileResult &res);

/**
 * Decode one record produced by encodeCompileResult. Bit-exact
 * inverse; throws FatalError on any corruption (see the file comment).
 */
CompileResult decodeCompileResult(const std::uint8_t *data,
                                  std::size_t n);

inline CompileResult
decodeCompileResult(const std::vector<std::uint8_t> &buf)
{
    return decodeCompileResult(buf.data(), buf.size());
}

} // namespace qompress

#endif // QOMPRESS_IR_SERIALIZE_HH
