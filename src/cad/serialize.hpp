/// \file
/// Stable binary serialization of CAD stage artifacts — the encoding layer
/// behind the ArtifactStore's on-disk tier (cad/artifact.hpp).
///
/// Format rules:
///  - every field is little-endian and fixed-width (u8/u32/u64/i64/f64);
///    container sizes are u64 prefixes;
///  - unordered containers are emitted in sorted order, so encoding equal
///    values always yields identical bytes — the disk tier's
///    content-addressing and the bit-identity CI gates rest on this;
///  - decoders validate as they go and throw base::Error on any structural
///    problem (truncation, impossible sizes, arch sanity). The store maps
///    every decode failure to a cache miss, never a crash.
///
/// Versioning: the store prefixes each blob with its format version and a
/// payload checksum (ArtifactStore::kDiskFormatVersion). Whenever an
/// encoder here changes shape, bump that version — old blobs then degrade
/// to misses and are rewritten on the next publish.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cad/artifact.hpp"
#include "core/archspec.hpp"
#include "netlist/netlist.hpp"
#include "netlist/truthtable.hpp"

namespace afpga::cad {

/// Appends little-endian fixed-width fields to a byte buffer.
class BlobWriter {
public:
    void u8(std::uint8_t v);    ///< one byte
    void u32(std::uint32_t v);  ///< 4 bytes, little-endian
    void u64(std::uint64_t v);  ///< 8 bytes, little-endian
    void i64(std::int64_t v);   ///< 8 bytes, little-endian two's complement
    /// Exact bit pattern (bit_cast through u64); NaNs round-trip.
    void f64(double v);
    void boolean(bool v);  ///< one byte, 0 or 1
    /// u64 length prefix + raw bytes.
    void str(std::string_view s);

    /// Everything appended so far.
    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
    /// Move the buffer out (the writer is spent afterwards).
    [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(bytes_); }

private:
    std::vector<std::uint8_t> bytes_;
};

/// Consumes fields written by BlobWriter; throws base::Error on overrun.
class BlobReader {
public:
    /// Reads from `bytes`, which must outlive the reader.
    explicit BlobReader(const std::vector<std::uint8_t>& bytes)
        : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

    [[nodiscard]] std::uint8_t u8();    ///< one byte
    [[nodiscard]] std::uint32_t u32();  ///< 4 bytes, little-endian
    [[nodiscard]] std::uint64_t u64();  ///< 8 bytes, little-endian
    [[nodiscard]] std::int64_t i64();   ///< 8 bytes, little-endian two's complement
    [[nodiscard]] double f64();         ///< exact bit pattern (NaNs round-trip)
    [[nodiscard]] bool boolean();       ///< throws on any byte other than 0/1
    [[nodiscard]] std::string str();    ///< u64 length prefix + raw bytes

    /// Bytes not yet consumed (for count-sanity checks before reserving).
    [[nodiscard]] std::size_t remaining() const noexcept {
        return static_cast<std::size_t>(end_ - p_);
    }
    /// Throws unless every byte was consumed (trailing garbage = corrupt).
    void expect_end() const;

private:
    const std::uint8_t* need(std::size_t n);

    const std::uint8_t* p_;
    const std::uint8_t* end_;
};

/// ArchSpec round-trip (used by the BitstreamArtifact codec so a blob can
/// be decoded without external context). decode_arch() validates the
/// decoded spec and throws base::Error on nonsense parameters.
void encode_arch(const core::ArchSpec& arch, BlobWriter& w);
[[nodiscard]] core::ArchSpec decode_arch(BlobReader& r);

namespace detail {
// Element codecs shared by the artifact codecs here and the wire codecs
// (cad/wire), so both speak one byte format for net ids, truth tables and
// container counts.

/// A net id as its u32 index.
void put_netid(BlobWriter& w, netlist::NetId id);
/// Inverse of put_netid (range checks are the consumer's business).
[[nodiscard]] netlist::NetId get_netid(BlobReader& r);
/// u64 arity, then the rows packed 64 per u64 word (row m = bit m % 64 of
/// word m / 64).
void put_tt(BlobWriter& w, const netlist::TruthTable& tt);
/// Inverse of put_tt; throws base::Error on an arity above
/// TruthTable::kMaxArity.
[[nodiscard]] netlist::TruthTable get_tt(BlobReader& r);
/// A u64 container count that must be realizable within the remaining
/// payload, every element taking at least `min_elem_bytes` (>= 1): corrupt
/// counts throw base::Error before any large allocation.
[[nodiscard]] std::size_t get_count(BlobReader& r, std::size_t min_elem_bytes);

/// Shared blob entry points layered over each codec's encode/decode:
/// encode_blob yields the full payload, decode_blob additionally requires
/// the payload to be fully consumed.
template <typename T, typename Codec>
struct BlobCodecBase {
    /// Encode `v` into a fresh byte buffer.
    [[nodiscard]] static std::vector<std::uint8_t> encode_blob(const T& v) {
        BlobWriter w;
        Codec::encode(v, w);
        return std::move(w).take();
    }
    /// Decode a full payload; throws base::Error on corruption or
    /// trailing bytes.
    [[nodiscard]] static T decode_blob(const std::vector<std::uint8_t>& bytes) {
        BlobReader r(bytes);
        T v = Codec::decode(r);
        r.expect_end();
        return v;
    }
};
}  // namespace detail

// Each stage product's codec. kTypeId is embedded in the disk-blob header
// (a cross-type read is a miss, not a decode of the wrong shape);
// approx_bytes is the coarse, stable in-memory footprint estimate the
// store's byte budget accounts in.

/// Techmap-product codec.
template <>
struct ArtifactCodec<MappedDesign>
    : detail::BlobCodecBase<MappedDesign, ArtifactCodec<MappedDesign>> {
    static constexpr std::uint32_t kTypeId = 1;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const MappedDesign& v) noexcept;
    static void encode(const MappedDesign& v, BlobWriter& w);  ///< append `v` to `w`
    [[nodiscard]] static MappedDesign decode(BlobReader& r);   ///< throws on corruption
};

/// Pack-product codec.
template <>
struct ArtifactCodec<PackedDesign>
    : detail::BlobCodecBase<PackedDesign, ArtifactCodec<PackedDesign>> {
    static constexpr std::uint32_t kTypeId = 2;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const PackedDesign& v) noexcept;
    static void encode(const PackedDesign& v, BlobWriter& w);  ///< append `v` to `w`
    [[nodiscard]] static PackedDesign decode(BlobReader& r);   ///< throws on corruption
};

/// Placement-product codec.
template <>
struct ArtifactCodec<Placement> : detail::BlobCodecBase<Placement, ArtifactCodec<Placement>> {
    static constexpr std::uint32_t kTypeId = 3;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const Placement& v) noexcept;
    static void encode(const Placement& v, BlobWriter& w);  ///< append `v` to `w`
    [[nodiscard]] static Placement decode(BlobReader& r);   ///< throws on corruption
};

/// Route-product codec.
template <>
struct ArtifactCodec<RouteArtifact>
    : detail::BlobCodecBase<RouteArtifact, ArtifactCodec<RouteArtifact>> {
    static constexpr std::uint32_t kTypeId = 4;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const RouteArtifact& v) noexcept;
    static void encode(const RouteArtifact& v, BlobWriter& w);  ///< append `v` to `w`
    [[nodiscard]] static RouteArtifact decode(BlobReader& r);   ///< throws on corruption
};

/// Bitstream-product codec. The blob embeds its ArchSpec and reuses
/// core::Bitstream's own serialized form, so decoding re-checks the fabric
/// fingerprint and CRC on top of the store's blob checksum.
template <>
struct ArtifactCodec<BitstreamArtifact>
    : detail::BlobCodecBase<BitstreamArtifact, ArtifactCodec<BitstreamArtifact>> {
    static constexpr std::uint32_t kTypeId = 5;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const BitstreamArtifact& v) noexcept;
    static void encode(const BitstreamArtifact& v, BlobWriter& w);  ///< append `v` to `w`
    [[nodiscard]] static BitstreamArtifact decode(BlobReader& r);   ///< throws on corruption
};

}  // namespace afpga::cad
