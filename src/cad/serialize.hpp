/// \file
/// Stable binary serialization: the byte format of the CAD stage artifacts
/// (the ArtifactStore's on-disk tier, cad/artifact.hpp), of the netlist,
/// hints and architecture a served job carries (cad/wire.hpp), and of the
/// bytes every artifact key hashes (cad/fingerprint.hpp).
///
/// A field list defines the format. Every persisted type has one,
/// `fields(io, value)`, naming its fields in byte order; one writer
/// (FieldWriter) and one reader (FieldReader) drive it, so a type's layout
/// is written once and its encoder and decoder cannot disagree. A decoding
/// check (an ArchSpec that validates, a CRC, pads on the fabric) runs in the
/// list under `if constexpr (IO::kDecoding)`.
///
/// Format rules:
///  - every field is little-endian and fixed-width (u8/u32/u64/i64/f64);
///    container sizes are u64 prefixes;
///  - unordered maps are written as (key, value) pairs in ascending key
///    order, so encoding equal values always yields identical bytes — the
///    disk tier's content-addressing and the bit-identity CI gates rest on
///    this;
///  - the reader accepts only the bytes the writer produces for some value:
///    map keys strictly ascending, ints within int, no bits set past the end
///    of a truth table or bit vector. Any accepted blob re-encodes to itself;
///  - the reader validates as it goes and throws base::Error on any
///    structural problem (truncation, impossible sizes, arch sanity). The
///    store maps every decode failure to a cache miss, never a crash.
///
/// Versioning: the store prefixes each blob with its format version and a
/// payload checksum (ArtifactStore::kDiskFormatVersion). Whenever a field
/// list here changes shape, bump that version — old blobs then degrade to
/// misses and are rewritten on the next publish.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asynclib/styles.hpp"
#include "base/bitvector.hpp"
#include "base/check.hpp"
#include "base/ids.hpp"
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

// --- field-list drivers -----------------------------------------------------

// std::size_t fields travel as u64 through the std::uint64_t members.
static_assert(std::is_same_v<std::size_t, std::uint64_t>, "size_t fields need a u64 member");

/// Drives a field list into a BlobWriter. `io(a, b, ...)` writes plain
/// fields: u8, u32, u64 (and so std::size_t), i64, f64, bool, string, an id
/// (as its u32), a truth table or bit vector (u64 size, then 64-bit words),
/// a pair, a fixed array (no count), an optional (a bool, then the value), a
/// vector (u64 count, then the elements), an unordered map (u64 count, then
/// the pairs in ascending key order), or a type with its own field list.
/// The named members carry the fields that need a check on the way in; an
/// int or enum field has no plain form, so it cannot be listed without its
/// check.
class FieldWriter {
public:
    static constexpr bool kDecoding = false;  ///< see FieldReader::kDecoding
    /// Appends to `w`, which must outlive the writer.
    explicit FieldWriter(BlobWriter& w) noexcept : w_(w) {}

    /// Several fields, in order.
    template <typename... Ts>
        requires(sizeof...(Ts) > 1)
    void operator()(const Ts&... vs) {
        ((*this)(vs), ...);
    }
    void operator()(std::uint8_t v) { w_.u8(v); }         ///< 1 byte
    void operator()(std::uint32_t v) { w_.u32(v); }       ///< 4 bytes
    void operator()(std::uint64_t v) { w_.u64(v); }       ///< 8 bytes
    void operator()(std::int64_t v) { w_.i64(v); }        ///< 8 bytes
    void operator()(double v) { w_.f64(v); }              ///< exact bits
    void operator()(bool v) { w_.boolean(v); }            ///< 0 or 1
    void operator()(const std::string& v) { w_.str(v); }  ///< u64 length + bytes
    /// An id as its u32 index.
    template <typename Tag>
    void operator()(base::StrongId<Tag> v) {
        w_.u32(v.value());
    }
    /// u64 arity, then the rows packed 64 per word (row m = bit m % 64 of
    /// word m / 64).
    void operator()(const netlist::TruthTable& v);
    /// u64 size in bits, then the words.
    void operator()(const base::BitVector& v);
    /// First, then second.
    template <typename A, typename B>
    void operator()(const std::pair<A, B>& v) {
        (*this)(v.first, v.second);
    }
    /// The N elements, uncounted.
    template <typename T, std::size_t N>
    void operator()(const std::array<T, N>& v) {
        for (const T& x : v) (*this)(x);
    }
    /// Whether a value follows, then the value.
    template <typename T>
    void operator()(const std::optional<T>& v) {
        w_.boolean(v.has_value());
        if (v) (*this)(*v);
    }
    /// u64 count, then the elements.
    template <typename T>
    void operator()(const std::vector<T>& v) {
        w_.u64(v.size());
        for (const T& x : v) (*this)(x);
    }
    /// u64 count, then the (key, value) pairs in ascending key order.
    template <typename K, typename V>
    void operator()(const std::unordered_map<K, V>& m) {
        std::vector<const std::pair<const K, V>*> items;
        items.reserve(m.size());
        for (const auto& kv : m) items.push_back(&kv);
        std::sort(items.begin(), items.end(),
                  [](const auto* a, const auto* b) { return a->first < b->first; });
        w_.u64(items.size());
        for (const auto* kv : items) (*this)(kv->first, kv->second);
    }
    /// A nested type with its own field list.
    template <typename T>
        requires requires(FieldWriter& io, const T& v) { fields(io, v); }
    void operator()(const T& v) {
        fields(*this, v);
    }

    /// An int as an i64; the reader range-checks it against int by `name`.
    void integer(int v, const char* /*name*/) { w_.i64(v); }
    /// A one-byte tag (an enum or a status value); the reader requires
    /// `lo <= v <= hi`. Writing does not check, so a test can send a bad tag.
    template <typename T>
    void ranged(T v, T /*lo*/, T /*hi*/, const char* /*what*/) {
        static_assert(sizeof(T) == 1, "ranged fields travel as one byte");
        w_.u8(static_cast<std::uint8_t>(v));
    }
    /// A byte string of at most `cap` bytes; both sides enforce the cap.
    void bytes(const std::vector<std::uint8_t>& v, std::size_t cap, const char* what);

private:
    BlobWriter& w_;
};

/// The fewest bytes one `T` encodes to: the encoding of a default `T`, whose
/// containers are empty and whose optionals are absent. FieldReader checks
/// a count against it before reserving, so a corrupt count throws instead
/// of allocating.
template <typename T>
[[nodiscard]] std::size_t min_encoded_bytes() {
    static const std::size_t n = [] {
        BlobWriter w;
        FieldWriter io(w);
        io(T{});
        return std::max<std::size_t>(w.bytes().size(), 1);
    }();
    return n;
}

/// Drives a field list out of a BlobReader, with the same members as
/// FieldWriter; every read throws base::Error on malformed bytes, and on
/// bytes the writer would not produce (see the file comment).
class FieldReader {
public:
    /// True on the decoding side: a field list runs its checks (and the
    /// netlist and the bitstream their validating rebuilds) under
    /// `if constexpr`.
    static constexpr bool kDecoding = true;
    /// Consumes from `r`, which must outlive the reader.
    explicit FieldReader(BlobReader& r) noexcept : r_(r) {}

    /// Several fields, in order.
    template <typename... Ts>
        requires(sizeof...(Ts) > 1)
    void operator()(Ts&... vs) {
        ((*this)(vs), ...);
    }
    void operator()(std::uint8_t& v) { v = r_.u8(); }    ///< 1 byte
    void operator()(std::uint32_t& v) { v = r_.u32(); }  ///< 4 bytes
    void operator()(std::uint64_t& v) { v = r_.u64(); }  ///< 8 bytes
    void operator()(std::int64_t& v) { v = r_.i64(); }   ///< 8 bytes
    void operator()(double& v) { v = r_.f64(); }         ///< exact bits
    void operator()(bool& v) { v = r_.boolean(); }       ///< 0 or 1 only
    void operator()(std::string& v) { v = r_.str(); }    ///< bounded by payload
    /// An id from its u32 index (range checks are the consumer's business).
    template <typename Tag>
    void operator()(base::StrongId<Tag>& v) {
        v = base::StrongId<Tag>(r_.u32());
    }
    /// Throws on an arity above TruthTable::kMaxArity or a row bit past
    /// the table's rows.
    void operator()(netlist::TruthTable& v);
    /// Throws on a size the payload cannot hold or a bit past the size.
    void operator()(base::BitVector& v);
    /// First, then second.
    template <typename A, typename B>
    void operator()(std::pair<A, B>& v) {
        (*this)(v.first, v.second);
    }
    /// The N elements, uncounted.
    template <typename T, std::size_t N>
    void operator()(std::array<T, N>& v) {
        for (T& x : v) (*this)(x);
    }
    /// Whether a value follows, then the value.
    template <typename T>
    void operator()(std::optional<T>& v) {
        if (r_.boolean())
            (*this)(v.emplace());
        else
            v.reset();
    }
    /// u64 count, checked against the payload before reserving, then the
    /// elements.
    template <typename T>
    void operator()(std::vector<T>& v) {
        const std::size_t n = count(min_encoded_bytes<T>());
        v.clear();
        v.reserve(n);
        for (std::size_t i = 0; i < n; ++i) (*this)(v.emplace_back());
    }
    /// u64 count, then the (key, value) pairs; throws unless the keys are
    /// strictly ascending, so a key can neither repeat nor come out of order.
    template <typename K, typename V>
    void operator()(std::unordered_map<K, V>& m) {
        const std::size_t n = count(min_encoded_bytes<std::pair<K, V>>());
        m.clear();
        m.reserve(n);
        const K* prev = nullptr;
        for (std::size_t i = 0; i < n; ++i) {
            std::pair<K, V> kv;
            (*this)(kv);
            if (prev != nullptr && !(*prev < kv.first))
                base::fail("blob: map keys not strictly ascending");
            prev = &m.emplace(std::move(kv)).first->first;
        }
    }
    /// A nested type with its own field list.
    template <typename T>
        requires requires(FieldReader& io, T& v) { fields(io, v); }
    void operator()(T& v) {
        fields(*this, v);
    }

    /// An i64 that must fit int; otherwise throws naming `name`.
    void integer(int& v, const char* name);
    /// A one-byte tag that must lie in [lo, hi]; otherwise throws naming `what`.
    template <typename T>
    void ranged(T& v, T lo, T hi, const char* what) {
        static_assert(sizeof(T) == 1, "ranged fields travel as one byte");
        const auto tag = static_cast<T>(r_.u8());
        if (tag < lo || tag > hi) base::fail(std::string(what) + " out of range");
        v = tag;
    }
    /// A byte string that must not exceed `cap` bytes.
    void bytes(std::vector<std::uint8_t>& v, std::size_t cap, const char* what);

private:
    /// A u64 count that must fit the remaining payload at `min_elem_bytes`
    /// (>= 1) per element; a corrupt count throws before any allocation.
    std::size_t count(std::size_t min_elem_bytes);

    BlobReader& r_;
};

/// `V` is `T` or `const T`: one field list serves the writer, which sees a
/// const value, and the reader, which fills a mutable one.
template <typename V, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<V>, T>;

/// Append `v`'s field list to `w`: a message payload, a blob, or the bytes
/// an artifact key hashes.
template <typename T>
void encode_fields(const T& v, BlobWriter& w) {
    FieldWriter io(w);
    io(v);
}

/// Read a `T` from its field list; throws base::Error on corruption.
template <typename T>
[[nodiscard]] T decode_fields(BlobReader& r) {
    T v{};
    FieldReader io(r);
    io(v);
    return v;
}

// --- the inputs of a job ----------------------------------------------------

/// ArchSpec fields. The sizeof pin makes a new field fail the build until
/// this list carries it (and the disk-format version is bumped). Decoding
/// validates the spec, so nonsense parameters throw.
template <typename IO, FieldsOf<core::ArchSpec> A>
void fields(IO& io, A& a) {
    static_assert(sizeof(core::ArchSpec) == 112, "ArchSpec changed: update its fields");
    io(a.width, a.height, a.channel_width, a.wire_capacity, a.fc_in, a.fc_out, a.pads_per_iob,
       a.plb_inputs, a.plb_outputs, a.les_per_plb);
    io.ranged(a.im_topology, core::ImTopology::FullCrossbar, core::ImTopology::NoFeedback,
              "IM topology");
    io(a.le_inputs, a.pde_taps, a.pde_quantum_ps, a.lut_delay_ps, a.lut2_delay_ps, a.im_delay_ps,
       a.wire_delay_ps, a.pin_delay_ps);
    if constexpr (IO::kDecoding) a.validate();
}

/// netlist::PinRef fields.
template <typename IO, FieldsOf<netlist::PinRef> P>
void fields(IO& io, P& p) {
    io(p.cell, p.pin);
}

/// netlist::Cell fields.
template <typename IO, FieldsOf<netlist::Cell> C>
void fields(IO& io, C& c) {
    io.ranged(c.func, netlist::CellFunc{}, netlist::CellFunc::Lut, "cell function");
    io(c.name, c.inputs, c.output, c.table, c.delay_ps);
}

/// netlist::Net fields. Sinks travel verbatim: their order encodes the
/// construction history (rewire_input reorders them), and the mapper's
/// traversals observe it, so fingerprint_netlist (a hash of these bytes)
/// keys on it too.
template <typename IO, FieldsOf<netlist::Net> N>
void fields(IO& io, N& n) {
    io(n.name, n.driver, n.is_primary_input, n.sinks);
}

/// Netlist fields: the name, then the cell, net, primary-input and
/// primary-output tables verbatim. The decoder rebuilds through
/// Netlist::from_parts (replaying the construction API cannot reproduce
/// the sink order of handshake feedback cycles), which bounds-checks every
/// cross-reference, so hostile bytes throw instead of producing a
/// malformed graph.
template <typename IO, FieldsOf<netlist::Netlist> N>
void fields(IO& io, N& nl) {
    if constexpr (IO::kDecoding) {
        std::string name;
        std::vector<netlist::Cell> cells;
        std::vector<netlist::Net> nets;
        std::vector<netlist::NetId> pis;
        std::vector<std::pair<std::string, netlist::NetId>> pos;
        io(name, cells, nets, pis, pos);
        nl = netlist::Netlist::from_parts(std::move(name), std::move(cells), std::move(nets),
                                          std::move(pis), std::move(pos));
    } else {
        io(nl.name(), nl.cells(), nl.nets(), nl.primary_inputs(), nl.primary_outputs());
    }
}

/// MappingHints fields (net ids are validated against the netlist they
/// arrive with by the Submit field list, not here).
template <typename IO, FieldsOf<asynclib::MappingHints> H>
void fields(IO& io, H& h) {
    io(h.rail_pairs, h.validity_nets);
}

// --- stage products ---------------------------------------------------------

namespace detail {
/// The blob entry points every product codec shares. The product's field
/// list (in cad/serialize.cpp) is its format: encode_blob yields the full
/// payload, and decode_blob also requires the payload to be consumed.
template <typename T>
struct BlobCodec {
    /// Encode `v` into a fresh byte buffer.
    [[nodiscard]] static std::vector<std::uint8_t> encode_blob(const T& v);
    /// Decode a full payload; throws base::Error on corruption or
    /// trailing bytes.
    [[nodiscard]] static T decode_blob(const std::vector<std::uint8_t>& bytes);
};
}  // namespace detail

// Each stage product's codec. kTypeId is embedded in the disk-blob header
// (a cross-type read is a miss, not a decode of the wrong shape);
// approx_bytes is the coarse, stable in-memory footprint estimate the
// store's byte budget accounts in.

/// Techmap-product codec.
template <>
struct ArtifactCodec<MappedDesign> : detail::BlobCodec<MappedDesign> {
    static constexpr std::uint32_t kTypeId = 1;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const MappedDesign& v) noexcept;
};

/// Pack-product codec.
template <>
struct ArtifactCodec<PackedDesign> : detail::BlobCodec<PackedDesign> {
    static constexpr std::uint32_t kTypeId = 2;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const PackedDesign& v) noexcept;
};

/// Placement-product codec.
template <>
struct ArtifactCodec<Placement> : detail::BlobCodec<Placement> {
    static constexpr std::uint32_t kTypeId = 3;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const Placement& v) noexcept;
};

/// Route-product codec.
template <>
struct ArtifactCodec<RouteArtifact> : detail::BlobCodec<RouteArtifact> {
    static constexpr std::uint32_t kTypeId = 4;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const RouteArtifact& v) noexcept;
};

/// Bitstream-product codec. The blob embeds its ArchSpec and reuses
/// core::Bitstream's own serialized form, so decoding re-checks the fabric
/// fingerprint and CRC on top of the store's blob checksum.
template <>
struct ArtifactCodec<BitstreamArtifact> : detail::BlobCodec<BitstreamArtifact> {
    static constexpr std::uint32_t kTypeId = 5;  ///< disk-blob header type tag
    /// Coarse in-memory footprint for the store's byte budget.
    [[nodiscard]] static std::size_t approx_bytes(const BitstreamArtifact& v) noexcept;
};

}  // namespace afpga::cad
