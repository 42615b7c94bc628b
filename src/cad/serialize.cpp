#include "cad/serialize.hpp"

#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "base/check.hpp"
#include "core/fabric.hpp"

namespace afpga::cad {

// ---------------------------------------------------------------------------
// BlobWriter / BlobReader
// ---------------------------------------------------------------------------

void BlobWriter::u8(std::uint8_t v) { bytes_.push_back(v); }

void BlobWriter::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BlobWriter::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BlobWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void BlobWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void BlobWriter::boolean(bool v) { u8(v ? 1 : 0); }

void BlobWriter::str(std::string_view s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

const std::uint8_t* BlobReader::need(std::size_t n) {
    base::check(remaining() >= n, "artifact blob truncated");
    const std::uint8_t* p = p_;
    p_ += n;
    return p;
}

std::uint8_t BlobReader::u8() { return *need(1); }

std::uint32_t BlobReader::u32() {
    const std::uint8_t* p = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t BlobReader::u64() {
    const std::uint8_t* p = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::int64_t BlobReader::i64() { return static_cast<std::int64_t>(u64()); }

double BlobReader::f64() { return std::bit_cast<double>(u64()); }

bool BlobReader::boolean() {
    const std::uint8_t v = u8();
    base::check(v <= 1, "artifact blob: bad boolean");
    return v != 0;
}

std::string BlobReader::str() {
    const std::uint64_t n = u64();
    base::check(n <= remaining(), "artifact blob: string overruns payload");
    const std::uint8_t* p = need(static_cast<std::size_t>(n));
    return std::string(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
}

void BlobReader::expect_end() const {
    base::check(remaining() == 0, "artifact blob: trailing bytes");
}

// ---------------------------------------------------------------------------
// Field-list drivers
// ---------------------------------------------------------------------------

void FieldWriter::operator()(const netlist::TruthTable& v) {
    w_.u64(v.arity());
    for (const std::uint64_t word : v.row_words()) w_.u64(word);
}

void FieldWriter::operator()(const base::BitVector& v) {
    w_.u64(v.size());
    for (const std::uint64_t word : v.words()) w_.u64(word);
}

void FieldWriter::bytes(const std::vector<std::uint8_t>& v, std::size_t cap, const char* what) {
    if (v.size() > cap) base::fail(std::string("oversized ") + what);
    w_.str(std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
}

void FieldReader::operator()(netlist::TruthTable& v) {
    const std::uint64_t arity = r_.u64();
    base::check(arity <= netlist::TruthTable::kMaxArity, "blob: truth-table arity out of range");
    v = netlist::TruthTable(static_cast<std::size_t>(arity));
    for (std::size_t i = 0; i < v.row_words().size(); ++i) {
        const std::uint64_t word = r_.u64();
        v.set_row_word(i, word);  // drops bits past the rows, which no writer sets
        base::check(v.row_words()[i] == word, "blob: truth-table bit past its rows");
    }
}

void FieldReader::operator()(base::BitVector& v) {
    const std::uint64_t nbits = r_.u64();
    // Rounded up without nbits + 63, which wraps for the largest sizes.
    const std::uint64_t num_words = nbits / 64 + (nbits % 64 != 0 ? 1 : 0);
    base::check(num_words <= r_.remaining() / 8, "blob: bit vector overruns payload");
    v = base::BitVector(static_cast<std::size_t>(nbits));
    for (std::size_t i = 0; i < num_words; ++i) {
        const std::uint64_t word = r_.u64();
        v.set_word(i, word);  // drops bits past the size, which no writer sets
        base::check(v.words()[i] == word, "blob: bit vector bit past its size");
    }
}

void FieldReader::integer(int& v, const char* name) {
    // A value outside int is corruption, not something to wrap.
    const std::int64_t raw = r_.i64();
    if (raw < std::numeric_limits<int>::min() || raw > std::numeric_limits<int>::max())
        base::fail(std::string(name) + " out of range");
    v = static_cast<int>(raw);
}

void FieldReader::bytes(std::vector<std::uint8_t>& v, std::size_t cap, const char* what) {
    const std::string s = r_.str();
    if (s.size() > cap) base::fail(std::string("oversized ") + what);
    v.assign(s.begin(), s.end());
}

std::size_t FieldReader::count(std::size_t min_elem_bytes) {
    const std::uint64_t n = r_.u64();
    // Division, not n * min_elem_bytes: that product wraps for a hostile n.
    base::check(n <= r_.remaining() / min_elem_bytes, "blob: count overruns payload");
    return static_cast<std::size_t>(n);
}

// ---------------------------------------------------------------------------
// Stage-product field lists
// ---------------------------------------------------------------------------

/// LeFunc fields.
template <typename IO, FieldsOf<LeFunc> F>
void fields(IO& io, F& f) {
    io(f.tt, f.inputs, f.output, f.has_feedback);
}

/// LeInst fields.
template <typename IO, FieldsOf<LeInst> L>
void fields(IO& io, L& le) {
    io(le.a, le.b, le.full7, le.lut2);
}

/// PdeInst fields.
template <typename IO, FieldsOf<PdeInst> P>
void fields(IO& io, P& p) {
    io(p.input, p.output, p.required_delay_ps);
}

/// MappedDesign fields. The primary I/O lists follow the source netlist's
/// declaration order, so they travel as vectors.
template <typename IO, FieldsOf<MappedDesign> M>
void fields(IO& io, M& m) {
    io(m.les, m.pdes, m.constant_signals, m.canonical, m.primary_inputs, m.primary_outputs);
}

/// Cluster fields.
template <typename IO, FieldsOf<Cluster> C>
void fields(IO& io, C& c) {
    io(c.le_indices, c.pde_index);
}

/// PackedDesign fields.
template <typename IO, FieldsOf<PackedDesign> P>
void fields(IO& io, P& p) {
    io(p.clusters, p.cluster_of_le, p.cluster_of_pde);
}

/// PlbCoord fields.
template <typename IO, FieldsOf<core::PlbCoord> C>
void fields(IO& io, C& c) {
    io(c.x, c.y);
}

/// LegalizeStats fields.
template <typename IO, FieldsOf<LegalizeStats> L>
void fields(IO& io, L& l) {
    io(l.displacement_histogram, l.total_displacement, l.max_displacement, l.avg_displacement);
}

/// LevelStats fields. The wall time is left out: it differs run to run,
/// and a content-addressed blob must not.
template <typename IO, FieldsOf<LevelStats> L>
void fields(IO& io, L& l) {
    io(l.nodes, l.nets);
    io.integer(l.solver_passes, "level solver_passes");
    io.integer(l.spread_passes, "level spread_passes");
    io(l.solver_iterations);
}

/// AnalyticalStats fields.
template <typename IO, FieldsOf<AnalyticalStats> A>
void fields(IO& io, A& a) {
    io(a.solver_iterations);
    io.integer(a.solver_passes, "solver_passes");
    io.integer(a.spread_passes, "spread_passes");
    io(a.pre_legal_cost, a.legalized_cost, a.legalize, a.levels);
}

/// Placement fields. The sub-phase walls (global_ms, polish_ms,
/// descent_ms) are not carried: a restored Placement has them at 0.
template <typename IO, FieldsOf<Placement> P>
void fields(IO& io, P& p) {
    io(p.cluster_loc, p.pi_pad, p.po_pad, p.final_cost, p.moves_tried, p.moves_accepted);
    io.integer(p.anneal_rounds, "anneal_rounds");
    io(p.cost_trajectory, p.analytical);
}

/// RouteTree::SinkResult fields.
template <typename IO, FieldsOf<RouteTree::SinkResult> S>
void fields(IO& io, S& s) {
    io(s.ipin, s.delay_ps);
}

/// RouteTree fields.
template <typename IO, FieldsOf<RouteTree> T>
void fields(IO& io, T& t) {
    io(t.root_opin, t.edges, t.sinks);
}

/// RouteKernelStats fields, without the search wall (see RoutingResult) and
/// the two allocation counts: with a routing pool, how many scratches exist
/// depends on the schedule, so those counts differ run to run while the
/// route key ignores `threads`. A restored routing has them at 0.
template <typename IO, FieldsOf<RouteKernelStats> K>
void fields(IO& io, K& k) {
    io(k.heap_pushes, k.heap_pops, k.nodes_expanded, k.edges_scanned, k.wavefront_peak,
       k.nets_routed);
}

/// RoutingResult fields. The walls (bin_wall_ms, boundary_wall_ms and the
/// kernel's search_ms) are left out: they differ run to run, and a
/// content-addressed blob must not. A restored routing has them at 0.
template <typename IO, FieldsOf<RoutingResult> R>
void fields(IO& io, R& r) {
    io(r.trees);
    io.integer(r.iterations, "route iterations");
    io(r.success, r.overused_nodes, r.overuse_report, r.overuse_trajectory, r.nets_rerouted,
       r.wirelength, r.num_bins, r.boundary_nets, r.kernel);
}

/// RouteRequest::Sink fields.
template <typename IO, FieldsOf<RouteRequest::Sink> S>
void fields(IO& io, S& s) {
    io(s.is_pad, s.pad, s.plb);
}

/// RouteRequest fields.
template <typename IO, FieldsOf<RouteRequest> R>
void fields(IO& io, R& r) {
    io(r.signal, r.src_is_pad, r.src_pad, r.src_plb, r.allowed_src_pins, r.sinks);
}

/// RouteArtifact fields.
template <typename IO, FieldsOf<RouteArtifact> R>
void fields(IO& io, R& r) {
    io(r.routing, r.reqs, r.sink_cluster, r.req_signal);
}

/// core::Bitstream fields: its ArchSpec, then its own serialized form. Like
/// the netlist's, this list branches to rebuild the value through its
/// validating factory: deserialize re-checks the fabric fingerprint and
/// the CRC.
template <typename IO, FieldsOf<core::Bitstream> B>
void fields(IO& io, B& bits) {
    if constexpr (IO::kDecoding) {
        core::ArchSpec arch;
        base::BitVector body;
        io(arch, body);
        bits = core::Bitstream::deserialize(arch, body);
    } else {
        io(bits.arch(), bits.serialize());
    }
}

/// BitstreamArtifact fields. The encoder writes each named pad of the
/// fabric once, in ascending order.
template <typename IO, FieldsOf<BitstreamArtifact> B>
void fields(IO& io, B& b) {
    io(b.bits, b.pad_names);
    if constexpr (IO::kDecoding) {
        const std::uint32_t num_pads = core::FabricGeometry(b.bits.arch()).num_pads();
        for (const auto& [pad, name] : b.pad_names)
            if (pad >= num_pads)
                base::fail("artifact blob: pad name for pad " + std::to_string(pad) +
                           " past the fabric's " + std::to_string(num_pads) + " pads");
    }
}

namespace detail {

template <typename T>
std::vector<std::uint8_t> BlobCodec<T>::encode_blob(const T& v) {
    BlobWriter w;
    encode_fields(v, w);
    return std::move(w).take();
}

template <typename T>
T BlobCodec<T>::decode_blob(const std::vector<std::uint8_t>& bytes) {
    BlobReader r(bytes);
    T v = decode_fields<T>(r);
    r.expect_end();
    return v;
}

template struct BlobCodec<MappedDesign>;
template struct BlobCodec<PackedDesign>;
template struct BlobCodec<Placement>;
template struct BlobCodec<RouteArtifact>;
template struct BlobCodec<BitstreamArtifact>;

}  // namespace detail

// ---------------------------------------------------------------------------
// Footprint estimates
// ---------------------------------------------------------------------------

namespace {

/// Footprint estimate of one LE function (heap vectors + table bits).
std::size_t le_func_bytes(const LeFunc& f) noexcept {
    return sizeof(LeFunc) + f.inputs.size() * sizeof(NetId) + f.tt.rows() / 8 + 16;
}

}  // namespace

std::size_t ArtifactCodec<MappedDesign>::approx_bytes(const MappedDesign& v) noexcept {
    std::size_t total = sizeof(MappedDesign);
    for (const auto& le : v.les) {
        total += sizeof(LeInst);
        for (const auto* f : {&le.a, &le.b, &le.full7, &le.lut2})
            if (*f) total += le_func_bytes(**f);
    }
    total += v.pdes.size() * sizeof(PdeInst);
    total += (v.constant_signals.size() + v.canonical.size()) * 48;  // node + bucket overhead
    for (const auto& [name, id] : v.primary_inputs) total += sizeof(id) + name.size() + 40;
    for (const auto& [name, id] : v.primary_outputs) total += sizeof(id) + name.size() + 40;
    return total;
}

std::size_t ArtifactCodec<PackedDesign>::approx_bytes(const PackedDesign& v) noexcept {
    std::size_t total = sizeof(PackedDesign);
    for (const auto& c : v.clusters) total += sizeof(Cluster) + c.le_indices.size() * 8;
    total += (v.cluster_of_le.size() + v.cluster_of_pde.size()) * 8;
    return total;
}

std::size_t ArtifactCodec<Placement>::approx_bytes(const Placement& v) noexcept {
    std::size_t total = sizeof(Placement);
    total += v.cluster_loc.size() * sizeof(core::PlbCoord);
    for (const auto& [name, pad] : v.pi_pad) total += name.size() + 48;
    for (const auto& [name, pad] : v.po_pad) total += name.size() + 48;
    total += v.cost_trajectory.size() * 8;
    total += v.analytical.levels.size() * sizeof(LevelStats);
    return total;
}

std::size_t ArtifactCodec<RouteArtifact>::approx_bytes(const RouteArtifact& v) noexcept {
    std::size_t total = sizeof(RouteArtifact);
    for (const auto& t : v.routing.trees)
        total += sizeof(RouteTree) + t.edges.size() * 4 +
                 t.sinks.size() * sizeof(RouteTree::SinkResult);
    for (const auto& s : v.routing.overuse_report) total += s.size() + 32;
    total += v.routing.overuse_trajectory.size() * 8;
    total += v.routing.bin_wall_ms.size() * 8;
    for (const auto& req : v.reqs)
        total += sizeof(RouteRequest) + req.allowed_src_pins.size() * 4 +
                 req.sinks.size() * sizeof(RouteRequest::Sink);
    for (const auto& sc : v.sink_cluster) total += sizeof(sc) + sc.size() * 8;
    total += v.req_signal.size() * sizeof(NetId);
    return total;
}

std::size_t ArtifactCodec<BitstreamArtifact>::approx_bytes(const BitstreamArtifact& v) noexcept {
    std::size_t total = sizeof(BitstreamArtifact);
    total += v.bits.size_bits() / 8;
    for (const auto& [pad, name] : v.pad_names) total += name.size() + 48;
    return total;
}

}  // namespace afpga::cad
