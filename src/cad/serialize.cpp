#include "cad/serialize.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
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
// Shared element helpers
// ---------------------------------------------------------------------------

namespace detail {

void put_netid(BlobWriter& w, netlist::NetId id) { w.u32(id.value()); }
netlist::NetId get_netid(BlobReader& r) { return netlist::NetId(r.u32()); }

void put_tt(BlobWriter& w, const netlist::TruthTable& tt) {
    w.u64(tt.arity());
    for (const std::uint64_t word : tt.row_words()) w.u64(word);
}

netlist::TruthTable get_tt(BlobReader& r) {
    const std::uint64_t arity = r.u64();
    base::check(arity <= netlist::TruthTable::kMaxArity, "blob: truth-table arity out of range");
    netlist::TruthTable tt(static_cast<std::size_t>(arity));
    for (std::size_t i = 0; i < tt.row_words().size(); ++i) tt.set_row_word(i, r.u64());
    return tt;
}

std::size_t get_count(BlobReader& r, std::size_t min_elem_bytes) {
    const std::uint64_t n = r.u64();
    // Division, not n * min_elem_bytes: that product wraps for a hostile n.
    base::check(n <= r.remaining() / min_elem_bytes, "blob: count overruns payload");
    return static_cast<std::size_t>(n);
}

}  // namespace detail

namespace {

using detail::get_count;
using detail::get_netid;
using detail::get_tt;
using detail::put_netid;
using detail::put_tt;
using netlist::NetId;
using netlist::TruthTable;

void put_u32_vec(BlobWriter& w, const std::vector<std::uint32_t>& v) {
    w.u64(v.size());
    for (const auto x : v) w.u32(x);
}

std::vector<std::uint32_t> get_u32_vec(BlobReader& r) {
    const std::size_t n = get_count(r, 4);
    std::vector<std::uint32_t> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(r.u32());
    return v;
}

void put_size_vec(BlobWriter& w, const std::vector<std::size_t>& v) {
    w.u64(v.size());
    for (const auto x : v) w.u64(x);
}

std::vector<std::size_t> get_size_vec(BlobReader& r) {
    const std::size_t n = get_count(r, 8);
    std::vector<std::size_t> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<std::size_t>(r.u64()));
    return v;
}

void put_f64_vec(BlobWriter& w, const std::vector<double>& v) {
    w.u64(v.size());
    for (const auto x : v) w.f64(x);
}

std::vector<double> get_f64_vec(BlobReader& r) {
    const std::size_t n = get_count(r, 8);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(r.f64());
    return v;
}

void put_coord(BlobWriter& w, core::PlbCoord c) {
    w.u32(c.x);
    w.u32(c.y);
}

core::PlbCoord get_coord(BlobReader& r) {
    core::PlbCoord c;
    c.x = r.u32();
    c.y = r.u32();
    return c;
}

void put_le_func(BlobWriter& w, const LeFunc& f) {
    put_tt(w, f.tt);
    w.u64(f.inputs.size());
    for (const auto n : f.inputs) put_netid(w, n);
    put_netid(w, f.output);
    w.boolean(f.has_feedback);
}

LeFunc get_le_func(BlobReader& r) {
    LeFunc f;
    f.tt = get_tt(r);
    const std::size_t n = get_count(r, 4);
    f.inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) f.inputs.push_back(get_netid(r));
    f.output = get_netid(r);
    f.has_feedback = r.boolean();
    return f;
}

void put_opt_le_func(BlobWriter& w, const std::optional<LeFunc>& f) {
    w.boolean(f.has_value());
    if (f) put_le_func(w, *f);
}

std::optional<LeFunc> get_opt_le_func(BlobReader& r) {
    if (!r.boolean()) return std::nullopt;
    return get_le_func(r);
}

/// Footprint estimate of one LE function (heap vectors + table bits).
std::size_t le_func_bytes(const LeFunc& f) noexcept {
    return sizeof(LeFunc) + f.inputs.size() * sizeof(NetId) + f.tt.rows() / 8 + 16;
}

}  // namespace

// ---------------------------------------------------------------------------
// ArchSpec
// ---------------------------------------------------------------------------

// New ArchSpec fields must be added to encode_arch/decode_arch (and the
// disk-format version bumped); this trips when the struct grows.
static_assert(sizeof(core::ArchSpec) == 112, "ArchSpec changed: update encode_arch/decode_arch");

void encode_arch(const core::ArchSpec& a, BlobWriter& w) {
    w.u32(a.width);
    w.u32(a.height);
    w.u32(a.channel_width);
    w.u32(a.wire_capacity);
    w.f64(a.fc_in);
    w.f64(a.fc_out);
    w.u32(a.pads_per_iob);
    w.u32(a.plb_inputs);
    w.u32(a.plb_outputs);
    w.u32(a.les_per_plb);
    w.u8(static_cast<std::uint8_t>(a.im_topology));
    w.u32(a.le_inputs);
    w.u32(a.pde_taps);
    w.i64(a.pde_quantum_ps);
    w.i64(a.lut_delay_ps);
    w.i64(a.lut2_delay_ps);
    w.i64(a.im_delay_ps);
    w.i64(a.wire_delay_ps);
    w.i64(a.pin_delay_ps);
}

core::ArchSpec decode_arch(BlobReader& r) {
    core::ArchSpec a;
    a.width = r.u32();
    a.height = r.u32();
    a.channel_width = r.u32();
    a.wire_capacity = r.u32();
    a.fc_in = r.f64();
    a.fc_out = r.f64();
    a.pads_per_iob = r.u32();
    a.plb_inputs = r.u32();
    a.plb_outputs = r.u32();
    a.les_per_plb = r.u32();
    const std::uint8_t topo = r.u8();
    base::check(topo <= static_cast<std::uint8_t>(core::ImTopology::NoFeedback),
                "artifact blob: bad IM topology");
    a.im_topology = static_cast<core::ImTopology>(topo);
    a.le_inputs = r.u32();
    a.pde_taps = r.u32();
    a.pde_quantum_ps = r.i64();
    a.lut_delay_ps = r.i64();
    a.lut2_delay_ps = r.i64();
    a.im_delay_ps = r.i64();
    a.wire_delay_ps = r.i64();
    a.pin_delay_ps = r.i64();
    a.validate();
    return a;
}

// ---------------------------------------------------------------------------
// MappedDesign
// ---------------------------------------------------------------------------

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

void ArtifactCodec<MappedDesign>::encode(const MappedDesign& v, BlobWriter& w) {
    w.u64(v.les.size());
    for (const auto& le : v.les) {
        put_opt_le_func(w, le.a);
        put_opt_le_func(w, le.b);
        put_opt_le_func(w, le.full7);
        put_opt_le_func(w, le.lut2);
    }
    w.u64(v.pdes.size());
    for (const auto& pde : v.pdes) {
        put_netid(w, pde.input);
        put_netid(w, pde.output);
        w.i64(pde.required_delay_ps);
    }
    std::vector<std::pair<std::uint32_t, bool>> consts;
    consts.reserve(v.constant_signals.size());
    for (const auto& [id, val] : v.constant_signals) consts.emplace_back(id.value(), val);
    std::sort(consts.begin(), consts.end());
    w.u64(consts.size());
    for (const auto& [id, val] : consts) {
        w.u32(id);
        w.boolean(val);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> canon;
    canon.reserve(v.canonical.size());
    for (const auto& [from, to] : v.canonical) canon.emplace_back(from.value(), to.value());
    std::sort(canon.begin(), canon.end());
    w.u64(canon.size());
    for (const auto& [from, to] : canon) {
        w.u32(from);
        w.u32(to);
    }
    // Primary I/O lists are already deterministically ordered (they follow
    // the source netlist's declaration order), so vector order is stable.
    w.u64(v.primary_inputs.size());
    for (const auto& [name, id] : v.primary_inputs) {
        w.str(name);
        put_netid(w, id);
    }
    w.u64(v.primary_outputs.size());
    for (const auto& [name, id] : v.primary_outputs) {
        w.str(name);
        put_netid(w, id);
    }
}

MappedDesign ArtifactCodec<MappedDesign>::decode(BlobReader& r) {
    MappedDesign v;
    const std::size_t num_les = get_count(r, 4);
    v.les.reserve(num_les);
    for (std::size_t i = 0; i < num_les; ++i) {
        LeInst le;
        le.a = get_opt_le_func(r);
        le.b = get_opt_le_func(r);
        le.full7 = get_opt_le_func(r);
        le.lut2 = get_opt_le_func(r);
        v.les.push_back(std::move(le));
    }
    const std::size_t num_pdes = get_count(r, 16);
    v.pdes.reserve(num_pdes);
    for (std::size_t i = 0; i < num_pdes; ++i) {
        PdeInst pde;
        pde.input = get_netid(r);
        pde.output = get_netid(r);
        pde.required_delay_ps = r.i64();
        v.pdes.push_back(pde);
    }
    const std::size_t num_consts = get_count(r, 5);
    for (std::size_t i = 0; i < num_consts; ++i) {
        const NetId id = get_netid(r);
        v.constant_signals[id] = r.boolean();
    }
    const std::size_t num_canon = get_count(r, 8);
    for (std::size_t i = 0; i < num_canon; ++i) {
        const NetId from = get_netid(r);
        v.canonical[from] = get_netid(r);
    }
    const std::size_t num_pis = get_count(r, 12);
    v.primary_inputs.reserve(num_pis);
    for (std::size_t i = 0; i < num_pis; ++i) {
        std::string name = r.str();
        v.primary_inputs.emplace_back(std::move(name), get_netid(r));
    }
    const std::size_t num_pos = get_count(r, 12);
    v.primary_outputs.reserve(num_pos);
    for (std::size_t i = 0; i < num_pos; ++i) {
        std::string name = r.str();
        v.primary_outputs.emplace_back(std::move(name), get_netid(r));
    }
    return v;
}

// ---------------------------------------------------------------------------
// PackedDesign
// ---------------------------------------------------------------------------

std::size_t ArtifactCodec<PackedDesign>::approx_bytes(const PackedDesign& v) noexcept {
    std::size_t total = sizeof(PackedDesign);
    for (const auto& c : v.clusters) total += sizeof(Cluster) + c.le_indices.size() * 8;
    total += (v.cluster_of_le.size() + v.cluster_of_pde.size()) * 8;
    return total;
}

void ArtifactCodec<PackedDesign>::encode(const PackedDesign& v, BlobWriter& w) {
    w.u64(v.clusters.size());
    for (const auto& c : v.clusters) {
        put_size_vec(w, c.le_indices);
        w.boolean(c.pde_index.has_value());
        if (c.pde_index) w.u64(*c.pde_index);
    }
    put_size_vec(w, v.cluster_of_le);
    put_size_vec(w, v.cluster_of_pde);
}

PackedDesign ArtifactCodec<PackedDesign>::decode(BlobReader& r) {
    PackedDesign v;
    const std::size_t num_clusters = get_count(r, 9);
    v.clusters.reserve(num_clusters);
    for (std::size_t i = 0; i < num_clusters; ++i) {
        Cluster c;
        c.le_indices = get_size_vec(r);
        if (r.boolean()) c.pde_index = static_cast<std::size_t>(r.u64());
        v.clusters.push_back(std::move(c));
    }
    v.cluster_of_le = get_size_vec(r);
    v.cluster_of_pde = get_size_vec(r);
    return v;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

namespace {

void put_pad_map(BlobWriter& w, const std::unordered_map<std::string, std::uint32_t>& m) {
    std::vector<std::pair<std::string, std::uint32_t>> items(m.begin(), m.end());
    std::sort(items.begin(), items.end());
    w.u64(items.size());
    for (const auto& [name, pad] : items) {
        w.str(name);
        w.u32(pad);
    }
}

std::unordered_map<std::string, std::uint32_t> get_pad_map(BlobReader& r) {
    std::unordered_map<std::string, std::uint32_t> m;
    const std::size_t n = get_count(r, 12);
    for (std::size_t i = 0; i < n; ++i) {
        std::string name = r.str();
        m[std::move(name)] = r.u32();
    }
    return m;
}

}  // namespace

std::size_t ArtifactCodec<Placement>::approx_bytes(const Placement& v) noexcept {
    std::size_t total = sizeof(Placement);
    total += v.cluster_loc.size() * sizeof(core::PlbCoord);
    for (const auto& [name, pad] : v.pi_pad) total += name.size() + 48;
    for (const auto& [name, pad] : v.po_pad) total += name.size() + 48;
    total += v.cost_trajectory.size() * 8;
    total += v.analytical.levels.size() * sizeof(LevelStats);
    return total;
}

void ArtifactCodec<Placement>::encode(const Placement& v, BlobWriter& w) {
    w.u64(v.cluster_loc.size());
    for (const auto c : v.cluster_loc) put_coord(w, c);
    put_pad_map(w, v.pi_pad);
    put_pad_map(w, v.po_pad);
    w.f64(v.final_cost);
    w.u64(v.moves_tried);
    w.u64(v.moves_accepted);
    w.i64(v.anneal_rounds);
    put_f64_vec(w, v.cost_trajectory);
    w.u64(v.analytical.solver_iterations);
    w.i64(v.analytical.solver_passes);
    w.i64(v.analytical.spread_passes);
    w.f64(v.analytical.pre_legal_cost);
    w.f64(v.analytical.legalized_cost);
    for (const std::uint64_t b : v.analytical.legalize.displacement_histogram) w.u64(b);
    w.u64(v.analytical.legalize.total_displacement);
    w.u64(v.analytical.legalize.max_displacement);
    w.f64(v.analytical.legalize.avg_displacement);
    w.u64(v.analytical.levels.size());
    for (const LevelStats& ls : v.analytical.levels) {
        w.u64(ls.nodes);
        w.u64(ls.nets);
        w.i64(ls.solver_passes);
        w.i64(ls.spread_passes);
        w.u64(ls.solver_iterations);
        w.f64(ls.wall_ms);
    }
}

Placement ArtifactCodec<Placement>::decode(BlobReader& r) {
    Placement v;
    const std::size_t num_locs = get_count(r, 8);
    v.cluster_loc.reserve(num_locs);
    for (std::size_t i = 0; i < num_locs; ++i) v.cluster_loc.push_back(get_coord(r));
    v.pi_pad = get_pad_map(r);
    v.po_pad = get_pad_map(r);
    v.final_cost = r.f64();
    v.moves_tried = r.u64();
    v.moves_accepted = r.u64();
    v.anneal_rounds = static_cast<int>(r.i64());
    v.cost_trajectory = get_f64_vec(r);
    v.analytical.solver_iterations = r.u64();
    v.analytical.solver_passes = static_cast<int>(r.i64());
    v.analytical.spread_passes = static_cast<int>(r.i64());
    v.analytical.pre_legal_cost = r.f64();
    v.analytical.legalized_cost = r.f64();
    for (std::uint64_t& b : v.analytical.legalize.displacement_histogram) b = r.u64();
    v.analytical.legalize.total_displacement = r.u64();
    v.analytical.legalize.max_displacement = r.u64();
    v.analytical.legalize.avg_displacement = r.f64();
    const std::size_t num_levels = get_count(r, 48);
    v.analytical.levels.reserve(num_levels);
    for (std::size_t i = 0; i < num_levels; ++i) {
        LevelStats ls;
        ls.nodes = r.u64();
        ls.nets = r.u64();
        ls.solver_passes = static_cast<int>(r.i64());
        ls.spread_passes = static_cast<int>(r.i64());
        ls.solver_iterations = r.u64();
        ls.wall_ms = r.f64();
        v.analytical.levels.push_back(ls);
    }
    return v;
}

// ---------------------------------------------------------------------------
// RouteArtifact
// ---------------------------------------------------------------------------

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

void ArtifactCodec<RouteArtifact>::encode(const RouteArtifact& v, BlobWriter& w) {
    const RoutingResult& rr = v.routing;
    w.u64(rr.trees.size());
    for (const auto& t : rr.trees) {
        w.u32(t.root_opin);
        put_u32_vec(w, t.edges);
        w.u64(t.sinks.size());
        for (const auto& s : t.sinks) {
            w.u32(s.ipin);
            w.i64(s.delay_ps);
        }
    }
    w.i64(rr.iterations);
    w.boolean(rr.success);
    w.u64(rr.overused_nodes);
    w.u64(rr.overuse_report.size());
    for (const auto& s : rr.overuse_report) w.str(s);
    put_size_vec(w, rr.overuse_trajectory);
    w.u64(rr.nets_rerouted);
    w.u64(rr.wirelength);
    w.u64(rr.num_bins);
    w.u64(rr.boundary_nets);
    put_f64_vec(w, rr.bin_wall_ms);
    w.f64(rr.boundary_wall_ms);
    w.u64(rr.kernel.heap_pushes);
    w.u64(rr.kernel.heap_pops);
    w.u64(rr.kernel.nodes_expanded);
    w.u64(rr.kernel.edges_scanned);
    w.u64(rr.kernel.wavefront_peak);
    w.u64(rr.kernel.allocations);
    w.u64(rr.kernel.steady_allocations);
    w.u64(rr.kernel.nets_routed);
    w.f64(rr.kernel.search_ms);

    w.u64(v.reqs.size());
    for (const auto& req : v.reqs) {
        put_netid(w, req.signal);
        w.boolean(req.src_is_pad);
        w.u32(req.src_pad);
        put_coord(w, req.src_plb);
        put_u32_vec(w, req.allowed_src_pins);
        w.u64(req.sinks.size());
        for (const auto& s : req.sinks) {
            w.boolean(s.is_pad);
            w.u32(s.pad);
            put_coord(w, s.plb);
        }
    }
    w.u64(v.sink_cluster.size());
    for (const auto& sc : v.sink_cluster) put_size_vec(w, sc);
    w.u64(v.req_signal.size());
    for (const auto n : v.req_signal) put_netid(w, n);
}

RouteArtifact ArtifactCodec<RouteArtifact>::decode(BlobReader& r) {
    RouteArtifact v;
    RoutingResult& rr = v.routing;
    const std::size_t num_trees = get_count(r, 20);
    rr.trees.reserve(num_trees);
    for (std::size_t i = 0; i < num_trees; ++i) {
        RouteTree t;
        t.root_opin = r.u32();
        t.edges = get_u32_vec(r);
        const std::size_t num_sinks = get_count(r, 12);
        t.sinks.reserve(num_sinks);
        for (std::size_t j = 0; j < num_sinks; ++j) {
            RouteTree::SinkResult s;
            s.ipin = r.u32();
            s.delay_ps = r.i64();
            t.sinks.push_back(s);
        }
        rr.trees.push_back(std::move(t));
    }
    rr.iterations = static_cast<int>(r.i64());
    rr.success = r.boolean();
    rr.overused_nodes = static_cast<std::size_t>(r.u64());
    const std::size_t num_reports = get_count(r, 8);
    rr.overuse_report.reserve(num_reports);
    for (std::size_t i = 0; i < num_reports; ++i) rr.overuse_report.push_back(r.str());
    rr.overuse_trajectory = get_size_vec(r);
    rr.nets_rerouted = static_cast<std::size_t>(r.u64());
    rr.wirelength = static_cast<std::size_t>(r.u64());
    rr.num_bins = static_cast<std::size_t>(r.u64());
    rr.boundary_nets = static_cast<std::size_t>(r.u64());
    rr.bin_wall_ms = get_f64_vec(r);
    rr.boundary_wall_ms = r.f64();
    rr.kernel.heap_pushes = r.u64();
    rr.kernel.heap_pops = r.u64();
    rr.kernel.nodes_expanded = r.u64();
    rr.kernel.edges_scanned = r.u64();
    rr.kernel.wavefront_peak = r.u64();
    rr.kernel.allocations = r.u64();
    rr.kernel.steady_allocations = r.u64();
    rr.kernel.nets_routed = r.u64();
    rr.kernel.search_ms = r.f64();

    const std::size_t num_reqs = get_count(r, 30);
    v.reqs.reserve(num_reqs);
    for (std::size_t i = 0; i < num_reqs; ++i) {
        RouteRequest req;
        req.signal = get_netid(r);
        req.src_is_pad = r.boolean();
        req.src_pad = r.u32();
        req.src_plb = get_coord(r);
        req.allowed_src_pins = get_u32_vec(r);
        const std::size_t num_sinks = get_count(r, 13);
        req.sinks.reserve(num_sinks);
        for (std::size_t j = 0; j < num_sinks; ++j) {
            RouteRequest::Sink s;
            s.is_pad = r.boolean();
            s.pad = r.u32();
            s.plb = get_coord(r);
            req.sinks.push_back(s);
        }
        v.reqs.push_back(std::move(req));
    }
    const std::size_t num_sc = get_count(r, 8);
    v.sink_cluster.reserve(num_sc);
    for (std::size_t i = 0; i < num_sc; ++i) v.sink_cluster.push_back(get_size_vec(r));
    const std::size_t num_sig = get_count(r, 4);
    v.req_signal.reserve(num_sig);
    for (std::size_t i = 0; i < num_sig; ++i) v.req_signal.push_back(get_netid(r));
    return v;
}

// ---------------------------------------------------------------------------
// BitstreamArtifact
// ---------------------------------------------------------------------------

std::size_t ArtifactCodec<BitstreamArtifact>::approx_bytes(const BitstreamArtifact& v) noexcept {
    std::size_t total = sizeof(BitstreamArtifact);
    total += v.bits.size_bits() / 8;
    for (const auto& [pad, name] : v.pad_names) total += name.size() + 48;
    return total;
}

void ArtifactCodec<BitstreamArtifact>::encode(const BitstreamArtifact& v, BlobWriter& w) {
    encode_arch(v.bits.arch(), w);
    const base::BitVector bits = v.bits.serialize();
    w.u64(bits.size());
    for (const auto word : bits.words()) w.u64(word);
    std::vector<std::pair<std::uint32_t, std::string>> names(v.pad_names.begin(),
                                                             v.pad_names.end());
    std::sort(names.begin(), names.end());
    w.u64(names.size());
    for (const auto& [pad, name] : names) {
        w.u32(pad);
        w.str(name);
    }
}

BitstreamArtifact ArtifactCodec<BitstreamArtifact>::decode(BlobReader& r) {
    const core::ArchSpec arch = decode_arch(r);
    const std::uint64_t nbits = r.u64();
    // Rounded up without nbits + 63, which wraps for the largest counts.
    const std::uint64_t num_words = nbits / 64 + (nbits % 64 != 0 ? 1 : 0);
    base::check(num_words <= r.remaining() / 8, "artifact blob: bitstream overruns payload");
    base::BitVector bv(static_cast<std::size_t>(nbits));
    for (std::size_t i = 0; i < num_words; ++i) bv.set_word(i, r.u64());
    // Re-checks the fabric fingerprint and CRC embedded in the bitstream.
    core::Bitstream bits = core::Bitstream::deserialize(arch, bv);
    BitstreamArtifact v{std::move(bits), {}};
    // The encoder writes each named pad of the fabric once, in ascending order.
    const std::uint32_t num_pads = core::FabricGeometry(arch).num_pads();
    std::uint32_t prev_pad = 0;
    const std::size_t n = get_count(r, 12);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t pad = r.u32();
        if (pad >= num_pads)
            base::fail("artifact blob: pad name for pad " + std::to_string(pad) +
                       " past the fabric's " + std::to_string(num_pads) + " pads");
        if (i > 0 && pad <= prev_pad)
            base::fail("artifact blob: pad names not strictly ascending (pad " +
                       std::to_string(pad) + " after pad " + std::to_string(prev_pad) + ")");
        prev_pad = pad;
        v.pad_names.emplace(pad, r.str());
    }
    return v;
}

}  // namespace afpga::cad
