// Binary artifact serialization (cad/serialize.hpp): every codec
// round-trips bit-exactly, encoding is independent of unordered-container
// insertion order (the disk tier's content-addressing depends on it), and
// every malformed input throws base::Error instead of crashing or
// over-allocating.
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "cad/serialize.hpp"
#include "core/bitstream.hpp"
#include "core/fabric.hpp"
#include "core/rrgraph.hpp"

namespace cad = afpga::cad;
namespace core = afpga::core;
namespace base = afpga::base;
using afpga::netlist::NetId;
using afpga::netlist::TruthTable;

namespace {

// ---------------------------------------------------------------------------
// Fixture builders: small synthetic artifacts that exercise every optional
// branch of the encoders.
// ---------------------------------------------------------------------------

NetId nid(std::uint32_t v) { return NetId{v}; }

cad::LeFunc make_func(std::uint32_t out, std::vector<std::uint32_t> ins, bool feedback = false) {
    cad::LeFunc f;
    f.tt = TruthTable::from_function(ins.size(), [](std::uint32_t a) { return (a & 1) != 0; });
    for (const auto i : ins) f.inputs.push_back(nid(i));
    f.output = nid(out);
    f.has_feedback = feedback;
    return f;
}

cad::MappedDesign make_mapped() {
    cad::MappedDesign md;
    {
        cad::LeInst le;  // paired halves + LUT2 slot
        le.a = make_func(10, {1, 2, 3});
        le.b = make_func(11, {1, 4});
        le.lut2 = make_func(12, {10, 11});
        md.les.push_back(std::move(le));
    }
    {
        cad::LeInst le;  // whole-LE 7-input function with feedback
        le.full7 = make_func(20, {1, 2, 3, 4, 5, 6, 20}, /*feedback=*/true);
        md.les.push_back(std::move(le));
    }
    {
        cad::LeInst le;  // half A only
        le.a = make_func(30, {2});
        md.les.push_back(std::move(le));
    }
    md.pdes.push_back({nid(10), nid(40), 1250});
    md.constant_signals[nid(50)] = true;
    md.constant_signals[nid(51)] = false;
    md.canonical[nid(60)] = nid(1);
    md.canonical[nid(61)] = nid(2);
    md.primary_inputs = {{"clk_req", nid(1)}, {"d", nid(2)}};
    md.primary_outputs = {{"q", nid(20)}, {"ack", nid(30)}};
    return md;
}

cad::PackedDesign make_packed() {
    cad::PackedDesign pd;
    cad::Cluster c0;
    c0.le_indices = {0, 1};
    c0.pde_index = 0;
    cad::Cluster c1;
    c1.le_indices = {2};
    pd.clusters = {std::move(c0), std::move(c1)};
    pd.cluster_of_le = {0, 0, 1};
    pd.cluster_of_pde = {0};
    return pd;
}

cad::Placement make_placement() {
    cad::Placement pl;
    pl.cluster_loc = {{1, 2}, {3, 4}};
    pl.pi_pad = {{"clk_req", 0}, {"d", 1}};
    pl.po_pad = {{"q", 5}, {"ack", 6}};
    pl.final_cost = 12.5;
    pl.moves_tried = 1000;
    pl.moves_accepted = 420;
    pl.anneal_rounds = 7;
    pl.cost_trajectory = {30.0, 20.0, 12.5};
    pl.analytical.solver_iterations = 321;
    pl.analytical.solver_passes = 9;
    pl.analytical.spread_passes = 8;
    pl.analytical.pre_legal_cost = 10.25;
    pl.analytical.legalized_cost = 14.75;
    pl.analytical.legalize.displacement_histogram[0] = 1;
    pl.analytical.legalize.displacement_histogram[3] = 2;
    pl.analytical.legalize.total_displacement = 6;
    pl.analytical.legalize.max_displacement = 3;
    pl.analytical.legalize.avg_displacement = 2.0;
    cad::LevelStats l0;
    l0.nodes = 12;
    l0.nets = 30;
    l0.solver_passes = 8;
    l0.spread_passes = 8;
    l0.solver_iterations = 200;
    l0.wall_ms = 0.75;
    cad::LevelStats l1;
    l1.nodes = 48;
    l1.nets = 90;
    l1.solver_passes = 1;
    l1.spread_passes = 1;
    l1.solver_iterations = 40;
    l1.wall_ms = 0.5;
    pl.analytical.levels = {l0, l1};
    return pl;
}

cad::RouteArtifact make_route() {
    cad::RouteArtifact ra;
    cad::RouteTree t0;
    t0.root_opin = 17;
    t0.edges = {3, 5, 8};
    t0.sinks = {{21, 340}, {UINT32_MAX, 0}};
    cad::RouteTree t1;
    t1.root_opin = 40;
    t1.sinks = {{41, 120}};
    ra.routing.trees = {std::move(t0), std::move(t1)};
    ra.routing.iterations = 4;
    ra.routing.success = true;
    ra.routing.overused_nodes = 0;
    ra.routing.overuse_report = {"node 7: cap 1 use 2"};
    ra.routing.overuse_trajectory = {9, 3, 1, 0};
    ra.routing.nets_rerouted = 12;
    ra.routing.wirelength = 34;
    ra.routing.num_bins = 4;
    ra.routing.boundary_nets = 2;
    ra.routing.bin_wall_ms = {0.5, 0.25, 0.75, 0.125};
    ra.routing.boundary_wall_ms = 0.0625;
    ra.routing.kernel.heap_pushes = 1234;
    ra.routing.kernel.heap_pops = 1100;
    ra.routing.kernel.nodes_expanded = 900;
    ra.routing.kernel.edges_scanned = 5400;
    ra.routing.kernel.wavefront_peak = 77;
    ra.routing.kernel.allocations = 6;
    ra.routing.kernel.steady_allocations = 0;
    ra.routing.kernel.nets_routed = 15;
    ra.routing.kernel.search_ms = 1.5;

    cad::RouteRequest q0;
    q0.signal = nid(7);
    q0.src_is_pad = true;
    q0.src_pad = 2;
    q0.sinks.push_back({false, 0, {1, 1}});
    cad::RouteRequest q1;
    q1.signal = nid(8);
    q1.src_plb = {2, 3};
    q1.allowed_src_pins = {0, 3};
    q1.sinks.push_back({true, 5, {}});
    q1.sinks.push_back({false, 0, {4, 4}});
    ra.reqs = {std::move(q0), std::move(q1)};
    ra.sink_cluster = {{0}, {SIZE_MAX, 1}};
    ra.req_signal = {nid(7), nid(8)};
    return ra;
}

void expect_func_eq(const cad::LeFunc& a, const cad::LeFunc& b) {
    ASSERT_EQ(a.tt.arity(), b.tt.arity());
    for (std::uint32_t row = 0; row < a.tt.rows(); ++row)
        EXPECT_EQ(a.tt.eval(row), b.tt.eval(row)) << "row " << row;
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.has_feedback, b.has_feedback);
}

void expect_opt_func_eq(const std::optional<cad::LeFunc>& a, const std::optional<cad::LeFunc>& b) {
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) expect_func_eq(*a, *b);
}

}  // namespace

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(BlobIo, PrimitivesRoundtrip) {
    cad::BlobWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    w.i64(-42);
    w.f64(3.25);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.boolean(true);
    w.boolean(false);
    w.str("hello");
    w.str("");

    cad::BlobReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_TRUE(std::isnan(r.f64()));  // NaN bit pattern survives
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_NO_THROW(r.expect_end());
}

TEST(BlobIo, OverrunTrailingAndBadBooleanThrow) {
    cad::BlobWriter w;
    w.u32(7);
    {
        cad::BlobReader r(w.bytes());
        (void)r.u32();
        EXPECT_THROW((void)r.u8(), base::Error);  // overrun
    }
    {
        cad::BlobReader r(w.bytes());
        (void)r.u8();
        EXPECT_THROW(r.expect_end(), base::Error);  // trailing bytes
    }
    {
        cad::BlobWriter bad;
        bad.u8(2);  // booleans must be 0/1
        cad::BlobReader r(bad.bytes());
        EXPECT_THROW((void)r.boolean(), base::Error);
    }
    {
        cad::BlobWriter lie;
        lie.u64(1000);  // string length far beyond the payload
        cad::BlobReader r(lie.bytes());
        EXPECT_THROW((void)r.str(), base::Error);
    }
}

// ---------------------------------------------------------------------------
// Codec roundtrips
// ---------------------------------------------------------------------------

TEST(SerializeCodec, MappedDesignRoundtrip) {
    const cad::MappedDesign md = make_mapped();
    const auto blob = cad::ArtifactCodec<cad::MappedDesign>::encode_blob(md);
    const cad::MappedDesign back = cad::ArtifactCodec<cad::MappedDesign>::decode_blob(blob);

    ASSERT_EQ(back.les.size(), md.les.size());
    for (std::size_t i = 0; i < md.les.size(); ++i) {
        expect_opt_func_eq(back.les[i].a, md.les[i].a);
        expect_opt_func_eq(back.les[i].b, md.les[i].b);
        expect_opt_func_eq(back.les[i].full7, md.les[i].full7);
        expect_opt_func_eq(back.les[i].lut2, md.les[i].lut2);
    }
    ASSERT_EQ(back.pdes.size(), md.pdes.size());
    EXPECT_EQ(back.pdes[0].input, md.pdes[0].input);
    EXPECT_EQ(back.pdes[0].output, md.pdes[0].output);
    EXPECT_EQ(back.pdes[0].required_delay_ps, md.pdes[0].required_delay_ps);
    EXPECT_EQ(back.constant_signals, md.constant_signals);
    EXPECT_EQ(back.canonical, md.canonical);
    EXPECT_EQ(back.primary_inputs, md.primary_inputs);
    EXPECT_EQ(back.primary_outputs, md.primary_outputs);
}

TEST(SerializeCodec, PackedDesignRoundtrip) {
    const cad::PackedDesign pd = make_packed();
    const auto blob = cad::ArtifactCodec<cad::PackedDesign>::encode_blob(pd);
    const cad::PackedDesign back = cad::ArtifactCodec<cad::PackedDesign>::decode_blob(blob);

    ASSERT_EQ(back.clusters.size(), pd.clusters.size());
    for (std::size_t i = 0; i < pd.clusters.size(); ++i) {
        EXPECT_EQ(back.clusters[i].le_indices, pd.clusters[i].le_indices);
        EXPECT_EQ(back.clusters[i].pde_index, pd.clusters[i].pde_index);
    }
    EXPECT_EQ(back.cluster_of_le, pd.cluster_of_le);
    EXPECT_EQ(back.cluster_of_pde, pd.cluster_of_pde);
}

TEST(SerializeCodec, PlacementRoundtrip) {
    const cad::Placement pl = make_placement();
    const auto blob = cad::ArtifactCodec<cad::Placement>::encode_blob(pl);
    const cad::Placement back = cad::ArtifactCodec<cad::Placement>::decode_blob(blob);

    ASSERT_EQ(back.cluster_loc.size(), pl.cluster_loc.size());
    for (std::size_t i = 0; i < pl.cluster_loc.size(); ++i) {
        EXPECT_EQ(back.cluster_loc[i].x, pl.cluster_loc[i].x);
        EXPECT_EQ(back.cluster_loc[i].y, pl.cluster_loc[i].y);
    }
    EXPECT_EQ(back.pi_pad, pl.pi_pad);
    EXPECT_EQ(back.po_pad, pl.po_pad);
    EXPECT_EQ(back.final_cost, pl.final_cost);
    EXPECT_EQ(back.moves_tried, pl.moves_tried);
    EXPECT_EQ(back.moves_accepted, pl.moves_accepted);
    EXPECT_EQ(back.anneal_rounds, pl.anneal_rounds);
    EXPECT_EQ(back.cost_trajectory, pl.cost_trajectory);
    EXPECT_EQ(back.analytical.solver_iterations, pl.analytical.solver_iterations);
    EXPECT_EQ(back.analytical.solver_passes, pl.analytical.solver_passes);
    EXPECT_EQ(back.analytical.spread_passes, pl.analytical.spread_passes);
    EXPECT_EQ(back.analytical.pre_legal_cost, pl.analytical.pre_legal_cost);
    EXPECT_EQ(back.analytical.legalized_cost, pl.analytical.legalized_cost);
    EXPECT_EQ(back.analytical.legalize.displacement_histogram,
              pl.analytical.legalize.displacement_histogram);
    EXPECT_EQ(back.analytical.legalize.total_displacement,
              pl.analytical.legalize.total_displacement);
    EXPECT_EQ(back.analytical.legalize.max_displacement,
              pl.analytical.legalize.max_displacement);
    EXPECT_EQ(back.analytical.legalize.avg_displacement,
              pl.analytical.legalize.avg_displacement);
    ASSERT_EQ(back.analytical.levels.size(), pl.analytical.levels.size());
    for (std::size_t i = 0; i < pl.analytical.levels.size(); ++i) {
        const cad::LevelStats& a = back.analytical.levels[i];
        const cad::LevelStats& b = pl.analytical.levels[i];
        EXPECT_EQ(a.nodes, b.nodes) << "level " << i;
        EXPECT_EQ(a.nets, b.nets) << "level " << i;
        EXPECT_EQ(a.solver_passes, b.solver_passes) << "level " << i;
        EXPECT_EQ(a.spread_passes, b.spread_passes) << "level " << i;
        EXPECT_EQ(a.solver_iterations, b.solver_iterations) << "level " << i;
        EXPECT_EQ(a.wall_ms, b.wall_ms) << "level " << i;
    }
}

TEST(SerializeCodec, RouteArtifactRoundtrip) {
    const cad::RouteArtifact ra = make_route();
    const auto blob = cad::ArtifactCodec<cad::RouteArtifact>::encode_blob(ra);
    const cad::RouteArtifact back = cad::ArtifactCodec<cad::RouteArtifact>::decode_blob(blob);

    const cad::RoutingResult& a = ra.routing;
    const cad::RoutingResult& b = back.routing;
    ASSERT_EQ(b.trees.size(), a.trees.size());
    for (std::size_t i = 0; i < a.trees.size(); ++i) {
        EXPECT_EQ(b.trees[i].root_opin, a.trees[i].root_opin);
        EXPECT_EQ(b.trees[i].edges, a.trees[i].edges);
        ASSERT_EQ(b.trees[i].sinks.size(), a.trees[i].sinks.size());
        for (std::size_t j = 0; j < a.trees[i].sinks.size(); ++j) {
            EXPECT_EQ(b.trees[i].sinks[j].ipin, a.trees[i].sinks[j].ipin);
            EXPECT_EQ(b.trees[i].sinks[j].delay_ps, a.trees[i].sinks[j].delay_ps);
        }
    }
    EXPECT_EQ(b.iterations, a.iterations);
    EXPECT_EQ(b.success, a.success);
    EXPECT_EQ(b.overused_nodes, a.overused_nodes);
    EXPECT_EQ(b.overuse_report, a.overuse_report);
    EXPECT_EQ(b.overuse_trajectory, a.overuse_trajectory);
    EXPECT_EQ(b.nets_rerouted, a.nets_rerouted);
    EXPECT_EQ(b.wirelength, a.wirelength);
    EXPECT_EQ(b.num_bins, a.num_bins);
    EXPECT_EQ(b.boundary_nets, a.boundary_nets);
    EXPECT_EQ(b.bin_wall_ms, a.bin_wall_ms);
    EXPECT_EQ(b.boundary_wall_ms, a.boundary_wall_ms);
    EXPECT_EQ(b.kernel.heap_pushes, a.kernel.heap_pushes);
    EXPECT_EQ(b.kernel.heap_pops, a.kernel.heap_pops);
    EXPECT_EQ(b.kernel.nodes_expanded, a.kernel.nodes_expanded);
    EXPECT_EQ(b.kernel.edges_scanned, a.kernel.edges_scanned);
    EXPECT_EQ(b.kernel.wavefront_peak, a.kernel.wavefront_peak);
    EXPECT_EQ(b.kernel.allocations, a.kernel.allocations);
    EXPECT_EQ(b.kernel.steady_allocations, a.kernel.steady_allocations);
    EXPECT_EQ(b.kernel.nets_routed, a.kernel.nets_routed);
    EXPECT_EQ(b.kernel.search_ms, a.kernel.search_ms);

    ASSERT_EQ(back.reqs.size(), ra.reqs.size());
    for (std::size_t i = 0; i < ra.reqs.size(); ++i) {
        EXPECT_EQ(back.reqs[i].signal, ra.reqs[i].signal);
        EXPECT_EQ(back.reqs[i].src_is_pad, ra.reqs[i].src_is_pad);
        EXPECT_EQ(back.reqs[i].src_pad, ra.reqs[i].src_pad);
        EXPECT_EQ(back.reqs[i].src_plb.x, ra.reqs[i].src_plb.x);
        EXPECT_EQ(back.reqs[i].src_plb.y, ra.reqs[i].src_plb.y);
        EXPECT_EQ(back.reqs[i].allowed_src_pins, ra.reqs[i].allowed_src_pins);
        ASSERT_EQ(back.reqs[i].sinks.size(), ra.reqs[i].sinks.size());
        for (std::size_t j = 0; j < ra.reqs[i].sinks.size(); ++j) {
            EXPECT_EQ(back.reqs[i].sinks[j].is_pad, ra.reqs[i].sinks[j].is_pad);
            EXPECT_EQ(back.reqs[i].sinks[j].pad, ra.reqs[i].sinks[j].pad);
            EXPECT_EQ(back.reqs[i].sinks[j].plb.x, ra.reqs[i].sinks[j].plb.x);
            EXPECT_EQ(back.reqs[i].sinks[j].plb.y, ra.reqs[i].sinks[j].plb.y);
        }
    }
    EXPECT_EQ(back.sink_cluster, ra.sink_cluster);
    EXPECT_EQ(back.req_signal, ra.req_signal);
}

TEST(SerializeCodec, BitstreamArtifactRoundtrip) {
    const core::ArchSpec arch;  // paper defaults
    const core::RRGraph rr(arch);
    core::Bitstream bits(arch, rr.num_edges());
    bits.set_pad_mode(0, core::PadMode::Input);
    bits.set_pad_mode(3, core::PadMode::Output);
    bits.set_edge(1, true);
    bits.set_edge(rr.num_edges() - 1, true);
    core::PlbConfig& plb = bits.plb({1, 1});
    plb.im.connect(arch, /*sink=*/0, /*source=*/arch.im_src_const1());
    plb.pde.tap = 5;

    cad::BitstreamArtifact ba{std::move(bits), {{0, "req_in"}, {3, "ack_out"}}};
    const auto blob = cad::ArtifactCodec<cad::BitstreamArtifact>::encode_blob(ba);
    const cad::BitstreamArtifact back =
        cad::ArtifactCodec<cad::BitstreamArtifact>::decode_blob(blob);

    EXPECT_TRUE(back.bits == ba.bits);  // PLBs + pads + edges, bit for bit
    EXPECT_EQ(back.pad_names, ba.pad_names);
    EXPECT_EQ(back.bits.pad_mode(3), core::PadMode::Output);
    EXPECT_EQ(back.bits.plb({1, 1}).pde.tap, 5);
}

// ---------------------------------------------------------------------------
// Determinism: content-addressing requires equal values -> equal bytes
// ---------------------------------------------------------------------------

TEST(SerializeDeterminism, MappedDesignIgnoresMapInsertionOrder) {
    cad::MappedDesign a = make_mapped();
    cad::MappedDesign b = make_mapped();
    // Rebuild b's unordered maps in reverse insertion order.
    b.constant_signals.clear();
    b.constant_signals[nid(51)] = false;
    b.constant_signals[nid(50)] = true;
    b.canonical.clear();
    b.canonical[nid(61)] = nid(2);
    b.canonical[nid(60)] = nid(1);
    EXPECT_EQ(cad::ArtifactCodec<cad::MappedDesign>::encode_blob(a),
              cad::ArtifactCodec<cad::MappedDesign>::encode_blob(b));
}

TEST(SerializeDeterminism, PlacementIgnoresMapInsertionOrder) {
    cad::Placement a = make_placement();
    cad::Placement b = make_placement();
    b.pi_pad.clear();
    b.pi_pad["d"] = 1;
    b.pi_pad["clk_req"] = 0;
    b.po_pad.clear();
    b.po_pad["ack"] = 6;
    b.po_pad["q"] = 5;
    EXPECT_EQ(cad::ArtifactCodec<cad::Placement>::encode_blob(a),
              cad::ArtifactCodec<cad::Placement>::encode_blob(b));
}

TEST(SerializeDeterminism, EncodeIsRepeatable) {
    const cad::RouteArtifact ra = make_route();
    EXPECT_EQ(cad::ArtifactCodec<cad::RouteArtifact>::encode_blob(ra),
              cad::ArtifactCodec<cad::RouteArtifact>::encode_blob(ra));
}

// ---------------------------------------------------------------------------
// Malformed blobs: every failure is a thrown base::Error, never a crash
// ---------------------------------------------------------------------------

TEST(SerializeRobustness, TruncationAtEveryPrefixThrows) {
    const struct {
        const char* what;
        std::vector<std::uint8_t> blob;
    } cases[] = {
        {"mapped", cad::ArtifactCodec<cad::MappedDesign>::encode_blob(make_mapped())},
        {"packed", cad::ArtifactCodec<cad::PackedDesign>::encode_blob(make_packed())},
        {"placement", cad::ArtifactCodec<cad::Placement>::encode_blob(make_placement())},
        {"route", cad::ArtifactCodec<cad::RouteArtifact>::encode_blob(make_route())},
    };
    for (const auto& c : cases) {
        for (std::size_t len = 0; len < c.blob.size(); ++len) {
            const std::vector<std::uint8_t> prefix(c.blob.begin(),
                                                   c.blob.begin() + static_cast<long>(len));
            try {
                if (c.what == std::string("mapped"))
                    (void)cad::ArtifactCodec<cad::MappedDesign>::decode_blob(prefix);
                else if (c.what == std::string("packed"))
                    (void)cad::ArtifactCodec<cad::PackedDesign>::decode_blob(prefix);
                else if (c.what == std::string("placement"))
                    (void)cad::ArtifactCodec<cad::Placement>::decode_blob(prefix);
                else
                    (void)cad::ArtifactCodec<cad::RouteArtifact>::decode_blob(prefix);
                FAIL() << c.what << " decoded a " << len << "-byte prefix";
            } catch (const base::Error&) {
                // expected: truncation always surfaces as base::Error
            }
        }
    }
}

TEST(SerializeRobustness, CorruptCountFailsBeforeAllocating) {
    // A blob whose leading element count claims ~2^61 LEs must be rejected
    // by the count-vs-remaining check, not die attempting the reserve.
    cad::BlobWriter w;
    w.u64(0x2000000000000000ULL);
    EXPECT_THROW((void)cad::ArtifactCodec<cad::MappedDesign>::decode_blob(w.bytes()),
                 base::Error);
}

TEST(SerializeRobustness, WrappingCountThrowsBaseError) {
    // 2^62 LEs of at least four bytes each is 2^64 bytes, a product that
    // wraps to 0: the count check must not be fooled into letting the
    // reserve throw std::length_error instead of the documented base::Error.
    cad::BlobWriter w;
    w.u64(std::uint64_t{1} << 62);
    EXPECT_THROW((void)cad::ArtifactCodec<cad::MappedDesign>::decode_blob(w.bytes()),
                 base::Error);
}

TEST(SerializeRobustness, DecodeArchRejectsGarbage) {
    const core::ArchSpec arch;
    {
        cad::BlobWriter w;
        cad::encode_arch(arch, w);
        std::vector<std::uint8_t> bytes = w.bytes();
        bytes[48] = 0xFF;  // the ImTopology byte: out of enum range
        cad::BlobReader r(bytes);
        EXPECT_THROW((void)cad::decode_arch(r), base::Error);
    }
    {
        core::ArchSpec bad = arch;
        bad.channel_width = 0;  // encodes fine; decode re-validates
        cad::BlobWriter w;
        cad::encode_arch(bad, w);
        cad::BlobReader r(w.bytes());
        EXPECT_THROW((void)cad::decode_arch(r), base::Error);
    }
}

TEST(SerializeRobustness, BitstreamBlobRejectsPadNamesOffFabricOrOutOfOrder) {
    using Codec = cad::ArtifactCodec<cad::BitstreamArtifact>;
    const core::ArchSpec arch;
    const core::RRGraph rr(arch);
    const std::uint32_t num_pads = core::FabricGeometry(arch).num_pads();
    auto blob_naming = [&](std::unordered_map<std::uint32_t, std::string> names) {
        return Codec::encode_blob(
            cad::BitstreamArtifact{core::Bitstream(arch, rr.num_edges()), std::move(names)});
    };
    auto error_of = [](const std::vector<std::uint8_t>& blob) -> std::string {
        try {
            (void)Codec::decode_blob(blob);
        } catch (const base::Error& e) {
            return e.what();
        }
        return "decoded";
    };
    EXPECT_EQ(error_of(blob_naming({{0, "first"}, {num_pads - 1, "last"}})), "decoded");
    EXPECT_NE(error_of(blob_naming({{num_pads, "off"}})).find("past the fabric"),
              std::string::npos);
    EXPECT_NE(error_of(blob_naming({{999999, "far"}})).find("past the fabric"),
              std::string::npos);

    // The blob ends with (u32 pad, str name) pairs; rewrite the last pad so
    // it repeats, then precedes, the one before it.
    std::vector<std::uint8_t> blob = blob_naming({{3, "a"}, {4, "b"}});
    cad::BlobWriter name;
    name.str("b");
    const std::size_t last_pad = blob.size() - name.bytes().size() - 4;
    ASSERT_EQ(blob[last_pad], 4);
    for (const std::uint8_t pad : {3, 2}) {
        blob[last_pad] = pad;
        EXPECT_NE(error_of(blob).find("not strictly ascending"), std::string::npos)
            << "pad " << int{pad};
    }
}

TEST(SerializeRobustness, BitstreamBlobWithFlippedBodyBitFailsCrc) {
    const core::ArchSpec arch;
    const core::RRGraph rr(arch);
    core::Bitstream bits(arch, rr.num_edges());
    bits.set_pad_mode(0, core::PadMode::Input);
    const cad::BitstreamArtifact ba{std::move(bits), {}};
    std::vector<std::uint8_t> blob = cad::ArtifactCodec<cad::BitstreamArtifact>::encode_blob(ba);
    // Flip a bit in the middle of the serialized bitstream body: the
    // embedded CRC check must reject it.
    blob[blob.size() / 2] ^= 0x01;
    EXPECT_THROW((void)cad::ArtifactCodec<cad::BitstreamArtifact>::decode_blob(blob),
                 base::Error);
}
