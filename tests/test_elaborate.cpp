// Tests of the bitstream -> netlist elaborator: reconstruction fidelity,
// delay annotation plumbing and rejection of ill-formed configurations.
#include <gtest/gtest.h>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "cad/flow.hpp"
#include "cad/serialize.hpp"
#include "cad/wire.hpp"
#include "core/elaborate.hpp"
#include "netlist/analyze.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace afpga;
using core::ArchSpec;
using core::Bitstream;
using core::PadMode;
using core::RRGraph;
using netlist::CellFunc;
using netlist::Logic;
using netlist::NetId;

/// Hand-program a fabric: pad0 -> PLB(0,0) LE0 half A (inverter) -> pad N.
struct HandProgrammed {
    ArchSpec arch;
    std::shared_ptr<RRGraph> rr;
    std::shared_ptr<Bitstream> bits;
    std::uint32_t in_pad = 0;
    std::uint32_t out_pad = 0;
};

HandProgrammed program_inverter() {
    HandProgrammed h;
    h.arch.width = 2;
    h.arch.height = 2;
    h.rr = std::make_shared<RRGraph>(h.arch);
    h.bits = std::make_shared<Bitstream>(h.arch, h.rr->num_edges());

    // Route pad0's opin to some ipin of PLB(0,0) by walking the graph.
    h.in_pad = 0;
    const std::uint32_t start = h.rr->pad_opin(h.in_pad);
    // BFS storing the edge used to reach each node.
    std::vector<std::uint32_t> via(h.rr->num_nodes(), UINT32_MAX);
    std::vector<std::uint32_t> q{start};
    std::uint32_t entry_ipin = UINT32_MAX;
    std::vector<bool> seen(h.rr->num_nodes(), false);
    seen[start] = true;
    while (!q.empty() && entry_ipin == UINT32_MAX) {
        const std::uint32_t n = q.front();
        q.erase(q.begin());
        for (std::uint32_t e : h.rr->out_edges(n)) {
            const std::uint32_t to = h.rr->edge_target(e);
            if (seen[to]) continue;
            seen[to] = true;
            via[to] = e;
            const auto& nd = h.rr->node(to);
            if (nd.kind == core::RRKind::Ipin && !nd.is_pad && nd.x == 0 && nd.y == 0) {
                entry_ipin = to;
                break;
            }
            if (nd.kind != core::RRKind::Ipin) q.push_back(to);
        }
    }
    base::check(entry_ipin != UINT32_MAX, "test: no path pad->PLB");
    std::vector<bool> used_by_input(h.rr->num_nodes(), false);
    for (std::uint32_t n = entry_ipin; via[n] != UINT32_MAX; n = h.rr->edge_source(via[n])) {
        h.bits->set_edge(via[n], true);
        used_by_input[n] = true;
        used_by_input[h.rr->edge_source(via[n])] = true;
    }
    const std::uint32_t in_pin = h.rr->pin_index(entry_ipin);

    // LE0 half A = INV(i_pin). Program the half over pin `in_pin`... pins are
    // LE-local; route the PLB input pin to LE0 pin 0 through the IM.
    auto& plb = h.bits->plb({0, 0});
    plb.le[0].tt_a = 0;
    // tt over i0..i5 with function = NOT(i0): rows where i0==0 are 1.
    for (std::uint32_t m = 0; m < 64; ++m)
        if (!(m & 1)) plb.le[0].tt_a |= 1ULL << m;
    plb.im.connect(h.arch, h.arch.im_sink_le_input(0, 0), h.arch.im_src_plb_input(in_pin));

    // LE0 output O0 -> some PLB output pin -> route to an output pad.
    // Find a pad ipin reachable from an opin of PLB(0,0).
    std::uint32_t chosen_opin = UINT32_MAX;
    std::uint32_t exit_pad = UINT32_MAX;
    for (std::uint32_t p = 0; p < h.arch.plb_outputs && exit_pad == UINT32_MAX; ++p) {
        const std::uint32_t o = h.rr->plb_opin({0, 0}, p);
        std::fill(seen.begin(), seen.end(), false);
        std::fill(via.begin(), via.end(), UINT32_MAX);
        std::vector<std::uint32_t> q2{o};
        seen[o] = true;
        while (!q2.empty() && exit_pad == UINT32_MAX) {
            const std::uint32_t n = q2.front();
            q2.erase(q2.begin());
            for (std::uint32_t e : h.rr->out_edges(n)) {
                const std::uint32_t to = h.rr->edge_target(e);
                if (seen[to] || used_by_input[to]) continue;  // avoid shorts
                seen[to] = true;
                via[to] = e;
                const auto& nd = h.rr->node(to);
                if (nd.kind == core::RRKind::Ipin && nd.is_pad &&
                    h.rr->pad_of(to) != h.in_pad) {
                    exit_pad = h.rr->pad_of(to);
                    chosen_opin = o;
                    for (std::uint32_t k = to; via[k] != UINT32_MAX;
                         k = h.rr->edge_source(via[k]))
                        h.bits->set_edge(via[k], true);
                    break;
                }
                if (nd.kind != core::RRKind::Ipin) q2.push_back(to);
            }
        }
    }
    base::check(exit_pad != UINT32_MAX, "test: no path PLB->pad");
    h.out_pad = exit_pad;
    plb.im.connect(h.arch, h.arch.im_sink_plb_output(h.rr->pin_index(chosen_opin)),
                   h.arch.im_src_le_output(0, 0));
    h.bits->set_pad_mode(h.in_pad, PadMode::Input);
    h.bits->set_pad_mode(h.out_pad, PadMode::Output);
    return h;
}

TEST(Elaborate, HandProgrammedInverterWorks) {
    const HandProgrammed h = program_inverter();
    const auto design = core::elaborate(*h.rr, *h.bits,
                                        {{h.in_pad, "x"}, {h.out_pad, "y"}});
    ASSERT_EQ(design.nl.primary_inputs().size(), 1u);
    ASSERT_EQ(design.nl.primary_outputs().size(), 1u);
    // Functionally an inverter.
    const auto funcs = netlist::extract_functions(design.nl);
    EXPECT_EQ(funcs[0], netlist::TruthTable::from_function(
                            1, [](std::uint32_t m) { return (m & 1) == 0; }));
    // Wire delays were annotated for the routed input.
    EXPECT_FALSE(design.wire_delays.empty());
    const auto resolved = core::resolve_wire_delays(design);
    EXPECT_EQ(resolved.size(), design.wire_delays.size());
    for (const auto& d : resolved) EXPECT_GT(d.delay_ps, 0);
}

TEST(Elaborate, UnroutedConfiguredPinRejected) {
    ArchSpec arch;
    arch.width = 2;
    arch.height = 2;
    const RRGraph rr(arch);
    Bitstream bits(arch, rr.num_edges());
    auto& plb = bits.plb({0, 0});
    plb.le[0].tt_a = 0x2;  // i0
    // LE input listens to PLB input pin 0, but nothing routes to it; the LE
    // output is referenced so the cell gets built.
    plb.im.connect(arch, arch.im_sink_le_input(0, 0), arch.im_src_plb_input(0));
    plb.im.connect(arch, arch.im_sink_plb_output(0), arch.im_src_le_output(0, 0));
    EXPECT_THROW((void)core::elaborate(rr, bits), base::Error);
}

TEST(Elaborate, OutputPadWithoutRouteRejected) {
    ArchSpec arch;
    arch.width = 2;
    arch.height = 2;
    const RRGraph rr(arch);
    Bitstream bits(arch, rr.num_edges());
    bits.set_pad_mode(3, PadMode::Output);
    EXPECT_THROW((void)core::elaborate(rr, bits), base::Error);
}

TEST(Elaborate, RoutingShortRejected) {
    // Enable edges so two different driver opins reach the same wire.
    ArchSpec arch;
    arch.width = 2;
    arch.height = 1;
    const RRGraph rr(arch);
    Bitstream bits(arch, rr.num_edges());
    // Make both PLBs drive output pin 0 into their first Fc wire; pick the
    // first out-edges of two distinct opins that share a target wire. To keep
    // it simple: enable ALL edges out of two opins and all wire-wire edges —
    // a short is then guaranteed on the shared channel.
    auto enable_all_from = [&](std::uint32_t node) {
        for (std::uint32_t e : rr.out_edges(node)) bits.set_edge(e, true);
    };
    enable_all_from(rr.plb_opin({0, 0}, 0));
    enable_all_from(rr.plb_opin({1, 0}, 0));
    // Wire->wire edges along the bottom channel:
    for (std::uint32_t n = 0; n < rr.num_nodes(); ++n) {
        const auto& nd = rr.node(n);
        if (nd.kind == core::RRKind::ChanX || nd.kind == core::RRKind::ChanY)
            enable_all_from(n);
    }
    // Give both drivers something to drive (reference LE outputs).
    for (std::uint32_t x = 0; x < 2; ++x) {
        auto& plb = bits.plb({x, 0});
        plb.le[0].tt_a = 0x1;  // const-ish; support empty is fine for driver
        plb.im.connect(arch, arch.im_sink_plb_output(0), arch.im_src_le_output(0, 0));
    }
    EXPECT_THROW((void)core::elaborate(rr, bits), base::Error);
}

TEST(Elaborate, FlowNamesSurviveToNetlist) {
    auto adder = asynclib::make_qdi_adder(1);
    const auto fr = cad::run_flow(adder.nl, adder.hints, ArchSpec{}, {});
    const auto design = fr.elaborate();
    // All PIs/POs named as in the source design.
    EXPECT_TRUE(design.nl.find_net("a[0].t").valid());
    EXPECT_TRUE(design.nl.find_net("cin.f").valid());
    bool has_done = false;
    for (const auto& [name, net] : design.nl.primary_outputs()) has_done |= (name == "done");
    EXPECT_TRUE(has_done);
}

TEST(Elaborate, CellCountMatchesUsedLeOutputs) {
    auto adder = asynclib::make_qdi_adder(1);
    const auto fr = cad::run_flow(adder.nl, adder.hints, ArchSpec{}, {});
    const auto design = fr.elaborate();
    std::size_t le_outputs = 0;
    for (const auto& le : fr.mapped.les) le_outputs += le.used_outputs();
    // Elaborated cells = LE-output LUTs + PDEs + const0 + const1.
    const std::size_t expected = le_outputs + fr.mapped.pdes.size() + 2;
    EXPECT_EQ(design.nl.num_cells(), expected);
}

namespace elaborate_golden {

/// FNV-1a over the wire encoding of the elaborated netlist (which carries
/// every net's sink order verbatim) followed by the wire-delay annotations.
std::uint64_t design_hash(const core::ElaboratedDesign& d) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto byte = [&h](std::uint8_t b) {
        h ^= b;
        h *= 0x100000001B3ULL;
    };
    auto mix = [&byte](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(x >> (8 * i)));
    };
    cad::BlobWriter w;
    cad::encode_fields(d.nl, w);
    for (std::uint8_t b : w.bytes()) byte(b);
    for (const core::SinkDelayAnnotation& a : d.wire_delays) {
        mix(a.cell.index());
        mix(a.pin);
        mix(static_cast<std::uint64_t>(a.delay_ps));
    }
    return h;
}

void expect_golden(const netlist::Netlist& nl, const asynclib::MappingHints& hints,
                   std::size_t cells, std::size_t wire_delays, std::uint64_t hash) {
    ArchSpec arch;
    arch.width = arch.height = 12;
    arch.channel_width = 16;
    cad::FlowOptions opts;
    opts.seed = 2026;
    const auto fr = cad::run_flow(nl, hints, arch, opts);
    const auto design = fr.elaborate();
    EXPECT_EQ(design.nl.num_cells(), cells);
    EXPECT_EQ(design.wire_delays.size(), wire_delays);
    EXPECT_EQ(design_hash(design), hash) << std::hex << "0x" << design_hash(design);
}

}  // namespace elaborate_golden

// Recorded before elaborate() rewired its pins in one batch: cells, every
// net's sink order and the delay annotations must stay byte for byte the same.
// The delay annotations are routed wire delays, so a routing change (and
// only that, or a placement change) re-records the hashes: the router's
// RR-graph lookahead did.
TEST(ElaborateGolden, WchbFifo4x8) {
    const auto f = asynclib::make_wchb_fifo(4, 8);
    elaborate_golden::expect_golden(f.nl, f.hints, 114u, 400u, 0x0B3F8AD775A161B6ULL);
}

TEST(ElaborateGolden, MpAdder4) {
    elaborate_golden::expect_golden(asynclib::make_micropipeline_adder(4).nl, {}, 23u, 57u,
                                    0x9C6C37C0613D3382ULL);
}

}  // namespace
