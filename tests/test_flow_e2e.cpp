// End-to-end CAD-flow regression harness.
//
// Drives two representative designs — a dual-rail (QDI) ripple-carry adder
// and a bundled-data micropipeline FIFO — through the complete pipeline:
// elaborate -> techmap -> pack -> place (multilevel V-cycle, fixed seed) ->
// route -> bitstream, then reconstructs the implemented netlist from the
// bitstream and simulates it against the behavioural (source netlist)
// model. Every stage's artifact is checked for structural legality, and the
// whole flow is checked to be seed-stable, so later placer/router
// optimisations have a trustworthy baseline to diff against.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "cad/flow.hpp"
#include "sim/channels.hpp"
#include "sim/monitors.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using namespace afpga;
using testsupport::PostRouteSim;

constexpr std::uint64_t kSeed = 2026;

/// Legal placement: every cluster on its own PLB, every PI and PO on its
/// own pad.
void expect_legal_placement(const cad::FlowResult& fr) {
    const core::FabricGeometry geom(fr.arch);
    ASSERT_EQ(fr.placement.cluster_loc.size(), fr.packed.clusters.size());
    std::set<std::pair<std::uint32_t, std::uint32_t>> used;
    for (const auto& c : fr.placement.cluster_loc) {
        EXPECT_LT(c.x, fr.arch.width);
        EXPECT_LT(c.y, fr.arch.height);
        EXPECT_TRUE(used.emplace(c.x, c.y).second) << "two clusters on one PLB";
    }
    EXPECT_EQ(fr.placement.pi_pad.size(), fr.mapped.primary_inputs.size());
    EXPECT_EQ(fr.placement.po_pad.size(), fr.mapped.primary_outputs.size());
    std::set<std::uint32_t> pads;
    for (const auto* m : {&fr.placement.pi_pad, &fr.placement.po_pad})
        for (const auto& [name, pad] : *m) {
            EXPECT_LT(pad, geom.num_pads()) << name;
            EXPECT_TRUE(pads.insert(pad).second) << "pad shared: " << name;
        }
}

// Structural legality of every intermediate artifact the flow produced.
void expect_legal_flow_result(const cad::FlowResult& fr, std::size_t n_clusters_max) {
    // techmap: at least one LE, and the mapping was verified by the flow.
    EXPECT_FALSE(fr.mapped.les.empty());
    // pack: every cluster within architectural capacity.
    ASSERT_FALSE(fr.packed.clusters.empty());
    EXPECT_LE(fr.packed.clusters.size(), n_clusters_max);
    for (const auto& c : fr.packed.clusters) {
        EXPECT_LE(c.le_indices.size(), fr.arch.les_per_plb);
        EXPECT_LE(c.external_inputs(fr.mapped).size(), fr.arch.plb_inputs);
    }
    expect_legal_placement(fr);
    // route: converged, nothing overused, every tree rooted.
    EXPECT_TRUE(fr.routing.success);
    EXPECT_EQ(fr.routing.overused_nodes, 0u);
    for (const auto& t : fr.routing.trees) EXPECT_NE(t.root_opin, UINT32_MAX);
    // bitstream: present and round-trippable.
    ASSERT_NE(fr.bits, nullptr);
    EXPECT_GT(fr.bits->serialize().size(), 0u);
}

TEST(FlowE2E, QdiRippleAdderImplementationMatchesBehaviouralModel) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = kSeed;
    const auto fr = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    expect_legal_flow_result(fr, fr.arch.width * fr.arch.height);

    // Behavioural model: the source netlist, zero-delay wires.
    sim::Simulator golden(adder.nl);
    golden.run();
    sim::QdiCombIface golden_iface;
    golden_iface.inputs = adder.a;
    golden_iface.inputs.insert(golden_iface.inputs.end(), adder.b.begin(), adder.b.end());
    golden_iface.inputs.push_back(adder.cin);
    golden_iface.outputs = adder.sum;
    golden_iface.outputs.push_back(adder.cout);
    golden_iface.done = adder.done;

    // Implementation: elaborated from the bitstream, routed wire delays on.
    PostRouteSim impl(fr);
    const auto impl_iface = testsupport::qdi_adder_iface(impl.design.nl, 2);

    for (std::uint64_t v = 0; v < 32; ++v) {
        const std::uint64_t a = v & 3;
        const std::uint64_t b = (v >> 2) & 3;
        const std::uint64_t cin = (v >> 4) & 1;
        const std::uint64_t want = a + b + cin;
        EXPECT_EQ(sim::qdi_apply_token(golden, golden_iface, v), want) << "golden v=" << v;
        EXPECT_EQ(sim::qdi_apply_token(*impl.sim, impl_iface, v), want) << "impl v=" << v;
    }
}

TEST(FlowE2E, MicropipelineFifoStreamsTokensPostRoute) {
    auto fifo = asynclib::make_micropipeline_fifo(4, 3);
    cad::FlowOptions opts;
    opts.seed = kSeed;
    const auto fr = cad::run_flow(fifo.nl, {}, core::ArchSpec{}, opts);
    expect_legal_flow_result(fr, fr.arch.width * fr.arch.height);

    const std::vector<std::uint64_t> tokens{3, 14, 8, 0, 15, 1, 12, 7};

    // Behavioural model: stream through the source netlist.
    sim::Simulator golden(fifo.nl);
    golden.run();
    sim::BdStreamSource gsrc(golden, fifo.in, fifo.req_in, fifo.ack_in, tokens, 100, 80);
    sim::BdStreamSink gsink(golden, fifo.out, fifo.req_out, fifo.ack_out, 100);
    gsrc.start();
    EXPECT_TRUE(golden.run(500'000'000).quiescent);
    EXPECT_EQ(gsink.received(), tokens);

    // Implementation: same stream through the post-route design, with the
    // bundling constraint monitored on the output channel — the property
    // the routed PDEs exist to guarantee.
    PostRouteSim impl(fr);
    const auto iface = testsupport::mp_fifo_iface(impl.design.nl, 4);
    sim::BundledChannelMonitor mon(*impl.sim, iface.data_out, iface.req_out, iface.ack_out,
                                   "e2e.out");
    sim::BdStreamSource src(*impl.sim, iface.data_in, iface.req_in, iface.ack_in, tokens, 100, 80);
    sim::BdStreamSink sink(*impl.sim, iface.data_out, iface.req_out, iface.ack_out, 100);
    src.start();
    EXPECT_TRUE(impl.sim->run(500'000'000).quiescent);
    EXPECT_EQ(sink.received(), tokens);
    EXPECT_TRUE(mon.violations().empty())
        << (mon.violations().empty() ? "" : mon.violations()[0].what);
}

TEST(FlowE2E, AdderFlowIsSeedStable) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = kSeed;
    const auto a = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    const auto b = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    EXPECT_EQ(testsupport::flow_fingerprint(a), testsupport::flow_fingerprint(b));
}

TEST(FlowE2E, FifoFlowIsSeedStable) {
    auto fifo = asynclib::make_micropipeline_fifo(4, 3);
    cad::FlowOptions opts;
    opts.seed = kSeed;
    const auto a = cad::run_flow(fifo.nl, {}, core::ArchSpec{}, opts);
    const auto b = cad::run_flow(fifo.nl, {}, core::ArchSpec{}, opts);
    EXPECT_EQ(testsupport::flow_fingerprint(a), testsupport::flow_fingerprint(b));
}

// --- edge cases of the default placer ------------------------------------------
// The V-cycle's coarsening and spreading assume some clusters to work on.
// These designs have one cluster (far below min_coarse_nodes), none at all,
// or one full adder, and each must still compile through the default
// options to a legal placement that elaborates, the same way every time.

/// Compile with default options: legal, routed, elaborates with every pad
/// named, identical across two runs and across route.threads {0, 2}.
cad::FlowResult expect_stable_default_compile(const netlist::Netlist& nl,
                                              const asynclib::MappingHints& hints) {
    const cad::FlowResult fr = cad::run_flow(nl, hints, core::ArchSpec{}, {});
    expect_legal_placement(fr);
    EXPECT_TRUE(fr.routing.success);
    const core::ElaboratedDesign design = fr.elaborate();
    EXPECT_EQ(design.pad_to_pi.size(), nl.primary_inputs().size());
    EXPECT_EQ(design.pad_to_po.size(), nl.primary_outputs().size());

    const std::string fp = testsupport::flow_fingerprint(fr);
    EXPECT_EQ(testsupport::flow_fingerprint(cad::run_flow(nl, hints, core::ArchSpec{}, {})), fp);
    cad::FlowOptions pooled;
    pooled.route.threads = 2;
    EXPECT_EQ(testsupport::flow_fingerprint(cad::run_flow(nl, hints, core::ArchSpec{}, pooled)),
              fp);
    return fr;
}

/// Drive PI `a` to each value and check that PO `y` is its inverse
/// post-route.
void expect_post_route_inverter(const cad::FlowResult& fr) {
    PostRouteSim prs(fr);
    const netlist::NetId in = prs.design.nl.find_net("a");
    const netlist::NetId out = testsupport::po_net(prs.design.nl, "y");
    for (const netlist::Logic v : {netlist::Logic::T, netlist::Logic::F}) {
        prs.sim->schedule_pi(in, v);
        EXPECT_TRUE(prs.sim->run().quiescent);
        EXPECT_EQ(prs.sim->value(out),
                  v == netlist::Logic::T ? netlist::Logic::F : netlist::Logic::T);
    }
}

TEST(FlowEdgeCases, OneInverterPlacesBelowTheCoarseningFloor) {
    netlist::Netlist nl("inv");
    const netlist::NetId a = nl.add_input("a");
    nl.add_output("y", nl.add_cell(netlist::CellFunc::Inv, "y", {a}));
    const cad::FlowResult fr = expect_stable_default_compile(nl, {});
    EXPECT_EQ(fr.packed.clusters.size(), 1u);
    expect_post_route_inverter(fr);
}

TEST(FlowEdgeCases, PrimaryInputsOnlyPlacesWithNoClusters) {
    // Nothing but pads to place (a PI wired straight to a PO is rejected by
    // the flow, so the design has inputs only).
    netlist::Netlist nl("pads");
    nl.add_input("a");
    nl.add_input("b");
    const cad::FlowResult fr = expect_stable_default_compile(nl, {});
    EXPECT_TRUE(fr.packed.clusters.empty());
    EXPECT_EQ(fr.placement.pi_pad.size(), 2u);
}

TEST(FlowEdgeCases, OneBitQdiAdder) {
    auto adder = asynclib::make_qdi_adder(1);
    const cad::FlowResult fr = expect_stable_default_compile(adder.nl, adder.hints);
    PostRouteSim prs(fr);
    const auto iface = testsupport::qdi_adder_iface(prs.design.nl, 1);
    EXPECT_EQ(sim::qdi_apply_token(*prs.sim, iface, 0b1'1'1), 3u);
}

}  // namespace
