// Deterministic-RNG regression: the CAD flow must be a pure function of
// (netlist, architecture, options) — two runs with the same seed have to
// agree on every placement location, pad assignment, routed wire and
// bitstream bit. Placer/router changes that accidentally read unseeded
// state (iteration order of a hash map, wall clock, ...) fail here first.
#include <gtest/gtest.h>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "cad/flow.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using namespace afpga;

void expect_identical_flow_decisions(const cad::FlowResult& a, const cad::FlowResult& b) {
    // Placement: cluster-by-cluster locations and both pad maps.
    ASSERT_EQ(a.placement.cluster_loc.size(), b.placement.cluster_loc.size());
    for (std::size_t i = 0; i < a.placement.cluster_loc.size(); ++i)
        EXPECT_TRUE(a.placement.cluster_loc[i] == b.placement.cluster_loc[i]) << "cluster " << i;
    EXPECT_EQ(a.placement.pi_pad, b.placement.pi_pad);
    EXPECT_EQ(a.placement.po_pad, b.placement.po_pad);

    // Routing: same source pin, same wire set, same sink pins and delays.
    ASSERT_EQ(a.routing.trees.size(), b.routing.trees.size());
    for (std::size_t i = 0; i < a.routing.trees.size(); ++i) {
        const auto& ta = a.routing.trees[i];
        const auto& tb = b.routing.trees[i];
        EXPECT_EQ(ta.root_opin, tb.root_opin) << "net " << i;
        EXPECT_EQ(ta.edges, tb.edges) << "net " << i;
        ASSERT_EQ(ta.sinks.size(), tb.sinks.size()) << "net " << i;
        for (std::size_t s = 0; s < ta.sinks.size(); ++s) {
            EXPECT_EQ(ta.sinks[s].ipin, tb.sinks[s].ipin) << "net " << i << " sink " << s;
            EXPECT_EQ(ta.sinks[s].delay_ps, tb.sinks[s].delay_ps) << "net " << i << " sink " << s;
        }
    }

    // And therefore the bitstream.
    EXPECT_TRUE(a.bits->serialize() == b.bits->serialize());
}

TEST(Determinism, QdiAdderFlowSameSeedSameResult) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = 424242;
    const auto a = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    const auto b = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
    expect_identical_flow_decisions(a, b);
    EXPECT_EQ(testsupport::flow_fingerprint(a), testsupport::flow_fingerprint(b));
}

TEST(Determinism, WchbFifoFlowSameSeedSameResult) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    cad::FlowOptions opts;
    opts.seed = 7;
    const auto a = cad::run_flow(fifo.nl, fifo.hints, core::ArchSpec{}, opts);
    const auto b = cad::run_flow(fifo.nl, fifo.hints, core::ArchSpec{}, opts);
    expect_identical_flow_decisions(a, b);
}

// --- cross-thread-count matrix ----------------------------------------------
// RouterOptions::threads >= 2 routes the flow (and builds the RR graph) on a
// pool; 0 and 1 stay on the calling thread. The whole point of the router's
// design is that the worker count is a pure wall-clock knob: every thread
// count must produce the same bitstream, bit for bit.

void expect_thread_matrix_identical(const netlist::Netlist& nl,
                                    const asynclib::MappingHints& hints,
                                    const core::ArchSpec& arch, cad::FlowOptions opts) {
    std::string ref_fp;
    base::BitVector ref_bits;
    for (unsigned t : {0u, 1u, 2u, 4u, 8u}) {
        opts.route.threads = t;
        const auto fr = cad::run_flow(nl, hints, arch, opts);
        const std::string fp = testsupport::flow_fingerprint(fr);
        const base::BitVector bits = fr.bits->serialize();
        if (t == 0) {
            ref_fp = fp;
            ref_bits = bits;
            continue;
        }
        EXPECT_EQ(ref_fp, fp) << t << " threads changed the flow fingerprint";
        EXPECT_TRUE(ref_bits == bits) << t << " threads changed the bitstream";
    }
}

TEST(Determinism, QdiAdderBitstreamInvariantAcrossRouteThreads) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = 424242;
    // min_bin_dim=3 splits the default 8x8 fabric so the matrix exercises
    // real concurrent bins, not the single-bin degenerate case.
    opts.route.min_bin_dim = 3;
    expect_thread_matrix_identical(adder.nl, adder.hints, core::ArchSpec{}, opts);
}

TEST(Determinism, WchbFifoBitstreamInvariantAcrossRouteThreads) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    cad::FlowOptions opts;
    opts.seed = 7;
    opts.route.min_bin_dim = 3;
    expect_thread_matrix_identical(fifo.nl, fifo.hints, core::ArchSpec{}, opts);
}

TEST(Determinism, LargerFabricBitstreamInvariantAcrossRouteThreads) {
    // A 13x13 fabric partitions into four quadrants even at the default
    // min_bin_dim, giving the matrix genuine multi-bin parallel routing.
    auto adder = asynclib::make_qdi_adder(4);
    core::ArchSpec arch;
    arch.width = arch.height = 13;
    arch.channel_width = 12;
    cad::FlowOptions opts;
    opts.seed = 99;
    expect_thread_matrix_identical(adder.nl, adder.hints, arch, opts);
}

// --- a genuine V-cycle -------------------------------------------------------
// A tiny min_coarse_nodes forces real coarsening levels on every fixture
// with more than four clusters, so the repeat exercises a genuine V-cycle.

void expect_vcycle_repeats(const netlist::Netlist& nl, const asynclib::MappingHints& hints,
                           const core::ArchSpec& arch, cad::FlowOptions opts) {
    opts.place.min_coarse_nodes = 4;
    const auto a = cad::run_flow(nl, hints, arch, opts);
    const auto b = cad::run_flow(nl, hints, arch, opts);
    expect_identical_flow_decisions(a, b);
    EXPECT_EQ(testsupport::flow_fingerprint(a), testsupport::flow_fingerprint(b));
}

TEST(Determinism, QdiAdderVCycleSameSeedSameResult) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = 424242;
    expect_vcycle_repeats(adder.nl, adder.hints, core::ArchSpec{}, opts);
}

TEST(Determinism, WchbFifoVCycleSameSeedSameResult) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    cad::FlowOptions opts;
    opts.seed = 7;
    expect_vcycle_repeats(fifo.nl, fifo.hints, core::ArchSpec{}, opts);
}

TEST(Determinism, LargerFabricVCycleSameSeedSameResult) {
    auto adder = asynclib::make_qdi_adder(4);
    core::ArchSpec arch;
    arch.width = arch.height = 13;
    arch.channel_width = 12;
    cad::FlowOptions opts;
    opts.seed = 99;
    expect_vcycle_repeats(adder.nl, adder.hints, arch, opts);
}

TEST(Determinism, FingerprintReflectsSeedChange) {
    // Not a promise that every seed differs — just that the fingerprint is
    // sensitive enough to notice when the placer takes a different path.
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions s1;
    s1.seed = 1;
    const auto a = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, s1);
    bool any_differs = false;
    for (std::uint64_t seed = 2; seed < 6 && !any_differs; ++seed) {
        cad::FlowOptions sn;
        sn.seed = seed;
        const auto b = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, sn);
        any_differs = testsupport::flow_fingerprint(a) != testsupport::flow_fingerprint(b);
    }
    EXPECT_TRUE(any_differs) << "five different seeds all produced identical implementations";
}

}  // namespace
