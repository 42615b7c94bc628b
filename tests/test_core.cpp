// Tests of the fabric architecture model: LE bit-exact evaluation, IM
// topology legality, PDE, geometry, RR-graph invariants and bitstream
// serialisation.
#include <gtest/gtest.h>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "core/archspec.hpp"
#include "core/bitstream.hpp"
#include "core/elaborate.hpp"
#include "core/fabric.hpp"
#include "core/le.hpp"
#include "core/plb.hpp"
#include "core/rrgraph.hpp"

namespace {

using namespace afpga;
using core::ArchSpec;
using core::LeConfig;
using core::LeEval;
using core::LeProgram;
using netlist::Logic;
using netlist::TruthTable;

std::array<Logic, 7> inputs_from_mask(std::uint32_t m) {
    std::array<Logic, 7> in{};
    for (std::size_t i = 0; i < 7; ++i) in[i] = netlist::from_bool((m >> i) & 1u);
    return in;
}

TEST(ArchSpec, DefaultsValidate) {
    const ArchSpec a = core::paper_arch();
    EXPECT_NO_THROW(a.validate());
    EXPECT_EQ(a.les_per_plb, 2u);
    EXPECT_EQ(a.le_inputs, 7u);
}

TEST(ArchSpec, ImIndexBlocksAreDisjoint) {
    const ArchSpec a;
    EXPECT_EQ(a.im_src_plb_input(0), 0u);
    EXPECT_EQ(a.im_src_le_output(0, 0), a.plb_inputs);
    EXPECT_EQ(a.im_src_pde_out(), a.plb_inputs + 8);
    EXPECT_EQ(a.im_src_const1(), a.im_num_sources() - 1);
    EXPECT_EQ(a.im_sink_le_input(1, 0), 7u);
    EXPECT_EQ(a.im_sink_plb_output(a.plb_outputs - 1), a.im_num_sinks() - 1);
}

TEST(ArchSpec, ConfigBitBudget) {
    const ArchSpec a;
    // 2 LEs * 136 + 23 sinks * 5 bits + 5 PDE bits (32 taps).
    EXPECT_EQ(a.plb_config_bits(),
              2u * 136u + a.im_num_sinks() * a.im_select_bits() + a.pde_tap_bits());
}

TEST(ArchSpec, FingerprintChangesWithParameters) {
    ArchSpec a;
    ArchSpec b;
    b.channel_width += 2;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    ArchSpec c;
    c.im_topology = core::ImTopology::Sparse50;
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ArchSpec, ImTopologyNoFeedbackBlocksLeLoops) {
    ArchSpec a;
    a.im_topology = core::ImTopology::NoFeedback;
    const std::uint32_t le_out = a.im_src_le_output(0, 0);
    const std::uint32_t le_in = a.im_sink_le_input(0, 0);
    EXPECT_FALSE(a.im_connects(le_out, le_in));
    EXPECT_TRUE(a.im_connects(le_out, a.im_sink_plb_output(0)));
    EXPECT_TRUE(a.im_connects(a.im_src_const0(), le_in));
}

TEST(LeModel, HalvesAreIndependentLut6) {
    base::Rng rng(31);
    LeConfig cfg;
    const auto fa = TruthTable::from_function(6, [&](std::uint32_t) { return rng.chance(0.5); });
    const auto fb = TruthTable::from_function(6, [&](std::uint32_t) { return rng.chance(0.5); });
    LeProgram::set_half(cfg, false, fa, {0, 1, 2, 3, 4, 5});
    LeProgram::set_half(cfg, true, fb, {0, 1, 2, 3, 4, 5});
    for (std::uint32_t m = 0; m < 128; ++m) {
        const auto out = LeEval::evaluate(cfg, inputs_from_mask(m));
        EXPECT_EQ(out[core::kLeOutA], netlist::from_bool(fa.eval(m & 63)));
        EXPECT_EQ(out[core::kLeOutB], netlist::from_bool(fb.eval(m & 63)));
        // O2 = i6 ? B : A
        const bool i6 = (m >> 6) & 1u;
        EXPECT_EQ(out[core::kLeOutMux7],
                  netlist::from_bool(i6 ? fb.eval(m & 63) : fa.eval(m & 63)));
    }
}

TEST(LeModel, PinMapRemapsVariables) {
    LeConfig cfg;
    const auto xor2 = TruthTable::from_bits(2, 0b0110);
    LeProgram::set_half(cfg, false, xor2, {4, 2});  // var0->pin4, var1->pin2
    for (std::uint32_t m = 0; m < 64; ++m) {
        std::array<Logic, 7> in = inputs_from_mask(m);
        const auto out = LeEval::evaluate(cfg, in);
        const bool expect = (((m >> 4) ^ (m >> 2)) & 1u) != 0;
        EXPECT_EQ(out[core::kLeOutA], netlist::from_bool(expect));
    }
}

TEST(LeModel, Full7ImplementsSevenInputFunction) {
    base::Rng rng(17);
    const auto f7 = TruthTable::from_function(7, [&](std::uint32_t) { return rng.chance(0.5); });
    LeConfig cfg;
    LeProgram::set_full7(cfg, f7, {0, 1, 2, 3, 4, 5, 6});
    for (std::uint32_t m = 0; m < 128; ++m) {
        const auto out = LeEval::evaluate(cfg, inputs_from_mask(m));
        EXPECT_EQ(out[core::kLeOutMux7], netlist::from_bool(f7.eval(m))) << m;
    }
    // output_function must agree
    EXPECT_EQ(LeEval::output_function(cfg, core::kLeOutMux7), f7);
}

TEST(LeModel, Full7SelectVariableCanBeAnyVariable) {
    const auto f7 = TruthTable::from_function(7, [](std::uint32_t m) {
        return ((m & 1) + ((m >> 3) & 1) + ((m >> 6) & 1)) >= 2;
    });
    LeConfig cfg;
    // variable 3 goes to the mux pin (i6); others fill i0..i5 in order.
    LeProgram::set_full7(cfg, f7, {0, 1, 2, 6, 3, 4, 5});
    const auto got = LeEval::output_function(cfg, core::kLeOutMux7);
    // got is over LE pins; f7 var i lives on pin perm[i].
    const auto expect = f7.remap({0, 1, 2, 6, 3, 4, 5}, 7);
    EXPECT_EQ(got, expect);
}

TEST(LeModel, Lut2ComputesValidityOfRailPair) {
    LeConfig cfg;
    // A = x0 (true rail), B = ~x0 (false rail); validity = A | B == 1 always
    // when driven; here just check the OR wiring.
    LeProgram::set_half(cfg, false, TruthTable::identity(1, 0), {0});
    LeProgram::set_half(cfg, true, TruthTable::from_bits(2, 0b0100), {0, 1});  // x1 & ~x0
    LeProgram::set_lut2(cfg, TruthTable::from_bits(2, 0b1110), 0, 1);          // OR
    for (std::uint32_t m = 0; m < 4; ++m) {
        const auto out = LeEval::evaluate(cfg, inputs_from_mask(m));
        const bool a = (m & 1) != 0;
        const bool b = ((m >> 1) & 1) != 0 && !a;
        EXPECT_EQ(out[core::kLeOutLut2], netlist::from_bool(a || b));
    }
}

TEST(LeModel, XPropagatesExactly) {
    LeConfig cfg;
    LeProgram::set_half(cfg, false, TruthTable::from_bits(2, 0b1110), {0, 1});  // OR
    std::array<Logic, 7> in{};
    in.fill(Logic::F);
    in[0] = Logic::T;
    in[1] = Logic::X;
    EXPECT_EQ(LeEval::evaluate(cfg, in)[0], Logic::T);  // OR with controlling 1
    in[0] = Logic::F;
    EXPECT_EQ(LeEval::evaluate(cfg, in)[0], Logic::X);
}

TEST(ImConfig, ConnectAndQuery) {
    const ArchSpec a;
    core::ImConfig im(a);
    im.connect(a, a.im_sink_le_input(0, 3), a.im_src_plb_input(5));
    EXPECT_TRUE(im.sink_used(a.im_sink_le_input(0, 3)));
    EXPECT_FALSE(im.sink_used(a.im_sink_le_input(0, 4)));
    // Re-connecting the same pair is idempotent; a different source throws.
    EXPECT_NO_THROW(im.connect(a, a.im_sink_le_input(0, 3), a.im_src_plb_input(5)));
    EXPECT_THROW(im.connect(a, a.im_sink_le_input(0, 3), a.im_src_plb_input(6)),
                 base::Error);
}

TEST(ImConfig, SparseTopologyRejectsUnpopulatedPoints) {
    ArchSpec a;
    a.im_topology = core::ImTopology::Sparse25;
    core::ImConfig im(a);
    bool rejected = false;
    for (std::uint32_t s = 0; s < a.im_num_sources() && !rejected; ++s) {
        if (!a.im_connects(s, 0)) {
            EXPECT_THROW(im.connect(a, 0, s), base::Error);
            rejected = true;
        }
    }
    EXPECT_TRUE(rejected);
}

TEST(Pde, TapDelay) {
    const ArchSpec a;
    core::PdeConfig pde;
    pde.tap = 5;
    EXPECT_EQ(pde.delay_ps(a), 5 * a.pde_quantum_ps);
}

TEST(Geometry, PlbIndexRoundTrip) {
    const ArchSpec a;
    const core::FabricGeometry g(a);
    for (std::uint32_t i = 0; i < g.num_plbs(); ++i)
        EXPECT_EQ(g.plb_index(g.plb_coord(i)), i);
}

TEST(Geometry, IobIndexRoundTrip) {
    const ArchSpec a;
    const core::FabricGeometry g(a);
    for (std::uint32_t i = 0; i < g.num_iobs(); ++i)
        EXPECT_EQ(g.iob_index(g.iob_coord(i)), i);
}

TEST(Geometry, PadNamesUnique) {
    const ArchSpec a;
    const core::FabricGeometry g(a);
    std::set<std::string> names;
    for (std::uint32_t p = 0; p < g.num_pads(); ++p) names.insert(g.pad_name(p));
    EXPECT_EQ(names.size(), g.num_pads());
}

TEST(RRGraph, NodeCountsMatchFormula) {
    ArchSpec a;
    a.width = 4;
    a.height = 3;
    a.channel_width = 6;
    const core::RRGraph rr(a);
    const std::size_t wires = (std::size_t{4} * (3 + 1) + std::size_t{3} * (4 + 1)) * 6;
    EXPECT_EQ(rr.num_wires(), wires);
    const std::size_t pins = std::size_t{12} * (a.plb_inputs + a.plb_outputs);
    const core::FabricGeometry g(a);
    EXPECT_EQ(rr.num_nodes(), wires + pins + 2 * g.num_pads());
}

TEST(RRGraph, EdgesAreConsistent) {
    ArchSpec a;
    a.width = 3;
    a.height = 3;
    const core::RRGraph rr(a);
    for (std::uint32_t n = 0; n < rr.num_nodes(); ++n) {
        for (std::uint32_t e : rr.out_edges(n)) {
            EXPECT_EQ(rr.edge_source(e), n);
            EXPECT_LT(rr.edge_target(e), rr.num_nodes());
        }
    }
}

TEST(RRGraph, OpinsReachIpinsOfNeighbours) {
    // Sanity: a signal can get from PLB (0,0) out pin 0 to some ipin of (1,0)
    // through enabled wires (pure graph reachability).
    ArchSpec a;
    a.width = 2;
    a.height = 1;
    const core::RRGraph rr(a);
    std::vector<bool> seen(rr.num_nodes(), false);
    std::vector<std::uint32_t> stack{rr.plb_opin({0, 0}, 0)};
    seen[stack[0]] = true;
    bool reached = false;
    while (!stack.empty() && !reached) {
        const std::uint32_t n = stack.back();
        stack.pop_back();
        for (std::uint32_t e : rr.out_edges(n)) {
            const std::uint32_t t = rr.edge_target(e);
            if (seen[t]) continue;
            seen[t] = true;
            const auto& nd = rr.node(t);
            if (nd.kind == core::RRKind::Ipin && !nd.is_pad && nd.x == 1 && nd.y == 0)
                reached = true;
            if (nd.kind != core::RRKind::Ipin) stack.push_back(t);
        }
    }
    EXPECT_TRUE(reached);
}

TEST(RRGraph, WireFanoutIsReasonable) {
    const core::RRGraph rr(ArchSpec{});
    EXPECT_GT(rr.avg_wire_fanout(), 2.0);   // wires must offer turns
    EXPECT_LT(rr.avg_wire_fanout(), 20.0);  // but not be all-to-all
}

TEST(Bitstream, RoundTripIdentity) {
    ArchSpec a;
    a.width = 3;
    a.height = 2;
    const core::RRGraph rr(a);
    core::Bitstream bs(a, rr.num_edges());
    base::Rng rng(5);
    // Randomly program a few things.
    auto& p = bs.plb({1, 1});
    p.le[0].tt_a = rng.next();
    p.le[1].tt_b = rng.next();
    p.im.connect(a, a.im_sink_le_input(0, 0), a.im_src_plb_input(3));
    p.pde.tap = 7;
    bs.set_pad_mode(0, core::PadMode::Input);
    bs.set_pad_mode(5, core::PadMode::Output);
    for (int i = 0; i < 200; ++i)
        bs.set_edge(static_cast<std::uint32_t>(rng.below(rr.num_edges())), true);

    const auto bits = bs.serialize();
    const auto back = core::Bitstream::deserialize(a, bits);
    EXPECT_TRUE(bs == back);
    EXPECT_EQ(back.plb({1, 1}).pde.tap, 7);
    EXPECT_EQ(back.pad_mode(5), core::PadMode::Output);
}

TEST(Bitstream, CrcDetectsCorruption) {
    ArchSpec a;
    a.width = 2;
    a.height = 2;
    const core::RRGraph rr(a);
    core::Bitstream bs(a, rr.num_edges());
    auto bits = bs.serialize();
    bits.flip(200);  // corrupt one body bit
    EXPECT_THROW(core::Bitstream::deserialize(a, bits), base::Error);
}

TEST(Bitstream, FingerprintMismatchRejected) {
    ArchSpec a;
    a.width = 2;
    a.height = 2;
    const core::RRGraph rr(a);
    const auto bits = core::Bitstream(a, rr.num_edges()).serialize();
    ArchSpec other = a;
    other.pde_quantum_ps += 1;
    EXPECT_THROW(core::Bitstream::deserialize(other, bits), base::Error);
}

TEST(Bitstream, BitsBetweenBodyAndCrcRejected) {
    ArchSpec a;
    a.width = 2;
    a.height = 2;
    const core::RRGraph rr(a);
    core::Bitstream bs(a, rr.num_edges());
    bs.set_edge(0, true);
    const base::BitVector bits = bs.serialize();
    ASSERT_TRUE(core::Bitstream::deserialize(a, bits) == bs);
    // A real stream with junk spliced in before a recomputed CRC: the CRC
    // holds, so only the length check can catch it.
    for (const std::size_t junk : {1, 64}) {
        base::BitVector padded = bits;
        padded.resize(bits.size() - 32);
        for (std::size_t i = 0; i < junk; ++i) padded.push_back(i % 3 == 0);
        padded.append_bits(padded.crc32(), 32);
        try {
            (void)core::Bitstream::deserialize(a, padded);
            ADD_FAILURE() << junk << " trailing bits decoded";
        } catch (const base::Error& e) {
            EXPECT_NE(std::string(e.what()).find("length mismatch"), std::string::npos)
                << e.what();
        }
    }
}

TEST(Bitstream, OccupancyCountsProgrammedPlbs) {
    ArchSpec a;
    a.width = 2;
    a.height = 2;
    const core::RRGraph rr(a);
    core::Bitstream bs(a, rr.num_edges());
    EXPECT_EQ(bs.occupied_plbs(), 0u);
    bs.plb({0, 1}).le[0].tt_a = 1;
    EXPECT_EQ(bs.occupied_plbs(), 1u);
}

TEST(PlbConfig, SerializedSizeMatchesBudget) {
    const ArchSpec a;
    core::PlbConfig cfg(a);
    base::BitVector bits;
    cfg.serialize(a, bits);
    EXPECT_EQ(bits.size(), a.plb_config_bits());
}

}  // namespace
