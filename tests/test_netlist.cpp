// Unit tests for the Netlist graph, validation and static analyses.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "netlist/analyze.hpp"
#include "netlist/netlist.hpp"

namespace {

using afpga::base::Error;
using afpga::base::Rng;
using afpga::netlist::CellId;
using afpga::netlist::PinRewire;
using afpga::netlist::CellFunc;
using afpga::netlist::eval_combinational;
using afpga::netlist::extract_functions;
using afpga::netlist::NetId;
using afpga::netlist::Netlist;
using afpga::netlist::TruthTable;

Netlist make_full_adder() {
    Netlist nl("fa");
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const NetId sum = nl.add_cell(CellFunc::Xor, "sum", {a, b, c});
    const NetId cout = nl.add_cell(CellFunc::Maj, "cout", {a, b, c});
    nl.add_output("sum", sum);
    nl.add_output("cout", cout);
    return nl;
}

TEST(Netlist, BuildAndCounts) {
    const Netlist nl = make_full_adder();
    EXPECT_EQ(nl.num_cells(), 2u);
    EXPECT_EQ(nl.num_nets(), 5u);
    EXPECT_EQ(nl.primary_inputs().size(), 3u);
    EXPECT_EQ(nl.primary_outputs().size(), 2u);
    nl.validate();
}

TEST(Netlist, FindNetByName) {
    const Netlist nl = make_full_adder();
    EXPECT_TRUE(nl.find_net("sum").valid());
    EXPECT_FALSE(nl.find_net("nope").valid());
}

TEST(Netlist, SinksBackReference) {
    const Netlist nl = make_full_adder();
    const NetId a = nl.primary_inputs()[0];
    EXPECT_EQ(nl.net(a).sinks.size(), 2u);  // feeds XOR and MAJ
}

TEST(Netlist, ArityViolationThrows) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    EXPECT_THROW(nl.add_cell(CellFunc::Mux, "m", {a}), Error);
    EXPECT_THROW(nl.add_cell(CellFunc::Inv, "i", {a, a}), Error);
}

TEST(Netlist, DuplicateOutputNameThrows) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    nl.add_output("o", a);
    EXPECT_THROW(nl.add_output("o", a), Error);
}

TEST(Netlist, LutCellRoundTrip) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId o = nl.add_lut("xor2", TruthTable::from_bits(2, 0b0110), {a, b});
    nl.add_output("o", o);
    nl.validate();
    const auto funcs = extract_functions(nl);
    ASSERT_EQ(funcs.size(), 1u);
    EXPECT_EQ(funcs[0], TruthTable::from_bits(2, 0b0110));
}

TEST(Cells, LutXCompletionAtArity6) {
    using afpga::netlist::eval_cell;
    using afpga::netlist::Logic;
    constexpr Logic F = Logic::F, T = Logic::T, X = Logic::X;
    const TruthTable and6 = TruthTable::from_bits(6, std::uint64_t{1} << 63);
    const TruthTable or6 = TruthTable::from_bits(6, ~std::uint64_t{1});
    const auto lut = [](const TruthTable& t, std::array<Logic, 6> in) {
        return eval_cell(CellFunc::Lut, in, Logic::X, &t);
    };
    // Completions agree: a controlling known input decides the output.
    EXPECT_EQ(lut(and6, {F, X, X, X, X, X}), F);
    EXPECT_EQ(lut(or6, {X, X, X, X, X, T}), T);
    EXPECT_EQ(lut(TruthTable::identity(6, 2), {X, X, T, X, X, X}), T);
    // Completions disagree.
    EXPECT_EQ(lut(and6, {T, T, T, T, T, X}), X);
    EXPECT_EQ(lut(or6, {F, F, X, F, F, F}), X);
    EXPECT_EQ(lut(and6, {X, X, X, X, X, X}), X);
    // Fully known.
    EXPECT_EQ(lut(and6, {T, T, T, T, T, T}), T);
    EXPECT_EQ(lut(or6, {F, F, F, F, F, F}), F);
}

TEST(Cells, LutXCompletionCapsAtTenUnknowns) {
    using afpga::netlist::eval_cell;
    using afpga::netlist::Logic;
    // A constant function is known under any completion, but more than ten
    // unknown inputs are not enumerated: the result is pessimistically X.
    const TruthTable one10 = TruthTable::constant(10, true);
    const TruthTable one11 = TruthTable::constant(11, true);
    const std::vector<Logic> x10(10, Logic::X);
    std::vector<Logic> x11(11, Logic::X);
    EXPECT_EQ(eval_cell(CellFunc::Lut, x10, Logic::X, &one10), Logic::T);
    EXPECT_EQ(eval_cell(CellFunc::Lut, x11, Logic::X, &one11), Logic::X);
    x11[7] = Logic::F;
    EXPECT_EQ(eval_cell(CellFunc::Lut, x11, Logic::X, &one11), Logic::T);
}

TEST(Netlist, RewireInputMovesSink) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId o = nl.add_cell(CellFunc::Buf, "buf", {a});
    nl.rewire_input(nl.driver_of(o), 0, b);
    nl.validate();
    EXPECT_TRUE(nl.net(a).sinks.empty());
    EXPECT_EQ(nl.net(b).sinks.size(), 1u);
}

/// A netlist whose gates all start on one placeholder net (as elaborate()
/// builds them), with a few gates already wired elsewhere.
Netlist make_placeholder_netlist(Rng& rng) {
    Netlist nl("rw");
    std::vector<NetId> nets{nl.add_cell(CellFunc::Const0, "const0", {})};
    for (int i = 0; i < 4; ++i) nets.push_back(nl.add_input("pi" + std::to_string(i)));
    for (int i = 0; i < 24; ++i) {
        const std::size_t arity = 2 + rng.below(4);
        std::vector<NetId> ins(arity, nets[0]);
        if (rng.chance(0.3)) ins[rng.below(arity)] = nets[rng.below(nets.size())];
        nets.push_back(nl.add_cell(CellFunc::And, "g" + std::to_string(i), ins));
    }
    return nl;
}

void expect_same_graph(const Netlist& a, const Netlist& b) {
    ASSERT_EQ(a.num_cells(), b.num_cells());
    ASSERT_EQ(a.num_nets(), b.num_nets());
    for (CellId c : a.cell_ids()) EXPECT_EQ(a.cell(c).inputs, b.cell(c).inputs) << "cell " << c;
    for (NetId n : a.net_ids()) EXPECT_EQ(a.net(n).sinks, b.net(n).sinks) << "net " << n;
}

TEST(Netlist, RewireInputsMatchesSequentialRewires) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        const Netlist base = make_placeholder_netlist(rng);
        std::vector<PinRewire> list;
        const std::size_t n = rng.below(80);
        for (std::size_t i = 0; i < n; ++i) {
            PinRewire r;
            if (!list.empty() && rng.chance(0.2)) {
                r = list[rng.below(list.size())];  // the same pin again
            } else {
                r.cell = CellId{1 + rng.below(base.num_cells() - 1)};  // a gate, not const0
                r.pin = static_cast<std::uint32_t>(rng.below(base.cell(r.cell).inputs.size()));
            }
            const double kind = rng.uniform();
            if (kind < 0.15)
                r.net = base.cell(r.cell).inputs[r.pin];  // onto the net it starts on
            else if (kind < 0.3)
                r.net = NetId{std::size_t{0}};  // back onto the placeholder
            else
                r.net = NetId{rng.below(base.num_nets())};
            list.push_back(r);
        }
        Netlist seq = base;
        for (const PinRewire& r : list) seq.rewire_input(r.cell, r.pin, r.net);
        Netlist batch = base;
        batch.rewire_inputs(list);
        batch.validate();
        expect_same_graph(seq, batch);
        if (HasFailure()) {
            ADD_FAILURE() << "seed " << seed;
            return;
        }
    }
}

TEST(Netlist, RewireInputsChecksEveryEntryFirst) {
    Rng rng(3);
    const Netlist base = make_placeholder_netlist(rng);
    Netlist nl = base;
    const CellId gate = nl.driver_of(nl.find_net("g0"));
    const std::vector<PinRewire> list{{gate, 0, nl.find_net("pi1")},
                                      {gate, 9, nl.find_net("pi2")}};
    EXPECT_THROW(nl.rewire_inputs(list), Error);
    expect_same_graph(nl, base);
}

TEST(Netlist, HistogramCounts) {
    const Netlist nl = make_full_adder();
    const auto h = nl.histogram();
    EXPECT_EQ(h.at(CellFunc::Xor), 1u);
    EXPECT_EQ(h.at(CellFunc::Maj), 1u);
}

TEST(Netlist, CycleDetection) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId x = nl.add_cell(CellFunc::Or, "x", {a, a});
    const NetId y = nl.add_cell(CellFunc::And, "y", {x, a});
    // close a combinational loop: x's second input becomes y
    nl.rewire_input(nl.driver_of(x), 1, y);
    EXPECT_TRUE(nl.has_combinational_cycle());
}

TEST(Netlist, SequentialLoopIsNotCombinationalCycle) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId c = nl.add_cell(CellFunc::C, "c", {a, a});
    nl.rewire_input(nl.driver_of(c), 1, c);  // C-element holding itself
    EXPECT_FALSE(nl.has_combinational_cycle());
}

TEST(Netlist, TopoOrderComplete) {
    const Netlist nl = make_full_adder();
    EXPECT_EQ(nl.topo_order_cut_sequential().size(), nl.num_cells());
}

TEST(Analyze, FullAdderTruthTables) {
    const Netlist nl = make_full_adder();
    const auto funcs = extract_functions(nl);
    ASSERT_EQ(funcs.size(), 2u);
    for (std::uint32_t m = 0; m < 8; ++m) {
        const int s = (m & 1) + ((m >> 1) & 1) + ((m >> 2) & 1);
        EXPECT_EQ(funcs[0].eval(m), (s & 1) != 0);
        EXPECT_EQ(funcs[1].eval(m), s >= 2);
    }
}

TEST(Analyze, EvalRejectsSequential) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    nl.add_output("o", nl.add_cell(CellFunc::C, "c", {a, b}));
    EXPECT_THROW(eval_combinational(nl, {true, true}), Error);
}

TEST(Analyze, ArrivalTimesAccumulate) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId x = nl.add_cell(CellFunc::Inv, "x", {a});   // 50ps
    const NetId y = nl.add_cell(CellFunc::Inv, "y", {x});   // +50ps
    nl.add_output("o", y);
    const auto arr = afpga::netlist::net_arrival_times(nl);
    EXPECT_EQ(arr[x.index()], 50);
    EXPECT_EQ(arr[y.index()], 100);
    EXPECT_EQ(afpga::netlist::longest_path_to(nl, y), 100);
}

TEST(Analyze, ExtraNetDelayCounts) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId x = nl.add_cell(CellFunc::Inv, "x", {a});
    const NetId y = nl.add_cell(CellFunc::Inv, "y", {x});
    nl.add_output("o", y);
    const auto arr = afpga::netlist::net_arrival_times(nl, 10);
    EXPECT_EQ(arr[y.index()], 120);  // two hops of +10
}

TEST(Analyze, DelayOverrideRespected) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId d = nl.add_cell(CellFunc::Delay, "d", {a});
    nl.set_cell_delay(nl.driver_of(d), 777);
    nl.add_output("o", d);
    EXPECT_EQ(afpga::netlist::longest_path_to(nl, d), 777);
}

TEST(Netlist, DotExportMentionsCells) {
    const Netlist nl = make_full_adder();
    const std::string dot = nl.to_dot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("XOR"), std::string::npos);
    EXPECT_NE(dot.find("MAJ"), std::string::npos);
}

}  // namespace
