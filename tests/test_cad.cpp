// CAD flow tests: techmap correctness, packing legality, placement, routing
// legality, and the end-to-end bitstream -> elaborate -> simulate
// equivalence that anchors the whole reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "cad/flow.hpp"
#include "sim/channels.hpp"
#include "sim/monitors.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using namespace afpga;
using cad::FlowOptions;
using cad::run_flow;
using core::ArchSpec;
using netlist::CellFunc;
using netlist::Logic;
using netlist::NetId;
using netlist::Netlist;
using netlist::TruthTable;
using sim::Simulator;
using testsupport::find_rails;
using testsupport::po_net;
using testsupport::PostRouteSim;

// --- techmap ------------------------------------------------------------------

TEST(Techmap, FullAdderGatesBecomeOneLePair) {
    Netlist nl("fa");
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const NetId sum = nl.add_cell(CellFunc::Xor, "sum", {a, b, c});
    const NetId cout = nl.add_cell(CellFunc::Maj, "cout", {a, b, c});
    nl.add_output("sum", sum);
    nl.add_output("cout", cout);
    asynclib::MappingHints hints;
    hints.rail_pairs.emplace_back(sum, cout);  // same support: pair them
    const auto md = cad::techmap(nl, hints);
    EXPECT_EQ(md.les.size(), 1u);
    EXPECT_TRUE(md.les[0].a && md.les[0].b);
    cad::verify_mapping(nl, md);
}

TEST(Techmap, BufferChainsFold) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    NetId n = a;
    for (int i = 0; i < 3; ++i) n = nl.add_cell(CellFunc::Buf, "b" + std::to_string(i), {n});
    const NetId y = nl.add_cell(CellFunc::Inv, "y", {n});
    nl.add_output("y", y);
    const auto md = cad::techmap(nl);
    ASSERT_EQ(md.les.size(), 1u);
    EXPECT_EQ(md.les[0].a->inputs[0], a);  // folded through to the PI
}

TEST(Techmap, ConstantInputsCofactored) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId one = nl.add_cell(CellFunc::Const1, "one", {});
    const NetId y = nl.add_cell(CellFunc::And, "y", {a, one});
    nl.add_output("y", y);
    const auto md = cad::techmap(nl);
    // AND(a,1) == a: collapses to an alias, leaving no LE at all.
    EXPECT_TRUE(md.les.empty());
    EXPECT_EQ(md.canon(y), a);
}

TEST(Techmap, SequentialCellGetsFeedbackVariable) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_cell(CellFunc::C, "c", {a, b});
    nl.add_output("c", c);
    const auto md = cad::techmap(nl);
    ASSERT_EQ(md.les.size(), 1u);
    const auto& f = *md.les[0].a;
    EXPECT_TRUE(f.has_feedback);
    EXPECT_EQ(f.inputs.size(), 3u);  // a, b, own output
    EXPECT_NE(std::find(f.inputs.begin(), f.inputs.end(), c), f.inputs.end());
    cad::verify_mapping(nl, md);
}

TEST(Techmap, SevenInputFunctionTakesWholeLe) {
    Netlist nl;
    std::vector<NetId> ins;
    for (int i = 0; i < 7; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
    const NetId y = nl.add_cell(CellFunc::Xor, "y", ins);
    nl.add_output("y", y);
    const auto md = cad::techmap(nl);
    ASSERT_EQ(md.les.size(), 1u);
    EXPECT_TRUE(md.les[0].full7.has_value());
    cad::verify_mapping(nl, md);
}

TEST(Techmap, ValidityAbsorbedIntoLut2) {
    // WCHB stages are where the LUT2 slot shines: the two rail latches of a
    // bit pair into one LE (shared enable + inputs), and the per-bit validity
    // OR moves into that LE's LUT2.
    auto fifo = asynclib::make_wchb_fifo(2, 1);
    const auto md = cad::techmap(fifo.nl, fifo.hints);
    std::size_t lut2 = 0;
    for (const auto& le : md.les) lut2 += le.lut2.has_value();
    EXPECT_GE(lut2, 2u);  // one validity per bit
    cad::verify_mapping(fifo.nl, md);
}

TEST(Techmap, HintsImprovePairing) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::TechmapOptions with;
    cad::TechmapOptions without;
    without.use_rail_pair_hints = false;
    without.absorb_validity = false;
    without.greedy_pairing = false;
    const auto md_with = cad::techmap(adder.nl, adder.hints, with);
    const auto md_without = cad::techmap(adder.nl, adder.hints, without);
    EXPECT_LT(md_with.les.size(), md_without.les.size());
}

TEST(Techmap, RejectsTooWideGate) {
    Netlist nl;
    std::vector<NetId> ins;
    for (int i = 0; i < 7; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
    const NetId c = nl.add_cell(CellFunc::C, "c", ins);  // 7 + feedback = 8 vars
    nl.add_output("c", c);
    EXPECT_THROW(cad::techmap(nl), base::Error);
}

// --- pack ------------------------------------------------------------------------

TEST(Pack, RespectsLesPerPlb) {
    auto adder = asynclib::make_qdi_adder(2);
    const auto md = cad::techmap(adder.nl, adder.hints);
    const ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    for (const auto& c : pd.clusters) {
        EXPECT_LE(c.le_indices.size(), arch.les_per_plb);
        EXPECT_LE(c.external_inputs(md).size(), arch.plb_inputs);
    }
    // Every LE assigned exactly once.
    std::vector<bool> seen(md.les.size(), false);
    for (const auto& c : pd.clusters)
        for (std::size_t li : c.le_indices) {
            EXPECT_FALSE(seen[li]);
            seen[li] = true;
        }
    for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Pack, PdeAttachedToProducerCluster) {
    auto adder = asynclib::make_micropipeline_adder(1);
    const auto md = cad::techmap(adder.nl, {});
    ASSERT_EQ(md.pdes.size(), 1u);
    const ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    const std::size_t pc = pd.cluster_of_pde[0];
    const auto made = pd.clusters[pc].produced(md);
    // The PDE's input (the controller C output) should be produced in the
    // same cluster when capacity allows.
    EXPECT_NE(std::find(made.begin(), made.end(), md.pdes[0].input), made.end());
}

namespace pack_golden {

/// FNV-1a over the cluster index of every LE, then of every PDE.
std::uint64_t assignment_hash(const cad::PackedDesign& pd) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xFFu;
            h *= 0x100000001B3ULL;
        }
    };
    for (std::size_t c : pd.cluster_of_le) mix(c);
    for (std::size_t c : pd.cluster_of_pde) mix(c);
    return h;
}

void expect_golden(const Netlist& nl, const asynclib::MappingHints& hints, std::size_t clusters,
                   std::uint64_t hash, cad::PackOptions opts = {}) {
    const auto md = cad::techmap(nl, hints);
    const auto pd = cad::pack(md, ArchSpec{}, opts);
    EXPECT_EQ(pd.clusters.size(), clusters);
    EXPECT_EQ(assignment_hash(pd), hash) << std::hex << "0x" << assignment_hash(pd);
}

/// The packer as first written: every candidate rebuilds the cluster's
/// signal lists through Cluster::produced/external_inputs. pack() must
/// make exactly its decisions.
cad::PackedDesign reference_pack(const cad::MappedDesign& md, const ArchSpec& arch,
                                 const cad::PackOptions& opts) {
    auto contains = [](const std::vector<NetId>& v, NetId n) {
        return std::find(v.begin(), v.end(), n) != v.end();
    };
    cad::PackedDesign pd;
    pd.cluster_of_le.assign(md.les.size(), SIZE_MAX);
    pd.cluster_of_pde.assign(md.pdes.size(), SIZE_MAX);
    std::unordered_map<NetId, std::vector<std::size_t>> le_consumers;
    for (std::size_t li = 0; li < md.les.size(); ++li)
        for (NetId s : md.les[li].input_signals()) le_consumers[s].push_back(li);
    std::vector<NetId> po_signals;
    for (const auto& [name, s] : md.primary_outputs) po_signals.push_back(s);
    auto legal = [&](const cad::Cluster& c) {
        if (c.le_indices.size() > arch.les_per_plb) return false;
        if (c.external_inputs(md).size() > arch.plb_inputs) return false;
        std::size_t outs = 0;
        for (NetId s : c.produced(md)) {
            bool needed = contains(po_signals, s);
            for (std::size_t li : le_consumers[s])
                if (std::find(c.le_indices.begin(), c.le_indices.end(), li) == c.le_indices.end())
                    needed = true;
            for (const cad::PdeInst& p : md.pdes) needed = needed || p.input == s;
            outs += needed ? 1 : 0;
        }
        return outs <= arch.plb_outputs;
    };
    auto affinity = [&](const cad::Cluster& c, std::size_t li) {
        std::size_t shared = 0;
        const auto c_in = c.external_inputs(md);
        const auto c_made = c.produced(md);
        for (NetId s : md.les[li].input_signals())
            shared += (contains(c_in, s) ? 1 : 0) + (contains(c_made, s) ? 2 : 0);
        for (NetId s : md.les[li].output_signals()) shared += contains(c_in, s) ? 2 : 0;
        return shared;
    };
    std::vector<bool> assigned(md.les.size(), false);
    for (std::size_t seed = 0; seed < md.les.size(); ++seed) {
        if (assigned[seed]) continue;
        cad::Cluster c;
        c.le_indices.push_back(seed);
        assigned[seed] = true;
        base::check(legal(c), "pack: single LE exceeds PLB pin budget");
        while (c.le_indices.size() < arch.les_per_plb) {
            std::size_t best = SIZE_MAX;
            std::size_t best_aff = 0;
            for (std::size_t li = 0; li < md.les.size(); ++li) {
                if (assigned[li]) continue;
                if (!opts.affinity_clustering) {
                    best = li;
                    break;
                }
                const std::size_t aff = 1 + affinity(c, li);
                if (aff > best_aff) {
                    cad::Cluster trial = c;
                    trial.le_indices.push_back(li);
                    if (!legal(trial)) continue;
                    best_aff = aff;
                    best = li;
                }
            }
            if (best == SIZE_MAX) break;
            cad::Cluster trial = c;
            trial.le_indices.push_back(best);
            if (!legal(trial)) break;
            c = std::move(trial);
            assigned[best] = true;
        }
        for (std::size_t li : c.le_indices) pd.cluster_of_le[li] = pd.clusters.size();
        pd.clusters.push_back(std::move(c));
    }
    for (std::size_t pi = 0; pi < md.pdes.size(); ++pi) {
        std::size_t chosen = SIZE_MAX;
        auto fits = [&](std::size_t ci) {
            cad::Cluster trial = pd.clusters[ci];
            trial.pde_index = pi;
            return trial.external_inputs(md).size() <= arch.plb_inputs;
        };
        for (std::size_t ci = 0; ci < pd.clusters.size() && chosen == SIZE_MAX; ++ci)
            if (!pd.clusters[ci].pde_index &&
                contains(pd.clusters[ci].produced(md), md.pdes[pi].input) && fits(ci))
                chosen = ci;
        for (std::size_t ci = 0; ci < pd.clusters.size() && chosen == SIZE_MAX; ++ci)
            if (!pd.clusters[ci].pde_index && fits(ci)) chosen = ci;
        if (chosen == SIZE_MAX) {
            cad::Cluster c;
            c.pde_index = pi;
            chosen = pd.clusters.size();
            pd.clusters.push_back(std::move(c));
        } else {
            pd.clusters[chosen].pde_index = pi;
        }
        pd.cluster_of_pde[pi] = chosen;
    }
    return pd;
}

}  // namespace pack_golden

// Recorded before pack() was made incremental: every clustering decision,
// including PDE attachment, must stay bit for bit the same.
TEST(PackGolden, WchbFifo8x24) {
    const auto f = asynclib::make_wchb_fifo(8, 24);
    pack_golden::expect_golden(f.nl, f.hints, 132u, 0xD3E04EBDDF171E85ULL);
}

TEST(PackGolden, MpFifo4x8PdeAttach) {
    pack_golden::expect_golden(asynclib::make_micropipeline_fifo(4, 8).nl, {}, 14u,
                               0xDE2EE03CAA2E7F25ULL);
}

TEST(PackGolden, MousetrapFifo4x8) {
    pack_golden::expect_golden(asynclib::make_mousetrap_fifo(4, 8).nl, {}, 12u,
                               0x99B7F41B1A3E1765ULL);
}

TEST(PackGolden, QdiAdder8) {
    const auto a = asynclib::make_qdi_adder(8);
    pack_golden::expect_golden(a.nl, a.hints, 31u, 0x0C04C991EB17BD45ULL);
}

TEST(PackGolden, WchbFifo4x8FirstFit) {
    const auto f = asynclib::make_wchb_fifo(4, 8);
    cad::PackOptions opts;
    opts.affinity_clustering = false;
    pack_golden::expect_golden(f.nl, f.hints, 21u, 0x80C6F5AD53934D91ULL, opts);
}

// pack() against the reference packer on every paper style, at the default
// PLB and at tighter LE counts and pin budgets, where candidates are
// rejected, clusters close early and PDEs fall back to later clusters.
TEST(Pack, MatchesReferencePacker) {
    std::vector<std::pair<Netlist, asynclib::MappingHints>> designs;
    for (std::size_t bits : {1u, 3u, 8u}) {
        auto q = asynclib::make_qdi_adder(bits);
        designs.emplace_back(std::move(q.nl), std::move(q.hints));
        designs.emplace_back(std::move(asynclib::make_micropipeline_adder(bits).nl),
                             asynclib::MappingHints{});
    }
    for (std::size_t depth : {2u, 6u}) {
        auto w = asynclib::make_wchb_fifo(3, depth);
        designs.emplace_back(std::move(w.nl), std::move(w.hints));
        designs.emplace_back(std::move(asynclib::make_micropipeline_fifo(3, depth).nl),
                             asynclib::MappingHints{});
        designs.emplace_back(std::move(asynclib::make_mousetrap_fifo(3, depth).nl),
                             asynclib::MappingHints{});
    }
    std::size_t compared = 0;
    for (const auto& [nl, hints] : designs) {
        const auto md = cad::techmap(nl, hints);
        for (std::uint32_t les : {2u, 3u, 4u})
            for (std::uint32_t ins : {7u, 10u, 14u})
                for (std::uint32_t outs : {3u, 5u, 8u})
                    for (bool affinity : {true, false}) {
                        ArchSpec arch;
                        arch.les_per_plb = les;
                        arch.plb_inputs = ins;
                        arch.plb_outputs = outs;
                        cad::PackOptions opts;
                        opts.affinity_clustering = affinity;
                        std::optional<cad::PackedDesign> want;
                        try {
                            want = pack_golden::reference_pack(md, arch, opts);
                        } catch (const base::Error&) {
                            EXPECT_THROW((void)cad::pack(md, arch, opts), base::Error);
                            continue;
                        }
                        const auto got = cad::pack(md, arch, opts);
                        ASSERT_EQ(got.cluster_of_le, want->cluster_of_le)
                            << les << "/" << ins << "/" << outs << "/" << affinity;
                        ASSERT_EQ(got.cluster_of_pde, want->cluster_of_pde)
                            << les << "/" << ins << "/" << outs << "/" << affinity;
                        ++compared;
                    }
    }
    EXPECT_GT(compared, designs.size() * 27);  // most configurations pack
}

// --- place ------------------------------------------------------------------------

TEST(Place, ProducesLegalPlacement) {
    auto adder = asynclib::make_qdi_adder(2);
    const auto md = cad::techmap(adder.nl, adder.hints);
    const ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    cad::PlaceOptions opts;
    opts.seed = 42;
    const auto pl = cad::place(pd, md, arch, opts);
    ASSERT_EQ(pl.cluster_loc.size(), pd.clusters.size());
    std::set<std::pair<std::uint32_t, std::uint32_t>> used;
    for (const auto& c : pl.cluster_loc) {
        EXPECT_LT(c.x, arch.width);
        EXPECT_LT(c.y, arch.height);
        EXPECT_TRUE(used.emplace(c.x, c.y).second) << "two clusters on one PLB";
    }
    std::set<std::uint32_t> pads;
    for (const auto& [n, p] : pl.pi_pad) EXPECT_TRUE(pads.insert(p).second);
    for (const auto& [n, p] : pl.po_pad) EXPECT_TRUE(pads.insert(p).second);
}

TEST(Place, DefaultPlacerBeatsRandom) {
    auto adder = asynclib::make_qdi_adder(4);
    const auto md = cad::techmap(adder.nl, adder.hints);
    const ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    cad::PlaceOptions opts;
    opts.seed = 7;
    const auto placed = cad::place(pd, md, arch, opts);

    // A seeded random legal placement: distinct PLBs, distinct pads.
    base::Rng rng(7);
    std::vector<std::uint32_t> cells(std::size_t{arch.width} * arch.height);
    for (std::uint32_t i = 0; i < cells.size(); ++i) cells[i] = i;
    rng.shuffle(cells);
    std::vector<std::uint32_t> pads(core::FabricGeometry(arch).num_pads());
    for (std::uint32_t i = 0; i < pads.size(); ++i) pads[i] = i;
    rng.shuffle(pads);
    cad::Placement scattered;
    for (std::size_t ci = 0; ci < pd.clusters.size(); ++ci)
        scattered.cluster_loc.push_back({cells[ci] % arch.width, cells[ci] / arch.width});
    std::size_t next_pad = 0;
    for (const auto& [name, net] : md.primary_inputs) scattered.pi_pad[name] = pads[next_pad++];
    for (const auto& [name, net] : md.primary_outputs) scattered.po_pad[name] = pads[next_pad++];

    EXPECT_LT(cad::placement_wirelength(pd, md, arch, placed),
              cad::placement_wirelength(pd, md, arch, scattered));
}

TEST(Place, DeterministicForSeed) {
    auto adder = asynclib::make_qdi_adder(2);
    const auto md = cad::techmap(adder.nl, adder.hints);
    const ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    cad::PlaceOptions opts;
    opts.seed = 99;
    const auto a = cad::place(pd, md, arch, opts);
    const auto b = cad::place(pd, md, arch, opts);
    EXPECT_EQ(a.cluster_loc.size(), b.cluster_loc.size());
    for (std::size_t i = 0; i < a.cluster_loc.size(); ++i)
        EXPECT_TRUE(a.cluster_loc[i] == b.cluster_loc[i]);
    EXPECT_EQ(a.pi_pad, b.pi_pad);
}

TEST(Place, ThrowsWhenDesignTooBig) {
    auto adder = asynclib::make_qdi_adder(4);
    const auto md = cad::techmap(adder.nl, adder.hints);
    ArchSpec tiny;
    tiny.width = 2;
    tiny.height = 2;
    const auto pd = cad::pack(md, tiny);
    EXPECT_THROW(cad::place(pd, md, tiny, {}), base::Error);
}

/// The message of the base::Error `fn` throws (a test failure if none).
template <typename Fn>
std::string error_message(Fn&& fn) {
    try {
        fn();
    } catch (const base::Error& e) {
        return e.what();
    }
    ADD_FAILURE() << "no base::Error thrown";
    return {};
}

// Every float knob can arrive from the wire and reaches a size cast in the
// placer, so place() refuses non-finite, negative or oversized values by
// name.
TEST(Place, RejectsOutOfRangeFloatKnobs) {
    auto adder = asynclib::make_qdi_adder(2);
    const auto md = cad::techmap(adder.nl, adder.hints);
    const ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<std::pair<std::string, std::function<void(cad::PlaceOptions&)>>> bad = {
        {"moves_scale", [&](auto& o) { o.moves_scale = inf; }},
        {"moves_scale", [&](auto& o) { o.moves_scale = -1.0; }},
        {"moves_scale", [&](auto& o) { o.moves_scale = 1e300; }},
        {"moves_scale", [&](auto& o) { o.moves_scale = 1e9; }},
        {"anchor_weight", [&](auto& o) { o.anchor_weight = nan; }},
        {"anchor_weight", [&](auto& o) { o.anchor_weight = -0.5; }},
        {"solver_tolerance", [&](auto& o) { o.solver_tolerance = -inf; }},
        {"solver_tolerance", [&](auto& o) { o.solver_tolerance = -1e-9; }},
        {"coarsen_ratio", [&](auto& o) { o.coarsen_ratio = nan; }},
        {"coarsen_ratio", [&](auto& o) { o.coarsen_ratio = inf; }},
    };
    for (const auto& [field, mutate] : bad) {
        cad::PlaceOptions opts;
        mutate(opts);
        EXPECT_NE(error_message([&] { (void)cad::place(pd, md, arch, opts); }).find(field),
                  std::string::npos)
            << field;
    }
    // Zero is a legal value for every knob but the ratio, which clamps.
    cad::PlaceOptions zeros;
    zeros.moves_scale = 0.0;
    zeros.anchor_weight = 0.0;
    zeros.solver_tolerance = 0.0;
    zeros.coarsen_ratio = -3.0;
    EXPECT_EQ(cad::place(pd, md, arch, zeros).cluster_loc.size(), pd.clusters.size());
}

// The int knobs can arrive from the wire too: each is capped far above any
// use, so place() refuses one past its cap by name and takes the cap itself.
void expect_place_int_cap(const std::string& field, int cad::PlaceOptions::*knob, int cap) {
    auto adder = asynclib::make_qdi_adder(1);
    const auto md = cad::techmap(adder.nl, adder.hints);
    const ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    for (int too_big : {cap + 1, std::numeric_limits<int>::max()}) {
        cad::PlaceOptions opts;
        opts.*knob = too_big;
        const std::string msg = error_message([&] { (void)cad::place(pd, md, arch, opts); });
        EXPECT_NE(msg.find(field), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(cap)), std::string::npos) << msg;
    }
    cad::PlaceOptions at_cap;
    at_cap.*knob = cap;
    EXPECT_EQ(cad::place(pd, md, arch, at_cap).cluster_loc.size(), pd.clusters.size());
}

TEST(Place, CapsPolishRounds) {
    expect_place_int_cap("polish_rounds", &cad::PlaceOptions::polish_rounds, 64);
}

TEST(Place, CapsSolverPasses) {
    expect_place_int_cap("solver_passes", &cad::PlaceOptions::solver_passes, 256);
}

TEST(Place, CapsSolverMaxIters) {
    expect_place_int_cap("solver_max_iters", &cad::PlaceOptions::solver_max_iters, 10'000);
}

TEST(Place, CapsMaxLevels) {
    expect_place_int_cap("max_levels", &cad::PlaceOptions::max_levels, 64);
}

// --- full flow ----------------------------------------------------------------------

TEST(Flow, QdiFullAdderPostRouteEquivalence) {
    auto adder = asynclib::make_qdi_adder(1);
    const ArchSpec arch;
    FlowOptions opts;
    opts.seed = 3;
    const auto fr = run_flow(adder.nl, adder.hints, arch, opts);
    EXPECT_TRUE(fr.routing.success);

    PostRouteSim prs(fr);
    Simulator& sim = *prs.sim;

    const auto iface = testsupport::qdi_adder_iface(prs.design.nl, 1);
    for (std::uint64_t v = 0; v < 8; ++v) {
        const std::uint64_t a = v & 1;
        const std::uint64_t b = (v >> 1) & 1;
        const std::uint64_t cin = (v >> 2) & 1;
        EXPECT_EQ(sim::qdi_apply_token(sim, iface, v), a + b + cin) << "v=" << v;
    }
}

TEST(Flow, QdiRippleAdderPostRouteEquivalence) {
    auto adder = asynclib::make_qdi_adder(2);
    const ArchSpec arch;
    FlowOptions opts;
    opts.seed = 11;
    const auto fr = run_flow(adder.nl, adder.hints, arch, opts);

    PostRouteSim prs(fr);
    Simulator& sim = *prs.sim;
    const auto iface = testsupport::qdi_adder_iface(prs.design.nl, 2);
    for (std::uint64_t v = 0; v < 32; ++v) {
        const std::uint64_t a = v & 3;
        const std::uint64_t b = (v >> 2) & 3;
        const std::uint64_t cin = (v >> 4) & 1;
        EXPECT_EQ(sim::qdi_apply_token(sim, iface, v), a + b + cin) << "v=" << v;
    }
}

TEST(Flow, MicropipelineAdderPostRouteEquivalence) {
    auto adder = asynclib::make_micropipeline_adder(1);
    const ArchSpec arch;
    FlowOptions opts;
    opts.seed = 5;
    const auto fr = run_flow(adder.nl, {}, arch, opts);

    PostRouteSim prs(fr);
    Simulator& sim = *prs.sim;
    const auto iface = testsupport::mp_adder_iface(prs.design.nl, 1);
    for (std::uint64_t v = 0; v < 8; ++v) {
        const std::uint64_t expect = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
        EXPECT_EQ(sim::bundled_apply_token(sim, iface, v, 200), expect) << "v=" << v;
    }
}

TEST(Flow, MicropipelineBundlingHoldsPostRoute) {
    auto adder = asynclib::make_micropipeline_adder(1);
    const ArchSpec arch;
    FlowOptions opts;
    opts.seed = 5;
    opts.pde_extra_margin = 2.0;
    const auto fr = run_flow(adder.nl, {}, arch, opts);
    PostRouteSim prs(fr);
    Simulator& sim = *prs.sim;
    const auto iface = testsupport::mp_adder_iface(prs.design.nl, 1);
    sim::BundledChannelMonitor mon(sim, iface.data_out, iface.req_out, iface.ack_out, "out");
    for (std::uint64_t v = 0; v < 8; ++v) (void)sim::bundled_apply_token(sim, iface, v, 200);
    EXPECT_TRUE(mon.violations().empty())
        << (mon.violations().empty() ? "" : mon.violations()[0].what);
}

TEST(Flow, BitstreamRoundTripPreservesBehaviour) {
    auto adder = asynclib::make_qdi_adder(1);
    const ArchSpec arch;
    const auto fr = run_flow(adder.nl, adder.hints, arch, {});
    // serialize -> deserialize -> elaborate must equal direct elaboration
    const auto serial = fr.bits->serialize();
    const auto back = core::Bitstream::deserialize(arch, serial);
    EXPECT_TRUE(*fr.bits == back);
    const auto d1 = core::elaborate(*fr.rr, back, fr.pad_names);
    const auto d2 = fr.elaborate();
    EXPECT_EQ(d1.nl.num_cells(), d2.nl.num_cells());
    EXPECT_EQ(d1.nl.num_nets(), d2.nl.num_nets());
}

TEST(Flow, DeterministicBitstreamForSeed) {
    auto adder = asynclib::make_qdi_adder(1);
    const ArchSpec arch;
    FlowOptions opts;
    opts.seed = 77;
    const auto a = run_flow(adder.nl, adder.hints, arch, opts);
    const auto b = run_flow(adder.nl, adder.hints, arch, opts);
    EXPECT_TRUE(a.bits->serialize() == b.bits->serialize());
}

TEST(Flow, RoutingFailsGracefullyOnStarvedChannels) {
    auto adder = asynclib::make_qdi_adder(4);
    ArchSpec starved;
    starved.channel_width = 2;
    starved.fc_in = 1.0;
    starved.fc_out = 1.0;
    cad::FlowOptions opts;
    opts.route.max_iterations = 5;
    EXPECT_THROW(run_flow(adder.nl, adder.hints, starved, opts), base::Error);
}

TEST(Flow, WchbFifoPostRouteStreams) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    const ArchSpec arch;
    FlowOptions opts;
    opts.seed = 9;
    const auto fr = run_flow(fifo.nl, fifo.hints, arch, opts);
    PostRouteSim prs(fr);
    Simulator& sim = *prs.sim;
    const auto& design = prs.design;

    std::vector<asynclib::DualRail> in_rails;
    for (std::size_t i = 0; i < 2; ++i)
        in_rails.push_back(find_rails(design.nl, base::bus_bit("in", i)));
    std::vector<asynclib::DualRail> out_rails;
    for (std::size_t i = 0; i < 2; ++i)
        out_rails.push_back(testsupport::po_rails(design.nl, base::bus_bit("out", i)));
    const NetId ack_in = po_net(design.nl, "ack_in");
    const NetId ack_out = design.nl.find_net("ack_out");

    std::vector<std::uint64_t> tokens{3, 0, 1, 2, 3, 1};
    sim::DrStreamSource src(sim, in_rails, ack_in, tokens, 100);
    sim::DrStreamSink sink(sim, out_rails, ack_out, 100);
    src.start();
    const auto r = sim.run(500'000'000);
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(sink.received(), tokens);
}

}  // namespace
