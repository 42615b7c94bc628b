// Multilevel placement: the coarsening hierarchy's invariants (weight
// conservation, contracted-net pin sets, matching determinism) and the
// V-cycle engine's contract (legality, determinism, engine tag, per-level
// telemetry, and a legalized cost that equals the independent wirelength
// oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "cad/pack.hpp"
#include "cad/place.hpp"
#include "cad/place_coarsen.hpp"
#include "cad/place_model.hpp"
#include "cad/place_multilevel.hpp"
#include "cad/techmap.hpp"
#include "core/archspec.hpp"

namespace {

using namespace afpga;

struct Design {
    cad::MappedDesign md;
    cad::PackedDesign pd;
    core::ArchSpec arch;
};

Design make_design() {
    Design d;
    auto adder = asynclib::make_qdi_adder(2);
    d.md = cad::techmap(adder.nl, adder.hints);
    d.pd = cad::pack(d.md, d.arch);
    return d;
}

Design make_fifo_design() {
    Design d;
    auto fifo = asynclib::make_wchb_fifo(8, 24);
    d.arch.width = d.arch.height = 18;
    d.md = cad::techmap(fifo.nl, fifo.hints);
    d.pd = cad::pack(d.md, d.arch);
    return d;
}

Design make_wide_design() {
    Design d;
    auto adder = asynclib::make_qdi_adder(4);
    d.arch.width = d.arch.height = 13;
    d.arch.channel_width = 12;
    d.md = cad::techmap(adder.nl, adder.hints);
    d.pd = cad::pack(d.md, d.arch);
    return d;
}

void expect_level_well_formed(const cad::CoarseLevel& lv) {
    ASSERT_EQ(lv.node_weight.size(), lv.num_nodes);
    for (const cad::CoarseNet& net : lv.nets) {
        ASSERT_GE(net.pins.size(), 2u) << "contracted net degenerated to < 2 pins";
        EXPECT_GT(net.weight, 0.0);
        EXPECT_TRUE(std::is_sorted(net.pins.begin(), net.pins.end()));
        EXPECT_TRUE(std::adjacent_find(net.pins.begin(), net.pins.end()) == net.pins.end())
            << "duplicate pin in a contracted net";
        for (const std::uint32_t p : net.pins)
            EXPECT_LT(p, lv.num_nodes + lv.num_io) << "pin out of range";
    }
}

bool levels_equal(const cad::CoarseLevel& a, const cad::CoarseLevel& b) {
    if (a.num_nodes != b.num_nodes || a.num_io != b.num_io) return false;
    if (a.node_weight != b.node_weight || a.map_down != b.map_down) return false;
    if (a.nets.size() != b.nets.size()) return false;
    for (std::size_t i = 0; i < a.nets.size(); ++i)
        if (a.nets[i].pins != b.nets[i].pins || a.nets[i].weight != b.nets[i].weight)
            return false;
    return true;
}

// --- coarsening hierarchy ---------------------------------------------------

TEST(PlaceCoarsen, WeightsConservedAndIoSurvivesAtEveryLevel) {
    const Design d = make_design();
    const cad::PlaceModel model(d.pd, d.md, d.arch);
    const auto levels = cad::build_hierarchy(model, 0.5, 4, 10);
    ASSERT_GE(levels.size(), 2u) << "fixture too small to coarsen — shrink min_nodes";
    for (std::size_t li = 0; li < levels.size(); ++li) {
        const cad::CoarseLevel& lv = levels[li];
        expect_level_well_formed(lv);
        EXPECT_EQ(lv.num_io, model.io_entity_ids.size()) << "level " << li;
        // Weight conservation: every level still represents every cluster.
        std::uint64_t total = 0;
        for (const std::uint32_t w : lv.node_weight) total += w;
        EXPECT_EQ(total, static_cast<std::uint64_t>(model.num_clusters)) << "level " << li;
        if (li == 0) {
            EXPECT_EQ(lv.num_nodes, model.num_clusters);
            EXPECT_TRUE(lv.map_down.empty());
            for (const std::uint32_t w : lv.node_weight) EXPECT_EQ(w, 1u);
        } else {
            // Strict shrink, and the mapping is a total surjective function
            // of the finer level's nodes.
            const cad::CoarseLevel& fine = levels[li - 1];
            EXPECT_LT(lv.num_nodes, fine.num_nodes) << "level " << li;
            ASSERT_EQ(lv.map_down.size(), fine.num_nodes);
            std::vector<char> hit(lv.num_nodes, 0);
            for (const std::uint32_t c : lv.map_down) {
                ASSERT_LT(c, lv.num_nodes);
                hit[c] = 1;
            }
            EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](char h) { return h != 0; }))
                << "unreachable coarse node at level " << li;
        }
    }
}

TEST(PlaceCoarsen, ContractedNetsAreExactlyTheImageOfFinerNets) {
    const Design d = make_wide_design();
    const cad::PlaceModel model(d.pd, d.md, d.arch);
    const auto levels = cad::build_hierarchy(model, 0.5, 4, 10);
    ASSERT_GE(levels.size(), 2u);
    for (std::size_t li = 1; li < levels.size(); ++li) {
        const cad::CoarseLevel& fine = levels[li - 1];
        const cad::CoarseLevel& coarse = levels[li];
        // Recontract the finer nets by hand: map pins, dedupe, drop
        // single-pin leftovers, merge equal pin sets summing weights.
        std::vector<std::pair<std::vector<std::uint32_t>, double>> expect;
        for (const cad::CoarseNet& net : fine.nets) {
            std::vector<std::uint32_t> pins;
            pins.reserve(net.pins.size());
            for (const std::uint32_t p : net.pins)
                pins.push_back(p < fine.num_nodes
                                   ? coarse.map_down[p]
                                   : static_cast<std::uint32_t>(coarse.num_nodes +
                                                                (p - fine.num_nodes)));
            std::sort(pins.begin(), pins.end());
            pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
            if (pins.size() < 2) continue;
            expect.emplace_back(std::move(pins), net.weight);
        }
        std::sort(expect.begin(), expect.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        std::vector<std::pair<std::vector<std::uint32_t>, double>> merged;
        for (auto& [pins, w] : expect) {
            if (!merged.empty() && merged.back().first == pins)
                merged.back().second += w;
            else
                merged.emplace_back(std::move(pins), w);
        }
        ASSERT_EQ(coarse.nets.size(), merged.size()) << "level " << li;
        for (std::size_t ni = 0; ni < merged.size(); ++ni) {
            EXPECT_EQ(coarse.nets[ni].pins, merged[ni].first) << "level " << li << " net " << ni;
            EXPECT_DOUBLE_EQ(coarse.nets[ni].weight, merged[ni].second)
                << "level " << li << " net " << ni;
        }
    }
}

TEST(PlaceCoarsen, MatchingIsDeterministic) {
    const Design d = make_design();
    const cad::PlaceModel model(d.pd, d.md, d.arch);
    const auto a = cad::build_hierarchy(model, 0.5, 4, 10);
    const auto b = cad::build_hierarchy(model, 0.5, 4, 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t li = 0; li < a.size(); ++li)
        EXPECT_TRUE(levels_equal(a[li], b[li])) << "level " << li << " differs between builds";
}

TEST(PlaceCoarsen, KnobsBoundTheHierarchy) {
    const Design d = make_design();
    const cad::PlaceModel model(d.pd, d.md, d.arch);
    // max_levels = 0: only the finest level, whatever the other knobs say.
    const auto flat = cad::build_hierarchy(model, 0.5, 1, 0);
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_EQ(flat[0].num_nodes, model.num_clusters);
    // min_nodes at the cluster count: nothing to coarsen.
    const auto floor_hit = cad::build_hierarchy(model, 0.5, model.num_clusters, 10);
    EXPECT_EQ(floor_hit.size(), 1u);
    // A generous budget must stop at or above min_nodes.
    const auto deep = cad::build_hierarchy(model, 0.5, 4, 10);
    EXPECT_GE(deep.back().num_nodes, 4u);
}

// --- multilevel engine ------------------------------------------------------

void expect_legal(const cad::Placement& pl, const core::ArchSpec& arch) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> sites;
    for (const auto& loc : pl.cluster_loc) {
        EXPECT_LT(loc.x, arch.width);
        EXPECT_LT(loc.y, arch.height);
        EXPECT_TRUE(sites.insert({loc.x, loc.y}).second) << "overlapping clusters";
    }
    std::set<std::uint32_t> pads;
    for (const auto& [name, pad] : pl.pi_pad) EXPECT_TRUE(pads.insert(pad).second) << name;
    for (const auto& [name, pad] : pl.po_pad) EXPECT_TRUE(pads.insert(pad).second) << name;
}

TEST(PlaceMultilevel, LegalAndDeterministic) {
    const Design d = make_design();
    cad::PlaceOptions opts;
    opts.seed = 3;
    opts.min_coarse_nodes = 4;  // force real levels on the small fixture
    const auto a = cad::place(d.pd, d.md, d.arch, opts);
    const auto b = cad::place(d.pd, d.md, d.arch, opts);
    expect_legal(a, d.arch);
    EXPECT_GT(a.final_cost, 0.0);
    ASSERT_EQ(a.cluster_loc.size(), b.cluster_loc.size());
    for (std::size_t i = 0; i < a.cluster_loc.size(); ++i)
        EXPECT_TRUE(a.cluster_loc[i] == b.cluster_loc[i]) << "cluster " << i;
    EXPECT_EQ(a.pi_pad, b.pi_pad);
    EXPECT_EQ(a.po_pad, b.po_pad);
    EXPECT_EQ(a.final_cost, b.final_cost);
}

TEST(PlaceMultilevel, PerLevelTelemetryDescribesTheVCycle) {
    const Design d = make_design();
    cad::PlaceOptions opts;
    opts.seed = 3;
    opts.min_coarse_nodes = 4;
    opts.polish_rounds = 0;
    const auto pl = cad::place(d.pd, d.md, d.arch, opts);
    const auto& levels = pl.analytical.levels;
    ASSERT_GE(levels.size(), 2u) << "expected a real V-cycle on the fixture";
    // Coarsest first: node counts grow down the descent and the finest
    // entry is the model itself.
    for (std::size_t l = 1; l < levels.size(); ++l)
        EXPECT_LT(levels[l - 1].nodes, levels[l].nodes) << "level " << l;
    EXPECT_EQ(levels.back().nodes, static_cast<std::uint64_t>(pl.cluster_loc.size()));
    int solver_passes = 0;
    int spread_passes = 0;
    std::uint64_t iters = 0;
    for (const cad::LevelStats& ls : levels) {
        EXPECT_GT(ls.nets, 0u);
        EXPECT_GT(ls.solver_passes, 0);
        solver_passes += ls.solver_passes;
        spread_passes += ls.spread_passes;
        iters += ls.solver_iterations;
    }
    // The aggregate counters are exactly the per-level sums.
    EXPECT_EQ(pl.analytical.solver_passes, solver_passes);
    EXPECT_EQ(pl.analytical.spread_passes, spread_passes);
    EXPECT_EQ(pl.analytical.solver_iterations, iters);
    // The full schedule ran only at the coarsest level.
    for (std::size_t l = 1; l < levels.size(); ++l)
        EXPECT_LT(levels[l].solver_passes, levels[0].solver_passes) << "level " << l;
}

// The single-level V-cycle is the flat schedule: when coarsening does not
// fire — max_levels = 0, or a design at or below min_coarse_nodes — the one
// level is both coarsest and finest, so it runs the full solver_passes
// schedule plus the closing solve.
void expect_single_level_full_schedule(const Design& d, const cad::PlaceOptions& opts) {
    const auto pl = cad::place(d.pd, d.md, d.arch, opts);
    ASSERT_EQ(pl.analytical.levels.size(), 1u);
    const cad::LevelStats& ls = pl.analytical.levels[0];
    EXPECT_EQ(ls.nodes, static_cast<std::uint64_t>(pl.cluster_loc.size()));
    EXPECT_EQ(ls.solver_passes, opts.solver_passes + 1);
    EXPECT_EQ(pl.analytical.solver_passes, opts.solver_passes + 1);
}

TEST(PlaceMultilevel, NoCoarseningRunsTheFullScheduleOnOneLevel) {
    const Design d = make_design();
    cad::PlaceOptions opts;
    opts.seed = 3;
    opts.max_levels = 0;
    expect_single_level_full_schedule(d, opts);

    // A design at or below min_coarse_nodes never coarsens either.
    opts.max_levels = cad::PlaceOptions{}.max_levels;
    opts.min_coarse_nodes = static_cast<int>(d.pd.clusters.size());
    opts.solver_passes = 5;
    expect_single_level_full_schedule(d, opts);
}

// legalized_cost is the HPWL of the legalized placement the V-cycle hands
// to the polish, checked against placement_wirelength, which shares no
// code with the placer's cost evaluation.
void expect_legalized_cost_is_wirelength(const Design& d) {
    const cad::PlaceModel model(d.pd, d.md, d.arch);
    cad::PlaceOptions opts;
    opts.seed = 5;
    const cad::AnalyticalResult res = cad::place_multilevel_global(model, opts, opts.seed);
    cad::Placement pl;
    pl.cluster_loc = res.cluster_loc;
    const std::size_t n_pi = d.md.primary_inputs.size();
    for (std::size_t i = 0; i < n_pi; ++i)
        pl.pi_pad[d.md.primary_inputs[i].first] = res.pad_of_io[i];
    for (std::size_t i = 0; i < d.md.primary_outputs.size(); ++i)
        pl.po_pad[d.md.primary_outputs[i].first] = res.pad_of_io[n_pi + i];
    expect_legal(pl, d.arch);
    EXPECT_GT(res.stats.legalized_cost, 0.0);
    EXPECT_EQ(res.stats.legalized_cost, cad::placement_wirelength(d.pd, d.md, d.arch, pl));
}

TEST(PlaceMultilevel, LegalizedCostIsTheWirelengthOfTheLegalPlacement) {
    expect_legalized_cost_is_wirelength(make_wide_design());
    expect_legalized_cost_is_wirelength(make_fifo_design());
}

}  // namespace
