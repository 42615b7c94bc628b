// Analytical placement: the Tetris legalizer's determinism and stats, and
// the B2B solver's option contract on the flat (single-level,
// `max_levels = 0`) schedule of the multilevel engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "asynclib/adders.hpp"
#include "base/check.hpp"
#include "cad/pack.hpp"
#include "cad/place.hpp"
#include "cad/place_legalize.hpp"
#include "cad/techmap.hpp"
#include "core/archspec.hpp"

namespace {

using namespace afpga;

// --- legalizer --------------------------------------------------------------

TEST(Legalizer, LegalTargetsSnapInPlace) {
    // Solver space: PLB (x, y) sits at (x+1, y+1). Distinct on-grid targets
    // must legalize to exactly those sites with zero displacement.
    const std::vector<double> x = {1.0, 2.0, 3.0, 1.0};
    const std::vector<double> y = {1.0, 1.0, 2.0, 4.0};
    cad::LegalizeStats stats;
    const auto loc = cad::legalize_clusters(x, y, 4, 4, &stats);
    ASSERT_EQ(loc.size(), 4u);
    for (std::size_t i = 0; i < loc.size(); ++i) {
        EXPECT_EQ(loc[i].x, static_cast<std::uint32_t>(x[i] - 1.0)) << i;
        EXPECT_EQ(loc[i].y, static_cast<std::uint32_t>(y[i] - 1.0)) << i;
    }
    EXPECT_EQ(stats.total_displacement, 0u);
    EXPECT_EQ(stats.max_displacement, 0u);
    EXPECT_EQ(stats.displacement_histogram[0], 4u);
}

TEST(Legalizer, CollidingTargetsGetDistinctSitesDeterministically) {
    // Every cluster wants the same spot: the legalizer must spread them to
    // distinct sites, identically on every run, and account for each
    // cluster in the displacement histogram.
    const std::size_t n = 9;
    const std::vector<double> x(n, 2.5), y(n, 2.5);
    cad::LegalizeStats stats;
    const auto a = cad::legalize_clusters(x, y, 5, 5, &stats);
    const auto b = cad::legalize_clusters(x, y, 5, 5);
    ASSERT_EQ(a.size(), n);
    std::set<std::pair<std::uint32_t, std::uint32_t>> sites;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(a[i].x, 5u);
        EXPECT_LT(a[i].y, 5u);
        EXPECT_TRUE(sites.insert({a[i].x, a[i].y}).second) << "duplicate site for " << i;
        EXPECT_TRUE(a[i] == b[i]) << "non-deterministic site for " << i;
    }
    std::uint64_t histogram_total = 0;
    for (const auto c : stats.displacement_histogram) histogram_total += c;
    EXPECT_EQ(histogram_total, n);
    EXPECT_GT(stats.total_displacement, 0u);
    EXPECT_GE(stats.max_displacement, 1u);
    EXPECT_DOUBLE_EQ(stats.avg_displacement,
                     static_cast<double>(stats.total_displacement) / static_cast<double>(n));
}

TEST(Legalizer, ThrowsWhenClustersCannotFit) {
    const std::vector<double> x(5, 1.0), y(5, 1.0);
    EXPECT_THROW((void)cad::legalize_clusters(x, y, 2, 2), base::Error);
}

// --- flat schedule of the multilevel engine ----------------------------------

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

/// The multilevel engine with coarsening off: one level, full schedule.
cad::PlaceOptions flat_opts() {
    cad::PlaceOptions opts;
    opts.max_levels = 0;
    return opts;
}

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

TEST(PlaceAnalytical, LegalAndDeterministic) {
    const Design d = make_design();
    cad::PlaceOptions opts = flat_opts();
    opts.seed = 11;
    const auto a = cad::place(d.pd, d.md, d.arch, opts);
    const auto b = cad::place(d.pd, d.md, d.arch, opts);

    expect_legal(a, d.arch);
    EXPECT_EQ(a.analytical.levels.size(), 1u);
    ASSERT_EQ(a.cluster_loc.size(), b.cluster_loc.size());
    for (std::size_t i = 0; i < a.cluster_loc.size(); ++i)
        EXPECT_TRUE(a.cluster_loc[i] == b.cluster_loc[i]) << i;
    EXPECT_EQ(a.pi_pad, b.pi_pad);
    EXPECT_EQ(a.po_pad, b.po_pad);
    EXPECT_EQ(a.final_cost, b.final_cost);

    // The reported cost is the real wirelength of the reported placement.
    EXPECT_DOUBLE_EQ(a.final_cost, cad::placement_wirelength(d.pd, d.md, d.arch, a));

    // Solver/spreader/legalizer telemetry is populated.
    EXPECT_GT(a.analytical.solver_iterations, 0u);
    EXPECT_GT(a.analytical.solver_passes, 0);
    EXPECT_GT(a.analytical.spread_passes, 0);
    EXPECT_GT(a.analytical.pre_legal_cost, 0.0);
    EXPECT_GT(a.analytical.legalized_cost, 0.0);
}

TEST(PlaceAnalytical, SolverOptionCapsAreHonoured) {
    const Design d = make_design();
    cad::PlaceOptions opts = flat_opts();
    opts.seed = 11;
    opts.solver_passes = 3;
    opts.solver_max_iters = 7;
    const auto pl = cad::place(d.pd, d.md, d.arch, opts);
    expect_legal(pl, d.arch);
    // solver_passes rebuild+solve passes plus the final targeting solve.
    EXPECT_LE(pl.analytical.solver_passes, 3 + 1);
    // Two axes per pass, each capped at solver_max_iters CG iterations.
    EXPECT_LE(pl.analytical.solver_iterations,
              static_cast<std::uint64_t>(2 * (3 + 1) * 7));
}

TEST(PlaceAnalytical, PolishOffSkipsTheAnneal) {
    const Design d = make_design();
    cad::PlaceOptions opts = flat_opts();
    opts.seed = 11;
    opts.polish_rounds = 0;
    const auto pl = cad::place(d.pd, d.md, d.arch, opts);
    expect_legal(pl, d.arch);
    EXPECT_EQ(pl.moves_tried, 0u);
    EXPECT_EQ(pl.anneal_rounds, 0);
    EXPECT_GT(pl.final_cost, 0.0);
}

}  // namespace
