// The analytical placer's numeric pieces against brute-force oracles:
//  - PadFrame's nearest_free / lowest_free / is_free against an ascending
//    scan over every pad, under random take/reset sequences, with ties of
//    distance, of running coordinate and queries that sit on a pad;
//  - QuadSystem::finalize against a std::stable_sort by (row, col) whose
//    duplicates are summed left to right, with rows assembled out of
//    column order, repeated (row, col) pairs, and one instance reused.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/rng.hpp"
#include "cad/place_model.hpp"
#include "cad/place_solver.hpp"

namespace {

using namespace afpga;
using cad::PadFrame;
using cad::PlacePt;
using cad::QuadSystem;

// --- PadFrame ---------------------------------------------------------------

/// The pad frame of a width x height fabric with `per_site` pads at every
/// perimeter site, the pad indices dealt in a shuffled order so that index
/// order and position order disagree.
std::vector<PlacePt> frame_pads(std::uint32_t width, std::uint32_t height, int per_site,
                                base::Rng& rng) {
    std::vector<PlacePt> pts;
    for (int k = 0; k < per_site; ++k) {
        for (std::uint32_t i = 1; i <= width; ++i) {
            pts.push_back({static_cast<double>(i), 0.0});
            pts.push_back({static_cast<double>(i), height + 1.0});
        }
        for (std::uint32_t i = 1; i <= height; ++i) {
            pts.push_back({0.0, static_cast<double>(i)});
            pts.push_back({width + 1.0, static_cast<double>(i)});
        }
    }
    rng.shuffle(pts);
    return pts;
}

/// Brute-force oracle: the free pad of lowest Manhattan distance, ties by
/// lowest index, from one ascending scan.
bool scan_nearest(const std::vector<PlacePt>& pads, const std::vector<bool>& taken, double gx,
                  double gy, std::uint32_t& out) {
    bool found = false;
    double best = 0;
    for (std::uint32_t p = 0; p < pads.size(); ++p) {
        if (taken[p]) continue;
        const double d = std::abs(pads[p].x - gx) + std::abs(pads[p].y - gy);
        if (!found || d < best) {
            best = d;
            out = p;
            found = true;
        }
    }
    return found;
}

TEST(PadFrame, MatchesAnAscendingScanUnderRandomTakesAndResets) {
    for (const int per_site : {1, 3}) {
        base::Rng rng(40 + per_site);
        constexpr std::uint32_t kW = 6;
        constexpr std::uint32_t kH = 4;
        const std::vector<PlacePt> pads = frame_pads(kW, kH, per_site, rng);
        PadFrame frame;
        frame.build(pads, kW, kH);
        std::vector<bool> taken(pads.size(), false);

        // Queries on half-unit steps inside and around the frame: many are
        // equidistant from two runs, and many sit exactly on a pad.
        auto query = [&](const char* what, int step) {
            const double gx = -1.0 + 0.5 * static_cast<double>(rng.below(2 * (kW + 4) + 1));
            const double gy = -1.0 + 0.5 * static_cast<double>(rng.below(2 * (kH + 4) + 1));
            std::uint32_t want = 0;
            std::uint32_t got = 0;
            const bool want_found = scan_nearest(pads, taken, gx, gy, want);
            ASSERT_EQ(frame.nearest_free(gx, gy, got), want_found) << what << " step " << step;
            if (want_found) {
                ASSERT_EQ(got, want) << what << " step " << step << " at (" << gx << ", " << gy
                                     << ")";
            }
        };
        auto check_state = [&](int step) {
            std::uint32_t lowest = 0;
            const auto first_free = std::find(taken.begin(), taken.end(), false);
            ASSERT_EQ(frame.lowest_free(lowest), first_free != taken.end()) << "step " << step;
            if (first_free != taken.end()) {
                ASSERT_EQ(lowest, first_free - taken.begin()) << "step " << step;
            }
            for (std::uint32_t p = 0; p < pads.size(); ++p)
                ASSERT_EQ(frame.is_free(p), !taken[p]) << "pad " << p << " step " << step;
        };

        for (int step = 0; step < 3000; ++step) {
            const std::uint64_t op = rng.below(16);
            if (op == 0) {
                frame.reset();
                std::fill(taken.begin(), taken.end(), false);
            } else if (op < 8) {
                // Take what a refinement pass would: the nearest free pad.
                const double gx = static_cast<double>(rng.below(kW + 2));
                const double gy = static_cast<double>(rng.below(kH + 2));
                std::uint32_t p = 0;
                if (frame.nearest_free(gx, gy, p)) {
                    ASSERT_TRUE(frame.is_free(p));
                    frame.take(p);
                    taken[p] = true;
                }
            } else if (op < 12) {
                // Take an arbitrary free pad.
                std::vector<std::uint32_t> free;
                for (std::uint32_t p = 0; p < pads.size(); ++p)
                    if (!taken[p]) free.push_back(p);
                if (!free.empty()) {
                    const std::uint32_t p = free[rng.pick_index(free)];
                    frame.take(p);
                    taken[p] = true;
                }
            }
            check_state(step);
            for (int q = 0; q < 4; ++q) query("nearest_free", step);
        }
    }
}

TEST(PadFrame, EmptiesOneSideAtATime) {
    base::Rng rng(7);
    const std::vector<PlacePt> pads = frame_pads(3, 3, 2, rng);
    PadFrame frame;
    frame.build(pads, 3, 3);
    std::vector<bool> taken(pads.size(), false);
    // Drain the frame through nearest queries from one corner: sides run
    // dry one after another and the last query finds nothing.
    for (std::size_t k = 0; k <= pads.size(); ++k) {
        std::uint32_t want = 0;
        std::uint32_t got = 0;
        const bool found = scan_nearest(pads, taken, 0.0, 0.0, want);
        ASSERT_EQ(frame.nearest_free(0.0, 0.0, got), found) << k;
        if (!found) break;
        ASSERT_EQ(got, want) << k;
        frame.take(got);
        taken[got] = true;
    }
    std::uint32_t p = 0;
    EXPECT_FALSE(frame.lowest_free(p));
    frame.reset();
    ASSERT_TRUE(frame.lowest_free(p));
    EXPECT_EQ(p, 0u);
}

// --- QuadSystem::finalize ---------------------------------------------------

struct Csr {
    std::vector<std::size_t> row_start;
    std::vector<std::size_t> col;
    std::vector<double> val;
};

/// Reference CSR: stable sort by (row, col), duplicates summed left to
/// right from 0.
Csr reference_csr(std::size_t n, std::vector<QuadSystem::Triplet> off) {
    std::stable_sort(off.begin(), off.end(), [](const auto& a, const auto& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    Csr c;
    c.row_start.assign(n + 1, 0);
    for (std::size_t t = 0; t < off.size();) {
        double w = 0;
        const std::size_t begin = t;
        for (; t < off.size() && off[t].row == off[begin].row && off[t].col == off[begin].col;
             ++t)
            w += off[t].w;
        c.col.push_back(off[begin].col);
        c.val.push_back(w);
        ++c.row_start[off[begin].row + 1];
    }
    for (std::size_t i = 0; i < n; ++i) c.row_start[i + 1] += c.row_start[i];
    return c;
}

/// Assemble a random system into `sys`: springs between movable pairs
/// (repeated pairs included) plus raw triplets shuffled within their
/// rows. Weights span many magnitudes, so a different summation order of
/// one (row, col) would show in the last bits. Returns the triplets in
/// assembly order.
std::vector<QuadSystem::Triplet> assemble_random(QuadSystem& sys, std::size_t n,
                                                 base::Rng& rng) {
    sys.reset(n);
    auto weight = [&] {
        return std::ldexp(1.0 + rng.uniform(), static_cast<int>(rng.below(60)) - 30);
    };
    const std::size_t springs = 3 * n;
    for (std::size_t s = 0; s < springs; ++s) {
        const auto i = static_cast<std::size_t>(rng.below(n));
        auto j = static_cast<std::size_t>(rng.below(n));
        if (j == i) j = (i + 1) % n;
        const int repeats = 1 + static_cast<int>(rng.below(3));
        for (int r = 0; r < repeats; ++r) sys.connect_movable(i, j, weight());
    }
    // Raw triplets per row with columns in shuffled order, some repeated.
    for (std::size_t row = 0; row < n; row += 2) {
        std::vector<std::uint32_t> cols(1 + rng.below(6));
        for (std::uint32_t& c : cols) c = static_cast<std::uint32_t>(rng.below(n));
        cols.push_back(cols.front());
        rng.shuffle(cols);
        for (const std::uint32_t c : cols)
            sys.off.push_back({static_cast<std::uint32_t>(row), c, -weight()});
    }
    return sys.off;
}

void expect_csr_eq(const QuadSystem& sys, const Csr& want, const char* what) {
    EXPECT_EQ(sys.row_start, want.row_start) << what;
    EXPECT_EQ(sys.col, want.col) << what;
    ASSERT_EQ(sys.val.size(), want.val.size()) << what;
    for (std::size_t t = 0; t < want.val.size(); ++t)
        ASSERT_EQ(sys.val[t], want.val[t]) << what << ": entry " << t;  // bit for bit
    EXPECT_TRUE(sys.off.empty()) << what;
}

TEST(QuadSystem, FinalizeMatchesAStableSortReference) {
    base::Rng rng(11);
    QuadSystem reused;  // one instance across every trial, sizes up and down
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(rng.below(40));
        base::Rng fork = rng.fork(static_cast<std::uint64_t>(trial));
        base::Rng again = fork;
        const auto off = assemble_random(reused, n, fork);
        const Csr want = reference_csr(n, off);
        reused.finalize();
        expect_csr_eq(reused, want, "reused instance");

        QuadSystem fresh;
        (void)assemble_random(fresh, n, again);
        fresh.finalize();
        expect_csr_eq(fresh, want, "fresh instance");
    }
}

TEST(QuadSystem, FinalizeTwiceOnOneInstanceRebuildsTheSameSystem) {
    base::Rng rng(3);
    QuadSystem sys;
    base::Rng replay = rng;
    const auto off = assemble_random(sys, 17, rng);
    sys.finalize();
    const Csr first{sys.row_start, sys.col, sys.val};
    EXPECT_EQ(first.row_start, reference_csr(17, off).row_start);
    (void)assemble_random(sys, 17, replay);
    sys.finalize();
    expect_csr_eq(sys, first, "second finalize");
}

TEST(QuadSystem, EmptyRowsAndNoTriplets) {
    QuadSystem sys;
    sys.reset(4);
    sys.finalize();
    EXPECT_EQ(sys.row_start, (std::vector<std::size_t>{0, 0, 0, 0, 0}));
    EXPECT_TRUE(sys.col.empty());
    sys.reset(4);
    sys.connect_movable(3, 1, 2.0);
    sys.finalize();
    EXPECT_EQ(sys.row_start, (std::vector<std::size_t>{0, 0, 1, 1, 2}));
    EXPECT_EQ(sys.col, (std::vector<std::size_t>{3, 1}));
    EXPECT_EQ(sys.val, (std::vector<double>{-2.0, -2.0}));
}

}  // namespace
