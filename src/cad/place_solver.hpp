/// \file
/// Numeric machinery of analytical placement: the per-axis quadratic
/// system (Laplacian + anchors, assembled from deterministic-order triplets
/// into CSR), the Jacobi-preconditioned conjugate-gradient solver, and
/// weighted recursive-bisection spreading. The multilevel V-cycle
/// (cad/place_multilevel.cpp) builds on these.
///
/// Every type here is designed for reuse across passes: QuadSystem,
/// PcgScratch, SpreadScratch and PadFrame keep their buffers between calls,
/// so the per-pass loops of the engine allocate nothing after the first
/// pass.
///
/// Determinism: all loops run in fixed serial order with fixed tie-breaks;
/// given equal inputs every function produces bit-identical outputs on any
/// machine, thread count or call history (buffer reuse never leaks state).
///
/// Threading: instances are single-owner mutable scratch; concurrent
/// callers each own their instances.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace afpga::cad {

struct PlacePt;

/// One axis of the quadratic placement system: symmetric positive-definite
/// Laplacian-plus-anchors. Assemble with connect_*, then finalize() into
/// CSR for the solver. reset(n) re-arms the instance for the next pass
/// without releasing its buffers.
struct QuadSystem {
    /// One off-diagonal entry before finalize(): A[row][col] += w.
    struct Triplet {
        std::uint32_t row;
        std::uint32_t col;
        double w;
    };
    std::vector<double> diag;
    std::vector<double> rhs;
    std::vector<Triplet> off;  ///< pre-CSR, in assembly order
    std::vector<std::size_t> row_start;
    std::vector<std::size_t> col;
    std::vector<double> val;

    /// Clear to an n-variable empty system, keeping buffer capacity.
    void reset(std::size_t n);

    /// A spring of weight w between movable variables i and j.
    void connect_movable(std::size_t i, std::size_t j, double w) {
        diag[i] += w;
        diag[j] += w;
        off.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), -w});
        off.push_back({static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(i), -w});
    }
    /// A spring of weight w between movable i and a fixed coordinate.
    void connect_fixed(std::size_t i, double coord, double w) {
        diag[i] += w;
        rhs[i] += w * coord;
    }

    /// Pin variables with no connections at their current coordinate (the
    /// system stays SPD and the solver leaves them put).
    void fix_degenerate(const std::vector<double>& x);

    /// Merge the triplets into CSR in O(n + triplets): two stable counting
    /// sorts (by column, then by row) put each row in ascending column
    /// order, and the triplets of one (row, col) are summed in assembly
    /// order, left to right from 0. That is the order a std::stable_sort
    /// by (row, col) gives, and the triplet sequence is a pure function of
    /// the assembly calls, so the CSR values are identical on every run.
    void finalize();

    /// y = A x (serial, row order).
    void apply(const std::vector<double>& x, std::vector<double>& y) const;

private:
    std::vector<Triplet> by_col_;         ///< finalize(): triplets by column
    std::vector<Triplet> by_row_;         ///< finalize(): then by row
    std::vector<std::uint32_t> cursor_;  ///< finalize(): counting-sort slots
};

/// Reusable work vectors of the conjugate-gradient solver.
struct PcgScratch {
    std::vector<double> r;
    std::vector<double> z;
    std::vector<double> p;
    std::vector<double> ap;
};

/// Jacobi-preconditioned conjugate gradient, warm-started from `x`.
/// Strictly serial with a fixed iteration order — bit-reproducible.
/// Returns the number of iterations run.
std::uint64_t solve_pcg(const QuadSystem& sys, std::vector<double>& x, int max_iters,
                        double tol, PcgScratch& scratch);

/// Reusable index/stack buffers of the spreading pass.
struct SpreadScratch {
    struct Region {
        std::uint32_t x0, x1, y0, y1;
        std::size_t begin, end;  ///< index range into `idx`
    };
    std::vector<std::size_t> idx;
    std::vector<Region> stack;
};

/// Weighted recursive-bisection spreading over a width x height site grid:
/// split each region at its geometric midline and partition the nodes
/// (sorted by coordinate along the cut axis, ties by index) to the side of
/// the cut they already sit on; the boundary shifts only when a side's
/// total node weight exceeds its site capacity, so spreading displaces
/// nodes exactly where density demands it and leaves sparse regions in
/// place. Leaves assign each node its region's center as an anchor target.
///
/// `weight` is the per-node site demand (nullptr = every node weighs 1,
/// which reproduces the classic unweighted pass bit-for-bit). Indivisible
/// heavy nodes make an exact capacity split impossible in rare corners;
/// the partition is then best-effort (targets are anchors, not sites — the
/// finest level, where every weight is 1, is the only one that legalizes).
/// All comparisons have fixed tie-breaks, so targets are a pure function
/// of the positions.
void spread_targets(std::uint32_t width, std::uint32_t height, std::size_t num_nodes,
                    const std::vector<double>& cx, const std::vector<double>& cy,
                    const std::uint32_t* weight, std::vector<double>& tgt_x,
                    std::vector<double>& tgt_y, SpreadScratch& scratch);

/// Deterministic nearest-free-pad index over the perimeter pad frame.
///
/// Pads sit on the four sides of the fabric frame, so the Manhattan
/// distance from a query point to a pad decomposes per side into a fixed
/// off-side offset plus a 1-D distance along the side's running
/// coordinate. Each side keeps its pads in one flat (run coord, pad)
/// vector, sorted once by build(); a take() only stamps the pad with the
/// current generation, so reset() is O(1) (a new generation frees every
/// pad) and the per-pass loop allocates nothing. A nearest-free query
/// binary-searches each side for the query's projection and walks outward
/// past taken entries: within a side only the two free runs bracketing
/// the projection can hold the minimum. The (distance, lowest pad index)
/// tie-break reproduces the argmin of an ascending full scan bit-for-bit,
/// so the greedy pad refinement loop (refine_level_pads) keeps its exact
/// result without paying O(n_io * n_pads) per pass.
///
/// Like the other scratch types here, build once and reset() per pass.
class PadFrame {
public:
    /// Index the pad geometry of a width x height fabric (pads lie on
    /// x in {0, width+1} or y in {0, height+1}); every pad starts free.
    void build(const std::vector<PlacePt>& pads, std::uint32_t width, std::uint32_t height);

    /// Mark every pad free again without re-deriving the geometry.
    void reset();

    /// True while `pad` has not been taken since the last reset/build.
    [[nodiscard]] bool is_free(std::uint32_t pad) const { return taken_[pad] != gen_; }

    /// Lowest-indexed free pad, or false when none is left.
    [[nodiscard]] bool lowest_free(std::uint32_t& out) const;

    /// Free pad nearest (Manhattan) to (gx, gy), ties by lowest pad
    /// index; false when none is left.
    [[nodiscard]] bool nearest_free(double gx, double gy, std::uint32_t& out) const;

    /// Take a free `pad` (it stays taken until the next reset).
    void take(std::uint32_t pad);

private:
    struct Entry {
        double run;         ///< running coordinate along the side
        std::uint32_t pad;  ///< pad index
    };
    struct Side {
        int run_axis = 0;    ///< axis of the running coordinate: 0 = x, 1 = y
        double fixed = 0.0;  ///< the side's off-axis coordinate
        std::vector<Entry> pads;   ///< sorted by (run, pad)
        std::size_t n_free = 0;    ///< pads of this side not yet taken
    };
    std::array<Side, 4> sides_;
    std::vector<std::uint8_t> side_of_;  ///< pad -> side
    /// pad -> generation it was last taken in; free while != gen_.
    std::vector<std::uint32_t> taken_;
    std::uint32_t gen_ = 1;
    std::uint32_t lowest_ = 0;  ///< every pad below this index is taken
};

}  // namespace afpga::cad
