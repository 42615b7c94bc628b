/// \file
/// Analytical global placement, run as a coarsen→solve→interpolate
/// V-cycle over the coarsening hierarchy of cad/place_coarsen.hpp — the
/// repo's one analytical engine.
///
/// Each level is a bound-to-bound (B2B) quadratic wirelength model with
/// I/O pads as fixed anchors, solved per axis by the Jacobi-preconditioned
/// conjugate-gradient solver of cad/place_solver.hpp and interleaved with
/// recursive-bisection spreading that pulls overlapping nodes apart via
/// growing anchor pseudo-nets. The full solve+spread schedule runs only at
/// the coarsest level (a few hundred super-nodes); the descent then walks
/// down the hierarchy, interpolating each solution to the next finer level
/// and refining it with a short anchored schedule — the growing anchor
/// weights carry across levels, so by the finest level the placement is
/// already spread and a handful of passes suffice. The finest level hands
/// off to the Tetris legalizer (cad/place_legalize.hpp), and the legal
/// placement seeds the integer HPWL engine (cad/place_cost.hpp) that the
/// driver in cad/place.cpp runs the optional polish anneal and the final
/// descent on. Spreading at coarse levels is weighted by node weight
/// (clusters represented), so density stays honest at every level.
///
/// When the hierarchy is a single level — `PlaceOptions::max_levels = 0`,
/// or a design with at most `min_coarse_nodes` clusters — that level is
/// both coarsest and finest, so the V-cycle runs the flat schedule: the
/// full `solver_passes` passes plus the closing solve on the netlist
/// itself.
///
/// Determinism contract: every loop runs in a fixed serial order with
/// fixed tie-breaks, the coarsening is itself deterministic, and `seed`
/// only feeds the initial pad shuffle; the result is a pure function of
/// (model, options, seed), bit-identical across runs, machines and thread
/// counts.
///
/// Threading: pure function of its arguments; concurrent place() calls may
/// run it at the same time.
#pragma once

#include <cstdint>
#include <vector>

#include "cad/place.hpp"
#include "cad/place_cost.hpp"
#include "cad/place_model.hpp"

namespace afpga::cad {

/// Output of the V-cycle: the legal placement, plus the one cost engine
/// that prices every later move on it.
struct AnalyticalResult {
    std::vector<core::PlbCoord> cluster_loc;  ///< legal per-cluster sites
    std::vector<std::uint32_t> pad_of_io;     ///< io slot -> pad
    /// Integer HPWL engine over the model's entities (same ids) and nets,
    /// at the legal placement: a cluster at (x+1, y+1), an io slot at its
    /// pad's frame point.
    PlaceCostEngine engine;
    std::vector<std::int32_t> pad_x;  ///< pad index -> engine x
    std::vector<std::int32_t> pad_y;  ///< pad index -> engine y
    AnalyticalStats stats;            ///< solver/spread/legalize telemetry
};

/// Run the multilevel V-cycle: build the hierarchy, solve coarsest-first,
/// interpolate down with per-level refinement, legalize the finest level,
/// and build the cost engine there (`legalized_cost` is its total). Throws
/// base::Error if a placement coordinate is not an integer in [0, 2^29].
/// Uses PlaceOptions::{solver_passes, solver_max_iters, solver_tolerance,
/// anchor_weight, coarsen_ratio, min_coarse_nodes, max_levels}. Per-level
/// telemetry lands in AnalyticalStats::levels (coarsest first).
[[nodiscard]] AnalyticalResult place_multilevel_global(const PlaceModel& model,
                                                       const PlaceOptions& opts,
                                                       std::uint64_t seed);

}  // namespace afpga::cad
