/// \file
/// Placement: the multilevel analytical placer over one wirelength model
/// (cad/place_model.hpp).
///
/// place() runs a coarsen→solve→interpolate V-cycle of quadratic B2B
/// global placement, solved by a deterministic conjugate-gradient solver
/// (cad/place_coarsen.hpp + cad/place_multilevel.hpp), snaps it legal with
/// a Tetris-style legalizer (cad/place_legalize.hpp), then polishes it with
/// a short warm-start anneal over PLB locations and I/O pads and finishes
/// with a deterministic detailed descent. The anneal and the descent price
/// every move on one integer HPWL engine (cad/place_cost.hpp), built once
/// per call at the legal placement; its totals are `legalized_cost` and
/// `final_cost`. The full spreading
/// schedule runs only on the coarsest few hundred nodes and each finer
/// level gets a short anchored refinement, so wall time stays flat as the
/// fabric grows. `max_levels = 0` runs the flat, single-level schedule.
///
/// Determinism: the result is a pure function of (design, arch, options);
/// place() runs on the calling thread and owns all of its state, so
/// concurrent calls are safe.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cad/pack.hpp"
#include "cad/place_legalize.hpp"
#include "core/fabric.hpp"

namespace afpga::cad {

/// The placement engine. Single-valued: tags 0 (cold annealer), 1 (flat
/// analytical engine) and 2 (replica race) are retired, and the wire and
/// blob decoders reject them.
enum class PlaceAlgorithm : std::uint8_t {
    Multilevel = 3,  ///< V-cycle + legalize + polish
};

/// Per-level telemetry of one multilevel V-cycle descent (coarsest level
/// first; place StageReport metrics, serialized with the Placement).
struct LevelStats {
    std::uint64_t nodes = 0;              ///< movable nodes at this level
    std::uint64_t nets = 0;               ///< contracted nets at this level
    int solver_passes = 0;                ///< solve passes run at this level
    int spread_passes = 0;                ///< spreading passes at this level
    std::uint64_t solver_iterations = 0;  ///< CG iterations at this level
    double wall_ms = 0.0;                 ///< wall time spent at this level
};

/// Multilevel-engine telemetry: what the solver, spreader and legalizer
/// did (place StageReport metrics; serialized with the Placement).
struct AnalyticalStats {
    std::uint64_t solver_iterations = 0;  ///< total CG iterations, both axes
    int solver_passes = 0;                ///< B2B rebuild+solve passes run
    int spread_passes = 0;                ///< bisection spreading passes run
    double pre_legal_cost = 0.0;          ///< HPWL at fractional coordinates
    double legalized_cost = 0.0;          ///< HPWL after snapping legal
    LegalizeStats legalize;               ///< displacement histogram etc.
    /// One entry per V-cycle level, coarsest first (exactly one when the
    /// coarsening never fired).
    std::vector<LevelStats> levels;
};

/// Where everything landed, plus placer telemetry.
struct Placement {
    std::vector<core::PlbCoord> cluster_loc;           ///< per cluster
    std::unordered_map<std::string, std::uint32_t> pi_pad;  ///< PI name -> pad
    std::unordered_map<std::string, std::uint32_t> po_pad;  ///< PO name -> pad
    double final_cost = 0.0;               ///< final HPWL cost
    std::uint64_t moves_tried = 0;         ///< polish move proposals
    std::uint64_t moves_accepted = 0;      ///< accepted proposals
    int anneal_rounds = 0;                 ///< polish temperature steps executed
    std::vector<double> cost_trajectory;   ///< HPWL after each polish step
    AnalyticalStats analytical;            ///< V-cycle, solver and legalizer telemetry
    // Sub-phase walls of the place() call that produced this placement.
    // Timings, so the artifact codec does not carry them: a restored
    // Placement has all three at 0.
    double global_ms = 0.0;   ///< model, V-cycle, legalization, cost engine
    double polish_ms = 0.0;   ///< polish anneal
    double descent_ms = 0.0;  ///< final detailed descent
};

/// Placement knobs (see each field).
struct PlaceOptions {
    std::uint64_t seed = 1;        ///< RNG seed (the flow injects its own)
    /// Polish moves per temperature ~ scale * n^(4/3) (finite, in
    /// [0, 1000]).
    double moves_scale = 10.0;
    /// Single-valued; see PlaceAlgorithm.
    PlaceAlgorithm algorithm = PlaceAlgorithm::Multilevel;
    /// No effect: place() always runs on the calling thread. Kept so that
    /// existing callers still compile; the place stage key ignores it.
    unsigned threads = 0;
    /// B2B model rebuild+solve passes of the coarsest level's full schedule
    /// (finer levels run a fraction of it).
    int solver_passes = 16;
    /// CG iteration cap per axis solve at the coarsest level.
    int solver_max_iters = 150;
    /// Warm-start polish anneal rounds after legalization (0 = no polish).
    int polish_rounds = 8;
    /// CG convergence threshold, relative residual (finite, >= 0).
    double solver_tolerance = 1e-9;
    /// Base weight of spreading anchor pseudo-nets; the effective weight
    /// grows linearly with the pass number (finite, >= 0).
    double anchor_weight = 0.10;
    /// Each coarsening level targets ceil(ratio * nodes) nodes (smaller =
    /// more aggressive shrink per level, fewer levels; finite).
    double coarsen_ratio = 0.5;
    /// Stop coarsening once a level has this few movable nodes (the full
    /// solve+spread schedule runs there).
    int min_coarse_nodes = 64;
    /// Hard cap on coarsening levels above the finest (0 = no coarsening:
    /// the flat, single-level schedule).
    int max_levels = 10;
};

/// Throws base::Error if the design does not fit (clusters > W*H or I/Os >
/// pads), if a float knob is non-finite (or, except `coarsen_ratio`,
/// negative), if an int knob or `moves_scale` exceeds its cap, or if
/// `moves_scale` puts more than 2^53 polish moves in one round; the message
/// names the field.
[[nodiscard]] Placement place(const PackedDesign& pd, const MappedDesign& md,
                              const core::ArchSpec& arch, const PlaceOptions& opts = {});

/// Total half-perimeter wirelength of a placement (reported by benches).
/// Computed from the signals directly, sharing no code with the placer's
/// cost engine, so tests use it as the oracle for `final_cost` and
/// `legalized_cost`.
[[nodiscard]] double placement_wirelength(const PackedDesign& pd, const MappedDesign& md,
                                          const core::ArchSpec& arch, const Placement& pl);

}  // namespace afpga::cad
