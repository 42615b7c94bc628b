/// \file
/// Placement: two engines over one wirelength model (cad/place_model.hpp),
/// and a race between them.
///
///  - `multilevel` (the default): analytical placement — quadratic B2B
///    global placement solved by a deterministic conjugate-gradient solver,
///    run as a coarsen→solve→interpolate V-cycle (cad/place_coarsen.hpp +
///    cad/place_multilevel.hpp), snapped legal by a Tetris-style legalizer
///    (cad/place_legalize.hpp), then polished by a short warm-start anneal
///    and a detailed descent (cad/place_analytical.hpp). The full spreading
///    schedule runs only on the coarsest few hundred nodes and each finer
///    level gets a short anchored refinement, so wall time stays flat as
///    the fabric grows. `max_levels = 0` runs the flat, single-level
///    schedule.
///  - `anneal`: cold simulated annealing over PLB locations and I/O pad
///    assignment (VPR-style adaptive schedule, half-perimeter wirelength
///    cost), optionally raced across independently-seeded replicas. The
///    same annealer, started warm, is the V-cycle's polish.
///  - `race`: one multilevel replica joins the multi-seed anneal race.
///
/// Threading: races run replicas on a base::ThreadPool; each replica owns
/// its state/Rng/cost engine and the winner is chosen by (cost, replica
/// index), so results are bit-identical for any pool size or thread count.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cad/pack.hpp"
#include "cad/place_legalize.hpp"
#include "core/fabric.hpp"

namespace afpga::cad {

/// Which placement engine(s) a place() call runs.
enum class PlaceAlgorithm : std::uint8_t {
    Anneal = 0,      ///< simulated annealing (optionally multi-seed raced)
    // 1 is retired (the former flat analytical engine); decoders reject it.
    Race = 2,        ///< anneal replicas + one multilevel replica, best wins
    Multilevel = 3,  ///< V-cycle + legalize + polish (the default)
};

/// Which engine produced a given placement/replica (telemetry). 1 is
/// retired (the former flat analytical engine); decoders reject it.
enum class PlaceEngine : std::uint8_t { Anneal = 0, Multilevel = 2 };

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

/// What one replica of a multi-seed race did (telemetry; the winner's
/// fields are also promoted into the Placement itself).
struct PlaceReplica {
    std::uint64_t seed = 0;                ///< the replica's derived seed
    double final_cost = 0.0;               ///< HPWL at the replica's end
    double wall_ms = 0.0;                  ///< replica wall time (telemetry)
    std::vector<double> cost_trajectory;   ///< HPWL after each temperature step
    PlaceEngine engine = PlaceEngine::Anneal;  ///< which engine ran it
};

/// Where everything landed, plus engine telemetry.
struct Placement {
    std::vector<core::PlbCoord> cluster_loc;           ///< per cluster
    std::unordered_map<std::string, std::uint32_t> pi_pad;  ///< PI name -> pad
    std::unordered_map<std::string, std::uint32_t> po_pad;  ///< PO name -> pad
    double final_cost = 0.0;               ///< final HPWL cost
    std::uint64_t moves_tried = 0;         ///< annealer move proposals
    std::uint64_t moves_accepted = 0;      ///< accepted proposals
    int anneal_rounds = 0;                 ///< temperature steps executed
    std::vector<double> cost_trajectory;   ///< HPWL after each temperature step
    /// Race only (parallel_seeds > 1, or algorithm == Race): one entry per
    /// replica in replica order, plus which replica won. Empty otherwise.
    std::vector<PlaceReplica> replicas;
    std::size_t winner_replica = 0;        ///< index into replicas
    PlaceEngine engine = PlaceEngine::Anneal;  ///< engine that produced this
    /// Populated when `engine == Multilevel` (zeroed otherwise).
    AnalyticalStats analytical;
};

/// Placement knobs (both engines; see each field).
struct PlaceOptions {
    std::uint64_t seed = 1;        ///< RNG seed (the flow injects its own)
    double alpha = 0.9;            ///< temperature decay
    double moves_scale = 10.0;     ///< moves per temperature ~ scale * n^(4/3)
    /// false: keep the seeded random placement (Anneal and Race only).
    bool anneal = true;
    /// false: pre-refactor cost evaluation (rescan affected nets through
    /// position lookups with mutate/rollback) — kept as the bench baseline
    /// and as a cross-check; decisions are bit-identical in both modes.
    bool incremental = true;
    /// Engine selection; see PlaceAlgorithm. The default is the multilevel
    /// V-cycle, which matches the cold annealer's wirelength on this fabric
    /// at a fraction of its moves. `Anneal` and `Race` stay selectable by
    /// name; `parallel_seeds > 1` and `anneal = false` need one of them, and
    /// place() rejects either with `Multilevel` rather than ignore it.
    PlaceAlgorithm algorithm = PlaceAlgorithm::Multilevel;
    /// Number of independently-seeded annealing replicas raced on a thread
    /// pool; replica i anneals with Rng::derive_seed(seed, i) and the winner
    /// is the lexicographic minimum of (final_cost, replica index), so the
    /// result is bit-reproducible regardless of pool size or scheduling.
    /// 1 = the classic single-seed anneal using `seed` directly. In `Race`
    /// mode the multilevel engine runs as one extra replica after these.
    /// Anneal and Race only.
    int parallel_seeds = 1;
    /// Pool size for the race; 0 = base::ThreadPool::default_workers().
    unsigned threads = 0;
    /// Hard cap on annealing temperature rounds (the schedule usually
    /// exits on its own well before this).
    int max_rounds = 300;
    /// Multilevel: B2B model rebuild+solve passes of the coarsest level's
    /// full schedule (finer levels run a fraction of it).
    int solver_passes = 16;
    /// Multilevel: CG iteration cap per axis solve at the coarsest level.
    int solver_max_iters = 150;
    /// Multilevel: warm-start polish anneal rounds after legalization
    /// (0 = no polish).
    int polish_rounds = 8;
    /// Multilevel: CG convergence threshold (relative residual).
    double solver_tolerance = 1e-9;
    /// Multilevel: base weight of spreading anchor pseudo-nets; the
    /// effective weight grows linearly with the pass number.
    double anchor_weight = 0.10;
    /// Multilevel: each coarsening level targets ceil(ratio * nodes) nodes
    /// (smaller = more aggressive shrink per level, fewer levels).
    double coarsen_ratio = 0.5;
    /// Multilevel: stop coarsening once a level has this few movable nodes
    /// (the full solve+spread schedule runs there).
    int min_coarse_nodes = 64;
    /// Multilevel: hard cap on coarsening levels above the finest (0 = no
    /// coarsening: the flat, single-level schedule).
    int max_levels = 10;

    /// Canonical content hash over EVERY field (artifact-key material); the
    /// implementation pins the struct size so new fields fail loudly.
    /// `threads` never changes the winner but is included anyway — the
    /// canonical rule is "every field", and a spurious miss is always safe.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// Throws base::Error if the design does not fit (clusters > W*H or I/Os >
/// pads).
[[nodiscard]] Placement place(const PackedDesign& pd, const MappedDesign& md,
                              const core::ArchSpec& arch, const PlaceOptions& opts = {});

/// Total half-perimeter wirelength of a placement (reported by benches).
[[nodiscard]] double placement_wirelength(const PackedDesign& pd, const MappedDesign& md,
                                          const core::ArchSpec& arch, const Placement& pl);

}  // namespace afpga::cad
