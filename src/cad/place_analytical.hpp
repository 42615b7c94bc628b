/// \file
/// Pieces of analytical placement shared by the global engine
/// (cad/place_multilevel.hpp) and the place() driver (cad/place.cpp): the
/// global-placement result type, HPWL over fractional coordinates, and the
/// deterministic detailed-placement descent that finishes every analytical
/// placement.
///
/// Determinism contract: every loop runs in a fixed serial order — net
/// order from the model, ascending entity/cluster ids, fixed tie-breaks —
/// so each result is a pure function of its inputs, bit-identical across
/// runs, machines and pool sizes.
///
/// Threading: pure functions of their arguments; concurrent place() calls
/// may run them at the same time.
#pragma once

#include <cstdint>
#include <vector>

#include "cad/place.hpp"
#include "cad/place_model.hpp"

namespace afpga::cad {

/// Output of analytical global placement + legalization (pre-polish).
struct AnalyticalResult {
    std::vector<core::PlbCoord> cluster_loc;  ///< legal per-cluster sites
    std::vector<std::uint32_t> pad_of_io;     ///< io slot -> pad
    AnalyticalStats stats;                    ///< solver/spread/legalize telemetry
};

/// HPWL over fractional (pre-legalization) coordinates — the
/// `pre_legal_cost` telemetry.
[[nodiscard]] double fractional_cost(const PlaceModel& model, const std::vector<double>& cx,
                                     const std::vector<double>& cy,
                                     const std::vector<std::uint32_t>& pad_of_io);

/// Deterministic detailed-placement descent on the real bounding-box cost:
/// each cluster, in index order, takes the best strictly-improving free
/// site or swap inside a small window, then each io slot takes the best
/// strictly-improving pad move or pad swap; passes repeat until dry. Pure
/// function of its inputs. The driver runs it as the final step, after the
/// polish anneal — descending before annealing traps the anneal in the
/// descent's local basin and measurably worsens the result.
void refine_detailed(const PlaceModel& model, std::vector<std::uint32_t>& pad_of_io,
                     std::vector<core::PlbCoord>& cluster_loc);

}  // namespace afpga::cad
