/// \file
/// Deterministic Tetris-style legalization for analytical placement.
///
/// The global placement solver (cad/place_multilevel.hpp) produces
/// fractional cluster coordinates with residual overlap; this pass snaps
/// them onto distinct PLB sites. Clusters are processed in a fixed order
/// (sorted by target x, then y, then cluster index) and each takes the
/// first free site found by an expanding Manhattan-diamond ring scan with
/// a fixed intra-ring order — no RNG, no floating-point comparisons beyond
/// the initial rounding — so the output is bit-reproducible for identical
/// inputs on any machine.
///
/// Threading: pure function of its arguments; safe to call concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/fabric.hpp"

namespace afpga::cad {

/// How far legalization moved clusters off their solver targets
/// (place StageReport telemetry; serialized with the Placement).
struct LegalizeStats {
    /// Histogram of per-cluster Manhattan displacement in PLB units:
    /// bucket i counts displacement == i, the last bucket counts >= 15.
    std::array<std::uint64_t, 16> displacement_histogram{};
    std::uint64_t total_displacement = 0;  ///< sum of per-cluster displacements
    std::uint64_t max_displacement = 0;    ///< worst single cluster
    double avg_displacement = 0.0;         ///< total / clusters (0 if none)
};

/// Snap fractional per-cluster coordinates (solver space: PLB (x, y) sits
/// at (x+1, y+1)) onto distinct legal PLB sites of a width x height grid.
/// `x`/`y` are indexed by cluster; requires x.size() == y.size() <= W*H.
/// Throws base::Error if the clusters cannot fit.
[[nodiscard]] std::vector<core::PlbCoord> legalize_clusters(const std::vector<double>& x,
                                                            const std::vector<double>& y,
                                                            std::uint32_t width,
                                                            std::uint32_t height,
                                                            LegalizeStats* stats = nullptr);

}  // namespace afpga::cad
