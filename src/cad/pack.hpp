/// \file
/// Packing: group LE instances (and at most one PDE) into PLB-sized
/// clusters under the PLB pin budget, maximising shared signals so the IM
/// (not the global routing network) carries as much connectivity as
/// possible.
///
/// Threading: pack runs single-threaded; its PackedDesign product is
/// immutable afterwards and shared read-only by concurrent stages/jobs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cad/mapped.hpp"
#include "core/archspec.hpp"

namespace afpga::cad {

/// One PLB worth of logic.
struct Cluster {
    std::vector<std::size_t> le_indices;   ///< into MappedDesign::les (<= les_per_plb)
    std::optional<std::size_t> pde_index;  ///< into MappedDesign::pdes

    /// Signals entering the cluster through PLB input pins.
    [[nodiscard]] std::vector<NetId> external_inputs(const MappedDesign& md) const;
    /// All signals produced inside (whether exported or not).
    [[nodiscard]] std::vector<NetId> produced(const MappedDesign& md) const;
};

/// All clusters plus the reverse indices of their members.
struct PackedDesign {
    std::vector<Cluster> clusters;  ///< one per occupied PLB-to-be
    std::vector<std::size_t> cluster_of_le;   ///< le index -> cluster index
    std::vector<std::size_t> cluster_of_pde;  ///< pde index -> cluster index

    /// signal -> clusters that consume it (deduplicated).
    [[nodiscard]] std::unordered_map<NetId, std::vector<std::size_t>> build_consumers(
        const MappedDesign& md) const;
};

/// Packing knobs.
struct PackOptions {
    bool affinity_clustering = true;  ///< ablation: false = first-fit order
};

/// Throws base::Error if a single LE exceeds the PLB pin budget (cannot
/// happen with the default architecture) or the design needs more PLBs than
/// exist in `arch` is NOT checked here (the placer owns that check).
[[nodiscard]] PackedDesign pack(const MappedDesign& md, const core::ArchSpec& arch,
                                const PackOptions& opts = {});

}  // namespace afpga::cad
