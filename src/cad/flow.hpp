/// \file
/// The end-to-end CAD flow: gates -> LEs -> PLBs -> placement -> routing ->
/// configuration bitstream, plus the delay annotations and PDE solving that
/// asynchronous styles need.
///
/// Threading: run_flow itself is called from one thread, but may fan out
/// internally (partitioned parallel routing + RR build via
/// RouterOptions::threads); concurrent run_flow calls over one shared
/// immutable prebuilt RR graph are the FlowService pattern
/// (cad/flow_service.hpp). Every parallel path is bit-reproducible for any
/// worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "asynclib/styles.hpp"
#include "cad/flow_stage.hpp"
#include "cad/mapped.hpp"
#include "cad/pack.hpp"
#include "cad/place.hpp"
#include "cad/route.hpp"
#include "cad/techmap.hpp"
#include "core/bitstream.hpp"
#include "core/elaborate.hpp"
#include "core/rrgraph.hpp"

namespace afpga::cad {

class ArtifactStore;

/// Every knob of the five-stage flow.
struct FlowOptions {
    std::uint64_t seed = 1;   ///< master seed (placement derives from it)
    TechmapOptions techmap;   ///< stage 1 knobs
    PackOptions pack;         ///< stage 2 knobs
    PlaceOptions place;       ///< stage 3 knobs (seed is overridden by `seed`)
    RouterOptions route;      ///< stage 4 knobs, incl. parallel-router threads
    /// Extra relative margin applied to every PDE's required delay on top of
    /// what the generator asked for, absorbing post-route wire delay
    /// (abl_pde_resolution sweeps this).
    double pde_extra_margin = 1.0;
    /// Check every LE function against its source cone after mapping.
    bool verify_mapping = true;
    /// Routing-resource graph to reuse instead of building one per flow. The
    /// graph is immutable through the whole flow (routing and elaboration
    /// only read it), so FlowService builds it once per architecture and
    /// shares it across all concurrent jobs. Its ArchSpec fingerprint must
    /// match the arch passed to run_flow.
    std::shared_ptr<const core::RRGraph> prebuilt_rr;
    /// Content-addressed stage cache (cad/artifact.hpp). When set, every
    /// stage consults the store before running and publishes after, so a
    /// re-run that changes only downstream knobs skips the unchanged
    /// upstream stages; telemetry records the per-stage key and hit/miss.
    /// nullptr (the default) disables caching — behaviour and results are
    /// identical either way, caching only skips redundant recomputation.
    std::shared_ptr<ArtifactStore> artifact_store;
};

/// Everything the flow produced; enough to elaborate, simulate and report.
struct FlowResult {
    core::ArchSpec arch;      ///< the architecture compiled against
    MappedDesign mapped;      ///< techmap product
    PackedDesign packed;      ///< pack product
    Placement placement;      ///< place product (incl. placer telemetry)
    RoutingResult routing;    ///< route product (incl. partition telemetry)
    /// Shared and immutable: benches reuse it, and concurrent service jobs on
    /// the same architecture all point at one graph.
    std::shared_ptr<const core::RRGraph> rr;
    std::shared_ptr<core::Bitstream> bits;  ///< the programmed configuration
    /// Pad index -> primary-I/O name, for simulation and reports.
    std::unordered_map<std::uint32_t, std::string> pad_names;
    /// Per-stage wall time, iterations and cost trajectories; serializable
    /// via FlowTelemetry::to_json().
    FlowTelemetry telemetry;

    /// Reconstruct the implemented netlist from the bitstream.
    [[nodiscard]] core::ElaboratedDesign elaborate() const;
};

/// Run the full flow. Throws base::Error when the design cannot be
/// implemented on `arch` (too many PLBs, unroutable, PDE out of range, ...).
[[nodiscard]] FlowResult run_flow(const netlist::Netlist& nl,
                                  const asynclib::MappingHints& hints,
                                  const core::ArchSpec& arch, const FlowOptions& opts = {});

}  // namespace afpga::cad
