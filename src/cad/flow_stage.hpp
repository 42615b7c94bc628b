/// \file
/// Flow telemetry: run_flow (cad/flow.hpp) times each of its five stages
/// (techmap -> pack -> place -> route -> bitstream) into a StageReport and
/// collects the reports into a machine-readable FlowTelemetry (schema:
/// docs/TELEMETRY.md). A stage restored from the artifact store reports
/// the same product metrics as the run that published it; only wall times
/// are run-only.
///
/// Threading: plain values; one flow fills one FlowTelemetry.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace afpga::cad {

/// What one stage did: wall time, iteration count and per-iteration cost
/// trajectory where the stage is iterative (polish anneal rounds, PathFinder
/// iterations), plus free-form named metrics.
struct StageReport {
    std::string stage;      ///< stage name (techmap/pack/place/route/bitstream)
    double wall_ms = 0.0;   ///< stage wall time, stamped by the driver
    int iterations = 0;     ///< anneal rounds / PathFinder iterations, else 0
    std::vector<double> cost_trajectory;  ///< per-iteration cost (HPWL / overuse)
    std::vector<std::pair<std::string, double>> metrics;  ///< insertion-ordered

    // Artifact caching (set only when the flow runs with an ArtifactStore;
    // see docs/TELEMETRY.md).
    std::string cache_key;  ///< hex artifact key of this stage; empty = caching off
    int cache_hit = -1;     ///< 1 = restored from the store, 0 = computed, -1 = off

    /// Append a named metric.
    void add_metric(std::string name, double v) {
        metrics.emplace_back(std::move(name), v);
    }
    /// nullptr when the stage never recorded the metric.
    [[nodiscard]] const double* metric(std::string_view name) const;
};

/// Per-stage reports in pipeline order plus the end-to-end wall time.
struct FlowTelemetry {
    std::vector<StageReport> stages;  ///< one per stage, pipeline order
    double total_ms = 0.0;            ///< end-to-end pipeline wall time

    /// nullptr when no stage has that name.
    [[nodiscard]] const StageReport* stage(std::string_view name) const;
    /// Serialize the whole telemetry as a JSON object.
    [[nodiscard]] std::string to_json() const;
};

}  // namespace afpga::cad
