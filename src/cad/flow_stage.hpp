/// \file
/// The staged CAD pipeline: run_flow threads a FlowContext through five
/// FlowStage implementations (techmap -> pack -> place -> route ->
/// bitstream), timing each one into a StageReport and collecting the
/// reports into a machine-readable FlowTelemetry (schema:
/// docs/TELEMETRY.md).
///
/// Threading: one FlowContext belongs to one flow; stages run sequentially
/// on the calling thread and fan out internally where their options ask
/// for it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asynclib/styles.hpp"
#include "cad/route.hpp"
#include "netlist/netlist.hpp"

namespace afpga::cad {

class ArtifactStore;
struct FlowOptions;
struct FlowResult;

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

/// Mutable state threaded through the pipeline. Stages read what upstream
/// stages produced (mostly inside `result`) and leave their own products for
/// the stages downstream.
struct FlowContext {
    const netlist::Netlist& nl;           ///< the design being compiled
    const asynclib::MappingHints& hints;  ///< generator hints for techmap
    const core::ArchSpec& arch;           ///< target architecture
    const FlowOptions& opts;              ///< all stage knobs
    FlowResult& result;                   ///< accumulating products

    // Route-stage products the bitstream stage consumes: the flattened net
    // list, each net's consuming cluster per sink (SIZE_MAX = pad), and the
    // signal each request carries.
    std::vector<RouteRequest> reqs;
    std::vector<std::vector<std::size_t>> sink_cluster;
    std::vector<netlist::NetId> req_signal;
};

/// One pipeline stage. The five concrete stages are internal to flow.cpp;
/// the interface is public so the driver's contract (name + timed run over
/// a shared context, plus the artifact-cache hooks) is visible alongside
/// StageReport/FlowTelemetry.
///
/// Caching contract: when the flow carries an ArtifactStore, the driver
/// derives this stage's key by chaining the upstream stage's key with
/// `name()` and `options_fingerprint()`, then calls `try_restore`; only on
/// a miss does it `run` and `publish`. A stage must therefore be a pure
/// function of its fingerprinted inputs, and restore must leave the
/// context exactly as a run would have (cold and warm flows are
/// bit-identical). The store is two-tier: a restore may be served by the
/// resident memory tier or deserialized from the store's disk tier
/// (cad/serialize.hpp) — the latter is flagged with a
/// `restored_from_disk` metric but is otherwise indistinguishable, and a
/// publish feeds both tiers. Stages never see eviction: a product evicted
/// between publish and restore simply misses and is recomputed.
class FlowStage {
public:
    virtual ~FlowStage() = default;
    [[nodiscard]] virtual std::string name() const = 0;
    /// Do the work; fill iteration counts/trajectory/metrics into `report`
    /// (wall_ms is stamped by the pipeline driver).
    virtual void run(FlowContext& ctx, StageReport& report) = 0;

    /// Hash of every stage input that is NOT covered by the upstream key
    /// chain (the stage's option struct, plus the master seed / arch for
    /// the first stage that consumes them). Default: no extra inputs.
    [[nodiscard]] virtual std::uint64_t options_fingerprint(const FlowContext& ctx) const;
    /// Restore this stage's products from the store into the context;
    /// false = not cached (the default for stages without cache support).
    [[nodiscard]] virtual bool try_restore(FlowContext& ctx, const ArtifactStore& store,
                                           std::uint64_t key, StageReport& report);
    /// Publish this stage's products under `key` after a successful run.
    virtual void publish(const FlowContext& ctx, ArtifactStore& store, std::uint64_t key) const;
};

}  // namespace afpga::cad
