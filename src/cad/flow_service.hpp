/// \file
/// FlowService: the persistent flow server.
///
/// The FlowService is long-lived: it owns a ThreadPool, a shared
/// content-addressed ArtifactStore (cad/artifact.hpp) and a memo of
/// prebuilt RR graphs per architecture, and accepts FlowJobs through a
/// thread-safe queue for as long as it exists. Every job gets the shared
/// store and its architecture's shared RR graph unless its options bring
/// their own. Experiment grids — many designs x architectures x seeds x
/// stage knobs — are expressed as job sets on one service; jobs that share
/// upstream inputs share the cached techmap/pack/place products, so a warm
/// sweep that varies only downstream knobs runs at a fraction of the cold
/// cost while producing bit-identical results.
///
/// Ownership/threading contract:
///  - submit/wait/cancel/report may be called from any thread;
///  - a job's netlist and hints are borrowed and must stay alive until the
///    job finishes (wait() or wait_all() returns, or the service dies);
///  - results are owned by the service; wait() hands out a stable reference,
///    take() moves the result out;
///  - destroying the service drains the queue (every non-cancelled job
///    still runs); cancel first to drop queued work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/threadpool.hpp"
#include "base/timer.hpp"
#include "cad/artifact.hpp"
#include "cad/flow.hpp"

namespace afpga::cad {

/// Handle to a submitted job (dense, in submission order).
using FlowJobId = std::size_t;

/// Service configuration.
struct FlowServiceOptions {
    unsigned threads = 0;  ///< pool size; 0 = base::ThreadPool::default_workers()
    /// Byte budget of the store's in-memory tier (0 = unbounded); see
    /// ArtifactStoreConfig::memory_budget_bytes.
    std::size_t artifact_memory_budget_bytes = 0;
    /// Directory of the store's on-disk tier (empty = memory only). A
    /// service restarted over the same directory warm-starts from it, and
    /// concurrent services/processes may share one; see
    /// ArtifactStoreConfig::disk_dir.
    std::string artifact_cache_dir;
    /// Disk-tier byte budget: blob directories otherwise grow without
    /// bound across service restarts. Enforced by ArtifactStore::prune_disk
    /// at service startup (oldest blobs deleted first); 0 = unbounded. See
    /// ArtifactStoreConfig::disk_budget_bytes.
    std::size_t artifact_disk_budget_bytes = 0;
    /// Maximum blob age in seconds for the startup prune (0 = no age
    /// limit); see ArtifactStoreConfig::disk_max_age_seconds.
    std::uint64_t artifact_disk_max_age_seconds = 0;
    /// Fired once per job on its terminal transition (Ok/Failed from a
    /// worker, Cancelled from cancel()), outside the service lock, from
    /// whichever thread drove the transition. Used by the socket front-end
    /// to wake its IO loop; must not call back into the service in a way
    /// that blocks (wait()/take() are fine — the job is already terminal).
    std::function<void(FlowJobId)> on_job_finished;
};

/// One design-compile request. The netlist and hints are borrowed.
struct FlowJob {
    std::string name;                               ///< label used in results/reports
    const netlist::Netlist* nl = nullptr;           ///< design (borrowed)
    const asynclib::MappingHints* hints = nullptr;  ///< optional hints (borrowed)
    core::ArchSpec arch;                            ///< per-job target architecture
    FlowOptions opts;                               ///< per-job knobs (seed, stages)
    /// Scheduling class: higher-priority queued jobs always start first.
    int priority = 0;
    /// Fairness lane (the socket front-end uses one lane per client). Among
    /// equal-priority queued jobs the scheduler round-robins lanes by
    /// least-recently-started, so one lane flooding the queue cannot starve
    /// the others.
    std::uint32_t lane = 0;
};

/// Lifecycle of a job inside the service.
enum class FlowJobStatus : std::uint8_t {
    Queued,     ///< accepted, not started
    Running,    ///< a worker is executing it
    Ok,         ///< finished, result valid
    Failed,     ///< flow threw; error holds what()
    Cancelled,  ///< cancelled while still queued; never ran
};

/// Lower-case status name, as used in report_json().
[[nodiscard]] std::string to_string(FlowJobStatus s);

/// Outcome of one job.
struct FlowJobResult {
    std::string name;                              ///< the job's label
    FlowJobStatus status = FlowJobStatus::Queued;  ///< where the job is / how it ended
    std::string error;     ///< what() of the flow's failure when Failed
    FlowResult result;     ///< valid when Ok
    double wall_ms = 0.0;  ///< flow execution time (not queue wait)
    double queue_ms = 0.0; ///< time spent waiting for a worker
    /// Global start order: 1 for the first job a worker picked up, 2 for the
    /// second, ... 0 while still queued / if cancelled before starting.
    /// Tests and the fairness-asserting server verbs read this to observe
    /// the scheduler's actual dispatch order.
    std::uint64_t start_seq = 0;

    [[nodiscard]] bool ok() const noexcept { return status == FlowJobStatus::Ok; }
};

/// The persistent flow server; see the file comment for the contract.
class FlowService {
public:
    /// Start the service: resolves the worker count, creates the shared
    /// store and spins up the pool. Warns on stderr when the pool is wider
    /// than the hardware (wall-clock scaling is then time-slicing noise).
    explicit FlowService(FlowServiceOptions opts = {});
    /// Drains every non-cancelled job, then joins the pool.
    ~FlowService();

    FlowService(const FlowService&) = delete;             ///< non-copyable
    FlowService& operator=(const FlowService&) = delete;  ///< non-copyable

    /// Enqueue one job; returns immediately with its handle.
    FlowJobId submit(FlowJob job);
    /// Enqueue a whole grid; handles are in `jobs` order.
    std::vector<FlowJobId> submit_grid(std::vector<FlowJob> jobs);

    /// Block until the job leaves the queue machinery (Ok/Failed/Cancelled).
    /// The reference stays valid for the service's lifetime — unless the
    /// job is later take()n, which hollows the slot out.
    const FlowJobResult& wait(FlowJobId id);
    /// wait(), then move the result out (used by adapters that hand results
    /// to their own callers). The slot keeps its label/status/timings/error
    /// for report_json() — which marks it `"taken": true` and omits the
    /// telemetry — and releases the borrowed netlist/arch; a second take()
    /// returns that hollow shell.
    [[nodiscard]] FlowJobResult take(FlowJobId id);
    /// Block until every job submitted BEFORE this call is finished (a
    /// snapshot — concurrent submitters cannot starve the waiter).
    void wait_all();

    /// Cancel a job that has not started. True if it was still queued (it
    /// will never run); false if it is already running or done.
    bool cancel(FlowJobId id);

    /// Non-blocking status snapshot of one job, cheap enough for a polling
    /// front-end: everything except the heavy FlowResult.
    struct JobBrief {
        FlowJobStatus status = FlowJobStatus::Queued;  ///< current lifecycle state
        std::uint64_t start_seq = 0;  ///< FlowJobResult::start_seq (0 = not started)
        double wall_ms = 0.0;         ///< flow execution time so far recorded
        double queue_ms = 0.0;        ///< queue wait (set when the job starts)
        std::string error;            ///< failure text when Failed
        bool taken = false;           ///< result already moved out via take()
    };
    /// Fetch a JobBrief without blocking (throws base::Error on a bad id).
    [[nodiscard]] JobBrief peek(FlowJobId id) const;

    /// Stop dispatching queued jobs; running jobs finish normally. Used by
    /// tests to line up a deterministic queue before releasing it, and by
    /// the bench to provoke backpressure.
    void pause();
    /// Resume dispatching (idempotent). The destructor resumes implicitly,
    /// so a paused service still drains on shutdown.
    void resume();
    /// Queued-and-not-yet-started job count.
    [[nodiscard]] std::size_t num_pending() const;

    /// Build (or fetch) the shared RR graph of `arch` now instead of inside
    /// the first job that needs it; returns it for callers that want to
    /// hand the same graph elsewhere.
    std::shared_ptr<const core::RRGraph> prewarm_rr(const core::ArchSpec& arch);

    /// The shared artifact cache (used by every job whose options do not
    /// carry a store of their own).
    [[nodiscard]] ArtifactStore& store() noexcept { return *store_; }
    /// Read-only view of the shared artifact cache.
    [[nodiscard]] const ArtifactStore& store() const noexcept { return *store_; }

    /// Resolved worker-pool size.
    [[nodiscard]] unsigned threads() const noexcept { return threads_; }
    /// Jobs submitted so far (any status).
    [[nodiscard]] std::size_t num_jobs() const;

    /// Aggregated JSON report over every job submitted so far: service
    /// configuration, hardware vs effective parallelism, job status
    /// counters, artifact-store statistics and the per-job telemetry
    /// (schema: docs/TELEMETRY.md).
    [[nodiscard]] std::string report_json() const;

private:
    struct Job {
        FlowJob spec;
        FlowJobResult result;
        FlowJobId id = 0;        ///< own index in jobs_ (for the callback)
        base::WallTimer queued;  ///< started at submit; read once at start
        bool taken = false;      ///< result moved out via take()
    };

    /// Worker ticket: pick the best pending job (priority, then per-lane
    /// fairness, then submission order) and run it; no-op when paused or
    /// nothing is pending.
    void run_one();
    void execute(Job& job);

    FlowServiceOptions opts_;
    unsigned threads_ = 0;  ///< resolved pool size
    std::shared_ptr<ArtifactStore> store_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<Job>> jobs_;  ///< id = index; slots never move
    std::vector<FlowJobId> pending_;          ///< queued ids, ascending
    bool paused_ = false;                     ///< dispatch gate (pause()/resume())
    std::uint64_t start_clock_ = 0;           ///< stamps FlowJobResult::start_seq
    /// start_clock_ value of each lane's most recent dispatch; equal-priority
    /// scheduling picks the least-recently-started lane.
    std::unordered_map<std::uint32_t, std::uint64_t> lane_last_start_;

    /// Last member: its destructor drains the queue while everything above
    /// (store, job slots) is still alive.
    base::ThreadPool pool_;
};

}  // namespace afpga::cad
