#include "cad/flow_service.hpp"

#include <cstdio>
#include <thread>
#include <utility>

#include "base/check.hpp"
#include "base/json.hpp"

namespace afpga::cad {

using base::check;

std::string to_string(FlowJobStatus s) {
    switch (s) {
        case FlowJobStatus::Queued: return "queued";
        case FlowJobStatus::Running: return "running";
        case FlowJobStatus::Ok: return "ok";
        case FlowJobStatus::Failed: return "failed";
        case FlowJobStatus::Cancelled: return "cancelled";
    }
    return "unknown";
}

FlowService::FlowService(FlowServiceOptions opts)
    : opts_(opts),
      threads_(opts.threads != 0 ? opts.threads
                                 : static_cast<unsigned>(base::ThreadPool::default_workers())),
      store_(std::make_shared<ArtifactStore>(
          ArtifactStoreConfig{opts.artifact_memory_budget_bytes, opts.artifact_cache_dir,
                              opts.artifact_disk_budget_bytes,
                              opts.artifact_disk_max_age_seconds})),
      pool_(threads_) {
    // Make oversubscription machine-detectable: a pool wider than the
    // hardware can only time-slice, so wall-clock "speedups" measured that
    // way are noise.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && threads_ > hw)
        std::fprintf(stderr,
                     "flow_service: WARNING: %u workers on %u hardware threads — "
                     "oversubscribed, wall-clock scaling numbers are unreliable\n",
                     threads_, hw);
}

FlowService::~FlowService() {
    // A paused service must still drain: re-open the dispatch gate so the
    // pool's destructor (which runs after this body) can finish the queue.
    resume();
}

FlowJobId FlowService::submit(FlowJob job) {
    check(job.nl != nullptr, "flow_service: job '" + job.name + "' has no netlist");
    job.arch.validate();
    FlowJobId id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = jobs_.size();
        jobs_.push_back(std::make_unique<Job>());
        Job* slot = jobs_.back().get();
        slot->spec = std::move(job);
        slot->result.name = slot->spec.name;
        slot->id = id;
        slot->queued.reset();
        pending_.push_back(id);
    }
    // Tickets are generic: each one runs whichever pending job the scheduler
    // ranks best at pick time, so priorities/lanes submitted later can still
    // jump ahead of this job.
    pool_.submit([this] { run_one(); });
    return id;
}

std::vector<FlowJobId> FlowService::submit_grid(std::vector<FlowJob> jobs) {
    // Validate the whole grid before enqueueing any of it: a mid-loop throw
    // would discard the handles of already-running jobs, stranding their
    // borrowed netlists.
    for (const FlowJob& j : jobs) {
        check(j.nl != nullptr, "flow_service: job '" + j.name + "' has no netlist");
        j.arch.validate();
    }
    std::vector<FlowJobId> ids;
    ids.reserve(jobs.size());
    for (FlowJob& j : jobs) ids.push_back(submit(std::move(j)));
    return ids;
}

void FlowService::run_one() {
    Job* job = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (paused_ || pending_.empty()) return;  // stale/extra ticket: no-op
        // Pick: highest priority, then the least-recently-started lane
        // (fair round-robin), then submission order. pending_ is ascending
        // by id, so keeping the first of any tie yields submission order.
        std::size_t best = 0;
        auto lane_last = [this](const Job& j) -> std::uint64_t {
            auto it = lane_last_start_.find(j.spec.lane);
            return it == lane_last_start_.end() ? 0 : it->second;
        };
        for (std::size_t i = 1; i < pending_.size(); ++i) {
            const Job& cand = *jobs_[pending_[i]];
            const Job& cur = *jobs_[pending_[best]];
            if (cand.spec.priority > cur.spec.priority ||
                (cand.spec.priority == cur.spec.priority &&
                 lane_last(cand) < lane_last(cur)))
                best = i;
        }
        job = jobs_[pending_[best]].get();
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
        job->result.status = FlowJobStatus::Running;
        job->result.queue_ms = job->queued.elapsed_ms();
        job->result.start_seq = ++start_clock_;
        lane_last_start_[job->spec.lane] = start_clock_;
    }
    execute(*job);
}

void FlowService::execute(Job& job) {
    static const asynclib::MappingHints kNoHints;
    const asynclib::MappingHints& hints = job.spec.hints ? *job.spec.hints : kNoHints;

    FlowJobStatus status = FlowJobStatus::Ok;
    std::string error;
    FlowResult fr;
    base::WallTimer t;
    try {
        // Wire the service's shared state into the job's options. Jobs that
        // brought their own store/graph keep them. This sits inside the try
        // because rr_for propagates RR-build failures — they must land in
        // the Failed path, never escape into the pool (a swallowed escape
        // would leave the job Running and wait() blocked forever).
        FlowOptions o = job.spec.opts;
        if (!o.artifact_store) o.artifact_store = store_;
        if (!o.prebuilt_rr) {
            // First flow of a new architecture builds the shared graph; give
            // that build the pool width the job's route stage would use.
            // Jobs whose graph is already memoized skip the pool entirely.
            std::unique_ptr<base::ThreadPool> rr_pool;
            if (!store_->has_rr(job.spec.arch)) rr_pool = make_route_pool(o.route);
            o.prebuilt_rr = store_->rr_for(job.spec.arch, rr_pool.get());
        }
        fr = run_flow(*job.spec.nl, hints, job.spec.arch, o);
    } catch (const std::exception& e) {
        status = FlowJobStatus::Failed;
        error = e.what();
    } catch (...) {
        // Anything non-std must still land in the Failed path: the pool
        // future is discarded, so an escape would strand the job in
        // Running and hang every waiter.
        status = FlowJobStatus::Failed;
        error = "non-standard exception";
    }
    const double wall_ms = t.elapsed_ms();

    {
        std::lock_guard<std::mutex> lock(mu_);
        job.result.status = status;
        job.result.error = std::move(error);
        job.result.result = std::move(fr);
        job.result.wall_ms = wall_ms;
    }
    cv_.notify_all();
    if (opts_.on_job_finished) opts_.on_job_finished(job.id);
}

namespace {

bool finished(FlowJobStatus s) noexcept {
    return s == FlowJobStatus::Ok || s == FlowJobStatus::Failed ||
           s == FlowJobStatus::Cancelled;
}

}  // namespace

const FlowJobResult& FlowService::wait(FlowJobId id) {
    std::unique_lock<std::mutex> lock(mu_);
    check(id < jobs_.size(), "flow_service: unknown job id");
    Job& job = *jobs_[id];
    cv_.wait(lock, [&] { return finished(job.result.status); });
    return job.result;
}

FlowJobResult FlowService::take(FlowJobId id) {
    (void)wait(id);
    std::lock_guard<std::mutex> lock(mu_);
    Job& job = *jobs_[id];
    FlowJobResult out = std::move(job.result);
    // Keep the slot honest for report_json(): label, status, timings and
    // error text survive; only the heavy FlowResult/telemetry is gone
    // (reported as "taken"). Drop the borrowed spec too — the job can
    // never run again, so the slot stops pinning netlist/arch data.
    job.result.name = out.name;
    job.result.status = out.status;
    job.result.error = out.error;
    job.result.wall_ms = out.wall_ms;
    job.result.queue_ms = out.queue_ms;
    job.result.start_seq = out.start_seq;
    job.taken = true;
    const int priority = job.spec.priority;
    const std::uint32_t lane = job.spec.lane;
    job.spec = FlowJob{};
    job.spec.priority = priority;
    job.spec.lane = lane;
    return out;
}

void FlowService::wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    // Snapshot: wait only for jobs that existed when the call began, so a
    // producer thread that keeps submitting cannot starve this waiter.
    const std::size_t upto = jobs_.size();
    cv_.wait(lock, [&] {
        for (std::size_t i = 0; i < upto; ++i)
            if (!finished(jobs_[i]->result.status)) return false;
        return true;
    });
}

bool FlowService::cancel(FlowJobId id) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        check(id < jobs_.size(), "flow_service: unknown job id");
        Job& job = *jobs_[id];
        if (job.result.status != FlowJobStatus::Queued) return false;
        job.result.status = FlowJobStatus::Cancelled;
        // Drop it from the pending list so the next worker ticket skips it;
        // the ticket submitted for it becomes a harmless no-op.
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            if (pending_[i] == id) {
                pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
    }
    cv_.notify_all();
    if (opts_.on_job_finished) opts_.on_job_finished(id);
    return true;
}

FlowService::JobBrief FlowService::peek(FlowJobId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    check(id < jobs_.size(), "flow_service: unknown job id");
    const Job& job = *jobs_[id];
    JobBrief b;
    b.status = job.result.status;
    b.start_seq = job.result.start_seq;
    b.wall_ms = job.result.wall_ms;
    b.queue_ms = job.result.queue_ms;
    b.error = job.result.error;
    b.taken = job.taken;
    return b;
}

void FlowService::pause() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
}

void FlowService::resume() {
    std::size_t backlog = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!paused_) return;
        paused_ = false;
        backlog = pending_.size();
    }
    // Tickets consumed as no-ops while paused must be re-issued, one per
    // pending job; any surplus (a pre-pause ticket still in flight) just
    // no-ops against an empty pending list.
    for (std::size_t i = 0; i < backlog; ++i) pool_.submit([this] { run_one(); });
}

std::size_t FlowService::num_pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
}

std::shared_ptr<const core::RRGraph> FlowService::prewarm_rr(const core::ArchSpec& arch) {
    return store_->rr_for(arch);
}

std::size_t FlowService::num_jobs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_.size();
}

std::string FlowService::report_json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t pending = 0;
    for (const auto& j : jobs_) {
        switch (j->result.status) {
            case FlowJobStatus::Ok: ++ok; break;
            case FlowJobStatus::Failed: ++failed; break;
            case FlowJobStatus::Cancelled: ++cancelled; break;
            default: ++pending; break;
        }
    }

    base::JsonWriter w;
    w.begin_object();
    w.key("threads").value(std::uint64_t{threads_});
    w.key("hardware_concurrency")
        .value(std::uint64_t{std::thread::hardware_concurrency()});
    w.key("artifact_cache_dir").value(opts_.artifact_cache_dir);
    w.key("jobs_total").value(std::uint64_t{jobs_.size()});
    w.key("jobs_ok").value(std::uint64_t{ok});
    w.key("jobs_failed").value(std::uint64_t{failed});
    w.key("jobs_cancelled").value(std::uint64_t{cancelled});
    w.key("jobs_pending").value(std::uint64_t{pending});
    const ArtifactStoreStats st = store_->stats();
    w.key("artifacts").begin_object();
    w.key("entries").value(std::uint64_t{st.num_artifacts});
    w.key("rr_graphs").value(std::uint64_t{st.num_rr_graphs});
    w.key("hits").value(st.hits);
    w.key("disk_hits").value(st.disk_hits);
    w.key("misses").value(st.misses);
    w.key("evictions").value(st.evictions);
    w.key("collisions").value(st.collisions);
    w.key("resident_bytes").value(std::uint64_t{st.resident_bytes});
    w.key("memory_budget_bytes").value(std::uint64_t{st.memory_budget_bytes});
    w.key("disk_writes").value(st.disk_writes);
    w.key("disk_write_failures").value(st.disk_write_failures);
    w.key("disk_bad_blobs").value(st.disk_bad_blobs);
    w.key("disk_pruned").value(st.disk_pruned);
    w.key("rr_hits").value(st.rr_hits);
    w.key("rr_misses").value(st.rr_misses);
    w.end_object();
    w.key("jobs").begin_array();
    for (const auto& j : jobs_) {
        const FlowJobResult& r = j->result;
        w.begin_object();
        w.key("name").value(r.name);
        w.key("status").value(to_string(r.status));
        w.key("wall_ms").value(r.wall_ms);
        w.key("queue_ms").value(r.queue_ms);
        w.key("priority").value(std::int64_t{j->spec.priority});
        w.key("lane").value(std::uint64_t{j->spec.lane});
        w.key("start_seq").value(r.start_seq);
        if (j->taken) {
            w.key("taken").value(true);  // result moved out; no telemetry left
        } else if (r.status == FlowJobStatus::Ok) {
            w.key("telemetry").raw(r.result.telemetry.to_json());
        }
        if (r.status == FlowJobStatus::Failed) w.key("error").value(r.error);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace afpga::cad
