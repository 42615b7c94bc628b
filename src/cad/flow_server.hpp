/// \file
/// FlowServer: the compile-as-a-service socket front-end over FlowService.
///
/// The server owns a FlowService and speaks the cad/wire protocol to any
/// number of clients over TCP and/or Unix-domain sockets. One IO thread
/// multiplexes every connection with poll(); flow execution stays on the
/// service's worker pool, and a self-pipe woken from the service's
/// on_job_finished callback bridges completions back into the IO loop.
///
/// Service guarantees:
///  - each connection is assigned a FlowService fairness lane at Hello, so
///    one client flooding the queue cannot starve the others;
///  - bounded queue: past `max_pending` queued jobs, submits get a Busy
///    frame with a retry hint instead of being buffered unboundedly;
///  - bounded memory per connection: result streaming pauses while a slow
///    reader's outbound backlog exceeds `max_conn_outbound_bytes` and
///    resumes as the socket drains — the server never buffers more than
///    cap + one frame per connection;
///  - client disconnect cancels that client's queued jobs; its running jobs
///    finish (their decoded netlists are server-owned) and are retired;
///  - graceful drain (state machine in docs/ARCHITECTURE.md): Serving →
///    Draining (new submits refused with ErrCode::Draining, queued and
///    running jobs finish, waits keep streaming) → Drained (every accepted
///    job terminal and every claimed result fully flushed) → Stopped.
///
/// Determinism: the wire layer transports jobs and results byte-exactly, so
/// a remote compile's result blob is bit-identical to the in-process
/// ArtifactCodec<BitstreamArtifact> encoding of the same flow — the bench
/// and CI gate on this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cad/flow_service.hpp"
#include "cad/wire.hpp"

namespace afpga::cad {

/// FlowServer configuration.
struct FlowServerOptions {
    /// Options for the owned FlowService (worker count, artifact cache, ...).
    /// `on_job_finished` is overwritten by the server — it needs the hook.
    FlowServiceOptions service;
    /// Unix-domain socket path (empty = no Unix listener). An existing
    /// file at the path is unlinked first.
    std::string unix_path;
    /// Also listen on TCP.
    bool tcp = false;
    /// TCP bind address.
    std::string tcp_host = "127.0.0.1";
    /// TCP port; 0 = ephemeral (read the outcome from tcp_port()).
    std::uint16_t tcp_port = 0;
    /// Queued-job bound: submits past this depth get a Busy frame.
    std::uint32_t max_pending = 64;
    /// Backoff hint carried in Busy frames.
    std::uint32_t retry_after_ms = 50;
    /// Per-connection outbound backlog cap: result streaming pauses above
    /// it and resumes as the socket drains.
    std::size_t max_conn_outbound_bytes = 1u << 20;
};

/// Monotonic counters, readable from any thread via FlowServer::stats().
struct FlowServerStats {
    std::uint64_t connections_accepted = 0;  ///< sockets accepted
    std::uint64_t connections_dropped = 0;   ///< closed (EOF, error, poison)
    std::uint64_t submits_accepted = 0;      ///< SubmitOk frames sent
    std::uint64_t submits_rejected_busy = 0;      ///< Busy frames sent
    std::uint64_t submits_rejected_draining = 0;  ///< Draining errors sent
    std::uint64_t results_streamed = 0;      ///< complete result streams
    std::uint64_t cancels = 0;               ///< cancel requests honoured
    std::uint64_t protocol_errors = 0;       ///< malformed frames / bad verbs
    std::uint64_t jobs_cancelled_on_disconnect = 0;  ///< queue drops at EOF
    std::uint64_t max_queue_depth_observed = 0;      ///< peak pending depth
    std::uint64_t max_outbound_bytes_observed = 0;   ///< peak per-conn backlog
};

/// The socket front-end; see the file comment for the contract.
class FlowServer {
public:
    /// Creates the service and binds the listeners; start() begins serving.
    explicit FlowServer(FlowServerOptions opts);
    /// stop()s if still running.
    ~FlowServer();

    FlowServer(const FlowServer&) = delete;             ///< non-copyable
    FlowServer& operator=(const FlowServer&) = delete;  ///< non-copyable

    /// Spin up the IO thread. Listeners are already bound (constructor), so
    /// a client may connect the moment this returns.
    void start();
    /// Close every connection and listener and join the IO thread. Jobs
    /// already inside the FlowService still drain when the server (and with
    /// it the service) is destroyed.
    void stop();

    /// Enter the Draining state (idempotent; also reachable via the wire
    /// Drain verb): new submits are refused, everything accepted finishes.
    void drain();
    /// Block until Drained: every accepted job terminal and every claimed
    /// result stream fully flushed. Call drain() first (or rely on a
    /// client's Drain verb).
    void wait_drained();
    /// Non-blocking drain probe (true once the Drained state is reached);
    /// the daemon polls this so a signal can still interrupt its wait.
    [[nodiscard]] bool is_drained();

    /// Bound TCP port (after construction; useful with tcp_port = 0).
    [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }
    /// Bound Unix-socket path (empty when no Unix listener).
    [[nodiscard]] const std::string& unix_path() const noexcept { return opts_.unix_path; }

    /// The owned FlowService (tests pause()/resume() it to shape queues).
    [[nodiscard]] FlowService& service() noexcept { return *svc_; }

    /// Snapshot of the monotonic counters.
    [[nodiscard]] FlowServerStats stats() const;

private:
    struct Conn;
    struct JobCtx;

    void io_loop();
    void handle_readable(Conn& c);
    void handle_frame(Conn& c, const wire::Frame& f);
    void handle_submit(Conn& c, const wire::Frame& f);
    void flush_conn(Conn& c);
    template <typename M>
    void send_frame(Conn& c, const M& m);
    void send_error(Conn& c, wire::ErrCode code, const std::string& msg);
    void poison(Conn& c, const std::string& why);
    void drop_conn(std::size_t idx);
    void on_finished_ids();
    void begin_stream(JobCtx& jc);
    void pump_stream(JobCtx& jc);
    void retire(FlowJobId id);
    void update_drained();

    FlowServerOptions opts_;
    std::unique_ptr<FlowService> svc_;

    int unix_listen_fd_ = -1;
    int tcp_listen_fd_ = -1;
    std::uint16_t tcp_port_ = 0;
    int wake_pipe_[2] = {-1, -1};  ///< [0] read end (polled), [1] written by callbacks

    std::thread io_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> draining_{false};

    /// Completion hand-off: workers push ids, the IO thread drains them.
    std::mutex finished_mu_;
    std::deque<FlowJobId> finished_;

    /// IO-thread-only state.
    std::vector<std::unique_ptr<Conn>> conns_;
    std::unordered_map<FlowJobId, std::unique_ptr<JobCtx>> jobs_;
    std::uint32_t next_lane_ = 1;

    mutable std::mutex stats_mu_;
    FlowServerStats stats_;

    std::mutex drained_mu_;
    std::condition_variable drained_cv_;
    bool drained_ = false;
};

}  // namespace afpga::cad
