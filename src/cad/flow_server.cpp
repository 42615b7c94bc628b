#include "cad/flow_server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cstring>
#include <utility>

#include "base/check.hpp"
#include "cad/serialize.hpp"

namespace afpga::cad {

using base::check;

/// One client connection (IO-thread-only).
struct FlowServer::Conn {
    int fd = -1;                      ///< nonblocking socket
    wire::FrameDecoder dec;           ///< inbound reassembly
    std::vector<std::uint8_t> out;    ///< outbound bytes not yet written
    std::size_t out_pos = 0;          ///< written prefix of out
    bool hello_done = false;          ///< Hello/HelloOk exchanged
    bool dead = false;                ///< close at end of loop iteration
    std::uint32_t lane = 0;           ///< FlowService fairness lane
    std::string client_name;          ///< label from Hello

    [[nodiscard]] std::size_t backlog() const noexcept { return out.size() - out_pos; }
};

/// Server-side state of one wire-submitted job (IO-thread-only). The server
/// owns the decoded netlist/hints because FlowService borrows them: they
/// must outlive the job even if the submitting client disconnects.
struct FlowServer::JobCtx {
    FlowJobId id = 0;
    std::unique_ptr<netlist::Netlist> nl;
    std::unique_ptr<asynclib::MappingHints> hints;
    Conn* owner = nullptr;   ///< submitter; nulled on disconnect
    Conn* waiter = nullptr;  ///< conn whose Wait claimed the result
    bool streaming = false;  ///< ResultBegin sent, chunks in flight
    std::vector<std::uint8_t> blob;  ///< encoded result being streamed
    std::size_t blob_off = 0;        ///< next chunk offset
    std::uint64_t checksum = 0;      ///< fnv1a64 over blob
};

namespace {

void set_nonblocking(int fd) {
    const int flags = fcntl(fd, F_GETFL, 0);
    check(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
          "flow_server: fcntl(O_NONBLOCK) failed");
}

void close_fd(int& fd) {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

}  // namespace

FlowServer::FlowServer(FlowServerOptions opts) : opts_(std::move(opts)) {
    check(!opts_.unix_path.empty() || opts_.tcp,
          "flow_server: no listener configured (set unix_path and/or tcp)");

    // The self-pipe bridges worker-thread completions into the poll loop.
    check(::pipe(wake_pipe_) == 0, "flow_server: pipe() failed");
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);

    FlowServiceOptions so = opts_.service;
    so.on_job_finished = [this](FlowJobId id) {
        {
            std::lock_guard<std::mutex> lock(finished_mu_);
            finished_.push_back(id);
        }
        const char b = 1;
        // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
        (void)!::write(wake_pipe_[1], &b, 1);
    };
    svc_ = std::make_unique<FlowService>(so);

    if (!opts_.unix_path.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        check(opts_.unix_path.size() < sizeof(addr.sun_path),
              "flow_server: unix socket path too long");
        std::memcpy(addr.sun_path, opts_.unix_path.c_str(), opts_.unix_path.size() + 1);
        ::unlink(opts_.unix_path.c_str());
        unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        check(unix_listen_fd_ >= 0, "flow_server: socket(AF_UNIX) failed");
        check(::bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
              "flow_server: bind(" + opts_.unix_path + ") failed");
        check(::listen(unix_listen_fd_, 64) == 0, "flow_server: listen(unix) failed");
        set_nonblocking(unix_listen_fd_);
    }
    if (opts_.tcp) {
        tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        check(tcp_listen_fd_ >= 0, "flow_server: socket(AF_INET) failed");
        const int one = 1;
        ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(opts_.tcp_port);
        check(::inet_pton(AF_INET, opts_.tcp_host.c_str(), &addr.sin_addr) == 1,
              "flow_server: bad tcp_host " + opts_.tcp_host);
        check(::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
              "flow_server: bind(tcp) failed");
        check(::listen(tcp_listen_fd_, 64) == 0, "flow_server: listen(tcp) failed");
        set_nonblocking(tcp_listen_fd_);
        sockaddr_in bound{};
        socklen_t blen = sizeof(bound);
        check(::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) == 0,
              "flow_server: getsockname failed");
        tcp_port_ = ntohs(bound.sin_port);
    }
}

FlowServer::~FlowServer() {
    stop();
    // Destroy the service BEFORE the wake pipe: draining jobs still fire
    // on_job_finished, which must write into a live (never a recycled) fd.
    svc_.reset();
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
}

void FlowServer::start() {
    check(!running_.exchange(true), "flow_server: already started");
    stop_requested_ = false;
    io_ = std::thread([this] { io_loop(); });
}

void FlowServer::stop() {
    if (!running_.load()) return;
    stop_requested_ = true;
    const char b = 1;
    (void)!::write(wake_pipe_[1], &b, 1);
    if (io_.joinable()) io_.join();
    running_ = false;
    // The IO thread has exited: its fds are safe to close from here.
    for (auto& c : conns_) close_fd(c->fd);
    conns_.clear();
    jobs_.clear();
    close_fd(unix_listen_fd_);
    close_fd(tcp_listen_fd_);
}

void FlowServer::drain() {
    draining_ = true;
    const char b = 1;
    (void)!::write(wake_pipe_[1], &b, 1);
}

void FlowServer::wait_drained() {
    std::unique_lock<std::mutex> lock(drained_mu_);
    drained_cv_.wait(lock, [&] { return drained_; });
}

bool FlowServer::is_drained() {
    std::lock_guard<std::mutex> lock(drained_mu_);
    return drained_;
}

FlowServerStats FlowServer::stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

void FlowServer::io_loop() {
    std::vector<pollfd> pfds;
    std::vector<int> kind;  // 0 = pipe, 1 = unix listener, 2 = tcp listener, 3+i = conn i
    while (!stop_requested_.load()) {
        pfds.clear();
        kind.clear();
        pfds.push_back({wake_pipe_[0], POLLIN, 0});
        kind.push_back(0);
        if (unix_listen_fd_ >= 0) {
            pfds.push_back({unix_listen_fd_, POLLIN, 0});
            kind.push_back(1);
        }
        if (tcp_listen_fd_ >= 0) {
            pfds.push_back({tcp_listen_fd_, POLLIN, 0});
            kind.push_back(2);
        }
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            short ev = POLLIN;
            if (conns_[i]->backlog() > 0) ev |= POLLOUT;
            pfds.push_back({conns_[i]->fd, ev, 0});
            kind.push_back(3 + static_cast<int>(i));
        }

        const int rc = ::poll(pfds.data(), pfds.size(), 500);
        if (rc < 0 && errno != EINTR) break;

        for (std::size_t p = 0; p < pfds.size(); ++p) {
            if (pfds[p].revents == 0) continue;
            if (kind[p] == 0) {
                char buf[256];
                while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {}
            } else if (kind[p] == 1 || kind[p] == 2) {
                const int lfd = kind[p] == 1 ? unix_listen_fd_ : tcp_listen_fd_;
                for (;;) {
                    const int cfd = ::accept(lfd, nullptr, nullptr);
                    if (cfd < 0) break;
                    set_nonblocking(cfd);
                    auto c = std::make_unique<Conn>();
                    c->fd = cfd;
                    conns_.push_back(std::move(c));
                    std::lock_guard<std::mutex> lock(stats_mu_);
                    ++stats_.connections_accepted;
                }
            } else {
                Conn& c = *conns_[static_cast<std::size_t>(kind[p] - 3)];
                if (c.dead) continue;
                if (pfds[p].revents & (POLLERR | POLLHUP | POLLNVAL)) c.dead = true;
                if (!c.dead && (pfds[p].revents & POLLOUT)) flush_conn(c);
                if (!c.dead && (pfds[p].revents & POLLIN)) handle_readable(c);
            }
        }

        // Completions bridged from the worker pool.
        on_finished_ids();

        // Resume any stream whose reader drained below the backlog cap.
        // Collect ids first: pump_stream erases its entry on completion,
        // which would invalidate a live iterator.
        std::vector<FlowJobId> pump;
        for (auto& [id, jc] : jobs_) {
            if (jc->streaming && jc->waiter && !jc->waiter->dead &&
                jc->blob_off < jc->blob.size())
                pump.push_back(id);
        }
        for (const FlowJobId id : pump) {
            const auto it = jobs_.find(id);
            if (it != jobs_.end()) pump_stream(*it->second);
        }
        // Streams whose reader vanished mid-flight keep their ctx but can
        // never complete; sweep them.
        for (auto it = jobs_.begin(); it != jobs_.end();) {
            JobCtx& jc = *it->second;
            if (jc.streaming && !jc.waiter) {
                // Claimed but the reader vanished mid-stream: drop the blob.
                it = jobs_.erase(it);
            } else {
                ++it;
            }
        }

        // Close connections that died this iteration.
        for (std::size_t i = 0; i < conns_.size();) {
            if (conns_[i]->dead)
                drop_conn(i);
            else
                ++i;
        }

        if (draining_.load()) update_drained();
    }
}

template <typename M>
void FlowServer::send_frame(Conn& c, const M& m) {
    if (c.dead) return;
    const std::vector<std::uint8_t> frame = wire::encode(m);
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (c.backlog() > stats_.max_outbound_bytes_observed)
            stats_.max_outbound_bytes_observed = c.backlog();
    }
    flush_conn(c);
}

void FlowServer::handle_readable(Conn& c) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n == 0) {
            c.dead = true;
            return;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            c.dead = true;
            return;
        }
        c.dec.feed(buf, static_cast<std::size_t>(n));
    }
    try {
        while (auto f = c.dec.next()) handle_frame(c, *f);
    } catch (const base::Error& e) {
        poison(c, e.what());
    }
}

void FlowServer::handle_frame(Conn& c, const wire::Frame& f) {
    using wire::MsgType;
    if (!c.hello_done) {
        if (f.type != MsgType::Hello) {
            poison(c, "first frame must be hello");
            return;
        }
        const auto m = wire::decode<wire::HelloMsg>(f);
        if (m.protocol != wire::kProtocolVersion) {
            poison(c, "protocol version mismatch");
            return;
        }
        c.client_name = m.client_name;
        c.lane = next_lane_++;
        c.hello_done = true;
        send_frame(c, wire::HelloOkMsg{.lane = c.lane,
                                       .max_pending = opts_.max_pending,
                                       .threads = svc_->threads()});
        return;
    }
    switch (f.type) {
        case MsgType::Submit: handle_submit(c, f); return;
        case MsgType::Status: {
            const auto m = wire::decode<wire::StatusMsg>(f);
            if (m.job_id >= svc_->num_jobs()) {
                send_error(c, wire::ErrCode::UnknownJob, "no such job");
                return;
            }
            const FlowService::JobBrief b = svc_->peek(m.job_id);
            send_frame(c, wire::StatusReplyMsg{.job_id = m.job_id,
                                               .status = static_cast<std::uint8_t>(b.status),
                                               .start_seq = b.start_seq,
                                               .wall_ms = b.wall_ms,
                                               .queue_ms = b.queue_ms,
                                               .error = b.error});
            return;
        }
        case MsgType::Wait: {
            const auto m = wire::decode<wire::WaitMsg>(f);
            const auto it = jobs_.find(m.job_id);
            if (it == jobs_.end()) {
                send_error(c, wire::ErrCode::UnknownJob,
                           "no such job (or its result was already streamed)");
                return;
            }
            JobCtx& jc = *it->second;
            if (jc.waiter != nullptr) {
                send_error(c, wire::ErrCode::BadRequest, "result already claimed");
                return;
            }
            jc.waiter = &c;
            const FlowService::JobBrief b = svc_->peek(m.job_id);
            if (b.status == FlowJobStatus::Ok || b.status == FlowJobStatus::Failed ||
                b.status == FlowJobStatus::Cancelled)
                begin_stream(jc);
            return;
        }
        case MsgType::Cancel: {
            const auto m = wire::decode<wire::CancelMsg>(f);
            if (m.job_id >= svc_->num_jobs()) {
                send_error(c, wire::ErrCode::UnknownJob, "no such job");
                return;
            }
            const bool cancelled = svc_->cancel(m.job_id);
            if (cancelled) {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.cancels;
            }
            send_frame(c, wire::CancelReplyMsg{.job_id = m.job_id, .cancelled = cancelled});
            return;
        }
        case MsgType::Report: {
            (void)wire::decode<wire::ReportMsg>(f);
            send_frame(c, wire::ReportReplyMsg{.json = svc_->report_json()});
            return;
        }
        case MsgType::Drain: {
            (void)wire::decode<wire::DrainMsg>(f);
            draining_ = true;
            send_frame(c, wire::DrainOkMsg{.jobs_total = svc_->num_jobs()});
            return;
        }
        default:
            // Server-to-client message types arriving at the server are a
            // protocol violation, exactly like unknown bytes.
            poison(c, "unexpected message type " + wire::to_string(f.type));
            return;
    }
}

void FlowServer::handle_submit(Conn& c, const wire::Frame& f) {
    // Stats are bumped BEFORE the reply frame goes out so a client that has
    // observed the reply is guaranteed to see the counter (tests rely on it).
    if (draining_.load()) {
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.submits_rejected_draining;
        }
        send_error(c, wire::ErrCode::Draining, "server is draining");
        return;
    }
    const std::size_t depth = svc_->num_pending();
    if (depth >= opts_.max_pending) {
        wire::BusyMsg busy;
        busy.queue_depth = static_cast<std::uint32_t>(depth);
        busy.limit = opts_.max_pending;
        busy.retry_after_ms = opts_.retry_after_ms;
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.submits_rejected_busy;
        }
        send_frame(c, busy);
        return;
    }
    // decode throws on malformed payloads — the caller's catch poisons the
    // connection.
    auto m = wire::decode<wire::SubmitMsg>(f);
    auto jc = std::make_unique<JobCtx>();
    jc->nl = std::make_unique<netlist::Netlist>(std::move(m.nl));
    jc->hints = std::make_unique<asynclib::MappingHints>(std::move(m.hints));
    jc->owner = &c;
    FlowJob job;
    job.name = std::move(m.name);
    job.nl = jc->nl.get();
    job.hints = jc->hints.get();
    job.arch = m.arch;
    job.opts = std::move(m.opts);
    job.priority = m.priority;
    job.lane = c.lane;
    const FlowJobId id = svc_->submit(std::move(job));
    jc->id = id;
    jobs_.emplace(id, std::move(jc));
    const std::size_t now_pending = svc_->num_pending();
    wire::SubmitOkMsg ok;
    ok.job_id = id;
    ok.queue_depth = static_cast<std::uint32_t>(now_pending);
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.submits_accepted;
        if (now_pending > stats_.max_queue_depth_observed)
            stats_.max_queue_depth_observed = now_pending;
    }
    send_frame(c, ok);
}

void FlowServer::send_error(Conn& c, wire::ErrCode code, const std::string& msg) {
    send_frame(c, wire::ErrorMsg{.code = static_cast<std::uint32_t>(code), .message = msg});
}

void FlowServer::poison(Conn& c, const std::string& why) {
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
    }
    send_error(c, wire::ErrCode::BadRequest, why);
    c.dead = true;  // best-effort error frame, then the connection dies
}

void FlowServer::flush_conn(Conn& c) {
    while (c.out_pos < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            c.dead = true;
            return;
        }
        c.out_pos += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
}

void FlowServer::drop_conn(std::size_t idx) {
    Conn* c = conns_[idx].get();
    // Cancel the dead client's queued jobs; running ones finish as orphans
    // (the server owns their netlists) and are retired on completion.
    for (auto& [id, jc] : jobs_) {
        if (jc->owner == c) {
            if (svc_->peek(id).status == FlowJobStatus::Queued && svc_->cancel(id)) {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.jobs_cancelled_on_disconnect;
            }
            jc->owner = nullptr;
        }
        if (jc->waiter == c) jc->waiter = nullptr;
    }
    // Retire orphaned jobs that are already terminal and unclaimed.
    std::vector<FlowJobId> done;
    for (auto& [id, jc] : jobs_) {
        if (!jc->owner && !jc->waiter) {
            const FlowJobStatus s = svc_->peek(id).status;
            if (s == FlowJobStatus::Ok || s == FlowJobStatus::Failed ||
                s == FlowJobStatus::Cancelled)
                done.push_back(id);
        }
    }
    for (FlowJobId id : done) retire(id);
    close_fd(c->fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(idx));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_dropped;
}

void FlowServer::on_finished_ids() {
    std::deque<FlowJobId> ids;
    {
        std::lock_guard<std::mutex> lock(finished_mu_);
        ids.swap(finished_);
    }
    for (const FlowJobId id : ids) {
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) continue;  // already retired
        JobCtx& jc = *it->second;
        if (jc.waiter && !jc.streaming) {
            begin_stream(jc);  // a Wait was parked on this job
        } else if (!jc.owner && !jc.waiter) {
            retire(id);  // orphan finished: free the result and netlist
        }
        // Otherwise the owner is still connected but has not claimed the
        // result; keep it for a later Wait/Status.
    }
}

void FlowServer::begin_stream(JobCtx& jc) {
    Conn& c = *jc.waiter;
    const FlowService::JobBrief b = svc_->peek(jc.id);
    // take() frees the service-side slot; the blob below is the only copy
    // the server keeps, and it is dropped as soon as the stream completes.
    FlowJobResult res = svc_->take(jc.id);
    wire::ResultBeginMsg begin;
    begin.job_id = jc.id;
    begin.status = static_cast<std::uint8_t>(b.status);
    begin.error = b.error;
    begin.wall_ms = b.wall_ms;
    begin.queue_ms = b.queue_ms;
    begin.start_seq = b.start_seq;
    if (res.ok()) {
        begin.telemetry_json = res.result.telemetry.to_json();
        jc.blob = ArtifactCodec<BitstreamArtifact>::encode_blob(
            BitstreamArtifact{*res.result.bits, res.result.pad_names});
    }
    begin.result_bytes = jc.blob.size();
    jc.checksum = wire::fnv1a64(jc.blob.data(), jc.blob.size());
    jc.streaming = true;
    send_frame(c, begin);
    pump_stream(jc);
}

void FlowServer::pump_stream(JobCtx& jc) {
    Conn& c = *jc.waiter;
    while (jc.blob_off < jc.blob.size()) {
        if (c.backlog() >= opts_.max_conn_outbound_bytes) return;  // slow reader
        const std::size_t n =
            std::min(wire::kResultChunkBytes, jc.blob.size() - jc.blob_off);
        wire::ResultChunkMsg chunk;
        chunk.job_id = jc.id;
        chunk.offset = jc.blob_off;
        chunk.bytes.assign(jc.blob.begin() + static_cast<std::ptrdiff_t>(jc.blob_off),
                           jc.blob.begin() + static_cast<std::ptrdiff_t>(jc.blob_off + n));
        send_frame(c, chunk);
        jc.blob_off += n;
    }
    send_frame(c, wire::ResultEndMsg{.job_id = jc.id, .checksum = jc.checksum});
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.results_streamed;
    }
    jobs_.erase(jc.id);  // jc is dangling from here on
}

void FlowServer::retire(FlowJobId id) {
    (void)svc_->take(id);  // job is terminal: frees the heavy result
    jobs_.erase(id);
}

void FlowServer::update_drained() {
    // Drained = every accepted job terminal, every claimed stream finished
    // (complete streams erase their JobCtx), and every outbound buffer
    // flushed to its socket.
    if (svc_->num_pending() != 0) return;
    for (const auto& [id, jc] : jobs_) {
        const FlowJobStatus s = svc_->peek(id).status;
        if (s == FlowJobStatus::Queued || s == FlowJobStatus::Running) return;
        if (jc->streaming) return;  // mid-stream
    }
    for (const auto& c : conns_)
        if (c->backlog() > 0) return;
    {
        std::lock_guard<std::mutex> lock(drained_mu_);
        drained_ = true;
    }
    drained_cv_.notify_all();
}

}  // namespace afpga::cad
