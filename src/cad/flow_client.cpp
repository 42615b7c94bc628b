#include "cad/flow_client.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "base/check.hpp"
#include "cad/serialize.hpp"

namespace afpga::cad {

using base::check;

template <typename Reply, typename Request>
Reply FlowClient::call(const Request& req) {
    write_all(wire::encode(req));
    return wire::decode<Reply>(read_frame());
}

BitstreamArtifact RemoteFlowResult::decode_bitstream() const {
    check(ok(), "remote result '" + name + "' is not ok: " + error);
    return ArtifactCodec<BitstreamArtifact>::decode_blob(result_blob);
}

FlowClient FlowClient::connect_unix(const std::string& path, const std::string& client_name) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    check(path.size() < sizeof(addr.sun_path), "flow_client: unix socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    check(fd >= 0, "flow_client: socket(AF_UNIX) failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        base::fail("flow_client: connect(" + path + ") failed: " + std::strerror(errno));
    }
    return FlowClient(fd, client_name);
}

FlowClient FlowClient::connect_tcp(const std::string& host, std::uint16_t port,
                                   const std::string& client_name) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    check(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
          "flow_client: bad host " + host);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd >= 0, "flow_client: socket(AF_INET) failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        base::fail("flow_client: connect(" + host + ":" + std::to_string(port) +
                   ") failed: " + std::strerror(errno));
    }
    return FlowClient(fd, client_name);
}

FlowClient::FlowClient(int fd, const std::string& client_name) : fd_(fd) {
    wire::HelloMsg hello;
    hello.client_name = client_name;
    hello_ = call<wire::HelloOkMsg>(hello);
    if (hello_.max_pending != 0) last_busy_retry_ms_ = 50;
}

FlowClient::~FlowClient() { close(); }

FlowClient::FlowClient(FlowClient&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      dec_(std::move(o.dec_)),
      hello_(o.hello_),
      last_busy_retry_ms_(o.last_busy_retry_ms_) {}

FlowClient& FlowClient::operator=(FlowClient&& o) noexcept {
    if (this != &o) {
        close();
        fd_ = std::exchange(o.fd_, -1);
        dec_ = std::move(o.dec_);
        hello_ = o.hello_;
        last_busy_retry_ms_ = o.last_busy_retry_ms_;
    }
    return *this;
}

void FlowClient::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void FlowClient::write_all(const std::vector<std::uint8_t>& bytes) {
    check(fd_ >= 0, "flow_client: connection is closed");
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            base::fail(std::string("flow_client: send failed: ") + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
}

wire::Frame FlowClient::read_frame() {
    check(fd_ >= 0, "flow_client: connection is closed");
    for (;;) {
        if (auto f = dec_.next()) {
            if (f->type == wire::MsgType::Error) {
                const wire::ErrorMsg e = wire::decode<wire::ErrorMsg>(*f);
                base::fail("flow_client: server error " + std::to_string(e.code) + ": " +
                           e.message);
            }
            return *std::move(f);
        }
        std::uint8_t buf[64 * 1024];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            base::fail(std::string("flow_client: recv failed: ") + std::strerror(errno));
        }
        check(n != 0, "flow_client: server closed the connection");
        dec_.feed(buf, static_cast<std::size_t>(n));
    }
}

std::optional<std::uint64_t> FlowClient::try_submit(const RemoteJobSpec& job) {
    check(job.nl != nullptr, "flow_client: job '" + job.name + "' has no netlist");
    wire::SubmitMsg m;
    m.name = job.name;
    m.priority = job.priority;
    m.nl = *job.nl;
    if (job.hints) m.hints = *job.hints;
    m.arch = job.arch;
    m.opts = job.opts;
    // The shared-state pointers are process-local and never travel.
    m.opts.prebuilt_rr = nullptr;
    m.opts.artifact_store = nullptr;
    write_all(wire::encode(m));
    const wire::Frame f = read_frame();
    if (f.type == wire::MsgType::Busy) {
        const wire::BusyMsg busy = wire::decode<wire::BusyMsg>(f);
        if (busy.retry_after_ms > 0) last_busy_retry_ms_ = busy.retry_after_ms;
        return std::nullopt;
    }
    return wire::decode<wire::SubmitOkMsg>(f).job_id;
}

std::uint64_t FlowClient::submit(const RemoteJobSpec& job) {
    for (;;) {
        if (const auto id = try_submit(job)) return *id;
        std::this_thread::sleep_for(std::chrono::milliseconds(last_busy_retry_ms_));
    }
}

wire::StatusReplyMsg FlowClient::status(std::uint64_t job_id) {
    return call<wire::StatusReplyMsg>(wire::StatusMsg{job_id});
}

bool FlowClient::cancel(std::uint64_t job_id) {
    return call<wire::CancelReplyMsg>(wire::CancelMsg{job_id}).cancelled;
}

RemoteFlowResult FlowClient::wait(std::uint64_t job_id, std::string name) {
    const auto begin = call<wire::ResultBeginMsg>(wire::WaitMsg{job_id});
    check(begin.job_id == job_id, "flow_client: result stream for the wrong job");

    RemoteFlowResult res;
    res.name = std::move(name);
    res.status = static_cast<FlowJobStatus>(begin.status);
    res.error = begin.error;
    res.wall_ms = begin.wall_ms;
    res.queue_ms = begin.queue_ms;
    res.start_seq = begin.start_seq;
    res.telemetry_json = begin.telemetry_json;
    // The announced size is the peer's word, not bytes on hand: reserve at
    // most one chunk up front and let the blob grow as chunks arrive.
    res.result_blob.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(begin.result_bytes, wire::kResultChunkBytes)));

    for (;;) {
        const wire::Frame f = read_frame();
        if (f.type != wire::MsgType::ResultChunk) {
            const auto end = wire::decode<wire::ResultEndMsg>(f);
            check(end.job_id == job_id, "flow_client: result end for the wrong job");
            check(res.result_blob.size() == begin.result_bytes,
                  "flow_client: result stream truncated");
            check(end.checksum == wire::fnv1a64(res.result_blob.data(), res.result_blob.size()),
                  "flow_client: result stream checksum mismatch");
            return res;
        }
        const auto chunk = wire::decode<wire::ResultChunkMsg>(f);
        check(chunk.job_id == job_id, "flow_client: chunk for the wrong job");
        check(chunk.offset == res.result_blob.size(), "flow_client: result chunk out of order");
        res.result_blob.insert(res.result_blob.end(), chunk.bytes.begin(), chunk.bytes.end());
        check(res.result_blob.size() <= begin.result_bytes,
              "flow_client: result stream longer than announced");
    }
}

std::string FlowClient::report_json() { return call<wire::ReportReplyMsg>(wire::ReportMsg{}).json; }

std::uint64_t FlowClient::drain_server() {
    return call<wire::DrainOkMsg>(wire::DrainMsg{}).jobs_total;
}

}  // namespace afpga::cad
