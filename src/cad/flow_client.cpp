#include "cad/flow_client.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "base/check.hpp"
#include "cad/serialize.hpp"

namespace afpga::cad {

using base::check;

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
    write_all(wire::encode_frame(wire::MsgType::Hello, wire::encode_payload(hello)));
    const wire::Frame f = read_frame();
    check(f.type == wire::MsgType::HelloOk,
          "flow_client: expected hello_ok, got " + wire::to_string(f.type));
    hello_ = wire::decode_hello_ok(f.payload);
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
        if (auto f = dec_.next()) return *std::move(f);
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

namespace {

/// Request-level Error frames become thrown base::Error with the server's
/// message; every verb reply path funnels through here.
[[noreturn]] void throw_server_error(const wire::Frame& f) {
    const wire::ErrorMsg e = wire::decode_error(f.payload);
    base::fail("flow_client: server error " + std::to_string(e.code) + ": " + e.message);
}

}  // namespace

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
    write_all(wire::encode_frame(wire::MsgType::Submit, wire::encode_payload(m)));
    const wire::Frame f = read_frame();
    if (f.type == wire::MsgType::Busy) {
        const wire::BusyMsg busy = wire::decode_busy(f.payload);
        if (busy.retry_after_ms > 0) last_busy_retry_ms_ = busy.retry_after_ms;
        return std::nullopt;
    }
    if (f.type == wire::MsgType::Error) throw_server_error(f);
    check(f.type == wire::MsgType::SubmitOk,
          "flow_client: expected submit_ok, got " + wire::to_string(f.type));
    return wire::decode_submit_ok(f.payload).job_id;
}

std::uint64_t FlowClient::submit(const RemoteJobSpec& job) {
    for (;;) {
        if (const auto id = try_submit(job)) return *id;
        std::this_thread::sleep_for(std::chrono::milliseconds(last_busy_retry_ms_));
    }
}

wire::StatusReplyMsg FlowClient::status(std::uint64_t job_id) {
    wire::StatusMsg m;
    m.job_id = job_id;
    write_all(wire::encode_frame(wire::MsgType::Status, wire::encode_payload(m)));
    const wire::Frame f = read_frame();
    if (f.type == wire::MsgType::Error) throw_server_error(f);
    check(f.type == wire::MsgType::StatusReply,
          "flow_client: expected status_reply, got " + wire::to_string(f.type));
    return wire::decode_status_reply(f.payload);
}

bool FlowClient::cancel(std::uint64_t job_id) {
    wire::CancelMsg m;
    m.job_id = job_id;
    write_all(wire::encode_frame(wire::MsgType::Cancel, wire::encode_payload(m)));
    const wire::Frame f = read_frame();
    if (f.type == wire::MsgType::Error) throw_server_error(f);
    check(f.type == wire::MsgType::CancelReply,
          "flow_client: expected cancel_reply, got " + wire::to_string(f.type));
    return wire::decode_cancel_reply(f.payload).cancelled;
}

RemoteFlowResult FlowClient::wait(std::uint64_t job_id, std::string name) {
    wire::WaitMsg m;
    m.job_id = job_id;
    write_all(wire::encode_frame(wire::MsgType::Wait, wire::encode_payload(m)));

    wire::Frame f = read_frame();
    if (f.type == wire::MsgType::Error) throw_server_error(f);
    check(f.type == wire::MsgType::ResultBegin,
          "flow_client: expected result_begin, got " + wire::to_string(f.type));
    const wire::ResultBeginMsg begin = wire::decode_result_begin(f.payload);
    check(begin.job_id == job_id, "flow_client: result stream for the wrong job");

    RemoteFlowResult res;
    res.name = std::move(name);
    res.status = static_cast<FlowJobStatus>(begin.status);
    res.error = begin.error;
    res.wall_ms = begin.wall_ms;
    res.queue_ms = begin.queue_ms;
    res.start_seq = begin.start_seq;
    res.telemetry_json = begin.telemetry_json;
    res.result_blob.reserve(static_cast<std::size_t>(begin.result_bytes));

    for (;;) {
        f = read_frame();
        if (f.type == wire::MsgType::ResultChunk) {
            const wire::ResultChunkMsg chunk = wire::decode_result_chunk(f.payload);
            check(chunk.job_id == job_id, "flow_client: chunk for the wrong job");
            check(chunk.offset == res.result_blob.size(),
                  "flow_client: result chunk out of order");
            res.result_blob.insert(res.result_blob.end(), chunk.bytes.begin(),
                                   chunk.bytes.end());
            check(res.result_blob.size() <= begin.result_bytes,
                  "flow_client: result stream longer than announced");
            continue;
        }
        if (f.type == wire::MsgType::Error) throw_server_error(f);
        check(f.type == wire::MsgType::ResultEnd,
              "flow_client: expected result_end, got " + wire::to_string(f.type));
        const wire::ResultEndMsg end = wire::decode_result_end(f.payload);
        check(end.job_id == job_id, "flow_client: result end for the wrong job");
        check(res.result_blob.size() == begin.result_bytes,
              "flow_client: result stream truncated");
        check(end.checksum == wire::fnv1a64(res.result_blob.data(), res.result_blob.size()),
              "flow_client: result stream checksum mismatch");
        return res;
    }
}

std::string FlowClient::report_json() {
    write_all(wire::encode_frame(wire::MsgType::Report, wire::encode_payload(wire::ReportMsg{})));
    const wire::Frame f = read_frame();
    if (f.type == wire::MsgType::Error) throw_server_error(f);
    check(f.type == wire::MsgType::ReportReply,
          "flow_client: expected report_reply, got " + wire::to_string(f.type));
    return wire::decode_report_reply(f.payload).json;
}

std::uint64_t FlowClient::drain_server() {
    write_all(wire::encode_frame(wire::MsgType::Drain, wire::encode_payload(wire::DrainMsg{})));
    const wire::Frame f = read_frame();
    if (f.type == wire::MsgType::Error) throw_server_error(f);
    check(f.type == wire::MsgType::DrainOk,
          "flow_client: expected drain_ok, got " + wire::to_string(f.type));
    return wire::decode_drain_ok(f.payload).jobs_total;
}

}  // namespace afpga::cad
