/// \file
/// FlowClient: the blocking-socket client side of the cad/wire protocol.
///
/// A FlowClient is one connection = one FlowService fairness lane. It is
/// intentionally synchronous (one request, one reply) — concurrency comes
/// from running one client per thread, which is exactly what the
/// bench/cad_scaling flow_server tier and the soak tests do.
///
/// Error model: request-level failures reported by the server (unknown job,
/// draining, malformed request) and transport failures (connection reset,
/// corrupt frame, checksum mismatch) all surface as thrown base::Error.
/// Busy backpressure is NOT an error: try_submit returns nullopt and
/// submit() retries with the server's suggested backoff.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cad/flow_service.hpp"
#include "cad/wire.hpp"

namespace afpga::cad {

/// One remote compile request. The netlist and hints are borrowed for the
/// duration of the submit call only (they are serialized onto the wire).
struct RemoteJobSpec {
    std::string name;                               ///< job label
    int priority = 0;                               ///< FlowJob::priority
    const netlist::Netlist* nl = nullptr;           ///< design (borrowed)
    const asynclib::MappingHints* hints = nullptr;  ///< optional hints (borrowed)
    core::ArchSpec arch;                            ///< target architecture
    FlowOptions opts;                               ///< flow knobs (semantic fields)
};

/// Outcome of one remote job, reassembled from the result stream.
struct RemoteFlowResult {
    std::string name;                              ///< the job's label
    FlowJobStatus status = FlowJobStatus::Queued;  ///< terminal status
    std::string error;            ///< failure text when Failed
    double wall_ms = 0.0;         ///< server-side flow execution time
    double queue_ms = 0.0;        ///< server-side queue wait
    std::uint64_t start_seq = 0;  ///< scheduler dispatch order
    std::string telemetry_json;   ///< FlowTelemetry::to_json() when Ok
    /// ArtifactCodec<BitstreamArtifact> blob when Ok — byte-identical to an
    /// in-process encoding of the same flow's result (the CI gate).
    std::vector<std::uint8_t> result_blob;

    [[nodiscard]] bool ok() const noexcept { return status == FlowJobStatus::Ok; }
    /// Decode the result blob (throws base::Error if !ok or corrupt).
    [[nodiscard]] BitstreamArtifact decode_bitstream() const;
};

/// One connection to a FlowServer; see the file comment for the contract.
class FlowClient {
public:
    /// Connect over a Unix-domain socket and run the Hello handshake.
    [[nodiscard]] static FlowClient connect_unix(const std::string& path,
                                                const std::string& client_name = "client");
    /// Connect over TCP and run the Hello handshake.
    [[nodiscard]] static FlowClient connect_tcp(const std::string& host, std::uint16_t port,
                                                const std::string& client_name = "client");

    ~FlowClient();
    FlowClient(FlowClient&& o) noexcept;             ///< move transfers the socket
    FlowClient& operator=(FlowClient&& o) noexcept;  ///< move transfers the socket
    FlowClient(const FlowClient&) = delete;             ///< non-copyable
    FlowClient& operator=(const FlowClient&) = delete;  ///< non-copyable

    /// Fairness lane the server assigned at Hello.
    [[nodiscard]] std::uint32_t lane() const noexcept { return hello_.lane; }
    /// Server queue bound (Busy trips above it).
    [[nodiscard]] std::uint32_t max_pending() const noexcept { return hello_.max_pending; }
    /// Server worker-pool size.
    [[nodiscard]] std::uint32_t server_threads() const noexcept { return hello_.threads; }

    /// One submit attempt: the job id, or nullopt if the server said Busy
    /// (its backoff hint then seeds submit()'s retry sleep).
    [[nodiscard]] std::optional<std::uint64_t> try_submit(const RemoteJobSpec& job);
    /// Submit, retrying Busy responses with the server's backoff hint.
    [[nodiscard]] std::uint64_t submit(const RemoteJobSpec& job);
    /// Non-blocking server-side status snapshot.
    [[nodiscard]] wire::StatusReplyMsg status(std::uint64_t job_id);
    /// Cancel a queued job; true iff it was still queued.
    bool cancel(std::uint64_t job_id);
    /// Claim and stream the job's result (blocks until the job finishes).
    /// Verifies chunk continuity and the stream checksum.
    [[nodiscard]] RemoteFlowResult wait(std::uint64_t job_id, std::string name = "");
    /// FlowService::report_json() from the server.
    [[nodiscard]] std::string report_json();
    /// Ask the server to drain; returns its total accepted-job count.
    std::uint64_t drain_server();

    /// Close the socket early (also done by the destructor).
    void close();

private:
    FlowClient(int fd, const std::string& client_name);

    void write_all(const std::vector<std::uint8_t>& bytes);
    /// The next frame from the server; an Error frame throws its message.
    [[nodiscard]] wire::Frame read_frame();
    /// Send `req` and decode the reply as a `Reply` (any other reply throws).
    template <typename Reply, typename Request>
    [[nodiscard]] Reply call(const Request& req);

    int fd_ = -1;
    wire::FrameDecoder dec_;
    wire::HelloOkMsg hello_;
    std::uint32_t last_busy_retry_ms_ = 50;  ///< latest server backoff hint
};

}  // namespace afpga::cad
