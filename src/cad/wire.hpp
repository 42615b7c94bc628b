/// \file
/// The compile-service wire protocol: versioned, checksummed, length-prefixed
/// binary frames carrying the FlowService verbs between flow_client and
/// flow_server over TCP or Unix-domain sockets.
///
/// Framing (24-byte header, all fields little-endian):
///
///     magic u32 ("AFPW") | version u32 | type u32 | payload_len u32 |
///     checksum u64 (FNV-1a over the 4 type bytes ++ the payload)
///
/// Rules, in the spirit of cad/serialize:
///  - payloads are BlobWriter/BlobReader encodings (fixed-width little-endian
///    fields, u64 container-size prefixes), so equal values always frame to
///    identical bytes — the wire-vs-in-process bit-identity gates rest on it;
///  - the decoder validates as it goes (magic, version, type range, payload
///    cap, checksum, then per-field decoding) and throws base::Error on any
///    malformed input without retaining partial state — a server maps that
///    to "poison the connection", never a crash;
///  - covering the type bytes with the checksum means a bit flip cannot
///    relabel one valid message as another valid message.
///
/// Version policy: bump kProtocolVersion whenever any payload codec changes
/// shape; there is no cross-version negotiation (the Hello exchange simply
/// rejects mismatches — client and server ship from one tree).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asynclib/styles.hpp"
#include "cad/flow.hpp"
#include "cad/serialize.hpp"
#include "netlist/netlist.hpp"

namespace afpga::cad::wire {

/// Frame magic: "AFPW" read as a little-endian u32.
inline constexpr std::uint32_t kMagic = 0x57504641u;
/// Protocol version; see the file comment's version policy (v2: the
/// FlowOptions codec lost the retired annealer's place knobs; v3: it lost
/// the router's `incremental` and `verbose`).
inline constexpr std::uint32_t kProtocolVersion = 3;
/// Fixed frame-header size in bytes.
inline constexpr std::size_t kHeaderBytes = 24;
/// Hard cap on a single frame's payload — anything larger is malformed by
/// definition, so a corrupt length field cannot make a peer buffer gigabytes.
inline constexpr std::size_t kMaxPayloadBytes = 64u << 20;
/// Result streaming slices bitstream blobs into chunks of this many bytes,
/// bounding both the frame size and the server's per-connection buffering.
inline constexpr std::size_t kResultChunkBytes = 64u << 10;

/// Every message the protocol speaks. Values are wire-stable.
enum class MsgType : std::uint32_t {
    Hello = 1,         ///< client → server: open a session
    HelloOk = 2,       ///< server → client: session accepted, lane assigned
    Submit = 3,        ///< client → server: one FlowJob (netlist + knobs)
    SubmitOk = 4,      ///< server → client: job accepted, id assigned
    Busy = 5,          ///< server → client: queue full, back off and retry
    Status = 6,        ///< client → server: poll one job
    StatusReply = 7,   ///< server → client: non-blocking job snapshot
    Wait = 8,          ///< client → server: stream the result when done
    ResultBegin = 9,   ///< server → client: terminal status + result size
    ResultChunk = 10,  ///< server → client: one slice of the result blob
    ResultEnd = 11,    ///< server → client: result complete + checksum
    Cancel = 12,       ///< client → server: cancel a queued job
    CancelReply = 13,  ///< server → client: whether the cancel landed
    Report = 14,       ///< client → server: request the service JSON report
    ReportReply = 15,  ///< server → client: FlowService::report_json()
    Drain = 16,        ///< client → server: refuse new submits, finish queue
    DrainOk = 17,      ///< server → client: drain acknowledged
    Error = 18,        ///< server → client: request-level failure
};
/// Largest valid MsgType value (frame validation range-checks against it).
inline constexpr std::uint32_t kMaxMsgType = static_cast<std::uint32_t>(MsgType::Error);

/// Lower-case message name for logs and errors.
[[nodiscard]] std::string to_string(MsgType t);

/// Request-level error codes carried by ErrorMsg. Values are wire-stable.
enum class ErrCode : std::uint32_t {
    BadRequest = 1,  ///< malformed payload or protocol-order violation
    UnknownJob = 2,  ///< job id was never assigned to this connection
    Draining = 3,    ///< server refuses new submits while draining
    Internal = 4,    ///< server-side failure outside the job itself
};

/// FNV-1a over `n` bytes. Chainable: pass a previous digest as `seed` to
/// extend it. Single-byte changes provably change the digest (each step is
/// a bijection in the accumulator), which is what the frame fuzzer pins.
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n,
                                    std::uint64_t seed = 0xcbf29ce484222325ull);

/// One decoded frame: the type tag plus its raw payload bytes.
struct Frame {
    MsgType type = MsgType::Error;      ///< validated message type
    std::vector<std::uint8_t> payload;  ///< checksum-verified payload bytes
};

/// Frame a payload for the wire; throws base::Error past kMaxPayloadBytes.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(MsgType type,
                                                     const std::vector<std::uint8_t>& payload);

/// Incremental frame reassembly over an arbitrary byte stream (sockets
/// deliver any split). feed() appends; next() yields one validated frame,
/// std::nullopt while incomplete, and throws base::Error on malformed input
/// — after which the stream is poisoned and the caller must drop the peer.
class FrameDecoder {
public:
    /// Append raw bytes from the stream.
    void feed(const std::uint8_t* data, std::size_t n);
    /// Append raw bytes from the stream.
    void feed(const std::vector<std::uint8_t>& bytes) { feed(bytes.data(), bytes.size()); }

    /// Extract the next complete frame; nullopt = need more bytes. Throws
    /// base::Error on bad magic/version/type/length/checksum.
    [[nodiscard]] std::optional<Frame> next();

    /// True when no partial frame is buffered (a clean stream boundary).
    [[nodiscard]] bool idle() const noexcept { return buf_.size() == pos_; }
    /// Bytes buffered but not yet consumed by next().
    [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;  ///< consumed prefix of buf_
};

// --- reusable payload codecs (also unit-tested directly) --------------------

/// Netlist wire codec: cells/nets/PI/PO tables verbatim — including each
/// net's sink order, which the construction API cannot replay for handshake
/// feedback cycles (fingerprint_netlist hashes these bytes). decode_netlist
/// rebuilds through Netlist::from_parts, so hostile bytes throw base::Error
/// instead of producing a malformed graph.
void encode_netlist(const netlist::Netlist& nl, BlobWriter& w);
/// Inverse of encode_netlist; throws base::Error on corruption.
[[nodiscard]] netlist::Netlist decode_netlist(BlobReader& r);

/// MappingHints wire codec (net ids are validated by the Submit decoder
/// against the netlist they arrive with, not here).
void encode_hints(const asynclib::MappingHints& h, BlobWriter& w);
/// Inverse of encode_hints; throws base::Error on corruption.
[[nodiscard]] asynclib::MappingHints decode_hints(BlobReader& r);

/// Option-struct codecs, one encoder and one decoder per struct. Each pair
/// is the only enumeration of its struct's fields in the tree and pins its
/// sizeof: the artifact keys hash these same bytes (cad/fingerprint.hpp),
/// so a field the wire carries is a field the cache keys on. Decoders throw
/// base::Error on corruption.
void encode_techmap_options(const TechmapOptions& o, BlobWriter& w);
[[nodiscard]] TechmapOptions decode_techmap_options(BlobReader& r);  ///< inverse
void encode_pack_options(const PackOptions& o, BlobWriter& w);         ///< see above
[[nodiscard]] PackOptions decode_pack_options(BlobReader& r);          ///< inverse
void encode_place_options(const PlaceOptions& o, BlobWriter& w);       ///< see above
[[nodiscard]] PlaceOptions decode_place_options(BlobReader& r);        ///< inverse
void encode_router_options(const RouterOptions& o, BlobWriter& w);     ///< see above
[[nodiscard]] RouterOptions decode_router_options(BlobReader& r);      ///< inverse

/// FlowOptions codec: the master seed, the four stage structs' codecs, then
/// pde_extra_margin and verify_mapping. The process-local prebuilt_rr /
/// artifact_store pointers never cross the wire — the server wires in its
/// own shared store and RR memo.
void encode_flow_options(const FlowOptions& o, BlobWriter& w);
/// Inverse of encode_flow_options; throws base::Error on corruption.
[[nodiscard]] FlowOptions decode_flow_options(BlobReader& r);

// --- messages ---------------------------------------------------------------

/// Session open (client → server).
struct HelloMsg {
    std::string client_name;                       ///< label for reports/telemetry
    std::uint32_t protocol = kProtocolVersion;     ///< client's protocol version
};

/// Session accepted (server → client).
struct HelloOkMsg {
    std::uint32_t lane = 0;         ///< fairness lane assigned to this client
    std::uint32_t max_pending = 0;  ///< server queue bound (backpressure trips above it)
    std::uint32_t threads = 0;      ///< service worker count — sizing hint for batching
};

/// One compile request (client → server). Self-contained: the netlist,
/// hints, architecture and options all travel in the payload.
struct SubmitMsg {
    std::string name;                ///< job label
    std::int32_t priority = 0;       ///< FlowJob::priority
    netlist::Netlist nl{};           ///< the design, by value
    asynclib::MappingHints hints;    ///< mapper hints (may be empty)
    core::ArchSpec arch;             ///< target architecture
    FlowOptions opts;                ///< flow knobs (semantic fields only)
};

/// Job accepted (server → client).
struct SubmitOkMsg {
    std::uint64_t job_id = 0;       ///< server-side FlowJobId
    std::uint32_t queue_depth = 0;  ///< pending jobs after this submit
};

/// Queue full — back off (server → client).
struct BusyMsg {
    std::uint32_t queue_depth = 0;    ///< current pending depth
    std::uint32_t limit = 0;          ///< configured max_pending
    std::uint32_t retry_after_ms = 0; ///< suggested client backoff
};

/// Poll one job (client → server).
struct StatusMsg {
    std::uint64_t job_id = 0;  ///< job to poll
};

/// Non-blocking job snapshot (server → client); mirrors FlowService::JobBrief.
struct StatusReplyMsg {
    std::uint64_t job_id = 0;     ///< echoed id
    std::uint8_t status = 0;      ///< FlowJobStatus as its underlying value
    std::uint64_t start_seq = 0;  ///< scheduler dispatch order (0 = not started)
    double wall_ms = 0.0;         ///< execution time
    double queue_ms = 0.0;        ///< queue wait
    std::string error;            ///< failure text when Failed
};

/// Ask for the result stream once the job finishes (client → server).
struct WaitMsg {
    std::uint64_t job_id = 0;  ///< job to wait on
};

/// Head of a result stream (server → client). For an Ok job,
/// `result_bytes` of ArtifactCodec<BitstreamArtifact> blob follow in
/// ResultChunk frames; for Failed/Cancelled jobs result_bytes is 0.
struct ResultBeginMsg {
    std::uint64_t job_id = 0;      ///< echoed id
    std::uint8_t status = 0;       ///< terminal FlowJobStatus
    std::string error;             ///< failure text when Failed
    double wall_ms = 0.0;          ///< execution time
    double queue_ms = 0.0;         ///< queue wait
    std::uint64_t start_seq = 0;   ///< scheduler dispatch order
    std::string telemetry_json;    ///< FlowTelemetry::to_json() when Ok
    std::uint64_t result_bytes = 0;  ///< total blob size to expect
};

/// One slice of a result blob (server → client).
struct ResultChunkMsg {
    std::uint64_t job_id = 0;  ///< echoed id
    std::uint64_t offset = 0;  ///< byte offset of this slice
    std::vector<std::uint8_t> bytes;  ///< slice data (≤ kResultChunkBytes)
};

/// Result stream terminator (server → client).
struct ResultEndMsg {
    std::uint64_t job_id = 0;    ///< echoed id
    std::uint64_t checksum = 0;  ///< fnv1a64 over the whole reassembled blob
};

/// Cancel a queued job (client → server).
struct CancelMsg {
    std::uint64_t job_id = 0;  ///< job to cancel
};

/// Cancel outcome (server → client).
struct CancelReplyMsg {
    std::uint64_t job_id = 0;  ///< echoed id
    bool cancelled = false;    ///< true iff it was still queued
};

/// Request the service report (client → server; empty payload).
struct ReportMsg {};

/// FlowService::report_json() plus server-side counters (server → client).
struct ReportReplyMsg {
    std::string json;  ///< the report document
};

/// Begin graceful drain (client → server; empty payload).
struct DrainMsg {};

/// Drain acknowledged (server → client).
struct DrainOkMsg {
    std::uint64_t jobs_total = 0;  ///< jobs the service has accepted so far
};

/// Request-level failure (server → client).
struct ErrorMsg {
    std::uint32_t code = 0;  ///< an ErrCode value
    std::string message;     ///< human-readable detail
};

// Each message encodes to a payload (frame it with its MsgType) and decodes
// from a full payload; decoders throw base::Error on corruption or trailing
// bytes, mirroring the cad/serialize blob contract.

[[nodiscard]] std::vector<std::uint8_t> encode_payload(const HelloMsg& m);         ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const HelloOkMsg& m);       ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const SubmitMsg& m);        ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const SubmitOkMsg& m);      ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const BusyMsg& m);          ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const StatusMsg& m);        ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const StatusReplyMsg& m);   ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const WaitMsg& m);          ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ResultBeginMsg& m);   ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ResultChunkMsg& m);   ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ResultEndMsg& m);     ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const CancelMsg& m);        ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const CancelReplyMsg& m);   ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ReportMsg& m);        ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ReportReplyMsg& m);   ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const DrainMsg& m);         ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const DrainOkMsg& m);       ///< → bytes
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ErrorMsg& m);         ///< → bytes

[[nodiscard]] HelloMsg decode_hello(const std::vector<std::uint8_t>& p);              ///< bytes →
[[nodiscard]] HelloOkMsg decode_hello_ok(const std::vector<std::uint8_t>& p);         ///< bytes →
[[nodiscard]] SubmitMsg decode_submit(const std::vector<std::uint8_t>& p);            ///< bytes →
[[nodiscard]] SubmitOkMsg decode_submit_ok(const std::vector<std::uint8_t>& p);       ///< bytes →
[[nodiscard]] BusyMsg decode_busy(const std::vector<std::uint8_t>& p);                ///< bytes →
[[nodiscard]] StatusMsg decode_status(const std::vector<std::uint8_t>& p);            ///< bytes →
[[nodiscard]] StatusReplyMsg decode_status_reply(const std::vector<std::uint8_t>& p); ///< bytes →
[[nodiscard]] WaitMsg decode_wait(const std::vector<std::uint8_t>& p);                ///< bytes →
[[nodiscard]] ResultBeginMsg decode_result_begin(const std::vector<std::uint8_t>& p); ///< bytes →
[[nodiscard]] ResultChunkMsg decode_result_chunk(const std::vector<std::uint8_t>& p); ///< bytes →
[[nodiscard]] ResultEndMsg decode_result_end(const std::vector<std::uint8_t>& p);     ///< bytes →
[[nodiscard]] CancelMsg decode_cancel(const std::vector<std::uint8_t>& p);            ///< bytes →
[[nodiscard]] CancelReplyMsg decode_cancel_reply(const std::vector<std::uint8_t>& p); ///< bytes →
[[nodiscard]] ReportMsg decode_report(const std::vector<std::uint8_t>& p);            ///< bytes →
[[nodiscard]] ReportReplyMsg decode_report_reply(const std::vector<std::uint8_t>& p); ///< bytes →
[[nodiscard]] DrainMsg decode_drain(const std::vector<std::uint8_t>& p);              ///< bytes →
[[nodiscard]] DrainOkMsg decode_drain_ok(const std::vector<std::uint8_t>& p);         ///< bytes →
[[nodiscard]] ErrorMsg decode_error(const std::vector<std::uint8_t>& p);              ///< bytes →

}  // namespace afpga::cad::wire
