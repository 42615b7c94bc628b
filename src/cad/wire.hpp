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
/// Payloads: every message and every option struct has one field list,
/// `fields(io, value)`, below its definition, driven by the FieldWriter and
/// FieldReader of cad/serialize — the same lists and drivers that define
/// the disk blobs, and the netlist, hints and ArchSpec a Submit carries.
/// Each message struct carries its MsgType: `encode(m)` frames a message
/// and `decode<M>(frame)` checks the type, decodes the payload and requires
/// all of it to be consumed. The artifact keys hash the option structs'
/// field-list bytes too (cad/fingerprint.hpp).
///
/// Rules, in the spirit of cad/serialize:
///  - payloads are field-list encodings (fixed-width little-endian fields,
///    u64 container-size prefixes), so equal values always frame to
///    identical bytes — the wire-vs-in-process bit-identity gates rest on it;
///  - the decoder validates as it goes (magic, version, type range, payload
///    cap, checksum, then per-field decoding: int ranges, enum tags, chunk
///    sizes, hint net ids, the netlist's from_parts checks) and throws
///    base::Error on any malformed input without retaining partial state —
///    a server maps that to "poison the connection", never a crash;
///  - covering the type bytes with the checksum means a bit flip cannot
///    relabel one valid message as another valid message.
///
/// Version policy: bump kProtocolVersion whenever any field list changes
/// shape; there is no cross-version negotiation (the Hello exchange simply
/// rejects mismatches — client and server ship from one tree).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asynclib/styles.hpp"
#include "base/check.hpp"
#include "cad/fingerprint.hpp"
#include "cad/flow.hpp"
#include "cad/flow_service.hpp"
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

/// The frame and result-stream checksum (cad/fingerprint.hpp).
using cad::fnv1a64;

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

}  // namespace afpga::cad::wire

namespace afpga::cad {

// --- option structs ---------------------------------------------------------
// The wire sends these bytes and the artifact keys hash them. The sizeof
// pins make a new knob fail the build until its field list carries it, so
// client, server and cache cannot drift. The lists sit in the structs'
// namespace, where the field-list drivers find them.

/// TechmapOptions fields.
template <typename IO, FieldsOf<TechmapOptions> O>
void fields(IO& io, O& o) {
    static_assert(sizeof(TechmapOptions) == 16, "TechmapOptions changed: update its fields");
    io(o.use_rail_pair_hints, o.absorb_validity, o.greedy_pairing, o.pairing_window);
}

/// PackOptions fields.
template <typename IO, FieldsOf<PackOptions> O>
void fields(IO& io, O& o) {
    static_assert(sizeof(PackOptions) == 1, "PackOptions changed: update its fields");
    io(o.affinity_clustering);
}

/// PlaceOptions fields. The retired engine tags (0 cold annealer, 1 flat
/// analytical, 2 race) must not decode.
template <typename IO, FieldsOf<PlaceOptions> O>
void fields(IO& io, O& o) {
    static_assert(sizeof(PlaceOptions) == 72, "PlaceOptions changed: update its fields");
    io(o.seed, o.moves_scale);
    io.ranged(o.algorithm, PlaceAlgorithm::Multilevel, PlaceAlgorithm::Multilevel,
              "place algorithm");
    io(o.threads);
    io.integer(o.solver_passes, "place.solver_passes");
    io.integer(o.solver_max_iters, "place.solver_max_iters");
    io.integer(o.polish_rounds, "place.polish_rounds");
    io(o.solver_tolerance, o.anchor_weight, o.coarsen_ratio);
    io.integer(o.min_coarse_nodes, "place.min_coarse_nodes");
    io.integer(o.max_levels, "place.max_levels");
}

/// RouterOptions fields.
template <typename IO, FieldsOf<RouterOptions> O>
void fields(IO& io, O& o) {
    static_assert(sizeof(RouterOptions) == 56, "RouterOptions changed: update its fields");
    io.integer(o.max_iterations, "route.max_iterations");
    io(o.pres_fac_first, o.pres_fac_mult, o.hist_fac, o.astar_fac);
    io.integer(o.stall_full_reroute, "route.stall_full_reroute");
    io(o.threads, o.bin_margin, o.min_bin_dim);
}

/// FlowOptions fields: the master seed, the four stage structs, then
/// pde_extra_margin and verify_mapping. The process-local prebuilt_rr /
/// artifact_store pointers never cross the wire — the server wires in its
/// own shared store and RR memo.
template <typename IO, FieldsOf<FlowOptions> O>
void fields(IO& io, O& o) {
    static_assert(sizeof(FlowOptions) == 208, "FlowOptions changed: update its fields");
    io(o.seed, o.techmap, o.pack, o.place, o.route, o.pde_extra_margin, o.verify_mapping);
}

}  // namespace afpga::cad

namespace afpga::cad::wire {

// --- messages ---------------------------------------------------------------

/// A job status travels as its FlowJobStatus byte.
inline constexpr std::uint8_t kMaxJobStatus = static_cast<std::uint8_t>(FlowJobStatus::Cancelled);

/// Session open (client → server).
struct HelloMsg {
    static constexpr MsgType kType = MsgType::Hello;  ///< frame tag
    std::string client_name;                       ///< label for reports/telemetry
    std::uint32_t protocol = kProtocolVersion;     ///< client's protocol version
};
/// HelloMsg fields.
template <typename IO, FieldsOf<HelloMsg> M>
void fields(IO& io, M& m) { io(m.client_name, m.protocol); }

/// Session accepted (server → client).
struct HelloOkMsg {
    static constexpr MsgType kType = MsgType::HelloOk;  ///< frame tag
    std::uint32_t lane = 0;         ///< fairness lane assigned to this client
    std::uint32_t max_pending = 0;  ///< server queue bound (backpressure trips above it)
    std::uint32_t threads = 0;      ///< service worker count — sizing hint for batching
};
/// HelloOkMsg fields.
template <typename IO, FieldsOf<HelloOkMsg> M>
void fields(IO& io, M& m) { io(m.lane, m.max_pending, m.threads); }

/// One compile request (client → server). Self-contained: the netlist,
/// hints, architecture and options all travel in the payload.
struct SubmitMsg {
    static constexpr MsgType kType = MsgType::Submit;  ///< frame tag
    std::string name;                ///< job label
    std::int32_t priority = 0;       ///< FlowJob::priority
    netlist::Netlist nl{};           ///< the design, by value
    asynclib::MappingHints hints;    ///< mapper hints (may be empty)
    core::ArchSpec arch;             ///< target architecture
    FlowOptions opts;                ///< flow knobs (semantic fields only)
};
/// Throws unless every hint net id indexes a net of `m.nl`.
void check_hint_ids(const SubmitMsg& m);
/// SubmitMsg fields. Hint net ids are meaningless outside the netlist they
/// arrived with; the reader bounds them so the mapper never indexes out of
/// range.
template <typename IO, FieldsOf<SubmitMsg> M>
void fields(IO& io, M& m) {
    io(m.name);
    io.integer(m.priority, "priority");
    io(m.nl, m.hints);
    if constexpr (IO::kDecoding) check_hint_ids(m);
    io(m.arch, m.opts);
}

/// Job accepted (server → client).
struct SubmitOkMsg {
    static constexpr MsgType kType = MsgType::SubmitOk;  ///< frame tag
    std::uint64_t job_id = 0;       ///< server-side FlowJobId
    std::uint32_t queue_depth = 0;  ///< pending jobs after this submit
};
/// SubmitOkMsg fields.
template <typename IO, FieldsOf<SubmitOkMsg> M>
void fields(IO& io, M& m) { io(m.job_id, m.queue_depth); }

/// Queue full — back off (server → client).
struct BusyMsg {
    static constexpr MsgType kType = MsgType::Busy;  ///< frame tag
    std::uint32_t queue_depth = 0;    ///< current pending depth
    std::uint32_t limit = 0;          ///< configured max_pending
    std::uint32_t retry_after_ms = 0; ///< suggested client backoff
};
/// BusyMsg fields.
template <typename IO, FieldsOf<BusyMsg> M>
void fields(IO& io, M& m) { io(m.queue_depth, m.limit, m.retry_after_ms); }

/// Poll one job (client → server).
struct StatusMsg {
    static constexpr MsgType kType = MsgType::Status;  ///< frame tag
    std::uint64_t job_id = 0;  ///< job to poll
};
/// StatusMsg fields.
template <typename IO, FieldsOf<StatusMsg> M>
void fields(IO& io, M& m) { io(m.job_id); }

/// Non-blocking job snapshot (server → client); mirrors FlowService::JobBrief.
struct StatusReplyMsg {
    static constexpr MsgType kType = MsgType::StatusReply;  ///< frame tag
    std::uint64_t job_id = 0;     ///< echoed id
    std::uint8_t status = 0;      ///< FlowJobStatus as its underlying value
    std::uint64_t start_seq = 0;  ///< scheduler dispatch order (0 = not started)
    double wall_ms = 0.0;         ///< execution time
    double queue_ms = 0.0;        ///< queue wait
    std::string error;            ///< failure text when Failed
};
/// StatusReplyMsg fields.
template <typename IO, FieldsOf<StatusReplyMsg> M>
void fields(IO& io, M& m) {
    io(m.job_id);
    io.ranged(m.status, std::uint8_t{0}, kMaxJobStatus, "job status");
    io(m.start_seq, m.wall_ms, m.queue_ms, m.error);
}

/// Ask for the result stream once the job finishes (client → server).
struct WaitMsg {
    static constexpr MsgType kType = MsgType::Wait;  ///< frame tag
    std::uint64_t job_id = 0;  ///< job to wait on
};
/// WaitMsg fields.
template <typename IO, FieldsOf<WaitMsg> M>
void fields(IO& io, M& m) { io(m.job_id); }

/// Head of a result stream (server → client). For an Ok job,
/// `result_bytes` of ArtifactCodec<BitstreamArtifact> blob follow in
/// ResultChunk frames; for Failed/Cancelled jobs result_bytes is 0.
struct ResultBeginMsg {
    static constexpr MsgType kType = MsgType::ResultBegin;  ///< frame tag
    std::uint64_t job_id = 0;      ///< echoed id
    std::uint8_t status = 0;       ///< terminal FlowJobStatus
    std::string error;             ///< failure text when Failed
    double wall_ms = 0.0;          ///< execution time
    double queue_ms = 0.0;         ///< queue wait
    std::uint64_t start_seq = 0;   ///< scheduler dispatch order
    std::string telemetry_json;    ///< FlowTelemetry::to_json() when Ok
    std::uint64_t result_bytes = 0;  ///< total blob size to expect
};
/// ResultBeginMsg fields.
template <typename IO, FieldsOf<ResultBeginMsg> M>
void fields(IO& io, M& m) {
    io(m.job_id);
    io.ranged(m.status, std::uint8_t{0}, kMaxJobStatus, "job status");
    io(m.error, m.wall_ms, m.queue_ms, m.start_seq, m.telemetry_json, m.result_bytes);
}

/// One slice of a result blob (server → client).
struct ResultChunkMsg {
    static constexpr MsgType kType = MsgType::ResultChunk;  ///< frame tag
    std::uint64_t job_id = 0;  ///< echoed id
    std::uint64_t offset = 0;  ///< byte offset of this slice
    std::vector<std::uint8_t> bytes;  ///< slice data (≤ kResultChunkBytes)
};
/// ResultChunkMsg fields.
template <typename IO, FieldsOf<ResultChunkMsg> M>
void fields(IO& io, M& m) {
    io(m.job_id, m.offset);
    io.bytes(m.bytes, kResultChunkBytes, "result chunk");
}

/// Result stream terminator (server → client).
struct ResultEndMsg {
    static constexpr MsgType kType = MsgType::ResultEnd;  ///< frame tag
    std::uint64_t job_id = 0;    ///< echoed id
    std::uint64_t checksum = 0;  ///< fnv1a64 over the whole reassembled blob
};
/// ResultEndMsg fields.
template <typename IO, FieldsOf<ResultEndMsg> M>
void fields(IO& io, M& m) { io(m.job_id, m.checksum); }

/// Cancel a queued job (client → server).
struct CancelMsg {
    static constexpr MsgType kType = MsgType::Cancel;  ///< frame tag
    std::uint64_t job_id = 0;  ///< job to cancel
};
/// CancelMsg fields.
template <typename IO, FieldsOf<CancelMsg> M>
void fields(IO& io, M& m) { io(m.job_id); }

/// Cancel outcome (server → client).
struct CancelReplyMsg {
    static constexpr MsgType kType = MsgType::CancelReply;  ///< frame tag
    std::uint64_t job_id = 0;  ///< echoed id
    bool cancelled = false;    ///< true iff it was still queued
};
/// CancelReplyMsg fields.
template <typename IO, FieldsOf<CancelReplyMsg> M>
void fields(IO& io, M& m) { io(m.job_id, m.cancelled); }

/// Request the service report (client → server; empty payload).
struct ReportMsg {
    static constexpr MsgType kType = MsgType::Report;  ///< frame tag
};
/// ReportMsg fields (none).
template <typename IO, FieldsOf<ReportMsg> M>
void fields(IO&, M&) {}

/// FlowService::report_json() plus server-side counters (server → client).
struct ReportReplyMsg {
    static constexpr MsgType kType = MsgType::ReportReply;  ///< frame tag
    std::string json;  ///< the report document
};
/// ReportReplyMsg fields.
template <typename IO, FieldsOf<ReportReplyMsg> M>
void fields(IO& io, M& m) { io(m.json); }

/// Begin graceful drain (client → server; empty payload).
struct DrainMsg {
    static constexpr MsgType kType = MsgType::Drain;  ///< frame tag
};
/// DrainMsg fields (none).
template <typename IO, FieldsOf<DrainMsg> M>
void fields(IO&, M&) {}

/// Drain acknowledged (server → client).
struct DrainOkMsg {
    static constexpr MsgType kType = MsgType::DrainOk;  ///< frame tag
    std::uint64_t jobs_total = 0;  ///< jobs the service has accepted so far
};
/// DrainOkMsg fields.
template <typename IO, FieldsOf<DrainOkMsg> M>
void fields(IO& io, M& m) { io(m.jobs_total); }

/// Request-level failure (server → client).
struct ErrorMsg {
    static constexpr MsgType kType = MsgType::Error;  ///< frame tag
    std::uint32_t code = 0;  ///< an ErrCode value
    std::string message;     ///< human-readable detail
};
/// ErrorMsg fields.
template <typename IO, FieldsOf<ErrorMsg> M>
void fields(IO& io, M& m) { io(m.code, m.message); }

// --- typed framing ----------------------------------------------------------

/// Message `m` framed for the wire; throws base::Error past the payload cap
/// or on an oversized result chunk.
template <typename M>
[[nodiscard]] std::vector<std::uint8_t> encode(const M& m) {
    BlobWriter w;
    encode_fields(m, w);
    return encode_frame(M::kType, w.bytes());
}

/// Throws unless `f` carries a `want` message ("expected X, got Y").
void expect_type(const Frame& f, MsgType want);

/// Decode frame `f` as message `M`: throws base::Error if it carries another
/// message type, if its payload is corrupt, or if payload bytes are left
/// over (the cad/serialize "trailing garbage = corrupt" contract).
template <typename M>
[[nodiscard]] M decode(const Frame& f) {
    expect_type(f, M::kType);
    BlobReader r(f.payload);
    M m = decode_fields<M>(r);
    r.expect_end();
    return m;
}

}  // namespace afpga::cad::wire
