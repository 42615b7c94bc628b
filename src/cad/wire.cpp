#include "cad/wire.hpp"

#include <string>
#include <utility>

#include "base/check.hpp"

namespace afpga::cad::wire {

using base::check;

std::string to_string(MsgType t) {
    switch (t) {
        case MsgType::Hello: return "hello";
        case MsgType::HelloOk: return "hello_ok";
        case MsgType::Submit: return "submit";
        case MsgType::SubmitOk: return "submit_ok";
        case MsgType::Busy: return "busy";
        case MsgType::Status: return "status";
        case MsgType::StatusReply: return "status_reply";
        case MsgType::Wait: return "wait";
        case MsgType::ResultBegin: return "result_begin";
        case MsgType::ResultChunk: return "result_chunk";
        case MsgType::ResultEnd: return "result_end";
        case MsgType::Cancel: return "cancel";
        case MsgType::CancelReply: return "cancel_reply";
        case MsgType::Report: return "report";
        case MsgType::ReportReply: return "report_reply";
        case MsgType::Drain: return "drain";
        case MsgType::DrainOk: return "drain_ok";
        case MsgType::Error: return "error";
    }
    return "unknown";
}

// --- framing ----------------------------------------------------------------

namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t read_u32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/// Checksum of a frame: the 4 little-endian type bytes chained into the
/// payload, so a bit flip in the type field cannot relabel a valid frame.
std::uint64_t frame_checksum(std::uint32_t type, const std::uint8_t* payload, std::size_t n) {
    std::uint8_t tb[4] = {static_cast<std::uint8_t>(type), static_cast<std::uint8_t>(type >> 8),
                          static_cast<std::uint8_t>(type >> 16),
                          static_cast<std::uint8_t>(type >> 24)};
    return fnv1a64(payload, n, fnv1a64(tb, 4));
}

}  // namespace

std::vector<std::uint8_t> encode_frame(MsgType type, const std::vector<std::uint8_t>& payload) {
    check(payload.size() <= kMaxPayloadBytes, "wire: payload exceeds frame cap");
    const auto t = static_cast<std::uint32_t>(type);
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes + payload.size());
    append_u32(out, kMagic);
    append_u32(out, kProtocolVersion);
    append_u32(out, t);
    append_u32(out, static_cast<std::uint32_t>(payload.size()));
    append_u64(out, frame_checksum(t, payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameDecoder::next() {
    if (buffered() < kHeaderBytes) return std::nullopt;
    const std::uint8_t* h = buf_.data() + pos_;
    check(read_u32(h) == kMagic, "wire: bad frame magic");
    check(read_u32(h + 4) == kProtocolVersion, "wire: protocol version mismatch");
    const std::uint32_t type = read_u32(h + 8);
    check(type >= 1 && type <= kMaxMsgType, "wire: unknown message type");
    const std::uint32_t len = read_u32(h + 12);
    check(len <= kMaxPayloadBytes, "wire: oversized frame payload");
    if (buffered() < kHeaderBytes + len) return std::nullopt;
    const std::uint64_t stored = read_u64(h + 16);
    check(stored == frame_checksum(type, h + kHeaderBytes, len),
          "wire: frame checksum mismatch");
    Frame f;
    f.type = static_cast<MsgType>(type);
    f.payload.assign(h + kHeaderBytes, h + kHeaderBytes + len);
    pos_ += kHeaderBytes + len;
    // Compact lazily: only once the consumed prefix dominates the buffer, so
    // a stream of small frames does not memmove per frame.
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    return f;
}

// --- messages ---------------------------------------------------------------

void check_hint_ids(const SubmitMsg& m) {
    const std::size_t nn = m.nl.num_nets();
    for (const auto& [a, b] : m.hints.rail_pairs) {
        check(a.valid() && a.index() < nn && b.valid() && b.index() < nn,
              "wire: hint rail pair out of range");
    }
    for (netlist::NetId v : m.hints.validity_nets)
        check(v.valid() && v.index() < nn, "wire: hint validity net out of range");
}

void expect_type(const Frame& f, MsgType want) {
    if (f.type != want)
        base::fail("wire: expected " + to_string(want) + ", got " + to_string(f.type));
}

}  // namespace afpga::cad::wire
