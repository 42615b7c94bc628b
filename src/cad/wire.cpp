#include "cad/wire.hpp"

#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "base/check.hpp"
#include "netlist/truthtable.hpp"

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

// --- netlist / hints codecs ------------------------------------------------

namespace {

using detail::get_count;
using detail::get_netid;
using detail::get_tt;
using detail::put_netid;
using detail::put_tt;

}  // namespace

void encode_netlist(const netlist::Netlist& nl, BlobWriter& w) {
    w.str(nl.name());
    w.u64(nl.num_cells());
    for (std::size_t i = 0; i < nl.num_cells(); ++i) {
        const netlist::Cell& c = nl.cell(netlist::CellId{i});
        w.u8(static_cast<std::uint8_t>(c.func));
        w.str(c.name);
        w.u64(c.inputs.size());
        for (netlist::NetId in : c.inputs) put_netid(w, in);
        put_netid(w, c.output);
        w.boolean(c.table.has_value());
        if (c.table) put_tt(w, *c.table);
        w.boolean(c.delay_ps.has_value());
        if (c.delay_ps) w.i64(*c.delay_ps);
    }
    w.u64(nl.num_nets());
    for (std::size_t i = 0; i < nl.num_nets(); ++i) {
        const netlist::Net& n = nl.net(netlist::NetId{i});
        w.str(n.name);
        w.u32(n.driver.value());
        w.boolean(n.is_primary_input);
        // Sinks travel verbatim: their order encodes the construction
        // history (rewire_input reorders them), and the mapper's traversals
        // observe it, so fingerprint_netlist (a hash of these bytes) keys
        // on it too.
        w.u64(n.sinks.size());
        for (const netlist::PinRef& s : n.sinks) {
            w.u32(s.cell.value());
            w.u32(s.pin);
        }
    }
    w.u64(nl.primary_inputs().size());
    for (netlist::NetId pi : nl.primary_inputs()) put_netid(w, pi);
    w.u64(nl.primary_outputs().size());
    for (const auto& [name, net] : nl.primary_outputs()) {
        w.str(name);
        put_netid(w, net);
    }
}

netlist::Netlist decode_netlist(BlobReader& r) {
    std::string name = r.str();
    const std::size_t ncells = get_count(r, 16);
    std::vector<netlist::Cell> cells;
    cells.reserve(ncells);
    for (std::size_t i = 0; i < ncells; ++i) {
        netlist::Cell c;
        const std::uint8_t func = r.u8();
        check(func <= static_cast<std::uint8_t>(netlist::CellFunc::Lut),
              "wire: cell function out of range");
        c.func = static_cast<netlist::CellFunc>(func);
        c.name = r.str();
        const std::size_t nin = get_count(r, 4);
        c.inputs.reserve(nin);
        for (std::size_t k = 0; k < nin; ++k) c.inputs.push_back(get_netid(r));
        c.output = get_netid(r);
        if (r.boolean()) c.table = get_tt(r);
        if (r.boolean()) c.delay_ps = r.i64();
        cells.push_back(std::move(c));
    }
    const std::size_t nnets = get_count(r, 14);
    std::vector<netlist::Net> nets;
    nets.reserve(nnets);
    for (std::size_t i = 0; i < nnets; ++i) {
        netlist::Net n;
        n.name = r.str();
        n.driver = netlist::CellId{r.u32()};
        n.is_primary_input = r.boolean();
        const std::size_t nsinks = get_count(r, 8);
        n.sinks.reserve(nsinks);
        for (std::size_t k = 0; k < nsinks; ++k) {
            const std::uint32_t cell = r.u32();
            const std::uint32_t pin = r.u32();
            n.sinks.push_back({netlist::CellId{cell}, pin});
        }
        nets.push_back(std::move(n));
    }
    const std::size_t npis = get_count(r, 4);
    std::vector<netlist::NetId> pis;
    pis.reserve(npis);
    for (std::size_t i = 0; i < npis; ++i) pis.push_back(get_netid(r));
    const std::size_t npos = get_count(r, 12);
    std::vector<std::pair<std::string, netlist::NetId>> pos;
    pos.reserve(npos);
    for (std::size_t i = 0; i < npos; ++i) {
        std::string po_name = r.str();
        pos.emplace_back(std::move(po_name), get_netid(r));
    }
    // from_parts bounds-checks every cross-reference and ends in validate(),
    // so a hostile payload lands here as a thrown base::Error, never as a
    // malformed graph handed to the flow.
    return netlist::Netlist::from_parts(std::move(name), std::move(cells), std::move(nets),
                                        std::move(pis), std::move(pos));
}

void encode_hints(const asynclib::MappingHints& h, BlobWriter& w) {
    w.u64(h.rail_pairs.size());
    for (const auto& [a, b] : h.rail_pairs) {
        put_netid(w, a);
        put_netid(w, b);
    }
    w.u64(h.validity_nets.size());
    for (netlist::NetId n : h.validity_nets) put_netid(w, n);
}

asynclib::MappingHints decode_hints(BlobReader& r) {
    asynclib::MappingHints h;
    const std::size_t npairs = get_count(r, 8);
    h.rail_pairs.reserve(npairs);
    for (std::size_t i = 0; i < npairs; ++i) {
        const netlist::NetId a = get_netid(r);
        const netlist::NetId b = get_netid(r);
        h.rail_pairs.emplace_back(a, b);
    }
    const std::size_t nval = get_count(r, 4);
    h.validity_nets.reserve(nval);
    for (std::size_t i = 0; i < nval; ++i) h.validity_nets.push_back(get_netid(r));
    return h;
}

// --- field-list drivers -----------------------------------------------------

void FieldWriter::bytes(const std::vector<std::uint8_t>& v, std::size_t cap, const char* what) {
    if (v.size() > cap) base::fail(std::string("wire: oversized ") + what);
    w_.str(std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
}

void FieldReader::integer(int& v, const char* name) {
    // A value outside int is corruption, not something to wrap.
    const std::int64_t raw = r_.i64();
    if (raw < std::numeric_limits<int>::min() || raw > std::numeric_limits<int>::max())
        base::fail(std::string("wire: ") + name + " out of range");
    v = static_cast<int>(raw);
}

void FieldReader::bytes(std::vector<std::uint8_t>& v, std::size_t cap, const char* what) {
    const std::string s = r_.str();
    if (s.size() > cap) base::fail(std::string("wire: oversized ") + what);
    v.assign(s.begin(), s.end());
}

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
