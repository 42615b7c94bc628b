#include "cad/wire.hpp"

#include <limits>
#include <string>
#include <utility>

#include "base/check.hpp"
#include "cad/flow_service.hpp"
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

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n, std::uint64_t seed) {
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
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

// --- shared payload helpers -------------------------------------------------

namespace {

using detail::get_count;
using detail::get_netid;
using detail::get_tt;
using detail::put_netid;
using detail::put_tt;

/// An int field travels as an i64; a value outside int is corruption, not
/// something to wrap.
int get_int(BlobReader& r, const char* field) {
    const std::int64_t v = r.i64();
    check(v >= std::numeric_limits<int>::min() && v <= std::numeric_limits<int>::max(),
          std::string("wire: ") + field + " out of range");
    return static_cast<int>(v);
}

void put_bytes(BlobWriter& w, const std::uint8_t* data, std::size_t n) {
    w.str(std::string_view(reinterpret_cast<const char*>(data), n));
}

std::vector<std::uint8_t> get_bytes(BlobReader& r) {
    const std::string s = r.str();
    return {s.begin(), s.end()};
}

}  // namespace

// --- netlist / hints / options codecs ---------------------------------------

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

// Each option codec below is the one place its struct's fields are listed:
// the wire sends these bytes and the artifact keys hash them
// (cad/fingerprint.hpp). The sizeof pins make a new knob fail the build
// until its codec carries it, so client, server and cache cannot drift.

void encode_techmap_options(const TechmapOptions& o, BlobWriter& w) {
    static_assert(sizeof(TechmapOptions) == 16, "TechmapOptions changed: update its codec");
    w.boolean(o.use_rail_pair_hints);
    w.boolean(o.absorb_validity);
    w.boolean(o.greedy_pairing);
    w.u64(o.pairing_window);
}

TechmapOptions decode_techmap_options(BlobReader& r) {
    TechmapOptions o;
    o.use_rail_pair_hints = r.boolean();
    o.absorb_validity = r.boolean();
    o.greedy_pairing = r.boolean();
    o.pairing_window = static_cast<std::size_t>(r.u64());
    return o;
}

void encode_pack_options(const PackOptions& o, BlobWriter& w) {
    static_assert(sizeof(PackOptions) == 1, "PackOptions changed: update its codec");
    w.boolean(o.affinity_clustering);
}

PackOptions decode_pack_options(BlobReader& r) {
    PackOptions o;
    o.affinity_clustering = r.boolean();
    return o;
}

void encode_place_options(const PlaceOptions& o, BlobWriter& w) {
    static_assert(sizeof(PlaceOptions) == 72, "PlaceOptions changed: update its codec");
    w.u64(o.seed);
    w.f64(o.moves_scale);
    w.u8(static_cast<std::uint8_t>(o.algorithm));
    w.u32(o.threads);
    w.i64(o.solver_passes);
    w.i64(o.solver_max_iters);
    w.i64(o.polish_rounds);
    w.f64(o.solver_tolerance);
    w.f64(o.anchor_weight);
    w.f64(o.coarsen_ratio);
    w.i64(o.min_coarse_nodes);
    w.i64(o.max_levels);
}

PlaceOptions decode_place_options(BlobReader& r) {
    PlaceOptions o;
    o.seed = r.u64();
    o.moves_scale = r.f64();
    // The retired engine tags (0 cold annealer, 1 flat analytical, 2 race)
    // must not decode.
    const auto alg = static_cast<PlaceAlgorithm>(r.u8());
    check(alg == PlaceAlgorithm::Multilevel, "wire: place algorithm out of range");
    o.algorithm = alg;
    o.threads = r.u32();
    o.solver_passes = get_int(r, "place.solver_passes");
    o.solver_max_iters = get_int(r, "place.solver_max_iters");
    o.polish_rounds = get_int(r, "place.polish_rounds");
    o.solver_tolerance = r.f64();
    o.anchor_weight = r.f64();
    o.coarsen_ratio = r.f64();
    o.min_coarse_nodes = get_int(r, "place.min_coarse_nodes");
    o.max_levels = get_int(r, "place.max_levels");
    return o;
}

void encode_router_options(const RouterOptions& o, BlobWriter& w) {
    static_assert(sizeof(RouterOptions) == 56, "RouterOptions changed: update its codec");
    w.i64(o.max_iterations);
    w.f64(o.pres_fac_first);
    w.f64(o.pres_fac_mult);
    w.f64(o.hist_fac);
    w.f64(o.astar_fac);
    w.i64(o.stall_full_reroute);
    w.u32(o.threads);
    w.u32(o.bin_margin);
    w.u32(o.min_bin_dim);
}

RouterOptions decode_router_options(BlobReader& r) {
    RouterOptions o;
    o.max_iterations = get_int(r, "route.max_iterations");
    o.pres_fac_first = r.f64();
    o.pres_fac_mult = r.f64();
    o.hist_fac = r.f64();
    o.astar_fac = r.f64();
    o.stall_full_reroute = get_int(r, "route.stall_full_reroute");
    o.threads = r.u32();
    o.bin_margin = r.u32();
    o.min_bin_dim = r.u32();
    return o;
}

void encode_flow_options(const FlowOptions& o, BlobWriter& w) {
    // prebuilt_rr and artifact_store are plumbing and stay off the wire.
    static_assert(sizeof(FlowOptions) == 208, "FlowOptions changed: update its codec");
    w.u64(o.seed);
    encode_techmap_options(o.techmap, w);
    encode_pack_options(o.pack, w);
    encode_place_options(o.place, w);
    encode_router_options(o.route, w);
    w.f64(o.pde_extra_margin);
    w.boolean(o.verify_mapping);
}

FlowOptions decode_flow_options(BlobReader& r) {
    FlowOptions o;
    o.seed = r.u64();
    o.techmap = decode_techmap_options(r);
    o.pack = decode_pack_options(r);
    o.place = decode_place_options(r);
    o.route = decode_router_options(r);
    o.pde_extra_margin = r.f64();
    o.verify_mapping = r.boolean();
    return o;
}

// --- message payloads -------------------------------------------------------

namespace {

/// Run `f` over a reader of `p` and require full consumption — every
/// message decoder shares the cad/serialize "trailing garbage = corrupt"
/// contract.
template <typename F>
auto decode_full(const std::vector<std::uint8_t>& p, F&& f) {
    BlobReader r(p);
    auto v = f(r);
    r.expect_end();
    return v;
}

}  // namespace

std::vector<std::uint8_t> encode_payload(const HelloMsg& m) {
    BlobWriter w;
    w.str(m.client_name);
    w.u32(m.protocol);
    return std::move(w).take();
}

HelloMsg decode_hello(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        HelloMsg m;
        m.client_name = r.str();
        m.protocol = r.u32();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const HelloOkMsg& m) {
    BlobWriter w;
    w.u32(m.lane);
    w.u32(m.max_pending);
    w.u32(m.threads);
    return std::move(w).take();
}

HelloOkMsg decode_hello_ok(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        HelloOkMsg m;
        m.lane = r.u32();
        m.max_pending = r.u32();
        m.threads = r.u32();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const SubmitMsg& m) {
    BlobWriter w;
    w.str(m.name);
    w.i64(m.priority);
    encode_netlist(m.nl, w);
    encode_hints(m.hints, w);
    encode_arch(m.arch, w);
    encode_flow_options(m.opts, w);
    return std::move(w).take();
}

SubmitMsg decode_submit(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        SubmitMsg m;
        m.name = r.str();
        m.priority = get_int(r, "priority");
        m.nl = decode_netlist(r);
        m.hints = decode_hints(r);
        // Hint net ids are meaningless outside the netlist they arrived
        // with; bound them here so the mapper never indexes out of range.
        const std::size_t nn = m.nl.num_nets();
        for (const auto& [a, b] : m.hints.rail_pairs) {
            check(a.valid() && a.index() < nn && b.valid() && b.index() < nn,
                  "wire: hint rail pair out of range");
        }
        for (netlist::NetId v : m.hints.validity_nets)
            check(v.valid() && v.index() < nn, "wire: hint validity net out of range");
        m.arch = decode_arch(r);
        m.opts = decode_flow_options(r);
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const SubmitOkMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    w.u32(m.queue_depth);
    return std::move(w).take();
}

SubmitOkMsg decode_submit_ok(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        SubmitOkMsg m;
        m.job_id = r.u64();
        m.queue_depth = r.u32();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const BusyMsg& m) {
    BlobWriter w;
    w.u32(m.queue_depth);
    w.u32(m.limit);
    w.u32(m.retry_after_ms);
    return std::move(w).take();
}

BusyMsg decode_busy(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        BusyMsg m;
        m.queue_depth = r.u32();
        m.limit = r.u32();
        m.retry_after_ms = r.u32();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const StatusMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    return std::move(w).take();
}

StatusMsg decode_status(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        StatusMsg m;
        m.job_id = r.u64();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const StatusReplyMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    w.u8(m.status);
    w.u64(m.start_seq);
    w.f64(m.wall_ms);
    w.f64(m.queue_ms);
    w.str(m.error);
    return std::move(w).take();
}

StatusReplyMsg decode_status_reply(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        StatusReplyMsg m;
        m.job_id = r.u64();
        m.status = r.u8();
        check(m.status <= static_cast<std::uint8_t>(FlowJobStatus::Cancelled),
              "wire: job status out of range");
        m.start_seq = r.u64();
        m.wall_ms = r.f64();
        m.queue_ms = r.f64();
        m.error = r.str();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const WaitMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    return std::move(w).take();
}

WaitMsg decode_wait(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        WaitMsg m;
        m.job_id = r.u64();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const ResultBeginMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    w.u8(m.status);
    w.str(m.error);
    w.f64(m.wall_ms);
    w.f64(m.queue_ms);
    w.u64(m.start_seq);
    w.str(m.telemetry_json);
    w.u64(m.result_bytes);
    return std::move(w).take();
}

ResultBeginMsg decode_result_begin(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        ResultBeginMsg m;
        m.job_id = r.u64();
        m.status = r.u8();
        check(m.status <= static_cast<std::uint8_t>(FlowJobStatus::Cancelled),
              "wire: job status out of range");
        m.error = r.str();
        m.wall_ms = r.f64();
        m.queue_ms = r.f64();
        m.start_seq = r.u64();
        m.telemetry_json = r.str();
        m.result_bytes = r.u64();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const ResultChunkMsg& m) {
    check(m.bytes.size() <= kResultChunkBytes, "wire: oversized result chunk");
    BlobWriter w;
    w.u64(m.job_id);
    w.u64(m.offset);
    put_bytes(w, m.bytes.data(), m.bytes.size());
    return std::move(w).take();
}

ResultChunkMsg decode_result_chunk(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        ResultChunkMsg m;
        m.job_id = r.u64();
        m.offset = r.u64();
        m.bytes = get_bytes(r);
        check(m.bytes.size() <= kResultChunkBytes, "wire: oversized result chunk");
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const ResultEndMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    w.u64(m.checksum);
    return std::move(w).take();
}

ResultEndMsg decode_result_end(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        ResultEndMsg m;
        m.job_id = r.u64();
        m.checksum = r.u64();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const CancelMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    return std::move(w).take();
}

CancelMsg decode_cancel(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        CancelMsg m;
        m.job_id = r.u64();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const CancelReplyMsg& m) {
    BlobWriter w;
    w.u64(m.job_id);
    w.boolean(m.cancelled);
    return std::move(w).take();
}

CancelReplyMsg decode_cancel_reply(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        CancelReplyMsg m;
        m.job_id = r.u64();
        m.cancelled = r.boolean();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const ReportMsg&) { return {}; }

ReportMsg decode_report(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader&) { return ReportMsg{}; });
}

std::vector<std::uint8_t> encode_payload(const ReportReplyMsg& m) {
    BlobWriter w;
    w.str(m.json);
    return std::move(w).take();
}

ReportReplyMsg decode_report_reply(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        ReportReplyMsg m;
        m.json = r.str();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const DrainMsg&) { return {}; }

DrainMsg decode_drain(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader&) { return DrainMsg{}; });
}

std::vector<std::uint8_t> encode_payload(const DrainOkMsg& m) {
    BlobWriter w;
    w.u64(m.jobs_total);
    return std::move(w).take();
}

DrainOkMsg decode_drain_ok(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        DrainOkMsg m;
        m.jobs_total = r.u64();
        return m;
    });
}

std::vector<std::uint8_t> encode_payload(const ErrorMsg& m) {
    BlobWriter w;
    w.u32(m.code);
    w.str(m.message);
    return std::move(w).take();
}

ErrorMsg decode_error(const std::vector<std::uint8_t>& p) {
    return decode_full(p, [](BlobReader& r) {
        ErrorMsg m;
        m.code = r.u32();
        m.message = r.str();
        return m;
    });
}

}  // namespace afpga::cad::wire
