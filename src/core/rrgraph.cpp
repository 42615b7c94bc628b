#include "core/rrgraph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "base/check.hpp"
#include "base/threadpool.hpp"
#include "base/timer.hpp"

namespace afpga::core {

using base::check;

std::string to_string(RRKind k) {
    switch (k) {
        case RRKind::Opin: return "OPIN";
        case RRKind::Ipin: return "IPIN";
        case RRKind::ChanX: return "CHANX";
        case RRKind::ChanY: return "CHANY";
    }
    return "?";
}

RRGraph::RRGraph(const ArchSpec& arch) : geom_(arch) {
    arch.validate();
    build(nullptr);
}

RRGraph::RRGraph(const ArchSpec& arch, base::ThreadPool& pool) : geom_(arch) {
    arch.validate();
    build(&pool);
}

// Node ids are pure functions of coordinates: fixed blocks laid out once,
// so the fill order can be anything (including concurrent) without changing
// the graph.
void RRGraph::build_nodes() {
    const ArchSpec& a = geom_.arch();
    const std::uint32_t W = a.width;
    const std::uint32_t H = a.height;
    const std::uint32_t T = a.channel_width;

    base_plb_opin_ = 0;
    base_plb_ipin_ = W * H * a.plb_outputs;
    base_pad_opin_ = base_plb_ipin_ + W * H * a.plb_inputs;
    base_pad_ipin_ = base_pad_opin_ + geom_.num_pads();
    base_chanx_ = base_pad_ipin_ + geom_.num_pads();
    base_chany_ = base_chanx_ + (H + 1) * W * T;
    nodes_.resize(std::size_t{base_chany_} + std::size_t{W + 1} * H * T);

    for (std::uint32_t y = 0; y < H; ++y)
        for (std::uint32_t x = 0; x < W; ++x)
            for (std::uint32_t p = 0; p < a.plb_outputs; ++p)
                nodes_[base_plb_opin_ + (y * W + x) * a.plb_outputs + p] = {
                    RRKind::Opin, static_cast<std::uint16_t>(x), static_cast<std::uint16_t>(y),
                    static_cast<std::uint16_t>(p), false, a.pin_delay_ps};
    for (std::uint32_t y = 0; y < H; ++y)
        for (std::uint32_t x = 0; x < W; ++x)
            for (std::uint32_t p = 0; p < a.plb_inputs; ++p)
                nodes_[base_plb_ipin_ + (y * W + x) * a.plb_inputs + p] = {
                    RRKind::Ipin, static_cast<std::uint16_t>(x), static_cast<std::uint16_t>(y),
                    static_cast<std::uint16_t>(p), false, a.pin_delay_ps};
    for (std::uint32_t p = 0; p < geom_.num_pads(); ++p) {
        nodes_[base_pad_opin_ + p] = {RRKind::Opin, static_cast<std::uint16_t>(p & 0xFFFF),
                                      static_cast<std::uint16_t>(p >> 16), 0, true,
                                      a.pin_delay_ps};
        nodes_[base_pad_ipin_ + p] = {RRKind::Ipin, static_cast<std::uint16_t>(p & 0xFFFF),
                                      static_cast<std::uint16_t>(p >> 16), 0, true,
                                      a.pin_delay_ps};
    }
    for (std::uint32_t ych = 0; ych <= H; ++ych)
        for (std::uint32_t x = 0; x < W; ++x)
            for (std::uint32_t t = 0; t < T; ++t)
                nodes_[base_chanx_ + (ych * W + x) * T + t] = {
                    RRKind::ChanX, static_cast<std::uint16_t>(x),
                    static_cast<std::uint16_t>(ych), static_cast<std::uint16_t>(t), false,
                    a.wire_delay_ps};
    for (std::uint32_t xch = 0; xch <= W; ++xch)
        for (std::uint32_t y = 0; y < H; ++y)
            for (std::uint32_t t = 0; t < T; ++t)
                nodes_[base_chany_ + (xch * H + y) * T + t] = {
                    RRKind::ChanY, static_cast<std::uint16_t>(xch),
                    static_cast<std::uint16_t>(y), static_cast<std::uint16_t>(t), false,
                    a.wire_delay_ps};
    n_wires_ = (std::size_t{H + 1} * W + std::size_t{W + 1} * H) * T;
}

namespace {
/// Tracks a connection-box pin taps: max(1, round(fc * T)) — the exact
/// number of edges connect_pin_to_channel emits per pin.
std::uint32_t cb_tracks(double fc, std::uint32_t T) {
    return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::lround(fc * T)));
}
}  // namespace

std::size_t RRGraph::count_conn_row() const {
    const ArchSpec& a = geom_.arch();
    return std::size_t{a.width} * (a.plb_outputs * cb_tracks(a.fc_out, a.channel_width) +
                                   a.plb_inputs * cb_tracks(a.fc_in, a.channel_width));
}

std::size_t RRGraph::count_pads() const {
    const ArchSpec& a = geom_.arch();
    return std::size_t{geom_.num_pads()} *
           (cb_tracks(a.fc_out, a.channel_width) + cb_tracks(a.fc_in, a.channel_width));
}

std::size_t RRGraph::count_switch_row(std::uint32_t jy) const {
    const ArchSpec& a = geom_.arch();
    std::size_t pairs = 0;
    for (std::uint32_t jx = 0; jx <= a.width; ++jx) {
        const bool has_left = jx > 0;
        const bool has_right = jx < a.width;
        const bool has_below = jy > 0;
        const bool has_above = jy < a.height;
        pairs += (has_left && has_right) + (has_below && has_above) +
                 (has_left && has_below) + (has_left && has_above) +
                 (has_right && has_below) + (has_right && has_above);
    }
    return pairs * 2 * a.channel_width;  // each pair is a biedge, per track
}

// --- connection boxes of one PLB row: pins <-> adjacent channels -------------
void RRGraph::emit_conn_row(std::uint32_t y, EdgeSink& out) const {
    const ArchSpec& a = geom_.arch();
    for (std::uint32_t x = 0; x < a.width; ++x) {
        const PlbCoord c{x, y};
        for (std::uint32_t p = 0; p < a.plb_outputs; ++p)
            connect_pin_to_channel(plb_opin(c, p), true, geom_.plb_pin_side(p), x, y, p, out);
        for (std::uint32_t p = 0; p < a.plb_inputs; ++p)
            connect_pin_to_channel(plb_ipin(c, p), false, geom_.plb_pin_side(p), x, y, p + 3,
                                   out);
    }
}

// --- pads <-> perimeter channels ---------------------------------------------
void RRGraph::emit_pads(EdgeSink& out) const {
    for (std::uint32_t pad = 0; pad < geom_.num_pads(); ++pad) {
        const Side side = geom_.pad_iob(pad).side;
        const PlbCoord c = pad_anchor(pad);
        connect_pin_to_channel(pad_opin(pad), true, side, c.x, c.y, pad, out);
        connect_pin_to_channel(pad_ipin(pad), false, side, c.x, c.y, pad + 1, out);
    }
}

PlbCoord RRGraph::pad_anchor(std::uint32_t pad) const {
    const IobCoord io = geom_.pad_iob(pad);
    const std::uint32_t W = geom_.arch().width;
    const std::uint32_t H = geom_.arch().height;
    switch (io.side) {
        case Side::Bottom: return {io.offset, 0};
        case Side::Top: return {io.offset, H - 1};
        case Side::Left: return {0, io.offset};
        case Side::Right: return {W - 1, io.offset};
    }
    return {0, 0};
}

// --- switch boxes of one junction row: wire <-> wire -------------------------
void RRGraph::emit_switch_row(std::uint32_t jy, EdgeSink& out) const {
    const ArchSpec& a = geom_.arch();
    const std::uint32_t W = a.width;
    const std::uint32_t H = a.height;
    const std::uint32_t T = a.channel_width;
    auto biedge = [&out](std::uint32_t m, std::uint32_t n) {
        out.emit(m, n);
        out.emit(n, m);
    };
    for (std::uint32_t jx = 0; jx <= W; ++jx) {
        for (std::uint32_t t = 0; t < T; ++t) {
            const bool has_left = jx > 0;
            const bool has_right = jx < W;
            const bool has_below = jy > 0;
            const bool has_above = jy < H;
            // Two turn permutations with opposite parity behaviour:
            // twist_up flips track parity, twist_dn preserves it (for
            // even T). Using one of each keeps the graph connected across
            // parity classes — a parity-flipping pair would split it.
            const std::uint32_t twist_up = (t + 1) % T;
            const std::uint32_t twist_dn = (T - t) % T;
            if (has_left && has_right)
                biedge(chanx(jy, jx - 1, t), chanx(jy, jx, t));
            if (has_below && has_above)
                biedge(chany(jx, jy - 1, t), chany(jx, jy, t));
            if (has_left && has_below)
                biedge(chanx(jy, jx - 1, t), chany(jx, jy - 1, twist_up));
            if (has_left && has_above)
                biedge(chanx(jy, jx - 1, t), chany(jx, jy, twist_dn));
            if (has_right && has_below)
                biedge(chanx(jy, jx, t), chany(jx, jy - 1, twist_dn));
            if (has_right && has_above)
                biedge(chanx(jy, jx, t), chany(jx, jy, twist_up));
        }
    }
}

void RRGraph::build(base::ThreadPool* pool) {
    const std::uint32_t H = geom_.arch().height;
    build_nodes();

    // Edge generation is decomposed into independent units matching the
    // serial emission order exactly: connection boxes per PLB row (0..H-1),
    // then all pads, then switch boxes per junction row (0..H). The exact
    // closed-form edge count of every unit pre-sizes the global edge
    // arrays, each unit writes its own disjoint span, and edge ids come out
    // identical however the units were scheduled.
    const std::size_t num_units = std::size_t{H} + 1 + (std::size_t{H} + 1);
    std::vector<std::size_t> first(num_units + 1, 0);
    for (std::size_t u = 0; u < num_units; ++u) {
        std::size_t cnt = 0;
        if (u < H)
            cnt = count_conn_row();
        else if (u == H)
            cnt = count_pads();
        else
            cnt = count_switch_row(static_cast<std::uint32_t>(u - H - 1));
        first[u + 1] = first[u] + cnt;
    }
    edge_from_.resize(first[num_units]);
    edge_to_.resize(first[num_units]);
    auto emit_unit = [&](std::size_t u) {
        EdgeSink sink{edge_from_.data(), edge_to_.data(), first[u]};
        if (u < H)
            emit_conn_row(static_cast<std::uint32_t>(u), sink);
        else if (u == H)
            emit_pads(sink);
        else
            emit_switch_row(static_cast<std::uint32_t>(u - H - 1), sink);
        check(sink.at == first[u + 1], "rrgraph: unit edge count mismatch");
    };
    if (pool != nullptr && pool->num_workers() > 1) {
        pool->parallel_for(num_units, emit_unit);
    } else {
        for (std::size_t u = 0; u < num_units; ++u) emit_unit(u);
    }

    build_csr(pool);

    // SoA hot arrays: a pure function of nodes_, so serial and pool-backed
    // builds stay byte-identical regardless of schedule.
    hot_word_.resize(nodes_.size());
    base_cost_.resize(nodes_.size());
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        const RRNode& nd = nodes_[n];
        hot_word_[n] = RRNodeWord::pack(nd.kind, nd.x, nd.y, nd.track, nd.is_pad);
        base_cost_[n] = static_cast<double>(nd.delay_ps > 0 ? nd.delay_ps : 1);
    }
    // A pad pin's word holds its anchor PLB, not its index: the router's
    // Manhattan term then measures to where the pad meets the channels.
    for (std::uint32_t pad = 0; pad < geom_.num_pads(); ++pad) {
        const PlbCoord c = pad_anchor(pad);
        for (const std::uint32_t n : {pad_opin(pad), pad_ipin(pad)})
            hot_word_[n] = RRNodeWord::pack(nodes_[n].kind, static_cast<std::uint16_t>(c.x),
                                            static_cast<std::uint16_t>(c.y), 0, true);
    }

    build_lookahead();
}

// The lookahead table: one reverse search over base costs from the input
// pins of the centre PLB c. g(u) = min over edges u->v of base(v) + g(v),
// with g = 0 on c's input pins. Wire<->wire edges are all bidirectional
// (emit_switch_row only emits biedges), so a wire's wire in-neighbours are
// its out-neighbours and no reverse adjacency is needed. Every wire has the
// same base cost and every input pin the same, so g grows by one wire per
// hop and a FIFO labels wires in cost order: this Dijkstra is a breadth-first
// search, and a wire's first label is final. It stops once every wire of the
// window is labelled, so the work stays about constant whatever the fabric
// size.
void RRGraph::build_lookahead() {
    base::WallTimer timer;
    const ArchSpec& a = geom_.arch();
    const std::uint32_t W = a.width;
    const std::uint32_t H = a.height;
    const std::uint32_t T = a.channel_width;
    constexpr std::int32_t R = kLookaheadRadius;
    lookahead_tracks_ = std::max({T, a.plb_inputs, a.plb_outputs});
    lookahead_wire_unit_ = static_cast<double>(std::max<std::int64_t>(a.wire_delay_ps, 1));
    lookahead_.assign(std::size_t{4} * lookahead_tracks_ * kLookaheadSpan * kLookaheadSpan, -1.0);
    const PlbCoord c{W / 2, H / 2};

    // Table slot of a wire of the window, or SIZE_MAX.
    auto window_slot = [&](std::uint32_t n) {
        const RRNodeWord nw = hot_word_[n];
        const auto dx = static_cast<std::int32_t>(nw.x()) - static_cast<std::int32_t>(c.x) + R;
        const auto dy = static_cast<std::int32_t>(nw.y()) - static_cast<std::int32_t>(c.y) + R;
        if (static_cast<std::uint32_t>(dx) >= kLookaheadSpan ||
            static_cast<std::uint32_t>(dy) >= kLookaheadSpan)
            return SIZE_MAX;
        return lookahead_index(nw.kind(), nw.track(), static_cast<std::uint32_t>(dx),
                               static_cast<std::uint32_t>(dy));
    };

    // Window wires on the fabric: the search runs until all are labelled.
    std::size_t remaining = 0;
    for (std::int32_t d1 = -R; d1 <= R + 1; ++d1)
        for (std::int32_t d2 = -R; d2 <= R + 1; ++d2) {
            const std::int64_t x = std::int64_t{c.x} + d1;
            const std::int64_t y = std::int64_t{c.y} + d2;
            if (x < 0 || y < 0) continue;
            remaining += (x < W && y <= H) ? T : 0;  // ChanX (x, ych = y)
            remaining += (x <= W && y < H) ? T : 0;  // ChanY (xch = x, y)
        }

    // A wire's label is its cost g, carried in the FIFO entry; the window's
    // values land in the table, which is all the output pins below read.
    std::vector<std::uint8_t> labelled(nodes_.size(), 0);
    std::vector<std::pair<std::uint32_t, double>> fifo;
    auto label = [&](std::uint32_t wire, double g) {
        labelled[wire] = 1;
        fifo.emplace_back(wire, g);
        if (const std::size_t slot = window_slot(wire); slot != SIZE_MAX) {
            lookahead_[slot] = g;
            --remaining;
        }
    };
    // Seeds: the wires of c's four channel segments that tap one of its pins.
    for (std::uint32_t t = 0; t < T; ++t)
        for (const std::uint32_t wire : {chanx(c.y, c.x, t), chanx(c.y + 1, c.x, t),
                                         chany(c.x, c.y, t), chany(c.x + 1, c.y, t)})
            for (const OutEdge oe : out(wire)) {
                const RRNodeWord to = hot_word_[oe.to];
                if (to.kind() == RRKind::Ipin && !to.is_pad() && to.x() == c.x &&
                    to.y() == c.y) {
                    label(wire, base_cost_[oe.to]);
                    break;
                }
            }
    for (std::size_t head = 0; head < fifo.size() && remaining > 0; ++head) {
        const auto [v, g_v] = fifo[head];
        const double g = g_v + base_cost_[v];
        for (const OutEdge oe : out(v)) {
            const RRKind k = hot_word_[oe.to].kind();
            if ((k == RRKind::ChanX || k == RRKind::ChanY) && !labelled[oe.to]) label(oe.to, g);
        }
    }

    // PLB output pins within R of c: every wire they drive lies in the
    // window, so each one's value is exact; a pin that reaches no pin of c
    // keeps -1.
    for (std::int32_t dy = -R; dy <= R; ++dy)
        for (std::int32_t dx = -R; dx <= R; ++dx) {
            const std::int64_t x = std::int64_t{c.x} + dx;
            const std::int64_t y = std::int64_t{c.y} + dy;
            if (x < 0 || y < 0 || x >= W || y >= H) continue;
            const PlbCoord p{static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y)};
            for (std::uint32_t pin = 0; pin < a.plb_outputs; ++pin) {
                double& g = lookahead_[lookahead_index(RRKind::Opin, pin,
                                                       static_cast<std::uint32_t>(dx + R),
                                                       static_cast<std::uint32_t>(dy + R))];
                for (const OutEdge oe : out(plb_opin(p, pin))) {
                    const double g_wire = lookahead_[window_slot(oe.to)];
                    if (g_wire >= 0.0 && (g < 0.0 || base_cost_[oe.to] + g_wire < g))
                        g = base_cost_[oe.to] + g_wire;
                }
            }
        }
    lookahead_ms_ = timer.elapsed_ms();
}

void RRGraph::build_csr(base::ThreadPool* pool) {
    // validate() bounds wire_capacity to 1..64, so the narrowing is safe.
    const auto cap_wire = static_cast<std::uint16_t>(geom_.arch().wire_capacity);
    capacity_.resize(nodes_.size());
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        const bool is_wire = nodes_[n].kind == RRKind::ChanX || nodes_[n].kind == RRKind::ChanY;
        capacity_[n] = is_wire ? cap_wire : std::uint16_t{1};
    }

    // Group edges by source node, in ascending edge-id order per node (the
    // order add_edge historically produced). Both passes are partitioned
    // over edge ranges: each part histograms its range, a serial scan turns
    // the per-part counts into absolute per-(part, node) start offsets, and
    // each part then places its edges independently — the final layout is
    // the same for any part count, so the CSR stays deterministic.
    const std::size_t N = nodes_.size();
    const std::size_t E = edge_to_.size();
    const std::size_t parts =
        pool != nullptr && pool->num_workers() > 1
            ? std::min<std::size_t>(pool->num_workers(), 8)
            : 1;
    auto range_of = [&](std::size_t p) {
        return std::pair<std::size_t, std::size_t>{E * p / parts, E * (p + 1) / parts};
    };
    std::vector<std::vector<std::uint32_t>> cnt(parts);
    auto histogram = [&](std::size_t p) {
        cnt[p].assign(N, 0);
        const auto [b, e] = range_of(p);
        for (std::size_t i = b; i < e; ++i) ++cnt[p][edge_from_[i]];
    };
    if (parts > 1) {
        pool->parallel_for(parts, histogram);
    } else {
        histogram(0);
    }

    // Per-node prefix over parts: cnt[p][n] becomes the absolute CSR index
    // where part p's first edge of node n lands.
    csr_first_.assign(N + 1, 0);
    for (std::size_t n = 0; n < N; ++n) {
        std::uint32_t at = csr_first_[n];
        for (std::size_t p = 0; p < parts; ++p) {
            const std::uint32_t c = cnt[p][n];
            cnt[p][n] = at;
            at += c;
        }
        csr_first_[n + 1] = at;
    }

    csr_adj_.resize(E);
    auto place = [&](std::size_t p) {
        const auto [b, e] = range_of(p);
        for (std::size_t i = b; i < e; ++i) {
            const std::uint32_t from = edge_from_[i];
            csr_adj_[cnt[p][from]++] = {static_cast<std::uint32_t>(i), edge_to_[i]};
        }
    };
    if (parts > 1) {
        pool->parallel_for(parts, place);
    } else {
        place(0);
    }
}

void RRGraph::connect_pin_to_channel(std::uint32_t pin_node, bool pin_drives, Side side,
                                     std::uint32_t cx, std::uint32_t cy, std::uint32_t seed,
                                     EdgeSink& out) const {
    const ArchSpec& a = geom_.arch();
    const std::uint32_t T = a.channel_width;
    const double fc = pin_drives ? a.fc_out : a.fc_in;
    const std::uint32_t n_tracks = cb_tracks(fc, T);
    const std::uint32_t stride = std::max<std::uint32_t>(1, T / n_tracks);
    for (std::uint32_t j = 0; j < n_tracks; ++j) {
        const std::uint32_t t = (seed + j * stride) % T;
        std::uint32_t wire = 0;
        switch (side) {
            case Side::Bottom: wire = chanx(cy, cx, t); break;
            case Side::Top: wire = chanx(cy + 1, cx, t); break;
            case Side::Left: wire = chany(cx, cy, t); break;
            case Side::Right: wire = chany(cx + 1, cy, t); break;
        }
        if (pin_drives)
            out.emit(pin_node, wire);
        else
            out.emit(wire, pin_node);
    }
}

std::uint32_t RRGraph::plb_opin(PlbCoord c, std::uint32_t pin) const {
    const ArchSpec& a = geom_.arch();
    check(c.x < a.width && c.y < a.height && pin < a.plb_outputs, "plb_opin: out of range");
    return base_plb_opin_ + (c.y * a.width + c.x) * a.plb_outputs + pin;
}

std::uint32_t RRGraph::plb_ipin(PlbCoord c, std::uint32_t pin) const {
    const ArchSpec& a = geom_.arch();
    check(c.x < a.width && c.y < a.height && pin < a.plb_inputs, "plb_ipin: out of range");
    return base_plb_ipin_ + (c.y * a.width + c.x) * a.plb_inputs + pin;
}

std::uint32_t RRGraph::pad_opin(std::uint32_t pad) const {
    check(pad < geom_.num_pads(), "pad_opin: out of range");
    return base_pad_opin_ + pad;
}

std::uint32_t RRGraph::pad_ipin(std::uint32_t pad) const {
    check(pad < geom_.num_pads(), "pad_ipin: out of range");
    return base_pad_ipin_ + pad;
}

std::uint32_t RRGraph::chanx(std::uint32_t ych, std::uint32_t x, std::uint32_t track) const {
    const ArchSpec& a = geom_.arch();
    check(ych <= a.height && x < a.width && track < a.channel_width, "chanx: out of range");
    return base_chanx_ + (ych * a.width + x) * a.channel_width + track;
}

std::uint32_t RRGraph::chany(std::uint32_t xch, std::uint32_t y, std::uint32_t track) const {
    const ArchSpec& a = geom_.arch();
    check(xch <= a.width && y < a.height && track < a.channel_width, "chany: out of range");
    return base_chany_ + (xch * a.height + y) * a.channel_width + track;
}

PlbCoord RRGraph::ipin_plb(std::uint32_t node) const {
    const RRNode& n = nodes_.at(node);
    check(n.kind == RRKind::Ipin && !n.is_pad, "ipin_plb: not a PLB input pin");
    return {n.x, n.y};
}

std::uint32_t RRGraph::pad_of(std::uint32_t node) const {
    const RRNode& n = nodes_.at(node);
    check(n.is_pad, "pad_of: not a pad pin");
    return static_cast<std::uint32_t>(n.x) | (static_cast<std::uint32_t>(n.y) << 16);
}

double RRGraph::avg_wire_fanout() const {
    std::size_t total = 0;
    std::size_t wires = 0;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].kind == RRKind::ChanX || nodes_[i].kind == RRKind::ChanY) {
            ++wires;
            total += csr_first_[i + 1] - csr_first_[i];
        }
    }
    return wires == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(wires);
}

std::uint64_t RRGraph::content_fingerprint() const noexcept {
    // FNV-1a over every node field and both edge endpoint arrays.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (const RRNode& n : nodes_) {
        mix(static_cast<std::uint64_t>(n.kind) | (std::uint64_t{n.x} << 8) |
            (std::uint64_t{n.y} << 24) | (std::uint64_t{n.track} << 40) |
            (std::uint64_t{n.is_pad} << 56));
        mix(static_cast<std::uint64_t>(n.delay_ps));
    }
    for (std::size_t e = 0; e < edge_from_.size(); ++e) {
        mix(edge_from_[e]);
        mix(edge_to_[e]);
    }
    for (const double c : lookahead_) mix(std::bit_cast<std::uint64_t>(c));
    return h;
}

}  // namespace afpga::core
