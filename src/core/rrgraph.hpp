// The routing-resource graph of the island fabric.
//
// Nodes are programmable sites a signal can occupy: PLB output pins (OPIN),
// PLB input pins (IPIN), pad pins, and unit-length channel wires (CHANX /
// CHANY). Directed edges are programmable switches: opin->wire (connection
// box, Fc_out), wire->ipin (connection box, Fc_in) and wire<->wire at the
// switch boxes (a Wilton-style turn pattern plus straight-through).
//
// Because the PLB's Interconnection Matrix is a crossbar, all input pins of a
// PLB are logically equivalent: the router may deliver a net to ANY free
// IPIN of the target PLB and the IM distributes it internally — this is the
// architectural payoff of the IM and is exploited by cad::Router.
//
// Construction is deterministic and optionally parallel: node ids are pure
// functions of their coordinates; each per-row edge-generation unit has an
// exact closed-form edge count, so the units write directly into disjoint
// pre-sized spans of the shared edge arrays, and a partitioned
// histogram/placement pass then stitches the edges into the CSR adjacency —
// every step is schedule-independent, so the serial build and the
// pool-backed build produce byte-identical node/edge arrays
// (content_fingerprint() pins this in the tests).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/fabric.hpp"

namespace afpga::base {
class ThreadPool;
}

namespace afpga::core {

enum class RRKind : std::uint8_t { Opin, Ipin, ChanX, ChanY };

[[nodiscard]] std::string to_string(RRKind k);

struct RRNode {
    RRKind kind = RRKind::ChanX;
    std::uint16_t x = 0;      ///< PLB x / pad index low half / channel coordinate
    std::uint16_t y = 0;
    std::uint16_t track = 0;  ///< wire track, or pin index for Opin/Ipin
    bool is_pad = false;      ///< pin nodes: belongs to an I/O pad, not a PLB
    std::int64_t delay_ps = 0;
};

/// Packed hot-path view of one RR node: position, kind, the pad flag and the
/// track in a single 8-byte word. The router's wavefront loop (heuristic +
/// bounding-box tests) reads only these fields, and reading them through the
/// dense position-word array touches half the bytes per node that chasing
/// RRNode structs would (and never drags the cold delay field into cache).
struct RRNodeWord {
    std::uint64_t w = 0;

    RRNodeWord() = default;
    explicit constexpr RRNodeWord(std::uint64_t word) noexcept : w(word) {}
    static constexpr RRNodeWord pack(RRKind kind, std::uint16_t x, std::uint16_t y,
                                     std::uint16_t track, bool is_pad) noexcept {
        return RRNodeWord{std::uint64_t{x} | (std::uint64_t{y} << 16) |
                          (static_cast<std::uint64_t>(kind) << 32) |
                          (std::uint64_t{is_pad} << 40) | (std::uint64_t{track} << 48)};
    }
    [[nodiscard]] constexpr std::uint32_t x() const noexcept {
        return static_cast<std::uint32_t>(w & 0xFFFF);
    }
    [[nodiscard]] constexpr std::uint32_t y() const noexcept {
        return static_cast<std::uint32_t>((w >> 16) & 0xFFFF);
    }
    [[nodiscard]] constexpr RRKind kind() const noexcept {
        return static_cast<RRKind>((w >> 32) & 0xFF);
    }
    [[nodiscard]] constexpr bool is_pad() const noexcept { return ((w >> 40) & 1) != 0; }
    /// Wire track, or pin index for Opin/Ipin.
    [[nodiscard]] constexpr std::uint32_t track() const noexcept {
        return static_cast<std::uint32_t>(w >> 48);
    }
    /// Grid position for the router's Manhattan term: a channel wire sits on
    /// its span's midpoint along the channel axis, a pin at its PLB's centre.
    [[nodiscard]] constexpr std::pair<double, double> grid_pos() const noexcept {
        switch (kind()) {
            case RRKind::ChanX: return {x() + 0.5, static_cast<double>(y())};
            case RRKind::ChanY: return {static_cast<double>(x()), y() + 0.5};
            default: return {x() + 0.5, y() + 0.5};
        }
    }
};

class RRGraph {
public:
    /// Serial build.
    explicit RRGraph(const ArchSpec& arch);
    /// Parallel build on `pool`: per-row edge generation into pre-sized
    /// disjoint spans plus a deterministic partitioned CSR stitch —
    /// byte-identical to the serial build, only faster.
    RRGraph(const ArchSpec& arch, base::ThreadPool& pool);

    [[nodiscard]] const ArchSpec& arch() const noexcept { return geom_.arch(); }
    [[nodiscard]] const FabricGeometry& geometry() const noexcept { return geom_; }

    [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t num_edges() const noexcept { return edge_to_.size(); }
    [[nodiscard]] const RRNode& node(std::uint32_t id) const { return nodes_.at(id); }

    [[nodiscard]] std::uint32_t edge_target(std::uint32_t edge) const { return edge_to_.at(edge); }
    [[nodiscard]] std::uint32_t edge_source(std::uint32_t edge) const {
        return edge_from_.at(edge);
    }

    // --- flat CSR adjacency (router hot path) --------------------------------
    /// One adjacency entry: the edge id and its target node.
    struct OutEdge {
        std::uint32_t edge;
        std::uint32_t to;
    };
    /// Outgoing adjacency of `node` as one contiguous span — the cache-dense
    /// view the router iterates instead of per-node edge-id vectors.
    [[nodiscard]] std::span<const OutEdge> out(std::uint32_t node) const noexcept {
        return {csr_adj_.data() + csr_first_[node], csr_first_[node + 1] - csr_first_[node]};
    }

    /// Range of the outgoing edge *ids* of one node, in creation order — a
    /// view over the CSR adjacency for callers (elaboration, stats) that only
    /// need the ids.
    class EdgeIdRange {
    public:
        class iterator {
        public:
            explicit iterator(const OutEdge* p) noexcept : p_(p) {}
            std::uint32_t operator*() const noexcept { return p_->edge; }
            iterator& operator++() noexcept {
                ++p_;
                return *this;
            }
            friend bool operator==(iterator a, iterator b) noexcept = default;

        private:
            const OutEdge* p_;
        };
        explicit EdgeIdRange(std::span<const OutEdge> s) noexcept : s_(s) {}
        [[nodiscard]] iterator begin() const noexcept { return iterator{s_.data()}; }
        [[nodiscard]] iterator end() const noexcept { return iterator{s_.data() + s_.size()}; }
        [[nodiscard]] std::size_t size() const noexcept { return s_.size(); }

    private:
        std::span<const OutEdge> s_;
    };
    /// Outgoing edges of `node` as edge ids (bounds-checked).
    [[nodiscard]] EdgeIdRange out_edges(std::uint32_t node) const {
        (void)nodes_.at(node);  // preserve the historical at() bounds check
        return EdgeIdRange{out(node)};
    }

    /// How many nets may legally occupy `node` (1 for pins; wire nodes carry
    /// ArchSpec::wire_capacity). Raw-indexed like out(): it sits in the
    /// router's per-edge hot loop.
    [[nodiscard]] std::uint16_t node_capacity(std::uint32_t n) const noexcept {
        return capacity_[n];
    }

    // --- SoA hot data (router wavefront loop) --------------------------------
    // Built once per graph from nodes_: dense side arrays holding exactly
    // what the per-node search touches, so the expansion loop never chases
    // RRNode structs. Raw-indexed like out()/node_capacity().

    /// Packed {x, y, kind, is_pad, track} word of `n` — the heuristic and
    /// bounding-box view of the node. A pad pin's x/y hold its pad_anchor(),
    /// not the pad-index halves its RRNode carries.
    [[nodiscard]] RRNodeWord node_word(std::uint32_t n) const noexcept { return hot_word_[n]; }
    /// The router's base cost of occupying `n`: max(delay_ps, 1) as a double,
    /// precomputed so the wavefront loop never converts or clamps.
    [[nodiscard]] double node_base_cost(std::uint32_t n) const noexcept { return base_cost_[n]; }
    /// The whole base-cost array (kernel microbenches / bulk scans).
    [[nodiscard]] std::span<const double> base_costs() const noexcept { return base_cost_; }
    /// The whole position-word array.
    [[nodiscard]] std::span<const RRNodeWord> node_words() const noexcept { return hot_word_; }

    // --- router lookahead ------------------------------------------------------
    /// Half-width of the lookahead table's window: offsets -R..R+1 from the
    /// target PLB on each axis (the +1 covers the channels above and right
    /// of it).
    static constexpr std::int32_t kLookaheadRadius = 2;

    /// Lower bound on the base cost of reaching any input pin of PLB `t`
    /// from node `n`: the summed base costs of the nodes after `n`, the
    /// pin's included. A wire or PLB output pin within kLookaheadRadius of
    /// `t` reads a (kind, track, dx, dy) table, measured once per graph by a
    /// reverse search from the input pins of the fabric's centre PLB; any
    /// other node gets max(wire_delay_ps, 1) times the Manhattan distance
    /// from its grid_pos() to `t`'s centre. The table knows which tracks
    /// reach which pins (each side's input pins tap one track parity), which
    /// the Manhattan term cannot see. Base costs bound the router's
    /// congested costs from below, and the centre has the most paths of any
    /// spot, so the bound holds for every target.
    [[nodiscard]] double lookahead(RRNodeWord n, PlbCoord t) const noexcept {
        constexpr std::int32_t R = kLookaheadRadius;
        const auto dx = static_cast<std::int32_t>(n.x()) - static_cast<std::int32_t>(t.x) + R;
        const auto dy = static_cast<std::int32_t>(n.y()) - static_cast<std::int32_t>(t.y) + R;
        if (!n.is_pad() && static_cast<std::uint32_t>(dx) < kLookaheadSpan &&
            static_cast<std::uint32_t>(dy) < kLookaheadSpan) {
            const double c = lookahead_[lookahead_index(n.kind(), n.track(),
                                                        static_cast<std::uint32_t>(dx),
                                                        static_cast<std::uint32_t>(dy))];
            if (c >= 0.0) return c;
        }
        const auto [x, y] = n.grid_pos();
        return lookahead_wire_unit_ * (std::abs(x - (t.x + 0.5)) + std::abs(y - (t.y + 0.5)));
    }
    /// Wall time the lookahead table took to build (telemetry only).
    [[nodiscard]] double lookahead_build_ms() const noexcept { return lookahead_ms_; }

    // --- node lookup --------------------------------------------------------
    [[nodiscard]] std::uint32_t plb_opin(PlbCoord c, std::uint32_t pin) const;
    [[nodiscard]] std::uint32_t plb_ipin(PlbCoord c, std::uint32_t pin) const;
    [[nodiscard]] std::uint32_t pad_opin(std::uint32_t pad) const;  ///< input pad driver
    [[nodiscard]] std::uint32_t pad_ipin(std::uint32_t pad) const;  ///< output pad listener
    [[nodiscard]] std::uint32_t chanx(std::uint32_t ych, std::uint32_t x,
                                      std::uint32_t track) const;
    [[nodiscard]] std::uint32_t chany(std::uint32_t xch, std::uint32_t y,
                                      std::uint32_t track) const;

    /// For an IPIN node: the (PLB, pin) it belongs to.
    [[nodiscard]] PlbCoord ipin_plb(std::uint32_t node) const;
    [[nodiscard]] std::uint32_t pin_index(std::uint32_t node) const {
        return nodes_.at(node).track;
    }
    /// For a pad pin node: the pad index.
    [[nodiscard]] std::uint32_t pad_of(std::uint32_t node) const;
    /// The border PLB whose channel a pad connects to.
    [[nodiscard]] PlbCoord pad_anchor(std::uint32_t pad) const;

    // --- statistics (fig1 bench) ---------------------------------------------
    [[nodiscard]] std::size_t num_wires() const noexcept { return n_wires_; }
    [[nodiscard]] double avg_wire_fanout() const;

    /// Stable hash over the full node and edge content and the lookahead
    /// table (not the ArchSpec): two graphs agree iff their arrays are
    /// byte-identical. Pins the serial-vs-parallel build equivalence in
    /// tests and benches.
    [[nodiscard]] std::uint64_t content_fingerprint() const noexcept;

private:
    /// Write cursor into the pre-sized edge arrays: each generation unit
    /// owns the disjoint range [at, end of unit) computed by the exact
    /// closed-form counts, so units can emit concurrently.
    struct EdgeSink {
        std::uint32_t* from;
        std::uint32_t* to;
        std::size_t at;
        void emit(std::uint32_t f, std::uint32_t t) noexcept {
            from[at] = f;
            to[at] = t;
            ++at;
        }
    };

    void build(base::ThreadPool* pool);
    void build_nodes();
    [[nodiscard]] std::size_t count_conn_row() const;
    [[nodiscard]] std::size_t count_pads() const;
    [[nodiscard]] std::size_t count_switch_row(std::uint32_t jy) const;
    void emit_conn_row(std::uint32_t y, EdgeSink& out) const;
    void emit_pads(EdgeSink& out) const;
    void emit_switch_row(std::uint32_t jy, EdgeSink& out) const;
    void build_csr(base::ThreadPool* pool);
    void build_lookahead();
    [[nodiscard]] std::size_t lookahead_index(RRKind kind, std::uint32_t track,
                                              std::uint32_t dx,
                                              std::uint32_t dy) const noexcept {
        return ((static_cast<std::size_t>(kind) * lookahead_tracks_ + track) * kLookaheadSpan +
                dy) *
                   kLookaheadSpan +
               dx;
    }
    void connect_pin_to_channel(std::uint32_t pin_node, bool pin_drives, Side side,
                                std::uint32_t cx, std::uint32_t cy, std::uint32_t seed,
                                EdgeSink& out) const;

    FabricGeometry geom_;
    std::vector<RRNode> nodes_;
    std::vector<std::uint32_t> edge_from_;
    std::vector<std::uint32_t> edge_to_;
    std::vector<std::uint16_t> capacity_;   // node -> legal occupancy
    std::vector<std::uint32_t> csr_first_;  // node -> first index into csr_adj_
    std::vector<OutEdge> csr_adj_;          // adjacency flattened by source node
    std::vector<RRNodeWord> hot_word_;      // node -> packed {x,y,kind,is_pad,track}
    std::vector<double> base_cost_;         // node -> max(delay_ps,1) as double

    // Lookahead table over (kind, track, dx + R, dy + R); -1 = not measured.
    static constexpr std::uint32_t kLookaheadSpan = 2 * kLookaheadRadius + 2;
    std::vector<double> lookahead_;
    std::uint32_t lookahead_tracks_ = 0;  // max(channel_width, plb pins)
    double lookahead_wire_unit_ = 1.0;    // max(wire_delay_ps, 1)
    double lookahead_ms_ = 0.0;

    // dense lookup bases
    std::uint32_t base_plb_opin_ = 0;
    std::uint32_t base_plb_ipin_ = 0;
    std::uint32_t base_pad_opin_ = 0;
    std::uint32_t base_pad_ipin_ = 0;
    std::uint32_t base_chanx_ = 0;
    std::uint32_t base_chany_ = 0;
    std::size_t n_wires_ = 0;
};

}  // namespace afpga::core
