/// \file
/// Internal single-net search core of the partitioned PathFinder
/// (cad/route).
///
/// route_one_net() performs the multi-sink A* wavefront search of one net
/// against the caller's congestion state (occupancy, history, present-cost
/// factor) and commits the resulting tree's occupancy. It is a pure function
/// of its inputs: the same (request, costs, scratch-reset) always yields the
/// same tree, which is the property the router's determinism rests on.
///
/// Threading: route_one_net itself is single-threaded. The router calls it
/// concurrently from several pool workers, one SearchScratch per worker and
/// one RouteBBox per net; node-disjointness of the bounding boxes (see
/// cad/route.hpp) is what makes the concurrent occupancy writes race-free. `hist` is read-only during a routing phase and only updated at
/// the end-of-iteration barrier.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cad/route.hpp"
#include "core/rrgraph.hpp"

namespace afpga::cad::detail {

/// Inclusive PLB-space rectangle restricting a net's search region.
///
/// The channel-space reading (matching core/fabric.hpp's coordinate system):
/// a net confined to PLB rect [x0,x1]x[y0,y1] may use CHANX wires with
/// x in [x0,x1] and channel row ych in [y0,y1+1], and CHANY wires with
/// channel column xch in [x0,x1+1] and y in [y0,y1]. Two boxes whose PLB
/// rects are separated by at least one full column (or row) therefore touch
/// disjoint RR-node sets — the invariant the router's partition cuts
/// enforce.
struct RouteBBox {
    std::uint32_t x0 = 0;  ///< leftmost PLB column, inclusive
    std::uint32_t y0 = 0;  ///< bottom PLB row, inclusive
    std::uint32_t x1 = 0;  ///< rightmost PLB column, inclusive
    std::uint32_t y1 = 0;  ///< top PLB row, inclusive

    /// True when `other` lies entirely inside this box.
    [[nodiscard]] bool contains(const RouteBBox& other) const noexcept {
        return other.x0 >= x0 && other.x1 <= x1 && other.y0 >= y0 && other.y1 <= y1;
    }
    /// Grow by `m` PLBs on every side, clamped to fabric [0,W)x[0,H). The
    /// sums are 64-bit, so a margin near 2^32 clamps instead of wrapping.
    [[nodiscard]] RouteBBox expanded(std::uint64_t m, std::uint32_t width,
                                     std::uint32_t height) const noexcept {
        RouteBBox r;
        r.x0 = x0 > m ? static_cast<std::uint32_t>(x0 - m) : 0;
        r.y0 = y0 > m ? static_cast<std::uint32_t>(y0 - m) : 0;
        r.x1 = x1 + m < width ? static_cast<std::uint32_t>(x1 + m) : width - 1;
        r.y1 = y1 + m < height ? static_cast<std::uint32_t>(y1 + m) : height - 1;
        return r;
    }
    /// True when RR node `n`, given by its packed SoA position word, may be
    /// occupied by a net confined to this box. Pad pin nodes always pass:
    /// they are endpoints only (a pad OPIN has no in-edges and the search
    /// never expands through an IPIN), so they can never leak occupancy
    /// outside the box.
    [[nodiscard]] bool allows(core::RRNodeWord n) const noexcept {
        if (n.is_pad()) return true;
        switch (n.kind()) {
            case core::RRKind::ChanX:
                return n.x() >= x0 && n.x() <= x1 && n.y() >= y0 && n.y() <= y1 + 1;
            case core::RRKind::ChanY:
                return n.x() >= x0 && n.x() <= x1 + 1 && n.y() >= y0 && n.y() <= y1;
            default:  // Opin / Ipin of a PLB
                return n.x() >= x0 && n.x() <= x1 && n.y() >= y0 && n.y() <= y1;
        }
    }
};

/// One wavefront entry of the A* search.
struct HeapItem {
    double cost;         ///< accumulated + heuristic (the heap key)
    double backward;     ///< accumulated only
    std::uint32_t node;  ///< RR node this entry would expand
    /// Max-heap ordering on cost inverted into a min-heap; among equal costs
    /// the item with more accumulated cost pops first. The lookahead is exact
    /// near the target, so a whole optimal path shares one cost: this goes
    /// down it instead of widening the front across its equal-cost siblings.
    friend bool operator<(const HeapItem& a, const HeapItem& b) noexcept {
        return a.cost > b.cost || (a.cost == b.cost && a.backward < b.backward);
    }
};

/// Pooled min-heap of the wavefront: a flat vector driven by std::push_heap /
/// std::pop_heap whose capacity is retained across sinks, nets and PathFinder
/// iterations — after warm-up the wavefront loop performs zero heap
/// allocation.
///
/// Deliberately a *binary* heap through the standard heap algorithms, not a
/// 4-ary layout: std::priority_queue::push is specified as push_back +
/// push_heap and ::pop as pop_heap + pop_back, so this heap's pop order —
/// including the order among cost ties, which decides which target pin and
/// prev_edge win a search — is identical to the seed kernel's by definition.
/// A 4-ary sift would reorder ties and change routed bitstreams, violating
/// the bit-identity contract the route_kernel bench tier gates on.
class PooledHeap {
public:
    /// Push one item. Returns true when the buffer had to grow (an
    /// allocation event — the telemetry's zero-steady-state gate material).
    bool push(HeapItem it) {
        const bool grew = v_.size() == v_.capacity();
        v_.push_back(it);
        std::push_heap(v_.begin(), v_.end());
        return grew;
    }
    /// Pop the cheapest item (ties resolved exactly as std::priority_queue).
    HeapItem pop() {
        std::pop_heap(v_.begin(), v_.end());
        const HeapItem it = v_.back();
        v_.pop_back();
        return it;
    }
    /// True when the wavefront is exhausted.
    [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
    /// Live entries (stale duplicates included).
    [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
    /// Retained storage, in items.
    [[nodiscard]] std::size_t capacity() const noexcept { return v_.capacity(); }
    /// Forget contents, keep capacity.
    void clear() noexcept { v_.clear(); }
    /// Pre-size the buffer (not an allocation event for telemetry — callers
    /// use this at the warm-up boundary, before the steady-state clock runs).
    void reserve(std::size_t n) { v_.reserve(n); }

private:
    std::vector<HeapItem> v_;
};

/// Per-searcher scratch (one per routing thread): the label arrays, pooled
/// wavefront heap and pooled terminal buffers of the A* search, recycled
/// across sinks/nets/iterations via mark epochs instead of clears — in steady
/// state a search allocates nothing. Never shared between concurrently-
/// running searches.
struct SearchScratch {
    std::vector<double> best;                ///< cheapest backward cost found
    std::vector<std::uint32_t> prev_edge;    ///< incoming edge of `best`
    std::vector<std::uint32_t> visit_mark;   ///< epoch a node was last labelled
    std::vector<std::uint32_t> target_mark;  ///< epoch a node was last a sink target
    std::vector<std::uint32_t> tree_mark;    ///< epoch a node last joined a route tree
    std::uint32_t mark = 0;                  ///< per-sink epoch (visit + target)
    std::uint32_t tree_epoch = 0;            ///< per-net epoch (tree membership)

    PooledHeap heap;                       ///< pooled wavefront
    std::vector<std::uint32_t> targets;    ///< pooled per-sink target-pin buffer
    std::vector<std::uint32_t> sources;    ///< pooled per-net source-pin buffer
    RouteKernelStats stats;                ///< counters, accumulated across calls

    explicit SearchScratch(std::size_t num_nodes)
        : best(num_nodes, 0.0), prev_edge(num_nodes, UINT32_MAX), visit_mark(num_nodes, 0),
          target_mark(num_nodes, 0), tree_mark(num_nodes, 0) {}

    /// Open a fresh per-sink epoch. On the (astronomically rare) 32-bit
    /// wraparound, stale stamps could collide with reissued epochs, so both
    /// stamp arrays are washed back to 0 and the counter restarts at 1.
    void begin_sink() {
        if (++mark == 0) {
            std::fill(visit_mark.begin(), visit_mark.end(), 0u);
            std::fill(target_mark.begin(), target_mark.end(), 0u);
            mark = 1;
        }
    }
    /// Open a fresh per-net tree epoch (same wraparound rule).
    void begin_net() {
        if (++tree_epoch == 0) {
            std::fill(tree_mark.begin(), tree_mark.end(), 0u);
            tree_epoch = 1;
        }
    }
};

/// Everything route_one_net decided about one net.
struct NetRouteState {
    RouteTree tree;                        ///< per-sink results + edge list
    std::vector<std::uint32_t> nodes;      ///< RR nodes the tree occupies
    bool all_sinks_found = true;           ///< false: some sink unreachable
};

/// Route one net from scratch under the current congestion costs and commit
/// its occupancy (`++occ` on every tree node).
///
/// The A* term is RRGraph::lookahead to a PLB sink (the Manhattan term to a
/// pad sink's anchor PLB), scaled by RouterOptions::astar_fac. Input pins are never
/// expanded, so only the current sink's own pins are ever pushed.
///
/// `bbox`, when non-null, confines the wavefront: nodes outside the box are
/// never pushed (pad endpoints excepted, see RouteBBox::allows). A sink that
/// cannot be reached inside the box is reported through all_sinks_found and
/// its RouteTree::SinkResult stays UINT32_MAX — the caller's business to
/// retry with a wider box on a later iteration.
///
/// Caller contract: the net's previous occupancy must already be ripped up,
/// `hist` must not change during the call, and `scratch` must not be used by
/// any concurrent search.
[[nodiscard]] NetRouteState route_one_net(const core::RRGraph& rr, const RouteRequest& rq,
                                          const RouterOptions& opts, double pres_fac,
                                          const std::vector<double>& hist,
                                          std::vector<std::uint16_t>& occ,
                                          SearchScratch& scratch,
                                          const RouteBBox* bbox);

/// Post-success pass: total channel-wire count into
/// RoutingResult::wirelength and root-to-sink delay accumulation into every
/// RouteTree::SinkResult::delay_ps.
void finalize_routing(const core::RRGraph& rr, const std::vector<RouteRequest>& reqs,
                      const std::vector<std::vector<std::uint32_t>>& net_nodes,
                      RoutingResult& result);

/// Failure pass: per-overused-node conflict descriptions plus the
/// unrouted-sink count into RoutingResult::overuse_report.
void report_overuse(const core::RRGraph& rr, const std::vector<RouteRequest>& reqs,
                    const std::vector<std::vector<std::uint32_t>>& net_nodes,
                    const std::vector<std::uint16_t>& occ, RoutingResult& result);

}  // namespace afpga::cad::detail
