/// \file
/// Routing: a partitioned PathFinder (negotiated-congestion routing over the
/// RR graph with an A* lookahead) that routes independent spatial bins of
/// the fabric concurrently while keeping the routed result bit-identical
/// for every worker count, including none.
///
/// Two architecture-specific twists:
///  - sources are pin-equivalent: a net driven by a PLB may leave through ANY
///    free output pin (the IM connects any LE output to any output pin), so
///    the wavefront is seeded from all of the PLB's opins and the winning pin
///    is reported back to the flow;
///  - sinks are pin-equivalent per PLB: a net needs to reach ONE input pin of
///    each consumer PLB (the IM fans it out internally).
///
/// How the partitioning works, and why it is deterministic:
///
///  1. The PLB grid is recursively bisected into a partition tree. Every cut
///     reserves one full separator column (or row) of PLBs for the parent,
///     so the two children's regions — read as channel-space rectangles, see
///     detail::RouteBBox — touch disjoint RR-node sets. The tree is a pure
///     function of the fabric dimensions and RouterOptions::min_bin_dim,
///     never of the worker count.
///  2. Each net gets a search region: the bounding box of its terminals
///     expanded by RouterOptions::bin_margin (growing deterministically when
///     a sink proves unreachable inside it). A net whose region fits a leaf
///     is binned there; a net whose region crosses a cut is a *boundary
///     net* and stays at an internal tree node.
///  3. Per PathFinder iteration the dirty-net set is computed serially in
///     fixed request order, then each leaf bin's dirty nets are routed by one
///     task in fixed rotated order, wavefronts confined to each net's region.
///     Bins never share RR nodes, so their occupancy reads/writes cannot
///     interact: any interleaving of bin tasks produces the same occupancy
///     state.
///  4. Boundary nets are routed bottom-up through the partition tree, one
///     depth level per barrier: same-depth internal nodes live in disjoint
///     subtrees and run concurrently, while a parent (whose nets may use its
///     separator channels and anything inside either child) runs strictly
///     after its children's level. Only the root's nets are inherently
///     serial.
///  5. Congestion accounting (pres_fac growth, history cost updates,
///     overuse counting) runs serially at the end of the iteration, scanning
///     nodes in fixed index order.
///
/// Threading: with a base::ThreadPool each depth level's tasks run through
/// parallel_for; without one they run in a plain loop on the calling thread.
/// The pool therefore only ever decides *when* a bin is routed, never *what*
/// any net sees — the base::ThreadPool determinism contract — so the result
/// is bit-identical with no pool and with any worker count, which is what
/// the cross-thread determinism suite pins.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rrgraph.hpp"
#include "netlist/netlist.hpp"

namespace afpga::base {
class ThreadPool;
}

namespace afpga::cad {

/// One net to route.
struct RouteRequest {
    netlist::NetId signal;           ///< for diagnostics
    bool src_is_pad = false;         ///< source is an input pad, not a PLB
    std::uint32_t src_pad = 0;       ///< if src_is_pad
    core::PlbCoord src_plb;          ///< else
    /// PLB output pins the net may leave through (empty = all). The flow
    /// restricts this when the IM topology cannot connect the signal's
    /// source to every output-pin sink.
    std::vector<std::uint32_t> allowed_src_pins;
    /// One consumer of the net: an output pad or any free input pin of a PLB.
    struct Sink {
        bool is_pad = false;      ///< deliver to an output pad
        std::uint32_t pad = 0;    ///< if is_pad
        core::PlbCoord plb;       ///< else: any free IPIN of this PLB
    };
    std::vector<Sink> sinks;  ///< deduplicated per PLB by the caller
};

/// Routed tree of one net.
struct RouteTree {
    std::uint32_t root_opin = UINT32_MAX;    ///< chosen source node
    std::vector<std::uint32_t> edges;        ///< RR edge ids in use
    /// Where one sink of the request was delivered.
    struct SinkResult {
        std::uint32_t ipin = UINT32_MAX;     ///< chosen input pin (UINT32_MAX = unrouted)
        std::int64_t delay_ps = 0;           ///< node-delay sum root..ipin
    };
    std::vector<SinkResult> sinks;           ///< parallel to RouteRequest::sinks
};

/// Knobs of the router.
struct RouterOptions {
    int max_iterations = 40;        ///< PathFinder iteration budget
    double pres_fac_first = 0.6;    ///< present-congestion factor, iteration 1
    double pres_fac_mult = 1.7;     ///< growth of pres_fac per iteration
    double hist_fac = 1.0;          ///< history-cost weight
    double astar_fac = 1.0;         ///< 0 = pure Dijkstra
    /// After the first iteration the router only rips up and reroutes nets
    /// that touch an over-capacity node (or have unrouted sinks); legal nets
    /// keep their trees. That can deadlock near saturation: a small conflict
    /// set oscillates while every legal net stays pinned in place. After
    /// this many iterations without overuse improvement, fall back to one
    /// full rip-up round to shake the whole configuration loose (0 = never).
    int stall_full_reroute = 4;

    // --- partitioning --------------------------------------------------------
    /// Flow-level worker count (see make_route_pool): 0 and 1 route on the
    /// calling thread and spawn no thread; any value >= 2 routes (and builds
    /// the RR graph) on a pool of that many workers. The result is
    /// bit-identical for every value, so `threads` only changes wall-clock
    /// time, never the bitstream, and the route stage key ignores it.
    unsigned threads = 0;
    /// Margin (in PLBs) added around a net's terminal bounding box to form
    /// its search region. Grows automatically per net when a sink turns out
    /// to be unreachable inside the region.
    std::uint32_t bin_margin = 1;
    /// Stop splitting a partition region when neither side of a cut would
    /// keep at least this many PLB columns/rows.
    std::uint32_t min_bin_dim = 4;
};

/// Counters of the inner search kernel (route_one_net), aggregated over every
/// net x sink search of a routing run. All counts except `search_ms` are pure
/// functions of the routing decisions, so they are bit-identical across
/// thread counts — the route stage reports them as deterministic telemetry.
struct RouteKernelStats {
    std::uint64_t heap_pushes = 0;    ///< wavefront items pushed
    std::uint64_t heap_pops = 0;      ///< wavefront items popped (incl. stale)
    std::uint64_t nodes_expanded = 0; ///< popped nodes whose out-edges were scanned
    std::uint64_t edges_scanned = 0;  ///< adjacency entries considered
    std::uint64_t wavefront_peak = 0; ///< max live heap size of any search
    /// Scratch-buffer growth events (heap or pooled target/source buffers).
    /// Capacity is retained across sinks/nets/iterations, so in steady state
    /// this stops moving after warm-up.
    std::uint64_t allocations = 0;
    /// Growth events after the first PathFinder iteration. The zero-steady-
    /// state-allocation contract gates on this. Exact when routing without a
    /// pool; with one, a scratch first created after iteration 1 adds its
    /// warm-up growth, so the figure is schedule-dependent there.
    std::uint64_t steady_allocations = 0;
    std::uint64_t nets_routed = 0;    ///< route_one_net invocations
    /// Wall time inside route_one_net (timing only — schedule-dependent, and
    /// not carried by the artifact codec).
    double search_ms = 0.0;

    /// Combine counters from another searcher: sums, except the peak.
    void merge(const RouteKernelStats& o) noexcept {
        heap_pushes += o.heap_pushes;
        heap_pops += o.heap_pops;
        nodes_expanded += o.nodes_expanded;
        edges_scanned += o.edges_scanned;
        wavefront_peak = wavefront_peak > o.wavefront_peak ? wavefront_peak : o.wavefront_peak;
        allocations += o.allocations;
        steady_allocations += o.steady_allocations;
        nets_routed += o.nets_routed;
        search_ms += o.search_ms;
    }
};

/// Everything the router decided plus its telemetry counters.
struct RoutingResult {
    std::vector<RouteTree> trees;  ///< parallel to requests
    int iterations = 0;            ///< PathFinder iterations executed
    bool success = false;          ///< legal (no overuse, all sinks reached)
    std::size_t overused_nodes = 0;  ///< after the last iteration
    /// On failure: human-readable description of the conflicting resources.
    std::vector<std::string> overuse_report;

    // --- telemetry -----------------------------------------------------------
    std::vector<std::size_t> overuse_trajectory;  ///< overused nodes per iteration
    std::size_t nets_rerouted = 0;   ///< sum of per-iteration reroute counts
    std::size_t wirelength = 0;      ///< channel-wire nodes used (on success)
    RouteKernelStats kernel;         ///< inner search-kernel counters

    // --- partitioning ----------------------------------------------------------
    std::size_t num_bins = 0;        ///< leaf regions of the partition tree
    std::size_t boundary_nets = 0;   ///< nets serialized because they cross a cut
    /// Cumulative wall time each leaf bin's worker spent routing, indexed by
    /// bin; scheduling-dependent (telemetry only, never feeds back into
    /// routing decisions, and not carried by the artifact codec).
    std::vector<double> bin_wall_ms;
    /// Cumulative wall time spent routing boundary nets (the partition
    /// tree's internal nodes — same-depth nodes run concurrently, but the
    /// root's nets are inherently serial). Not carried by the artifact codec.
    double boundary_wall_ms = 0.0;
};

/// Route all requests, on `pool` when one is given and on the calling
/// thread otherwise; the result is the same either way. Throws base::Error
/// only on malformed requests or options (a cost factor that is negative or
/// not finite, more than 1000 iterations), naming the field; congestion
/// failure is reported via RoutingResult::success.
[[nodiscard]] RoutingResult route(const core::RRGraph& rr, const std::vector<RouteRequest>& reqs,
                                  const RouterOptions& opts = {},
                                  base::ThreadPool* pool = nullptr);

/// The flow's pool policy for the route stage (routing and the RR-graph
/// build): a pool of RouterOptions::threads workers when that is at least
/// 2, otherwise none. Throws base::Error, starting no thread, when
/// `threads` exceeds base::ThreadPool::kMaxWorkers (256).
[[nodiscard]] std::unique_ptr<base::ThreadPool> make_route_pool(const RouterOptions& opts);

}  // namespace afpga::cad
