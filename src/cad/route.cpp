#include "cad/route.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "base/check.hpp"
#include "base/threadpool.hpp"
#include "base/timer.hpp"
#include "cad/route_search.hpp"

namespace afpga::cad {

using core::RRGraph;
using detail::RouteBBox;

namespace {

/// One node of the spatial partition tree. Children are separated by one
/// full PLB column (vertical cut) or row (horizontal cut) kept by the
/// parent, so the two child regions touch disjoint RR-node sets.
struct PartNode {
    RouteBBox rect;
    int left = -1;     ///< child index, -1 = leaf
    int right = -1;
    int depth = 0;     ///< root = 0
    int leaf_id = -1;  ///< dense index among leaves, -1 for internal nodes
};

/// Recursively bisect `rect`, always along its longer dimension, stopping
/// when a cut would leave either side narrower than `min_dim`. Pure function
/// of (fabric size, min_dim): the tree never depends on the worker count.
void split(std::vector<PartNode>& tree, int at, std::uint32_t min_dim) {
    const RouteBBox r = tree[at].rect;
    const std::uint32_t w = r.x1 - r.x0 + 1;
    const std::uint32_t h = r.y1 - r.y0 + 1;
    // A cut consumes one separator line: each side keeps >= min_dim lines
    // only when the dimension is at least 2*min_dim + 1.
    const bool can_x = w >= 2 * min_dim + 1;
    const bool can_y = h >= 2 * min_dim + 1;
    if (!can_x && !can_y) return;
    const bool cut_x = can_x && (!can_y || w >= h);
    RouteBBox a = r;
    RouteBBox b = r;
    if (cut_x) {
        const std::uint32_t c = r.x0 + w / 2;  // separator column, kept by parent
        a.x1 = c - 1;
        b.x0 = c + 1;
    } else {
        const std::uint32_t c = r.y0 + h / 2;  // separator row
        a.y1 = c - 1;
        b.y0 = c + 1;
    }
    const int d = tree[at].depth + 1;
    tree[at].left = static_cast<int>(tree.size());
    tree.push_back({a, -1, -1, d, -1});
    tree[at].right = static_cast<int>(tree.size());
    tree.push_back({b, -1, -1, d, -1});
    split(tree, tree[at].left, min_dim);
    split(tree, tree[at].right, min_dim);
}

/// Bounding box of a request's terminals (source + every sink), in PLB
/// coordinates.
RouteBBox terminal_bbox(const RRGraph& rr, const RouteRequest& rq) {
    core::PlbCoord first = rq.src_is_pad ? rr.pad_anchor(rq.src_pad) : rq.src_plb;
    RouteBBox bb{first.x, first.y, first.x, first.y};
    for (const RouteRequest::Sink& sk : rq.sinks) {
        const core::PlbCoord c = sk.is_pad ? rr.pad_anchor(sk.pad) : sk.plb;
        bb.x0 = std::min(bb.x0, c.x);
        bb.y0 = std::min(bb.y0, c.y);
        bb.x1 = std::max(bb.x1, c.x);
        bb.y1 = std::max(bb.y1, c.y);
    }
    return bb;
}

}  // namespace

RoutingResult route(const RRGraph& rr, const std::vector<RouteRequest>& reqs,
                    const RouterOptions& opts, base::ThreadPool* pool) {
    // The budget can arrive from the wire: cap it far above any use so that
    // one request cannot buy unbounded CPU.
    base::check(opts.max_iterations <= 1000, "route: max_iterations must be <= 1000");
    // So can the cost factors: a NaN cost breaks the wavefront heap's
    // ordering, and a negative one rewards congestion.
    auto non_negative = [](double v) { return std::isfinite(v) && v >= 0; };
    base::check(non_negative(opts.pres_fac_first),
                "route: pres_fac_first must be finite and >= 0");
    base::check(non_negative(opts.pres_fac_mult), "route: pres_fac_mult must be finite and >= 0");
    base::check(non_negative(opts.hist_fac), "route: hist_fac must be finite and >= 0");
    base::check(non_negative(opts.astar_fac), "route: astar_fac must be finite and >= 0");
    const std::size_t N = rr.num_nodes();
    const std::uint32_t W = rr.arch().width;
    const std::uint32_t H = rr.arch().height;

    RoutingResult result;
    result.trees.assign(reqs.size(), {});

    // --- partition tree (pure function of fabric size + options) -------------
    std::vector<PartNode> tree;
    tree.push_back({RouteBBox{0, 0, W - 1, H - 1}, -1, -1, 0, -1});
    split(tree, 0, std::max<std::uint32_t>(opts.min_bin_dim, 1));
    std::size_t num_leaves = 0;
    for (PartNode& pn : tree)
        if (pn.left < 0) pn.leaf_id = static_cast<int>(num_leaves++);
    result.num_bins = num_leaves;
    result.bin_wall_ms.assign(num_leaves, 0.0);

    // --- per-net search regions ----------------------------------------------
    std::vector<RouteBBox> terminals(reqs.size());
    for (std::size_t ri = 0; ri < reqs.size(); ++ri)
        terminals[ri] = terminal_bbox(rr, reqs[ri]);
    // Per-net extra margin, normally 0: nets are binned by their raw
    // terminal bounding box (so the detour margin never pushes a net out of
    // its leaf), and grow their box only when a sink proves unreachable or
    // the net is implicated in stalled congestion — growth that depends
    // only on routing outcomes, which are thread-count-invariant.
    std::vector<std::uint32_t> extra(reqs.size(), 0);
    std::vector<RouteBBox> region(reqs.size());
    std::vector<bool> ever_boundary(reqs.size(), false);

    std::vector<double> hist(N, 0.0);
    std::vector<std::uint16_t> occ(N, 0);
    double pres_fac = opts.pres_fac_first;

    std::vector<std::vector<std::uint32_t>> net_nodes(reqs.size());

    auto escalate = [&](std::size_t ri) { extra[ri] = extra[ri] * 2 + 2; };

    // The tree is processed bottom-up, one depth level per barrier: all
    // same-depth nodes live in disjoint subtrees, so they can route
    // concurrently; a parent (whose nets may use its separator channels and
    // anything inside either child) only runs after its children's level.
    const int max_depth =
        std::max_element(tree.begin(), tree.end(), [](const PartNode& a, const PartNode& b) {
            return a.depth < b.depth;
        })->depth;
    std::vector<std::vector<std::size_t>> level_nodes(static_cast<std::size_t>(max_depth) + 1);
    for (std::size_t i = 0; i < tree.size(); ++i)
        level_nodes[static_cast<std::size_t>(tree[i].depth)].push_back(i);

    // Scratch free-list: at most min(workers, active bins) scratches ever
    // exist instead of one per tree node (three N-sized arrays each), and
    // exactly one without a pool. A scratch carries no cross-net state — the
    // visit-mark epoch invalidates old labels — so which scratch a task
    // happens to pop cannot affect results.
    std::mutex scratch_mu;
    std::vector<std::unique_ptr<detail::SearchScratch>> scratch_pool;
    auto acquire_scratch = [&]() -> std::unique_ptr<detail::SearchScratch> {
        {
            std::lock_guard<std::mutex> lk(scratch_mu);
            if (!scratch_pool.empty()) {
                auto s = std::move(scratch_pool.back());
                scratch_pool.pop_back();
                return s;
            }
        }
        return std::make_unique<detail::SearchScratch>(N);
    };
    auto release_scratch = [&](std::unique_ptr<detail::SearchScratch> s) {
        std::lock_guard<std::mutex> lk(scratch_mu);
        scratch_pool.push_back(std::move(s));
    };
    std::vector<double> node_wall(tree.size(), 0.0);

    std::vector<std::size_t> dirty;
    std::vector<std::vector<std::size_t>> node_work(tree.size());  // request indices
    std::size_t best_overused = SIZE_MAX;
    int stall = 0;
    // Scratch growth seen during warm-up (iteration 1): everything after it
    // counts against the zero-steady-state-allocation contract.
    std::uint64_t warmup_allocations = 0;

    for (int iter = 1; iter <= opts.max_iterations; ++iter) {
        // --- work selection: serial, fixed request order ----------------------
        // The first iteration routes everything; afterwards only nets
        // touching an over-capacity node (every user of a congested node is
        // implicated) or with unrouted sinks are ripped up — unless
        // congestion has stalled, in which case one full rip-up round breaks
        // the oscillation that pinned legal nets can otherwise sustain
        // forever.
        const bool stalled = opts.stall_full_reroute > 0 && stall >= opts.stall_full_reroute;
        const bool full_rip_up = iter == 1 || stalled;
        if (stalled) {
            // The conflict set is stuck inside too-tight regions: widen every
            // net pinned on an overused node before shaking the whole
            // configuration loose.
            for (std::size_t ri = 0; ri < reqs.size(); ++ri)
                for (std::uint32_t n : net_nodes[ri])
                    if (occ[n] > rr.node_capacity(n)) {
                        escalate(ri);
                        break;
                    }
        }
        if (full_rip_up) stall = 0;
        dirty.clear();
        for (std::size_t ri = 0; ri < reqs.size(); ++ri) {
            bool d = full_rip_up;
            if (!d)
                for (std::uint32_t n : net_nodes[ri])
                    if (occ[n] > rr.node_capacity(n)) {
                        d = true;
                        break;
                    }
            if (!d)
                for (const auto& s : result.trees[ri].sinks)
                    if (s.ipin == UINT32_MAX) {
                        d = true;
                        break;
                    }
            if (d) dirty.push_back(ri);
        }
        result.nets_rerouted += dirty.size();

        for (std::size_t ri : dirty) {
            for (std::uint32_t n : net_nodes[ri]) --occ[n];
            net_nodes[ri].clear();
        }

        // --- binning ---------------------------------------------------------
        // A net goes to the deepest tree node whose region contains its
        // terminal box (grown by the net's escalation margin); nets landing
        // at internal nodes are boundary nets (they may use their node's
        // separator channels). The search region adds the detour margin on
        // top but is clipped to the assigned node's rect, preserving
        // node-disjointness between same-level bins.
        for (auto& v : node_work) v.clear();
        for (std::size_t ri : dirty) {
            const RouteBBox fp = terminals[ri].expanded(extra[ri], W, H);
            int at = 0;
            while (tree[at].left >= 0) {
                if (tree[tree[at].left].rect.contains(fp))
                    at = tree[at].left;
                else if (tree[tree[at].right].rect.contains(fp))
                    at = tree[at].right;
                else
                    break;
            }
            node_work[static_cast<std::size_t>(at)].push_back(ri);
            if (tree[at].leaf_id < 0) ever_boundary[ri] = true;
            const RouteBBox want =
                terminals[ri].expanded(std::uint64_t{opts.bin_margin} + extra[ri], W, H);
            const RouteBBox& rect = tree[static_cast<std::size_t>(at)].rect;
            region[ri] = RouteBBox{std::max(want.x0, rect.x0), std::max(want.y0, rect.y0),
                                   std::min(want.x1, rect.x1), std::min(want.y1, rect.y1)};
        }

        // --- route the tree bottom-up, one depth level per barrier -----------
        // Same-depth nodes are pairwise region-disjoint, so each level is a
        // parallel_for on the pool (a plain loop without one); a parent runs
        // strictly after its children. Only nodes with work are dispatched,
        // so a three-net iteration does not pay tree-size task overhead.
        std::vector<std::size_t> active;
        auto route_node = [&](std::size_t ai) {
            const std::size_t b = active[ai];
            base::WallTimer node_timer;
            std::unique_ptr<detail::SearchScratch> scratch = acquire_scratch();
            const std::vector<std::size_t>& work = node_work[b];
            for (std::size_t k = 0; k < work.size(); ++k) {
                // Rotate the net order each iteration: with a fixed order a
                // node's first-routed net never pays present-congestion cost
                // and small conflict sets oscillate forever.
                const std::size_t ri =
                    work[(k + static_cast<std::size_t>(iter - 1)) % work.size()];
                detail::NetRouteState st = detail::route_one_net(
                    rr, reqs[ri], opts, pres_fac, hist, occ, *scratch, &region[ri]);
                if (!st.all_sinks_found) escalate(ri);
                net_nodes[ri] = std::move(st.nodes);
                result.trees[ri] = std::move(st.tree);
            }
            release_scratch(std::move(scratch));
            node_wall[b] += node_timer.elapsed_ms();
        };
        for (int depth = max_depth; depth >= 0; --depth) {
            active.clear();
            for (std::size_t b : level_nodes[static_cast<std::size_t>(depth)])
                if (!node_work[b].empty()) active.push_back(b);
            if (active.empty()) continue;
            if (pool)
                pool->parallel_for(active.size(), route_node);
            else
                for (std::size_t ai = 0; ai < active.size(); ++ai) route_node(ai);
        }
        if (iter == 1) {
            // End of warm-up: every pooled buffer has seen one full routing
            // pass. Later iterations can still wave a wider front than the
            // first (rising pres_fac and region escalation make searches
            // detour), and the vector's doubling leaves capacity just above
            // the iteration-1 peak — so give each heap 2x headroom now, while
            // growth is still free, to honor the zero-steady-state-allocation
            // contract afterwards.
            for (const auto& s : scratch_pool) {
                s->heap.reserve(2 * s->heap.capacity());
                warmup_allocations += s->stats.allocations;
            }
        }

        // --- congestion accounting: serial, fixed node order -----------------
        std::size_t overused = 0;
        bool all_routed = true;
        for (std::size_t n = 0; n < N; ++n) {
            const auto cap = rr.node_capacity(static_cast<std::uint32_t>(n));
            if (occ[n] > cap) {
                ++overused;
                hist[n] += opts.hist_fac * rr.node_base_cost(static_cast<std::uint32_t>(n)) *
                           static_cast<double>(occ[n] - cap);
            }
        }
        for (std::size_t ri = 0; ri < reqs.size(); ++ri)
            for (const auto& s : result.trees[ri].sinks)
                if (s.ipin == UINT32_MAX) all_routed = false;

        result.iterations = iter;
        result.overused_nodes = overused;
        result.overuse_trajectory.push_back(overused);
        if (overused < best_overused) {
            best_overused = overused;
            stall = 0;
        } else {
            ++stall;
        }
        if (overused == 0 && all_routed) {
            result.success = true;
            break;
        }
        pres_fac *= opts.pres_fac_mult;
    }

    result.boundary_nets =
        static_cast<std::size_t>(std::count(ever_boundary.begin(), ever_boundary.end(), true));
    for (std::size_t i = 0; i < tree.size(); ++i) {
        if (tree[i].leaf_id >= 0)
            result.bin_wall_ms[static_cast<std::size_t>(tree[i].leaf_id)] = node_wall[i];
        else
            result.boundary_wall_ms += node_wall[i];
    }

    // Kernel counters: every scratch is back in the pool (workers release at
    // each level barrier), so summing the pool covers every search. The
    // search counters are schedule-independent — which scratch a task popped
    // only moves counts between addends. The allocation counts are not: with
    // a pool, how many scratches exist depends on the schedule, and one first
    // created after iteration 1 adds its warm-up growth to the steady count.
    // Without a pool the one scratch sees every search, so the steady count
    // is exact.
    for (const auto& s : scratch_pool) result.kernel.merge(s->stats);
    result.kernel.steady_allocations = result.kernel.allocations - warmup_allocations;

    if (result.success)
        detail::finalize_routing(rr, reqs, net_nodes, result);
    else
        detail::report_overuse(rr, reqs, net_nodes, occ, result);
    return result;
}

std::unique_ptr<base::ThreadPool> make_route_pool(const RouterOptions& opts) {
    // The worker count can arrive from the wire, and each worker is an OS
    // thread: cap it far above any use before starting one.
    base::check(opts.threads <= base::ThreadPool::kMaxWorkers,
                "route: threads must be <= " + std::to_string(base::ThreadPool::kMaxWorkers));
    if (opts.threads < 2) return nullptr;
    return std::make_unique<base::ThreadPool>(opts.threads);
}

}  // namespace afpga::cad
