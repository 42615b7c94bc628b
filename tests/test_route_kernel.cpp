// The router search kernel (pooled heap, SoA hot data, epoch-marked scratch)
// against behaviour oracles written here: an exact reverse Dijkstra the
// lookahead must never exceed, A* searches that must cost what Dijkstra
// searches cost, the dead-end input-pin filter, and the seed kernel's two
// whole-result passes; plus recorded goldens of whole routings and
// full-flow bitstreams at threads 0/1/2/4/8, the pooled-heap ordering
// equivalence, epoch wraparound safety and the zero-steady-state-allocation
// property the bench tier gates on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/bitvector.hpp"
#include "base/threadpool.hpp"
#include "cad/flow.hpp"
#include "cad/route.hpp"
#include "cad/route_search.hpp"
#include "core/rrgraph.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using namespace afpga;
using cad::RouteRequest;
using cad::RouterOptions;
using cad::RouteTree;
using cad::RoutingResult;
using cad::detail::HeapItem;
using cad::detail::NetRouteState;
using cad::detail::PooledHeap;
using cad::detail::RouteBBox;
using cad::detail::SearchScratch;
using core::ArchSpec;
using core::PlbCoord;
using core::RRGraph;
using core::RRKind;

ArchSpec arch_of(std::uint32_t w, std::uint32_t h, std::uint32_t cw) {
    ArchSpec a;
    a.width = w;
    a.height = h;
    a.channel_width = cw;
    return a;
}

RouteRequest plb_to_plb(PlbCoord from, PlbCoord to) {
    RouteRequest rq;
    rq.src_plb = from;
    RouteRequest::Sink sk;
    sk.plb = to;
    rq.sinks.push_back(sk);
    return rq;
}

// Same mix as test_parallel_route: four quadrant-local nets, local traffic,
// and cut-crossing boundary nets on a 13x13 fabric.
std::vector<RouteRequest> quadrant_mix() {
    std::vector<RouteRequest> reqs;
    reqs.push_back(plb_to_plb({0, 0}, {3, 3}));
    reqs.push_back(plb_to_plb({8, 0}, {11, 3}));
    reqs.push_back(plb_to_plb({0, 8}, {3, 11}));
    reqs.push_back(plb_to_plb({8, 8}, {11, 11}));
    for (std::uint32_t i = 0; i < 4; ++i) {
        reqs.push_back(plb_to_plb({i, 1}, {3 - i, 2}));
        reqs.push_back(plb_to_plb({8 + i, 1}, {11 - i, 2}));
    }
    reqs.push_back(plb_to_plb({2, 2}, {10, 2}));
    reqs.push_back(plb_to_plb({2, 2}, {2, 10}));
    reqs.push_back(plb_to_plb({0, 0}, {12, 12}));
    return reqs;
}

/// Deep equality of two routing results, down to every tree edge and delay.
void expect_identical_routing(const RoutingResult& a, const RoutingResult& b) {
    ASSERT_EQ(a.success, b.success);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.wirelength, b.wirelength);
    EXPECT_EQ(a.overuse_trajectory, b.overuse_trajectory);
    EXPECT_EQ(a.overuse_report, b.overuse_report);
    ASSERT_EQ(a.trees.size(), b.trees.size());
    for (std::size_t i = 0; i < a.trees.size(); ++i) {
        EXPECT_EQ(a.trees[i].root_opin, b.trees[i].root_opin) << "net " << i;
        EXPECT_EQ(a.trees[i].edges, b.trees[i].edges) << "net " << i;
        ASSERT_EQ(a.trees[i].sinks.size(), b.trees[i].sinks.size());
        for (std::size_t s = 0; s < a.trees[i].sinks.size(); ++s) {
            EXPECT_EQ(a.trees[i].sinks[s].ipin, b.trees[i].sinks[s].ipin);
            EXPECT_EQ(a.trees[i].sinks[s].delay_ps, b.trees[i].sinks[s].delay_ps);
        }
    }
}

// ---------------------------------------------------------------------------
// Reference passes: the seed implementation of the router's two
// whole-result passes, kept verbatim (per-net unordered_map adjacency, nets x
// overused-nodes scan) as the independent oracle the library's passes are
// compared against. Do not "improve" this code — its value is being exactly
// what the library's passes must reproduce.
// ---------------------------------------------------------------------------

void finalize_routing_reference(const RRGraph& rr, const std::vector<RouteRequest>& reqs,
                                const std::vector<std::vector<std::uint32_t>>& net_nodes,
                                RoutingResult& result) {
    // --- wirelength: channel wires held across all nets ------------------------
    for (const auto& nodes : net_nodes)
        for (std::uint32_t n : nodes) {
            const RRKind k = rr.node(n).kind;
            if (k == RRKind::ChanX || k == RRKind::ChanY) ++result.wirelength;
        }

    // --- final delays: accumulate node delays from the root over the tree ----
    for (std::size_t ri = 0; ri < reqs.size(); ++ri) {
        RouteTree& tree = result.trees[ri];
        if (tree.root_opin == UINT32_MAX && !tree.edges.empty())
            tree.root_opin = rr.edge_source(tree.edges.back());
        // adjacency of the tree
        std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> kids;
        for (std::uint32_t e : tree.edges) kids[rr.edge_source(e)].push_back(rr.edge_target(e));
        std::unordered_map<std::uint32_t, std::int64_t> arrive;
        std::vector<std::uint32_t> stack{tree.root_opin};
        if (tree.root_opin != UINT32_MAX)
            arrive[tree.root_opin] = rr.node(tree.root_opin).delay_ps;
        while (!stack.empty()) {
            const std::uint32_t n = stack.back();
            stack.pop_back();
            for (std::uint32_t k : kids[n]) {
                if (arrive.count(k)) continue;
                arrive[k] = arrive[n] + rr.node(k).delay_ps;
                stack.push_back(k);
            }
        }
        for (auto& s : tree.sinks)
            if (s.ipin != UINT32_MAX && arrive.count(s.ipin)) s.delay_ps = arrive[s.ipin];
    }
}

void report_overuse_reference(const RRGraph& rr, const std::vector<RouteRequest>& reqs,
                              const std::vector<std::vector<std::uint32_t>>& net_nodes,
                              const std::vector<std::uint16_t>& occ, RoutingResult& result) {
    for (std::uint32_t n = 0; n < rr.num_nodes(); ++n) {
        if (occ[n] <= rr.node_capacity(n)) continue;
        const core::RRNode& nd = rr.node(n);
        std::string users;
        for (std::size_t ri = 0; ri < reqs.size(); ++ri)
            if (std::find(net_nodes[ri].begin(), net_nodes[ri].end(), n) !=
                net_nodes[ri].end())
                users += " net" + std::to_string(ri);
        result.overuse_report.push_back(
            to_string(nd.kind) + "(" + std::to_string(nd.x) + "," + std::to_string(nd.y) +
            ")#" + std::to_string(nd.track) + " occ=" + std::to_string(occ[n]) + users);
    }
    std::size_t unrouted = 0;
    for (std::size_t ri = 0; ri < reqs.size(); ++ri)
        for (const auto& s : result.trees[ri].sinks)
            if (s.ipin == UINT32_MAX) ++unrouted;
    if (unrouted)
        result.overuse_report.push_back(std::to_string(unrouted) + " unrouted sinks");
}

// ---------------------------------------------------------------------------
// Pooled heap vs std::priority_queue
// ---------------------------------------------------------------------------

// The kernel's bit-identity hinges on the pooled heap popping in EXACTLY
// std::priority_queue's order, ties included (a tie decides which target pin
// wins a search). std::priority_queue::push/pop are specified as
// push_back+push_heap / pop_heap+pop_back — the pooled heap must be
// indistinguishable on any interleaved push/pop stream.
TEST(PooledHeap, MatchesPriorityQueueOnRandomStreams) {
    for (std::uint32_t seed : {1u, 7u, 1234u, 987654u}) {
        std::mt19937 rng(seed);
        // Discrete costs make ties common; node ids break them (or don't —
        // equal-cost equal-node duplicates are legal too).
        std::uniform_int_distribution<int> cost(0, 9);
        std::uniform_int_distribution<int> node(0, 31);
        std::uniform_int_distribution<int> action(0, 3);

        PooledHeap pooled;
        std::priority_queue<HeapItem> ref;
        for (int step = 0; step < 5000; ++step) {
            if (action(rng) == 0 && !ref.empty()) {
                const HeapItem a = pooled.pop();
                const HeapItem b = ref.top();
                ref.pop();
                ASSERT_EQ(a.cost, b.cost) << "seed " << seed << " step " << step;
                ASSERT_EQ(a.backward, b.backward) << "seed " << seed << " step " << step;
                ASSERT_EQ(a.node, b.node) << "seed " << seed << " step " << step;
            } else {
                const double c = static_cast<double>(cost(rng));
                const HeapItem it{c, c * 0.5, static_cast<std::uint32_t>(node(rng))};
                pooled.push(it);
                ref.push(it);
            }
        }
        // Drain: full pop order must agree.
        while (!ref.empty()) {
            const HeapItem a = pooled.pop();
            const HeapItem b = ref.top();
            ref.pop();
            ASSERT_EQ(a.cost, b.cost);
            ASSERT_EQ(a.backward, b.backward);
            ASSERT_EQ(a.node, b.node);
        }
        EXPECT_TRUE(pooled.empty());
    }
}

TEST(PooledHeap, ClearRetainsCapacityAndPushReportsGrowth) {
    PooledHeap h;
    std::uint64_t grows = 0;
    for (std::uint32_t i = 0; i < 1000; ++i)
        if (h.push({static_cast<double>(999 - i), 0.0, i})) ++grows;
    EXPECT_GT(grows, 0u);
    EXPECT_LE(grows, 1000u);
    const std::size_t cap = h.capacity();
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.capacity(), cap);
    // Refilling within retained capacity is allocation-free.
    for (std::uint32_t i = 0; i < 1000; ++i)
        EXPECT_FALSE(h.push({static_cast<double>(i), 0.0, i})) << i;
    EXPECT_EQ(h.capacity(), cap);
}

// ---------------------------------------------------------------------------
// The lookahead and the search against behaviour oracles
// ---------------------------------------------------------------------------

/// Base cost of occupying `n`, from the node record.
double base_cost(const RRGraph& rr, std::uint32_t n) {
    return static_cast<double>(std::max<std::int64_t>(rr.node(n).delay_ps, 1));
}

/// In-edge sources of every node, from the edge list.
std::vector<std::vector<std::uint32_t>> in_sources(const RRGraph& rr) {
    std::vector<std::vector<std::uint32_t>> in(rr.num_nodes());
    for (std::uint32_t e = 0; e < rr.num_edges(); ++e)
        in[rr.edge_target(e)].push_back(rr.edge_source(e));
    return in;
}

/// Exact least base cost from every node to any input pin of `t`, the
/// node's own cost excluded and the pin's included (infinity when no path
/// exists): a Dijkstra over the reversed edge list.
std::vector<double> exact_cost_to(const RRGraph& rr,
                                  const std::vector<std::vector<std::uint32_t>>& in,
                                  PlbCoord t) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> g(rr.num_nodes(), inf);
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (std::uint32_t p = 0; p < rr.arch().plb_inputs; ++p) {
        g[rr.plb_ipin(t, p)] = 0.0;
        pq.push({0.0, rr.plb_ipin(t, p)});
    }
    while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d > g[v]) continue;
        for (std::uint32_t u : in[v]) {
            const double du = d + base_cost(rr, v);
            if (du < g[u]) {
                g[u] = du;
                pq.push({du, u});
            }
        }
    }
    return g;
}

// Admissibility: for every non-pad node and every PLB target, the lookahead
// is at most the exact cost, over channel widths, connection-box
// populations and wire capacities. When the target is the fabric's centre
// PLB, the table is exact for every wire and output pin it covers.
TEST(Lookahead, NeverExceedsTheExactCost) {
    constexpr std::int64_t R = RRGraph::kLookaheadRadius;
    for (std::uint32_t dim : {7u, 9u})
        for (std::uint32_t cw : {6u, 10u, 16u})
            for (double fc_in : {0.25, 0.5, 1.0})
                for (std::uint32_t cap : {1u, 2u}) {
                    ArchSpec a = arch_of(dim, dim, cw);
                    a.fc_in = fc_in;
                    a.wire_capacity = cap;
                    const RRGraph rr(a);
                    const auto in = in_sources(rr);
                    const PlbCoord centre{dim / 2, dim / 2};
                    std::size_t over = 0;
                    std::size_t inexact = 0;
                    std::size_t tighter = 0;
                    std::string first;
                    for (std::uint32_t ty = 0; ty < dim; ++ty)
                        for (std::uint32_t tx = 0; tx < dim; ++tx) {
                            const PlbCoord t{tx, ty};
                            const std::vector<double> g = exact_cost_to(rr, in, t);
                            const bool at_centre = tx == centre.x && ty == centre.y;
                            for (std::uint32_t n = 0; n < rr.num_nodes(); ++n) {
                                const core::RRNode& nd = rr.node(n);
                                if (nd.is_pad) continue;
                                const double h = rr.lookahead(rr.node_word(n), t);
                                if (h > g[n]) {
                                    if (over++ == 0)
                                        first = to_string(nd.kind) + "(" +
                                                std::to_string(nd.x) + "," +
                                                std::to_string(nd.y) + ")#" +
                                                std::to_string(nd.track) + " to (" +
                                                std::to_string(tx) + "," +
                                                std::to_string(ty) + "): " +
                                                std::to_string(h) + " > " +
                                                std::to_string(g[n]);
                                }
                                const std::int64_t dx = std::int64_t{nd.x} - tx;
                                const std::int64_t dy = std::int64_t{nd.y} - ty;
                                const bool wire =
                                    nd.kind == RRKind::ChanX || nd.kind == RRKind::ChanY;
                                const std::int64_t hi = wire ? R + 1 : R;
                                const bool covered = (wire || nd.kind == RRKind::Opin) &&
                                                     dx >= -R && dx <= hi && dy >= -R &&
                                                     dy <= hi;
                                if (at_centre && covered && std::isfinite(g[n]) && h != g[n])
                                    ++inexact;
                                const auto [px, py] = rr.node_word(n).grid_pos();
                                const double manhattan =
                                    static_cast<double>(a.wire_delay_ps) *
                                    (std::abs(px - (tx + 0.5)) + std::abs(py - (ty + 0.5)));
                                if (h > manhattan) ++tighter;
                            }
                        }
                    const std::string where = std::to_string(dim) + "x" +
                                              std::to_string(dim) + " cw=" +
                                              std::to_string(cw) + " fc_in=" +
                                              std::to_string(fc_in) + " cap=" +
                                              std::to_string(cap);
                    EXPECT_EQ(over, 0u) << where << ", first: " << first;
                    EXPECT_EQ(inexact, 0u) << where;
                    EXPECT_GT(tighter, 0u) << where << ": the table never beat Manhattan";
                }
}

/// Summed base cost of the nodes a single-sink net's tree occupies: the
/// cost of its one source-to-sink path.
double path_cost(const RRGraph& rr, const NetRouteState& st) {
    double c = 0.0;
    for (std::uint32_t n : st.nodes) c += base_cost(rr, n);
    return c;
}

// Optimality: with iteration-1 costs (nothing occupied, no history), a
// search guided by the lookahead finds a path exactly as cheap as pure
// Dijkstra (astar_fac = 0) does, for PLB and pad endpoints alike, and so
// does one confined to a bounding box, whose tree stays inside the box.
TEST(RouteKernel, LookaheadSearchCostsWhatDijkstraCosts) {
    for (std::uint32_t cw : {6u, 10u, 16u}) {
        const RRGraph rr(arch_of(9, 9, cw));
        const std::size_t N = rr.num_nodes();
        const std::vector<double> hist(N, 0.0);
        std::vector<std::uint16_t> occ(N, 0);
        SearchScratch scratch(N);
        RouterOptions astar;
        RouterOptions dijkstra;
        dijkstra.astar_fac = 0.0;
        auto cost = [&](const RouteRequest& rq, const RouterOptions& o, const RouteBBox* box) {
            const NetRouteState st =
                cad::detail::route_one_net(rr, rq, o, 0.6, hist, occ, scratch, box);
            EXPECT_TRUE(st.all_sinks_found);
            for (std::uint32_t n : st.nodes) {
                --occ[n];  // back to iteration-1 costs
                if (box != nullptr) {
                    EXPECT_TRUE(box->allows(rr.node_word(n)));
                }
            }
            return path_cost(rr, st);
        };
        std::vector<RouteRequest> reqs;
        for (std::uint32_t sy = 0; sy < 9; ++sy)
            for (std::uint32_t sx = (sy % 3); sx < 9; sx += 3)
                for (std::uint32_t ty = 0; ty < 9; ++ty)
                    for (std::uint32_t tx = 0; tx < 9; ++tx)
                        if (sx != tx || sy != ty) reqs.push_back(plb_to_plb({sx, sy}, {tx, ty}));
        for (std::uint32_t pad = 0; pad < rr.geometry().num_pads(); pad += 5) {
            RouteRequest from_pad;
            from_pad.src_is_pad = true;
            from_pad.src_pad = pad;
            from_pad.sinks.push_back({false, 0, {pad % 9, (pad / 9) % 9}});
            reqs.push_back(from_pad);
            RouteRequest to_pad;
            to_pad.src_plb = {(pad / 9) % 9, pad % 9};
            to_pad.sinks.push_back({true, pad, {}});
            reqs.push_back(to_pad);
        }
        std::size_t worse = 0;
        std::size_t worse_boxed = 0;
        for (const RouteRequest& rq : reqs) {
            if (cost(rq, astar, nullptr) != cost(rq, dijkstra, nullptr)) ++worse;
            if (rq.src_is_pad || rq.sinks[0].is_pad) continue;
            // The terminals' box grown by one PLB, as the router's regions are.
            const PlbCoord s = rq.src_plb;
            const PlbCoord t = rq.sinks[0].plb;
            const RouteBBox box = RouteBBox{std::min(s.x, t.x), std::min(s.y, t.y),
                                            std::max(s.x, t.x), std::max(s.y, t.y)}
                                      .expanded(1, 9, 9);
            if (cost(rq, astar, &box) != cost(rq, dijkstra, &box)) ++worse_boxed;
        }
        EXPECT_EQ(worse, 0u) << "cw=" << cw << ": of " << reqs.size() << " searches";
        EXPECT_EQ(worse_boxed, 0u) << "cw=" << cw << ", boxed";
    }
}

// The dead-end filter: an input pin is never expanded, so the only ones a
// search may push are its sink's own. A node pushed during the last sink's
// search carries that sink's visit epoch.
TEST(RouteKernel, PushesNoForeignInputPin) {
    const RRGraph rr(arch_of(9, 9, 8));
    const std::size_t N = rr.num_nodes();
    std::vector<double> hist(N, 0.0);
    for (std::size_t n = 0; n < N; n += 7) hist[n] = 3.0;
    std::vector<std::uint16_t> occ(N, 0);
    SearchScratch scratch(N);
    RouteRequest to_pad = plb_to_plb({4, 4}, {0, 0});
    to_pad.sinks = {{true, 3, {}}};
    const std::vector<RouteRequest> reqs = {plb_to_plb({0, 0}, {8, 8}),
                                            plb_to_plb({4, 4}, {3, 5}), to_pad,
                                            plb_to_plb({8, 0}, {0, 8})};
    for (double pres_fac : {0.6, 1.7})
        for (const RouteRequest& rq : reqs) {
            const NetRouteState st =
                cad::detail::route_one_net(rr, rq, {}, pres_fac, hist, occ, scratch, nullptr);
            ASSERT_TRUE(st.all_sinks_found);
            const RouteRequest::Sink& sk = rq.sinks.back();
            std::size_t own = 0;
            for (std::uint32_t n = 0; n < N; ++n) {
                const core::RRNode& nd = rr.node(n);
                if (nd.kind != RRKind::Ipin || scratch.visit_mark[n] != scratch.mark) continue;
                const bool target = sk.is_pad ? n == rr.pad_ipin(sk.pad)
                                              : !nd.is_pad && nd.x == sk.plb.x &&
                                                    nd.y == sk.plb.y;
                EXPECT_TRUE(target) << "pushed foreign input pin " << n;
                ++own;
            }
            EXPECT_GT(own, 0u) << "the sink's own pin was pushed";
        }
}

// The router's two whole-result passes against their references on one
// routing state built net by net: some nodes overused (every net is routed
// without ripping anything up), one sink unreachable inside its box, one
// tree whose root pin must be recovered from its edge list.
TEST(RouteKernel, FinalizeAndReportMatchReference) {
    const RRGraph rr(arch_of(4, 4, 2));
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 4; ++i)
        for (std::uint32_t j = 0; j < 3; ++j) reqs.push_back(plb_to_plb({i, 0}, {3 - i, 3}));
    RouteRequest multi = plb_to_plb({1, 1}, {3, 3});
    RouteRequest::Sink far;
    far.plb = {0, 3};
    multi.sinks.push_back(far);
    reqs.push_back(multi);
    RouterOptions opts;

    const std::size_t N = rr.num_nodes();
    const std::vector<double> hist(N, 0.0);
    std::vector<std::uint16_t> occ(N, 0);
    SearchScratch scratch(N);
    std::vector<std::vector<std::uint32_t>> net_nodes;
    std::vector<RouteTree> trees;
    const RouteBBox right_half{1, 0, 3, 3};
    for (std::size_t ri = 0; ri < reqs.size(); ++ri) {
        // The multicast net is confined to the right half, where its second
        // sink cannot be reached.
        const RouteBBox* box = ri + 1 == reqs.size() ? &right_half : nullptr;
        NetRouteState st =
            cad::detail::route_one_net(rr, reqs[ri], opts, 0.6, hist, occ, scratch, box);
        net_nodes.push_back(std::move(st.nodes));
        trees.push_back(std::move(st.tree));
    }
    trees[0].root_opin = UINT32_MAX;

    std::size_t overused = 0;
    for (std::uint32_t n = 0; n < N; ++n)
        if (occ[n] > rr.node_capacity(n)) ++overused;
    ASSERT_GT(overused, 0u) << "fixture must overuse some node";
    ASSERT_EQ(trees.back().sinks[1].ipin, UINT32_MAX) << "fixture must leave a sink unrouted";

    RoutingResult a;
    a.trees = trees;
    RoutingResult b = a;
    cad::detail::finalize_routing(rr, reqs, net_nodes, a);
    finalize_routing_reference(rr, reqs, net_nodes, b);
    EXPECT_GT(a.wirelength, 0u);
    expect_identical_routing(a, b);

    RoutingResult c;
    c.trees = trees;
    RoutingResult d = c;
    cad::detail::report_overuse(rr, reqs, net_nodes, occ, c);
    report_overuse_reference(rr, reqs, net_nodes, occ, d);
    EXPECT_EQ(c.overuse_report.size(), overused + 1);  // + the unrouted-sink line
    EXPECT_EQ(c.overuse_report, d.overuse_report);
}

// A stuck net's margin grows as extra * 2 + 2 in 32 bits, which reaches
// 2^32 - 2 after 31 escalations, and the wire can carry any bin_margin: the
// grown box must clamp to the fabric, never wrap to one that misses the
// terminals.
TEST(RouteBBox, ExpandedClampsHugeMargins) {
    const RouteBBox b{5, 5, 5, 5};
    const RouteBBox whole{0, 0, 9, 9};
    for (std::uint64_t m : {std::uint64_t{4}, std::uint64_t{5}, std::uint64_t{UINT32_MAX - 1},
                            std::uint64_t{UINT32_MAX} + 2}) {
        const RouteBBox e = b.expanded(m, 10, 10);
        EXPECT_TRUE(e.contains(b)) << m;
        if (m >= 5) {
            EXPECT_TRUE(e.contains(whole) && whole.contains(e)) << m;
        }
    }
}

// ---------------------------------------------------------------------------
// Epoch wraparound
// ---------------------------------------------------------------------------

// Drive the per-sink and per-net epoch counters across the 32-bit wraparound
// (with plausible stale stamps in the arrays) and demand the same result a
// fresh scratch produces: the wash-on-overflow must leave no stale label
// aliasing a reissued epoch.
TEST(RouteKernel, EpochStampWraparoundIsInvisible) {
    const RRGraph rr(arch_of(9, 9, 8));
    RouterOptions opts;
    // One net with many sinks (each sink consumes one mark epoch) so a single
    // call crosses the wraparound.
    RouteRequest rq;
    rq.src_plb = {4, 4};
    for (std::uint32_t i = 0; i < 8; ++i) {
        RouteRequest::Sink sk;
        sk.plb = {i, 8};
        rq.sinks.push_back(sk);
    }
    const std::size_t N = rr.num_nodes();
    std::vector<double> hist(N, 0.0);

    std::vector<std::uint16_t> occ_fresh(N, 0);
    SearchScratch fresh(N);
    const NetRouteState want =
        cad::detail::route_one_net(rr, rq, opts, 0.6, hist, occ_fresh, fresh, nullptr);

    std::vector<std::uint16_t> occ_wrap(N, 0);
    SearchScratch wrap(N);
    // Mid-life scratch: counters a few epochs from overflow, arrays holding
    // stale-but-legal stamps (values the counter actually passed through).
    wrap.mark = UINT32_MAX - 3;
    wrap.tree_epoch = UINT32_MAX;  // wraps on this net's begin_net()
    std::fill(wrap.visit_mark.begin(), wrap.visit_mark.end(), UINT32_MAX - 7);
    std::fill(wrap.target_mark.begin(), wrap.target_mark.end(), UINT32_MAX - 9);
    std::fill(wrap.tree_mark.begin(), wrap.tree_mark.end(), UINT32_MAX);
    std::fill(wrap.best.begin(), wrap.best.end(), -1.0);  // stale garbage
    const NetRouteState got =
        cad::detail::route_one_net(rr, rq, opts, 0.6, hist, occ_wrap, wrap, nullptr);

    EXPECT_EQ(got.nodes, want.nodes);
    EXPECT_EQ(got.tree.root_opin, want.tree.root_opin);
    EXPECT_EQ(got.tree.edges, want.tree.edges);
    ASSERT_EQ(got.tree.sinks.size(), want.tree.sinks.size());
    for (std::size_t s = 0; s < want.tree.sinks.size(); ++s)
        EXPECT_EQ(got.tree.sinks[s].ipin, want.tree.sinks[s].ipin) << "sink " << s;
    EXPECT_EQ(occ_wrap, occ_fresh);
    // The per-sink counter must have wrapped and restarted low.
    EXPECT_LT(wrap.mark, 16u);
    EXPECT_LT(wrap.tree_epoch, 16u);
}

// ---------------------------------------------------------------------------
// Full router: no pool and the thread matrix
// ---------------------------------------------------------------------------

/// Route `reqs` on the calling thread (`threads == 0`) or on a pool of
/// `threads` workers.
RoutingResult route_with(const RRGraph& rr, const std::vector<RouteRequest>& reqs,
                         const RouterOptions& opts, unsigned threads) {
    if (threads == 0) return cad::route(rr, reqs, opts);
    base::ThreadPool pool(threads);
    return cad::route(rr, reqs, opts, &pool);
}

/// Funnel many nets into one column so PathFinder has to negotiate over
/// several iterations, exercising rip-up, history costs and the
/// stall/full-reroute path.
std::vector<RouteRequest> congested_column() {
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 12; ++i) reqs.push_back(plb_to_plb({i, 0}, {6, 12}));
    for (std::uint32_t i = 0; i < 12; ++i)
        if (i != 6) reqs.push_back(plb_to_plb({6, 12 - i}, {i, 0}));
    return reqs;
}

// Kernel counters are decision-deterministic: no pool and every thread count
// report the same pushes/pops/expansions (only search_ms may differ).
TEST(RouteKernel, CountersInvariantAcrossThreadCounts) {
    const RRGraph rr(arch_of(13, 13, 10));
    const auto reqs = quadrant_mix();
    std::vector<RoutingResult> results;
    for (unsigned t : {0u, 1u, 2u, 4u, 8u}) {
        results.push_back(route_with(rr, reqs, {}, t));
        ASSERT_TRUE(results.back().success) << t << " threads";
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].kernel.heap_pushes, results[0].kernel.heap_pushes);
        EXPECT_EQ(results[i].kernel.heap_pops, results[0].kernel.heap_pops);
        EXPECT_EQ(results[i].kernel.nodes_expanded, results[0].kernel.nodes_expanded);
        EXPECT_EQ(results[i].kernel.edges_scanned, results[0].kernel.edges_scanned);
        EXPECT_EQ(results[i].kernel.wavefront_peak, results[0].kernel.wavefront_peak);
        EXPECT_EQ(results[i].kernel.nets_routed, results[0].kernel.nets_routed);
    }
}

// ---------------------------------------------------------------------------
// Recorded goldens
// ---------------------------------------------------------------------------
//
// Re-recorded when the search gained the RR-graph lookahead and stopped
// pushing other blocks' input pins (the seed kernel's constants moved with
// the wavefront's tie order). They pin every routing decision (trees, sink
// delays, wirelength, iteration count) and the kernel counters at threads
// 0/1/2/4/8, the failure report of a saturated fabric, and the bitstreams of
// two full flows.

namespace route_golden {

class Fnv {
public:
    void mix(std::uint64_t x, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h_ ^= (x >> (8 * i)) & 0xFFu;
            h_ *= 0x100000001B3ULL;
        }
    }
    void mix(const std::string& s) {
        mix(s.size(), 8);
        for (unsigned char c : s) mix(c, 1);
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// FNV-1a over every tree: root pin, edge list, then each sink's pin and
/// root-to-sink delay.
std::uint64_t tree_hash(const RoutingResult& r) {
    Fnv h;
    for (const RouteTree& t : r.trees) {
        h.mix(t.root_opin, 4);
        h.mix(t.edges.size(), 8);
        for (std::uint32_t e : t.edges) h.mix(e, 4);
        for (const RouteTree::SinkResult& s : t.sinks) {
            h.mix(s.ipin, 4);
            h.mix(static_cast<std::uint64_t>(s.delay_ps), 8);
        }
    }
    return h.value();
}

std::uint64_t bits_hash(const base::BitVector& bits) {
    Fnv h;
    h.mix(bits.size(), 8);
    for (std::uint64_t w : bits.words()) h.mix(w, 8);
    return h.value();
}

struct Golden {
    int iterations;
    std::size_t wirelength;
    std::uint64_t tree_hash;
    std::uint64_t heap_pushes;
    std::uint64_t heap_pops;
    std::uint64_t nodes_expanded;
    std::uint64_t edges_scanned;
};

void expect_golden(const RRGraph& rr, const std::vector<RouteRequest>& reqs, const Golden& g) {
    for (unsigned t : {0u, 1u, 2u, 4u, 8u}) {
        const RoutingResult r = route_with(rr, reqs, {}, t);
        ASSERT_TRUE(r.success) << "threads=" << t;
        EXPECT_EQ(r.iterations, g.iterations) << "threads=" << t;
        EXPECT_EQ(r.wirelength, g.wirelength) << "threads=" << t;
        EXPECT_EQ(tree_hash(r), g.tree_hash)
            << "threads=" << t << std::hex << " 0x" << tree_hash(r);
        EXPECT_EQ(r.kernel.heap_pushes, g.heap_pushes) << "threads=" << t;
        EXPECT_EQ(r.kernel.heap_pops, g.heap_pops) << "threads=" << t;
        EXPECT_EQ(r.kernel.nodes_expanded, g.nodes_expanded) << "threads=" << t;
        EXPECT_EQ(r.kernel.edges_scanned, g.edges_scanned) << "threads=" << t;
        if (t == 0) {
            EXPECT_EQ(r.kernel.steady_allocations, 0u);
        }
    }
}

void expect_flow_golden(const netlist::Netlist& nl, const asynclib::MappingHints& hints,
                        std::uint64_t want) {
    for (unsigned t : {0u, 1u, 2u, 4u, 8u}) {
        cad::FlowOptions opts;
        opts.seed = 424242;
        opts.route.threads = t;
        const auto fr = cad::run_flow(nl, hints, core::ArchSpec{}, opts);
        const std::uint64_t got = bits_hash(fr.bits->serialize());
        EXPECT_EQ(got, want) << "threads=" << t << std::hex << " 0x" << got;
    }
}

}  // namespace route_golden

TEST(RouteGolden, CongestedColumn) {
    route_golden::expect_golden(RRGraph(arch_of(13, 13, 8)), congested_column(),
                                {2, 303u, 0x4769BA52D4ADF4AAULL, 15058u, 5988u, 5955u, 49493u});
}

TEST(RouteGolden, QuadrantMix) {
    route_golden::expect_golden(RRGraph(arch_of(13, 13, 10)), quadrant_mix(),
                                {2, 90u, 0x0A1AC85007BA07D5ULL, 1200u, 274u, 255u, 1764u});
}

// The saturated fabric of the failure path: the overuse report is built by
// report_overuse, string for string.
TEST(RouteGolden, SaturatedFailureReport) {
    const RRGraph rr(arch_of(4, 4, 2));
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 4; ++i)
        for (std::uint32_t j = 0; j < 3; ++j) reqs.push_back(plb_to_plb({i, 0}, {3 - i, 3}));
    RouterOptions opts;
    opts.max_iterations = 4;
    const RoutingResult r = cad::route(rr, reqs, opts);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.overused_nodes, 15u);
    route_golden::Fnv h;
    for (const std::string& line : r.overuse_report) h.mix(line);
    EXPECT_EQ(h.value(), 0x0B30D6CB322D6E42ULL) << std::hex << "0x" << h.value();
}

TEST(RouteGolden, QdiAdder2Bitstream) {
    auto adder = asynclib::make_qdi_adder(2);
    route_golden::expect_flow_golden(adder.nl, adder.hints, 0xB8173A265E8F6FD2ULL);
}

TEST(RouteGolden, WchbFifo2x2Bitstream) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    route_golden::expect_flow_golden(fifo.nl, fifo.hints, 0x1170AF63582C4385ULL);
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation
// ---------------------------------------------------------------------------

TEST(RouteKernel, ZeroSteadyStateAllocations) {
    // Multi-iteration congested run without a pool (where the count is
    // exact): after iteration 1 warms the pooled heap/buffers, the wavefront
    // loop must never grow a buffer again.
    const RRGraph rr(arch_of(13, 13, 8));
    const RoutingResult res = cad::route(rr, congested_column(), {});
    ASSERT_TRUE(res.success);
    ASSERT_GT(res.iterations, 1) << "fixture must negotiate congestion";
    EXPECT_GT(res.kernel.allocations, 0u) << "warm-up growth should be visible";
    EXPECT_EQ(res.kernel.steady_allocations, 0u);
    EXPECT_GT(res.kernel.heap_pops, 0u);
    EXPECT_GT(res.kernel.wavefront_peak, 0u);
}

}  // namespace
