// The reworked router search kernel (pooled heap, SoA hot data, epoch-marked
// scratch) against its hard contract: bit-identical routing decisions to the
// pre-rework reference kernel — same trees, same bitstreams, at any thread
// count — plus the pooled-heap ordering equivalence, epoch wraparound safety
// and the zero-steady-state-allocation property the bench tier gates on.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
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
using cad::RoutingResult;
using cad::detail::HeapItem;
using cad::detail::NetRouteState;
using cad::detail::PooledHeap;
using cad::detail::SearchScratch;
using core::ArchSpec;
using core::PlbCoord;
using core::RRGraph;

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

/// Run `f` with the reference kernel selected, restoring the default after.
template <typename F>
auto with_reference_kernel(F&& f) {
    cad::detail::set_use_reference_kernel(true);
    auto r = f();
    cad::detail::set_use_reference_kernel(false);
    return r;
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
// Kernel vs reference kernel, single searches
// ---------------------------------------------------------------------------

// Drive both kernels through the same evolving congestion state (separate occ
// arrays, updated identically by each kernel's own commits) and demand the
// same trees, node sets and occupancy after every net.
TEST(RouteKernel, MatchesReferenceNetByNet) {
    const RRGraph rr(arch_of(9, 9, 6));
    RouterOptions opts;
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 8; ++i) reqs.push_back(plb_to_plb({i, 0}, {8 - i, 8}));
    // A multicast net and a pad-to-PLB net for coverage.
    RouteRequest multi = plb_to_plb({4, 4}, {0, 0});
    RouteRequest::Sink extra;
    extra.plb = {8, 8};
    multi.sinks.push_back(extra);
    reqs.push_back(multi);
    RouteRequest pad;
    pad.src_is_pad = true;
    pad.src_pad = 1;
    RouteRequest::Sink ps;
    ps.plb = {4, 4};
    pad.sinks.push_back(ps);
    reqs.push_back(pad);

    const std::size_t N = rr.num_nodes();
    std::vector<double> hist(N, 0.0);
    // Nonzero history on a stripe so the cost surface is not flat.
    for (std::size_t n = 0; n < N; n += 7) hist[n] = 3.0;
    std::vector<std::uint16_t> occ_new(N, 0);
    std::vector<std::uint16_t> occ_ref(N, 0);
    SearchScratch scratch_new(N);
    SearchScratch scratch_ref(N);

    for (double pres_fac : {0.6, 1.7}) {
        for (std::size_t ri = 0; ri < reqs.size(); ++ri) {
            const NetRouteState a = cad::detail::route_one_net(
                rr, reqs[ri], opts, pres_fac, hist, occ_new, scratch_new, nullptr);
            const NetRouteState b = cad::detail::route_one_net_reference(
                rr, reqs[ri], opts, pres_fac, hist, occ_ref, scratch_ref, nullptr);
            EXPECT_EQ(a.all_sinks_found, b.all_sinks_found) << "net " << ri;
            EXPECT_EQ(a.nodes, b.nodes) << "net " << ri;
            EXPECT_EQ(a.tree.root_opin, b.tree.root_opin) << "net " << ri;
            EXPECT_EQ(a.tree.edges, b.tree.edges) << "net " << ri;
            ASSERT_EQ(a.tree.sinks.size(), b.tree.sinks.size());
            for (std::size_t s = 0; s < a.tree.sinks.size(); ++s)
                EXPECT_EQ(a.tree.sinks[s].ipin, b.tree.sinks[s].ipin)
                    << "net " << ri << " sink " << s;
        }
        EXPECT_EQ(occ_new, occ_ref);
    }
    EXPECT_GT(scratch_new.stats.heap_pops, 0u);
    EXPECT_GT(scratch_new.stats.nodes_expanded, 0u);
    EXPECT_GE(scratch_new.stats.heap_pushes, scratch_new.stats.heap_pops);
}

// Bounding-box confinement must agree too (every router search is confined).
TEST(RouteKernel, MatchesReferenceUnderBBox) {
    const RRGraph rr(arch_of(13, 13, 10));
    RouterOptions opts;
    const RouteRequest rq = plb_to_plb({1, 1}, {5, 5});
    const cad::detail::RouteBBox box{0, 0, 6, 6};
    const std::size_t N = rr.num_nodes();
    std::vector<double> hist(N, 0.0);
    std::vector<std::uint16_t> occ_a(N, 0);
    std::vector<std::uint16_t> occ_b(N, 0);
    SearchScratch sa(N);
    SearchScratch sb(N);
    const NetRouteState a =
        cad::detail::route_one_net(rr, rq, opts, 0.6, hist, occ_a, sa, &box);
    const NetRouteState b =
        cad::detail::route_one_net_reference(rr, rq, opts, 0.6, hist, occ_b, sb, &box);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.tree.edges, b.tree.edges);
    EXPECT_EQ(occ_a, occ_b);
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
// Full-router equivalence: no pool and the thread matrix
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

TEST(RouteKernel, RouterBitIdenticalToReferenceAcrossThreads) {
    struct Fixture {
        const char* name;
        RRGraph rr;
        std::vector<RouteRequest> reqs;
        bool negotiates;  ///< must take more than one PathFinder iteration
    };
    const Fixture fixtures[] = {
        {"congested_column", RRGraph(arch_of(13, 13, 8)), congested_column(), true},
        {"quadrant_mix", RRGraph(arch_of(13, 13, 10)), quadrant_mix(), false},
    };
    for (const Fixture& fx : fixtures) {
        for (unsigned t : {0u, 1u, 2u, 4u, 8u}) {
            const RoutingResult a = route_with(fx.rr, fx.reqs, {}, t);
            const RoutingResult b =
                with_reference_kernel([&] { return route_with(fx.rr, fx.reqs, {}, t); });
            ASSERT_TRUE(a.success) << fx.name << " threads=" << t;
            expect_identical_routing(a, b);
            EXPECT_GT(a.kernel.heap_pops, 0u) << fx.name << " threads=" << t;
            EXPECT_EQ(b.kernel.heap_pops, 0u) << "reference kernel fills no telemetry";
            if (t == 0) {
                EXPECT_EQ(a.kernel.steady_allocations, 0u) << fx.name;
            }
            if (fx.negotiates) {
                EXPECT_GT(a.iterations, 1) << fx.name << " threads=" << t;
            }
        }
    }
}

TEST(RouteKernel, FailureReportBitIdenticalToReference) {
    // Saturate a tiny fabric so routing fails: the overuse report (built by
    // the rewritten one-pass scan) must match the quadratic reference
    // string-for-string.
    const RRGraph rr(arch_of(4, 4, 2));
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 4; ++i)
        for (std::uint32_t j = 0; j < 3; ++j) reqs.push_back(plb_to_plb({i, 0}, {3 - i, 3}));
    RouterOptions opts;
    opts.max_iterations = 4;
    const RoutingResult a = cad::route(rr, reqs, opts);
    const RoutingResult b = with_reference_kernel([&] { return cad::route(rr, reqs, opts); });
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.overuse_report, b.overuse_report);
    EXPECT_EQ(a.overused_nodes, b.overused_nodes);
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
// End-to-end bitstream matrix: full flows, both kernels, threads 0/1/2/4/8
// ---------------------------------------------------------------------------

TEST(RouteKernel, FlowBitstreamsIdenticalToReferenceAcrossThreads) {
    struct Fixture {
        const char* name;
        netlist::Netlist nl;
        asynclib::MappingHints hints;
    };
    std::vector<Fixture> fixtures;
    {
        auto adder = asynclib::make_qdi_adder(2);
        fixtures.push_back({"qdi_adder2", std::move(adder.nl), std::move(adder.hints)});
        auto fifo = asynclib::make_wchb_fifo(2, 2);
        fixtures.push_back({"wchb_fifo2x2", std::move(fifo.nl), std::move(fifo.hints)});
    }
    for (const Fixture& fx : fixtures) {
        for (unsigned t : {0u, 1u, 2u, 4u, 8u}) {
            cad::FlowOptions opts;
            opts.seed = 424242;
            opts.route.threads = t;
            const auto a = cad::run_flow(fx.nl, fx.hints, core::ArchSpec{}, opts);
            const auto b = with_reference_kernel(
                [&] { return cad::run_flow(fx.nl, fx.hints, core::ArchSpec{}, opts); });
            EXPECT_EQ(testsupport::flow_fingerprint(a), testsupport::flow_fingerprint(b))
                << fx.name << " threads=" << t;
            EXPECT_TRUE(a.bits->serialize() == b.bits->serialize())
                << fx.name << " threads=" << t;
        }
    }
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
