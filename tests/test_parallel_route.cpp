// The partitioned router and the parallel RR-graph build: thread-count
// invariance of the routed result (no pool included), legality under
// congestion, boundary-net handling across partition cuts, and byte-identity
// of the pool-built RR graph against the serial build.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/threadpool.hpp"
#include "cad/route.hpp"
#include "core/rrgraph.hpp"

namespace {

using namespace afpga;
using cad::RouteRequest;
using cad::RouterOptions;
using cad::RoutingResult;
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

/// Deep equality of two routing results, down to every tree edge and delay.
void expect_identical_routing(const RoutingResult& a, const RoutingResult& b) {
    ASSERT_EQ(a.success, b.success);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.wirelength, b.wirelength);
    EXPECT_EQ(a.num_bins, b.num_bins);
    EXPECT_EQ(a.boundary_nets, b.boundary_nets);
    EXPECT_EQ(a.overuse_trajectory, b.overuse_trajectory);
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

/// No RR node may hold more nets than its capacity.
void expect_legal(const RRGraph& rr, const RoutingResult& res) {
    std::vector<std::uint32_t> occ(rr.num_nodes(), 0);
    for (const auto& t : res.trees) {
        std::set<std::uint32_t> mine;
        if (t.root_opin != UINT32_MAX) mine.insert(t.root_opin);
        for (std::uint32_t e : t.edges) {
            mine.insert(rr.edge_source(e));
            mine.insert(rr.edge_target(e));
        }
        for (std::uint32_t n : mine) ++occ[n];
    }
    for (std::uint32_t n = 0; n < rr.num_nodes(); ++n)
        EXPECT_LE(occ[n], rr.node_capacity(n)) << "node " << n;
}

// A 13x13 fabric splits (min_bin_dim = 4) into four leaf quadrants around a
// separator cross; the mix below puts nets in every quadrant plus nets that
// must cross the cuts.
std::vector<RouteRequest> quadrant_mix() {
    std::vector<RouteRequest> reqs;
    // Local nets, one per quadrant.
    reqs.push_back(plb_to_plb({0, 0}, {3, 3}));
    reqs.push_back(plb_to_plb({8, 0}, {11, 3}));
    reqs.push_back(plb_to_plb({0, 8}, {3, 11}));
    reqs.push_back(plb_to_plb({8, 8}, {11, 11}));
    // More local traffic to make the bins do real work.
    for (std::uint32_t i = 0; i < 4; ++i) {
        reqs.push_back(plb_to_plb({i, 1}, {3 - i, 2}));
        reqs.push_back(plb_to_plb({8 + i, 1}, {11 - i, 2}));
    }
    // Boundary nets: cross the vertical cut, the horizontal cut, and both.
    reqs.push_back(plb_to_plb({2, 2}, {10, 2}));
    reqs.push_back(plb_to_plb({2, 2}, {2, 10}));
    reqs.push_back(plb_to_plb({0, 0}, {12, 12}));
    return reqs;
}

TEST(ParallelRoute, ThreadCountInvariance) {
    const RRGraph rr(arch_of(13, 13, 10));
    const auto reqs = quadrant_mix();
    RouterOptions opts;
    std::vector<RoutingResult> results;
    results.push_back(cad::route(rr, reqs, opts));
    ASSERT_TRUE(results.back().success) << "no pool";
    for (unsigned t : {1u, 2u, 4u, 8u}) {
        base::ThreadPool pool(t);
        results.push_back(cad::route(rr, reqs, opts, &pool));
        ASSERT_TRUE(results.back().success) << t << " threads";
    }
    for (std::size_t i = 1; i < results.size(); ++i)
        expect_identical_routing(results[0], results[i]);
    EXPECT_GT(results[0].num_bins, 1u);
    EXPECT_GE(results[0].boundary_nets, 3u);
}

TEST(ParallelRoute, RepeatedRunsIdentical) {
    const RRGraph rr(arch_of(13, 13, 10));
    const auto reqs = quadrant_mix();
    base::ThreadPool pool(4);
    const auto a = cad::route(rr, reqs, {}, &pool);
    const auto b = cad::route(rr, reqs, {}, &pool);
    expect_identical_routing(a, b);
}

TEST(ParallelRoute, LegalityUnderCongestion) {
    // Funnel many nets into one column so PathFinder has to negotiate; the
    // final result must be legal and identical for every worker count.
    const RRGraph rr(arch_of(13, 13, 8));
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 12; ++i)
        reqs.push_back(plb_to_plb({i, 0}, {6, 12}));  // all into the separator column
    for (std::uint32_t i = 0; i < 12; ++i)
        if (i != 6) reqs.push_back(plb_to_plb({6, 12 - i}, {i, 0}));
    base::ThreadPool one(1);
    base::ThreadPool four(4);
    const auto a = cad::route(rr, reqs, {}, &one);
    const auto b = cad::route(rr, reqs, {}, &four);
    ASSERT_TRUE(a.success);
    expect_identical_routing(a, b);
    expect_legal(rr, a);
    EXPECT_GT(a.iterations, 1) << "expected real congestion negotiation";
}

TEST(ParallelRoute, BoundaryNetsRouteCorrectly) {
    const RRGraph rr(arch_of(13, 13, 10));
    // Only cut-crossing nets: every one must be serialized and still legal.
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 5; ++i) reqs.push_back(plb_to_plb({1, 2 + i}, {11, 2 + i}));
    base::ThreadPool pool(4);
    const auto res = cad::route(rr, reqs, {}, &pool);
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.boundary_nets, reqs.size());
    expect_legal(rr, res);
    // Each tree must actually connect root to its sink.
    for (const auto& tree : res.trees) {
        std::set<std::uint32_t> reach{tree.root_opin};
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::uint32_t e : tree.edges)
                if (reach.count(rr.edge_source(e)) && !reach.count(rr.edge_target(e))) {
                    reach.insert(rr.edge_target(e));
                    changed = true;
                }
        }
        EXPECT_TRUE(reach.count(tree.sinks[0].ipin));
    }
}

TEST(ParallelRoute, PadNetsAndMulticastAcrossCuts) {
    const RRGraph rr(arch_of(13, 13, 10));
    std::vector<RouteRequest> reqs;
    RouteRequest in;
    in.src_is_pad = true;
    in.src_pad = 0;
    RouteRequest::Sink s1;
    s1.plb = {2, 2};
    in.sinks.push_back(s1);
    RouteRequest::Sink s2;
    s2.plb = {10, 10};
    in.sinks.push_back(s2);
    reqs.push_back(in);
    RouteRequest out = plb_to_plb({10, 2}, {10, 2});
    out.sinks.clear();
    RouteRequest::Sink pad_sink;
    pad_sink.is_pad = true;
    pad_sink.pad = 9;
    out.sinks.push_back(pad_sink);
    reqs.push_back(out);
    base::ThreadPool one(1);
    base::ThreadPool three(3);
    const auto a = cad::route(rr, reqs, {}, &one);
    const auto b = cad::route(rr, reqs, {}, &three);
    ASSERT_TRUE(a.success);
    expect_identical_routing(a, b);
    EXPECT_EQ(a.trees[1].sinks[0].ipin, rr.pad_ipin(9));
}

TEST(ParallelRoute, SingleBinFabricStillWorks) {
    // 8x8 with min_bin_dim=4 cannot split: everything lands in the root bin
    // and the router degenerates to one serial task — results must still be
    // invariant and legal.
    const RRGraph rr(arch_of(8, 8, 10));
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 6; ++i) reqs.push_back(plb_to_plb({i, 0}, {7 - i, 7}));
    base::ThreadPool one(1);
    base::ThreadPool four(4);
    const auto a = cad::route(rr, reqs, {}, &one);
    const auto b = cad::route(rr, reqs, {}, &four);
    ASSERT_TRUE(a.success);
    EXPECT_EQ(a.num_bins, 1u);
    EXPECT_EQ(a.boundary_nets, 0u);
    expect_identical_routing(a, b);
    expect_legal(rr, a);
}

// --- parallel RR-graph construction -----------------------------------------

TEST(ParallelRRBuild, ByteIdenticalToSerial) {
    const ArchSpec a = arch_of(13, 13, 10);
    const RRGraph serial(a);
    for (unsigned t : {1u, 3u, 8u}) {
        base::ThreadPool pool(t);
        const RRGraph par(a, pool);
        ASSERT_EQ(serial.num_nodes(), par.num_nodes());
        ASSERT_EQ(serial.num_edges(), par.num_edges());
        EXPECT_EQ(serial.content_fingerprint(), par.content_fingerprint()) << t << " workers";
    }
}

TEST(ParallelRRBuild, AdjacencyMatchesSerial) {
    const ArchSpec a = arch_of(9, 7, 6);  // non-square on purpose
    const RRGraph serial(a);
    base::ThreadPool pool(4);
    const RRGraph par(a, pool);
    ASSERT_EQ(serial.num_nodes(), par.num_nodes());
    for (std::uint32_t n = 0; n < serial.num_nodes(); ++n) {
        const auto s = serial.out(n);
        const auto p = par.out(n);
        ASSERT_EQ(s.size(), p.size()) << "node " << n;
        for (std::size_t i = 0; i < s.size(); ++i) {
            EXPECT_EQ(s[i].edge, p[i].edge);
            EXPECT_EQ(s[i].to, p[i].to);
        }
    }
}

TEST(ParallelRRBuild, FingerprintSensitiveToArch) {
    const RRGraph a(arch_of(8, 8, 10));
    const RRGraph b(arch_of(8, 8, 12));
    EXPECT_NE(a.content_fingerprint(), b.content_fingerprint());
}

}  // namespace
