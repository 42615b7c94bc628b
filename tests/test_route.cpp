// Unit tests of the PathFinder router against hand-built requests on small
// fabrics: legality, pin equivalence, congestion negotiation, delay
// accounting and failure reporting.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/threadpool.hpp"
#include "cad/route.hpp"
#include "core/rrgraph.hpp"

namespace {

using namespace afpga;
using cad::RouteRequest;
using cad::RouterOptions;
using core::ArchSpec;
using core::PlbCoord;
using core::RRGraph;

ArchSpec small_arch(std::uint32_t w = 4, std::uint32_t h = 4, std::uint32_t cw = 8) {
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

TEST(Router, SingleNetRoutes) {
    const RRGraph rr(small_arch());
    const auto res = cad::route(rr, {plb_to_plb({0, 0}, {3, 3})});
    ASSERT_TRUE(res.success);
    const auto& tree = res.trees[0];
    EXPECT_NE(tree.root_opin, UINT32_MAX);
    EXPECT_NE(tree.sinks[0].ipin, UINT32_MAX);
    EXPECT_GT(tree.edges.size(), 0u);
    EXPECT_GT(tree.sinks[0].delay_ps, 0);
}

// The iteration budget can arrive from the wire, so route() caps it.
TEST(Router, CapsMaxIterations) {
    const RRGraph rr(small_arch());
    RouterOptions opts;
    opts.max_iterations = 1001;
    try {
        (void)cad::route(rr, {plb_to_plb({0, 0}, {3, 3})}, opts);
        ADD_FAILURE() << "max_iterations = 1001 accepted";
    } catch (const base::Error& e) {
        EXPECT_NE(std::string(e.what()).find("max_iterations"), std::string::npos) << e.what();
    }
    opts.max_iterations = 1000;
    EXPECT_TRUE(cad::route(rr, {plb_to_plb({0, 0}, {3, 3})}, opts).success);
}

// So can the worker count, and every worker is an OS thread:
// make_route_pool refuses a count past its cap before starting any.
TEST(Router, CapsThreads) {
    RouterOptions opts;
    opts.threads = 257;
    try {
        (void)cad::make_route_pool(opts);
        ADD_FAILURE() << "threads = 257 accepted";
    } catch (const base::Error& e) {
        EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos) << e.what();
    }
    opts.threads = 2;
    EXPECT_NE(cad::make_route_pool(opts), nullptr);
}

// So can the cost factors: a NaN breaks the wavefront heap's ordering, and
// a negative factor rewards congestion. route() rejects each by name.
TEST(Router, RejectsNonFiniteFloatKnobs) {
    const RRGraph rr(small_arch());
    const std::vector<RouteRequest> reqs{plb_to_plb({0, 0}, {3, 3})};
    struct Knob {
        const char* name;
        double RouterOptions::*field;
    };
    const Knob knobs[] = {{"pres_fac_first", &RouterOptions::pres_fac_first},
                          {"pres_fac_mult", &RouterOptions::pres_fac_mult},
                          {"hist_fac", &RouterOptions::hist_fac},
                          {"astar_fac", &RouterOptions::astar_fac}};
    for (const Knob& k : knobs) {
        for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
            RouterOptions opts;
            opts.*k.field = bad;
            try {
                (void)cad::route(rr, reqs, opts);
                ADD_FAILURE() << k.name << " = " << bad << " accepted";
            } catch (const base::Error& e) {
                EXPECT_NE(std::string(e.what()).find(k.name), std::string::npos) << e.what();
            }
        }
        RouterOptions zero;
        zero.*k.field = 0.0;
        EXPECT_TRUE(cad::route(rr, reqs, zero).success) << k.name << " = 0";
    }
}

TEST(Router, PathIsConnectedRootToSink) {
    const RRGraph rr(small_arch());
    const auto res = cad::route(rr, {plb_to_plb({0, 0}, {3, 0})});
    ASSERT_TRUE(res.success);
    const auto& tree = res.trees[0];
    // Walk edges as adjacency: the sink must be reachable from the root.
    std::set<std::uint32_t> reach{tree.root_opin};
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::uint32_t e : tree.edges) {
            if (reach.count(rr.edge_source(e)) && !reach.count(rr.edge_target(e))) {
                reach.insert(rr.edge_target(e));
                changed = true;
            }
        }
    }
    EXPECT_TRUE(reach.count(tree.sinks[0].ipin));
}

TEST(Router, MulticastSharesTrunk) {
    const RRGraph rr(small_arch());
    RouteRequest rq = plb_to_plb({0, 0}, {3, 0});
    RouteRequest::Sink sk2;
    sk2.plb = {3, 3};
    rq.sinks.push_back(sk2);
    const auto res = cad::route(rr, {rq});
    ASSERT_TRUE(res.success);
    EXPECT_NE(res.trees[0].sinks[0].ipin, res.trees[0].sinks[1].ipin);
    // One root for the whole tree.
    EXPECT_NE(res.trees[0].root_opin, UINT32_MAX);
}

TEST(Router, ManyNetsNoOveruse) {
    const RRGraph rr(small_arch());
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 4; ++i)
        for (std::uint32_t j = 0; j < 4; ++j)
            if (i != j) reqs.push_back(plb_to_plb({i, 0}, {j, 3}));
    const auto res = cad::route(rr, reqs);
    ASSERT_TRUE(res.success);
    // No RR node may serve two nets: collect all tree nodes and check.
    std::set<std::uint32_t> used;
    for (const auto& t : res.trees) {
        std::set<std::uint32_t> mine{t.root_opin};
        for (std::uint32_t e : t.edges) {
            mine.insert(rr.edge_source(e));
            mine.insert(rr.edge_target(e));
        }
        for (std::uint32_t n : mine) EXPECT_TRUE(used.insert(n).second) << "node shared";
    }
}

TEST(Router, PinEquivalenceSpreadsIpins) {
    // Several nets into the same PLB must take distinct input pins.
    const RRGraph rr(small_arch());
    std::vector<RouteRequest> reqs;
    reqs.push_back(plb_to_plb({0, 0}, {2, 2}));
    reqs.push_back(plb_to_plb({1, 0}, {2, 2}));
    reqs.push_back(plb_to_plb({3, 0}, {2, 2}));
    reqs.push_back(plb_to_plb({0, 3}, {2, 2}));
    const auto res = cad::route(rr, reqs);
    ASSERT_TRUE(res.success);
    std::set<std::uint32_t> ipins;
    for (const auto& t : res.trees) EXPECT_TRUE(ipins.insert(t.sinks[0].ipin).second);
}

TEST(Router, AllowedSrcPinsRespected) {
    const RRGraph rr(small_arch());
    RouteRequest rq = plb_to_plb({1, 1}, {3, 3});
    rq.allowed_src_pins = {5};
    const auto res = cad::route(rr, {rq});
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.trees[0].root_opin, rr.plb_opin({1, 1}, 5));
}

TEST(Router, PadToPlbAndBack) {
    const RRGraph rr(small_arch());
    RouteRequest in;
    in.src_is_pad = true;
    in.src_pad = 0;
    RouteRequest::Sink sk;
    sk.plb = {2, 2};
    in.sinks.push_back(sk);
    RouteRequest out;
    out.src_plb = {2, 2};
    RouteRequest::Sink pad_sink;
    pad_sink.is_pad = true;
    pad_sink.pad = 7;
    out.sinks.push_back(pad_sink);
    const auto res = cad::route(rr, {in, out});
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.trees[1].sinks[0].ipin, rr.pad_ipin(7));
}

TEST(Router, DelayGrowsWithDistance) {
    const RRGraph rr(small_arch(8, 8, 10));
    const auto near = cad::route(rr, {plb_to_plb({0, 0}, {1, 0})});
    const auto far = cad::route(rr, {plb_to_plb({0, 0}, {7, 7})});
    ASSERT_TRUE(near.success && far.success);
    EXPECT_GT(far.trees[0].sinks[0].delay_ps, near.trees[0].sinks[0].delay_ps * 2);
}

TEST(Router, ImpossibleCongestionReportsFailure) {
    // 1x1 fabric: all nets must leave/enter the single PLB; starve the
    // channels so two nets cannot coexist.
    ArchSpec a = small_arch(2, 1, 2);
    a.fc_in = 1.0;
    a.fc_out = 1.0;
    const RRGraph rr(a);
    std::vector<RouteRequest> reqs;
    // More nets PLB(0,0)->PLB(1,0) than the 2-track channel can hold in
    // one... actually tracks are per segment; saturate with many parallel.
    for (int i = 0; i < 12; ++i) reqs.push_back(plb_to_plb({0, 0}, {1, 0}));
    RouterOptions opts;
    opts.max_iterations = 6;
    const auto res = cad::route(rr, reqs);
    if (!res.success) {
        EXPECT_FALSE(res.overuse_report.empty());
    } else {
        SUCCEED() << "fabric had enough pins/tracks after all";
    }
}

TEST(Router, DeterministicResult) {
    const RRGraph rr(small_arch());
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 3; ++i) reqs.push_back(plb_to_plb({i, 0}, {i, 3}));
    const auto a = cad::route(rr, reqs);
    const auto b = cad::route(rr, reqs);
    ASSERT_TRUE(a.success && b.success);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(a.trees[i].root_opin, b.trees[i].root_opin);
        EXPECT_EQ(a.trees[i].edges, b.trees[i].edges);
    }
}

TEST(Router, AstarMatchesDijkstraLegality) {
    const RRGraph rr(small_arch(6, 6, 10));
    std::vector<RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 5; ++i) reqs.push_back(plb_to_plb({i, 0}, {5 - i, 5}));
    RouterOptions astar;
    RouterOptions dijkstra;
    dijkstra.astar_fac = 0.0;
    const auto ra = cad::route(rr, reqs, astar);
    const auto rd = cad::route(rr, reqs, dijkstra);
    EXPECT_TRUE(ra.success);
    EXPECT_TRUE(rd.success);
    // A* may differ in paths but not in legality; delays stay comparable.
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_LT(ra.trees[i].sinks[0].delay_ps,
                  3 * rd.trees[i].sinks[0].delay_ps + 1000);
}

}  // namespace
