// Staged-pipeline and incremental-engine regressions:
//  - PlaceCostEngine's incremental delta cost matches a from-scratch HPWL
//    recomputation exactly after randomized move sequences, shared-net
//    swaps and discarded proposals, and add_net rejects malformed nets;
//  - PlaceGolden.* pin the placer's decisions on the paper designs: the
//    polish anneal's move sequence plus the final descent, and (with
//    polish_rounds = 0) the final descent alone;
//  - PlaceModel's io slots index their entities, and the default placer's
//    pads are distinct, on a mixed cluster/IO design;
//  - incremental PathFinder rerouting produces legal (no overuse) routings
//    without rerouting every net on every iteration;
//  - multi-capacity channels (ArchSpec::wire_capacity) are honoured;
//  - FlowTelemetry reports all five stages with wall times and serializes
//    to JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <map>
#include <set>
#include <unordered_map>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/json.hpp"
#include "base/rng.hpp"
#include "cad/flow.hpp"
#include "cad/place_cost.hpp"
#include "cad/place_model.hpp"

namespace {

using namespace afpga;
using cad::EntityMove;
using cad::PlaceCostEngine;

/// Brute-force HPWL of one net from explicit positions: the oracle the
/// engine's cached costs are checked against.
std::int64_t brute_hpwl(const std::vector<std::size_t>& net,
                        const std::vector<std::pair<std::int32_t, std::int32_t>>& pos) {
    std::int32_t xmin = INT32_MAX;
    std::int32_t xmax = INT32_MIN;
    std::int32_t ymin = INT32_MAX;
    std::int32_t ymax = INT32_MIN;
    for (std::size_t e : net) {
        xmin = std::min(xmin, pos[e].first);
        xmax = std::max(xmax, pos[e].first);
        ymin = std::min(ymin, pos[e].second);
        ymax = std::max(ymax, pos[e].second);
    }
    return (xmax - xmin) + (ymax - ymin);
}

std::int32_t coord(base::Rng& rng, std::uint64_t n) {
    return static_cast<std::int32_t>(rng.below(n));
}

TEST(PlaceCostEngine, IncrementalMatchesScratchAfterRandomMoves) {
    base::Rng rng(99);
    // A random hypergraph: 40 entities on a 12x12 grid, 60 nets of 2-7 pins.
    PlaceCostEngine eng;
    for (int e = 0; e < 40; ++e) eng.add_entity(coord(rng, 12), coord(rng, 12));
    for (int n = 0; n < 60; ++n) {
        const std::size_t pins = 2 + rng.below(6);
        std::set<std::size_t> ents;
        while (ents.size() < pins) ents.insert(rng.below(40));
        eng.add_net({ents.begin(), ents.end()});
    }
    eng.finalize();
    ASSERT_EQ(eng.total_cost(), eng.recompute_from_scratch());

    double running = eng.total_cost();
    for (int step = 0; step < 2000; ++step) {
        // Single moves and swaps, committed or discarded at random.
        EntityMove moves[2];
        const std::size_t n_moves = 1 + rng.below(2);
        moves[0] = {rng.below(40), coord(rng, 12), coord(rng, 12)};
        if (n_moves == 2) {
            std::size_t e2 = rng.below(40);
            while (e2 == moves[0].entity) e2 = rng.below(40);
            // A swap: the second entity takes the first one's old spot.
            moves[1] = {e2, eng.entity_x(moves[0].entity), eng.entity_y(moves[0].entity)};
        }
        const double delta = eng.eval({moves, n_moves});
        if (rng.chance(0.6)) {
            eng.commit();
            running += delta;
        }
        // Costs are integers, so the cached sum, a full rebuild and the
        // running sum of deltas all agree exactly.
        ASSERT_EQ(eng.total_cost(), eng.recompute_from_scratch()) << "step " << step;
        ASSERT_EQ(running, eng.total_cost()) << "step " << step;
    }
}

TEST(PlaceCostEngine, DeltaMatchesRescanDifference) {
    base::Rng rng(5);
    PlaceCostEngine eng;
    for (int e = 0; e < 12; ++e) eng.add_entity(coord(rng, 8), coord(rng, 8));
    for (int n = 0; n < 20; ++n) {
        std::set<std::size_t> ents;
        while (ents.size() < 3) ents.insert(rng.below(12));
        eng.add_net({ents.begin(), ents.end()});
    }
    eng.finalize();
    for (int step = 0; step < 500; ++step) {
        const EntityMove mv{rng.below(12), coord(rng, 8), coord(rng, 8)};
        const double before = eng.recompute_from_scratch();
        const double delta = eng.eval({&mv, 1});
        eng.commit();
        const double after = eng.recompute_from_scratch();
        ASSERT_EQ(after - before, delta) << "step " << step;
    }
}

// Two movers that share a net must cost it once, with both pins at their
// new spots, on the fixed-shape path (2-4 pins) and on the per-edge-count
// path (5+ pins) alike. A pure swap leaves the shared net's HPWL as it was,
// so each trial first swaps entities 0 and 1, then moves 0 to a fresh spot
// while 1 takes 0's old one, which does change the shared net.
TEST(PlaceCostEngine, SwapsOfEntitiesSharingANetOfEverySize) {
    for (std::size_t pins : {2u, 3u, 4u, 5u, 8u}) {
        base::Rng rng(1000 + pins);
        for (int trial = 0; trial < 200; ++trial) {
            // The shared net holds entities 0 and 1 plus pins - 2 others,
            // and 0 and 1 each also sit on a private 2-pin net. A copy of
            // the shared net with its pins reversed is parallel to it: the
            // engine merges the two into one net of weight 2, and the
            // oracle still prices them apart.
            const std::size_t n_ents = pins + 2;
            std::vector<std::pair<std::int32_t, std::int32_t>> pos;
            PlaceCostEngine eng;
            for (std::size_t e = 0; e < n_ents; ++e) {
                pos.emplace_back(coord(rng, 6), coord(rng, 6));
                eng.add_entity(pos.back().first, pos.back().second);
            }
            std::vector<std::vector<std::size_t>> nets;
            nets.emplace_back();
            for (std::size_t e = 0; e < pins; ++e) nets.back().push_back(e);
            nets.push_back({0, pins});
            nets.push_back({1, pins + 1});
            nets.emplace_back(nets.front().rbegin(), nets.front().rend());
            for (const auto& n : nets) eng.add_net(n);
            eng.finalize();

            auto brute_total = [&] {
                std::int64_t c = 0;
                for (const auto& n : nets) c += brute_hpwl(n, pos);
                return static_cast<double>(c);
            };
            ASSERT_EQ(eng.total_cost(), brute_total());
            for (const bool swap : {true, false}) {
                const std::pair<std::int32_t, std::int32_t> to =
                    swap ? pos[1] : std::pair{coord(rng, 6), coord(rng, 6)};
                const double before = brute_total();
                const EntityMove moves[2] = {{0, to.first, to.second},
                                             {1, pos[0].first, pos[0].second}};
                const double delta = eng.eval(moves);
                pos[1] = pos[0];
                pos[0] = to;
                ASSERT_EQ(delta, brute_total() - before)
                    << pins << " pins, trial " << trial << (swap ? ", swap" : ", shift");
                eng.commit();
                ASSERT_EQ(eng.total_cost(), brute_total()) << pins << " pins, trial " << trial;
                ASSERT_EQ(eng.total_cost(), eng.recompute_from_scratch());
            }
        }
    }
}

// The per-edge-count update cannot follow the sole occupant of a box edge
// moving inward; the engine must rescan that net and keep exact counts.
TEST(PlaceCostEngine, LargeNetRescansWhenSoleEdgeOccupantMovesInward) {
    PlaceCostEngine eng;
    // Six pins: entity 0 alone on the left edge (x = 0) and alone on the
    // bottom edge (y = 0); the others share x = 4..6, y = 2..5.
    const std::int32_t xy[6][2] = {{0, 0}, {4, 2}, {5, 3}, {6, 5}, {4, 5}, {6, 2}};
    for (const auto& p : xy) eng.add_entity(p[0], p[1]);
    eng.add_net({0, 1, 2, 3, 4, 5});
    eng.finalize();
    ASSERT_EQ(eng.total_cost(), (6 - 0) + (5 - 0));

    // Inward to the middle of the box: both edges it held retreat.
    const EntityMove in{0, 5, 4};
    ASSERT_EQ(eng.eval({&in, 1}), ((6 - 4) + (5 - 2)) - ((6 - 0) + (5 - 0)));
    eng.commit();
    ASSERT_EQ(eng.total_cost(), (6 - 4) + (5 - 2));
    ASSERT_EQ(eng.total_cost(), eng.recompute_from_scratch());

    // The rescanned counts must be exact: entity 1 is now one of two pins
    // on the left edge, so moving it right leaves the edge in place...
    const EntityMove right{1, 5, 3};
    ASSERT_EQ(eng.eval({&right, 1}), 0.0);
    eng.commit();
    // ...and then entity 4, the last pin at x = 4, moving right shrinks it.
    const EntityMove last{4, 5, 5};
    ASSERT_EQ(eng.eval({&last, 1}), -1.0);
    eng.commit();
    ASSERT_EQ(eng.total_cost(), (6 - 5) + (5 - 2));
    ASSERT_EQ(eng.total_cost(), eng.recompute_from_scratch());
}

// eval() applies the proposal tentatively and must restore it: a proposal
// that is never committed leaves the cost and every position untouched.
TEST(PlaceCostEngine, DiscardedProposalsLeaveNoTrace) {
    base::Rng rng(17);
    PlaceCostEngine eng;
    for (int e = 0; e < 30; ++e) eng.add_entity(coord(rng, 10), coord(rng, 10));
    for (int n = 0; n < 40; ++n) {
        const std::size_t pins = 2 + rng.below(7);
        std::set<std::size_t> ents;
        while (ents.size() < pins) ents.insert(rng.below(30));
        eng.add_net({ents.begin(), ents.end()});
    }
    eng.finalize();
    const double cost = eng.total_cost();
    std::vector<std::pair<std::int32_t, std::int32_t>> pos;
    for (std::size_t e = 0; e < 30; ++e) pos.emplace_back(eng.entity_x(e), eng.entity_y(e));

    for (int step = 0; step < 500; ++step) {
        const std::size_t a = rng.below(30);
        std::size_t b = rng.below(30);
        while (b == a) b = rng.below(30);
        const EntityMove moves[2] = {{a, coord(rng, 10), coord(rng, 10)},
                                     {b, eng.entity_x(a), eng.entity_y(a)}};
        (void)eng.eval({moves, 1 + rng.below(2)});
        ASSERT_EQ(eng.total_cost(), cost) << "step " << step;
        for (std::size_t e = 0; e < 30; ++e) {
            ASSERT_EQ(eng.entity_x(e), pos[e].first) << "step " << step << " entity " << e;
            ASSERT_EQ(eng.entity_y(e), pos[e].second) << "step " << step << " entity " << e;
        }
    }
    ASSERT_EQ(eng.recompute_from_scratch(), cost);
}

TEST(PlaceCostEngine, AddNetRejectsRepeatedEntity) {
    PlaceCostEngine eng;
    for (int e = 0; e < 3; ++e) eng.add_entity(e, e);
    try {
        eng.add_net({0, 1, 2, 1});
        FAIL() << "expected a repeated-entity error";
    } catch (const base::Error& e) {
        EXPECT_NE(std::string(e.what()).find("repeated entity id"), std::string::npos)
            << e.what();
    }
}

TEST(PlaceCostEngine, AddNetRejectsNetOverCountWidth) {
    // One pin past what a 16-bit edge count can hold.
    PlaceCostEngine eng;
    std::vector<std::size_t> net;
    for (std::size_t e = 0; e <= PlaceCostEngine::kMaxNetPins; ++e)
        net.push_back(eng.add_entity(0, 0));
    try {
        eng.add_net(net);
        FAIL() << "expected an oversized-net error";
    } catch (const base::Error& e) {
        EXPECT_NE(std::string(e.what()).find("more than 65535 pins"), std::string::npos)
            << e.what();
    }
    net.pop_back();
    EXPECT_NO_THROW(eng.add_net(net));
}

// On a design with both clusters and I/O pads, every io slot's entity
// points back at that slot (the polish and the cost tables index pads
// through it), and the default placer hands out distinct in-range pads.
TEST(PlaceModel, IoSlotsIndexTheirEntitiesOnMixedDesign) {
    auto adder = asynclib::make_qdi_adder(3);
    const auto md = cad::techmap(adder.nl, adder.hints);
    core::ArchSpec arch;
    const auto pd = cad::pack(md, arch);
    ASSERT_FALSE(pd.clusters.empty());
    ASSERT_FALSE(md.primary_inputs.empty());
    ASSERT_FALSE(md.primary_outputs.empty());

    const cad::PlaceModel model(pd, md, arch);
    ASSERT_EQ(model.io_entity_ids.size(),
              md.primary_inputs.size() + md.primary_outputs.size());
    for (std::size_t i = 0; i < model.io_entity_ids.size(); ++i) {
        const cad::PlaceEntity& e = model.entities[model.io_entity_ids[i]];
        EXPECT_NE(e.kind, cad::PlaceEntity::Kind::Cluster) << "slot " << i;
        EXPECT_EQ(e.io_slot, i);
    }

    cad::PlaceOptions opts;
    opts.seed = 31;
    const auto a = cad::place(pd, md, arch, opts);
    core::FabricGeometry geom(arch);
    std::set<std::uint32_t> pads;
    for (const auto& [name, pad] : a.pi_pad) {
        EXPECT_LT(pad, geom.num_pads());
        EXPECT_TRUE(pads.insert(pad).second) << "pad shared: " << name;
    }
    for (const auto& [name, pad] : a.po_pad) {
        EXPECT_LT(pad, geom.num_pads());
        EXPECT_TRUE(pads.insert(pad).second) << "pad shared: " << name;
    }
}

// ---------------------------------------------------------------------------
// Placement goldens. Each design is techmapped, packed and placed by the
// default placer, whose warm polish anneal and final descent both price
// moves on the integer cost engine. The move counters, the final cost and
// an FNV-1a hash over the cluster locations, the name-sorted pad
// assignment and the bits of the cost trajectory pin every accept/reject
// decision of the polish and every move of the descent: any change to the
// cost engine's arithmetic or the RNG draw order shows up here. The
// *DescentOnly cases set polish_rounds = 0, so they pin the descent alone
// on the legalized placement.
// ---------------------------------------------------------------------------

namespace place_golden {

enum class Design { QdiAdder, MpAdder, WchbFifo, MpFifo, MousetrapFifo };

class Fnv {
public:
    void mix(std::uint64_t x, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h_ ^= (x >> (8 * i)) & 0xFFu;
            h_ *= 0x100000001B3ULL;
        }
    }
    void mix(const std::string& s) {
        for (unsigned char c : s) mix(c, 1);
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void mix_pads(Fnv& h, const std::unordered_map<std::string, std::uint32_t>& pads) {
    const std::map<std::string, std::uint32_t> sorted(pads.begin(), pads.end());
    for (const auto& [name, pad] : sorted) {
        h.mix(name);
        h.mix(pad, 4);
    }
}

std::uint64_t placement_hash(const cad::Placement& pl) {
    Fnv h;
    for (const core::PlbCoord& c : pl.cluster_loc) {
        h.mix(c.x, 4);
        h.mix(c.y, 4);
    }
    mix_pads(h, pl.pi_pad);
    mix_pads(h, pl.po_pad);
    for (double c : pl.cost_trajectory) h.mix(std::bit_cast<std::uint64_t>(c), 8);
    return h.value();
}

/// Recorded on the double-precision cost engine this move sequence was
/// first defined by; every later engine must reproduce it bit for bit.
/// QdiAdder8Multilevel, WchbFifo8x24Multilevel and WchbFifo8x24DescentOnly
/// were re-recorded when QuadSystem::finalize began to sum duplicate B2B
/// triplets in assembly order: their global placements differ in the last
/// bits, which the polish and the descent amplify.
struct Golden {
    std::uint64_t moves_tried;
    std::uint64_t moves_accepted;
    int anneal_rounds;
    double final_cost;
    std::uint64_t hash;
};

void expect_golden(Design design, std::size_t bits, std::size_t depth, std::uint32_t fabric,
                   const Golden& g, cad::PlaceOptions opts = {}) {
    netlist::Netlist nl;
    asynclib::MappingHints hints;
    switch (design) {
        case Design::QdiAdder: {
            auto a = asynclib::make_qdi_adder(bits);
            nl = std::move(a.nl);
            hints = std::move(a.hints);
            break;
        }
        case Design::MpAdder: nl = std::move(asynclib::make_micropipeline_adder(bits).nl); break;
        case Design::WchbFifo: {
            auto f = asynclib::make_wchb_fifo(bits, depth);
            nl = std::move(f.nl);
            hints = std::move(f.hints);
            break;
        }
        case Design::MpFifo: nl = std::move(asynclib::make_micropipeline_fifo(bits, depth).nl); break;
        case Design::MousetrapFifo:
            nl = std::move(asynclib::make_mousetrap_fifo(bits, depth).nl);
            break;
    }
    core::ArchSpec arch;
    arch.width = arch.height = fabric;
    const auto md = cad::techmap(nl, hints);
    const auto pd = cad::pack(md, arch);
    opts.seed = 7;
    const cad::Placement pl = cad::place(pd, md, arch, opts);
    EXPECT_EQ(pl.moves_tried, g.moves_tried);
    EXPECT_EQ(pl.moves_accepted, g.moves_accepted);
    EXPECT_EQ(pl.anneal_rounds, g.anneal_rounds);
    EXPECT_EQ(pl.final_cost, g.final_cost);
    EXPECT_EQ(placement_hash(pl), g.hash) << std::hex << "0x" << placement_hash(pl);
}

}  // namespace place_golden

using place_golden::Design;
using place_golden::expect_golden;

TEST(PlaceGolden, QdiAdder2Multilevel) {
    expect_golden(Design::QdiAdder, 2, 0, 10,
                  {5848u, 862u, 8, 87.0, 0x7BC006D51F39CE3AULL});
}

TEST(PlaceGolden, QdiAdder8Multilevel) {
    expect_golden(Design::QdiAdder, 8, 0, 16,
                  {29424u, 5658u, 8, 428.0, 0xADC85792716C08B1ULL});
}

TEST(PlaceGolden, QdiAdder4Multilevel) {
    expect_golden(Design::QdiAdder, 4, 0, 12,
                  {12800u, 1742u, 8, 178.0, 0xD900546EF701314FULL});
}

TEST(PlaceGolden, MpAdder4Multilevel) {
    expect_golden(Design::MpAdder, 4, 0, 12,
                  {5232u, 473u, 8, 36.0, 0x6E53B01F528E3B6FULL});
}

TEST(PlaceGolden, WchbFifo4x8Multilevel) {
    expect_golden(Design::WchbFifo, 4, 8, 12,
                  {10576u, 1261u, 8, 159.0, 0x52DBABFEF24D9D4BULL});
}

TEST(PlaceGolden, MpFifo4x8Multilevel) {
    expect_golden(Design::MpFifo, 4, 8, 12,
                  {6160u, 723u, 8, 78.0, 0xACDD917B9E34FAE5ULL});
}

TEST(PlaceGolden, MousetrapFifo4x8Multilevel) {
    expect_golden(Design::MousetrapFifo, 4, 8, 12,
                  {5536u, 716u, 8, 77.0, 0xF71E5F7A02F01939ULL});
}

TEST(PlaceGolden, WchbFifo8x24Multilevel) {
    expect_golden(Design::WchbFifo, 8, 24, 18,
                  {72984u, 10047u, 8, 1141.0, 0x550A76B45F3B4B29ULL});
}

cad::PlaceOptions descent_only() {
    cad::PlaceOptions o;
    o.polish_rounds = 0;
    return o;
}

TEST(PlaceGolden, QdiAdder4DescentOnly) {
    expect_golden(Design::QdiAdder, 4, 0, 12, {0u, 0u, 0, 175.0, 0x5433C71CF88595B5ULL},
                  descent_only());
}

// The FIFO's wide control nets take the engine's large-net box path.
TEST(PlaceGolden, WchbFifo8x24DescentOnly) {
    expect_golden(Design::WchbFifo, 8, 24, 18, {0u, 0u, 0, 1242.0, 0xA70A2CE3FFF1FAB0ULL},
                  descent_only());
}

cad::RouteRequest plb_to_plb(core::PlbCoord from, core::PlbCoord to) {
    cad::RouteRequest rq;
    rq.src_plb = from;
    cad::RouteRequest::Sink sk;
    sk.plb = to;
    rq.sinks.push_back(sk);
    return rq;
}

/// Occupancy of every RR node across all route trees.
std::vector<std::uint16_t> occupancy(const core::RRGraph& rr, const cad::RoutingResult& res) {
    std::vector<std::uint16_t> occ(rr.num_nodes(), 0);
    for (const auto& t : res.trees) {
        std::set<std::uint32_t> mine;
        if (t.root_opin != UINT32_MAX) mine.insert(t.root_opin);
        for (std::uint32_t e : t.edges) {
            mine.insert(rr.edge_source(e));
            mine.insert(rr.edge_target(e));
        }
        for (std::uint32_t n : mine) ++occ[n];
    }
    return occ;
}

TEST(RouteIncremental, LegalWithoutReroutingEverything) {
    core::ArchSpec a;
    a.width = 6;
    a.height = 6;
    a.channel_width = 8;
    const core::RRGraph rr(a);
    // A congested all-to-all-ish pattern that needs several iterations.
    std::vector<cad::RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 6; ++i)
        for (std::uint32_t j = 0; j < 6; j += 2)
            if (i != j) reqs.push_back(plb_to_plb({i, 0}, {j, 5}));

    const auto ri = cad::route(rr, reqs);
    ASSERT_TRUE(ri.success);

    // Legality: no node over capacity in the incremental result.
    const auto occ = occupancy(rr, ri);
    for (std::uint32_t n = 0; n < rr.num_nodes(); ++n)
        EXPECT_LE(occ[n], rr.node_capacity(n)) << "node " << n;
    EXPECT_GT(ri.wirelength, 0u);

    // Incremental must not redo everything every iteration.
    if (ri.iterations > 1) {
        EXPECT_LT(ri.nets_rerouted, reqs.size() * static_cast<std::size_t>(ri.iterations));
    }
}

TEST(RouteIncremental, DeterministicAcrossRuns) {
    core::ArchSpec a;
    a.width = 5;
    a.height = 5;
    a.channel_width = 6;
    const core::RRGraph rr(a);
    std::vector<cad::RouteRequest> reqs;
    for (std::uint32_t i = 0; i < 5; ++i) reqs.push_back(plb_to_plb({i, 0}, {4 - i, 4}));
    const auto r1 = cad::route(rr, reqs);
    const auto r2 = cad::route(rr, reqs);
    ASSERT_TRUE(r1.success && r2.success);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(r1.trees[i].root_opin, r2.trees[i].root_opin);
        EXPECT_EQ(r1.trees[i].edges, r2.trees[i].edges);
    }
}

TEST(RouteCapacity, MultiCapacityChannelsShareTracks) {
    // 2x1 fabric, 2 tracks: eight parallel nets cannot fit at capacity 1 but
    // route cleanly when each track carries two nets.
    core::ArchSpec narrow;
    narrow.width = 2;
    narrow.height = 1;
    narrow.channel_width = 2;
    narrow.fc_in = 1.0;
    narrow.fc_out = 1.0;
    std::vector<cad::RouteRequest> reqs;
    for (int i = 0; i < 8; ++i) reqs.push_back(plb_to_plb({0, 0}, {1, 0}));
    cad::RouterOptions opts;
    opts.max_iterations = 12;

    const core::RRGraph rr1(narrow);
    const auto res1 = cad::route(rr1, reqs, opts);

    core::ArchSpec wide = narrow;
    wide.wire_capacity = 2;
    const core::RRGraph rr2(wide);
    const auto res2 = cad::route(rr2, reqs, opts);
    ASSERT_TRUE(res2.success);
    const auto occ = occupancy(rr2, res2);
    std::uint16_t max_wire_occ = 0;
    for (std::uint32_t n = 0; n < rr2.num_nodes(); ++n) {
        EXPECT_LE(occ[n], rr2.node_capacity(n)) << "node " << n;
        const auto k = rr2.node(n).kind;
        if (k == core::RRKind::ChanX || k == core::RRKind::ChanY)
            max_wire_occ = std::max(max_wire_occ, occ[n]);
    }
    if (!res1.success) {
        // Capacity 1 could not carry the load, so capacity 2 must actually
        // have shared at least one wire.
        EXPECT_EQ(max_wire_occ, 2);
    }
}

TEST(RouteCapacity, FlowRejectsMultiCapacityChannels) {
    // Bundled wires are a router-level model; the bitstream layer programs
    // one net per wire node, so the flow must refuse rather than short nets.
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    core::ArchSpec a;
    a.wire_capacity = 2;
    EXPECT_THROW((void)cad::run_flow(fifo.nl, fifo.hints, a), base::Error);
}

TEST(FlowTelemetry, ReportsAllFiveStagesAndSerializes) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    cad::FlowOptions opts;
    opts.seed = 11;
    const auto fr = cad::run_flow(fifo.nl, fifo.hints, core::ArchSpec{}, opts);

    const char* expected[] = {"techmap", "pack", "place", "route", "bitstream"};
    ASSERT_EQ(fr.telemetry.stages.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(fr.telemetry.stages[i].stage, expected[i]);
        EXPECT_GE(fr.telemetry.stages[i].wall_ms, 0.0);
    }
    EXPECT_GE(fr.telemetry.total_ms, 0.0);
    const auto* rt = fr.telemetry.stage("route");
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->iterations, fr.routing.iterations);
    ASSERT_NE(rt->metric("wirelength"), nullptr);
    EXPECT_EQ(static_cast<std::size_t>(*rt->metric("wirelength")), fr.routing.wirelength);
    const auto* pl = fr.telemetry.stage("place");
    ASSERT_NE(pl, nullptr);
    EXPECT_EQ(pl->iterations, fr.placement.anneal_rounds);
    EXPECT_EQ(pl->cost_trajectory.size(), fr.placement.cost_trajectory.size());

    const std::string json = fr.telemetry.to_json();
    EXPECT_NE(json.find("\"stages\":["), std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"place\""), std::string::npos);
    EXPECT_NE(json.find("\"total_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"cost_trajectory\":["), std::string::npos);
}

TEST(JsonWriter, EscapesAndNests) {
    base::JsonWriter w;
    w.begin_object();
    w.key("s").value("a\"b\\c\nd");
    w.key("i").value(-3);
    w.key("d").value(1.5);
    w.key("whole").value(42.0);
    w.key("b").value(true);
    w.key("arr").begin_array().value(std::string_view("x")).value(2.25).end_array();
    w.key("raw").raw("{\"k\":1}");
    w.end_object();
    EXPECT_EQ(w.str(),
              "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"d\":1.5,\"whole\":42,"
              "\"b\":true,\"arr\":[\"x\",2.25],\"raw\":{\"k\":1}}");
}

TEST(JsonWriter, RejectsMisuse) {
    base::JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1.0), base::Error);  // value without key
    EXPECT_THROW(w.end_array(), base::Error);
    w.key("x").value(1.0);
    EXPECT_THROW((void)w.str(), base::Error);  // unclosed object
    w.end_object();
    EXPECT_NO_THROW((void)w.str());
}

}  // namespace
