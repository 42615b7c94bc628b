// Tests for the event-driven simulator: gate semantics under time, inertial
// vs transport delays, sequential cells, sink delays, monitors, event-queue
// ordering edge cases, and post-route stream goldens that pin the exact
// event order of every paper style.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "base/threadpool.hpp"
#include "cad/flow.hpp"
#include "core/elaborate.hpp"
#include "netlist/netlist.hpp"
#include "sim/channels.hpp"
#include "sim/monitors.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using afpga::netlist::CellFunc;
using afpga::netlist::Logic;
using afpga::netlist::NetId;
using afpga::netlist::Netlist;
using afpga::sim::InitState;
using afpga::sim::Simulator;

TEST(Simulator, InverterSettlesAtTimeZero) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Inv, "inv", {a});
    nl.add_output("y", y);
    Simulator sim(nl);
    const auto r = sim.run();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(sim.value(y), Logic::T);  // INV of the all-zero init state
}

TEST(Simulator, PiChangePropagatesWithDelay) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Buf, "buf", {a});  // 50ps
    nl.add_output("y", y);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T, 10);
    const auto r = sim.run();
    EXPECT_EQ(sim.value(y), Logic::T);
    EXPECT_EQ(r.end_time_ps, 60);  // 10 + 50
}

TEST(Simulator, ChainDelayAccumulates) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    NetId n = a;
    for (int i = 0; i < 4; ++i) n = nl.add_cell(CellFunc::Buf, "b" + std::to_string(i), {n});
    nl.add_output("y", n);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T);
    const auto r = sim.run();
    EXPECT_EQ(r.end_time_ps, 200);
}

TEST(Simulator, InertialDelaySwallowsShortPulse) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Buf, "buf", {a});  // 50ps inertial
    nl.add_output("y", y);
    Simulator sim(nl);
    sim.run();
    // 20ps pulse, shorter than the gate delay: must not appear at the output.
    sim.schedule_pi(a, Logic::T, 0);
    sim.schedule_pi(a, Logic::F, 20);
    sim.run();
    EXPECT_EQ(sim.value(y), Logic::F);
    EXPECT_EQ(sim.transitions(y), 0u);
}

TEST(Simulator, TransportDelayPropagatesEveryEdge) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Delay, "dly", {a});
    nl.set_cell_delay(nl.driver_of(y), 500);
    nl.add_output("y", y);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T, 0);
    sim.schedule_pi(a, Logic::F, 100);  // 100ps pulse through 500ps transport
    sim.run();
    EXPECT_EQ(sim.transitions(y), 2u);  // both edges arrive
    EXPECT_EQ(sim.value(y), Logic::F);
}

TEST(Simulator, MullerCElementJoinsAndHolds) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_cell(CellFunc::C, "c", {a, b});
    nl.add_output("c", c);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::F);  // only one input high: hold
    sim.schedule_pi(b, Logic::T);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::T);  // join
    sim.schedule_pi(a, Logic::F);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::T);  // hold
    sim.schedule_pi(b, Logic::F);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::F);  // join down
}

TEST(Simulator, LatchCapturesOnEnableFall) {
    Netlist nl;
    const NetId d = nl.add_input("d");
    const NetId en = nl.add_input("en");
    const NetId q = nl.add_cell(CellFunc::Latch, "q", {d, en});
    nl.add_output("q", q);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(en, Logic::T);
    sim.schedule_pi(d, Logic::T, 100);
    sim.run();
    EXPECT_EQ(sim.value(q), Logic::T);  // transparent
    sim.schedule_pi(en, Logic::F);
    sim.run();
    sim.schedule_pi(d, Logic::F);
    sim.run();
    EXPECT_EQ(sim.value(q), Logic::T);  // held
}

TEST(Simulator, LoopedLutImplementsCElement) {
    // The paper's memory-element mechanism: a LUT with its own output looped
    // back (through the IM in the real fabric) behaves as a Muller C.
    using afpga::netlist::cell_function_with_feedback;
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const auto maj = cell_function_with_feedback(CellFunc::C, 2);
    const NetId c = nl.add_lut("looped", maj, {a, b, a});  // placeholder 3rd pin
    nl.rewire_input(nl.driver_of(c), 2, c);                // close the loop
    nl.add_output("c", c);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::F);
    sim.schedule_pi(b, Logic::T);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::T);
    sim.schedule_pi(a, Logic::F);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::T);  // holds through the loop
    sim.schedule_pi(b, Logic::F);
    sim.run();
    EXPECT_EQ(sim.value(c), Logic::F);
}

TEST(Simulator, SinkDelaySkewsOneFanoutBranch) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y0 = nl.add_cell(CellFunc::Buf, "y0", {a});
    const NetId y1 = nl.add_cell(CellFunc::Buf, "y1", {a});
    nl.add_output("y0", y0);
    nl.add_output("y1", y1);
    Simulator sim(nl);
    sim.run();
    // a's sink 0 feeds y0, sink 1 feeds y1; skew branch 1 by 300ps.
    sim.set_sink_delay(a, 1, 300);
    sim.schedule_pi(a, Logic::T);
    auto r = sim.run_until(y0, Logic::T);
    EXPECT_EQ(r.end_time_ps, 50);
    r = sim.run_until(y1, Logic::T);
    EXPECT_EQ(r.end_time_ps, 350);
}

TEST(Simulator, EqualDelaySinksApartInSinkOrderKeepSinkOrder) {
    // a's sinks 0 and 2 share a 5 ps wire delay, sink 1 between them has
    // 7 ps: y0 and y2 rise at one time, in sink order, before y1.
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y[3] = {nl.add_cell(CellFunc::Buf, "y0", {a}),
                        nl.add_cell(CellFunc::Buf, "y1", {a}),
                        nl.add_cell(CellFunc::Buf, "y2", {a})};
    Simulator sim(nl);
    const std::int64_t delays[3] = {5, 7, 5};
    for (std::size_t s = 0; s < 3; ++s) sim.set_sink_delay(a, s, delays[s]);
    sim.run();
    std::vector<std::pair<NetId, std::int64_t>> order;
    for (NetId n : y)
        sim.on_commit(n, [&order, n](Logic, std::int64_t t) { order.emplace_back(n, t); });
    sim.schedule_pi(a, Logic::T);
    sim.run();
    const std::vector<std::pair<NetId, std::int64_t>> want = {{y[0], 55}, {y[2], 55}, {y[1], 57}};
    EXPECT_EQ(order, want);
}

TEST(Simulator, SinkDelayChangeSparesPendingUpdates) {
    // An update already queued keeps the delay it was sent with, even when
    // another commit (b at 20) regroups a's sinks before it arrives; the
    // next commit of a uses the new delay.
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId y0 = nl.add_cell(CellFunc::Buf, "y0", {a});
    const NetId y1 = nl.add_cell(CellFunc::Buf, "y1", {a});
    Simulator sim(nl);
    sim.set_net_delay(a, 100);
    sim.run();
    sim.schedule_pi(a, Logic::T);
    sim.run(10);  // a rose at 0; both pin updates wait for 100
    ASSERT_EQ(sim.value(a), Logic::T);
    sim.set_sink_delay(a, 1, 300);
    sim.schedule_pi(b, Logic::T, 10);
    EXPECT_EQ(sim.run_until(y0, Logic::T).end_time_ps, 150);
    EXPECT_EQ(sim.run_until(y1, Logic::T).end_time_ps, 150);
    sim.schedule_pi(a, Logic::F);
    EXPECT_EQ(sim.run_until(y0, Logic::F).end_time_ps, 150 + 100 + 50);
    EXPECT_EQ(sim.run_until(y1, Logic::F).end_time_ps, 150 + 300 + 50);
}

TEST(Simulator, RunUntilStopsEarly) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    NetId n = a;
    for (int i = 0; i < 10; ++i) n = nl.add_cell(CellFunc::Buf, "b" + std::to_string(i), {n});
    nl.add_output("y", n);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T);
    const NetId mid = nl.find_net("b4");
    const auto r = sim.run_until(mid, Logic::T);
    EXPECT_FALSE(r.quiescent);
    EXPECT_EQ(sim.value(mid), Logic::T);
    EXPECT_EQ(sim.value(n), Logic::F);  // tail not yet reached
}

TEST(Simulator, OscillationHitsBudget) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId x = nl.add_cell(CellFunc::Nand, "x", {a, a});
    nl.rewire_input(nl.driver_of(x), 1, x);  // ring oscillator
    nl.add_output("x", x);
    Simulator sim(nl);
    sim.schedule_pi(a, Logic::T);
    sim.set_event_budget(10'000);
    const auto r = sim.run();
    EXPECT_TRUE(r.budget_exceeded);
}

TEST(Simulator, AllXInitStaysXForUndrivenLogic) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Xor, "y", {a, a});
    nl.add_output("y", y);
    Simulator sim(nl, InitState::AllX);
    sim.run();
    EXPECT_EQ(sim.value(y), Logic::X);
    sim.schedule_pi(a, Logic::T);
    sim.run();
    EXPECT_EQ(sim.value(y), Logic::F);  // XOR(a,a) resolves once a is known
}

// ---------------------------------------------------------------------------
// Event-queue edge cases: events far beyond the near window, long runs,
// time-bounded runs, cancellation and the event budget.
// ---------------------------------------------------------------------------

TEST(SimulatorQueue, FarEventTiedWithLaterNearEventCommitsFirst) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    Simulator sim(nl);
    sim.run();
    std::vector<NetId> order;
    for (NetId n : {a, c}) sim.on_commit(n, [&order, n](Logic, std::int64_t) { order.push_back(n); });
    sim.schedule_pi(a, Logic::T, 20'000);  // far ahead of now = 0
    sim.schedule_pi(b, Logic::T, 19'500);
    sim.run(19'500);
    ASSERT_EQ(sim.now(), 19'500);
    sim.schedule_pi(c, Logic::T, 500);  // same time as a, pushed later, near
    const auto r = sim.run();
    EXPECT_EQ(r.end_time_ps, 20'000);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], a);
    EXPECT_EQ(order[1], c);
}

TEST(SimulatorQueue, LongRunWrapsTheWindowManyTimes) {
    // Two INV -> DELAY ring oscillators, one with a wire delay on its
    // feedback long enough that every edge is scheduled beyond the window.
    // x toggles at 50 + k * period: INV (50 ps inertial) + DELAY + wire.
    Netlist nl;
    const NetId en = nl.add_input("en");
    NetId x[2];
    for (int i = 0; i < 2; ++i) {
        const std::string tag = std::to_string(i);
        const NetId d = nl.add_cell(CellFunc::Delay, "d" + tag, {en});
        nl.set_cell_delay(nl.driver_of(d), 333);
        x[i] = nl.add_cell(CellFunc::Inv, "x" + tag, {d});
        nl.rewire_input(nl.driver_of(d), 0, x[i]);
        nl.add_output("x" + tag, x[i]);
    }
    Simulator sim(nl);
    sim.set_sink_delay(x[1], 0, 1500);
    constexpr std::int64_t kPeriod[2] = {50 + 333, 50 + 333 + 1500};
    std::vector<std::int64_t> edges[2];
    for (int i = 0; i < 2; ++i)
        sim.on_commit(x[i], [&edges, i](Logic, std::int64_t t) { edges[i].push_back(t); });
    const std::int64_t horizon = 1000 * kPeriod[1];  // ~1800 windows
    sim.run(horizon);
    for (int i = 0; i < 2; ++i) {
        ASSERT_EQ(edges[i].size(), static_cast<std::size_t>((horizon - 50) / kPeriod[i] + 1));
        for (std::size_t k = 0; k < edges[i].size(); ++k)
            ASSERT_EQ(edges[i][k], 50 + static_cast<std::int64_t>(k) * kPeriod[i]);
        EXPECT_EQ(sim.transitions(x[i]), edges[i].size());
    }
}

TEST(SimulatorQueue, BoundedRunStopsBeforeNextEventAndResumes) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId y = nl.add_cell(CellFunc::Buf, "y", {a});  // 50ps
    nl.add_output("y", y);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T, 100);
    sim.schedule_pi(b, Logic::T, 5000);  // beyond the window
    auto r = sim.run(99);
    EXPECT_EQ(r.events, 0u);
    EXPECT_FALSE(r.quiescent);
    EXPECT_EQ(sim.value(a), Logic::F);
    r = sim.run(149);
    EXPECT_EQ(sim.value(a), Logic::T);
    EXPECT_EQ(sim.value(y), Logic::F);
    EXPECT_EQ(r.end_time_ps, 100);
    r = sim.run(150);
    EXPECT_EQ(sim.value(y), Logic::T);
    EXPECT_EQ(r.end_time_ps, 150);
    r = sim.run(4999);
    EXPECT_EQ(r.events, 0u);
    EXPECT_EQ(sim.value(b), Logic::F);
    r = sim.run(5000);
    EXPECT_EQ(sim.value(b), Logic::T);
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.end_time_ps, 5000);
}

TEST(SimulatorQueue, InertialCancellationOfFarPendingEvent) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Buf, "y", {a});
    nl.set_cell_delay(nl.driver_of(y), 3000);  // every commit lands beyond the window
    nl.add_output("y", y);
    Simulator sim(nl);
    sim.run();
    sim.schedule_pi(a, Logic::T, 0);
    sim.schedule_pi(a, Logic::F, 100);  // cancels y's pending rise at 3000
    auto r = sim.run();
    EXPECT_EQ(sim.transitions(y), 0u);
    // a up + pin, a down + pin, and the cancelled event, still popped.
    EXPECT_EQ(r.events, 5u);
    EXPECT_EQ(r.end_time_ps, 3000);
    // Cancel and re-arm: only the second rise commits.
    sim.schedule_pi(a, Logic::T, 0);
    sim.schedule_pi(a, Logic::F, 100);
    sim.schedule_pi(a, Logic::T, 200);
    r = sim.run();
    EXPECT_EQ(sim.transitions(y), 1u);
    EXPECT_EQ(sim.value(y), Logic::T);
    EXPECT_EQ(r.end_time_ps, 3000 + 200 + 3000);
}

TEST(SimulatorQueue, EventBudgetCountsExactly) {
    // a -> b0 -> b1 -> b2: one rise is 4 commits and 3 pin updates.
    const auto build = [](Netlist& nl) {
        NetId n = nl.add_input("a");
        for (int i = 0; i < 3; ++i) n = nl.add_cell(CellFunc::Buf, "b" + std::to_string(i), {n});
        nl.add_output("y", n);
        return n;
    };
    {
        Netlist nl;
        const NetId y = build(nl);
        Simulator sim(nl);
        sim.run();
        sim.set_event_budget(7);
        sim.schedule_pi(nl.find_net("a"), Logic::T);
        const auto r = sim.run();
        EXPECT_TRUE(r.quiescent);
        EXPECT_FALSE(r.budget_exceeded);
        EXPECT_EQ(r.events, 7u);
        EXPECT_EQ(sim.value(y), Logic::T);
    }
    {
        Netlist nl;
        const NetId y = build(nl);
        Simulator sim(nl);
        sim.run();
        sim.set_event_budget(6);
        sim.schedule_pi(nl.find_net("a"), Logic::T);
        const auto r = sim.run();
        EXPECT_TRUE(r.budget_exceeded);
        EXPECT_EQ(r.events, 6u);
        EXPECT_EQ(sim.value(y), Logic::F);
    }
}

TEST(SimulatorQueue, SinkGroupCountsAsOneEvent) {
    // a fans out to three buffers; sinks 0 and 2 share a wire delay. One
    // rise of a is a's commit, two group arrivals (5 ps: y0 and y2, 7 ps:
    // y1) and three buffer commits: 6 events, not the 7 a per-pin count
    // would give.
    const auto build = [](Netlist& nl) {
        const NetId a = nl.add_input("a");
        for (int i = 0; i < 3; ++i) nl.add_cell(CellFunc::Buf, "y" + std::to_string(i), {a});
        return a;
    };
    const auto delay = [](Simulator& sim, NetId a) {
        const std::int64_t delays[3] = {5, 7, 5};
        for (std::size_t s = 0; s < 3; ++s) sim.set_sink_delay(a, s, delays[s]);
    };
    {
        Netlist nl;
        const NetId a = build(nl);
        Simulator sim(nl);
        delay(sim, a);
        sim.run();
        sim.set_event_budget(6);
        sim.schedule_pi(a, Logic::T);
        const auto r = sim.run();
        EXPECT_TRUE(r.quiescent);
        EXPECT_FALSE(r.budget_exceeded);
        EXPECT_EQ(r.events, 6u);
        EXPECT_EQ(sim.total_events(), 6u);
        for (int i = 0; i < 3; ++i) EXPECT_EQ(sim.value("y" + std::to_string(i)), Logic::T);
    }
    {
        // A budget of 2 stops after a's commit and the 5 ps group: y0 and
        // y2 have their pin updated, y1 has not, and nothing has committed.
        Netlist nl;
        const NetId a = build(nl);
        Simulator sim(nl);
        delay(sim, a);
        sim.run();
        std::vector<std::string> commits;
        for (int i = 0; i < 3; ++i) {
            const std::string name = "y" + std::to_string(i);
            sim.on_commit(nl.find_net(name),
                          [&commits, name](Logic, std::int64_t) { commits.push_back(name); });
        }
        sim.set_event_budget(2);
        sim.schedule_pi(a, Logic::T);
        auto r = sim.run();
        EXPECT_TRUE(r.budget_exceeded);
        EXPECT_FALSE(r.quiescent);
        EXPECT_EQ(r.events, 2u);
        EXPECT_EQ(r.end_time_ps, 5);
        EXPECT_TRUE(commits.empty());
        // The cut-off dropped nothing: the next run resumes where it stopped.
        sim.set_event_budget(4);
        r = sim.run();
        EXPECT_TRUE(r.quiescent);
        EXPECT_EQ(r.events, 4u);
        const std::vector<std::string> want = {"y0", "y2", "y1"};
        EXPECT_EQ(commits, want);
    }
}

TEST(GlitchMonitor, DetectsNarrowPulse) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Delay, "y", {a});
    nl.set_cell_delay(nl.driver_of(y), 10);
    nl.add_output("y", y);
    Simulator sim(nl);
    sim.run();
    afpga::sim::GlitchMonitor mon(sim, {y}, 50);
    sim.schedule_pi(a, Logic::T, 0);
    sim.schedule_pi(a, Logic::F, 20);  // 20ps pulse survives transport delay
    sim.run();
    ASSERT_EQ(mon.glitches().size(), 1u);
    EXPECT_EQ(mon.glitches()[0].width_ps, 20);
}

TEST(GlitchMonitor, CleanSignalNoGlitches) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId y = nl.add_cell(CellFunc::Buf, "y", {a});
    nl.add_output("y", y);
    Simulator sim(nl);
    sim.run();
    afpga::sim::GlitchMonitor mon(sim, {y}, 50);
    sim.schedule_pi(a, Logic::T, 0);
    sim.schedule_pi(a, Logic::F, 1000);
    sim.run();
    EXPECT_TRUE(mon.glitches().empty());
}

// ---------------------------------------------------------------------------
// Post-route stream goldens. Each paper style is compiled onto one 12x12
// fabric, elaborated from its bitstream, and streamed 64 tokens with routed
// wire delays on. The event count, the token completion times and an
// FNV-1a hash over every (time, net, value) commit after settling pin the
// simulator's exact event order: any change to queue ordering, inertial
// cancellation or evaluation shows up here.
// ---------------------------------------------------------------------------

namespace golden {

using namespace afpga;

constexpr std::size_t kTokens = 64;
constexpr std::int64_t kEnvDelayPs = 400;
constexpr std::int64_t kSettlePs = 1000;

/// FNV-1a over every commit the simulator reports.
class CommitHash {
public:
    explicit CommitHash(sim::Simulator& sim) {
        for (std::size_t n = 0; n < sim.netlist().num_nets(); ++n) {
            const auto net = static_cast<std::uint32_t>(n);
            sim.on_commit(NetId{n}, [this, net](Logic v, std::int64_t t) {
                mix(static_cast<std::uint64_t>(t), 8);
                mix(net, 4);
                mix(static_cast<std::uint64_t>(v), 1);
            });
        }
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    void mix(std::uint64_t x, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h_ ^= (x >> (8 * i)) & 0xFFu;
            h_ *= 0x100000001B3ULL;
        }
    }
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct StreamTrace {
    std::uint64_t total_events = 0;
    std::vector<std::int64_t> token_ps;
    std::uint64_t hash = 0;
};

core::ArchSpec fabric12() {
    core::ArchSpec arch;
    arch.width = arch.height = 12;
    arch.channel_width = 16;
    return arch;
}

enum class Style { QdiAdder, MpAdder, WchbFifo, MpFifo, MousetrapFifo };

/// One compiled design: a style at a size on a fabric, with the flow's seed
/// and PDE margin.
struct DesignCase {
    Style style;
    std::size_t bits;
    std::size_t depth;  ///< FIFO stages; unused by the adders
    core::ArchSpec arch = fabric12();
    std::uint64_t seed = 2026;
    double pde_margin = cad::FlowOptions{}.pde_extra_margin;
};

cad::FlowResult compile(const DesignCase& d) {
    cad::FlowOptions opts;
    opts.seed = d.seed;
    opts.pde_extra_margin = d.pde_margin;
    auto flow = [&](const Netlist& nl, const asynclib::MappingHints& hints) {
        return cad::run_flow(nl, hints, d.arch, opts);
    };
    switch (d.style) {
        case Style::QdiAdder: {
            auto a = asynclib::make_qdi_adder(d.bits);
            return flow(a.nl, a.hints);
        }
        case Style::MpAdder: return flow(asynclib::make_micropipeline_adder(d.bits).nl, {});
        case Style::WchbFifo: {
            auto f = asynclib::make_wchb_fifo(d.bits, d.depth);
            return flow(f.nl, f.hints);
        }
        case Style::MpFifo: return flow(asynclib::make_micropipeline_fifo(d.bits, d.depth).nl, {});
        case Style::MousetrapFifo:
            return flow(asynclib::make_mousetrap_fifo(d.bits, d.depth).nl, {});
    }
    throw base::Error("unknown style");
}

std::vector<std::uint64_t> stimulus(std::uint64_t word) {
    base::Rng rng(15);
    std::vector<std::uint64_t> v(kTokens);
    for (auto& t : v) t = rng.below(word);
    return v;
}

/// Stream kTokens through a settled post-route simulator of `style` and
/// record the token completion times and every commit.
StreamTrace stream(sim::Simulator& sim, Style style, std::size_t bits) {
    const Netlist& nl = sim.netlist();
    CommitHash hash(sim);
    StreamTrace out;
    const std::int64_t horizon = static_cast<std::int64_t>(kTokens + 16) * 1'000'000;
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    auto want_sum = [&](std::uint64_t v) {
        return (v & mask) + ((v >> bits) & mask) + (v >> (2 * bits));
    };

    switch (style) {
        case Style::QdiAdder: {
            const auto io = testsupport::qdi_adder_iface(nl, bits);
            for (std::uint64_t v : stimulus(std::uint64_t{1} << (2 * bits + 1))) {
                EXPECT_EQ(sim::qdi_apply_token(sim, io, v), want_sum(v));
                out.token_ps.push_back(sim.now());
            }
            break;
        }
        case Style::MpAdder: {
            const auto io = testsupport::mp_adder_iface(nl, bits);
            for (std::uint64_t v : stimulus(std::uint64_t{1} << (2 * bits + 1))) {
                EXPECT_EQ(sim::bundled_apply_token(sim, io, v, kSettlePs), want_sum(v));
                out.token_ps.push_back(sim.now());
            }
            break;
        }
        case Style::WchbFifo: {
            std::vector<asynclib::DualRail> in;
            std::vector<asynclib::DualRail> outr;
            for (std::size_t i = 0; i < bits; ++i) {
                in.push_back(testsupport::find_rails(nl, base::bus_bit("in", i)));
                outr.push_back(testsupport::po_rails(nl, base::bus_bit("out", i)));
            }
            const auto sent = stimulus(1u << bits);
            sim::DrStreamSource src(sim, in, testsupport::po_net(nl, "ack_in"), sent, kEnvDelayPs);
            sim::DrStreamSink sink(sim, outr, nl.find_net("ack_out"), kEnvDelayPs);
            src.start();
            EXPECT_TRUE(sim.run(horizon).quiescent);
            EXPECT_EQ(sink.received(), sent);
            out.token_ps = sink.times().at_ps;
            break;
        }
        case Style::MpFifo:
        case Style::MousetrapFifo: {
            const auto io = testsupport::mp_fifo_iface(nl, bits);
            const auto sent = stimulus(1u << bits);
            if (style == Style::MpFifo) {
                sim::BdStreamSource src(sim, io.data_in, io.req_in, io.ack_in, sent, kEnvDelayPs,
                                        kSettlePs);
                sim::BdStreamSink sink(sim, io.data_out, io.req_out, io.ack_out, kEnvDelayPs);
                src.start();
                EXPECT_TRUE(sim.run(horizon).quiescent);
                EXPECT_EQ(sink.received(), sent);
                out.token_ps = sink.times().at_ps;
            } else {
                sim::Bd2StreamSource src(sim, io.data_in, io.req_in, io.ack_in, sent, kEnvDelayPs,
                                         kSettlePs);
                sim::Bd2StreamSink sink(sim, io.data_out, io.req_out, io.ack_out, kEnvDelayPs);
                src.start();
                EXPECT_TRUE(sim.run(horizon).quiescent);
                EXPECT_EQ(sink.received(), sent);
                out.token_ps = sink.times().at_ps;
            }
            break;
        }
    }
    out.total_events = sim.total_events();
    out.hash = hash.value();
    return out;
}

/// The golden designs: every style at 4 bits (FIFOs 8 deep) on fabric12().
StreamTrace run_style(Style style) {
    const cad::FlowResult fr = compile({style, 4, 8});
    testsupport::PostRouteSim impl(fr);
    return stream(*impl.sim, style, 4);
}

/// FNV-1a over the token completion times (keeps the goldens one line each).
std::uint64_t times_hash(const std::vector<std::int64_t>& ts) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::int64_t t : ts)
        for (int i = 0; i < 8; ++i) {
            h ^= (static_cast<std::uint64_t>(t) >> (8 * i)) & 0xFFu;
            h *= 0x100000001B3ULL;
        }
    return h;
}

/// Recorded on the priority-queue simulator this event order was first
/// defined by; every later queue must reproduce it bit for bit. The inputs
/// are placed and routed designs, so a change of placement or routing (and
/// only that) re-records them with the simulator untouched. total_events
/// counts queue events, one per sink group and not per pin, since commits
/// were grouped by wire delay.
struct Golden {
    std::uint64_t total_events;
    std::int64_t first_token_ps;
    std::int64_t last_token_ps;
    std::uint64_t token_times_hash;
    std::uint64_t commit_hash;
};

void expect_golden(Style style, const Golden& g) {
    const StreamTrace t = run_style(style);
    ASSERT_EQ(t.token_ps.size(), kTokens);
    EXPECT_EQ(t.total_events, g.total_events);
    EXPECT_EQ(t.token_ps.front(), g.first_token_ps);
    EXPECT_EQ(t.token_ps.back(), g.last_token_ps);
    EXPECT_EQ(times_hash(t.token_ps), g.token_times_hash);
    EXPECT_EQ(t.hash, g.commit_hash);
}

}  // namespace golden

TEST(SimGolden, QdiAdder4PostRouteStream) {
    golden::expect_golden(golden::Style::QdiAdder,
                          {12612u, 5240, 407360, 0xE38BF987BFAA1D90ULL, 0xD71042F64F6FB8FAULL});
}

TEST(SimGolden, MicropipelineAdder4PostRouteStream) {
    golden::expect_golden(golden::Style::MpAdder,
                          {4136u, 4840, 246760, 0x5333FAF5F4D9141EULL, 0x4E688D47FDDDC1EFULL});
}

TEST(SimGolden, WchbFifo4x8PostRouteStream) {
    golden::expect_golden(golden::Style::WchbFifo,
                          {25760u, 2570, 150030, 0xFA67C6F0723C1AD5ULL, 0x428BA81922E51DD4ULL});
}

TEST(SimGolden, MicropipelineFifo4x8PostRouteStream) {
    golden::expect_golden(golden::Style::MpFifo,
                          {13244u, 6290, 171350, 0x21D357273DF6DB0BULL, 0x2226840DF3247C0EULL});
}

TEST(SimGolden, MousetrapFifo4x8PostRouteStream) {
    golden::expect_golden(golden::Style::MousetrapFifo,
                          {9025u, 6250, 110200, 0x9A5DAA96044265C8ULL, 0x306D1074332B37EEULL});
}

// ---------------------------------------------------------------------------
// Exactness pins, recorded on the simulator that pushed one queue event per
// sink pin. Each pin is a token-times hash plus a commit hash; any other
// fanout scheme must reproduce both. They cover every design class the
// served path simulates (the abl_pde_resolution points on paper_arch()
// included), nets whose equal wire delays lie apart in sink order, and
// sink delays changed while pin updates are in flight.
// ---------------------------------------------------------------------------

namespace golden {

struct Pin {
    std::uint64_t token_times_hash;
    std::uint64_t commit_hash;
};

void expect_pin(const DesignCase& d, const Pin& p) {
    const cad::FlowResult fr = compile(d);
    testsupport::PostRouteSim impl(fr);
    const StreamTrace t = stream(*impl.sim, d.style, d.bits);
    EXPECT_EQ(t.token_ps.size(), kTokens);
    EXPECT_EQ(times_hash(t.token_ps), p.token_times_hash);
    EXPECT_EQ(t.hash, p.commit_hash);
}

/// The abl_pde_resolution fabric: paper_arch() with the PDE's tap quantum
/// and tap count.
DesignCase pde_point(std::int64_t quantum, std::uint32_t taps, double margin) {
    DesignCase d{Style::MpAdder, 4, 0, core::paper_arch(), 1, margin};
    d.arch.pde_quantum_ps = quantum;
    d.arch.pde_taps = taps;
    return d;
}

/// A random acyclic netlist whose cell delays come from {20, 30} ps and
/// whose wire delays come from {5, 7, 9} ps: many sinks of one net share a
/// delay while lying apart in sink order, and many cell outputs land at one
/// time, so the order of same-time events decides the commits.
struct TieDesign {
    Netlist nl;
    std::vector<NetId> pis;
};

TieDesign tie_design(std::uint64_t seed) {
    base::Rng rng(seed);
    TieDesign d;
    std::vector<NetId> nets;
    for (int i = 0; i < 6; ++i) {
        d.pis.push_back(d.nl.add_input("i" + std::to_string(i)));
        nets.push_back(d.pis.back());
    }
    const CellFunc funcs[] = {CellFunc::And, CellFunc::Or,  CellFunc::Xor, CellFunc::Nand,
                              CellFunc::C,   CellFunc::Buf, CellFunc::Inv, CellFunc::Maj};
    for (int c = 0; c < 80; ++c) {
        const CellFunc f = funcs[rng.below(std::size(funcs))];
        const std::size_t arity = f == CellFunc::Buf || f == CellFunc::Inv ? 1
                                  : f == CellFunc::Maj                     ? 3
                                                                           : 2;
        std::vector<NetId> in;
        for (std::size_t k = 0; k < arity; ++k) in.push_back(nets[rng.below(nets.size())]);
        const NetId out = d.nl.add_cell(f, "c" + std::to_string(c), in);
        d.nl.set_cell_delay(d.nl.driver_of(out), rng.below(2) == 0 ? 20 : 30);
        nets.push_back(out);
    }
    for (std::size_t k = nets.size() - 8; k < nets.size(); ++k)
        d.nl.add_output("o" + std::to_string(k), nets[k]);
    return d;
}

std::int64_t tie_delay(base::Rng& rng) { return 5 + 2 * static_cast<std::int64_t>(rng.below(3)); }

/// Draw a wire delay for every sink of every net.
void set_tie_delays(Simulator& sim, const Netlist& nl, base::Rng& rng) {
    for (std::size_t n = 0; n < nl.num_nets(); ++n)
        for (std::size_t s = 0; s < nl.net(NetId{n}).sinks.size(); ++s)
            sim.set_sink_delay(NetId{n}, s, tie_delay(rng));
}

}  // namespace golden

TEST(SimPins, QdiAdder1) {
    golden::expect_pin({golden::Style::QdiAdder, 1, 0},
                       {0x0EF55FF12A448A39ULL, 0xF78D5EC03EFB2251ULL});
}

TEST(SimPins, QdiAdder8) {
    golden::expect_pin({golden::Style::QdiAdder, 8, 0},
                       {0xF48B3E2BA8549A1BULL, 0x80CCDCD5AFA297F2ULL});
}

TEST(SimPins, MicropipelineAdder2) {
    golden::expect_pin({golden::Style::MpAdder, 2, 0},
                       {0xF4E59F6F245DEA3EULL, 0x111625499DCAF667ULL});
}

TEST(SimPins, WchbFifo2x2Seed3) {
    golden::expect_pin({golden::Style::WchbFifo, 2, 2, golden::fabric12(), 3},
                       {0xDB3D30B06AE08A96ULL, 0x3179FB7832C6183CULL});
}

TEST(SimPins, WchbFifo4x4) {
    golden::expect_pin({golden::Style::WchbFifo, 4, 4},
                       {0x9F2F154F93EAEBDCULL, 0xAC60DE0DBE6D12E7ULL});
}

TEST(SimPins, MicropipelineFifo4x2) {
    golden::expect_pin({golden::Style::MpFifo, 4, 2},
                       {0x166572D8829A5299ULL, 0x09D632F8D4CAFBDAULL});
}

TEST(SimPins, MousetrapFifo4x2) {
    golden::expect_pin({golden::Style::MousetrapFifo, 4, 2},
                       {0xE2417D1742BD290CULL, 0xBF581AEA98E86F1CULL});
}

TEST(SimPins, PdePoint2000x4ZeroMargin) {
    golden::expect_pin(golden::pde_point(2000, 4, 0.0),
                       {0x8E10F047D559DAF2ULL, 0x84C9570FDC2768AAULL});
}

TEST(SimPins, PdePoint125x64FullMargin) {
    golden::expect_pin(golden::pde_point(125, 64, 1.0),
                       {0x8FCAE2DCF57C1C2EULL, 0x9DA99A2F53DB1FA3ULL});
}

TEST(SimPins, EqualWireDelaysApartInSinkOrder) {
    golden::TieDesign d = golden::tie_design(7);
    Simulator sim(d.nl);
    afpga::base::Rng rng(8);
    golden::set_tie_delays(sim, d.nl, rng);
    sim.run();
    golden::CommitHash hash(sim);
    std::vector<std::int64_t> ends;
    for (int round = 0; round < 300; ++round) {
        for (int k = 0; k < 3; ++k)
            sim.schedule_pi(d.pis[rng.below(d.pis.size())], rng.below(2) ? Logic::T : Logic::F,
                            static_cast<std::int64_t>(rng.below(40)));
        ASSERT_TRUE(sim.run().quiescent);
        ends.push_back(sim.now());
    }
    EXPECT_EQ(golden::times_hash(ends), 0x916F9DC6AAF99D50ULL);
    EXPECT_EQ(hash.value(), 0x33D15FCAC89A3DBFULL);
}

TEST(SimPins, SinkDelayChangedWithUpdatesPending) {
    golden::TieDesign d = golden::tie_design(11);
    Simulator sim(d.nl);
    afpga::base::Rng rng(12);
    golden::set_tie_delays(sim, d.nl, rng);
    sim.run();
    golden::CommitHash hash(sim);
    std::vector<std::int64_t> ends;
    for (int round = 0; round < 300; ++round) {
        for (int k = 0; k < 3; ++k)
            sim.schedule_pi(d.pis[rng.below(d.pis.size())], rng.below(2) ? Logic::T : Logic::F,
                            static_cast<std::int64_t>(rng.below(8)));
        // Every wire delay is at least 5 ps, so the updates of whatever
        // committed in the last 4 ps are still queued when the delays change.
        sim.run(sim.now() + 4 + static_cast<std::int64_t>(rng.below(30)));
        for (int k = 0; k < 6; ++k) {
            const std::size_t n = rng.below(d.nl.num_nets());
            const NetId net{n};
            const std::size_t fanout = d.nl.net(net).sinks.size();
            if (fanout == 0) continue;
            if (k == 0)
                sim.set_net_delay(net, golden::tie_delay(rng));
            else
                sim.set_sink_delay(net, rng.below(fanout), golden::tie_delay(rng));
        }
        ends.push_back(sim.now());
    }
    ASSERT_TRUE(sim.run().quiescent);
    ends.push_back(sim.now());
    EXPECT_EQ(golden::times_hash(ends), 0xD1A83C41223F64F3ULL);
    EXPECT_EQ(hash.value(), 0xFE6E8111E9344736ULL);
}

TEST(SimConcurrency, SimulatorsOverOneNetlistMatchASerialRun) {
    // Every Simulator keeps its own state and only reads the netlist, so
    // runs on pool workers over one elaborated design match a serial run.
    const afpga::cad::FlowResult fr = golden::compile({golden::Style::WchbFifo, 4, 4});
    const afpga::core::ElaboratedDesign design = fr.elaborate();
    const auto delays = afpga::core::resolve_wire_delays(design);
    using Hashes = std::pair<std::uint64_t, std::uint64_t>;
    auto run_one = [&] {
        Simulator sim(design.nl);
        for (const auto& d : delays) sim.set_sink_delay(d.net, d.sink_idx, d.delay_ps);
        sim.run();
        const golden::StreamTrace t = golden::stream(sim, golden::Style::WchbFifo, 4);
        return Hashes{t.hash, golden::times_hash(t.token_ps)};
    };
    const Hashes serial = run_one();
    std::vector<Hashes> got(8);
    afpga::base::ThreadPool pool(4);
    pool.parallel_for(got.size(), [&](std::size_t i) { got[i] = run_one(); });
    for (const Hashes& h : got) EXPECT_EQ(h, serial);
}

}  // namespace
