// Tests for the event-driven simulator: gate semantics under time, inertial
// vs transport delays, sequential cells, sink delays, monitors, event-queue
// ordering edge cases, and post-route stream goldens that pin the exact
// event order of every paper style.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "cad/flow.hpp"
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

cad::FlowResult compile(const Netlist& nl, const asynclib::MappingHints& hints) {
    cad::FlowOptions opts;
    opts.seed = 2026;
    return cad::run_flow(nl, hints, fabric12(), opts);
}

std::vector<std::uint64_t> stimulus(std::uint64_t word) {
    base::Rng rng(15);
    std::vector<std::uint64_t> v(kTokens);
    for (auto& t : v) t = rng.below(word);
    return v;
}

enum class Style { QdiAdder, MpAdder, WchbFifo, MpFifo, MousetrapFifo };

StreamTrace run_style(Style style) {
    constexpr std::size_t kBits = 4;
    constexpr std::size_t kDepth = 8;
    cad::FlowResult fr = [&] {
        switch (style) {
            case Style::QdiAdder: {
                auto a = asynclib::make_qdi_adder(kBits);
                return compile(a.nl, a.hints);
            }
            case Style::MpAdder: return compile(asynclib::make_micropipeline_adder(kBits).nl, {});
            case Style::WchbFifo: {
                auto f = asynclib::make_wchb_fifo(kBits, kDepth);
                return compile(f.nl, f.hints);
            }
            case Style::MpFifo:
                return compile(asynclib::make_micropipeline_fifo(kBits, kDepth).nl, {});
            case Style::MousetrapFifo:
                return compile(asynclib::make_mousetrap_fifo(kBits, kDepth).nl, {});
        }
        throw base::Error("unknown style");
    }();
    testsupport::PostRouteSim impl(fr);
    sim::Simulator& sim = *impl.sim;
    const Netlist& nl = impl.design.nl;
    CommitHash hash(sim);
    StreamTrace out;
    const std::int64_t horizon = static_cast<std::int64_t>(kTokens + 16) * 1'000'000;

    switch (style) {
        case Style::QdiAdder: {
            const auto io = testsupport::qdi_adder_iface(nl, kBits);
            for (std::uint64_t v : stimulus(std::uint64_t{1} << (2 * kBits + 1))) {
                const std::uint64_t want = (v & 0xF) + ((v >> 4) & 0xF) + (v >> 8);
                EXPECT_EQ(sim::qdi_apply_token(sim, io, v), want);
                out.token_ps.push_back(sim.now());
            }
            break;
        }
        case Style::MpAdder: {
            const auto io = testsupport::mp_adder_iface(nl, kBits);
            for (std::uint64_t v : stimulus(std::uint64_t{1} << (2 * kBits + 1))) {
                const std::uint64_t want = (v & 0xF) + ((v >> 4) & 0xF) + (v >> 8);
                EXPECT_EQ(sim::bundled_apply_token(sim, io, v, kSettlePs), want);
                out.token_ps.push_back(sim.now());
            }
            break;
        }
        case Style::WchbFifo: {
            std::vector<asynclib::DualRail> in;
            std::vector<asynclib::DualRail> outr;
            for (std::size_t i = 0; i < kBits; ++i) {
                in.push_back(testsupport::find_rails(nl, base::bus_bit("in", i)));
                outr.push_back(testsupport::po_rails(nl, base::bus_bit("out", i)));
            }
            const auto sent = stimulus(1u << kBits);
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
            const auto io = testsupport::mp_fifo_iface(nl, kBits);
            const auto sent = stimulus(1u << kBits);
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
/// only that) re-records them with the simulator untouched.
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
                          {21120u, 5240, 406640, 0x554A0F3FFFDA126AULL, 0x7238A4055803F1DDULL});
}

TEST(SimGolden, MicropipelineAdder4PostRouteStream) {
    golden::expect_golden(golden::Style::MpAdder,
                          {5591u, 4840, 246760, 0x5333FAF5F4D9141EULL, 0x4E688D47FDDDC1EFULL});
}

TEST(SimGolden, WchbFifo4x8PostRouteStream) {
    golden::expect_golden(golden::Style::WchbFifo,
                          {46313u, 2610, 150070, 0xC2B14477F1D2F27DULL, 0x3BF719DC77524205ULL});
}

TEST(SimGolden, MicropipelineFifo4x8PostRouteStream) {
    golden::expect_golden(golden::Style::MpFifo,
                          {17961u, 6290, 171350, 0x21D357273DF6DB0BULL, 0x7443E9B44CAEB816ULL});
}

TEST(SimGolden, MousetrapFifo4x8PostRouteStream) {
    golden::expect_golden(golden::Style::MousetrapFifo,
                          {13217u, 6170, 110120, 0x8978A58780169735ULL, 0x9C17E49B75641D86ULL});
}

}  // namespace
