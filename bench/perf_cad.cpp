// CAD and simulator performance microbenchmarks (google-benchmark).
//
// Not a paper experiment — engineering due diligence: the tool must stay
// interactive at the design sizes the fabric supports.
#include <benchmark/benchmark.h>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/strings.hpp"
#include "cad/flow.hpp"
#include "cad/route.hpp"
#include "core/elaborate.hpp"
#include "sim/channels.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"

using namespace afpga;

namespace {

core::ArchSpec bench_arch() {
    core::ArchSpec a = core::paper_arch();
    a.width = 12;
    a.height = 12;
    a.channel_width = 16;
    return a;
}

void BM_Techmap(benchmark::State& state) {
    auto adder = asynclib::make_qdi_adder(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto md = cad::techmap(adder.nl, adder.hints);
        benchmark::DoNotOptimize(md.les.size());
    }
}
BENCHMARK(BM_Techmap)->Arg(1)->Arg(4)->Arg(8);

void BM_PackPlace(benchmark::State& state) {
    auto adder = asynclib::make_qdi_adder(static_cast<std::size_t>(state.range(0)));
    const auto arch = bench_arch();
    const auto md = cad::techmap(adder.nl, adder.hints);
    for (auto _ : state) {
        auto pd = cad::pack(md, arch);
        cad::PlaceOptions opts;
        opts.seed = 7;
        auto pl = cad::place(pd, md, arch, opts);
        benchmark::DoNotOptimize(pl.final_cost);
    }
}
BENCHMARK(BM_PackPlace)->ArgNames({"bits"})->Arg(2)->Arg(4);

// The placer with its polish anneal's move rate: one default place() per
// iteration, reported as polish proposals per second. Arg 0 is a QDI adder
// 8b on 16x16 (every net takes the fixed-shape small-net path); arg 1 is a
// WCHB FIFO 8x24 on 18x18, whose wide control nets exercise the
// per-edge-count box path.
void BM_Polish(benchmark::State& state) {
    netlist::Netlist nl;
    asynclib::MappingHints hints;
    core::ArchSpec arch;
    if (state.range(0) == 0) {
        auto adder = asynclib::make_qdi_adder(8);
        nl = std::move(adder.nl);
        hints = std::move(adder.hints);
        arch.width = arch.height = 16;
    } else {
        auto fifo = asynclib::make_wchb_fifo(8, 24);
        nl = std::move(fifo.nl);
        hints = std::move(fifo.hints);
        arch.width = arch.height = 18;
    }
    const auto md = cad::techmap(nl, hints);
    const auto pd = cad::pack(md, arch);
    cad::PlaceOptions opts;
    opts.seed = 7;
    std::int64_t moves = 0;
    for (auto _ : state) {
        const auto pl = cad::place(pd, md, arch, opts);
        moves += static_cast<std::int64_t>(pl.moves_tried);
        benchmark::DoNotOptimize(pl.final_cost);
    }
    state.SetItemsProcessed(moves);
}
BENCHMARK(BM_Polish)->ArgNames({"wchb"})->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FullFlow(benchmark::State& state) {
    auto adder = asynclib::make_qdi_adder(static_cast<std::size_t>(state.range(0)));
    const auto arch = bench_arch();
    for (auto _ : state) {
        auto fr = cad::run_flow(adder.nl, adder.hints, arch, {});
        benchmark::DoNotOptimize(fr.bits->num_enabled_edges());
    }
}
BENCHMARK(BM_FullFlow)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The negotiated-congestion router in isolation: a congested cross-quadrant
// net mix on a 13x13 fabric, routed on the calling thread.
void BM_RouteSearch(benchmark::State& state) {
    core::ArchSpec a = core::paper_arch();
    a.width = 13;
    a.height = 13;
    a.channel_width = 8;
    const core::RRGraph rr(a);

    std::vector<cad::RouteRequest> reqs;
    auto add = [&](core::PlbCoord from, core::PlbCoord to) {
        cad::RouteRequest rq;
        rq.src_plb = from;
        cad::RouteRequest::Sink sk;
        sk.plb = to;
        rq.sinks.push_back(sk);
        reqs.push_back(std::move(rq));
    };
    // Long cross-fabric nets sharing the central channels force several
    // PathFinder iterations, so the steady-state path dominates.
    for (std::uint32_t i = 0; i < 11; ++i) {
        add({1, 1 + i}, {11, 11 - i});
        add({11, 1 + i}, {1, 11 - i});
    }

    for (auto _ : state) {
        auto res = cad::route(rr, reqs);
        benchmark::DoNotOptimize(res.wirelength);
    }
}
BENCHMARK(BM_RouteSearch)->Unit(benchmark::kMillisecond);

void BM_RRGraphBuild(benchmark::State& state) {
    core::ArchSpec a = core::paper_arch();
    a.width = static_cast<std::uint32_t>(state.range(0));
    a.height = a.width;
    for (auto _ : state) {
        core::RRGraph rr(a);
        benchmark::DoNotOptimize(rr.num_edges());
    }
}
BENCHMARK(BM_RRGraphBuild)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_SimTokens(benchmark::State& state) {
    auto adder = asynclib::make_qdi_adder(4);
    sim::Simulator sim(adder.nl);
    sim.run();
    sim::QdiCombIface iface;
    iface.inputs = adder.a;
    iface.inputs.insert(iface.inputs.end(), adder.b.begin(), adder.b.end());
    iface.inputs.push_back(adder.cin);
    iface.outputs = adder.sum;
    iface.outputs.push_back(adder.cout);
    iface.done = adder.done;
    std::uint64_t v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::qdi_apply_token(sim, iface, v));
        v = (v + 1) & 0x1FF;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimTokens);

void BM_SimFifoStream(benchmark::State& state) {
    for (auto _ : state) {
        auto fifo = asynclib::make_wchb_fifo(4, 8);
        sim::Simulator sim(fifo.nl);
        sim.run();
        std::vector<std::uint64_t> tokens(64, 9);
        sim::DrStreamSource src(sim, fifo.in, fifo.ack_in, tokens, 50);
        sim::DrStreamSink sink(sim, fifo.out, fifo.ack_out, 50);
        src.start();
        sim.run(2'000'000'000);
        benchmark::DoNotOptimize(sink.received().size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SimFifoStream)->Unit(benchmark::kMillisecond);

// Post-route simulation, the netlist the simulator's LUT fast path targets:
// a WCHB FIFO 4x8 compiled onto 12x12, elaborated from its bitstream into
// LE-level LUT cells and PDE delays, with the routed wire delays applied.
// Each iteration settles a fresh simulator and streams 1000 tokens.
void BM_SimPostRoute(benchmark::State& state) {
    auto fifo = asynclib::make_wchb_fifo(4, 8);
    const auto fr = cad::run_flow(fifo.nl, fifo.hints, bench_arch(), {});
    const core::ElaboratedDesign impl = fr.elaborate();
    const auto delays = core::resolve_wire_delays(impl);
    const netlist::Netlist& nl = impl.nl;
    const auto po = [&nl](const std::string& name) {
        for (const auto& [n, net] : nl.primary_outputs())
            if (n == name) return net;
        base::fail("BM_SimPostRoute: missing output " + name);
    };
    std::vector<asynclib::DualRail> in;
    std::vector<asynclib::DualRail> out;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::string b = base::bus_bit("in", i);
        const std::string o = base::bus_bit("out", i);
        in.push_back({nl.find_net(b + ".t"), nl.find_net(b + ".f")});
        out.push_back({po(o + ".t"), po(o + ".f")});
    }
    constexpr std::size_t kTokens = 1000;
    std::vector<std::uint64_t> tokens(kTokens);
    for (std::size_t i = 0; i < kTokens; ++i) tokens[i] = (i * 7 + 3) & 0xF;
    for (auto _ : state) {
        sim::Simulator sim(nl);
        for (const auto& d : delays) sim.set_sink_delay(d.net, d.sink_idx, d.delay_ps);
        sim.run();
        sim::DrStreamSource src(sim, in, po("ack_in"), tokens, 400);
        sim::DrStreamSink sink(sim, out, nl.find_net("ack_out"), 400);
        src.start();
        benchmark::DoNotOptimize(sim.run());
        if (sink.received() != tokens) state.SkipWithError("post-route FIFO lost tokens");
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTokens));
}
BENCHMARK(BM_SimPostRoute)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
