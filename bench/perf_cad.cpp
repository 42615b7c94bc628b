// CAD and simulator performance microbenchmarks (google-benchmark).
//
// Not a paper experiment — engineering due diligence: the tool must stay
// interactive at the design sizes the fabric supports.
#include <benchmark/benchmark.h>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "cad/flow.hpp"
#include "cad/route_search.hpp"
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

// Second arg selects the placement engine (PlaceAlgorithm: 0 = anneal,
// 2 = race, 3 = multilevel; 1 is retired) so perf trajectories cover every
// engine, not just the annealer.
void BM_PackPlace(benchmark::State& state) {
    auto adder = asynclib::make_qdi_adder(static_cast<std::size_t>(state.range(0)));
    const auto arch = bench_arch();
    const auto md = cad::techmap(adder.nl, adder.hints);
    for (auto _ : state) {
        auto pd = cad::pack(md, arch);
        cad::PlaceOptions opts;
        opts.seed = 7;
        opts.algorithm = static_cast<cad::PlaceAlgorithm>(state.range(1));
        auto pl = cad::place(pd, md, arch, opts);
        benchmark::DoNotOptimize(pl.final_cost);
    }
}
BENCHMARK(BM_PackPlace)
    ->ArgNames({"bits", "alg"})
    ->ArgsProduct({{2, 4}, {0, 2, 3}});

void BM_FullFlow(benchmark::State& state) {
    auto adder = asynclib::make_qdi_adder(static_cast<std::size_t>(state.range(0)));
    const auto arch = bench_arch();
    for (auto _ : state) {
        auto fr = cad::run_flow(adder.nl, adder.hints, arch, {});
        benchmark::DoNotOptimize(fr.bits->num_enabled_edges());
    }
}
BENCHMARK(BM_FullFlow)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The negotiated-congestion search kernel in isolation: a congested
// cross-quadrant net mix on a 13x13 fabric, routed with the pooled-heap
// kernel (arg 0) or the retained pre-rework reference kernel (arg 1).
// Both produce bit-identical trees, so the delta is pure kernel overhead.
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

    cad::detail::set_use_reference_kernel(state.range(0) != 0);
    for (auto _ : state) {
        auto res = cad::route(rr, reqs);
        benchmark::DoNotOptimize(res.wirelength);
    }
    cad::detail::set_use_reference_kernel(false);
}
BENCHMARK(BM_RouteSearch)
    ->ArgNames({"reference"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

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

}  // namespace

BENCHMARK_MAIN();
