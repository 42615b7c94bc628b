// afpga_bench: the repository benchmark program.
//
// Runs one workload of seeded CAD jobs through the public flow API only
// (cad::run_flow, FlowResult::elaborate, the sim stream/testbench helpers,
// FlowServer and FlowClient), in several passes over the same job list,
// checks every result after routing against an arithmetic or
// token-sequence oracle, times each job by its fastest execution, and
// prints each metric by name and unit. The last line on stdout is the
// machine-readable summary:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every run computes both metric sets and the per-layer spans from the same
// timestamps; --trace only picks the set on the summary line (0: the
// end-to-end metrics, 1: the per-layer ones). With --out DIR the run also
// writes DIR/<workload>.json (both sets, the machine context) and the
// Chrome trace DIR/<workload>.trace.json. Workloads, metrics and their
// reasons: benchmark/README.md.
//
// Usage: afpga_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--smoke] [--out DIR] [--commit SHA]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/json.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "cad/flow.hpp"
#include "cad/flow_client.hpp"
#include "cad/flow_server.hpp"
#include "cad/serialize.hpp"
#include "core/elaborate.hpp"
#include "sim/channels.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"

#ifndef AFPGA_BENCH_BUILD_TYPE
#define AFPGA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef AFPGA_BENCH_COMPILER
#define AFPGA_BENCH_COMPILER "unknown"
#endif

using namespace afpga;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Milliseconds on the process clock every span and latency is stamped with.
double now_ms() {
    return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch).count();
}

double peak_rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Shortest round-trip decimal form, so a reported value keeps every digit.
std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Designs and the post-route oracle
// ---------------------------------------------------------------------------

enum class Kind { QdiAdder, MpAdder, WchbFifo, MpFifo, MousetrapFifo };

/// Which generator to call, and the fabric to compile onto.
struct DesignSpec {
    Kind kind = Kind::QdiAdder;
    std::size_t bits = 0;   ///< adder operand width or FIFO data width
    std::size_t depth = 0;  ///< FIFO stages
    std::uint32_t fabric = 0;
    std::uint32_t channel_width = 0;
};

struct Design {
    DesignSpec spec;
    std::string name;
    netlist::Netlist nl;
    asynclib::MappingHints hints;
    core::ArchSpec arch;
};

Design make_design(const DesignSpec& s) {
    Design d;
    d.spec = s;
    d.arch.width = d.arch.height = s.fabric;
    d.arch.channel_width = s.channel_width;
    const std::string shape = std::to_string(s.bits) + "x" + std::to_string(s.depth);
    switch (s.kind) {
        case Kind::QdiAdder: {
            auto a = asynclib::make_qdi_adder(s.bits);
            d.nl = std::move(a.nl);
            d.hints = std::move(a.hints);
            d.name = "qdi_adder_" + std::to_string(s.bits);
            break;
        }
        case Kind::MpAdder:
            d.nl = std::move(asynclib::make_micropipeline_adder(s.bits).nl);
            d.name = "mp_adder_" + std::to_string(s.bits);
            break;
        case Kind::WchbFifo: {
            auto f = asynclib::make_wchb_fifo(s.bits, s.depth);
            d.nl = std::move(f.nl);
            d.hints = std::move(f.hints);
            d.name = "wchb_" + shape;
            break;
        }
        case Kind::MpFifo:
            d.nl = std::move(asynclib::make_micropipeline_fifo(s.bits, s.depth).nl);
            d.name = "mp_fifo_" + shape;
            break;
        case Kind::MousetrapFifo:
            d.nl = std::move(asynclib::make_mousetrap_fifo(s.bits, s.depth).nl);
            d.name = "mousetrap_" + shape;
            break;
    }
    d.name += "@" + std::to_string(s.fabric);
    return d;
}

netlist::NetId pi(const netlist::Netlist& nl, const std::string& name) {
    const netlist::NetId n = nl.find_net(name);
    base::check(n.valid(), "post-route design lacks input " + name);
    return n;
}

netlist::NetId po(const netlist::Netlist& nl, const std::string& name) {
    for (const auto& [n, net] : nl.primary_outputs())
        if (n == name) return net;
    base::fail("post-route design lacks output " + name);
}

asynclib::DualRail pi_rails(const netlist::Netlist& nl, const std::string& base) {
    return {pi(nl, base + ".t"), pi(nl, base + ".f")};
}

asynclib::DualRail po_rails(const netlist::Netlist& nl, const std::string& base) {
    return {po(nl, base + ".t"), po(nl, base + ".f")};
}

/// What one post-route check simulated.
struct SimOutcome {
    std::size_t tokens = 0;
    std::uint64_t events = 0;
    double run_ms = 0.0;     ///< host time driving the simulator through the tokens
    double period_ps = 0.0;  ///< simulated steady-state token period
};

// Environment timing of the stream helpers (as in the post-route tests).
constexpr std::int64_t kEnvDelayPs = 400;
constexpr std::int64_t kSettlePs = 1000;  ///< source-side bundling slack

/// Stream `tokens` seeded tokens through the implemented circuit and check
/// each against the oracle: the integer sum for adders, the sent sequence
/// for FIFOs. Throws base::Error on the first mismatch.
SimOutcome check_post_route(const Design& d, const core::ElaboratedDesign& impl,
                            std::size_t tokens, std::uint64_t stim_seed) {
    const netlist::Netlist& nl = impl.nl;
    sim::Simulator sim(nl);
    for (const auto& wd : core::resolve_wire_delays(impl))
        sim.set_sink_delay(wd.net, wd.sink_idx, wd.delay_ps);
    sim.run();  // settle into the post-reset idle state

    base::Rng rng(stim_seed);
    const std::uint64_t word = std::uint64_t{1} << d.spec.bits;
    std::vector<std::uint64_t> sent(tokens);
    for (auto& t : sent) t = rng.below(word);

    SimOutcome out;
    out.tokens = tokens;
    const std::uint64_t events0 = sim.total_events();
    const double t0 = now_ms();
    const std::int64_t sim0 = sim.now();
    const std::size_t n = d.spec.bits;

    auto check_adder = [&](auto&& apply) {
        for (std::size_t i = 0; i < tokens; ++i) {
            const std::uint64_t a = sent[i];
            const std::uint64_t b = rng.below(word);
            const std::uint64_t cin = rng.below(2);
            const std::uint64_t got = apply(a | (b << n) | (cin << (2 * n)));
            base::check(got == a + b + cin, d.name + ": post-route sum " + std::to_string(got) +
                                                " != " + std::to_string(a + b + cin));
        }
        out.period_ps = static_cast<double>(sim.now() - sim0) / static_cast<double>(tokens);
    };
    auto check_stream = [&](const sim::RunResult& r, const std::vector<std::uint64_t>& got,
                            const sim::TokenTimes& times) {
        base::check(r.quiescent && !r.budget_exceeded, d.name + ": stream did not drain");
        if (got != sent) {
            const auto diff = std::mismatch(got.begin(), got.end(), sent.begin(), sent.end());
            const auto at = static_cast<std::size_t>(diff.second - sent.begin());
            base::fail(d.name + ": received " + std::to_string(got.size()) + " of " +
                       std::to_string(sent.size()) + " tokens, first difference at token " +
                       std::to_string(at));
        }
        out.period_ps = times.steady_period_ps();
    };
    const std::int64_t horizon = static_cast<std::int64_t>(tokens + 16) * 1'000'000;

    switch (d.spec.kind) {
        case Kind::QdiAdder: {
            sim::QdiCombIface io;
            for (const char* bus : {"a", "b"})
                for (std::size_t i = 0; i < n; ++i)
                    io.inputs.push_back(pi_rails(nl, base::bus_bit(bus, i)));
            io.inputs.push_back(pi_rails(nl, "cin"));
            for (std::size_t i = 0; i < n; ++i)
                io.outputs.push_back(po_rails(nl, base::bus_bit("sum", i)));
            io.outputs.push_back(po_rails(nl, "cout"));
            io.done = po(nl, "done");
            check_adder([&](std::uint64_t v) { return sim::qdi_apply_token(sim, io, v); });
            break;
        }
        case Kind::MpAdder: {
            sim::BundledStageIface io;
            for (const char* bus : {"a", "b"})
                for (std::size_t i = 0; i < n; ++i)
                    io.data_in.push_back(pi(nl, base::bus_bit(bus, i)));
            io.data_in.push_back(pi(nl, "cin"));
            io.req_in = pi(nl, "req_in");
            io.ack_out = pi(nl, "ack_out");
            for (std::size_t i = 0; i < n; ++i)
                io.data_out.push_back(po(nl, base::bus_bit("sum", i)));
            io.data_out.push_back(po(nl, "cout"));
            io.req_out = po(nl, "req_out");
            io.ack_in = po(nl, "ack_in");
            check_adder([&](std::uint64_t v) {
                return sim::bundled_apply_token(sim, io, v, kSettlePs);
            });
            break;
        }
        case Kind::WchbFifo: {
            std::vector<asynclib::DualRail> in;
            std::vector<asynclib::DualRail> outr;
            for (std::size_t i = 0; i < n; ++i) {
                in.push_back(pi_rails(nl, base::bus_bit("in", i)));
                outr.push_back(po_rails(nl, base::bus_bit("out", i)));
            }
            sim::DrStreamSource src(sim, in, po(nl, "ack_in"), sent, kEnvDelayPs);
            sim::DrStreamSink sink(sim, outr, pi(nl, "ack_out"), kEnvDelayPs);
            src.start();
            const auto r = sim.run(horizon);
            check_stream(r, sink.received(), sink.times());
            break;
        }
        case Kind::MpFifo:
        case Kind::MousetrapFifo: {
            std::vector<netlist::NetId> in;
            std::vector<netlist::NetId> outd;
            for (std::size_t i = 0; i < n; ++i) {
                in.push_back(pi(nl, base::bus_bit("in", i)));
                outd.push_back(po(nl, base::bus_bit("out", i)));
            }
            if (d.spec.kind == Kind::MpFifo) {
                sim::BdStreamSource src(sim, in, pi(nl, "req_in"), po(nl, "ack_in"), sent,
                                        kEnvDelayPs, kSettlePs);
                sim::BdStreamSink sink(sim, outd, po(nl, "req_out"), pi(nl, "ack_out"),
                                       kEnvDelayPs);
                src.start();
                const auto r = sim.run(horizon);
                check_stream(r, sink.received(), sink.times());
            } else {
                sim::Bd2StreamSource src(sim, in, pi(nl, "req_in"), po(nl, "ack_in"), sent,
                                         kEnvDelayPs, kSettlePs);
                sim::Bd2StreamSink sink(sim, outd, po(nl, "req_out"), pi(nl, "ack_out"),
                                        kEnvDelayPs);
                src.start();
                const auto r = sim.run(horizon);
                check_stream(r, sink.received(), sink.times());
            }
            break;
        }
    }
    out.run_ms = now_ms() - t0;
    out.events = sim.total_events() - events0;
    base::check(out.period_ps > 0.0, d.name + ": no token period measured");
    return out;
}

// ---------------------------------------------------------------------------
// What one flow reported, in-process or over the wire
// ---------------------------------------------------------------------------

/// The stage walls and counters the benchmark reads from a FlowTelemetry.
struct FlowSummary {
    double techmap_ms = 0, pack_ms = 0, place_ms = 0, route_ms = 0, bitstream_ms = 0;
    double rr_ms = 0;      ///< RR graph build (or store fetch) inside route
    double search_ms = 0;  ///< search-kernel time inside route
    double clusters = 0, moves_tried = 0, moves_accepted = 0, solver_iterations = 0;
    double place_cost = 0;
    double route_iterations = 0, nets = 0, nets_rerouted = 0, wirelength = 0;
    double heap_pops = 0, nodes_expanded = 0, edges_scanned = 0;
    double switches_on = 0;
};

FlowSummary summarize(const cad::FlowTelemetry& t) {
    FlowSummary s;
    auto stage = [&](const char* name) {
        const cad::StageReport* r = t.stage(name);
        base::check(r != nullptr, std::string("flow telemetry lacks stage ") + name);
        return r;
    };
    auto metric = [](const cad::StageReport* r, const char* name) {
        const double* v = r->metric(name);
        return v ? *v : 0.0;
    };
    const cad::StageReport* tm = stage("techmap");
    const cad::StageReport* pk = stage("pack");
    const cad::StageReport* pl = stage("place");
    const cad::StageReport* rt = stage("route");
    const cad::StageReport* bs = stage("bitstream");
    s.techmap_ms = tm->wall_ms;
    s.pack_ms = pk->wall_ms;
    s.place_ms = pl->wall_ms;
    s.route_ms = rt->wall_ms;
    s.bitstream_ms = bs->wall_ms;
    s.rr_ms = metric(rt, "rr_build_ms") + metric(rt, "rr_store_ms");
    s.search_ms = metric(rt, "kernel_search_ms");
    s.clusters = metric(pk, "clusters");
    s.moves_tried = metric(pl, "moves_tried");
    s.moves_accepted = metric(pl, "moves_accepted");
    s.solver_iterations = metric(pl, "solver_iterations");
    s.place_cost = metric(pl, "final_cost");
    s.route_iterations = rt->iterations;
    s.nets = metric(rt, "nets");
    s.nets_rerouted = metric(rt, "nets_rerouted");
    s.wirelength = metric(rt, "wirelength");
    s.heap_pops = metric(rt, "kernel_heap_pops");
    s.nodes_expanded = metric(rt, "kernel_nodes_expanded");
    s.edges_scanned = metric(rt, "kernel_edges_scanned");
    s.switches_on = metric(bs, "switches_on");
    return s;
}

/// Rebuild the FlowTelemetry a server sent as FlowTelemetry::to_json()
/// text. Each stage object is flat (numbers, two strings, one bool, one
/// array of numbers), so scanning its "key":value members suffices.
cad::FlowTelemetry parse_telemetry(const std::string& js) {
    cad::FlowTelemetry t;
    const std::string tag = "{\"stage\":";
    for (std::size_t pos = js.find(tag); pos != std::string::npos; pos = js.find(tag, pos)) {
        const std::size_t end = js.find('}', pos);
        base::check(end != std::string::npos, "telemetry: unterminated stage object");
        const std::string obj = js.substr(pos + 1, end - pos - 1);
        cad::StageReport r;
        for (std::size_t i = 0; i < obj.size();) {
            const std::size_t kend = obj.find('"', i + 1);
            base::check(obj[i] == '"' && kend != std::string::npos && kend + 2 < obj.size(),
                        "telemetry: malformed member");
            const std::string key = obj.substr(i + 1, kend - i - 1);
            const std::size_t v = kend + 2;
            std::size_t vend = 0;
            if (obj[v] == '"') {
                vend = obj.find('"', v + 1) + 1;
                if (key == "stage") r.stage = obj.substr(v + 1, vend - v - 2);
            } else if (obj[v] == '[') {
                vend = obj.find(']', v) + 1;
            } else {
                vend = std::min(obj.find(',', v), obj.size());
                const std::string val = obj.substr(v, vend - v);
                if (val == "true" || val == "false") {
                    r.cache_hit = val == "true" ? 1 : 0;
                } else if (val != "null") {
                    const double x = std::strtod(val.c_str(), nullptr);
                    if (key == "wall_ms")
                        r.wall_ms = x;
                    else if (key == "iterations")
                        r.iterations = static_cast<int>(x);
                    else
                        r.add_metric(key, x);
                }
            }
            i = vend + 1;
        }
        t.stages.push_back(std::move(r));
        pos = end;
    }
    return t;
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// Everything measured about one job: its fastest execution across the
/// run's passes (see fold). Spans are rebuilt from these stamps after the
/// timed phase, so a run costs the same whatever --trace says.
struct JobRecord {
    std::uint64_t index = 0;
    std::string design;
    unsigned thread = 0;
    bool ok = false;  ///< every execution passed its checks
    std::string error;
    unsigned runs = 0;         ///< executions folded in, one per pass
    unsigned failed_runs = 0;  ///< executions that failed a check
    /// In-process: run_flow called. Served: submit called.
    double start_ms = 0;
    /// In-process: to the post-route check passing. Served: to the result
    /// decoded.
    double latency_ms = 0;
    /// run_flow's wall: the call in-process, the server-reported wall served.
    double flow_ms = 0;
    double elaborate_ms = 0;
    double sim_ms = 0;
    // Served only.
    double submit_ms = 0;
    double queue_ms = 0;        ///< server-reported wait for a worker
    double decode_ms = 0;
    double check_start_ms = 0;  ///< elaborate called, after the grid's results arrived
    std::vector<std::uint8_t> blob;  ///< result blob, for the replay

    FlowSummary flow;
    double rr_nodes = 0, rr_edges = 0;
    SimOutcome sim;
};

struct Workload {
    std::string name;
    std::vector<DesignSpec> mix;  ///< in-process: job i compiles mix[i % mix.size()]
    cad::FlowOptions opts;        ///< in-process: knobs shared by every job (seed set per job)
    std::size_t jobs = 0;         ///< in-process: jobs per pass
    std::size_t rounds = 0;       ///< served: rounds of the traffic per pass
    std::size_t tokens = 0;       ///< post-route tokens per job
};

/// A run makes one pass over its job list per kPassSeconds of --seconds,
/// and at least two; each workload's pass takes about 7 s on the reference
/// box. Identical work that far apart meets different host load, so each
/// job's fastest execution filters out the load's swings.
constexpr double kPassSeconds = 8.0;

int pass_count(double seconds) {
    return std::max(2, static_cast<int>(seconds / kPassSeconds));
}

/// Fold one execution of a job into the job's record. The first execution
/// sets it; every later one must reproduce its outputs (result blob,
/// wirelength, simulated events and token period), and the fastest passing
/// execution supplies the timings.
void fold(JobRecord& rec, JobRecord run) {
    if (rec.runs == 0) {
        run.runs = 1;
        run.failed_runs = run.ok ? 0 : 1;
        rec = std::move(run);
        return;
    }
    ++rec.runs;
    if (run.ok && rec.ok &&
        (run.blob != rec.blob || run.flow.wirelength != rec.flow.wirelength ||
         run.sim.events != rec.sim.events || run.sim.period_ps != rec.sim.period_ps)) {
        run.ok = false;
        run.error = rec.design + ": outputs differ between passes";
    }
    if (!run.ok) {
        ++rec.failed_runs;
        if (rec.ok) {
            rec.ok = false;
            rec.error = run.error;
        }
        return;
    }
    if (rec.ok && run.latency_ms < rec.latency_ms) {
        run.runs = rec.runs;
        run.failed_runs = rec.failed_runs;
        rec = std::move(run);
    }
}

constexpr std::uint64_t kFlowStream = 1;
constexpr std::uint64_t kStimStream = 2;
constexpr std::uint64_t kSetupStream = 3;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
    return base::Rng::derive_seed(base::Rng::derive_seed(seed, stream), i);
}

unsigned nproc() {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

/// One in-process job: run_flow, elaborate the bitstream, stream tokens.
JobRecord run_local_job(const Workload& w, const Design& d, std::uint64_t flow_seed,
                        std::uint64_t stim_seed) {
    JobRecord rec;
    rec.design = d.name;
    cad::FlowOptions opts = w.opts;
    opts.seed = flow_seed;
    rec.start_ms = now_ms();
    try {
        const cad::FlowResult fr = cad::run_flow(d.nl, d.hints, d.arch, opts);
        const double t1 = now_ms();
        const core::ElaboratedDesign impl = fr.elaborate();
        const double t2 = now_ms();
        rec.sim = check_post_route(d, impl, w.tokens, stim_seed);
        const double t3 = now_ms();
        rec.flow_ms = t1 - rec.start_ms;
        rec.check_start_ms = t1;
        rec.elaborate_ms = t2 - t1;
        rec.sim_ms = t3 - t2;
        rec.latency_ms = t3 - rec.start_ms;
        rec.flow = summarize(fr.telemetry);
        rec.rr_nodes = static_cast<double>(fr.rr->num_nodes());
        rec.rr_edges = static_cast<double>(fr.rr->num_edges());
        rec.ok = true;
    } catch (const std::exception& e) {
        rec.error = e.what();
    }
    return rec;
}

/// The outcome of one workload run.
struct RunOutput {
    std::vector<std::string> design_names;  ///< for the per-design table
    std::vector<JobRecord> jobs;            ///< one record per job, by index
    std::vector<double> setup_s;            ///< one entry per pass
    std::vector<double> pass_s;             ///< wall of each pass's timed part
    double replay_s = 0;                    ///< wall of the served replay (untimed oracle)
    double rss_mb = 0;                      ///< peak RSS after the last pass
    bool served = false;
    std::uint64_t artifact_hits = 0, artifact_misses = 0;  ///< summed over passes
    unsigned load_threads = 1, service_threads = 0;
};

/// In-process workloads: one closed-loop thread. Each pass sets up from
/// scratch, then runs every job of the list once.
RunOutput run_inprocess(const Workload& w, std::uint64_t seed, int passes) {
    RunOutput out;
    out.jobs.resize(w.jobs);
    for (int p = 0; p < passes; ++p) {
        // Set-up: generate the designs and compile+check each once.
        const double s0 = now_ms();
        std::vector<Design> designs;
        for (const DesignSpec& s : w.mix) designs.push_back(make_design(s));
        for (std::size_t k = 0; k < designs.size(); ++k) {
            const JobRecord warm = run_local_job(w, designs[k], stream_seed(seed, kSetupStream, k),
                                                 stream_seed(seed, kSetupStream, k));
            base::check(warm.ok, "warm-up job failed: " + warm.error);
        }
        out.setup_s.push_back((now_ms() - s0) / 1000.0);
        const double t0 = now_ms();
        for (std::size_t i = 0; i < w.jobs; ++i) {
            JobRecord run = run_local_job(w, designs[i % designs.size()],
                                          stream_seed(seed, kFlowStream, i),
                                          stream_seed(seed, kStimStream, i));
            run.index = i;
            fold(out.jobs[i], std::move(run));
        }
        out.pass_s.push_back((now_ms() - t0) / 1000.0);
        if (p == 0)
            for (const Design& d : designs) out.design_names.push_back(d.name);
    }
    out.rss_mb = peak_rss_mb();
    return out;
}

// ---------------------------------------------------------------------------
// The served workload
// ---------------------------------------------------------------------------

/// One request as an existing run_grid caller submits it.
struct ServedRequest {
    std::size_t design = 0;   ///< index into ServedTraffic::designs
    std::uint64_t seed = 1;   ///< the caller's FlowOptions::seed
    double pde_margin = 1.0;  ///< the caller's FlowOptions::pde_extra_margin
};

/// One grid a caller submits at once (eval::run_grid, RemoteBatchRunner).
struct Grid {
    std::string caller;
    std::vector<ServedRequest> requests;
};

/// The served traffic: the grids the repository's run_grid callers submit
/// (bench/tab_filling_ratio, bench/abl_im_topology, bench/abl_pde_resolution,
/// bench/ext_throughput, and bench/ext_baseline_lut4 through
/// eval::compare_designs), with their designs, architectures and options.
/// Cells that fail are left out, because every job the benchmark runs must
/// pass its check: abl_im_topology's depleted IM topologies (they are
/// unmappable or unroutable), abl_pde_resolution's thin-margin and
/// out-of-range PDE points (they corrupt sums or are rejected), and
/// tab_filling_ratio's 8-bit micropipeline adder (see below). Repeats
/// inside and across grids (one design compiled by several callers, one
/// techmap shared by a seed sweep) are the callers' own, so the store's
/// hits and misses follow from them.
struct ServedTraffic {
    std::vector<Design> designs;
    std::vector<Grid> grids;
    std::vector<ServedRequest> flat;  ///< one round's requests in submit order
};

ServedTraffic make_served_traffic() {
    ServedTraffic t;
    // The callers' fabric: paper_arch() widened to 12x12 with 16 tracks.
    auto design = [&t](Kind kind, std::size_t bits, std::size_t depth) {
        Design d = make_design({kind, bits, depth, 12, 16});
        for (std::size_t i = 0; i < t.designs.size(); ++i)
            if (t.designs[i].name == d.name) return i;
        t.designs.push_back(std::move(d));
        return t.designs.size() - 1;
    };
    Grid tab{"tab_filling_ratio", {}};
    for (std::size_t n : {1, 2, 4, 8}) {
        tab.requests.push_back({design(Kind::QdiAdder, n, 0)});
        // Left out at 8 bits: with the default PDE margin its bundling
        // check fails after routing for about 1 seed in 120.
        if (n < 8) tab.requests.push_back({design(Kind::MpAdder, n, 0)});
    }
    for (std::size_t depth : {2, 4}) {
        tab.requests.push_back({design(Kind::WchbFifo, 4, depth)});
        tab.requests.push_back({design(Kind::MpFifo, 4, depth)});
        tab.requests.push_back({design(Kind::MousetrapFifo, 4, depth)});
    }
    Grid im{"abl_im_topology", {}};  // its full-crossbar column, seeds 1..5
    using Im = std::tuple<Kind, std::size_t, std::size_t>;
    for (const auto& [kind, bits, depth] :
         {Im{Kind::QdiAdder, 2, 0}, Im{Kind::MpAdder, 2, 0}, Im{Kind::WchbFifo, 2, 2}})
        for (std::uint64_t s = 1; s <= 5; ++s)
            im.requests.push_back({design(kind, bits, depth), s});
    Grid pde{"abl_pde_resolution", {}};  // its passing points, on paper_arch()
    using Pde = std::tuple<std::int64_t, std::uint32_t, double>;
    for (const auto& [quantum, taps, margin] : {Pde{250, 32, 1.0}, Pde{500, 16, 1.0},
                                                Pde{1000, 8, 1.0}, Pde{2000, 4, 0.0},
                                                Pde{125, 64, 1.0}}) {
        Design d = make_design({Kind::MpAdder, 4, 0, 8, 12});
        d.arch.pde_quantum_ps = quantum;
        d.arch.pde_taps = taps;
        d.name += "/pde" + std::to_string(quantum) + "x" + std::to_string(taps);
        t.designs.push_back(std::move(d));
        pde.requests.push_back({t.designs.size() - 1, 1, margin});
    }
    Grid thr{"ext_throughput", {}};
    for (std::size_t depth : {2, 4, 8}) {
        thr.requests.push_back({design(Kind::WchbFifo, 4, depth)});
        thr.requests.push_back({design(Kind::MpFifo, 4, depth)});
    }
    Grid lut4{"ext_baseline_lut4", {}};
    lut4.requests = {{design(Kind::QdiAdder, 1, 0)},
                     {design(Kind::QdiAdder, 4, 0)},
                     {design(Kind::MpAdder, 4, 0)},
                     {design(Kind::WchbFifo, 4, 4)},
                     {design(Kind::MpFifo, 4, 4)}};
    t.grids = {tab, im, pde, thr, lut4};
    for (const Grid& g : t.grids) t.flat.insert(t.flat.end(), g.requests.begin(), g.requests.end());
    return t;
}

/// Round r replays every grid as a caller with its own seed would: each
/// caller seed s becomes derive_seed(base, s), so requests that share a seed
/// inside a round still share it, and rounds differ from each other.
cad::FlowOptions served_options(const ServedRequest& q, std::uint64_t round_base) {
    cad::FlowOptions o;  // the callers pass default options
    o.seed = base::Rng::derive_seed(round_base, q.seed);
    o.pde_extra_margin = q.pde_margin;
    // Explicit, and what the defaults do: no placement race, serial router.
    o.place.threads = 1;
    o.route.threads = 0;
    return o;
}

using RRByArch = std::map<std::uint64_t, std::shared_ptr<const core::RRGraph>>;

/// Submit every grid of one round as eval::run_grid and RemoteBatchRunner
/// do (the whole grid, then the results in order), then check each result
/// post-route against the client's copy of its RR graph.
std::vector<JobRecord> run_round(cad::FlowClient& client, const Workload& w,
                                 const ServedTraffic& t, const RRByArch& rrs,
                                 std::uint64_t round_base, std::uint64_t first_index,
                                 std::uint64_t stim_base) {
    std::vector<JobRecord> recs(t.flat.size());
    std::vector<std::optional<cad::BitstreamArtifact>> arts(t.flat.size());
    for (std::size_t k = 0; k < recs.size(); ++k) {
        recs[k].index = first_index + k;
        recs[k].design = t.designs[t.flat[k].design].name;
    }
    std::size_t first = 0;
    for (const Grid& g : t.grids) {
        const std::size_t end = first + g.requests.size();
        std::vector<std::uint64_t> ids;
        try {
            for (std::size_t k = first; k < end; ++k) {
                const Design& d = t.designs[t.flat[k].design];
                cad::RemoteJobSpec spec;
                spec.name = g.caller + "/" + d.name;
                spec.nl = &d.nl;
                spec.hints = &d.hints;
                spec.arch = d.arch;
                spec.opts = served_options(t.flat[k], round_base);
                recs[k].start_ms = now_ms();
                ids.push_back(client.submit(spec));
                recs[k].submit_ms = now_ms() - recs[k].start_ms;
            }
            for (std::size_t k = first; k < end; ++k) {
                JobRecord& rec = recs[k];
                cad::RemoteFlowResult r = client.wait(ids[k - first]);
                if (!r.ok()) {
                    rec.error = "served job failed: " + r.error;
                    continue;
                }
                const double t2 = now_ms();
                try {
                    arts[k] = r.decode_bitstream();
                } catch (const std::exception& e) {
                    rec.error = std::string("result does not decode: ") + e.what();
                    continue;
                }
                const double t3 = now_ms();
                rec.decode_ms = t3 - t2;
                rec.latency_ms = t3 - rec.start_ms;
                rec.queue_ms = r.queue_ms;
                rec.flow_ms = r.wall_ms;
                rec.flow = summarize(parse_telemetry(r.telemetry_json));
                rec.blob = std::move(r.result_blob);
            }
        } catch (const std::exception& e) {
            // A transport failure: the grid's unfinished jobs count as failed.
            for (std::size_t k = first; k < end; ++k)
                if (recs[k].error.empty() && recs[k].blob.empty())
                    recs[k].error = std::string("transport: ") + e.what();
        }
        first = end;
    }
    for (std::size_t k = 0; k < recs.size(); ++k) {
        JobRecord& rec = recs[k];
        if (rec.blob.empty()) continue;
        const Design& d = t.designs[t.flat[k].design];
        const core::RRGraph& rr = *rrs.at(d.arch.fingerprint());
        try {
            rec.check_start_ms = now_ms();
            const core::ElaboratedDesign impl =
                core::elaborate(rr, arts[k]->bits, arts[k]->pad_names);
            const double t4 = now_ms();
            rec.elaborate_ms = t4 - rec.check_start_ms;
            rec.sim = check_post_route(d, impl, w.tokens, base::Rng::derive_seed(stim_base, k));
            rec.sim_ms = now_ms() - t4;
            rec.rr_nodes = static_cast<double>(rr.num_nodes());
            rec.rr_edges = static_cast<double>(rr.num_edges());
            rec.ok = true;
        } catch (const std::exception& e) {
            rec.error = e.what();
        }
    }
    return recs;
}

/// Untimed oracle for the served path: every distinct request compiles
/// again through in-process run_flow (no artifact store) and its encoded
/// bitstream must be byte-identical to what the server streamed.
void replay_served(const ServedTraffic& t, const RRByArch& rrs, std::uint64_t seed,
                   std::vector<JobRecord>& jobs, unsigned threads) {
    const std::size_t per_round = t.flat.size();
    auto request_of = [&](const JobRecord& j) {
        const ServedRequest& q = t.flat[j.index % per_round];
        return std::pair{q, served_options(q, stream_seed(seed, kFlowStream, j.index / per_round))};
    };
    std::map<std::tuple<std::size_t, std::uint64_t, double>, std::vector<JobRecord*>> by_key;
    for (JobRecord& j : jobs) {
        if (!j.ok) continue;
        const auto [q, o] = request_of(j);
        by_key[{q.design, o.seed, o.pde_extra_margin}].push_back(&j);
    }
    std::vector<std::vector<JobRecord*>*> groups;
    for (auto& [k, g] : by_key) groups.push_back(&g);

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t gi = next++; gi < groups.size(); gi = next++) {
            std::vector<JobRecord*>& g = *groups[gi];
            auto [q, o] = request_of(*g.front());
            const Design& d = t.designs[q.design];
            std::vector<std::uint8_t> local_blob;
            std::string error = "served bitstream differs from in-process run_flow";
            try {
                o.prebuilt_rr = rrs.at(d.arch.fingerprint());
                const cad::FlowResult local = cad::run_flow(d.nl, d.hints, d.arch, o);
                local_blob = cad::ArtifactCodec<cad::BitstreamArtifact>::encode_blob(
                    cad::BitstreamArtifact{*local.bits, local.pad_names});
            } catch (const std::exception& e) {
                error = std::string("in-process replay failed: ") + e.what();
            }
            // fold() made every execution of a job stream this same blob.
            for (JobRecord* j : g) {
                if (local_blob.empty() || j->blob != local_blob) {
                    j->ok = false;
                    j->failed_runs = j->runs;
                    j->error = d.name + ": " + error;
                }
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
}

/// The served workload: each pass boots a fresh server (an empty store, so
/// every pass does the same work), then two closed-loop clients share the
/// pass's rounds.
RunOutput run_served(const Workload& w, std::uint64_t seed, int passes) {
    RunOutput out;
    out.served = true;
    const unsigned cores = nproc();
    out.load_threads = std::min(2u, cores);
    out.service_threads = std::min(2u, cores);
    // Relative, so it stays short of the sun_path limit in any checkout.
    const std::string sock = "afpga_bench_" + std::to_string(::getpid()) + ".sock";

    ServedTraffic traffic;
    RRByArch rrs;
    for (int p = 0; p < passes; ++p) {
        // Set-up: generate the designs, boot the server, build the RR graph
        // of every architecture, and replay one round with set-up seeds.
        const double s0 = now_ms();
        traffic = make_served_traffic();
        rrs.clear();
        cad::FlowServerOptions so;
        so.unix_path = sock;
        so.service.threads = out.service_threads;
        cad::FlowServer server(std::move(so));
        server.start();
        for (const Design& d : traffic.designs)
            if (!rrs.count(d.arch.fingerprint()))
                rrs[d.arch.fingerprint()] = server.service().prewarm_rr(d.arch);
        {
            cad::FlowClient client = cad::FlowClient::connect_unix(sock, "setup");
            for (const JobRecord& warm : run_round(client, w, traffic, rrs,
                                                   stream_seed(seed, kSetupStream, 0), 0,
                                                   stream_seed(seed, kSetupStream, 1)))
                base::check(warm.ok, "warm-up request failed: " + warm.error);
        }
        out.setup_s.push_back((now_ms() - s0) / 1000.0);

        const std::size_t per_round = traffic.flat.size();
        out.jobs.resize(w.rounds * per_round);
        const cad::ArtifactStoreStats before = server.service().store().stats();
        std::atomic<std::size_t> next_round{0};
        std::mutex mu;  // guards out.jobs and client_error
        std::string client_error;
        const double t0 = now_ms();
        auto client_loop = [&](unsigned c) {
            try {
                cad::FlowClient client =
                    cad::FlowClient::connect_unix(sock, "bench_" + std::to_string(c));
                for (std::size_t r = next_round++; r < w.rounds; r = next_round++) {
                    std::vector<JobRecord> recs =
                        run_round(client, w, traffic, rrs, stream_seed(seed, kFlowStream, r),
                                  r * per_round, stream_seed(seed, kStimStream, r));
                    std::lock_guard<std::mutex> lock(mu);
                    for (JobRecord& rec : recs) {
                        rec.thread = c;
                        fold(out.jobs[rec.index], std::move(rec));
                    }
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                client_error = e.what();
            }
        };
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < out.load_threads; ++c) clients.emplace_back(client_loop, c);
        for (auto& th : clients) th.join();
        base::check(client_error.empty(), "client failed: " + client_error);
        out.pass_s.push_back((now_ms() - t0) / 1000.0);
        const cad::ArtifactStoreStats after = server.service().store().stats();
        out.artifact_hits += after.hits + after.disk_hits - before.hits - before.disk_hits;
        out.artifact_misses += after.misses - before.misses;
        server.drain();
        server.wait_drained();
        server.stop();
    }
    out.rss_mb = peak_rss_mb();
    for (const Design& d : traffic.designs) out.design_names.push_back(d.name);

    const double replay0 = now_ms();
    replay_served(traffic, rrs, seed, out.jobs, std::min(4u, cores));
    out.replay_s = (now_ms() - replay0) / 1000.0;
    return out;
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"adder_anneal", "fifo_multilevel", "styles_stream",
                                  "served_sweep"};

Workload make_workload(const std::string& name, bool smoke) {
    Workload w;
    w.name = name;
    // Every thread count is explicit: nothing falls back to AFPGA_THREADS.
    w.opts.place.threads = 1;
    w.opts.route.threads = 0;
    // Each in-process mix has five equally drawn designs, so the latency
    // median and p90 fall inside one design's samples instead of on the
    // seam between two designs, where they would jump with every seed. At
    // least 100 jobs per pass leave 10 samples beyond p90; the sizes keep a
    // pass near 7 s.
    if (name == "adder_anneal") {
        // The default user path: QDI ripple adders, annealer, serial router.
        for (std::size_t n : {2, 3, 4, 6, 8})
            w.mix.push_back({Kind::QdiAdder, n, 0, static_cast<std::uint32_t>(8 + n), 16});
        w.jobs = 100;
        w.tokens = 16;
    } else if (name == "fifo_multilevel") {
        // Cluster-heavy WCHB FIFOs: pack, multilevel place and elaborate
        // dominate; route runs the partitioned router.
        w.mix = {{Kind::WchbFifo, 4, 12, 12, 20},
                 {Kind::WchbFifo, 8, 8, 12, 20},
                 {Kind::WchbFifo, 8, 12, 14, 20},
                 {Kind::WchbFifo, 8, 16, 16, 20},
                 {Kind::WchbFifo, 8, 24, 18, 20}};
        w.opts.place.algorithm = cad::PlaceAlgorithm::Multilevel;
        w.opts.route.threads = std::min(2u, nproc());
        w.jobs = 100;
        w.tokens = 16;
    } else if (name == "styles_stream") {
        // The paper's multi-style claim: every style on one small fabric,
        // long post-route token streams (the event simulator dominates).
        w.mix = {{Kind::QdiAdder, 4, 0, 12, 16},
                 {Kind::MpAdder, 4, 0, 12, 16},
                 {Kind::WchbFifo, 4, 8, 12, 16},
                 {Kind::MpFifo, 4, 8, 12, 16},
                 {Kind::MousetrapFifo, 4, 8, 12, 16}};
        w.jobs = 100;
        w.tokens = 1000;
    } else if (name == "served_sweep") {
        // The served path: the repository's own run_grid sweeps through a
        // FlowServer (see make_served_traffic), 44 requests a round.
        w.rounds = 12;
        w.tokens = 16;
    } else {
        base::fail("unknown workload " + name);
    }
    if (smoke) {
        w.jobs = w.mix.size();
        w.rounds = std::min<std::size_t>(w.rounds, 1);
        w.tokens = std::min<std::size_t>(w.tokens, 16);
    }
    return w;
}

// ---------------------------------------------------------------------------
// Metrics, spans and reports
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

std::vector<const JobRecord*> ok_jobs(const RunOutput& run) {
    std::vector<const JobRecord*> v;
    for (const JobRecord& j : run.jobs)
        if (j.ok) v.push_back(&j);
    return v;
}

std::size_t attempted(const RunOutput& run) {
    std::size_t n = 0;
    for (const JobRecord& j : run.jobs) n += j.runs;
    return n;
}

std::size_t failed(const RunOutput& run) {
    std::size_t n = 0;
    for (const JobRecord& j : run.jobs) n += j.failed_runs;
    return n;
}

/// Timings come from each job's fastest execution; the deterministic
/// metrics are the same in every execution.
std::vector<Metric> end_to_end(const RunOutput& run) {
    const auto ok = ok_jobs(run);
    std::vector<double> lat;
    double tokens = 0, sim_ms = 0, log_period = 0, wirelength = 0;
    for (const JobRecord* j : ok) {
        lat.push_back(j->latency_ms);
        tokens += static_cast<double>(j->sim.tokens);
        sim_ms += j->sim.run_ms;
        log_period += std::log(j->sim.period_ps);
        wirelength += j->flow.wirelength;
    }
    const double n_ok = static_cast<double>(std::max<std::size_t>(ok.size(), 1));
    const double fastest_pass_s =
        run.pass_s.empty() ? 0.0 : *std::min_element(run.pass_s.begin(), run.pass_s.end());
    const double tried = static_cast<double>(attempted(run));
    return {
        {"setup_s", median(run.setup_s), "s"},
        {"latency_p50_ms", percentile(lat, 0.50), "ms"},
        {"latency_p90_ms", percentile(lat, 0.90), "ms"},
        {"jobs_per_s", ratio(static_cast<double>(run.jobs.size()), fastest_pass_s), "1/s"},
        {"sim_tokens_per_s", ratio(tokens, sim_ms / 1000.0), "1/s"},
        {"token_period_ps", std::exp(log_period / n_ok), "ps"},
        {"wirelength", wirelength, "wires"},
        {"peak_rss_mb", run.rss_mb, "MB"},
        {"passed_frac", ratio(tried - static_cast<double>(failed(run)), tried), "ratio"},
    };
}

/// One span of the rebuilt trace: a call the benchmark made, or a stage
/// rebuilt from the walls run_flow reported.
struct Span {
    std::string name;
    double start_ms = 0, dur_ms = 0;
    int parent = -1;
    unsigned tid = 0;
    std::uint64_t job = 0;
    std::vector<std::pair<std::string, double>> args;
};

class Trace {
public:
    int add(std::string name, double start, double dur, int parent, const JobRecord& j,
            std::vector<std::pair<std::string, double>> args = {}) {
        if (parent >= 0) {
            // Rebuilt spans never poke out of their parent.
            const Span& p = spans_[static_cast<std::size_t>(parent)];
            start = std::clamp(start, p.start_ms, p.start_ms + p.dur_ms);
            dur = std::clamp(dur, 0.0, p.start_ms + p.dur_ms - start);
        }
        spans_.push_back({std::move(name), start, dur, parent, j.thread, j.index, std::move(args)});
        return static_cast<int>(spans_.size()) - 1;
    }

    /// Stages rebuilt end to end from the StageReport walls, starting at
    /// the run_flow span's start; route gets rrgraph and search children.
    void add_stages(int flow_span, const JobRecord& j) {
        const FlowSummary& f = j.flow;
        double t = spans_[static_cast<std::size_t>(flow_span)].start_ms;
        add("techmap", t, f.techmap_ms, flow_span, j);
        t += f.techmap_ms;
        add("pack", t, f.pack_ms, flow_span, j, {{"clusters", f.clusters}});
        t += f.pack_ms;
        add("place", t, f.place_ms, flow_span, j,
            {{"moves_tried", f.moves_tried},
             {"moves_accepted", f.moves_accepted},
             {"solver_iterations", f.solver_iterations},
             {"cost", f.place_cost}});
        t += f.place_ms;
        const int route = add("route", t, f.route_ms, flow_span, j,
                              {{"iterations", f.route_iterations},
                               {"nets", f.nets},
                               {"nets_rerouted", f.nets_rerouted},
                               {"heap_pops", f.heap_pops},
                               {"nodes_expanded", f.nodes_expanded},
                               {"edges_scanned", f.edges_scanned},
                               {"wirelength", f.wirelength}});
        add("rrgraph", t, f.rr_ms, route, j, {{"nodes", j.rr_nodes}, {"edges", j.rr_edges}});
        add("route.search", t + f.rr_ms, f.search_ms, route, j);
        t += f.route_ms;
        add("bitstream", t, f.bitstream_ms, flow_span, j, {{"switches_on", f.switches_on}});
    }

    void add_check(double start, int parent, const JobRecord& j) {
        add("elaborate", start, j.elaborate_ms, parent, j);
        add("sim", start + j.elaborate_ms, j.sim_ms, parent, j,
            {{"tokens", static_cast<double>(j.sim.tokens)},
             {"events", static_cast<double>(j.sim.events)},
             {"period_ps", j.sim.period_ps}});
    }

    /// In-process: the job is run_flow | elaborate | sim. Served: the job is
    /// submit | queue | run_flow | wait | decode, with the server's queue and
    /// wall placed after the submit; its post-route check runs once the
    /// grid's results are in and gets a root span of its own.
    void add_job(const JobRecord& j, bool served) {
        const int root = add("job", j.start_ms, j.latency_ms, -1, j, {{"latency_ms", j.latency_ms}});
        if (!served) {
            add_stages(add("run_flow", j.start_ms, j.flow_ms, root, j), j);
            add_check(j.check_start_ms, root, j);
            return;
        }
        double t = j.start_ms;
        add("submit", t, j.submit_ms, root, j);
        t += j.submit_ms;
        add("flow_service.queue", t, j.queue_ms, root, j);
        t += j.queue_ms;
        add_stages(add("run_flow", t, j.flow_ms, root, j), j);
        t += j.flow_ms;
        const double decode_start = j.start_ms + j.latency_ms - j.decode_ms;
        add("wait", t, decode_start - t, root, j);
        add("decode", decode_start, j.decode_ms, root, j,
            {{"bytes", static_cast<double>(j.blob.size())}});
        add_check(j.check_start_ms,
                  add("check", j.check_start_ms, j.elaborate_ms + j.sim_ms, -1, j), j);
    }

    /// Self time per span name: duration minus what its children cover.
    [[nodiscard]] std::vector<std::pair<std::string, double>> self_times() const {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ms;
        for (const Span& s : spans_)
            if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ms;
        std::vector<std::pair<std::string, double>> table;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto it = std::find_if(table.begin(), table.end(),
                                   [&](const auto& e) { return e.first == spans_[i].name; });
            if (it == table.end()) {
                table.emplace_back(spans_[i].name, 0.0);
                it = table.end() - 1;
            }
            it->second += std::max(0.0, self[i]);
        }
        return table;
    }

    [[nodiscard]] std::string chrome_json() const {
        base::JsonWriter w;
        w.begin_object();
        w.key("displayTimeUnit").value("ms");
        w.key("traceEvents").begin_array();
        for (const Span& s : spans_) {
            w.begin_object();
            w.key("name").value(s.name);
            w.key("ph").value("X");
            w.key("ts").raw(num(s.start_ms * 1000.0));
            w.key("dur").raw(num(s.dur_ms * 1000.0));
            w.key("pid").value(1);
            w.key("tid").value(static_cast<std::uint64_t>(s.tid));
            w.key("args").begin_object();
            w.key("job").value(s.job);
            for (const auto& [k, v] : s.args) w.key(k).raw(num(v));
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        return w.str();
    }

private:
    std::vector<Span> spans_;
};

std::vector<Metric> per_layer(const RunOutput& run) {
    const auto ok = ok_jobs(run);
    const double n_ok = static_cast<double>(std::max<std::size_t>(ok.size(), 1));
    const double passes = static_cast<double>(std::max<std::size_t>(run.pass_s.size(), 1));
    auto sum = [&](auto field) {
        double s = 0;
        for (const JobRecord* j : ok) s += field(*j);
        return s;
    };
    auto mean = [&](auto field) { return sum(field) / n_ok; };
    // Service, store and wire exist only on the served path; the in-process
    // workloads report 0 for them.
    auto served = [&run](double v) { return run.served ? v : 0.0; };
    const double sim_events = sum([](const JobRecord& j) { return double(j.sim.events); });
    return {
        {"techmap.ms", mean([](const JobRecord& j) { return j.flow.techmap_ms; }), "ms"},
        {"pack.ms", mean([](const JobRecord& j) { return j.flow.pack_ms; }), "ms"},
        {"pack.clusters", mean([](const JobRecord& j) { return j.flow.clusters; }), "count"},
        {"place.ms", mean([](const JobRecord& j) { return j.flow.place_ms; }), "ms"},
        {"place.moves_tried", mean([](const JobRecord& j) { return j.flow.moves_tried; }),
         "count"},
        {"place.accept_ratio",
         ratio(sum([](const JobRecord& j) { return j.flow.moves_accepted; }),
               sum([](const JobRecord& j) { return j.flow.moves_tried; })),
         "ratio"},
        {"place.solver_iterations",
         mean([](const JobRecord& j) { return j.flow.solver_iterations; }), "count"},
        {"place.cost", mean([](const JobRecord& j) { return j.flow.place_cost; }), "hpwl"},
        {"rrgraph.ms", mean([](const JobRecord& j) { return j.flow.rr_ms; }), "ms"},
        {"rrgraph.nodes", mean([](const JobRecord& j) { return j.rr_nodes; }), "count"},
        {"rrgraph.edges", mean([](const JobRecord& j) { return j.rr_edges; }), "count"},
        {"route.ms", mean([](const JobRecord& j) { return j.flow.route_ms; }), "ms"},
        {"route.search_ms", mean([](const JobRecord& j) { return j.flow.search_ms; }), "ms"},
        {"route.iterations", mean([](const JobRecord& j) { return j.flow.route_iterations; }),
         "count"},
        {"route.reroute_ratio",
         ratio(sum([](const JobRecord& j) { return j.flow.nets_rerouted; }),
               sum([](const JobRecord& j) { return j.flow.nets; })),
         "ratio"},
        {"route.heap_pops", mean([](const JobRecord& j) { return j.flow.heap_pops; }), "count"},
        {"route.nodes_expanded", mean([](const JobRecord& j) { return j.flow.nodes_expanded; }),
         "count"},
        {"route.edges_scanned", mean([](const JobRecord& j) { return j.flow.edges_scanned; }),
         "count"},
        {"route.stale_pop_ratio",
         1.0 - ratio(sum([](const JobRecord& j) { return j.flow.nodes_expanded; }),
                     sum([](const JobRecord& j) { return j.flow.heap_pops; })),
         "ratio"},
        {"bitstream.ms", mean([](const JobRecord& j) { return j.flow.bitstream_ms; }), "ms"},
        {"bitstream.switches_on", mean([](const JobRecord& j) { return j.flow.switches_on; }),
         "count"},
        {"elaborate.ms", mean([](const JobRecord& j) { return j.elaborate_ms; }), "ms"},
        {"sim.ms", mean([](const JobRecord& j) { return j.sim_ms; }), "ms"},
        {"sim.events", sim_events / n_ok, "count"},
        {"sim.events_per_token",
         ratio(sim_events, sum([](const JobRecord& j) { return double(j.sim.tokens); })),
         "count"},
        {"sim.events_per_s",
         ratio(sim_events, sum([](const JobRecord& j) { return j.sim.run_ms; }) / 1000.0), "1/s"},
        // Per pass: every pass starts from an empty store.
        {"artifact.hits", static_cast<double>(run.artifact_hits) / passes, "count"},
        {"artifact.misses", static_cast<double>(run.artifact_misses) / passes, "count"},
        {"artifact.hit_ratio",
         ratio(static_cast<double>(run.artifact_hits),
               static_cast<double>(run.artifact_hits + run.artifact_misses)),
         "ratio"},
        {"flow_service.queue_ms", served(mean([](const JobRecord& j) { return j.queue_ms; })),
         "ms"},
        {"flow_service.wall_ms", served(mean([](const JobRecord& j) { return j.flow_ms; })),
         "ms"},
        // Client latency beyond the server's queue and wall: submit, result
        // streaming (behind earlier jobs of the grid, collected in order)
        // and decode.
        {"wire.ms",
         served(mean([](const JobRecord& j) { return j.latency_ms - j.queue_ms - j.flow_ms; })),
         "ms"},
        {"wire.result_bytes", mean([](const JobRecord& j) { return double(j.blob.size()); }),
         "bytes"},
    };
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 24;
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "afpga_bench: %s\nusage: afpga_bench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--out DIR] [--commit SHA]\nworkloads: adder_anneal "
                 "fifo_multilevel styles_stream served_sweep\n",
                 why);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v != "0";
        else if (k == "--out")
            a.out = v;
        else if (k == "--commit")
            a.commit = v;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
        std::end(kWorkloads))
        usage("--workload must name one workload");
    if (a.smoke) a.seconds = 0;
    return a;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream f(path);
    f << text << "\n";
    base::check(static_cast<bool>(f), "cannot write " + path);
}

void json_metrics(base::JsonWriter& w, const std::vector<Metric>& ms) {
    w.begin_object();
    for (const Metric& m : ms) {
        w.key(m.name).begin_object();
        w.key("value").raw(num(m.value));
        w.key("unit").value(m.unit);
        w.end_object();
    }
    w.end_object();
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
    std::printf("%s:\n", title);
    for (const Metric& m : ms)
        std::printf("  %-24s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int run_benchmark(const Args& args) {
    const Workload w = make_workload(args.workload, args.smoke);
    const int passes = pass_count(args.seconds);
    RunOutput run = w.name == "served_sweep" ? run_served(w, args.seed, passes)
                                             : run_inprocess(w, args.seed, passes);

    std::vector<std::string> errors;
    for (const JobRecord& j : run.jobs)
        if (!j.ok && errors.size() < 5)
            errors.push_back("job " + std::to_string(j.index) + ": " + j.error);
    const std::size_t n_attempted = attempted(run);
    const std::size_t n_failed = failed(run);
    const bool correct = n_failed == 0 && n_attempted == run.jobs.size() * run.pass_s.size();

    Trace trace;
    for (const JobRecord* j : ok_jobs(run)) trace.add_job(*j, run.served);
    const auto self = trace.self_times();
    double job_ms = 0, job_self_ms = 0;
    for (const JobRecord* j : ok_jobs(run)) job_ms += j->latency_ms;
    for (const auto& [name, ms] : self)
        if (name == "job") job_self_ms = ms;
    const double coverage = 1.0 - ratio(job_self_ms, job_ms);
    const double n_ok = static_cast<double>(std::max<std::size_t>(ok_jobs(run).size(), 1));

    const std::vector<Metric> e2e = end_to_end(run);
    const std::vector<Metric> layers = per_layer(run);

    std::printf("workload %s  seed %llu  jobs %zu x %zu passes  failed %zu  pass walls",
                w.name.c_str(), static_cast<unsigned long long>(args.seed), run.jobs.size(),
                run.pass_s.size(), n_failed);
    for (double s : run.pass_s) std::printf(" %.1f", s);
    std::printf(" s  replay %.1f s  threads: load %u, service %u, nproc %u\n", run.replay_s,
                run.load_threads, run.service_threads, nproc());
    for (const std::string& e : errors) std::printf("  FAILED: %s\n", e.c_str());
    std::printf("per design: %-18s %5s %12s %12s %12s\n", "", "jobs", "p50 ms", "wirelength",
                "period ps");
    for (const std::string& name : run.design_names) {
        std::vector<double> lat;
        double wl = 0, period = 0;
        for (const JobRecord* j : ok_jobs(run)) {
            if (j->design != name) continue;
            lat.push_back(j->latency_ms);
            wl += j->flow.wirelength;
            period += j->sim.period_ps;
        }
        const double n = static_cast<double>(std::max<std::size_t>(lat.size(), 1));
        std::printf("  %-28s %5zu %12.2f %12.1f %12.1f\n", name.c_str(), lat.size(),
                    percentile(lat, 0.5), wl / n, period / n);
    }
    std::printf("latency samples n=%zu, each a job's fastest of %zu executions\n",
                ok_jobs(run).size(), run.pass_s.size());
    print_metrics("end-to-end", e2e);
    print_metrics("per layer", layers);
    std::printf("self time per job (span minus children), share of job latency:\n");
    for (const auto& [name, ms] : self)
        std::printf("  %-20s %10.3f ms  %5.1f%%\n", name.c_str(), ms / n_ok,
                    100.0 * ratio(ms, job_ms));
    std::printf("layer self times cover %.1f%% of job latency\n", 100.0 * coverage);

    if (!args.out.empty()) {
        std::filesystem::create_directories(args.out);
        base::JsonWriter r;
        r.begin_object();
        r.key("workload").value(w.name);
        r.key("smoke").value(args.smoke);
        r.key("context").begin_object();
        r.key("nproc").value(static_cast<std::uint64_t>(nproc()));
        r.key("hardware_concurrency")
            .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
        r.key("compiler").value(AFPGA_BENCH_COMPILER);
        r.key("build_type").value(AFPGA_BENCH_BUILD_TYPE);
        r.key("commit").value(args.commit);
        r.key("seed").value(args.seed);
        r.key("seconds").raw(num(args.seconds));
        r.key("jobs").value(static_cast<std::uint64_t>(run.jobs.size()));
        r.key("passes").value(static_cast<std::uint64_t>(run.pass_s.size()));
        r.key("load_threads").value(static_cast<std::uint64_t>(run.load_threads));
        r.key("service_threads").value(static_cast<std::uint64_t>(run.service_threads));
        r.end_object();
        r.key("correct").value(correct);
        r.key("attempted").value(static_cast<std::uint64_t>(n_attempted));
        r.key("failed").value(static_cast<std::uint64_t>(n_failed));
        r.key("errors").begin_array();
        for (const std::string& e : errors) r.value(e);
        r.end_array();
        r.key("metrics");
        json_metrics(r, e2e);
        r.key("per_layer");
        json_metrics(r, layers);
        r.key("self_ms_per_job").begin_object();
        for (const auto& [name, ms] : self) r.key(name).raw(num(ms / n_ok));
        r.end_object();
        r.key("self_time_coverage").raw(num(coverage));
        r.end_object();
        const std::string stem = args.out + "/" + w.name;
        write_file(stem + ".json", r.str());
        write_file(stem + ".trace.json", trace.chrome_json());
    }

    base::JsonWriter s;
    s.begin_object();
    s.key("correct").value(correct);
    s.key("attempted").value(static_cast<std::uint64_t>(n_attempted));
    s.key("failed").value(static_cast<std::uint64_t>(n_failed));
    s.key("metrics");
    json_metrics(s, args.trace ? layers : e2e);
    s.end_object();
    std::printf("%s\n", s.str().c_str());
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    try {
        return run_benchmark(args);
    } catch (const std::exception& e) {
        // A broken set-up (a warm-up job, a server or client that will not
        // start): no summary line, because nothing was measured.
        std::fprintf(stderr, "afpga_bench: %s\n", e.what());
        return 1;
    }
}
