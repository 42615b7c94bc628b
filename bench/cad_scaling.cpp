// CAD flow scaling sweep: the parallel and cached paths of the flow across
// thread counts and fabric sizes, written to BENCH_flow.json.
//
// Tiers, in output order:
//  - parallel_route (gated): the partitioned PathFinder at threads
//    0/1/2/4/8, with the bitstream bit-identical at every point;
//  - route_kernel (gated): the search kernel's bitstream against a recorded
//    golden at every thread count, its counters and steady-state growth;
//  - rr_build (gated): parallel RR-graph construction against the serial
//    build, lookahead table included;
//  - artifact_cache (gated): disk-warm restart and a tight-budget soak of
//    the two-tier artifact store;
//  - placer_scale (gated): the multilevel V-cycle against its own flat,
//    single-level schedule (`max_levels = 0`);
//  - flow_server (gated): concurrent clients through the socket front-end:
//    p50/p95/p99 submit->result latency, throughput, Busy backpressure, bit
//    identity against in-process run_flow and the result codec's share of
//    the flow's wall.
//
// Every gated tier publishes `gates: {name: {value, threshold, ok}}` and a
// `gate_ok` conjunction; the bench exits non-zero when any gate fails.
//
// Usage: cad_scaling [--smoke] [--reps N] [--out FILE]
//   --smoke   only the smallest fabric and thread counts {1,2}, one rep
//   --reps N  repetitions per configuration, best time kept (default 2)
//   --out     output path (default BENCH_flow.json in the cwd)
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/bitvector.hpp"
#include "base/json.hpp"
#include "base/threadpool.hpp"
#include "base/timer.hpp"
#include "cad/flow.hpp"
#include "cad/flow_client.hpp"
#include "cad/flow_server.hpp"
#include "cad/flow_service.hpp"
#include "cad/serialize.hpp"
#include "cad/pack.hpp"
#include "cad/place_model.hpp"
#include "cad/place_multilevel.hpp"
#include "cad/techmap.hpp"
#include "eval/sweep.hpp"

using namespace afpga;

namespace {

struct SweepPoint {
    std::size_t adder_bits;
    std::uint32_t fabric;         // width == height
    std::uint32_t channel_width;
};

struct RunResult {
    double total_ms = 1e18;
    cad::FlowResult fr;  // of the best rep
};

/// One tier's pass/fail checks, written as
/// `"gates": {name: {"value", "threshold", "ok"}}` plus their conjunction
/// `"gate_ok"`. A yes/no check records its flag as `value` against a
/// `threshold` of true; a measured check records the number and the bound
/// it was held to, with the comparison its name states.
class Gates {
public:
    /// A flag that must be true.
    void require(std::string name, bool value) {
        gates_.push_back({std::move(name), value, true, value});
    }
    /// A measured value held against `threshold`; `ok` is the verdict.
    void check(std::string name, double value, double threshold, bool ok) {
        gates_.push_back({std::move(name), value, threshold, ok});
    }

    [[nodiscard]] bool ok() const {
        return std::all_of(gates_.begin(), gates_.end(), [](const Gate& g) { return g.ok; });
    }

    void write(base::JsonWriter& w) const {
        w.key("gates").begin_object();
        for (const Gate& g : gates_) {
            w.key(g.name).begin_object();
            w.key("value");
            std::visit([&](auto v) { w.value(v); }, g.value);
            w.key("threshold");
            std::visit([&](auto v) { w.value(v); }, g.threshold);
            w.key("ok").value(g.ok);
            w.end_object();
        }
        w.end_object();
        w.key("gate_ok").value(ok());
    }

    /// Name every failed gate on stderr; returns ok().
    bool report(const char* tier) const {
        for (const Gate& g : gates_)
            if (!g.ok)
                std::fprintf(stderr, "cad_scaling: %s gate '%s' failed\n", tier, g.name.c_str());
        return ok();
    }

private:
    struct Gate {
        std::string name;
        std::variant<bool, double> value;
        std::variant<bool, double> threshold;
        bool ok;
    };
    std::vector<Gate> gates_;
};

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    int reps = 2;
    std::string out_path = "BENCH_flow.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::max(1, std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: cad_scaling [--smoke] [--reps N] [--out FILE]\n");
            return 2;
        }
    }
    if (smoke) reps = 1;
    // The routed design of the parallel_route and route_kernel tiers.
    const SweepPoint routed = smoke ? SweepPoint{4, 10, 12} : SweepPoint{24, 24, 16};

    base::JsonWriter w;
    w.begin_object();
    w.key("bench").value("cad_scaling");
    w.key("reps").value(reps);
    // Machine-detectable parallelism context: every thread-sweep speedup in
    // this file is only meaningful when the hardware actually has that many
    // cores. Consumers should compare each sweep's thread count against
    // hardware_concurrency instead of trusting a prose footnote.
    const unsigned hw_threads = std::thread::hardware_concurrency();
    w.key("hardware_concurrency").value(std::uint64_t{hw_threads});
    w.key("effective_workers")
        .value(std::uint64_t{base::ThreadPool::default_workers()});

    // --- parallel subsystem sweep: thread counts 1/2/4/8 ----------------------
    std::vector<unsigned> thread_counts{1, 2, 4, 8};
    if (smoke) thread_counts = {1, 2};
    if (hw_threads != 0 && thread_counts.back() > hw_threads)
        std::fprintf(stderr,
                     "cad_scaling: WARNING: sweeping up to %u threads on %u hardware "
                     "threads — oversubscribed points only time-slice, treat their "
                     "speedups as noise\n",
                     thread_counts.back(), hw_threads);

    // parallel_route: deterministic in-flow parallel routing. The routed
    // design runs with the partitioned PathFinder at threads = 0 (on the
    // calling thread, the scaling baseline) and then at growing worker
    // counts; the bitstream must be bit-identical at every point (that is
    // the router's core guarantee, gated), so wall clock is the only moving
    // number.
    Gates parallel_route_gates;
    std::vector<unsigned> route_thread_counts{0};
    route_thread_counts.insert(route_thread_counts.end(), thread_counts.begin(),
                               thread_counts.end());
    {
        const SweepPoint& pt = routed;
        auto adder = asynclib::make_qdi_adder(pt.adder_bits);
        core::ArchSpec arch;
        arch.width = pt.fabric;
        arch.height = pt.fabric;
        arch.channel_width = pt.channel_width;

        auto route_stage_ms = [](const cad::FlowResult& fr) {
            const cad::StageReport* s = fr.telemetry.stage("route");
            return s ? s->wall_ms : 0.0;
        };

        double baseline_ms = 0.0;
        base::BitVector ref_bits;
        w.key("parallel_route").begin_object();
        w.key("points").begin_array();
        for (unsigned t : route_thread_counts) {
            cad::FlowOptions popts;
            popts.seed = 7;
            popts.route.threads = t;
            double best_ms = 1e18;
            cad::FlowResult best_fr;
            for (int r = 0; r < reps; ++r) {
                auto fr = cad::run_flow(adder.nl, adder.hints, arch, popts);
                const double ms = route_stage_ms(fr);
                if (ms < best_ms) {
                    best_ms = ms;
                    best_fr = std::move(fr);
                }
            }
            const base::BitVector bits = best_fr.bits->serialize();
            bool qor_identical = true;
            if (t == route_thread_counts.front()) {
                baseline_ms = best_ms;
                ref_bits = bits;
            } else {
                qor_identical = bits == ref_bits;
            }
            const double speedup = baseline_ms / best_ms;
            const cad::StageReport* s = best_fr.telemetry.stage("route");
            const double* bins = s ? s->metric("route_bins") : nullptr;
            const double* boundary = s ? s->metric("route_boundary_nets") : nullptr;
            const double* rr_ms = s ? s->metric("rr_build_ms") : nullptr;
            std::printf("parallel_route qdi_adder_%zu on %ux%u: %u threads: route stage "
                        "%.1f ms (%.2fx vs threads=0), bins %.0f, boundary nets %.0f, "
                        "qor_identical=%d\n",
                        pt.adder_bits, pt.fabric, pt.fabric, t, best_ms, speedup,
                        bins ? *bins : 0.0, boundary ? *boundary : 0.0, qor_identical);
            w.begin_object();
            w.key("threads").value(std::uint64_t{t});
            w.key("route_stage_ms").value(best_ms);
            w.key("speedup_vs_1_thread").value(speedup);
            w.key("rr_build_ms").value(rr_ms ? *rr_ms : 0.0);
            w.key("bins").value(bins ? *bins : 0.0);
            w.key("boundary_nets").value(boundary ? *boundary : 0.0);
            w.key("wirelength").value(std::uint64_t{best_fr.routing.wirelength});
            w.key("route_iterations").value(best_fr.routing.iterations);
            // Kernel counters: decision-deterministic, so identical at every
            // thread count — BENCH_flow.json tracks expansions/net over time.
            const cad::RouteKernelStats& ks = best_fr.routing.kernel;
            w.key("kernel_heap_pushes").value(ks.heap_pushes);
            w.key("kernel_heap_pops").value(ks.heap_pops);
            w.key("kernel_nodes_expanded").value(ks.nodes_expanded);
            w.key("kernel_edges_scanned").value(ks.edges_scanned);
            w.key("kernel_wavefront_peak").value(ks.wavefront_peak);
            w.key("kernel_expansions_per_net")
                .value(ks.nets_routed > 0 ? static_cast<double>(ks.nodes_expanded) /
                                                static_cast<double>(ks.nets_routed)
                                          : 0.0);
            w.key("qor_identical").value(qor_identical);
            w.end_object();
            if (t != route_thread_counts.front())
                parallel_route_gates.require("qor_identical at " + std::to_string(t) + " threads",
                                             qor_identical);
        }
        w.end_array();
        parallel_route_gates.write(w);
        w.end_object();
    }

    // route_kernel: the search kernel on the routed design. Its gates: the
    // bitstream's CRC-32 at threads = 0 and at every thread count must equal
    // the golden (re-recorded when the search gained the RR-graph lookahead,
    // which moved its routing decisions); the kernel counters must show that
    // it ran; and zero steady-state heap growth (after the first PathFinder
    // iteration every scratch buffer has reached capacity — an exact count
    // at threads = 0, where the router runs without a pool).
    Gates route_kernel_gates;
    {
        const SweepPoint& pt = routed;
        auto adder = asynclib::make_qdi_adder(pt.adder_bits);
        core::ArchSpec arch;
        arch.width = pt.fabric;
        arch.height = pt.fabric;
        arch.channel_width = pt.channel_width;
        const std::uint32_t golden_crc = smoke ? 0x483530C1u : 0xCCA19420u;

        // Best-of-`n` route-stage wall at `threads`.
        auto best_flow = [&](unsigned threads, int n) {
            cad::FlowOptions opts;
            opts.seed = 7;
            opts.route.threads = threads;
            RunResult best;
            for (int r = 0; r < n; ++r) {
                auto fr = cad::run_flow(adder.nl, adder.hints, arch, opts);
                const cad::StageReport* s = fr.telemetry.stage("route");
                const double ms = s ? s->wall_ms : 0.0;
                if (ms < best.total_ms) {
                    best.total_ms = ms;
                    best.fr = std::move(fr);
                }
            }
            return best;
        };

        // threads = 0 is timed best-of-reps and supplies the published
        // counters; the thread matrix only has to match the golden.
        RunResult pooled;
        bool bit_identical = true;
        for (unsigned t : route_thread_counts) {
            RunResult fr = best_flow(t, t == 0 ? reps : 1);
            const std::uint32_t crc = fr.fr.bits->serialize().crc32();
            if (crc != golden_crc) {
                std::fprintf(stderr,
                             "route_kernel: bitstream CRC-32 0x%08X at %u threads, golden "
                             "0x%08X\n",
                             crc, t, golden_crc);
                bit_identical = false;
            }
            if (t == 0) pooled = std::move(fr);
        }

        const cad::RouteKernelStats& ks = pooled.fr.routing.kernel;
        Gates& g = route_kernel_gates;
        g.require("bit_identical", bit_identical);
        g.check("kernel ran (heap_pops > 0)", static_cast<double>(ks.heap_pops), 0,
                ks.heap_pops > 0);
        g.check("pushes >= pops", static_cast<double>(ks.heap_pushes),
                static_cast<double>(ks.heap_pops), ks.heap_pushes >= ks.heap_pops);
        g.check("nodes expanded", static_cast<double>(ks.nodes_expanded), 0,
                ks.nodes_expanded > 0);
        g.check("wavefront observed", static_cast<double>(ks.wavefront_peak), 0,
                ks.wavefront_peak > 0);
        g.check("zero steady-state allocations", static_cast<double>(ks.steady_allocations),
                0, ks.steady_allocations == 0);

        std::printf("route_kernel qdi_adder_%zu on %ux%u cw=%u: %.1f ms, pops %llu, "
                    "expanded %llu, wavefront peak %llu, steady allocs %llu, "
                    "bit_identical=%d -> gate %s\n",
                    pt.adder_bits, pt.fabric, pt.fabric, pt.channel_width, pooled.total_ms,
                    static_cast<unsigned long long>(ks.heap_pops),
                    static_cast<unsigned long long>(ks.nodes_expanded),
                    static_cast<unsigned long long>(ks.wavefront_peak),
                    static_cast<unsigned long long>(ks.steady_allocations),
                    bit_identical, g.ok() ? "ok" : "VIOLATED");

        w.key("route_kernel").begin_object();
        w.key("design").value("qdi_adder_" + std::to_string(pt.adder_bits));
        w.key("fabric").value(std::to_string(pt.fabric) + "x" + std::to_string(pt.fabric));
        w.key("channel_width").value(std::uint64_t{pt.channel_width});
        w.key("pooled_route_ms").value(pooled.total_ms);
        w.key("bit_identical").value(bit_identical);
        w.key("heap_pushes").value(ks.heap_pushes);
        w.key("heap_pops").value(ks.heap_pops);
        w.key("nodes_expanded").value(ks.nodes_expanded);
        w.key("edges_scanned").value(ks.edges_scanned);
        w.key("wavefront_peak").value(ks.wavefront_peak);
        w.key("allocations").value(ks.allocations);
        w.key("steady_allocations").value(ks.steady_allocations);
        g.write(w);
        w.end_object();
    }

    // rr_build: parallel RR-graph construction. A fabric larger than the
    // routed design (the graph is the flow's biggest single
    // allocation) is built serially and then on pools of growing size; the
    // content fingerprint (nodes, edges and the lookahead table) must match
    // the serial build's at every pool size.
    Gates rr_build_gates;
    {
        core::ArchSpec arch;
        arch.width = arch.height = smoke ? 16 : 48;
        arch.channel_width = smoke ? 12 : 24;

        double serial_ms = 1e18;
        std::uint64_t serial_fp = 0;
        for (int r = 0; r < reps; ++r) {
            base::WallTimer timer;
            const core::RRGraph rr(arch);
            serial_ms = std::min(serial_ms, timer.elapsed_ms());
            serial_fp = rr.content_fingerprint();
        }

        w.key("rr_build").begin_object();
        w.key("points").begin_array();
        for (unsigned t : thread_counts) {
            base::ThreadPool pool(t);
            double best_ms = 1e18;
            bool identical = true;
            std::size_t nodes = 0;
            std::size_t edges = 0;
            for (int r = 0; r < reps; ++r) {
                base::WallTimer timer;
                const core::RRGraph rr(arch, pool);
                best_ms = std::min(best_ms, timer.elapsed_ms());
                identical = identical && rr.content_fingerprint() == serial_fp;
                nodes = rr.num_nodes();
                edges = rr.num_edges();
            }
            const double speedup = serial_ms / best_ms;
            std::printf("rr_build %ux%u cw=%u (%zu nodes, %zu edges): %u threads: "
                        "%.1f ms (%.2fx vs serial %.1f ms), identical=%d\n",
                        arch.width, arch.height, arch.channel_width, nodes, edges, t,
                        best_ms, speedup, serial_ms, identical);
            w.begin_object();
            w.key("threads").value(std::uint64_t{t});
            w.key("fabric").value(std::to_string(arch.width) + "x" + std::to_string(arch.height));
            w.key("channel_width").value(std::uint64_t{arch.channel_width});
            w.key("nodes").value(std::uint64_t{nodes});
            w.key("edges").value(std::uint64_t{edges});
            w.key("wall_ms").value(best_ms);
            w.key("serial_ms").value(serial_ms);
            w.key("speedup_vs_serial").value(speedup);
            w.key("fingerprint_identical").value(identical);
            w.end_object();
            rr_build_gates.require("fingerprint_identical at " + std::to_string(t) + " threads",
                                   identical);
        }
        w.end_array();
        rr_build_gates.write(w);
        w.end_object();
    }

    // artifact_cache: the two-tier artifact cache. Its gates:
    //  (a) disk-warm restart — a service populates a cache directory, dies,
    //      and a fresh service over the same directory must restore every
    //      stage from disk and produce bit-identical bitstreams;
    //  (b) cache soak — the same grid under a tiny memory budget must never
    //      let the resident tier exceed its cap, must actually evict, and
    //      must still be bit-identical.
    Gates cache_gates;
    {
        const std::size_t bits = smoke ? 4 : 8;
        auto adder = asynclib::make_qdi_adder(bits);
        core::ArchSpec arch;
        arch.width = arch.height = smoke ? 10 : 14;
        arch.channel_width = smoke ? 12 : 14;

        namespace fs = std::filesystem;
        const fs::path cache_dir = "bench_artifact_cache";
        fs::remove_all(cache_dir);

        const std::vector<std::uint64_t> seeds{1, 2, 3};
        auto make_jobs = [&]() {
            std::vector<cad::FlowJob> jobs;
            for (std::uint64_t seed : seeds) {
                cad::FlowJob j;
                j.name = "qdi_adder_" + std::to_string(bits) + "_s" + std::to_string(seed);
                j.nl = &adder.nl;
                j.hints = &adder.hints;
                j.arch = arch;
                j.opts.seed = seed;
                jobs.push_back(std::move(j));
            }
            return jobs;
        };

        // (a) Cold service populates the directory...
        std::vector<base::BitVector> cold_bits;
        double cold_ms = 0.0;
        std::uint64_t disk_writes = 0;
        {
            cad::FlowServiceOptions so;
            so.artifact_cache_dir = cache_dir.string();
            cad::FlowService svc(so);
            base::WallTimer t;
            const auto results = eval::run_grid(svc, make_jobs());
            cold_ms = t.elapsed_ms();
            for (const auto* r : results) cold_bits.push_back(r->result.bits->serialize());
            disk_writes = svc.store().stats().disk_writes;
        }  // ...and dies here: only the blobs survive the "restart".

        double disk_warm_ms = 0.0;
        std::uint64_t disk_hits = 0;
        bool warm_bit_identical = true;
        bool nothing_recomputed = true;
        std::uint64_t stages_from_disk = 0;
        {
            cad::FlowServiceOptions so;
            so.artifact_cache_dir = cache_dir.string();
            cad::FlowService svc(so);
            base::WallTimer t;
            const auto results = eval::run_grid(svc, make_jobs());
            disk_warm_ms = t.elapsed_ms();
            for (std::size_t i = 0; i < results.size(); ++i) {
                warm_bit_identical = warm_bit_identical && results[i]->ok() &&
                                     results[i]->result.bits->serialize() == cold_bits[i];
                // Every stage must be a cache hit. Which tier served it is
                // schedule-dependent (an artifact one job restored from disk
                // serves its sibling jobs from memory), but with a fresh
                // service nothing can be a memory hit that was not first a
                // disk restore — so all-hits + disk_hits > 0 proves the
                // restart path.
                for (const auto& s : results[i]->result.telemetry.stages) {
                    nothing_recomputed = nothing_recomputed && s.cache_hit == 1;
                    if (s.metric("restored_from_disk")) ++stages_from_disk;
                }
            }
            disk_hits = svc.store().stats().disk_hits;
        }

        // (b) Cache soak: jobs run one at a time under a tight budget, the
        // resident tier is sampled after every job.
        const std::size_t budget = 16 * 1024;
        std::size_t max_resident = 0;
        std::uint64_t evictions = 0;
        bool soak_bit_identical = true;
        {
            cad::FlowServiceOptions so;
            so.artifact_memory_budget_bytes = budget;
            so.artifact_cache_dir = cache_dir.string();
            cad::FlowService svc(so);
            auto jobs = make_jobs();
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const auto id = svc.submit(std::move(jobs[i]));
                const cad::FlowJobResult& r = svc.wait(id);
                soak_bit_identical = soak_bit_identical && r.ok() &&
                                     r.result.bits->serialize() == cold_bits[i];
                max_resident = std::max(max_resident, svc.store().stats().resident_bytes);
            }
            evictions = svc.store().stats().evictions;
        }
        fs::remove_all(cache_dir);

        const bool cap_ok = max_resident <= budget;
        Gates& g = cache_gates;
        g.require("disk_warm_bit_identical", warm_bit_identical);
        g.require("nothing_recomputed", nothing_recomputed);
        g.check("disk_hits > 0", static_cast<double>(disk_hits), 0, disk_hits > 0);
        g.require("soak_cap_ok", cap_ok);
        g.check("max_resident <= budget", static_cast<double>(max_resident),
                static_cast<double>(budget), cap_ok);
        g.check("soak_evictions > 0", static_cast<double>(evictions), 0, evictions > 0);
        g.require("soak_bit_identical", soak_bit_identical);
        std::printf("artifact_cache: cold %.1f ms, disk-warm restart %.1f ms (%.2fx), "
                    "%llu blobs written, %llu disk hits, warm_identical=%d "
                    "nothing_recomputed=%d; soak: budget %zu B, max resident %zu B, "
                    "%llu evictions, soak_identical=%d -> gate %s\n",
                    cold_ms, disk_warm_ms, disk_warm_ms > 0 ? cold_ms / disk_warm_ms : 0.0,
                    static_cast<unsigned long long>(disk_writes),
                    static_cast<unsigned long long>(disk_hits), warm_bit_identical,
                    nothing_recomputed, budget, max_resident,
                    static_cast<unsigned long long>(evictions), soak_bit_identical,
                    g.ok() ? "ok" : "VIOLATED");

        w.key("artifact_cache").begin_object();
        w.key("jobs").value(std::uint64_t{seeds.size()});
        w.key("cold_grid_ms").value(cold_ms);
        w.key("disk_warm_grid_ms").value(disk_warm_ms);
        w.key("disk_warm_speedup").value(disk_warm_ms > 0 ? cold_ms / disk_warm_ms : 0.0);
        w.key("disk_writes").value(disk_writes);
        w.key("disk_hits").value(disk_hits);
        w.key("disk_warm_bit_identical").value(warm_bit_identical);
        w.key("nothing_recomputed").value(nothing_recomputed);
        w.key("stages_restored_from_disk").value(stages_from_disk);
        w.key("soak_budget_bytes").value(std::uint64_t{budget});
        w.key("soak_max_resident_bytes").value(std::uint64_t{max_resident});
        w.key("soak_evictions").value(evictions);
        w.key("soak_bit_identical").value(soak_bit_identical);
        g.write(w);
        w.end_object();
    }

    // placer_scale: global-placement scaling — the multilevel V-cycle's reason to
    // exist. Subject: the *global* stage, run two ways by
    // place_multilevel_global: the default V-cycle ("multilevel") and the
    // flat, single-level schedule it degenerates to with `max_levels = 0`
    // ("flat": the full solve+spread schedule at netlist size). Each call
    // already produces a complete legal placement (legalized clusters +
    // refined pads) and the cost engine over it, whose total is the
    // legalized cost; the driver's polish/detailed-refinement pipeline
    // downstream is the same for both, so including it would only dilute
    // the comparison with shared work. Fixture: deep WCHB FIFOs —
    // cluster-dominated designs (a handful of I/Os, thousands of clusters)
    // where the flat schedule's per-pass spreading, not the solve, bounds
    // the wall. Three threshold gates:
    //  (a) 60x60 head-to-head: the V-cycle must be >= 3x faster than the
    //      flat schedule at <= +2% legalized cost. Both runs are strictly
    //      serial, so the ratio is meaningful on one core; both costs are
    //      deterministic, so the QoR half of the gate is noise-free.
    //  (b) scaling envelope: at 100x100 (~2.1x the clusters) the V-cycle
    //      wall must stay within 5x of its own 60x60 wall.
    //  (c) the flat schedule must blow that envelope at 100x100: its
    //      projected wall — the measured wall scaled by the width ratio,
    //      because the spreading pass count still has to grow ~linearly
    //      with fabric width for displacement-bounded convergence — must
    //      exceed the budget. In practice even its unscaled measured wall
    //      does.
    // In --smoke the fixtures shrink to toys (the asymptotic gap cannot
    // show) and these three are exempt (ok whatever the value); the gates
    // that every schedule ran and did solver work hold at every size.
    Gates placer_gates;
    {
        struct ScalePoint {
            std::size_t fifo_bits;
            std::size_t fifo_depth;
            std::uint32_t fabric;
        };
        const ScalePoint p60 = smoke ? ScalePoint{8, 12, 16} : ScalePoint{24, 140, 60};
        const ScalePoint p100 = smoke ? ScalePoint{8, 16, 20} : ScalePoint{24, 290, 100};

        struct EngineRun {
            double ms = 1e18;
            cad::AnalyticalResult res;
        };
        struct ScaleRun {
            std::size_t clusters = 0;
            std::size_t ios = 0;
            EngineRun flat;
            EngineRun multi;
        };
        auto measure = [&](const ScalePoint& sp) {
            auto fifo = asynclib::make_wchb_fifo(sp.fifo_bits, sp.fifo_depth);
            core::ArchSpec arch;
            arch.width = arch.height = sp.fabric;
            arch.channel_width = 16;
            const auto md = cad::techmap(fifo.nl, fifo.hints);
            const auto pd = cad::pack(md, arch);
            const cad::PlaceModel model(pd, md, arch);
            cad::PlaceOptions po;
            po.seed = 7;
            cad::PlaceOptions flat_po = po;
            flat_po.max_levels = 0;
            ScaleRun out;
            out.clusters = pd.clusters.size();
            out.ios = model.io_entity_ids.size();
            // Interleave the reps so both schedules sample the same slice
            // of machine noise — the ratio is much steadier than with
            // back-to-back blocks.
            for (int r = 0; r < reps; ++r) {
                {
                    base::WallTimer t;
                    auto res = cad::place_multilevel_global(model, flat_po, flat_po.seed);
                    const double ms = t.elapsed_ms();
                    if (ms < out.flat.ms) {
                        out.flat.ms = ms;
                        out.flat.res = std::move(res);
                    }
                }
                {
                    base::WallTimer t;
                    auto res = cad::place_multilevel_global(model, po, po.seed);
                    const double ms = t.elapsed_ms();
                    if (ms < out.multi.ms) {
                        out.multi.ms = ms;
                        out.multi.res = std::move(res);
                    }
                }
            }
            return out;
        };

        const ScaleRun a = measure(p60);
        const ScaleRun b = measure(p100);

        const double speedup60 = a.multi.ms > 0 ? a.flat.ms / a.multi.ms : 0.0;
        const double qor60 =
            a.flat.res.stats.legalized_cost > 0
                ? a.multi.res.stats.legalized_cost / a.flat.res.stats.legalized_cost
                : 0.0;
        const double qor100 =
            b.flat.res.stats.legalized_cost > 0
                ? b.multi.res.stats.legalized_cost / b.flat.res.stats.legalized_cost
                : 0.0;
        const double budget_ms = 5.0 * a.multi.ms;
        const double width_ratio =
            static_cast<double>(p100.fabric) / static_cast<double>(p60.fabric);
        const double flat100_projected_ms = b.flat.ms * width_ratio;
        const auto& levels = b.multi.res.stats.levels;
        double min_level_iters = 0.0;
        if (!levels.empty())
            min_level_iters = static_cast<double>(
                std::min_element(levels.begin(), levels.end(), [](const auto& x, const auto& y) {
                    return x.solver_iterations < y.solver_iterations;
                })->solver_iterations);
        Gates& g = placer_gates;
        g.check("flat ran at 60", a.flat.ms, 0, a.flat.ms > 0);
        g.check("multilevel ran at 60", a.multi.ms, 0, a.multi.ms > 0);
        g.check("multilevel ran at 100", b.multi.ms, 0, b.multi.ms > 0);
        g.check("flat ran at 100", b.flat.ms, 0, b.flat.ms > 0);
        g.check("qor ratio computed", qor60, 0, qor60 > 0);
        g.check("budget computed", budget_ms, 0, budget_ms > 0);
        g.check("levels reported", static_cast<double>(levels.size()), 1, !levels.empty());
        g.check("levels did solver work", min_level_iters, 0,
                levels.empty() || min_level_iters > 0);
        const bool speed_ok = smoke || speedup60 >= 3.0;
        const bool qor_ok = smoke || qor60 <= 1.02;
        const bool envelope_ok = smoke || b.multi.ms <= budget_ms;
        const bool flat_blows_ok = smoke || flat100_projected_ms > budget_ms;
        g.check("speed_ok", speedup60, 3.0, speed_ok);
        g.check("qor_ok", qor60, 1.02, qor_ok);
        g.check("envelope_ok", b.multi.ms, budget_ms, envelope_ok);
        g.check("flat_blows_budget", flat100_projected_ms, budget_ms, flat_blows_ok);

        std::printf("placer_scale: wchb_fifo_%zux%zu on %ux%u (n=%zu, io=%zu): "
                    "flat %.1f ms cost %.1f | multilevel %.1f ms cost %.1f "
                    "(%zu levels) -> %.2fx, qor %.4f -> speed_ok=%d qor_ok=%d\n",
                    p60.fifo_bits, p60.fifo_depth, p60.fabric, p60.fabric, a.clusters,
                    a.ios, a.flat.ms, a.flat.res.stats.legalized_cost, a.multi.ms,
                    a.multi.res.stats.legalized_cost, a.multi.res.stats.levels.size(),
                    speedup60, qor60, speed_ok, qor_ok);
        std::printf("placer_scale: wchb_fifo_%zux%zu on %ux%u (n=%zu, budget %.1f ms): "
                    "multilevel %.1f ms cost %.1f qor %.4f | flat %.1f ms -> "
                    "projected %.1f ms -> envelope_ok=%d flat_blows_budget=%d\n",
                    p100.fifo_bits, p100.fifo_depth, p100.fabric, p100.fabric,
                    b.clusters, budget_ms, b.multi.ms,
                    b.multi.res.stats.legalized_cost, qor100, b.flat.ms,
                    flat100_projected_ms, envelope_ok, flat_blows_ok);

        w.key("placer_scale").begin_object();
        w.key("fixture_60").value("wchb_fifo_" + std::to_string(p60.fifo_bits) + "x" +
                                  std::to_string(p60.fifo_depth));
        w.key("fabric_60").value(std::to_string(p60.fabric) + "x" +
                                 std::to_string(p60.fabric));
        w.key("clusters_60").value(std::uint64_t{a.clusters});
        w.key("ios_60").value(std::uint64_t{a.ios});
        w.key("flat_ms_60").value(a.flat.ms);
        w.key("flat_cost_60").value(a.flat.res.stats.legalized_cost);
        w.key("multilevel_ms_60").value(a.multi.ms);
        w.key("multilevel_cost_60").value(a.multi.res.stats.legalized_cost);
        w.key("speedup_60").value(speedup60);
        w.key("qor_ratio_60").value(qor60);
        w.key("fixture_100").value("wchb_fifo_" + std::to_string(p100.fifo_bits) + "x" +
                                   std::to_string(p100.fifo_depth));
        w.key("fabric_100").value(std::to_string(p100.fabric) + "x" +
                                  std::to_string(p100.fabric));
        w.key("clusters_100").value(std::uint64_t{b.clusters});
        w.key("ios_100").value(std::uint64_t{b.ios});
        w.key("budget_ms").value(budget_ms);
        w.key("multilevel_ms_100").value(b.multi.ms);
        w.key("multilevel_cost_100").value(b.multi.res.stats.legalized_cost);
        w.key("qor_ratio_100").value(qor100);
        w.key("flat_ms_100").value(b.flat.ms);
        w.key("flat_projected_ms_100").value(flat100_projected_ms);
        // Per-level telemetry of the 100x100 V-cycle (coarsest first) — the
        // same LevelStats the place StageReport carries.
        w.key("levels_100").begin_array();
        for (const auto& lv : levels) {
            w.begin_object();
            w.key("nodes").value(lv.nodes);
            w.key("nets").value(lv.nets);
            w.key("solver_passes").value(lv.solver_passes);
            w.key("spread_passes").value(lv.spread_passes);
            w.key("solver_iterations").value(lv.solver_iterations);
            w.end_object();
        }
        w.end_array();
        g.write(w);
        w.end_object();
    }

    // ---- flow_server: the socket front-end under concurrent clients -------
    //
    // An in-process FlowServer on a Unix socket, a deliberately small queue
    // bound, and C client threads each pushing J compiles through the wire.
    // Gates: every remote result byte-identical to an in-process run_flow of
    // the same job, backpressure observed (a probe bounced at the bound,
    // Busy responses > 0, queue depth never above the bound), the protocol
    // clean (no errors), and the result codec cheap: the median
    // encode_blob + decode_blob of a job's bitstream at most kMaxCodecShare
    // of the median in-process run_flow of the same jobs (the encode runs on
    // the server's single I/O thread). Reports p50/p95/p99 submit->result
    // latency and end-to-end throughput.
    Gates server_gates;
    {
        constexpr double kMaxCodecShare = 0.10;
        const std::size_t n_clients = smoke ? 2 : 3;
        const std::size_t jobs_per_client = smoke ? 2 : 4;
        const std::uint32_t max_pending = 2;
        auto adder = asynclib::make_qdi_adder(4);
        core::ArchSpec arch;
        arch.width = arch.height = 10;
        arch.channel_width = 12;

        cad::FlowServerOptions so;
        so.unix_path = (std::filesystem::temp_directory_path() /
                        ("afpga_bench_" + std::to_string(::getpid()) + ".sock"))
                           .string();
        so.service.threads = 1;  // one worker: the queue must actually form
        so.max_pending = max_pending;
        so.retry_after_ms = 2;
        cad::FlowServer server(std::move(so));
        server.start();

        auto make_job = [&](std::uint64_t seed) {
            cad::RemoteJobSpec j;
            j.name = "bench_s" + std::to_string(seed);
            j.nl = &adder.nl;
            j.hints = &adder.hints;
            j.arch = arch;
            j.opts.seed = seed;
            return j;
        };

        // Backpressure probe (untimed): fill the paused queue to its bound,
        // demand a Busy bounce, then let the probes drain.
        bool bounced = false;
        {
            server.service().pause();
            cad::FlowClient probe = cad::FlowClient::connect_unix(server.unix_path(), "probe");
            std::vector<std::uint64_t> probe_ids;
            for (std::uint64_t s = 1; s <= max_pending; ++s) {
                const auto id = probe.try_submit(make_job(s));
                if (id) probe_ids.push_back(*id);
            }
            bounced = !probe.try_submit(make_job(max_pending + 1)).has_value();
            server.service().resume();
            for (const auto id : probe_ids) (void)probe.wait(id);
        }

        // Timed phase: every client runs submit -> wait back-to-back, riding
        // the Busy backoff exactly like afpga_client would.
        struct JobRecord {
            std::uint64_t seed = 0;
            double latency_ms = 0.0;
            std::vector<std::uint8_t> blob;
        };
        std::vector<std::vector<JobRecord>> per_client(n_clients);
        base::WallTimer phase_timer;
        {
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < n_clients; ++c) {
                threads.emplace_back([&, c] {
                    cad::FlowClient client =
                        cad::FlowClient::connect_unix(server.unix_path(), "bench_" + std::to_string(c));
                    for (std::size_t j = 0; j < jobs_per_client; ++j) {
                        const std::uint64_t seed = 100 + c * 10 + j;
                        base::WallTimer t;
                        const std::uint64_t id = client.submit(make_job(seed));
                        cad::RemoteFlowResult r = client.wait(id);
                        JobRecord rec;
                        rec.seed = seed;
                        rec.latency_ms = t.elapsed_ms();
                        rec.blob = std::move(r.result_blob);
                        per_client[c].push_back(std::move(rec));
                    }
                });
            }
            for (auto& t : threads) t.join();
        }
        const double phase_ms = phase_timer.elapsed_ms();
        server.drain();
        server.wait_drained();
        const cad::FlowServerStats st = server.stats();
        server.stop();

        // Bit-identity gate: replay every job in-process and compare blobs.
        // The replay also times the flow and the result codec (the server's
        // encode plus the client's decode) for the codec-share gate.
        using BlobCodec = cad::ArtifactCodec<cad::BitstreamArtifact>;
        bool bit_identical = true;
        std::vector<double> latencies;
        std::vector<double> flow_ms;
        std::vector<double> codec_ms;
        for (const auto& client_jobs : per_client) {
            for (const JobRecord& rec : client_jobs) {
                latencies.push_back(rec.latency_ms);
                cad::FlowOptions opts;
                opts.seed = rec.seed;
                base::WallTimer flow_timer;
                const cad::FlowResult local = cad::run_flow(adder.nl, adder.hints, arch, opts);
                flow_ms.push_back(flow_timer.elapsed_ms());
                const cad::BitstreamArtifact product{*local.bits, local.pad_names};
                base::WallTimer codec_timer;
                const auto local_blob = BlobCodec::encode_blob(product);
                (void)BlobCodec::decode_blob(rec.blob);
                codec_ms.push_back(codec_timer.elapsed_ms());
                if (rec.blob != local_blob) bit_identical = false;
            }
        }
        auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v.empty() ? 0.0 : v[v.size() / 2];
        };
        const double flow_median_ms = median(flow_ms);
        const double codec_median_ms = median(codec_ms);
        const double codec_share = flow_median_ms > 0 ? codec_median_ms / flow_median_ms : 1.0;
        std::sort(latencies.begin(), latencies.end());
        auto pct = [&](double q) {
            const std::size_t i =
                static_cast<std::size_t>(q * static_cast<double>(latencies.size() - 1));
            return latencies[i];
        };
        const std::size_t jobs_total = latencies.size();
        const double throughput = static_cast<double>(jobs_total) / (phase_ms / 1000.0);

        Gates& g = server_gates;
        g.check("jobs ran", static_cast<double>(jobs_total), 0, jobs_total > 0);
        g.check("all results streamed", static_cast<double>(st.results_streamed),
                static_cast<double>(jobs_total), st.results_streamed >= jobs_total);
        g.require("bit_identical", bit_identical);
        g.require("probe bounced at the queue bound", bounced);
        g.check("busy backpressure observed", static_cast<double>(st.submits_rejected_busy), 0,
                st.submits_rejected_busy > 0);
        g.check("queue bound held", static_cast<double>(st.max_queue_depth_observed),
                static_cast<double>(max_pending), st.max_queue_depth_observed <= max_pending);
        g.check("no protocol errors", static_cast<double>(st.protocol_errors), 0,
                st.protocol_errors == 0);
        g.require("latency percentiles ordered",
                  0 < pct(0.50) && pct(0.50) <= pct(0.95) && pct(0.95) <= pct(0.99));
        g.check("throughput computed", throughput, 0, throughput > 0);
        g.check("result codec share of flow", codec_share, kMaxCodecShare,
                codec_share <= kMaxCodecShare);

        std::printf("flow_server: %zu clients x %zu jobs: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, "
                    "%.1f jobs/s, %llu busy bounces, peak queue %llu, result codec %.3f ms "
                    "(%.1f%% of a %.2f ms flow) -> gate %s\n",
                    n_clients, jobs_per_client, pct(0.50), pct(0.95), pct(0.99), throughput,
                    static_cast<unsigned long long>(st.submits_rejected_busy),
                    static_cast<unsigned long long>(st.max_queue_depth_observed),
                    codec_median_ms, 100.0 * codec_share, flow_median_ms,
                    g.ok() ? "ok" : "VIOLATED");

        w.key("flow_server").begin_object();
        w.key("clients").value(std::uint64_t{n_clients});
        w.key("jobs_per_client").value(std::uint64_t{jobs_per_client});
        w.key("jobs_total").value(std::uint64_t{jobs_total});
        w.key("max_pending").value(std::uint64_t{max_pending});
        w.key("p50_ms").value(pct(0.50));
        w.key("p95_ms").value(pct(0.95));
        w.key("p99_ms").value(pct(0.99));
        w.key("throughput_jobs_per_s").value(throughput);
        w.key("busy_responses").value(st.submits_rejected_busy);
        w.key("submits_accepted").value(st.submits_accepted);
        w.key("results_streamed").value(st.results_streamed);
        w.key("max_queue_depth_observed").value(st.max_queue_depth_observed);
        w.key("max_outbound_bytes_observed").value(st.max_outbound_bytes_observed);
        w.key("protocol_errors").value(st.protocol_errors);
        w.key("bit_identical").value(bit_identical);
        w.key("flow_median_ms").value(flow_median_ms);
        w.key("codec_median_ms").value(codec_median_ms);
        w.key("codec_share").value(codec_share);
        g.write(w);
        w.end_object();
    }

    w.end_object();

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cad_scaling: cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << w.str() << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    // Every tier names its own failures, so none is short-circuited away.
    bool ok = parallel_route_gates.report("parallel_route");
    ok = route_kernel_gates.report("route_kernel") && ok;
    ok = rr_build_gates.report("rr_build") && ok;
    ok = cache_gates.report("artifact_cache") && ok;
    ok = placer_gates.report("placer_scale") && ok;
    ok = server_gates.report("flow_server") && ok;
    return ok ? 0 : 1;
}
