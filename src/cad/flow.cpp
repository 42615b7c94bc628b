#include "cad/flow.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "base/check.hpp"
#include "base/threadpool.hpp"
#include "base/timer.hpp"
#include "cad/artifact.hpp"
#include "cad/fingerprint.hpp"
#include "cad/serialize.hpp"
#include "cad/wire.hpp"

namespace afpga::cad {

using base::check;
using core::PlbCoord;

core::ElaboratedDesign FlowResult::elaborate() const {
    check(rr != nullptr && bits != nullptr, "FlowResult::elaborate: flow not run");
    return core::elaborate(*rr, *bits, pad_names);
}

namespace {

/// Everything one flow threads through its stages: the inputs, the
/// accumulating result, and the route stage's request list, which the
/// bitstream stage programs from. (The routing itself lives in
/// `result.routing`; `route.routing` is left empty.)
struct FlowContext {
    const netlist::Netlist& nl;           ///< the design being compiled
    const asynclib::MappingHints& hints;  ///< generator hints for techmap
    const core::ArchSpec& arch;           ///< target architecture
    const FlowOptions& opts;              ///< all stage knobs
    FlowResult& result;                   ///< accumulating products
    RouteArtifact route;                  ///< requests, sink clusters, signals
};

// Each stage is a Product type and three functions: `key` writes the bytes
// of every input the upstream key chain does not already cover, `compute`
// produces the product (reporting only what a restore cannot know, such as
// wall times), and `install` moves a product into the flow and reports it.
// run_stage feeds `install` from `compute` or from the artifact store alike,
// so a restored stage reports exactly what the run that published it did.

// ---------------------------------------------------------------------------
// Stage 1: technology mapping
// ---------------------------------------------------------------------------
struct TechmapStage {
    using Product = MappedDesign;
    static constexpr const char* kName = "techmap";

    // Techmap reads nothing architecture- or seed-dependent, so its key is
    // just {netlist, hints} (the base chain) + its own options: an arch or
    // seed sweep reuses one mapping across the whole grid.
    static void key(const FlowContext& ctx, BlobWriter& w) {
        wire::encode_fields(ctx.opts.techmap, w);
        w.boolean(ctx.opts.verify_mapping);
    }
    static MappedDesign compute(FlowContext& ctx, StageReport&) {
        MappedDesign md = techmap(ctx.nl, ctx.hints, ctx.opts.techmap);
        if (ctx.opts.verify_mapping) verify_mapping(ctx.nl, md);
        return md;
    }
    static void install(FlowContext& ctx, MappedDesign md, StageReport& report) {
        report.add_metric("les", static_cast<double>(md.les.size()));
        report.add_metric("pdes", static_cast<double>(md.pdes.size()));
        ctx.result.mapped = std::move(md);
    }
};

// ---------------------------------------------------------------------------
// Stage 2: packing
// ---------------------------------------------------------------------------
struct PackStage {
    using Product = PackedDesign;
    static constexpr const char* kName = "pack";

    // First stage that reads the architecture: mix it in here so downstream
    // keys inherit it through the chain.
    static void key(const FlowContext& ctx, BlobWriter& w) {
        w.u64(fingerprint_arch(ctx.arch));
        wire::encode_fields(ctx.opts.pack, w);
    }
    static PackedDesign compute(FlowContext& ctx, StageReport&) {
        return pack(ctx.result.mapped, ctx.arch, ctx.opts.pack);
    }
    static void install(FlowContext& ctx, PackedDesign pd, StageReport& report) {
        report.add_metric("clusters", static_cast<double>(pd.clusters.size()));
        ctx.result.packed = std::move(pd);
    }
};

// ---------------------------------------------------------------------------
// Stage 3: placement
// ---------------------------------------------------------------------------
/// PlaceOptions as the placer runs them: the flow's master seed overrides
/// PlaceOptions::seed, so the key covers the effective options.
PlaceOptions effective_place_options(const FlowContext& ctx) {
    PlaceOptions popts = ctx.opts.place;
    popts.seed = ctx.opts.seed;
    return popts;
}

struct PlaceStage {
    using Product = Placement;
    static constexpr const char* kName = "place";

    // First stage that consumes the master seed: key it here so a seed
    // sweep re-places but reuses the grid's shared techmap/pack products.
    // `threads` has no effect on the placement, so it is keyed as 0.
    static void key(const FlowContext& ctx, BlobWriter& w) {
        PlaceOptions keyed = effective_place_options(ctx);
        keyed.threads = 0;
        wire::encode_fields(keyed, w);
    }
    static Placement compute(FlowContext& ctx, StageReport& report) {
        Placement pl = place(ctx.result.packed, ctx.result.mapped, ctx.arch,
                             effective_place_options(ctx));
        // Level and sub-phase walls are timings: a restore cannot re-emit
        // them.
        for (std::size_t l = 0; l < pl.analytical.levels.size(); ++l)
            report.add_metric("level" + std::to_string(l) + "_wall_ms",
                              pl.analytical.levels[l].wall_ms);
        report.add_metric("global_ms", pl.global_ms);
        report.add_metric("polish_ms", pl.polish_ms);
        report.add_metric("descent_ms", pl.descent_ms);
        return pl;
    }
    static void install(FlowContext& ctx, Placement pl, StageReport& report) {
        report.iterations = pl.anneal_rounds;
        report.cost_trajectory = pl.cost_trajectory;
        report.add_metric("final_cost", pl.final_cost);
        report.add_metric("moves_tried", static_cast<double>(pl.moves_tried));
        report.add_metric("moves_accepted", static_cast<double>(pl.moves_accepted));
        const AnalyticalStats& an = pl.analytical;
        report.add_metric("solver_iterations", static_cast<double>(an.solver_iterations));
        report.add_metric("solver_passes", static_cast<double>(an.solver_passes));
        report.add_metric("spread_passes", static_cast<double>(an.spread_passes));
        report.add_metric("pre_legal_cost", an.pre_legal_cost);
        report.add_metric("legalized_cost", an.legalized_cost);
        report.add_metric("legalize_max_displacement",
                          static_cast<double>(an.legalize.max_displacement));
        report.add_metric("legalize_avg_displacement", an.legalize.avg_displacement);
        for (std::size_t b = 0; b < an.legalize.displacement_histogram.size(); ++b)
            report.add_metric("legalize_disp_bucket" + std::to_string(b),
                              static_cast<double>(an.legalize.displacement_histogram[b]));
        // One metric group per V-cycle level, coarsest first
        // (docs/TELEMETRY.md).
        report.add_metric("levels", static_cast<double>(an.levels.size()));
        for (std::size_t l = 0; l < an.levels.size(); ++l) {
            const LevelStats& ls = an.levels[l];
            const std::string p = "level" + std::to_string(l) + "_";
            report.add_metric(p + "nodes", static_cast<double>(ls.nodes));
            report.add_metric(p + "nets", static_cast<double>(ls.nets));
            report.add_metric(p + "solver_passes", static_cast<double>(ls.solver_passes));
            report.add_metric(p + "spread_passes", static_cast<double>(ls.spread_passes));
            report.add_metric(p + "solver_iterations",
                              static_cast<double>(ls.solver_iterations));
        }
        ctx.result.placement = std::move(pl);
    }
};

// ---------------------------------------------------------------------------
// Stage 4: routing (RR graph build + net list construction + PathFinder)
// ---------------------------------------------------------------------------
/// Attach the routing-resource graph: an explicitly prebuilt one wins, then
/// the artifact store's per-architecture memo, then a local build. A build
/// runs on `pool`, created here when the caller has none and the store does
/// not already hold the graph.
void attach_rr(FlowContext& ctx, std::unique_ptr<base::ThreadPool>& pool, StageReport& report) {
    FlowResult& fr = ctx.result;
    const FlowOptions& o = ctx.opts;
    if (o.prebuilt_rr) {
        // Shared immutable graph. The graph keeps its own ArchSpec copy; its
        // exact encoding proves it describes the fabric this flow targets.
        check(fingerprint_arch(o.prebuilt_rr->arch()) == fingerprint_arch(ctx.arch),
              "flow: prebuilt_rr was built for a different architecture");
        fr.rr = o.prebuilt_rr;
        report.add_metric("rr_shared", 1.0);
        return;
    }
    if (!pool && !(o.artifact_store && o.artifact_store->has_rr(ctx.arch)))
        pool = make_route_pool(o.route);
    base::WallTimer rr_timer;
    if (o.artifact_store) {
        fr.rr = o.artifact_store->rr_for(ctx.arch, pool.get());
        report.add_metric("rr_store_ms", rr_timer.elapsed_ms());
        return;
    }
    fr.rr = pool ? std::make_shared<core::RRGraph>(ctx.arch, *pool)
                 : std::make_shared<core::RRGraph>(ctx.arch);
    report.add_metric("rr_build_ms", rr_timer.elapsed_ms());
    if (pool) report.add_metric("rr_build_threads", static_cast<double>(pool->num_workers()));
}

/// Flatten the packed design into per-signal route requests, remembering
/// which cluster each sink feeds so the bitstream stage can program the
/// receiving IM.
RouteArtifact build_requests(const FlowContext& ctx) {
    const FlowResult& fr = ctx.result;
    const core::ArchSpec& arch = ctx.arch;
    const MappedDesign& md = fr.mapped;
    const PackedDesign& pd = fr.packed;
    RouteArtifact art;

    const auto consumers = pd.build_consumers(md);
    std::unordered_map<NetId, std::string> pi_name_of;
    for (const auto& [name, s] : md.primary_inputs) pi_name_of[s] = name;
    std::unordered_map<NetId, std::vector<std::string>> po_names_of;
    for (const auto& [name, s] : md.primary_outputs) po_names_of[s].push_back(name);
    std::unordered_map<NetId, std::size_t> producer_cluster;
    for (std::size_t ci = 0; ci < pd.clusters.size(); ++ci)
        for (NetId s : pd.clusters[ci].produced(md)) producer_cluster[s] = ci;

    // IM source index of every cluster-produced signal (the LE output slot /
    // PDE output feeding it) — needed up front so routing can avoid output
    // pins the IM topology cannot drive from that source.
    std::unordered_map<NetId, std::uint32_t> im_source_of;
    for (const Cluster& cl : pd.clusters) {
        for (std::size_t slot = 0; slot < cl.le_indices.size(); ++slot) {
            const LeInst& inst = md.les[cl.le_indices[slot]];
            for (NetId s : inst.output_signals())
                im_source_of[s] = arch.im_src_le_output(static_cast<std::uint32_t>(slot),
                                                        inst.output_slot(s));
        }
        if (cl.pde_index) im_source_of[md.pdes[*cl.pde_index].output] = arch.im_src_pde_out();
    }

    std::vector<NetId> all_signals;
    for (const auto& [s, v] : consumers) all_signals.push_back(s);
    for (const auto& [s, v] : po_names_of)
        if (!consumers.count(s)) all_signals.push_back(s);
    std::sort(all_signals.begin(), all_signals.end());  // deterministic order

    for (NetId s : all_signals) {
        if (md.constant_signals.count(s)) continue;
        RouteRequest rq;
        rq.signal = s;
        std::size_t driver_cluster = SIZE_MAX;
        const auto pit = pi_name_of.find(s);
        if (pit != pi_name_of.end()) {
            rq.src_is_pad = true;
            rq.src_pad = fr.placement.pi_pad.at(pit->second);
        } else {
            const auto dit = producer_cluster.find(s);
            check(dit != producer_cluster.end(), "flow: undriven signal");
            driver_cluster = dit->second;
            rq.src_plb = fr.placement.cluster_loc[driver_cluster];
            if (arch.im_topology != core::ImTopology::FullCrossbar) {
                const std::uint32_t src = im_source_of.at(s);
                for (std::uint32_t p = 0; p < arch.plb_outputs; ++p)
                    if (arch.im_connects(src, arch.im_sink_plb_output(p)))
                        rq.allowed_src_pins.push_back(p);
                check(!rq.allowed_src_pins.empty(),
                      "flow: IM topology " + to_string(arch.im_topology) +
                          " offers no output pin for a signal's source");
            }
        }
        std::vector<std::size_t> scl;
        const auto cit = consumers.find(s);
        if (cit != consumers.end()) {
            for (std::size_t c : cit->second) {
                if (c == driver_cluster) continue;  // IM-internal
                RouteRequest::Sink sk;
                sk.plb = fr.placement.cluster_loc[c];
                rq.sinks.push_back(sk);
                scl.push_back(c);
            }
        }
        const auto poit = po_names_of.find(s);
        if (poit != po_names_of.end()) {
            check(pit == pi_name_of.end(), "flow: PI-to-PO pass-through not supported");
            for (const std::string& name : poit->second) {
                RouteRequest::Sink sk;
                sk.is_pad = true;
                sk.pad = fr.placement.po_pad.at(name);
                rq.sinks.push_back(sk);
                scl.push_back(SIZE_MAX);
            }
        }
        if (rq.sinks.empty()) continue;
        // Route nearer sinks first (keeps trees short).
        std::vector<std::size_t> order(rq.sinks.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        const auto src_pos = rq.src_is_pad
                                 ? std::pair<double, double>{0, 0}
                                 : std::pair<double, double>{rq.src_plb.x + 0.5,
                                                             rq.src_plb.y + 0.5};
        auto sink_dist = [&](const RouteRequest::Sink& sk) {
            if (sk.is_pad) return 1e6;  // pads last
            return std::abs(sk.plb.x + 0.5 - src_pos.first) +
                   std::abs(sk.plb.y + 0.5 - src_pos.second);
        };
        std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return sink_dist(rq.sinks[a]) < sink_dist(rq.sinks[b]);
        });
        RouteRequest sorted = rq;
        std::vector<std::size_t> sorted_cl(scl.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            sorted.sinks[i] = rq.sinks[order[i]];
            sorted_cl[i] = scl[order[i]];
        }
        art.reqs.push_back(std::move(sorted));
        art.sink_cluster.push_back(std::move(sorted_cl));
        art.req_signal.push_back(s);
    }
    return art;
}

struct RouteStage {
    using Product = RouteArtifact;
    static constexpr const char* kName = "route";

    // The routing is the same at every `threads` value, so a job at any
    // count restores what another count published: it is keyed as 0.
    static void key(const FlowContext& ctx, BlobWriter& w) {
        RouterOptions keyed = ctx.opts.route;
        keyed.threads = 0;
        wire::encode_fields(keyed, w);
    }
    static RouteArtifact compute(FlowContext& ctx, StageReport& report) {
        // With a pool the RR graph is built per-row on it and the router's
        // bins run on it. Both are bit-reproducible for any worker count and
        // without a pool, so `threads` is a pure wall-clock knob.
        std::unique_ptr<base::ThreadPool> pool = make_route_pool(ctx.opts.route);
        attach_rr(ctx, pool, report);

        RouteArtifact art = build_requests(ctx);
        art.routing = route(*ctx.result.rr, art.reqs, ctx.opts.route, pool.get());
        const RoutingResult& routing = art.routing;
        check(routing.success, "flow: routing failed after " +
                                   std::to_string(routing.iterations) + " iterations (" +
                                   std::to_string(routing.overused_nodes) +
                                   " overused nodes) — widen the channels");

        report.add_metric("kernel_search_ms", routing.kernel.search_ms);
        report.add_metric("route_threads", static_cast<double>(pool ? pool->num_workers() : 1));
        report.add_metric("route_bins", static_cast<double>(routing.num_bins));
        report.add_metric("route_boundary_nets", static_cast<double>(routing.boundary_nets));
        report.add_metric("route_boundary_ms", routing.boundary_wall_ms);
        for (std::size_t b = 0; b < routing.bin_wall_ms.size(); ++b)
            report.add_metric("route_bin" + std::to_string(b) + "_ms", routing.bin_wall_ms[b]);
        return art;
    }
    static void install(FlowContext& ctx, RouteArtifact art, StageReport& report) {
        // The graph is not part of the artifact (it is a pure function of
        // the architecture): a restore reattaches it from wherever this flow
        // sources graphs, so elaborate()/bitstream keep working.
        if (!ctx.result.rr) {
            std::unique_ptr<base::ThreadPool> pool;
            attach_rr(ctx, pool, report);
        }
        const RoutingResult& routing = art.routing;
        report.add_metric("nets", static_cast<double>(art.reqs.size()));
        report.iterations = routing.iterations;
        for (std::size_t o : routing.overuse_trajectory)
            report.cost_trajectory.push_back(static_cast<double>(o));
        report.add_metric("nets_rerouted", static_cast<double>(routing.nets_rerouted));
        report.add_metric("wirelength", static_cast<double>(routing.wirelength));
        // Search-kernel counters: decision-deterministic (identical across
        // thread counts), so they are product metrics; the search wall is not.
        const RouteKernelStats& ks = routing.kernel;
        report.add_metric("kernel_heap_pushes", static_cast<double>(ks.heap_pushes));
        report.add_metric("kernel_heap_pops", static_cast<double>(ks.heap_pops));
        report.add_metric("kernel_nodes_expanded", static_cast<double>(ks.nodes_expanded));
        report.add_metric("kernel_edges_scanned", static_cast<double>(ks.edges_scanned));
        report.add_metric("kernel_wavefront_peak", static_cast<double>(ks.wavefront_peak));
        report.add_metric("kernel_allocations", static_cast<double>(ks.allocations));
        report.add_metric("kernel_steady_allocations",
                          static_cast<double>(ks.steady_allocations));
        report.add_metric("kernel_nets_routed", static_cast<double>(ks.nets_routed));
        ctx.result.routing = std::move(art.routing);
        ctx.route = std::move(art);
    }
};

// ---------------------------------------------------------------------------
// Stage 5: bitstream programming (routing switches, IM config, pads)
// ---------------------------------------------------------------------------
struct BitstreamStage {
    using Product = BitstreamArtifact;
    static constexpr const char* kName = "bitstream";

    static void key(const FlowContext& ctx, BlobWriter& w) { w.f64(ctx.opts.pde_extra_margin); }
    static BitstreamArtifact compute(FlowContext& ctx, StageReport&) {
        const FlowResult& fr = ctx.result;
        const RouteArtifact& routed = ctx.route;
        const core::ArchSpec& arch = ctx.arch;
        const core::RRGraph& rr = *fr.rr;
        const MappedDesign& md = fr.mapped;
        const PackedDesign& pd = fr.packed;

        BitstreamArtifact out{core::Bitstream(arch, rr.num_edges()), {}};
        core::Bitstream& bits = out.bits;

        // (signal, cluster) -> PLB input pin delivering it.
        std::unordered_map<std::uint64_t, std::uint32_t> entry_pin;
        auto sig_cluster_key = [](NetId s, std::size_t cluster) {
            return (static_cast<std::uint64_t>(s.value()) << 24) ^
                   static_cast<std::uint64_t>(cluster);
        };
        // signal -> chosen output pin on its driver PLB.
        std::unordered_map<NetId, std::uint32_t> exit_pin;

        for (std::size_t ri = 0; ri < routed.reqs.size(); ++ri) {
            const RouteTree& tree = fr.routing.trees[ri];
            if (!routed.reqs[ri].src_is_pad) {
                check(tree.root_opin != UINT32_MAX, "flow: routed net without a root");
                exit_pin[routed.req_signal[ri]] = rr.pin_index(tree.root_opin);
            }
            for (std::size_t si = 0; si < tree.sinks.size(); ++si) {
                if (routed.sink_cluster[ri][si] == SIZE_MAX) continue;  // pad sink
                entry_pin[sig_cluster_key(routed.req_signal[ri], routed.sink_cluster[ri][si])] =
                    rr.pin_index(tree.sinks[si].ipin);
            }
            for (std::uint32_t e : tree.edges) bits.set_edge(e, true);
        }

        for (std::size_t ci = 0; ci < pd.clusters.size(); ++ci) {
            const Cluster& cl = pd.clusters[ci];
            const PlbCoord loc = fr.placement.cluster_loc[ci];
            core::PlbConfig& cfg = bits.plb(loc);

            // slot/source of every signal produced inside this PLB
            std::unordered_map<NetId, std::uint32_t> internal_src;
            for (std::size_t slot = 0; slot < cl.le_indices.size(); ++slot) {
                const LeInst& inst = md.les[cl.le_indices[slot]];
                for (NetId s : inst.output_signals())
                    internal_src[s] = arch.im_src_le_output(static_cast<std::uint32_t>(slot),
                                                            inst.output_slot(s));
            }
            if (cl.pde_index)
                internal_src[md.pdes[*cl.pde_index].output] = arch.im_src_pde_out();

            auto resolve_source = [&](NetId s) -> std::uint32_t {
                const auto iit = internal_src.find(s);
                if (iit != internal_src.end()) return iit->second;
                const auto cit2 = md.constant_signals.find(s);
                if (cit2 != md.constant_signals.end())
                    return cit2->second ? arch.im_src_const1() : arch.im_src_const0();
                const auto eit = entry_pin.find(sig_cluster_key(s, ci));
                check(eit != entry_pin.end(), "flow: signal not delivered to cluster");
                return arch.im_src_plb_input(eit->second);
            };

            for (std::size_t slot = 0; slot < cl.le_indices.size(); ++slot) {
                const LeInst& inst = md.les[cl.le_indices[slot]];
                core::LeConfig& le = cfg.le[slot];
                const std::vector<NetId> signals = inst.input_signals();
                check(signals.size() <= arch.le_inputs, "flow: LE input overflow");

                // Topology-aware pin assignment: each signal needs an LE input
                // pin whose IM sink can listen to the signal's source (always
                // satisfiable on the full crossbar; a real constraint for the
                // sparse-IM ablations). Halves may only use pins 0..5.
                const std::size_t max_pin = inst.full7 ? 7 : 6;
                std::vector<std::size_t> pin_of_signal(signals.size(), SIZE_MAX);
                std::vector<bool> pin_taken(max_pin, false);
                auto can_use = [&](std::size_t sig, std::size_t pin) {
                    return arch.im_connects(
                        resolve_source(signals[sig]),
                        arch.im_sink_le_input(static_cast<std::uint32_t>(slot),
                                              static_cast<std::uint32_t>(pin)));
                };
                std::function<bool(std::size_t)> assign = [&](std::size_t sig) {
                    if (sig == signals.size()) return true;
                    for (std::size_t p = 0; p < max_pin; ++p) {
                        if (pin_taken[p] || !can_use(sig, p)) continue;
                        pin_taken[p] = true;
                        pin_of_signal[sig] = p;
                        if (assign(sig + 1)) return true;
                        pin_taken[p] = false;
                        pin_of_signal[sig] = SIZE_MAX;
                    }
                    return false;
                };
                check(assign(0),
                      "flow: IM topology " + to_string(arch.im_topology) +
                          " cannot deliver all inputs of an LE (memory feedback or "
                          "sparse crossbar conflict)");
                auto pin_of = [&](NetId s) {
                    for (std::size_t i = 0; i < signals.size(); ++i)
                        if (signals[i] == s) return pin_of_signal[i];
                    base::fail("flow: signal not an LE input");
                };

                if (inst.full7) {
                    // set_full7 needs exactly one variable on pin 6; if the
                    // matcher left pin 6 free, rotate one variable onto it.
                    bool pin6_used = false;
                    for (std::size_t v : pin_of_signal) pin6_used |= (v == 6);
                    if (!pin6_used) {
                        for (std::size_t i = 0; i < signals.size(); ++i) {
                            if (can_use(i, 6)) {
                                pin_of_signal[i] = 6;
                                break;
                            }
                        }
                    }
                    std::vector<std::size_t> pin_map;
                    for (NetId s : inst.full7->inputs) pin_map.push_back(pin_of(s));
                    core::LeProgram::set_full7(le, inst.full7->tt, pin_map);
                } else {
                    if (inst.a) {
                        std::vector<std::size_t> pin_map;
                        for (NetId s : inst.a->inputs) pin_map.push_back(pin_of(s));
                        core::LeProgram::set_half(le, false, inst.a->tt, pin_map);
                    }
                    if (inst.b) {
                        std::vector<std::size_t> pin_map;
                        for (NetId s : inst.b->inputs) pin_map.push_back(pin_of(s));
                        core::LeProgram::set_half(le, true, inst.b->tt, pin_map);
                    }
                }
                if (inst.lut2) {
                    const std::uint32_t sel0 = inst.output_slot(inst.lut2->inputs[0]);
                    const std::uint32_t sel1 = inst.output_slot(inst.lut2->inputs[1]);
                    check(sel0 < 3 && sel1 < 3, "flow: LUT2 input is not an LE output");
                    core::LeProgram::set_lut2(le, inst.lut2->tt, sel0, sel1);
                }
                for (std::size_t i = 0; i < signals.size(); ++i)
                    cfg.im.connect(
                        arch,
                        arch.im_sink_le_input(static_cast<std::uint32_t>(slot),
                                              static_cast<std::uint32_t>(pin_of_signal[i])),
                        resolve_source(signals[i]));
            }

            if (cl.pde_index) {
                const PdeInst& p = md.pdes[*cl.pde_index];
                cfg.im.connect(arch, arch.im_sink_pde_in(), resolve_source(p.input));
                const double required =
                    static_cast<double>(p.required_delay_ps) * (1.0 + ctx.opts.pde_extra_margin);
                // Range-checked as a double, so an out-of-range tap count is
                // rejected before it is ever cast.
                const double tap =
                    std::ceil(required / static_cast<double>(arch.pde_quantum_ps));
                check(tap >= 0 && tap < static_cast<double>(arch.pde_taps),
                      "flow: PDE range exceeded (need " + std::to_string(required) +
                          " ps, max " +
                          std::to_string((arch.pde_taps - 1) * arch.pde_quantum_ps) + " ps)");
                cfg.pde.tap = static_cast<std::uint8_t>(std::max(tap, 1.0));
            }

            // PLB output pins for signals that leave this cluster.
            for (NetId s : cl.produced(md)) {
                const auto xit = exit_pin.find(s);
                if (xit == exit_pin.end()) continue;  // consumed internally only
                cfg.im.connect(arch, arch.im_sink_plb_output(xit->second), resolve_source(s));
            }
        }

        // --- pads ---------------------------------------------------------------
        for (const auto& [name, pad] : fr.placement.pi_pad) {
            // Only program pads whose signal actually reached the fabric; an
            // unconnected PI stays unprogrammed.
            bits.set_pad_mode(pad, core::PadMode::Input);
            out.pad_names[pad] = name;
        }
        for (const auto& [name, pad] : fr.placement.po_pad) {
            bits.set_pad_mode(pad, core::PadMode::Output);
            out.pad_names[pad] = name;
        }
        return out;
    }

    static void install(FlowContext& ctx, BitstreamArtifact art, StageReport& report) {
        report.add_metric("switches_on", static_cast<double>(art.bits.num_enabled_edges()));
        ctx.result.bits = std::make_shared<core::Bitstream>(std::move(art.bits));
        ctx.result.pad_names = std::move(art.pad_names);
    }
};

/// Run one stage under the artifact cache protocol and append its report.
/// With a store, the stage's key chains onto `chain` (so a key match
/// certifies every input, direct or inherited, equals the publishing run's),
/// and a miss computes under begin_compute so concurrent flows on the same
/// chain wait instead of duplicating the stage.
template <typename S>
void run_stage(FlowContext& ctx, ArtifactKey& chain) {
    using Product = typename S::Product;
    StageReport report;
    report.stage = S::kName;
    base::WallTimer t;
    ArtifactStore* const store = ctx.opts.artifact_store.get();
    if (!store) {
        S::install(ctx, S::compute(ctx, report), report);
    } else {
        chain = chain_key(chain, S::kName,
                          fingerprint_encoding([&](BlobWriter& w) { S::key(ctx, w); }));
        report.cache_key = key_hex(chain);
        ArtifactTier tier = ArtifactTier::Memory;
        std::shared_ptr<const Product> product = store->get<Product>(chain, &tier);
        const bool owner = !product && store->begin_compute(chain);
        // Not owning a missed key means it was published while we waited.
        if (!product && !owner) product = store->get<Product>(chain, &tier);
        report.cache_hit = product ? 1 : 0;
        if (!product) {
            // Also reached without ownership when a tight byte budget evicted
            // the fresh product before the re-get (and no disk tier holds
            // it): recompute locally rather than re-enter the queue.
            try {
                product = std::make_shared<const Product>(S::compute(ctx, report));
                store->put(chain, product);
            } catch (...) {
                if (owner) store->finish_compute(chain);  // a waiter inherits the key
                throw;
            }
            if (owner) store->finish_compute(chain);
        }
        S::install(ctx, Product(*product), report);
        // Bit-identical either way; benches and the CI disk-warm gate tell a
        // resident hit from a deserialized one (docs/TELEMETRY.md).
        if (report.cache_hit == 1 && tier == ArtifactTier::Disk)
            report.add_metric("restored_from_disk", 1.0);
    }
    report.wall_ms = t.elapsed_ms();
    ctx.result.telemetry.stages.push_back(std::move(report));
}

}  // namespace

FlowResult run_flow(const netlist::Netlist& nl, const asynclib::MappingHints& hints,
                    const core::ArchSpec& arch, const FlowOptions& opts) {
    arch.validate();
    // Multi-capacity channels are a router-level model (see cad::route and
    // RRGraph::node_capacity): the bitstream and elaboration layers assume
    // one net per wire node, so a bundled routing would program a short.
    check(arch.wire_capacity == 1,
          "flow: wire_capacity > 1 is supported by the standalone router only; "
          "the bitstream layer models one net per wire");
    // The margin can arrive from the wire; a NaN would reach the PDE tap
    // arithmetic of the bitstream stage.
    check(std::isfinite(opts.pde_extra_margin) && opts.pde_extra_margin >= 0,
          "flow: pde_extra_margin must be finite and >= 0");
    FlowResult fr;
    fr.arch = arch;
    FlowContext ctx{nl, hints, arch, opts, fr, {}};

    // The base of the key chain is the design itself.
    ArtifactKey chain = 0;
    if (opts.artifact_store)
        chain = Fingerprint{}.mix(fingerprint_netlist(nl)).mix(fingerprint_hints(hints)).digest();

    base::WallTimer total;
    run_stage<TechmapStage>(ctx, chain);
    run_stage<PackStage>(ctx, chain);
    run_stage<PlaceStage>(ctx, chain);
    run_stage<RouteStage>(ctx, chain);
    run_stage<BitstreamStage>(ctx, chain);
    fr.telemetry.total_ms = total.elapsed_ms();
    return fr;
}

}  // namespace afpga::cad
