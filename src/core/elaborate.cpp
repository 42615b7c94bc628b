#include "core/elaborate.hpp"

#include <functional>

#include "base/check.hpp"

namespace afpga::core {

using base::check;
using netlist::CellFunc;
using netlist::CellId;
using netlist::NetId;
using netlist::TruthTable;

namespace {

std::uint64_t key(std::uint32_t plb_index, std::uint32_t pin) {
    return (static_cast<std::uint64_t>(plb_index) << 32) | pin;
}

/// Where a routed signal originates.
struct RouteSource {
    bool is_pad = false;
    std::uint32_t pad = 0;       // input pad index
    std::uint32_t plb_index = 0; // else: PLB output pin
    std::uint32_t out_pin = 0;
};

struct RouteHit {
    RouteSource src;
    std::int64_t delay_ps = 0;
};

}  // namespace

std::vector<ResolvedSinkDelay> resolve_wire_delays(const ElaboratedDesign& d) {
    std::vector<ResolvedSinkDelay> out;
    out.reserve(d.wire_delays.size());
    for (const SinkDelayAnnotation& a : d.wire_delays) {
        const netlist::Cell& c = d.nl.cell(a.cell);
        const NetId net = c.inputs.at(a.pin);
        const auto& sinks = d.nl.net(net).sinks;
        bool found = false;
        for (std::size_t s = 0; s < sinks.size(); ++s) {
            if (sinks[s].cell == a.cell && sinks[s].pin == a.pin) {
                out.push_back({net, s, a.delay_ps});
                found = true;
                break;
            }
        }
        check(found, "resolve_wire_delays: annotation does not match netlist");
    }
    return out;
}

ElaboratedDesign elaborate(const RRGraph& rr, const Bitstream& bits,
                           const std::unordered_map<std::uint32_t, std::string>& pad_names) {
    const ArchSpec& arch = rr.arch();
    const FabricGeometry& geom = rr.geometry();
    ElaboratedDesign out;
    out.nl = netlist::Netlist("elaborated");
    netlist::Netlist& nl = out.nl;

    auto pad_user_name = [&](std::uint32_t pad) {
        const auto it = pad_names.find(pad);
        return it != pad_names.end() ? it->second : geom.pad_name(pad);
    };

    // Shared constants; const0 doubles as the placeholder for unresolved pins.
    const NetId const0 = nl.add_cell(CellFunc::Const0, "const0", {});
    const NetId const1 = nl.add_cell(CellFunc::Const1, "const1", {});

    // --- primary inputs -------------------------------------------------------
    for (std::uint32_t pad = 0; pad < geom.num_pads(); ++pad)
        if (bits.pad_mode(pad) == PadMode::Input)
            out.pad_to_pi.emplace(pad, nl.add_input(pad_user_name(pad)));

    // --- trace routing: BFS over enabled switches from every driver opin -----
    std::unordered_map<std::uint64_t, RouteHit> plb_input_route;  // (plb,pin) -> hit
    std::unordered_map<std::uint32_t, RouteHit> pad_output_route; // pad -> hit
    std::vector<std::uint32_t> claimed(rr.num_nodes(), UINT32_MAX);

    std::vector<std::pair<std::uint32_t, std::int64_t>> frontier;  // FIFO, reused per trace
    auto trace_from = [&](std::uint32_t opin, const RouteSource& src, std::uint32_t src_id) {
        frontier.clear();
        frontier.emplace_back(opin, rr.node(opin).delay_ps);
        claimed[opin] = src_id;
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            const auto [n, d] = frontier[head];
            for (std::uint32_t e : rr.out_edges(n)) {
                if (!bits.edge(e)) continue;
                const std::uint32_t to = rr.edge_target(e);
                if (claimed[to] == src_id) continue;
                check(claimed[to] == UINT32_MAX,
                      "elaborate: routing short (two nets share an RR node)");
                claimed[to] = src_id;
                const std::int64_t nd = d + rr.node(to).delay_ps;
                const RRNode& tn = rr.node(to);
                if (tn.kind == RRKind::Ipin) {
                    if (tn.is_pad) {
                        pad_output_route[rr.pad_of(to)] = RouteHit{src, nd};
                    } else {
                        const PlbCoord c = rr.ipin_plb(to);
                        plb_input_route[key(geom.plb_index(c), tn.track)] = RouteHit{src, nd};
                    }
                } else {
                    frontier.emplace_back(to, nd);
                }
            }
        }
    };

    std::uint32_t next_src_id = 0;
    for (std::uint32_t pad = 0; pad < geom.num_pads(); ++pad) {
        if (bits.pad_mode(pad) != PadMode::Input) continue;
        RouteSource src;
        src.is_pad = true;
        src.pad = pad;
        trace_from(rr.pad_opin(pad), src, next_src_id++);
    }
    for (std::uint32_t pi = 0; pi < geom.num_plbs(); ++pi) {
        const PlbCoord c = geom.plb_coord(pi);
        for (std::uint32_t p = 0; p < arch.plb_outputs; ++p) {
            // Only trace output pins that are actually driven through the IM.
            if (!bits.plb(c).im.sink_used(arch.im_sink_plb_output(p))) continue;
            RouteSource src;
            src.plb_index = pi;
            src.out_pin = p;
            trace_from(rr.plb_opin(c, p), src, next_src_id++);
        }
    }

    // --- create cells for every used LE output and PDE ------------------------
    // le_out_net[(plb, le*4+out)], pde_net[plb]
    std::unordered_map<std::uint64_t, NetId> le_out_net;
    std::unordered_map<std::uint32_t, NetId> pde_net;
    struct PendingPin {
        CellId cell;
        std::uint32_t pin;      // cell input pin
        std::uint32_t plb;      // owning PLB
        std::uint32_t im_sink;  // IM sink this pin listens to
    };
    std::vector<PendingPin> pending;

    for (std::uint32_t pi = 0; pi < geom.num_plbs(); ++pi) {
        const PlbCoord c = geom.plb_coord(pi);
        const PlbConfig& cfg = bits.plb(c);
        if (cfg.is_blank(arch)) continue;

        // Which LE outputs / PDE are referenced by any configured IM sink?
        std::vector<bool> out_used(arch.les_per_plb * ArchSpec::kLeOutputs, false);
        bool pde_used = false;
        for (std::uint32_t s = 0; s < arch.im_num_sinks(); ++s) {
            if (!cfg.im.sink_used(s)) continue;
            const std::uint32_t src = cfg.im.select[s];
            if (src >= arch.plb_inputs && src < arch.im_src_pde_out())
                out_used[src - arch.plb_inputs] = true;
            if (src == arch.im_src_pde_out()) pde_used = true;
        }

        const std::string plbname = "plb" + std::to_string(c.x) + "_" + std::to_string(c.y);
        for (std::uint32_t le = 0; le < arch.les_per_plb; ++le) {
            for (std::uint32_t o = 0; o < ArchSpec::kLeOutputs; ++o) {
                if (!out_used[le * ArchSpec::kLeOutputs + o]) continue;
                const TruthTable full = LeEval::output_function(cfg.le[le], o);
                std::vector<std::size_t> kept;
                const TruthTable pruned = full.prune_support(&kept);
                std::vector<NetId> ins(kept.size(), const0);
                const std::string nm = plbname + ".le" + std::to_string(le) + ".o" +
                                       std::to_string(o);
                const NetId net = nl.add_lut(nm, pruned, ins);
                const CellId cell = nl.driver_of(net);
                nl.set_cell_delay(cell, o == kLeOutLut2 ? arch.lut_delay_ps + arch.lut2_delay_ps
                                                        : arch.lut_delay_ps);
                le_out_net[key(pi, le * ArchSpec::kLeOutputs + o)] = net;
                for (std::size_t k = 0; k < kept.size(); ++k)
                    pending.push_back({cell, static_cast<std::uint32_t>(k), pi,
                                       arch.im_sink_le_input(le,
                                                             static_cast<std::uint32_t>(kept[k]))});
            }
        }
        if (pde_used) {
            const NetId net = nl.add_cell(CellFunc::Delay, plbname + ".pde", {const0});
            const CellId cell = nl.driver_of(net);
            nl.set_cell_delay(cell, cfg.pde.delay_ps(arch));
            pde_net[pi] = net;
            pending.push_back({cell, 0, pi, arch.im_sink_pde_in()});
        }
    }

    // --- resolve IM sources to nets -------------------------------------------
    // A PLB output pin may pass a PLB input straight through, so resolution
    // can hop across PLBs; depth is bounded by the PLB count.
    std::function<std::pair<NetId, std::int64_t>(std::uint32_t, std::uint32_t, int)>
        source_net = [&](std::uint32_t plb_index, std::uint32_t src,
                         int depth) -> std::pair<NetId, std::int64_t> {
        check(depth < static_cast<int>(geom.num_plbs()) + 2,
              "elaborate: pass-through cycle in IM configuration");
        if (src == arch.im_src_const0()) return {const0, 0};
        if (src == arch.im_src_const1()) return {const1, 0};
        if (src == arch.im_src_pde_out()) {
            const auto it = pde_net.find(plb_index);
            check(it != pde_net.end(), "elaborate: IM references unconfigured PDE");
            return {it->second, arch.im_delay_ps};
        }
        if (src >= arch.plb_inputs) {
            const auto it = le_out_net.find(key(plb_index, src - arch.plb_inputs));
            check(it != le_out_net.end(), "elaborate: IM references unused LE output");
            return {it->second, arch.im_delay_ps};
        }
        // PLB input pin: must be reached by routing.
        const auto it = plb_input_route.find(key(plb_index, src));
        check(it != plb_input_route.end(),
              "elaborate: PLB input pin configured but not routed");
        const RouteHit& hit = it->second;
        if (hit.src.is_pad) {
            const auto pit = out.pad_to_pi.find(hit.src.pad);
            check(pit != out.pad_to_pi.end(), "elaborate: route from non-input pad");
            return {pit->second, hit.delay_ps + arch.im_delay_ps};
        }
        // Driven by another PLB's output pin: resolve what feeds that pin.
        const PlbCoord dc = geom.plb_coord(hit.src.plb_index);
        const PlbConfig& dcfg = bits.plb(dc);
        const std::uint32_t opin_sink = arch.im_sink_plb_output(hit.src.out_pin);
        check(dcfg.im.sink_used(opin_sink), "elaborate: undriven PLB output pin routed");
        const auto [net, d] =
            source_net(hit.src.plb_index, dcfg.im.select[opin_sink], depth + 1);
        return {net, d + hit.delay_ps + arch.im_delay_ps};
    };

    // Resolve every pending pin first, then move them all off the const0
    // placeholder in one pass (rewire_input per pin would rescan const0's
    // sink list each time).
    std::vector<netlist::PinRewire> rewires;
    rewires.reserve(pending.size());
    for (const PendingPin& p : pending) {
        const PlbCoord c = geom.plb_coord(p.plb);
        const PlbConfig& cfg = bits.plb(c);
        check(cfg.im.sink_used(p.im_sink),
              "elaborate: LE/PDE input needs IM sink " + std::to_string(p.im_sink) +
                  " but it is unconfigured (tie unused inputs to const)");
        const auto [net, d] = source_net(p.plb, cfg.im.select[p.im_sink], 0);
        rewires.push_back({p.cell, p.pin, net});
        if (d > 0) out.wire_delays.push_back({p.cell, p.pin, d});
    }
    nl.rewire_inputs(rewires);

    // --- primary outputs -------------------------------------------------------
    for (std::uint32_t pad = 0; pad < geom.num_pads(); ++pad) {
        if (bits.pad_mode(pad) != PadMode::Output) continue;
        const auto it = pad_output_route.find(pad);
        check(it != pad_output_route.end(), "elaborate: output pad not routed");
        const RouteHit& hit = it->second;
        check(!hit.src.is_pad, "elaborate: pad-to-pad route not supported");
        const PlbCoord dc = geom.plb_coord(hit.src.plb_index);
        const PlbConfig& dcfg = bits.plb(dc);
        const std::uint32_t opin_sink = arch.im_sink_plb_output(hit.src.out_pin);
        check(dcfg.im.sink_used(opin_sink), "elaborate: undriven PLB output pin at pad");
        const auto [net, d] = source_net(hit.src.plb_index, dcfg.im.select[opin_sink], 0);
        (void)d;  // pad observation delay does not change functionality
        const std::string name = pad_user_name(pad);
        nl.add_output(name, net);
        out.pad_to_po.emplace(pad, name);
    }

    nl.validate();
    return out;
}

}  // namespace afpga::core
