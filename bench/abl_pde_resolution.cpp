// Ablation abl-B: Programmable Delay Element resolution and margin.
//
// The PDE is what lets the fabric host timing-assumption styles. Two knobs
// matter: the tap quantum (resolution of the programmable delay) and the
// safety margin the flow programs on top of the estimated datapath delay.
// We sweep both for a micropipeline adder, then verify the bundling
// constraint post-route by simulation: a too-coarse PDE or too-thin margin
// corrupts long-carry sums exactly as the theory predicts.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "asynclib/adders.hpp"
#include "base/check.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "cad/flow_service.hpp"
#include "eval/sweep.hpp"
#include "sim/monitors.hpp"
#include "sim/simulator.hpp"
#include "sim/testbench.hpp"

using namespace afpga;

namespace {

struct Outcome {
    std::string status;
    int correct = 0;
    int total = 0;
    std::int64_t pde_delay_ps = 0;
};

/// Post-route bundling verification of one already-compiled configuration
/// (the flows themselves run as a grid on a FlowService in main; margin-only
/// neighbours share every stage but the bitstream through the artifact
/// cache).
Outcome evaluate(const cad::FlowJobResult& job) {
    Outcome o;
    if (!job.ok()) {
        o.status = job.error.find("PDE range") != std::string::npos ? "PDE range exceeded"
                                                                    : "flow failed";
        return o;
    }
    const cad::FlowResult& fr = job.result;
    const core::ArchSpec& arch = fr.arch;  // the architecture the flow compiled against
    // Read back the programmed PDE delay from the bitstream.
    for (std::size_t ci = 0; ci < fr.packed.clusters.size(); ++ci) {
        if (!fr.packed.clusters[ci].pde_index) continue;
        o.pde_delay_ps = fr.bits->plb(fr.placement.cluster_loc[ci]).pde.delay_ps(arch);
    }

    const auto design = fr.elaborate();
    sim::Simulator sim(design.nl);
    for (const auto& d : core::resolve_wire_delays(design))
        sim.set_sink_delay(d.net, d.sink_idx, d.delay_ps);
    sim.run();

    auto po_net = [&](const std::string& name) {
        for (const auto& [n, net] : design.nl.primary_outputs())
            if (n == name) return net;
        base::fail("missing PO " + name);
    };
    sim::BundledStageIface iface;
    for (std::size_t i = 0; i < 4; ++i)
        iface.data_in.push_back(design.nl.find_net(base::bus_bit("a", i)));
    for (std::size_t i = 0; i < 4; ++i)
        iface.data_in.push_back(design.nl.find_net(base::bus_bit("b", i)));
    iface.data_in.push_back(design.nl.find_net("cin"));
    iface.req_in = design.nl.find_net("req_in");
    iface.ack_out = design.nl.find_net("ack_out");
    for (std::size_t i = 0; i < 4; ++i) iface.data_out.push_back(po_net(base::bus_bit("sum", i)));
    iface.data_out.push_back(po_net("cout"));
    iface.req_out = po_net("req_out");
    iface.ack_in = po_net("ack_in");

    // Long-carry patterns stress the matched delay hardest.
    const std::uint64_t stims[] = {0xF | (0x1 << 4), 0xF | (0xF << 4), 0x8 | (0x8 << 4),
                                   0x7 | (0x9 << 4), 0x1 | (0xF << 4), 0xF | (0x1 << 4) | (1 << 8)};
    for (std::uint64_t v : stims) {
        const std::uint64_t a = v & 0xF;
        const std::uint64_t b = (v >> 4) & 0xF;
        const std::uint64_t cin = (v >> 8) & 1;
        ++o.total;
        try {
            if (sim::bundled_apply_token(sim, iface, v, 200) == a + b + cin) ++o.correct;
        } catch (const base::Error&) {
            // X sampled or handshake stuck: counts as incorrect.
        }
    }
    o.status = o.correct == o.total ? "PASS" : "DATA CORRUPTED";
    return o;
}

}  // namespace

int main() {
    std::printf("=== abl-B: PDE resolution / margin vs bundling constraint "
                "(4-bit micropipeline adder, post-route) ===\n\n");
    base::TextTable t({"tap quantum", "taps", "extra margin", "programmed delay",
                       "long-carry tokens", "verdict"});
    struct Cfg {
        std::int64_t quantum;
        std::uint32_t taps;
        double margin;
    };
    // The generous rows run at the flow's own default margin (100%), so the
    // table and its shape check pin that default too.
    const double dflt = cad::FlowOptions{}.pde_extra_margin;
    const Cfg cfgs[] = {
        {250, 32, dflt}, {250, 32, 0.5}, {250, 32, 0.0}, {500, 16, dflt}, {500, 16, 0.0},
        {1000, 8, dflt}, {2000, 4, 0.0}, {125, 64, dflt}, {250, 4, dflt},
    };

    // One design, nine {resolution, margin} points: the sweep is a FlowJob
    // grid on one FlowService. Margin-only variants reuse the cached
    // techmap/pack/place/route artifacts (the margin is programmed by the
    // bitstream stage alone); simulation stays serial below.
    auto adder = asynclib::make_micropipeline_adder(4);
    cad::FlowService svc;
    std::vector<cad::FlowJob> jobs;
    for (const Cfg& c : cfgs) {
        core::ArchSpec arch = core::paper_arch();
        arch.pde_quantum_ps = c.quantum;
        arch.pde_taps = c.taps;
        cad::FlowJob j;
        j.name = "q" + std::to_string(c.quantum) + "_t" + std::to_string(c.taps) + "_m" +
                 base::format_percent(c.margin, 0);
        j.nl = &adder.nl;
        j.arch = arch;
        j.opts.pde_extra_margin = c.margin;
        jobs.push_back(std::move(j));
    }
    const auto results = eval::run_grid(svc, std::move(jobs));

    // The shape claims below, checked: the program fails when one stops
    // holding.
    std::vector<std::string> shape_failures;
    bool zero_margin_corrupts = false;
    for (std::size_t i = 0; i < std::size(cfgs); ++i) {
        const Cfg& c = cfgs[i];
        const Outcome o = evaluate(*results[i]);
        const std::string row = results[i]->name;
        if (c.margin == dflt) {
            // A 4-tap PDE of 250 ps steps cannot reach the doubled delay.
            const std::string want = c.taps == 4 ? "PDE range exceeded" : "PASS";
            if (o.status != want)
                shape_failures.push_back(row + ": " + o.status + ", want " + want);
        }
        if (c.margin == 0.0 && o.status == "DATA CORRUPTED") zero_margin_corrupts = true;
        t.add_row({std::to_string(c.quantum) + " ps", std::to_string(c.taps),
                   base::format_percent(c.margin, 0),
                   o.pde_delay_ps ? std::to_string(o.pde_delay_ps) + " ps" : "-",
                   o.total ? std::to_string(o.correct) + "/" + std::to_string(o.total) : "-",
                   o.status});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Expected shape: generous margin + fine resolution pass; a PDE whose\n");
    std::printf("range cannot cover the routed datapath is rejected by the flow; a\n");
    std::printf("zero-margin configuration rides the estimate and corrupts long-carry\n");
    std::printf("sums when routing adds delay the estimate missed.\n");

    if (!zero_margin_corrupts) shape_failures.push_back("no 0% margin row corrupted data");
    for (const std::string& f : shape_failures)
        std::fprintf(stderr, "abl_pde_resolution: shape check failed: %s\n", f.c_str());
    return shape_failures.empty() ? 0 : 1;
}
