// Section 5 reproduction: the paper's headline result — "an overall filling
// ratio of 51% for the micropipeline circuits and 76% for the QDI circuits".
//
// Filling ratio = used LE outputs / (4 outputs x occupied LEs): a QDI
// dual-rail function fills an LE with two rails plus the LUT2 validity
// (3/4), bundled-data logic fills 1-2 of 4. We sweep adder widths and FIFO
// depths in both styles — the whole grid runs as one FlowJob set on a
// FlowService (machine-width compiles, one shared RR graph) — and print
// the paper's numbers alongside.
#include <cstdio>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "cad/flow_service.hpp"
#include "eval/metrics.hpp"
#include "eval/sweep.hpp"

using namespace afpga;

namespace {

struct Entry {
    std::string design;
    std::string style;
    netlist::Netlist nl;
    asynclib::MappingHints hints;
};

struct Row {
    std::string design;
    std::string style;
    eval::FillingRatio f;
};

}  // namespace

int main() {
    std::printf("=== Filling ratio by style (paper: QDI 76%%, micropipeline 51%%) ===\n\n");

    // Generate the whole design grid up front (jobs borrow the netlists).
    std::vector<Entry> entries;
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        auto q = asynclib::make_qdi_adder(n);
        entries.push_back({"adder-" + std::to_string(n) + "b", "QDI dual-rail",
                           std::move(q.nl), std::move(q.hints)});
        auto m = asynclib::make_micropipeline_adder(n);
        entries.push_back(
            {"adder-" + std::to_string(n) + "b", "micropipeline", std::move(m.nl), {}});
    }
    for (std::size_t d : {std::size_t{2}, std::size_t{4}}) {
        auto q = asynclib::make_wchb_fifo(4, d);
        entries.push_back({"fifo-4b-x" + std::to_string(d), "QDI dual-rail (WCHB)",
                           std::move(q.nl), std::move(q.hints)});
        auto m = asynclib::make_micropipeline_fifo(4, d);
        entries.push_back(
            {"fifo-4b-x" + std::to_string(d), "micropipeline", std::move(m.nl), {}});
        auto t2 = asynclib::make_mousetrap_fifo(4, d);
        entries.push_back(
            {"fifo-4b-x" + std::to_string(d), "2-ph mousetrap", std::move(t2.nl), {}});
    }

    core::ArchSpec arch = core::paper_arch();
    // The wide sweeps need more room than the default 8x8 array.
    arch.width = 12;
    arch.height = 12;
    arch.channel_width = 16;

    cad::FlowService svc;
    std::vector<cad::FlowJob> jobs;
    for (const Entry& e : entries) {
        cad::FlowJob j;
        j.name = e.design + " / " + e.style;
        j.nl = &e.nl;
        j.hints = &e.hints;
        j.arch = arch;
        jobs.push_back(std::move(j));
    }
    const auto results = eval::run_grid(svc, std::move(jobs));

    std::vector<Row> rows;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        base::check(results[i]->ok(), "tab_filling_ratio: flow failed for " +
                                          results[i]->name + ": " + results[i]->error);
        rows.push_back(
            {entries[i].design, entries[i].style, eval::filling_ratio(results[i]->result)});
    }

    base::TextTable t({"design", "style", "LEs", "PLBs", "filling (LE outputs)",
                       "PLB resources", "halves"});
    double qdi_sum = 0;
    int qdi_n = 0;
    double mp_sum = 0;
    int mp_n = 0;
    for (const Row& r : rows) {
        t.add_row({r.design, r.style, std::to_string(r.f.used_les),
                   std::to_string(r.f.occupied_plbs), base::format_percent(r.f.outputs),
                   base::format_percent(r.f.plb_resources), base::format_percent(r.f.halves)});
        if (r.style.rfind("QDI", 0) == 0) {
            qdi_sum += r.f.outputs;
            ++qdi_n;
        } else {
            mp_sum += r.f.outputs;
            ++mp_n;
        }
    }
    std::printf("%s\n", t.render().c_str());

    base::TextTable s({"style", "overall filling (measured)", "paper"});
    s.add_row({"QDI dual-rail", base::format_percent(qdi_sum / qdi_n), "76%"});
    s.add_row({"bundled data (4-ph micropipeline + 2-ph mousetrap)",
               base::format_percent(mp_sum / mp_n), "51%"});
    std::printf("%s\n", s.render().c_str());

    std::printf("Shape check: QDI fills the multi-output LEs markedly better than\n");
    std::printf("bundled data (paper: +25pp; measured: +%.0fpp). The absolute QDI\n",
                (qdi_sum / qdi_n - mp_sum / mp_n) * 100.0);
    std::printf("value is below the paper's 76%% because DIMS OR planes and C-trees\n");
    std::printf("cannot use the validity slot (see \"QDI filling gap\" in\n");
    std::printf("docs/BENCHMARKS.md).\n");

    // The claim above, checked: the program fails when it stops holding.
    if (!(qdi_sum / qdi_n > mp_sum / mp_n)) {
        std::fprintf(stderr,
                     "tab_filling_ratio: shape check failed: QDI filling %.1f%% is not "
                     "above bundled data's %.1f%%\n",
                     qdi_sum / qdi_n * 100.0, mp_sum / mp_n * 100.0);
        return 1;
    }
    return 0;
}
