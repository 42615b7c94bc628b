// afpga_client: CLI front-end for a running afpga_flowd. Three verbs:
//
//   compile  generate a demo design, submit it, stream the result back:
//              afpga_client compile --unix /tmp/afpga.sock --design qdi_adder:4
//                  --fabric 10 --cw 12 --seed 7 [--priority P] [--check]
//                  [--out FILE]
//            --check recompiles the identical job in-process and demands the
//            remote result blob be byte-identical (exit 1 when it is not) —
//            the same bit-identity bar the bench and CI gate on.
//   report   print the server's FlowService report JSON.
//   drain    ask the server to drain (afpga_flowd exits once it settles).
//
// Design specs: qdi_adder:N, mp_adder:N, wchb_fifo:BxD, mp_fifo:BxD,
// mousetrap_fifo:BxD.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/strings.hpp"
#include "cad/flow.hpp"
#include "cad/flow_client.hpp"
#include "cad/serialize.hpp"

using namespace afpga;

namespace {

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: afpga_client VERB (--unix PATH | --tcp HOST:PORT) [flags]\n"
                 "  compile --design SPEC [--fabric N] [--cw N] [--seed S]\n"
                 "          [--priority P] [--check] [--out FILE]\n"
                 "  report\n"
                 "  drain\n"
                 "design specs: qdi_adder:N mp_adder:N wchb_fifo:BxD mp_fifo:BxD\n"
                 "              mousetrap_fifo:BxD\n");
    std::exit(2);
}

/// A whole-string decimal in [0, max]; anything else is a usage error.
std::uint64_t number(const std::string& text, std::uint64_t max) {
    const auto v = base::parse_uint(text, max);
    if (!v) usage();
    return *v;
}

struct Design {
    netlist::Netlist nl;
    asynclib::MappingHints hints;
};

Design make_design(const std::string& spec) {
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) usage();
    const std::string kind = spec.substr(0, colon);
    const std::string dims = spec.substr(colon + 1);
    const std::size_t x = dims.find('x');
    const std::size_t n = number(dims.substr(0, x), UINT32_MAX);
    const std::size_t d = x == std::string::npos ? 0 : number(dims.substr(x + 1), UINT32_MAX);
    Design out;
    if (kind == "qdi_adder" && x == std::string::npos && n > 0) {
        auto a = asynclib::make_qdi_adder(n);
        out.nl = std::move(a.nl);
        out.hints = std::move(a.hints);
    } else if (kind == "mp_adder" && x == std::string::npos && n > 0) {
        auto a = asynclib::make_micropipeline_adder(n);
        out.nl = std::move(a.nl);
    } else if (kind == "wchb_fifo" && n > 0 && d > 0) {
        auto f = asynclib::make_wchb_fifo(n, d);
        out.nl = std::move(f.nl);
        out.hints = std::move(f.hints);
    } else if (kind == "mp_fifo" && n > 0 && d > 0) {
        auto f = asynclib::make_micropipeline_fifo(n, d);
        out.nl = std::move(f.nl);
    } else if (kind == "mousetrap_fifo" && n > 0 && d > 0) {
        auto f = asynclib::make_mousetrap_fifo(n, d);
        out.nl = std::move(f.nl);
    } else {
        usage();
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string verb = argv[1];
    std::string unix_path;
    std::string tcp_host;
    std::uint16_t tcp_port = 0;
    std::string design_spec;
    std::uint32_t fabric = 10;
    std::uint32_t cw = 12;
    std::uint64_t seed = 7;
    int priority = 0;
    bool do_check = false;
    std::string out_file;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        auto next_number = [&](std::uint64_t max) { return number(next(), max); };
        if (arg == "--unix") {
            unix_path = next();
        } else if (arg == "--tcp") {
            const std::string spec = next();
            const std::size_t colon = spec.rfind(':');
            if (colon == std::string::npos) usage();
            tcp_host = spec.substr(0, colon);
            tcp_port = static_cast<std::uint16_t>(number(spec.substr(colon + 1), UINT16_MAX));
        } else if (arg == "--design") {
            design_spec = next();
        } else if (arg == "--fabric") {
            fabric = static_cast<std::uint32_t>(next_number(UINT32_MAX));
        } else if (arg == "--cw") {
            cw = static_cast<std::uint32_t>(next_number(UINT32_MAX));
        } else if (arg == "--seed") {
            seed = next_number(UINT64_MAX);
        } else if (arg == "--priority") {
            priority = static_cast<int>(next_number(INT32_MAX));
        } else if (arg == "--check") {
            do_check = true;
        } else if (arg == "--out") {
            out_file = next();
        } else {
            usage();
        }
    }
    if (unix_path.empty() && tcp_host.empty()) usage();
    if (verb != "compile" && verb != "report" && verb != "drain") usage();
    if (verb == "compile" && design_spec.empty()) usage();

    try {
        // Before connecting, so a malformed spec is a usage error.
        Design design;
        if (verb == "compile") design = make_design(design_spec);
        cad::FlowClient client = unix_path.empty()
                                     ? cad::FlowClient::connect_tcp(tcp_host, tcp_port,
                                                                    "afpga_client")
                                     : cad::FlowClient::connect_unix(unix_path, "afpga_client");

        if (verb == "report") {
            std::printf("%s\n", client.report_json().c_str());
            return 0;
        }
        if (verb == "drain") {
            const std::uint64_t total = client.drain_server();
            std::printf("afpga_client: server draining (%llu jobs accepted in total)\n",
                        static_cast<unsigned long long>(total));
            return 0;
        }
        core::ArchSpec arch;
        arch.width = arch.height = fabric;
        arch.channel_width = cw;
        cad::FlowOptions opts;
        opts.seed = seed;

        cad::RemoteJobSpec job;
        job.name = design_spec;
        job.priority = priority;
        job.nl = &design.nl;
        job.hints = &design.hints;
        job.arch = arch;
        job.opts = opts;

        const std::uint64_t id = client.submit(job);
        std::printf("afpga_client: submitted %s as job %llu (lane %u)\n", design_spec.c_str(),
                    static_cast<unsigned long long>(id), client.lane());
        const cad::RemoteFlowResult res = client.wait(id, design_spec);
        if (!res.ok()) {
            std::fprintf(stderr, "afpga_client: job %llu failed: %s\n",
                         static_cast<unsigned long long>(id), res.error.c_str());
            return 1;
        }
        std::printf("afpga_client: job %llu ok: wall %.1f ms, queue %.1f ms, "
                    "start_seq %llu, result %zu bytes\n",
                    static_cast<unsigned long long>(id), res.wall_ms, res.queue_ms,
                    static_cast<unsigned long long>(res.start_seq), res.result_blob.size());

        if (!out_file.empty()) {
            std::ofstream out(out_file, std::ios::binary);
            if (!out) {
                std::fprintf(stderr, "afpga_client: cannot write %s\n", out_file.c_str());
                return 1;
            }
            out.write(reinterpret_cast<const char*>(res.result_blob.data()),
                      static_cast<std::streamsize>(res.result_blob.size()));
            std::printf("afpga_client: wrote %s\n", out_file.c_str());
        }

        if (do_check) {
            const cad::FlowResult local = cad::run_flow(design.nl, design.hints, arch, opts);
            const std::vector<std::uint8_t> local_blob =
                cad::ArtifactCodec<cad::BitstreamArtifact>::encode_blob(
                    cad::BitstreamArtifact{*local.bits, local.pad_names});
            if (local_blob != res.result_blob) {
                std::fprintf(stderr,
                             "afpga_client: CHECK FAILED: remote result (%zu bytes) is not "
                             "byte-identical to the in-process compile (%zu bytes)\n",
                             res.result_blob.size(), local_blob.size());
                return 1;
            }
            std::printf("afpga_client: check ok: remote result byte-identical to the "
                        "in-process compile\n");
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "afpga_client: %s\n", e.what());
        return 1;
    }
}
