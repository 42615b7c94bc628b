// afpga_flowd: the compile-as-a-service daemon. Binds a FlowServer on a
// Unix-domain socket and/or TCP, prints one flushed "listening" line per
// bound endpoint (scripts wait for it before launching clients), then serves
// until either a client issues the wire Drain verb or the process receives
// SIGINT/SIGTERM. Both paths drain gracefully: accepted jobs finish and
// every claimed result stream flushes before the listeners close. A second
// signal skips the drain wait and stops immediately.
//
// Usage:
//   afpga_flowd --unix PATH [--tcp [HOST:]PORT] [--threads N]
//               [--max-pending N] [--retry-ms N] [--cache-dir DIR]
#include <csignal>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "base/strings.hpp"
#include "cad/flow_server.hpp"

namespace {

volatile std::sig_atomic_t g_signals = 0;

void on_signal(int) { g_signals = g_signals + 1; }

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: afpga_flowd --unix PATH [--tcp [HOST:]PORT] [--threads N]\n"
                 "                   [--max-pending N] [--retry-ms N] [--cache-dir DIR]\n");
    std::exit(2);
}

/// A whole-string decimal in [0, max]; anything else is a usage error.
std::uint64_t number(const std::string& text, std::uint64_t max) {
    const auto v = afpga::base::parse_uint(text, max);
    if (!v) usage();
    return *v;
}

}  // namespace

int main(int argc, char** argv) {
    afpga::cad::FlowServerOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        auto next_number = [&](std::uint64_t max) { return number(next(), max); };
        if (arg == "--unix") {
            opts.unix_path = next();
        } else if (arg == "--tcp") {
            opts.tcp = true;
            const std::string spec = next();
            const std::size_t colon = spec.rfind(':');
            if (colon != std::string::npos) opts.tcp_host = spec.substr(0, colon);
            opts.tcp_port = static_cast<std::uint16_t>(
                number(colon == std::string::npos ? spec : spec.substr(colon + 1), UINT16_MAX));
        } else if (arg == "--threads") {
            // The service refuses a count past its cap, by name.
            opts.service.threads = static_cast<unsigned>(next_number(UINT32_MAX));
        } else if (arg == "--max-pending") {
            opts.max_pending = static_cast<std::uint32_t>(next_number(UINT32_MAX));
        } else if (arg == "--retry-ms") {
            opts.retry_after_ms = static_cast<std::uint32_t>(next_number(UINT32_MAX));
        } else if (arg == "--cache-dir") {
            opts.service.artifact_cache_dir = next();
        } else {
            usage();
        }
    }
    if (opts.unix_path.empty() && !opts.tcp) usage();

    try {
        afpga::cad::FlowServer server(std::move(opts));
        server.start();
        if (!server.unix_path().empty()) {
            std::printf("afpga_flowd: listening on unix %s\n", server.unix_path().c_str());
        }
        if (server.tcp_port() != 0) {
            std::printf("afpga_flowd: listening on tcp port %u\n", unsigned{server.tcp_port()});
        }
        std::fflush(stdout);

        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);

        // Serve until a Drain verb settles or a signal arrives; a second
        // signal abandons the drain wait.
        bool signalled = false;
        for (;;) {
            if (g_signals > 0 && !signalled) {
                signalled = true;
                std::printf("afpga_flowd: signal received, draining\n");
                std::fflush(stdout);
                server.drain();
            }
            if (g_signals > 1) {
                std::printf("afpga_flowd: second signal, stopping now\n");
                break;
            }
            if (server.is_drained()) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        server.stop();
        const afpga::cad::FlowServerStats st = server.stats();
        std::printf("afpga_flowd: drained; %llu submits, %llu results streamed, "
                    "%llu busy, %llu protocol errors\n",
                    static_cast<unsigned long long>(st.submits_accepted),
                    static_cast<unsigned long long>(st.results_streamed),
                    static_cast<unsigned long long>(st.submits_rejected_busy),
                    static_cast<unsigned long long>(st.protocol_errors));
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "afpga_flowd: %s\n", e.what());
        return 1;
    }
}
