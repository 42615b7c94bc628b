// Fault injection for the FlowServer socket front-end: wire-vs-in-process
// bit identity over both transports, request-level errors that must not kill
// the connection, non-finite place knobs that must fail only their job,
// garbage bytes that must kill exactly one connection,
// client disconnects cancelling queued jobs and orphaning running ones,
// cancel-after-disconnect, slow-reader backpressure with a bounded outbound
// backlog, Busy queue-bound backpressure, graceful drain, and a multi-client
// soak pinning per-client fairness + priority scheduling + bit identity.
// The CI TSan leg executes this binary.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "asynclib/adders.hpp"
#include "base/check.hpp"
#include "cad/flow.hpp"
#include "cad/flow_client.hpp"
#include "cad/flow_server.hpp"
#include "cad/serialize.hpp"

namespace {

using namespace afpga;
namespace wire = cad::wire;

std::string sock_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / ("afpga_fs_" + name + ".sock")).string();
}

/// Poll `pred` for up to `ms` milliseconds (server state lands via the IO
/// thread, so assertions on stats/status need a settle window).
template <typename Pred>
bool eventually(Pred pred, int ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/// The in-process reference: run the flow locally and encode the result
/// exactly the way the server streams it.
std::vector<std::uint8_t> local_blob(const netlist::Netlist& nl,
                                     const asynclib::MappingHints& hints,
                                     const core::ArchSpec& arch, const cad::FlowOptions& opts) {
    const cad::FlowResult fr = cad::run_flow(nl, hints, arch, opts);
    return cad::ArtifactCodec<cad::BitstreamArtifact>::encode_blob(
        cad::BitstreamArtifact{*fr.bits, fr.pad_names});
}

cad::RemoteJobSpec adder_job(const asynclib::QdiAdder& d, const core::ArchSpec& arch,
                             std::uint64_t seed, int priority = 0) {
    cad::RemoteJobSpec j;
    j.name = "adder_s" + std::to_string(seed);
    j.priority = priority;
    j.nl = &d.nl;
    j.hints = &d.hints;
    j.arch = arch;
    j.opts.seed = seed;
    return j;
}

// --- raw-socket helpers (for protocol-level fault injection) ----------------

int connect_unix_raw(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    base::check(path.size() < sizeof(addr.sun_path), "raw: path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    base::check(fd >= 0, "raw: socket failed");
    base::check(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                "raw: connect failed");
    return fd;
}

void send_all_raw(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        base::check(n > 0, "raw: send failed");
        off += static_cast<std::size_t>(n);
    }
}

template <typename M>
void send_frame_raw(int fd, const M& m) {
    send_all_raw(fd, wire::encode(m));
}

/// Read until the server closes the connection (it poisons by sending a
/// best-effort Error frame and then dropping us). Returns the bytes seen.
std::vector<std::uint8_t> drain_until_eof_raw(int fd) {
    std::vector<std::uint8_t> seen;
    std::uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        seen.insert(seen.end(), buf, buf + n);
    }
    return seen;
}

wire::Frame read_frame_raw(int fd, wire::FrameDecoder& dec, std::size_t max_read = 64 * 1024) {
    for (;;) {
        if (auto f = dec.next()) return *std::move(f);
        std::vector<std::uint8_t> buf(max_read);
        const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
        base::check(n > 0, "raw: server closed the connection");
        dec.feed(buf.data(), static_cast<std::size_t>(n));
    }
}

// ---------------------------------------------------------------------------

TEST(FlowServer, UnixAndTcpResultsAreByteIdenticalToInProcess) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;

    cad::FlowServerOptions so;
    so.unix_path = sock_path("both");
    so.tcp = true;  // ephemeral port
    so.service.threads = 2;
    cad::FlowServer server(std::move(so));
    server.start();

    cad::FlowClient over_unix = cad::FlowClient::connect_unix(server.unix_path(), "u");
    cad::FlowClient over_tcp =
        cad::FlowClient::connect_tcp("127.0.0.1", server.tcp_port(), "t");
    EXPECT_NE(over_unix.lane(), over_tcp.lane());

    const std::uint64_t id_u = over_unix.submit(adder_job(adder, arch, 1));
    const std::uint64_t id_t = over_tcp.submit(adder_job(adder, arch, 2));

    const cad::RemoteFlowResult ru = over_unix.wait(id_u, "u_s1");
    const cad::RemoteFlowResult rt = over_tcp.wait(id_t, "t_s2");
    ASSERT_TRUE(ru.ok()) << ru.error;
    ASSERT_TRUE(rt.ok()) << rt.error;
    EXPECT_FALSE(ru.telemetry_json.empty());
    EXPECT_GT(ru.start_seq, 0u);

    cad::FlowOptions o1, o2;
    o1.seed = 1;
    o2.seed = 2;
    EXPECT_EQ(ru.result_blob, local_blob(adder.nl, adder.hints, arch, o1));
    EXPECT_EQ(rt.result_blob, local_blob(adder.nl, adder.hints, arch, o2));
    // The blob decodes back into a usable artifact.
    EXPECT_GT(ru.decode_bitstream().bits.size_bits(), 0u);

    const cad::FlowServerStats st = server.stats();
    EXPECT_EQ(st.submits_accepted, 2u);
    EXPECT_EQ(st.results_streamed, 2u);
    EXPECT_EQ(st.protocol_errors, 0u);
    server.stop();
}

TEST(FlowServer, RequestErrorsDoNotPoisonTheConnection) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("reqerr");
    so.service.threads = 1;
    cad::FlowServer server(std::move(so));
    server.start();

    cad::FlowClient client = cad::FlowClient::connect_unix(server.unix_path());
    EXPECT_THROW((void)client.status(1234), base::Error);   // unknown job
    EXPECT_THROW((void)client.wait(1234), base::Error);     // unknown job
    // The connection survives request-level errors: a real compile works.
    const std::uint64_t id = client.submit(adder_job(adder, arch, 1));
    ASSERT_TRUE(client.wait(id).ok());
    // A streamed result is gone: a second Wait is UnknownJob, not a replay.
    EXPECT_THROW((void)client.wait(id), base::Error);
    EXPECT_EQ(server.stats().protocol_errors, 0u);  // none of these poison
    server.stop();
}

TEST(FlowServer, NonFinitePlaceKnobsFailOnlyThatJob) {
    // A Submit frame can carry any float bit pattern. A NaN coarsen_ratio or
    // an infinite moves_scale must fail that job by name, not the daemon.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("nonfinite");
    so.service.threads = 1;
    cad::FlowServer server(std::move(so));
    server.start();

    cad::FlowClient client = cad::FlowClient::connect_unix(server.unix_path());
    cad::RemoteJobSpec nan_ratio = adder_job(adder, arch, 1);
    nan_ratio.opts.place.coarsen_ratio = std::numeric_limits<double>::quiet_NaN();
    cad::RemoteJobSpec inf_moves = adder_job(adder, arch, 1);
    inf_moves.opts.place.moves_scale = std::numeric_limits<double>::infinity();
    const std::uint64_t id_nan = client.submit(nan_ratio);
    const std::uint64_t id_inf = client.submit(inf_moves);
    const std::uint64_t id_ok = client.submit(adder_job(adder, arch, 1));

    const auto r_nan = client.wait(id_nan);
    EXPECT_EQ(r_nan.status, cad::FlowJobStatus::Failed);
    EXPECT_NE(r_nan.error.find("coarsen_ratio"), std::string::npos) << r_nan.error;
    const auto r_inf = client.wait(id_inf);
    EXPECT_EQ(r_inf.status, cad::FlowJobStatus::Failed);
    EXPECT_NE(r_inf.error.find("moves_scale"), std::string::npos) << r_inf.error;
    EXPECT_TRUE(client.wait(id_ok).ok());
    EXPECT_EQ(server.stats().protocol_errors, 0u);
    server.stop();
}

TEST(FlowServer, GarbageBytesPoisonOnlyThatConnection) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("garbage");
    so.service.threads = 1;
    cad::FlowServer server(std::move(so));
    server.start();

    {
        // Not even a valid header: the server must poison this connection.
        // Hold the socket open until the server's Error-and-drop lands, so
        // the bytes are actually read (closing first would just look like a
        // plain disconnect).
        const int fd = connect_unix_raw(server.unix_path());
        std::vector<std::uint8_t> junk(64);
        for (std::size_t i = 0; i < junk.size(); ++i) junk[i] = static_cast<std::uint8_t>(i ^ 0x5a);
        send_all_raw(fd, junk);
        const std::vector<std::uint8_t> reply = drain_until_eof_raw(fd);
        EXPECT_FALSE(reply.empty());  // best-effort Error frame preceded the drop
        ::close(fd);
    }
    {
        // A well-formed frame out of protocol order (Status before Hello)
        // is equally poisonous.
        const int fd = connect_unix_raw(server.unix_path());
        wire::StatusMsg m;
        m.job_id = 0;
        send_frame_raw(fd, m);
        wire::FrameDecoder dec;
        std::vector<std::uint8_t> reply = drain_until_eof_raw(fd);
        dec.feed(reply);
        const auto err = dec.next();
        ASSERT_TRUE(err.has_value());
        EXPECT_EQ(err->type, wire::MsgType::Error);
        ::close(fd);
    }
    EXPECT_TRUE(eventually([&] { return server.stats().protocol_errors >= 2; }));
    EXPECT_TRUE(eventually([&] { return server.stats().connections_dropped >= 2; }));

    // A healthy client on the same server is completely unaffected.
    cad::FlowClient client = cad::FlowClient::connect_unix(server.unix_path());
    const std::uint64_t id = client.submit(adder_job(adder, arch, 1));
    const cad::RemoteFlowResult r = client.wait(id);
    ASSERT_TRUE(r.ok()) << r.error;
    cad::FlowOptions o;
    o.seed = 1;
    EXPECT_EQ(r.result_blob, local_blob(adder.nl, adder.hints, arch, o));
    server.stop();
}

TEST(FlowServer, DisconnectCancelsQueuedJobsAndRetiresOrphans) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("disc");
    so.service.threads = 1;
    cad::FlowServer server(std::move(so));
    server.start();

    // Three jobs parked in a paused queue, then the client vanishes: every
    // one must be cancelled on disconnect (none ever ran).
    server.service().pause();
    {
        cad::FlowClient client = cad::FlowClient::connect_unix(server.unix_path());
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            (void)client.submit(adder_job(adder, arch, seed));
    }  // destructor closes the socket
    EXPECT_TRUE(eventually([&] { return server.stats().jobs_cancelled_on_disconnect == 3; }));
    EXPECT_TRUE(eventually([&] { return server.stats().connections_dropped == 1; }));
    server.service().resume();

    // A running job whose client vanishes finishes as an orphan and is
    // retired (its result freed) rather than leaking.
    std::uint64_t orphan_id = 0;
    {
        cad::FlowClient client = cad::FlowClient::connect_unix(server.unix_path());
        orphan_id = client.submit(adder_job(adder, arch, 4));
        EXPECT_TRUE(eventually([&] {
            return server.service().peek(orphan_id).status != cad::FlowJobStatus::Queued;
        }));
    }
    EXPECT_TRUE(eventually([&] { return server.service().peek(orphan_id).taken; }));
    EXPECT_EQ(server.stats().results_streamed, 0u);
    server.stop();
}

TEST(FlowServer, CancelAfterDisconnectIsCleanForTheNextClient) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("cancel");
    so.service.threads = 1;
    cad::FlowServer server(std::move(so));
    server.start();

    server.service().pause();
    std::uint64_t id = 0;
    {
        cad::FlowClient a = cad::FlowClient::connect_unix(server.unix_path(), "a");
        id = a.submit(adder_job(adder, arch, 1));
    }
    EXPECT_TRUE(eventually([&] { return server.stats().jobs_cancelled_on_disconnect == 1; }));

    // A second client cancelling the ghost job gets a clean "already
    // settled" reply — not an error, not a crash.
    cad::FlowClient b = cad::FlowClient::connect_unix(server.unix_path(), "b");
    EXPECT_FALSE(b.cancel(id));
    EXPECT_EQ(b.status(id).status, static_cast<std::uint8_t>(cad::FlowJobStatus::Cancelled));
    // Cancelling a job id that never existed is a request-level error.
    EXPECT_THROW((void)b.cancel(id + 100), base::Error);
    server.service().resume();
    server.stop();
}

TEST(FlowServer, SlowReaderBackpressureBoundsTheOutboundBacklog) {
    // A ~540 KB result (tiny design, huge fabric -> big bitstream) streamed
    // to a reader sipping 2 KB at a time. The server may buffer at most
    // max_conn_outbound_bytes + one chunk frame per connection; the blob is
    // several times that, so streaming must pause and resume — and the
    // reassembled bytes must still be checksum-perfect and bit-identical.
    auto adder = asynclib::make_qdi_adder(4);
    core::ArchSpec arch;
    arch.width = arch.height = 64;
    arch.channel_width = 32;

    cad::FlowServerOptions so;
    so.unix_path = sock_path("slow");
    so.service.threads = 1;
    so.max_conn_outbound_bytes = 32 * 1024;
    cad::FlowServer server(std::move(so));
    server.start();

    const int fd = connect_unix_raw(server.unix_path());
    wire::FrameDecoder dec;
    wire::HelloMsg hello;
    hello.client_name = "slow_reader";
    send_frame_raw(fd, hello);
    ASSERT_EQ(read_frame_raw(fd, dec).type, wire::MsgType::HelloOk);

    wire::SubmitMsg submit;
    submit.name = "big_blob";
    submit.nl = adder.nl;
    submit.hints = adder.hints;
    submit.arch = arch;
    submit.opts.seed = 1;
    send_frame_raw(fd, submit);
    const wire::Frame ok = read_frame_raw(fd, dec);
    ASSERT_EQ(ok.type, wire::MsgType::SubmitOk);
    const std::uint64_t id = wire::decode<wire::SubmitOkMsg>(ok).job_id;

    wire::WaitMsg wait;
    wait.job_id = id;
    send_frame_raw(fd, wait);

    // Sip the stream: tiny reads with a pause between them, so the kernel
    // buffers fill and the server's own backlog cap has to do the limiting.
    std::vector<std::uint8_t> blob;
    std::uint64_t announced = 0;
    for (bool done = false; !done;) {
        const wire::Frame f = read_frame_raw(fd, dec, /*max_read=*/2048);
        switch (f.type) {
            case wire::MsgType::ResultBegin: {
                const auto begin = wire::decode<wire::ResultBeginMsg>(f);
                ASSERT_EQ(begin.status, static_cast<std::uint8_t>(cad::FlowJobStatus::Ok))
                    << begin.error;
                announced = begin.result_bytes;
                break;
            }
            case wire::MsgType::ResultChunk: {
                const auto chunk = wire::decode<wire::ResultChunkMsg>(f);
                ASSERT_EQ(chunk.offset, blob.size());
                blob.insert(blob.end(), chunk.bytes.begin(), chunk.bytes.end());
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                break;
            }
            case wire::MsgType::ResultEnd: {
                const auto end = wire::decode<wire::ResultEndMsg>(f);
                EXPECT_EQ(end.checksum, wire::fnv1a64(blob.data(), blob.size()));
                done = true;
                break;
            }
            default:
                FAIL() << "unexpected frame " << wire::to_string(f.type);
        }
    }
    ::close(fd);

    ASSERT_EQ(blob.size(), announced);
    cad::FlowOptions o;
    o.seed = 1;
    EXPECT_EQ(blob, local_blob(adder.nl, adder.hints, arch, o));

    // Bounded memory: the blob is much larger than the cap, yet the peak
    // backlog never exceeded cap + one chunk frame (+ header slack).
    const cad::FlowServerStats st = server.stats();
    const std::uint64_t bound = 32 * 1024 + wire::kResultChunkBytes + 4096;
    EXPECT_GT(blob.size(), 4u * bound / 2u);  // the cap had to engage
    EXPECT_LE(st.max_outbound_bytes_observed, bound);
    EXPECT_EQ(st.results_streamed, 1u);
    server.stop();
}

TEST(FlowServer, ClientDoesNotTrustAnAnnouncedResultSize) {
    // A scripted peer answers Hello, then answers Wait with a ResultBegin
    // announcing 2^62 bytes and hangs up. The client must fail with
    // base::Error, not try to reserve the announced size up front.
    const std::string path = sock_path("announce");
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    std::thread peer([lfd] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) return;
        try {
            wire::FrameDecoder dec;
            (void)wire::decode<wire::HelloMsg>(read_frame_raw(fd, dec));
            send_frame_raw(fd, wire::HelloOkMsg{});
            const auto wait = wire::decode<wire::WaitMsg>(read_frame_raw(fd, dec));
            wire::ResultBeginMsg begin;
            begin.job_id = wait.job_id;
            begin.status = static_cast<std::uint8_t>(cad::FlowJobStatus::Ok);
            begin.result_bytes = std::uint64_t{1} << 62;
            send_frame_raw(fd, begin);
        } catch (const base::Error&) {
            // The client's assertion below reports what went wrong.
        }
        ::close(fd);
    });
    {
        cad::FlowClient client = cad::FlowClient::connect_unix(path, "scripted");
        EXPECT_THROW((void)client.wait(7), base::Error);
    }
    peer.join();
    ::close(lfd);
    ::unlink(path.c_str());
}

TEST(FlowServer, BusyBackpressureHonoursTheQueueBound) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("busy");
    so.service.threads = 1;
    so.max_pending = 2;
    so.retry_after_ms = 5;
    cad::FlowServer server(std::move(so));
    server.start();

    server.service().pause();
    cad::FlowClient client = cad::FlowClient::connect_unix(server.unix_path());
    EXPECT_EQ(client.max_pending(), 2u);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const auto id = client.try_submit(adder_job(adder, arch, seed));
        ASSERT_TRUE(id.has_value()) << seed;
        ids.push_back(*id);
    }
    // The queue is at its bound: the next submit bounces with Busy.
    EXPECT_FALSE(client.try_submit(adder_job(adder, arch, 3)).has_value());
    EXPECT_GE(server.stats().submits_rejected_busy, 1u);
    EXPECT_LE(server.stats().max_queue_depth_observed, 2u);

    // submit() rides the backpressure out once the queue drains.
    server.service().resume();
    ids.push_back(client.submit(adder_job(adder, arch, 3)));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const cad::RemoteFlowResult r = client.wait(ids[i]);
        ASSERT_TRUE(r.ok()) << r.error;
        cad::FlowOptions o;
        o.seed = i + 1;
        EXPECT_EQ(r.result_blob, local_blob(adder.nl, adder.hints, arch, o));
    }
    server.stop();
}

TEST(FlowServer, DrainRefusesSubmitsServesWaitsThenSettles) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("drain");
    so.service.threads = 1;
    cad::FlowServer server(std::move(so));
    server.start();

    server.service().pause();
    cad::FlowClient client = cad::FlowClient::connect_unix(server.unix_path());
    const std::uint64_t id = client.submit(adder_job(adder, arch, 1));

    // Drain with the queue still full: the accepted job must survive.
    EXPECT_EQ(client.drain_server(), 1u);
    try {
        (void)client.try_submit(adder_job(adder, arch, 2));
        FAIL() << "submit during drain was accepted";
    } catch (const base::Error& e) {
        EXPECT_NE(std::string(e.what()).find("draining"), std::string::npos) << e.what();
    }
    EXPECT_GE(server.stats().submits_rejected_draining, 1u);

    // The parked wait is still served after the queue resumes...
    server.service().resume();
    const cad::RemoteFlowResult r = client.wait(id);
    ASSERT_TRUE(r.ok()) << r.error;
    cad::FlowOptions o;
    o.seed = 1;
    EXPECT_EQ(r.result_blob, local_blob(adder.nl, adder.hints, arch, o));

    // ...and with every job terminal and every stream flushed, the server
    // settles into Drained.
    EXPECT_TRUE(eventually([&] { return server.is_drained(); }));
    server.wait_drained();  // returns immediately once settled
    server.stop();
}

TEST(FlowServer, MultiClientSoakIsFairPriorityAwareAndBitIdentical) {
    // Three clients park three jobs each in a paused queue, then a fourth
    // client adds one high-priority job. On resume the scheduler must run
    // the priority job first and round-robin the rest across the client
    // lanes (A B C A B C A B C by dispatch order), and every result must be
    // byte-identical to an in-process compile of the same seed.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServerOptions so;
    so.unix_path = sock_path("soak");
    so.service.threads = 2;
    cad::FlowServer server(std::move(so));
    server.start();

    server.service().pause();
    std::vector<cad::FlowClient> clients;
    for (const char* name : {"a", "b", "c"})
        clients.push_back(cad::FlowClient::connect_unix(server.unix_path(), name));

    std::vector<std::vector<std::uint64_t>> ids(3);
    std::vector<std::vector<std::uint64_t>> seeds(3);
    std::uint64_t seed = 1;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        for (int j = 0; j < 3; ++j, ++seed) {
            ids[c].push_back(clients[c].submit(adder_job(adder, arch, seed)));
            seeds[c].push_back(seed);
        }
    }
    cad::FlowClient vip = cad::FlowClient::connect_unix(server.unix_path(), "vip");
    const std::uint64_t vip_id = vip.submit(adder_job(adder, arch, seed, /*priority=*/5));
    server.service().resume();

    // Collect everything; clients wait concurrently like real tools would.
    struct Seen {
        std::uint64_t start_seq = 0;
        std::uint32_t lane = 0;
    };
    std::vector<Seen> seen;
    std::mutex seen_mu;
    std::vector<std::thread> waiters;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        waiters.emplace_back([&, c] {
            for (std::size_t j = 0; j < ids[c].size(); ++j) {
                const cad::RemoteFlowResult r = clients[c].wait(ids[c][j]);
                ASSERT_TRUE(r.ok()) << r.error;
                cad::FlowOptions o;
                o.seed = seeds[c][j];
                EXPECT_EQ(r.result_blob, local_blob(adder.nl, adder.hints, arch, o));
                std::lock_guard<std::mutex> lock(seen_mu);
                seen.push_back({r.start_seq, clients[c].lane()});
            }
        });
    }
    const cad::RemoteFlowResult vip_res = vip.wait(vip_id);
    for (auto& t : waiters) t.join();
    ASSERT_TRUE(vip_res.ok()) << vip_res.error;

    // The priority job was dispatched first despite being submitted last.
    EXPECT_EQ(vip_res.start_seq, 1u);

    // The other nine dispatched round-robin across the three client lanes.
    std::sort(seen.begin(), seen.end(),
              [](const Seen& x, const Seen& y) { return x.start_seq < y.start_seq; });
    ASSERT_EQ(seen.size(), 9u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].start_seq, i + 2) << i;  // dense after the vip job
        EXPECT_EQ(seen[i].lane, clients[i % 3].lane()) << "dispatch slot " << i;
    }

    const cad::FlowServerStats st = server.stats();
    EXPECT_EQ(st.submits_accepted, 10u);
    EXPECT_EQ(st.results_streamed, 10u);
    EXPECT_EQ(st.protocol_errors, 0u);
    server.stop();
}

}  // namespace
