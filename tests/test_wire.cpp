// The cad/wire frame and payload codecs: framing round-trips over arbitrary
// stream splits, every header field is validated, truncation at every prefix
// stays cleanly incomplete, and a deterministic fuzzer mutating every byte
// offset of a valid frame proves the decoder never accepts a corrupted
// frame as valid (mirroring test_serialize's truncation-at-every-prefix
// idiom one layer down). The payload codecs — netlist (with handshake
// feedback cycles and verbatim sink order), hints, flow options and all 18
// messages — are pinned by re-encode byte identity and by recorded payload
// digests; every message's decoder rejects every truncation and decodes any
// single-byte mutation either not at all or faithfully; and
// Netlist::from_parts rejects every class of structurally hostile table.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "cad/wire.hpp"

namespace {

using namespace afpga;
namespace wire = cad::wire;

/// The payload bytes of `v`'s field list.
template <typename T>
std::vector<std::uint8_t> payload_of(const T& v) {
    cad::BlobWriter w;
    wire::encode_fields(v, w);
    return std::move(w).take();
}

/// Decode `payload` as a message of type `M`.
template <typename M>
M decode_payload(const std::vector<std::uint8_t>& payload) {
    return wire::decode<M>(wire::Frame{M::kType, payload});
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> demo_payload() {
    wire::StatusReplyMsg m;
    m.job_id = 42;
    m.status = 2;
    m.start_seq = 7;
    m.wall_ms = 12.5;
    m.queue_ms = 0.25;
    m.error = "none";
    return payload_of(m);
}

TEST(WireFrame, RoundTripsWholeAndByteAtATime) {
    const std::vector<std::uint8_t> payload = demo_payload();
    const std::vector<std::uint8_t> frame =
        wire::encode_frame(wire::MsgType::StatusReply, payload);
    ASSERT_EQ(frame.size(), wire::kHeaderBytes + payload.size());

    {
        wire::FrameDecoder dec;
        dec.feed(frame);
        const auto f = dec.next();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->type, wire::MsgType::StatusReply);
        EXPECT_EQ(f->payload, payload);
        EXPECT_TRUE(dec.idle());
        EXPECT_FALSE(dec.next().has_value());
    }
    {
        // Sockets deliver any split; one byte at a time is the worst case.
        wire::FrameDecoder dec;
        for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
            dec.feed(&frame[i], 1);
            EXPECT_FALSE(dec.next().has_value()) << "complete after " << (i + 1) << " bytes";
        }
        dec.feed(&frame.back(), 1);
        const auto f = dec.next();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->payload, payload);
    }
}

TEST(WireFrame, BackToBackFramesComeOutInOrder) {
    wire::FrameDecoder dec;
    std::vector<std::uint8_t> stream;
    for (std::uint64_t id = 0; id < 5; ++id) {
        wire::StatusMsg m;
        m.job_id = id;
        const auto frame = wire::encode(m);
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    dec.feed(stream);
    for (std::uint64_t id = 0; id < 5; ++id) {
        const auto f = dec.next();
        ASSERT_TRUE(f.has_value()) << id;
        EXPECT_EQ(wire::decode<wire::StatusMsg>(*f).job_id, id);
    }
    EXPECT_TRUE(dec.idle());
}

TEST(WireFrame, EmptyPayloadFrames) {
    const auto frame = wire::encode(wire::DrainMsg{});
    wire::FrameDecoder dec;
    dec.feed(frame);
    const auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, wire::MsgType::Drain);
    EXPECT_TRUE(f->payload.empty());
}

TEST(WireFrame, TruncationAtEveryPrefixStaysIncomplete) {
    const auto frame = wire::encode_frame(wire::MsgType::StatusReply, demo_payload());
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        wire::FrameDecoder dec;
        dec.feed(frame.data(), cut);
        // A prefix of a valid frame is never an error — only incomplete.
        std::optional<wire::Frame> f;
        ASSERT_NO_THROW(f = dec.next()) << "cut at " << cut;
        EXPECT_FALSE(f.has_value()) << "cut at " << cut;
        // Feeding the remainder completes the frame with nothing lost.
        dec.feed(frame.data() + cut, frame.size() - cut);
        ASSERT_NO_THROW(f = dec.next()) << "resume at " << cut;
        ASSERT_TRUE(f.has_value()) << "resume at " << cut;
        EXPECT_EQ(f->payload, demo_payload());
    }
}

void expect_rejected(std::vector<std::uint8_t> frame, const char* what) {
    wire::FrameDecoder dec;
    dec.feed(frame);
    EXPECT_THROW((void)dec.next(), base::Error) << what;
}

TEST(WireFrame, HeaderFieldValidation) {
    const auto good = wire::encode_frame(wire::MsgType::StatusReply, demo_payload());

    auto with_u32 = [&](std::size_t off, std::uint32_t v) {
        std::vector<std::uint8_t> f = good;
        for (int i = 0; i < 4; ++i) f[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
        return f;
    };
    expect_rejected(with_u32(0, 0xdeadbeef), "bad magic");
    expect_rejected(with_u32(4, wire::kProtocolVersion + 1), "bad version");
    expect_rejected(with_u32(4, wire::kProtocolVersion - 1), "previous version");
    expect_rejected(with_u32(8, 0), "type zero");
    expect_rejected(with_u32(8, wire::kMaxMsgType + 1), "type past max");
    expect_rejected(with_u32(12, static_cast<std::uint32_t>(wire::kMaxPayloadBytes) + 1),
                    "payload over cap");

    // A flipped payload bit fails the checksum.
    std::vector<std::uint8_t> corrupt = good;
    corrupt[wire::kHeaderBytes] ^= 0x01;
    expect_rejected(std::move(corrupt), "payload bit flip");

    // A flipped type that is still in range fails too: the checksum covers
    // the type bytes, so corruption cannot relabel a valid message.
    std::vector<std::uint8_t> relabel = good;
    relabel[8] = static_cast<std::uint8_t>(wire::MsgType::Status);
    expect_rejected(std::move(relabel), "type relabel");
}

TEST(WireFrame, MutationFuzzEveryByteOffsetRejectsCleanly) {
    // Deterministic fuzz: flip one bit at every byte offset of a valid
    // frame (bit index varies with the offset, so header fields see
    // different corruptions) and feed exactly the mutated bytes. The
    // decoder must never hand back a valid frame: every mutation either
    // throws (magic/version/type/length/checksum validation) or leaves the
    // stream incomplete (a length field grown past the bytes on hand).
    const auto frame = wire::encode_frame(wire::MsgType::StatusReply, demo_payload());
    std::size_t threw = 0;
    std::size_t incomplete = 0;
    for (std::size_t off = 0; off < frame.size(); ++off) {
        std::vector<std::uint8_t> mut = frame;
        mut[off] ^= static_cast<std::uint8_t>(1u << (off % 8));
        wire::FrameDecoder dec;
        dec.feed(mut);
        try {
            const auto f = dec.next();
            EXPECT_FALSE(f.has_value()) << "mutation at offset " << off << " was accepted";
            ++incomplete;
        } catch (const base::Error&) {
            ++threw;  // expected: validation caught the corruption
        }
    }
    EXPECT_EQ(threw + incomplete, frame.size());
    // Both rejection modes must actually occur on this frame shape.
    EXPECT_GT(threw, 0u);
    EXPECT_GT(incomplete, 0u);
}

TEST(WireFrame, TruncatingMutatedLengthNeverCrashes) {
    // Combine the two corruptions: for every byte offset, flip a bit AND
    // truncate the stream right after that offset. Decode must throw or
    // stay incomplete — never crash or accept.
    const auto frame = wire::encode_frame(wire::MsgType::StatusReply, demo_payload());
    for (std::size_t off = 0; off < frame.size(); ++off) {
        std::vector<std::uint8_t> mut(frame.begin(),
                                      frame.begin() + static_cast<std::ptrdiff_t>(off + 1));
        mut[off] ^= 0xff;
        wire::FrameDecoder dec;
        dec.feed(mut);
        try {
            const auto f = dec.next();
            EXPECT_FALSE(f.has_value()) << "offset " << off;
        } catch (const base::Error&) {
            // expected for corrupted-header prefixes
        }
    }
}

TEST(WireFrame, Fnv1a64IsSensitiveToEveryByte) {
    std::vector<std::uint8_t> buf(257);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 37);
    const std::uint64_t base_digest = wire::fnv1a64(buf.data(), buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] ^= 0x01;
        EXPECT_NE(wire::fnv1a64(buf.data(), buf.size()), base_digest) << i;
        buf[i] ^= 0x01;
    }
    EXPECT_EQ(wire::fnv1a64(buf.data(), buf.size()), base_digest);
}

TEST(WireFrame, OversizedEncodeThrows) {
    wire::ResultChunkMsg chunk;
    chunk.bytes.assign(wire::kResultChunkBytes + 1, 0);
    EXPECT_THROW((void)wire::encode(chunk), base::Error);
}

// ---------------------------------------------------------------------------
// Payload codecs: re-encode byte identity pins structural equality.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> netlist_bytes(const netlist::Netlist& nl) {
    cad::BlobWriter w;
    wire::encode_netlist(nl, w);
    return std::move(w).take();
}

void expect_netlist_roundtrip(const netlist::Netlist& nl, const char* what) {
    const std::vector<std::uint8_t> bytes = netlist_bytes(nl);
    cad::BlobReader r(bytes);
    const netlist::Netlist back = wire::decode_netlist(r);
    r.expect_end();
    EXPECT_EQ(back.num_cells(), nl.num_cells()) << what;
    EXPECT_EQ(back.num_nets(), nl.num_nets()) << what;
    EXPECT_EQ(back.name(), nl.name()) << what;
    // Re-encoding must reproduce the bytes exactly — this pins cell order,
    // net order, PI/PO lists and every net's verbatim sink order.
    EXPECT_EQ(netlist_bytes(back), bytes) << what;
}

TEST(WireCodec, NetlistRoundTripsIncludingFeedbackCycles) {
    // The QDI adder's C-elements and the WCHB FIFO's handshake loops give
    // the decoder self-references and cycles the construction API could not
    // replay in arbitrary sink order.
    expect_netlist_roundtrip(asynclib::make_qdi_adder(2).nl, "qdi_adder_2");
    expect_netlist_roundtrip(asynclib::make_wchb_fifo(2, 2).nl, "wchb_fifo_2x2");
    expect_netlist_roundtrip(asynclib::make_micropipeline_adder(2).nl, "mp_adder_2");
    expect_netlist_roundtrip(asynclib::make_mousetrap_fifo(2, 2).nl, "mousetrap_2x2");
}

TEST(WireCodec, HintsRoundTrip) {
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    cad::BlobWriter w;
    wire::encode_hints(fifo.hints, w);
    const std::vector<std::uint8_t> bytes = std::move(w).take();
    cad::BlobReader r(bytes);
    const asynclib::MappingHints back = wire::decode_hints(r);
    r.expect_end();
    EXPECT_EQ(back.rail_pairs, fifo.hints.rail_pairs);
    EXPECT_EQ(back.validity_nets, fifo.hints.validity_nets);
    cad::BlobWriter w2;
    wire::encode_hints(back, w2);
    EXPECT_EQ(std::move(w2).take(), bytes);
}

TEST(WireCodec, FlowOptionsRoundTripNonDefaults) {
    cad::FlowOptions o;
    o.seed = 99;
    o.pde_extra_margin = 0.75;
    o.techmap.pairing_window = 5;
    o.pack.affinity_clustering = false;
    o.place.algorithm = cad::PlaceAlgorithm::Multilevel;
    o.place.threads = 3;
    o.place.moves_scale = 0.123;
    o.route.astar_fac = 0.0;
    o.route.threads = 2;
    o.route.max_iterations = 17;

    cad::BlobWriter w;
    wire::encode_fields(o, w);
    const std::vector<std::uint8_t> bytes = std::move(w).take();
    cad::BlobReader r(bytes);
    const auto back = wire::decode_fields<cad::FlowOptions>(r);
    r.expect_end();
    EXPECT_EQ(back.seed, o.seed);
    EXPECT_EQ(back.place.algorithm, o.place.algorithm);
    EXPECT_EQ(back.place.moves_scale, o.place.moves_scale);
    EXPECT_EQ(back.route.max_iterations, o.route.max_iterations);
    cad::BlobWriter w2;
    wire::encode_fields(back, w2);
    EXPECT_EQ(std::move(w2).take(), bytes);
}

TEST(WireCodec, FlowOptionsRejectRetiredPlaceAlgorithm) {
    // Tags 0 (cold annealer), 1 (flat analytical engine) and 2 (replica
    // race) are retired and 4+ never existed; only the V-cycle decodes.
    for (const std::uint8_t tag : {0, 1, 2, 3, 4, 255}) {
        cad::FlowOptions o;
        o.place.algorithm = static_cast<cad::PlaceAlgorithm>(tag);
        cad::BlobWriter w;
        wire::encode_fields(o, w);
        const std::vector<std::uint8_t> bytes = std::move(w).take();
        cad::BlobReader r(bytes);
        if (tag == 3)
            EXPECT_EQ(wire::decode_fields<cad::FlowOptions>(r).place.algorithm,
                      cad::PlaceAlgorithm::Multilevel);
        else
            EXPECT_THROW((void)wire::decode_fields<cad::FlowOptions>(r), base::Error)
                << int{tag};
    }
}

/// Offset of the one little-endian i64 holding `v` in `bytes` (asserts it
/// occurs exactly once), or bytes.size() when it is missing.
std::size_t find_unique_i64(const std::vector<std::uint8_t>& bytes, std::uint64_t v) {
    std::size_t at = bytes.size();
    for (std::size_t i = 0; i + 8 <= bytes.size(); ++i) {
        bool hit = true;
        for (int b = 0; b < 8; ++b) hit &= bytes[i + b] == ((v >> (8 * b)) & 0xFFu);
        if (hit) {
            EXPECT_EQ(at, bytes.size()) << "value 0x" << std::hex << v << " is not unique";
            at = i;
        }
    }
    return at;
}

/// `bytes` with the high word of the i64 at `at` replaced: 1 makes a small
/// positive value 2^32 + v, 0xFFFFFFFF makes it v - 2^32; neither fits int.
std::vector<std::uint8_t> with_high_word(std::vector<std::uint8_t> bytes, std::size_t at,
                                         std::uint32_t high) {
    for (int b = 0; b < 4; ++b) bytes[at + 4 + b] = static_cast<std::uint8_t>(high >> (8 * b));
    return bytes;
}

TEST(WireCodec, IntFieldsThatDoNotFitIntThrowInsteadOfWrapping) {
    // Each int knob travels as an i64. Encode a distinct sentinel into each,
    // then patch the high word of its encoded bytes: the decoder must throw,
    // not wrap the value back to the sentinel.
    const std::int32_t sentinel = 0x13572400;
    cad::FlowOptions o;
    int* const ints[] = {&o.place.solver_passes,    &o.place.solver_max_iters,
                         &o.place.polish_rounds,    &o.place.min_coarse_nodes,
                         &o.place.max_levels,       &o.route.max_iterations,
                         &o.route.stall_full_reroute};
    for (std::size_t k = 0; k < std::size(ints); ++k)
        *ints[k] = sentinel + static_cast<std::int32_t>(k);
    cad::BlobWriter w;
    wire::encode_fields(o, w);
    const std::vector<std::uint8_t> bytes = std::move(w).take();
    {
        cad::BlobReader r(bytes);
        EXPECT_EQ(wire::decode_fields<cad::FlowOptions>(r).route.stall_full_reroute,
                  sentinel + 6);
    }
    for (std::size_t k = 0; k < std::size(ints); ++k) {
        const std::size_t at = find_unique_i64(bytes, static_cast<std::uint64_t>(sentinel) + k);
        ASSERT_LT(at, bytes.size()) << "field " << k;
        for (const std::uint32_t high : {1u, 0xFFFFFFFFu}) {
            const std::vector<std::uint8_t> bad = with_high_word(bytes, at, high);
            cad::BlobReader r(bad);
            EXPECT_THROW((void)wire::decode_fields<cad::FlowOptions>(r), base::Error)
                << "field " << k << " high word 0x" << std::hex << high;
        }
    }

    // A Submit frame's priority is an int32 carried the same way.
    wire::SubmitMsg m;
    m.name = "priority";
    m.priority = sentinel;
    m.nl = asynclib::make_qdi_adder(1).nl;
    const std::vector<std::uint8_t> submit = payload_of(m);
    EXPECT_EQ(decode_payload<wire::SubmitMsg>(submit).priority, sentinel);
    const std::size_t at = find_unique_i64(submit, static_cast<std::uint64_t>(sentinel));
    ASSERT_LT(at, submit.size());
    for (const std::uint32_t high : {1u, 0xFFFFFFFFu})
        EXPECT_THROW((void)decode_payload<wire::SubmitMsg>(with_high_word(submit, at, high)),
                     base::Error)
            << "high word 0x" << std::hex << high;
}

/// Calls `f(message, name)` once for each of the 18 messages, each with
/// non-default field values.
template <typename F>
void for_each_sample_message(F&& f) {
    wire::HelloMsg hello;
    hello.client_name = "soak_client";
    f(hello, "hello");

    wire::HelloOkMsg hello_ok;
    hello_ok.lane = 3;
    hello_ok.max_pending = 64;
    hello_ok.threads = 4;
    f(hello_ok, "hello_ok");

    auto adder = asynclib::make_qdi_adder(2);
    wire::SubmitMsg submit;
    submit.name = "adder";
    submit.priority = -2;
    submit.nl = adder.nl;
    submit.hints = adder.hints;
    submit.arch.width = submit.arch.height = 10;
    submit.arch.channel_width = 12;
    submit.opts.seed = 5;
    f(submit, "submit");

    wire::SubmitOkMsg submit_ok;
    submit_ok.job_id = 9;
    submit_ok.queue_depth = 2;
    f(submit_ok, "submit_ok");

    wire::BusyMsg busy;
    busy.queue_depth = 64;
    busy.limit = 64;
    busy.retry_after_ms = 25;
    f(busy, "busy");

    wire::StatusMsg status;
    status.job_id = 11;
    f(status, "status");

    wire::StatusReplyMsg reply;
    reply.job_id = 11;
    reply.status = 3;
    reply.start_seq = 4;
    reply.wall_ms = 1.5;
    reply.queue_ms = 2.5;
    reply.error = "boom";
    f(reply, "status_reply");

    wire::WaitMsg wait;
    wait.job_id = 12;
    f(wait, "wait");

    wire::ResultBeginMsg begin;
    begin.job_id = 12;
    begin.status = 2;
    begin.wall_ms = 9.0;
    begin.queue_ms = 1.0;
    begin.start_seq = 6;
    begin.telemetry_json = "{\"stages\":[]}";
    begin.result_bytes = 123;
    f(begin, "result_begin");

    wire::ResultChunkMsg chunk;
    chunk.job_id = 12;
    chunk.offset = 64;
    chunk.bytes = {1, 2, 3, 4, 5};
    f(chunk, "result_chunk");

    wire::ResultEndMsg end;
    end.job_id = 12;
    end.checksum = 0xfeedfacefeedfaceull;
    f(end, "result_end");

    wire::CancelMsg cancel;
    cancel.job_id = 13;
    f(cancel, "cancel");

    wire::CancelReplyMsg cancel_reply;
    cancel_reply.job_id = 13;
    cancel_reply.cancelled = true;
    f(cancel_reply, "cancel_reply");

    f(wire::ReportMsg{}, "report");

    wire::ReportReplyMsg report_reply;
    report_reply.json = "{\"jobs_total\":1}";
    f(report_reply, "report_reply");

    f(wire::DrainMsg{}, "drain");

    wire::DrainOkMsg drain_ok;
    drain_ok.jobs_total = 17;
    f(drain_ok, "drain_ok");

    wire::ErrorMsg err;
    err.code = static_cast<std::uint32_t>(wire::ErrCode::Draining);
    err.message = "server is draining";
    f(err, "error");
}

TEST(WireCodec, EveryMessageRoundTrips) {
    std::size_t n = 0;
    for_each_sample_message([&](const auto& m, const char* what) {
        const std::vector<std::uint8_t> bytes = payload_of(m);
        const auto back = decode_payload<std::decay_t<decltype(m)>>(bytes);
        EXPECT_EQ(payload_of(back), bytes) << what;
        ++n;
    });
    EXPECT_EQ(n, 18u);
}

/// The non-default FlowOptions of FlowOptionsRoundTripNonDefaults.
cad::FlowOptions sample_flow_options() {
    cad::FlowOptions o;
    o.seed = 99;
    o.pde_extra_margin = 0.75;
    o.techmap.pairing_window = 5;
    o.pack.affinity_clustering = false;
    o.place.algorithm = cad::PlaceAlgorithm::Multilevel;
    o.place.threads = 3;
    o.place.moves_scale = 0.123;
    o.route.astar_fac = 0.0;
    o.route.threads = 2;
    o.route.max_iterations = 17;
    return o;
}

TEST(WireCodec, PayloadBytesArePinned) {
    // The payload bytes are the wire format and, for the option structs,
    // the artifact-key inputs: a codec change that keeps encoder and
    // decoder in step still fails here. Each pin is (length, fnv1a64).
    struct Pin {
        std::size_t size;
        std::uint64_t digest;
    };
    const std::map<std::string, Pin> pins = {
        {"hello", {23, 0x015e159c96ffbd35ull}},
        {"hello_ok", {12, 0x8872469bdada3342ull}},
        {"submit", {4628, 0xad52f645035bc1d9ull}},
        {"submit_ok", {12, 0x4935a24d451f6a8eull}},
        {"busy", {12, 0xc37fcff34b450a1cull}},
        {"status", {8, 0xbf98f7838a83d4eeull}},
        {"status_reply", {45, 0xeda1df49499cd9f1ull}},
        {"wait", {8, 0x24b3145653d76249ull}},
        {"result_begin", {70, 0x0d0062491bdf2d05ull}},
        {"result_chunk", {29, 0xcae399f683dc799full}},
        {"result_end", {16, 0xd581d411c9a42e49ull}},
        {"cancel", {8, 0x05b84d4d48e81828ull}},
        {"cancel_reply", {9, 0xa0438352e2610dabull}},
        {"report", {0, 0xcbf29ce484222325ull}},
        {"report_reply", {24, 0x78a68de35b293323ull}},
        {"drain", {0, 0xcbf29ce484222325ull}},
        {"drain_ok", {8, 0x7979a1b9cc1f91b4ull}},
        {"error", {30, 0xe91f875fa7dd4a61ull}},
        {"flow_options", {174, 0x0fcaa1e9a167edb3ull}},
        {"flow_options_default", {174, 0x158c15658ddd7170ull}},
    };
    auto expect_pinned = [&](const std::vector<std::uint8_t>& bytes, const std::string& what) {
        const auto it = pins.find(what);
        ASSERT_NE(it, pins.end()) << what;
        EXPECT_EQ(bytes.size(), it->second.size) << what;
        EXPECT_EQ(wire::fnv1a64(bytes.data(), bytes.size()), it->second.digest)
            << what << ": 0x" << std::hex << wire::fnv1a64(bytes.data(), bytes.size());
    };
    for_each_sample_message(
        [&](const auto& m, const char* what) { expect_pinned(payload_of(m), what); });
    expect_pinned(payload_of(sample_flow_options()), "flow_options");
    expect_pinned(payload_of(cad::FlowOptions{}), "flow_options_default");
}

TEST(WireCodec, SubmitDecoderValidatesHintNetIds) {
    auto adder = asynclib::make_qdi_adder(2);
    wire::SubmitMsg m;
    m.name = "bad_hints";
    m.nl = adder.nl;
    m.hints.validity_nets.push_back(
        netlist::NetId{static_cast<std::uint32_t>(adder.nl.num_nets())});  // out of range
    EXPECT_THROW((void)decode_payload<wire::SubmitMsg>(payload_of(m)), base::Error);
}

TEST(WireCodec, TruncatedPayloadsThrowAtEveryPrefix) {
    // The serialize-suite idiom one layer up, for every message: each
    // strict prefix must throw (a prefix that happens to parse fails the
    // decoder's expect_end) — never crash or accept.
    for_each_sample_message([](const auto& m, const char* what) {
        using M = std::decay_t<decltype(m)>;
        const std::vector<std::uint8_t> bytes = payload_of(m);
        // Byte-exact stepping is quadratic in the payload size, so stride
        // the long middle of the Submit payload and always hit the last 64.
        const std::size_t stride = bytes.size() > 2048 ? 7 : 1;
        for (std::size_t cut = 0; cut < bytes.size();
             cut += (cut + 64 >= bytes.size() ? 1 : stride)) {
            const std::vector<std::uint8_t> prefix(
                bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
            EXPECT_THROW((void)decode_payload<M>(prefix), base::Error) << what << " cut " << cut;
        }
    });
}

TEST(WireCodec, SingleByteMutationsThrowOrDecodeFaithfully) {
    // Every byte of every message payload, set to 0xFF or with its low bit
    // flipped: the decoder either rejects the bytes or decodes exactly what
    // they say. Payload corruption the frame checksum missed can then never
    // turn into a crash or a silently different request.
    std::size_t threw = 0;
    std::size_t decoded = 0;
    for_each_sample_message([&](const auto& m, const char* what) {
        using M = std::decay_t<decltype(m)>;
        const std::vector<std::uint8_t> bytes = payload_of(m);
        for (std::size_t at = 0; at < bytes.size(); ++at) {
            for (const bool set_ff : {true, false}) {
                std::vector<std::uint8_t> mut = bytes;
                mut[at] = set_ff ? std::uint8_t{0xFF} : static_cast<std::uint8_t>(mut[at] ^ 0x01);
                if (mut == bytes) continue;  // the byte was already 0xFF
                try {
                    // A decoded value re-encodes to exactly the mutated
                    // bytes, so never to the sample's own.
                    EXPECT_EQ(payload_of(decode_payload<M>(mut)), mut)
                        << what << ": " << (set_ff ? "0xFF" : "xor 1") << " at " << at;
                    ++decoded;
                } catch (const base::Error&) {
                    ++threw;
                }
            }
        }
    });
    // Both outcomes occur: length prefixes and checked tags reject, plain
    // numbers decode as the numbers they now spell.
    EXPECT_GT(threw, 0u);
    EXPECT_GT(decoded, 0u);
}

TEST(WireCodec, DecodeChecksTheFrameType) {
    wire::StatusMsg status;
    status.job_id = 4;
    // Wait and Status share a field list, but a Status frame is not a Wait.
    wire::Frame f{wire::MsgType::Status, payload_of(status)};
    EXPECT_EQ(wire::decode<wire::StatusMsg>(f).job_id, 4u);
    EXPECT_THROW((void)wire::decode<wire::WaitMsg>(f), base::Error);
    // Trailing bytes are corruption, not padding.
    f.payload.push_back(0);
    EXPECT_THROW((void)wire::decode<wire::StatusMsg>(f), base::Error);
}

// ---------------------------------------------------------------------------
// Netlist::from_parts: the decoder's trust boundary.
// ---------------------------------------------------------------------------

netlist::NetId nid(std::uint32_t v) { return netlist::NetId{v}; }
netlist::CellId cid(std::uint32_t v) { return netlist::CellId{v}; }

/// A tiny well-formed two-net design as raw tables: PI a -> Buf b0 -> PO.
struct RawParts {
    std::vector<netlist::Cell> cells;
    std::vector<netlist::Net> nets;
    std::vector<netlist::NetId> pis;
    std::vector<std::pair<std::string, netlist::NetId>> pos;
};

RawParts make_raw() {
    using netlist::CellId;
    using netlist::NetId;
    RawParts p;
    netlist::Cell buf;
    buf.func = netlist::CellFunc::Buf;
    buf.name = "b0";
    buf.inputs = {nid(0)};
    buf.output = nid(1);
    p.cells.push_back(std::move(buf));
    netlist::Net a;
    a.name = "a";
    a.is_primary_input = true;
    a.sinks = {{cid(0), 0}};
    netlist::Net b;
    b.name = "b0";
    b.driver = cid(0);
    p.nets.push_back(std::move(a));
    p.nets.push_back(std::move(b));
    p.pis = {nid(0)};
    p.pos = {{"out", nid(1)}};
    return p;
}

netlist::Netlist build(const RawParts& p) {
    return netlist::Netlist::from_parts("raw", p.cells, p.nets, p.pis, p.pos);
}

TEST(NetlistFromParts, AcceptsWellFormedTables) {
    const netlist::Netlist nl = build(make_raw());
    EXPECT_EQ(nl.num_cells(), 1u);
    EXPECT_EQ(nl.num_nets(), 2u);
    EXPECT_EQ(nl.primary_inputs().size(), 1u);
}

TEST(NetlistFromParts, RejectsEveryStructuralCorruption) {
    {
        RawParts p = make_raw();  // cell input net out of range
        p.cells[0].inputs[0] = nid(99);
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // cell output net out of range
        p.cells[0].output = nid(99);
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // net driver cell out of range
        p.nets[1].driver = cid(5);
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // sink points at a cell that does not exist
        p.nets[0].sinks[0].cell = cid(7);
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // sink pin past the cell's input count
        p.nets[0].sinks[0].pin = 3;
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // duplicate sink for one input pin
        p.nets[0].sinks.push_back(p.nets[0].sinks[0]);
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // sink list dropped: edge counts disagree
        p.nets[0].sinks.clear();
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // PI flag without a PI-list entry
        p.pis.clear();
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // PI-list entry pointing at a driven net
        p.pis = {nid(1)};
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // PO net out of range
        p.pos[0].second = nid(9);
        EXPECT_THROW((void)build(p), base::Error);
    }
    {
        RawParts p = make_raw();  // driven net also flagged as primary input
        p.nets[1].is_primary_input = true;
        p.pis.push_back(nid(1));
        EXPECT_THROW((void)build(p), base::Error);
    }
}

}  // namespace
