#include "core/bitstream.hpp"

#include <algorithm>
#include <string>

#include "base/check.hpp"

namespace afpga::core {

using base::check;

namespace {
/// Routing switches move between bit vectors this many at a time.
constexpr std::size_t kEdgeChunk = 64;
}  // namespace

Bitstream::Bitstream(const ArchSpec& arch, std::size_t num_rr_edges)
    : geom_(arch), pads_(geom_.num_pads(), PadMode::Unused), edges_(num_rr_edges) {
    arch.validate();
    plbs_.assign(geom_.num_plbs(), PlbConfig(arch));
}

PlbConfig& Bitstream::plb(PlbCoord c) {
    check(c.x < arch().width && c.y < arch().height, "Bitstream::plb: out of range");
    return plbs_[geom_.plb_index(c)];
}

const PlbConfig& Bitstream::plb(PlbCoord c) const {
    check(c.x < arch().width && c.y < arch().height, "Bitstream::plb: out of range");
    return plbs_[geom_.plb_index(c)];
}

void Bitstream::set_pad_mode(std::uint32_t pad, PadMode mode) {
    check(pad < pads_.size(), "set_pad_mode: out of range");
    pads_[pad] = mode;
}

PadMode Bitstream::pad_mode(std::uint32_t pad) const {
    check(pad < pads_.size(), "pad_mode: out of range");
    return pads_[pad];
}

void Bitstream::set_edge(std::uint32_t e, bool enabled) {
    check(e < edges_.size(), "set_edge: out of range");
    edges_.set(e, enabled);
}

bool Bitstream::edge(std::uint32_t e) const {
    check(e < edges_.size(), "edge: out of range");
    return edges_.get(e);
}

std::size_t Bitstream::occupied_plbs() const {
    std::size_t n = 0;
    for (const PlbConfig& p : plbs_)
        if (!p.is_blank(arch())) ++n;
    return n;
}

std::size_t Bitstream::size_bits() const {
    return 64 + 3 * 16 + 2 * 32 + geom_.num_plbs() * arch().plb_config_bits() +
           pads_.size() * 2 + edges_.size() + 32;
}

base::BitVector Bitstream::serialize() const {
    base::BitVector out;
    out.append_bits(arch().fingerprint(), 64);
    out.append_bits(arch().width, 16);
    out.append_bits(arch().height, 16);
    out.append_bits(arch().channel_width, 16);
    out.append_bits(pads_.size(), 32);
    out.append_bits(edges_.size(), 32);
    for (const PlbConfig& p : plbs_) p.serialize(arch(), out);
    for (PadMode m : pads_) out.append_bits(static_cast<std::uint64_t>(m), 2);
    for (std::size_t i = 0; i < edges_.size(); i += kEdgeChunk) {
        const std::size_t n = std::min(kEdgeChunk, edges_.size() - i);
        out.append_bits(edges_.get_bits(i, n), n);
    }
    out.append_bits(out.crc32(), 32);
    return out;
}

Bitstream Bitstream::deserialize(const ArchSpec& arch, const base::BitVector& bits) {
    check(bits.size() >= 64 + 3 * 16 + 2 * 32 + 32, "Bitstream: truncated");
    std::size_t cur = 0;
    const std::uint64_t fp = bits.get_bits(cur, 64);
    cur += 64;
    check(fp == arch.fingerprint(), "Bitstream: architecture fingerprint mismatch");
    const auto w = bits.get_bits(cur, 16);
    cur += 16;
    const auto h = bits.get_bits(cur, 16);
    cur += 16;
    const auto cw = bits.get_bits(cur, 16);
    cur += 16;
    check(w == arch.width && h == arch.height && cw == arch.channel_width,
          "Bitstream: geometry mismatch");
    const auto n_pads = bits.get_bits(cur, 32);
    cur += 32;
    const auto n_edges = bits.get_bits(cur, 32);
    cur += 32;

    // Every edge takes one bit of the stream: a corrupt count must fail
    // here, not size a half-gigabyte edge vector first.
    check(n_edges <= bits.size() - cur, "Bitstream: edge count overruns the stream");
    // Verify CRC before decoding the body.
    const std::size_t crc_pos = bits.size() - 32;
    {
        base::BitVector body = bits;
        body.resize(crc_pos);
        const auto stored = static_cast<std::uint32_t>(bits.get_bits(crc_pos, 32));
        check(body.crc32() == stored, "Bitstream: CRC mismatch");
    }
    Bitstream bs(arch, n_edges);
    check(n_pads == bs.pads_.size(), "Bitstream: pad count mismatch");
    for (PlbConfig& p : bs.plbs_) p = PlbConfig::deserialize(arch, bits, cur);
    for (PadMode& m : bs.pads_) {
        const auto v = bits.get_bits(cur, 2);
        cur += 2;
        check(v <= 2, "Bitstream: bad pad mode");
        m = static_cast<PadMode>(v);
    }
    for (std::size_t i = 0; i < n_edges; i += kEdgeChunk) {
        const std::size_t n = std::min<std::size_t>(kEdgeChunk, n_edges - i);
        bs.edges_.set_bits(i, bits.get_bits(cur + i, n), n);
    }
    cur += n_edges;
    if (cur != crc_pos)
        base::fail("Bitstream: length mismatch: the body ends at bit " + std::to_string(cur) +
                   " but the CRC starts at bit " + std::to_string(crc_pos));
    return bs;
}

}  // namespace afpga::core
