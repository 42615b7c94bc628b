// The configuration bitstream: every programmable bit of the fabric.
//
// Layout (all LSB-first):
//   header: arch fingerprint (64b), width/height/channel_width (16b each),
//           pad count (32b), edge count (32b)
//   body:   PLB configurations in raster order (x fastest),
//           pad modes (2b per pad),
//           routing switch states (1b per RR edge)
//   tail:   CRC-32 over header+body
#pragma once

#include <cstdint>
#include <vector>

#include "base/bitvector.hpp"
#include "core/fabric.hpp"
#include "core/plb.hpp"
#include "core/rrgraph.hpp"

namespace afpga::core {

class Bitstream {
public:
    /// A blank (unprogrammed) bitstream for the given fabric.
    Bitstream(const ArchSpec& arch, std::size_t num_rr_edges);

    [[nodiscard]] const ArchSpec& arch() const noexcept { return geom_.arch(); }

    [[nodiscard]] PlbConfig& plb(PlbCoord c);
    [[nodiscard]] const PlbConfig& plb(PlbCoord c) const;

    void set_pad_mode(std::uint32_t pad, PadMode mode);
    [[nodiscard]] PadMode pad_mode(std::uint32_t pad) const;

    void set_edge(std::uint32_t edge, bool enabled);
    [[nodiscard]] bool edge(std::uint32_t edge) const;
    [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
    [[nodiscard]] std::size_t num_enabled_edges() const noexcept { return edges_.count_ones(); }

    /// Number of PLBs with any configuration (occupancy metric).
    [[nodiscard]] std::size_t occupied_plbs() const;

    /// Total serialised size in bits (incl. header and CRC).
    [[nodiscard]] std::size_t size_bits() const;

    [[nodiscard]] base::BitVector serialize() const;
    /// Throws base::Error on a fingerprint, geometry or CRC mismatch, and
    /// when the decoded body does not end exactly where the CRC begins.
    static Bitstream deserialize(const ArchSpec& arch, const base::BitVector& bits);

    /// Configuration equality (assumes both sides target the same ArchSpec).
    friend bool operator==(const Bitstream& a, const Bitstream& b) noexcept {
        return a.plbs_ == b.plbs_ && a.pads_ == b.pads_ && a.edges_ == b.edges_;
    }

private:
    FabricGeometry geom_;
    std::vector<PlbConfig> plbs_;
    std::vector<PadMode> pads_;
    base::BitVector edges_;
};

}  // namespace afpga::core
