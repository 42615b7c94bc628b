// Architecture parameters of the multi-style asynchronous FPGA (Section 3).
//
// The paper's fabric is an island-style array of PLBs, each containing an
// Interconnection Matrix, two Logic Elements (multi-output LUT7-3 + LUT2-1)
// and a Programmable Delay Element. Everything here is parameterised so the
// ablation benches can vary one knob at a time (IM sparsity, PDE resolution,
// channel width, ...) while the defaults model the paper's architecture.
#pragma once

#include <cstdint>
#include <string>

namespace afpga::core {

/// How much of the IM crossbar is populated (abl-A in DESIGN.md).
enum class ImTopology : std::uint8_t {
    FullCrossbar,   ///< every source reaches every sink (the paper's flexible IM)
    Sparse50,       ///< every sink reaches a deterministic half of the sources
    Sparse25,       ///< a quarter
    NoFeedback,     ///< full, except LE outputs cannot reach LE inputs
                    ///< (removes the paper's looped-logic memory mechanism)
};

[[nodiscard]] std::string to_string(ImTopology t);

/// All architecture parameters, with the paper-modelled defaults.
struct ArchSpec {
    // --- array ------------------------------------------------------------
    std::uint32_t width = 8;          ///< PLB columns
    std::uint32_t height = 8;         ///< PLB rows
    std::uint32_t channel_width = 12; ///< routing tracks per channel
    /// Nets one channel track may carry. 1 models plain single-driver wires
    /// (the paper's fabric); >1 models each track as a bundle of identical
    /// wires, shrinking the RR graph while keeping congestion negotiation
    /// honest (the router reads this as the RR node capacity).
    std::uint32_t wire_capacity = 1;
    double fc_in = 0.5;               ///< fraction of tracks a PLB input pin taps
    double fc_out = 0.25;             ///< fraction of tracks a PLB output pin drives
    std::uint32_t pads_per_iob = 4;   ///< I/O pads per perimeter position

    // --- PLB (Fig. 1) -------------------------------------------------------
    std::uint32_t plb_inputs = 14;    ///< external input pins per PLB
    std::uint32_t plb_outputs = 8;    ///< external output pins per PLB
    std::uint32_t les_per_plb = 2;
    ImTopology im_topology = ImTopology::FullCrossbar;

    // --- LE (Fig. 2): LUT7-3 = two LUT6 halves + mux, plus a LUT2-1 --------
    std::uint32_t le_inputs = 7;      ///< i0..i5 shared by both halves, i6 = mux select
    static constexpr std::uint32_t kLeOutputs = 4;  ///< O0=A, O1=B, O2=mux7, O3=LUT2

    // --- PDE ----------------------------------------------------------------
    std::uint32_t pde_taps = 32;          ///< programmable tap count (0..taps-1)
    std::int64_t pde_quantum_ps = 250;    ///< delay per tap

    // --- delay model ---------------------------------------------------------
    std::int64_t lut_delay_ps = 100;   ///< LE LUT propagation
    std::int64_t lut2_delay_ps = 40;   ///< additional LUT2 stage after the LUT7-3
    std::int64_t im_delay_ps = 30;     ///< through the IM crossbar
    std::int64_t wire_delay_ps = 40;   ///< one channel segment
    std::int64_t pin_delay_ps = 20;    ///< CB connection (ipin/opin)

    // --- derived -------------------------------------------------------------
    [[nodiscard]] std::uint32_t im_num_sources() const noexcept {
        // PLB inputs + all LE outputs + PDE output + const0 + const1
        return plb_inputs + les_per_plb * kLeOutputs + 1 + 2;
    }
    [[nodiscard]] std::uint32_t im_num_sinks() const noexcept {
        // LE inputs + PDE input + PLB outputs
        return les_per_plb * le_inputs + 1 + plb_outputs;
    }
    /// Source index blocks inside the IM (see plb.hpp for the sink side).
    [[nodiscard]] std::uint32_t im_src_plb_input(std::uint32_t pin) const noexcept { return pin; }
    [[nodiscard]] std::uint32_t im_src_le_output(std::uint32_t le, std::uint32_t out) const noexcept {
        return plb_inputs + le * kLeOutputs + out;
    }
    [[nodiscard]] std::uint32_t im_src_pde_out() const noexcept {
        return plb_inputs + les_per_plb * kLeOutputs;
    }
    [[nodiscard]] std::uint32_t im_src_const0() const noexcept { return im_src_pde_out() + 1; }
    [[nodiscard]] std::uint32_t im_src_const1() const noexcept { return im_src_pde_out() + 2; }

    [[nodiscard]] std::uint32_t im_sink_le_input(std::uint32_t le, std::uint32_t pin) const noexcept {
        return le * le_inputs + pin;
    }
    [[nodiscard]] std::uint32_t im_sink_pde_in() const noexcept { return les_per_plb * le_inputs; }
    [[nodiscard]] std::uint32_t im_sink_plb_output(std::uint32_t pin) const noexcept {
        return im_sink_pde_in() + 1 + pin;
    }

    /// True if the IM topology lets `sink` listen to `source`.
    [[nodiscard]] bool im_connects(std::uint32_t source, std::uint32_t sink) const noexcept;

    /// Configuration bits per PLB (LE tables + IM selects + PDE tap).
    [[nodiscard]] std::size_t plb_config_bits() const noexcept;
    /// Bits of one IM sink select field.
    [[nodiscard]] std::size_t im_select_bits() const noexcept;
    /// Bits of the PDE tap field.
    [[nodiscard]] std::size_t pde_tap_bits() const noexcept;

    /// Validate parameter sanity (throws base::Error).
    void validate() const;

    /// Stable hash over all parameters (bitstream compatibility check),
    /// written into every bitstream header. It is coarse: `fc_in`/`fc_out`
    /// enter as `uint64(fc * 1000)`, so two specs whose Fc differs below
    /// 0.001 hash equal even when their RR graphs tap different track
    /// counts. Caches must key on the exact encoding instead
    /// (cad::fingerprint_arch).
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// The architecture as described in the paper (default-constructed ArchSpec).
[[nodiscard]] ArchSpec paper_arch();

/// Synchronous-baseline LE: see eval/baseline for the LUT4 island fabric used
/// to reproduce the paper's motivation (ref. [3]).

}  // namespace afpga::core
