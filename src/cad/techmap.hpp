/// \file
/// Technology mapping: cover a gate-level asynchronous netlist with LE
/// instances (fracturable LUT7-3 halves + LUT2 validity slots).
///
/// Key moves, in order:
///  1. constant propagation and buffer folding;
///  2. every remaining gate becomes a LUT function; memory elements
///     (C-elements, latches) get their own output appended as a feedback
///     input — the looped-combinational-logic realisation of Section 3;
///  3. pairing: the generator's rail-pair hints go first (the two rails of
///     a dual-rail function share their support and fill one LE), then a
///     greedy shared-support matcher pairs the rest under the
///     union-support <= 6 rule; 7-input functions take a whole LE via the
///     O2 mux path;
///  4. validity absorption: a hinted 2-input function whose inputs are
///     exactly the two outputs of one LE moves into that LE's LUT2 slot.
///
/// Threading: techmap runs single-threaded at the head of every flow.
#pragma once

#include "asynclib/styles.hpp"
#include "cad/mapped.hpp"
#include "netlist/netlist.hpp"

namespace afpga::cad {

/// Mapping knobs (mostly ablation switches for the benches).
struct TechmapOptions {
    bool use_rail_pair_hints = true;  ///< ablation: ignore generator hints
    bool absorb_validity = true;      ///< ablation: keep validity in plain halves
    bool greedy_pairing = true;       ///< ablation: one function per LE
    std::size_t pairing_window = 64;  ///< greedy matcher search bound
};

/// Map `nl` to LEs/PDEs. Throws base::Error on unmappable cells
/// (e.g. gates wider than 7 inputs or a 7-input memory element).
[[nodiscard]] MappedDesign techmap(const netlist::Netlist& nl,
                                   const asynclib::MappingHints& hints = {},
                                   const TechmapOptions& opts = {});

/// Exhaustively verify that the mapped design computes the same function as
/// the source netlist for every signal an LE produces (checks each LE
/// function against the source cell cone it covers, including feedback
/// variables). Throws on mismatch; used by tests and as a flow assertion.
void verify_mapping(const netlist::Netlist& nl, const MappedDesign& mapped);

}  // namespace afpga::cad
