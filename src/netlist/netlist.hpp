// Gate-level netlist: cells connected by single-driver nets.
//
// This is the exchange format of the whole flow: the asynchronous generators
// produce a Netlist of library gates; the technology mapper consumes it; the
// fabric elaborator produces another Netlist (of LUT/Delay cells) for
// post-route simulation; the simulator runs any Netlist.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/ids.hpp"
#include "netlist/cells.hpp"
#include "netlist/truthtable.hpp"

namespace afpga::netlist {

struct CellTag {};
struct NetTag {};
using CellId = base::StrongId<CellTag>;
using NetId = base::StrongId<NetTag>;

/// One connection point: input pin `pin` of cell `cell`.
struct PinRef {
    CellId cell;
    std::uint32_t pin = 0;
    friend bool operator==(const PinRef&, const PinRef&) noexcept = default;
};

/// One entry of a batched rewire: input `pin` of `cell` moves to `net`.
struct PinRewire {
    CellId cell;
    std::uint32_t pin = 0;
    NetId net;
};

/// A logic gate instance. Every cell drives exactly one net.
struct Cell {
    CellFunc func = CellFunc::Buf;
    std::string name;
    std::vector<NetId> inputs;
    NetId output;
    /// Present iff func == Lut.
    std::optional<TruthTable> table;
    /// Intrinsic delay override (ps); default_delay_ps(func) if absent.
    std::optional<std::int64_t> delay_ps;
};

/// A signal: one driver (cell or primary input), any number of sinks.
struct Net {
    std::string name;
    CellId driver;             // invalid for primary inputs
    bool is_primary_input = false;
    std::vector<PinRef> sinks;
};

/// The netlist graph plus its primary I/O lists.
class Netlist {
public:
    explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

    // --- construction -----------------------------------------------------
    /// Create a primary input; returns the net it drives.
    NetId add_input(const std::string& name);
    /// Declare `net` as a primary output under `name`.
    void add_output(const std::string& name, NetId net);
    /// Add a gate; creates and returns its output net (named after the cell).
    NetId add_cell(CellFunc func, const std::string& name, std::vector<NetId> inputs);
    /// Add a LUT cell with an explicit truth table.
    NetId add_lut(const std::string& name, TruthTable table, std::vector<NetId> inputs);
    /// Override the intrinsic delay of a cell.
    void set_cell_delay(CellId cell, std::int64_t delay_ps);
    /// Reconnect input `pin` of `cell` to `new_net`. Needed by generators to
    /// close handshake cycles (acknowledges flow against construction order)
    /// and by the mapper to retarget sinks.
    void rewire_input(CellId cell, std::uint32_t pin, NetId new_net);
    /// Apply `rewires` in one pass, leaving exactly the state (every cell's
    /// inputs and every net's sink order) that rewire_input on each entry in
    /// order would leave. Each net a pin leaves is filtered once, not once
    /// per leaving pin, so moving many pins off one placeholder net is
    /// linear. Every entry is checked before anything changes.
    void rewire_inputs(std::span<const PinRewire> rewires);
    /// Rename a net (purely cosmetic; also used by generators to tag rails).
    void set_net_name(NetId net, const std::string& name);

    /// Rebuild a netlist from raw tables (the wire decoder's entry point:
    /// replaying the construction API cannot reproduce the sink ordering of
    /// handshake feedback cycles, so decoded nets carry their sinks
    /// verbatim). Bounds-checks every cross-reference, requires the
    /// input-pin/sink relation to be an exact bijection, rebuilds the
    /// name index, and finishes with validate(); throws base::Error on any
    /// inconsistency, so hostile bytes cannot produce a malformed graph.
    [[nodiscard]] static Netlist from_parts(
        std::string name, std::vector<Cell> cells, std::vector<Net> nets,
        std::vector<NetId> pis, std::vector<std::pair<std::string, NetId>> pos);

    // --- access -----------------------------------------------------------
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::size_t num_cells() const noexcept { return cells_.size(); }
    [[nodiscard]] std::size_t num_nets() const noexcept { return nets_.size(); }
    [[nodiscard]] const Cell& cell(CellId id) const;
    [[nodiscard]] const Net& net(NetId id) const;
    [[nodiscard]] CellId driver_of(NetId id) const { return net(id).driver; }

    [[nodiscard]] const std::vector<NetId>& primary_inputs() const noexcept { return pis_; }
    /// (name, net) pairs in declaration order.
    [[nodiscard]] const std::vector<std::pair<std::string, NetId>>& primary_outputs()
        const noexcept {
        return pos_;
    }

    /// Net by exact name; invalid id if absent.
    [[nodiscard]] NetId find_net(const std::string& name) const;

    /// All cell ids (dense, insertion order).
    [[nodiscard]] std::vector<CellId> cell_ids() const;
    [[nodiscard]] std::vector<NetId> net_ids() const;

    // --- structure checks & analysis ---------------------------------------
    /// Throws base::Error on: dangling inputs, arity violations, duplicate
    /// output names, LUT cells without tables.
    void validate() const;

    /// Count cells of each kind.
    [[nodiscard]] std::unordered_map<CellFunc, std::size_t> histogram() const;

    /// True if the combinational subgraph (ignoring sequential cells, which
    /// legitimately sit on cycles in asynchronous logic) contains a cycle.
    [[nodiscard]] bool has_combinational_cycle() const;

    /// Topological order of cells where edges through sequential cells are
    /// cut (usable for static delay estimation of bundled datapaths).
    [[nodiscard]] std::vector<CellId> topo_order_cut_sequential() const;

    /// Graphviz rendering for inspection.
    [[nodiscard]] std::string to_dot() const;

private:
    NetId new_net(const std::string& name);

    std::string name_;
    std::vector<Cell> cells_;
    std::vector<Net> nets_;
    std::vector<NetId> pis_;
    std::vector<std::pair<std::string, NetId>> pos_;
    std::unordered_map<std::string, NetId> net_by_name_;
};

}  // namespace afpga::netlist
