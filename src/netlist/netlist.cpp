#include "netlist/netlist.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace afpga::netlist {

using base::check;

namespace {

/// check() for a message ending in a cell or net name: the string is only
/// built on failure (validate() runs these for every cell, net and pin).
void check_named(bool condition, const char* message, const std::string& name) {
    if (!condition) [[unlikely]] base::fail(message + name);
}

}  // namespace

NetId Netlist::new_net(const std::string& name) {
    const NetId id{nets_.size()};
    Net n;
    n.name = name;
    nets_.push_back(std::move(n));
    if (!name.empty()) net_by_name_.emplace(name, id);
    return id;
}

NetId Netlist::add_input(const std::string& name) {
    const NetId id = new_net(name);
    nets_[id.index()].is_primary_input = true;
    pis_.push_back(id);
    return id;
}

void Netlist::add_output(const std::string& name, NetId net) {
    check(net.valid() && net.index() < nets_.size(), "add_output: bad net");
    for (const auto& [n, _] : pos_)
        check_named(n != name, "add_output: duplicate output name ", name);
    pos_.emplace_back(name, net);
}

NetId Netlist::add_cell(CellFunc func, const std::string& name, std::vector<NetId> inputs) {
    check(func != CellFunc::Lut, "use add_lut for LUT cells");
    const auto [amin, amax] = arity_range(func);
    if (inputs.size() < amin || inputs.size() > amax)
        base::fail("add_cell: bad arity for " + to_string(func) + " cell " + name);
    const CellId cid{cells_.size()};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        check_named(inputs[i].valid() && inputs[i].index() < nets_.size(),
                    "add_cell: invalid input net on ", name);
        nets_[inputs[i].index()].sinks.push_back({cid, static_cast<std::uint32_t>(i)});
    }
    const NetId out = new_net(name);
    nets_[out.index()].driver = cid;
    Cell c;
    c.func = func;
    c.name = name;
    c.inputs = std::move(inputs);
    c.output = out;
    cells_.push_back(std::move(c));
    return out;
}

NetId Netlist::add_lut(const std::string& name, TruthTable table, std::vector<NetId> inputs) {
    check_named(inputs.size() == table.arity(), "add_lut: input count != table arity on ", name);
    const CellId cid{cells_.size()};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        check_named(inputs[i].valid() && inputs[i].index() < nets_.size(),
                    "add_lut: invalid input net on ", name);
        nets_[inputs[i].index()].sinks.push_back({cid, static_cast<std::uint32_t>(i)});
    }
    const NetId out = new_net(name);
    nets_[out.index()].driver = cid;
    Cell c;
    c.func = CellFunc::Lut;
    c.name = name;
    c.inputs = std::move(inputs);
    c.output = out;
    c.table = std::move(table);
    cells_.push_back(std::move(c));
    return out;
}

void Netlist::set_cell_delay(CellId cell, std::int64_t delay_ps) {
    check(cell.valid() && cell.index() < cells_.size(), "set_cell_delay: bad cell");
    check(delay_ps >= 0, "set_cell_delay: negative delay");
    cells_[cell.index()].delay_ps = delay_ps;
}

void Netlist::rewire_input(CellId cell, std::uint32_t pin, NetId new_net) {
    check(cell.valid() && cell.index() < cells_.size(), "rewire_input: bad cell");
    Cell& c = cells_[cell.index()];
    check(pin < c.inputs.size(), "rewire_input: bad pin");
    check(new_net.valid() && new_net.index() < nets_.size(), "rewire_input: bad net");
    const NetId old = c.inputs[pin];
    auto& old_sinks = nets_[old.index()].sinks;
    std::erase(old_sinks, PinRef{cell, pin});
    c.inputs[pin] = new_net;
    nets_[new_net.index()].sinks.push_back({cell, pin});
}

void Netlist::rewire_inputs(std::span<const PinRewire> rewires) {
    for (const PinRewire& r : rewires) {
        check(r.cell.valid() && r.cell.index() < cells_.size(), "rewire_inputs: bad cell");
        check(r.pin < cells_[r.cell.index()].inputs.size(), "rewire_inputs: bad pin");
        check(r.net.valid() && r.net.index() < nets_.size(), "rewire_inputs: bad net");
    }
    // In sequence, a pin's sink entry leaves its current net and each entry
    // appends one to its new net, which a later entry for the same pin
    // removes again. So only each pin's last entry leaves a sink behind,
    // after the untouched sinks of that net, in entry order.
    std::vector<std::size_t> first_slot(cells_.size() + 1, 0);  // pin slots per cell
    for (std::size_t c = 0; c < cells_.size(); ++c)
        first_slot[c + 1] = first_slot[c] + cells_[c].inputs.size();
    auto slot = [&first_slot](CellId cell, std::uint32_t pin) {
        return first_slot[cell.index()] + pin;
    };
    std::vector<bool> moved(first_slot.back(), false);
    std::vector<bool> is_last(rewires.size(), false);
    for (std::size_t i = rewires.size(); i-- > 0;) {
        const std::size_t k = slot(rewires[i].cell, rewires[i].pin);
        is_last[i] = !moved[k];
        moved[k] = true;
    }
    std::vector<NetId> left;
    left.reserve(rewires.size());
    for (const PinRewire& r : rewires) left.push_back(cells_[r.cell.index()].inputs[r.pin]);
    std::sort(left.begin(), left.end());
    left.erase(std::unique(left.begin(), left.end()), left.end());
    for (NetId n : left)
        std::erase_if(nets_[n.index()].sinks,
                      [&](const PinRef& s) { return moved[slot(s.cell, s.pin)]; });
    for (std::size_t i = 0; i < rewires.size(); ++i) {
        const PinRewire& r = rewires[i];
        cells_[r.cell.index()].inputs[r.pin] = r.net;
        if (is_last[i]) nets_[r.net.index()].sinks.push_back({r.cell, r.pin});
    }
}

void Netlist::set_net_name(NetId net, const std::string& name) {
    check(net.valid() && net.index() < nets_.size(), "set_net_name: bad net");
    auto& n = nets_[net.index()];
    if (!n.name.empty()) net_by_name_.erase(n.name);
    n.name = name;
    if (!name.empty()) net_by_name_[name] = net;
}

Netlist Netlist::from_parts(std::string name, std::vector<Cell> cells,
                            std::vector<Net> nets, std::vector<NetId> pis,
                            std::vector<std::pair<std::string, NetId>> pos) {
    // Bounds-check every cross-reference up front: validate() assumes
    // in-range ids (it indexes without checking), so on untrusted input the
    // range checks must come first.
    const std::size_t nc = cells.size();
    const std::size_t nn = nets.size();
    std::size_t input_edges = 0;
    for (const Cell& c : cells) {
        for (NetId in : c.inputs)
            check(in.valid() && in.index() < nn, "from_parts: cell input net out of range");
        check(c.output.valid() && c.output.index() < nn,
              "from_parts: cell output net out of range");
        input_edges += c.inputs.size();
    }
    std::size_t sink_edges = 0;
    for (const Net& n : nets) {
        if (n.driver.valid())
            check(n.driver.index() < nc, "from_parts: net driver out of range");
        for (const PinRef& s : n.sinks) {
            check(s.cell.valid() && s.cell.index() < nc, "from_parts: sink cell out of range");
            check(s.pin < cells[s.cell.index()].inputs.size(), "from_parts: sink pin out of range");
        }
        sink_edges += n.sinks.size();
    }
    // validate() proves every sink points at a matching input pin; requiring
    // equal edge counts and no duplicate sinks upgrades that to a bijection
    // (no input pin silently missing from its net's sink list).
    check(sink_edges == input_edges, "from_parts: sink/input edge count mismatch");
    std::vector<bool> seen(input_edges, false);
    std::vector<std::size_t> pin_base(nc, 0);
    for (std::size_t i = 1; i < nc; ++i)
        pin_base[i] = pin_base[i - 1] + cells[i - 1].inputs.size();
    for (const Net& n : nets)
        for (const PinRef& s : n.sinks) {
            const std::size_t slot = pin_base[s.cell.index()] + s.pin;
            check(!seen[slot], "from_parts: duplicate sink entry");
            seen[slot] = true;
        }
    std::vector<bool> pi_seen(nn, false);
    for (NetId pi : pis) {
        check(pi.valid() && pi.index() < nn, "from_parts: primary input out of range");
        check(nets[pi.index()].is_primary_input,
              "from_parts: primary-input list names a non-PI net");
        check(!pi_seen[pi.index()], "from_parts: duplicate primary input");
        pi_seen[pi.index()] = true;
    }
    std::size_t pi_nets = 0;
    for (const Net& n : nets) pi_nets += n.is_primary_input ? 1 : 0;
    check(pi_nets == pis.size(), "from_parts: primary-input list incomplete");
    for (const auto& [po_name, po_net] : pos)
        check(po_net.valid() && po_net.index() < nn,
              "from_parts: primary output '" + po_name + "' out of range");

    Netlist nl(std::move(name));
    nl.cells_ = std::move(cells);
    nl.nets_ = std::move(nets);
    nl.pis_ = std::move(pis);
    nl.pos_ = std::move(pos);
    for (std::size_t i = 0; i < nl.nets_.size(); ++i)
        if (!nl.nets_[i].name.empty()) nl.net_by_name_.emplace(nl.nets_[i].name, NetId{i});
    nl.validate();
    return nl;
}

const Cell& Netlist::cell(CellId id) const {
    check(id.valid() && id.index() < cells_.size(), "cell: bad id");
    return cells_[id.index()];
}

const Net& Netlist::net(NetId id) const {
    check(id.valid() && id.index() < nets_.size(), "net: bad id");
    return nets_[id.index()];
}

NetId Netlist::find_net(const std::string& name) const {
    const auto it = net_by_name_.find(name);
    return it == net_by_name_.end() ? NetId::invalid() : it->second;
}

std::vector<CellId> Netlist::cell_ids() const {
    std::vector<CellId> ids;
    ids.reserve(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) ids.emplace_back(i);
    return ids;
}

std::vector<NetId> Netlist::net_ids() const {
    std::vector<NetId> ids;
    ids.reserve(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i) ids.emplace_back(i);
    return ids;
}

void Netlist::validate() const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell& c = cells_[i];
        if (c.func == CellFunc::Lut) {
            check_named(c.table.has_value(), "validate: LUT without table: ", c.name);
            check_named(c.table->arity() == c.inputs.size(), "validate: LUT arity mismatch: ",
                        c.name);
        } else {
            const auto [amin, amax] = arity_range(c.func);
            check_named(c.inputs.size() >= amin && c.inputs.size() <= amax,
                        "validate: arity violation on ", c.name);
        }
        for (NetId in : c.inputs) check_named(in.valid(), "validate: dangling input on ", c.name);
        check_named(c.output.valid(), "validate: cell without output: ", c.name);
        check_named(nets_[c.output.index()].driver == CellId{i}, "validate: driver mismatch: ",
                    c.name);
    }
    for (std::size_t i = 0; i < nets_.size(); ++i) {
        const Net& n = nets_[i];
        check_named(n.is_primary_input != n.driver.valid(),
                    "validate: net must have exactly one driver source: ", n.name);
        for (const PinRef& s : n.sinks) {
            check(s.cell.valid() && s.cell.index() < cells_.size(), "validate: bad sink");
            check(s.pin < cells_[s.cell.index()].inputs.size(), "validate: bad sink pin");
            check_named(cells_[s.cell.index()].inputs[s.pin] == NetId{i},
                        "validate: sink back-reference mismatch on ", n.name);
        }
    }
    for (const auto& [name, net] : pos_)
        check_named(net.valid() && net.index() < nets_.size(), "validate: bad primary output ",
                    name);
}

std::unordered_map<CellFunc, std::size_t> Netlist::histogram() const {
    std::unordered_map<CellFunc, std::size_t> h;
    for (const Cell& c : cells_) ++h[c.func];
    return h;
}

bool Netlist::has_combinational_cycle() const {
    // DFS over cells; edges go from a cell to the cells its output feeds.
    // Sequential cells break the path (their output is a state variable).
    enum class Mark : std::uint8_t { White, Grey, Black };
    std::vector<Mark> mark(cells_.size(), Mark::White);
    std::vector<std::pair<std::size_t, std::size_t>> stack;  // (cell, next sink idx)

    auto sinks_of = [this](std::size_t ci) -> const std::vector<PinRef>& {
        return nets_[cells_[ci].output.index()].sinks;
    };

    for (std::size_t root = 0; root < cells_.size(); ++root) {
        if (mark[root] != Mark::White || is_sequential(cells_[root].func)) continue;
        stack.emplace_back(root, 0);
        mark[root] = Mark::Grey;
        while (!stack.empty()) {
            auto& [ci, next] = stack.back();
            const auto& sinks = sinks_of(ci);
            bool advanced = false;
            while (next < sinks.size()) {
                const std::size_t tgt = sinks[next++].cell.index();
                if (is_sequential(cells_[tgt].func)) continue;
                if (mark[tgt] == Mark::Grey) return true;
                if (mark[tgt] == Mark::White) {
                    mark[tgt] = Mark::Grey;
                    stack.emplace_back(tgt, 0);
                    advanced = true;
                    break;
                }
            }
            if (!advanced && (stack.back().second >= sinks_of(stack.back().first).size())) {
                mark[stack.back().first] = Mark::Black;
                stack.pop_back();
            }
        }
    }
    return false;
}

std::vector<CellId> Netlist::topo_order_cut_sequential() const {
    // Kahn's algorithm; combinational in-degree only (inputs that come from
    // PIs or sequential cells count as satisfied).
    std::vector<std::size_t> indeg(cells_.size(), 0);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (is_sequential(cells_[i].func)) continue;
        for (NetId in : cells_[i].inputs) {
            const CellId d = nets_[in.index()].driver;
            if (d.valid() && !is_sequential(cells_[d.index()].func)) ++indeg[i];
        }
    }
    std::vector<CellId> order;
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < cells_.size(); ++i)
        if (!is_sequential(cells_[i].func) && indeg[i] == 0) queue.push_back(i);
    while (!queue.empty()) {
        const std::size_t ci = queue.back();
        queue.pop_back();
        order.emplace_back(ci);
        for (const PinRef& s : nets_[cells_[ci].output.index()].sinks) {
            const std::size_t t = s.cell.index();
            if (is_sequential(cells_[t].func)) continue;
            if (--indeg[t] == 0) queue.push_back(t);
        }
    }
    return order;  // shorter than #comb cells iff a combinational cycle exists
}

std::string Netlist::to_dot() const {
    std::string out = "digraph \"" + name_ + "\" {\n  rankdir=LR;\n";
    for (std::size_t i = 0; i < nets_.size(); ++i)
        if (nets_[i].is_primary_input)
            out += "  pi" + std::to_string(i) + " [shape=triangle,label=\"" + nets_[i].name +
                   "\"];\n";
    for (std::size_t i = 0; i < cells_.size(); ++i)
        out += "  c" + std::to_string(i) + " [shape=box,label=\"" + cells_[i].name + "\\n" +
               to_string(cells_[i].func) + "\"];\n";
    auto src_node = [this](NetId n) {
        const Net& net = nets_[n.index()];
        return net.is_primary_input ? "pi" + std::to_string(n.index())
                                    : "c" + std::to_string(net.driver.index());
    };
    for (std::size_t i = 0; i < cells_.size(); ++i)
        for (NetId in : cells_[i].inputs) out += "  " + src_node(in) + " -> c" + std::to_string(i) + ";\n";
    for (const auto& [nm, n] : pos_) {
        out += "  po_" + nm + " [shape=invtriangle,label=\"" + nm + "\"];\n";
        out += "  " + src_node(n) + " -> po_" + nm + ";\n";
    }
    out += "}\n";
    return out;
}

}  // namespace afpga::netlist
