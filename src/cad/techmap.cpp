#include "cad/techmap.hpp"

#include <algorithm>
#include <unordered_set>

#include "base/check.hpp"

namespace afpga::cad {

using base::check;
using netlist::Cell;
using netlist::CellFunc;
using netlist::CellId;
using netlist::Netlist;

namespace {

/// Outcome of normalising one cell function (constant folding, duplicate and
/// constant input elimination, support pruning).
struct Normalized {
    enum class Kind { Constant, Alias, Function } kind = Kind::Function;
    bool const_value = false;
    NetId alias;
    LeFunc func;
};

Normalized normalize(const TruthTable& tt, const std::vector<NetId>& raw_inputs,
                     NetId output, NetId feedback,
                     const std::unordered_map<NetId, bool>& constants) {
    // Unique, non-constant inputs.
    std::vector<NetId> unique;
    std::vector<std::size_t> var_of_raw(raw_inputs.size());
    std::vector<int> const_of_raw(raw_inputs.size(), -1);
    for (std::size_t i = 0; i < raw_inputs.size(); ++i) {
        const auto cit = constants.find(raw_inputs[i]);
        if (cit != constants.end()) {
            const_of_raw[i] = cit->second ? 1 : 0;
            continue;
        }
        const auto pos = std::find(unique.begin(), unique.end(), raw_inputs[i]);
        if (pos == unique.end()) {
            var_of_raw[i] = unique.size();
            unique.push_back(raw_inputs[i]);
        } else {
            var_of_raw[i] = static_cast<std::size_t>(pos - unique.begin());
        }
    }
    check(unique.size() <= TruthTable::kMaxArity, "techmap: too many distinct inputs");
    TruthTable merged = TruthTable::from_function(
        unique.size(), [&](std::uint32_t m) {
            std::uint32_t raw = 0;
            for (std::size_t i = 0; i < raw_inputs.size(); ++i) {
                const bool v = const_of_raw[i] >= 0 ? const_of_raw[i] == 1
                                                    : ((m >> var_of_raw[i]) & 1u) != 0;
                if (v) raw |= 1u << i;
            }
            return tt.eval(raw);
        });
    std::vector<std::size_t> kept;
    merged = merged.prune_support(&kept);
    std::vector<NetId> inputs;
    inputs.reserve(kept.size());
    for (std::size_t k : kept) inputs.push_back(unique[k]);

    const bool has_feedback =
        feedback.valid() && std::find(inputs.begin(), inputs.end(), feedback) != inputs.end();

    Normalized out;
    if (!has_feedback) {
        if (merged.arity() == 0) {
            out.kind = Normalized::Kind::Constant;
            out.const_value = merged.eval(0);
            return out;
        }
        if (merged.arity() == 1 && merged == TruthTable::identity(1, 0)) {
            out.kind = Normalized::Kind::Alias;
            out.alias = inputs[0];
            return out;
        }
    }
    out.func.tt = std::move(merged);
    out.func.inputs = std::move(inputs);
    out.func.output = output;
    out.func.has_feedback = has_feedback;
    return out;
}

/// Size of x's inputs extended by y's not yet among them (the LE pin count
/// of pairing x and y), without building the list.
std::size_t support_union_size(const LeFunc& x, const LeFunc& y) {
    std::size_t n = x.inputs.size();
    for (auto it = y.inputs.begin(); it != y.inputs.end(); ++it)
        if (std::find(x.inputs.begin(), x.inputs.end(), *it) == x.inputs.end() &&
            std::find(y.inputs.begin(), it, *it) == it)
            ++n;
    return n;
}

std::size_t shared_support(const LeFunc& x, const LeFunc& y) {
    std::size_t s = 0;
    for (NetId n : y.inputs)
        if (std::find(x.inputs.begin(), x.inputs.end(), n) != x.inputs.end()) ++s;
    return s;
}

}  // namespace

std::vector<NetId> LeInst::input_signals() const {
    std::vector<NetId> u;
    auto add = [&u](const std::optional<LeFunc>& f) {
        if (!f) return;
        for (NetId n : f->inputs)
            if (std::find(u.begin(), u.end(), n) == u.end()) u.push_back(n);
    };
    add(a);
    add(b);
    add(full7);
    // lut2 inputs are internal LE outputs, not pins.
    return u;
}

std::vector<NetId> LeInst::output_signals() const {
    std::vector<NetId> o;
    if (a) o.push_back(a->output);
    if (b) o.push_back(b->output);
    if (full7) o.push_back(full7->output);
    if (lut2) o.push_back(lut2->output);
    return o;
}

std::uint32_t LeInst::output_slot(NetId signal) const {
    if (a && a->output == signal) return 0;
    if (b && b->output == signal) return 1;
    if (full7 && full7->output == signal) return 2;
    if (lut2 && lut2->output == signal) return 3;
    return 4;
}

std::uint32_t LeInst::used_outputs() const {
    return (a ? 1u : 0u) + (b ? 1u : 0u) + (full7 ? 1u : 0u) + (lut2 ? 1u : 0u);
}

std::unordered_map<NetId, std::pair<std::size_t, std::uint32_t>> MappedDesign::driver_index()
    const {
    std::unordered_map<NetId, std::pair<std::size_t, std::uint32_t>> idx;
    for (std::size_t i = 0; i < les.size(); ++i)
        for (NetId s : les[i].output_signals()) idx[s] = {i, les[i].output_slot(s)};
    return idx;
}

std::size_t MappedDesign::num_le_functions() const {
    std::size_t n = 0;
    for (const LeInst& le : les) n += le.used_outputs();
    return n;
}

MappedDesign techmap(const Netlist& nl, const asynclib::MappingHints& hints,
                     const TechmapOptions& opts) {
    nl.validate();
    MappedDesign md;

    // --- pass A: buffers and constants ---------------------------------------
    for (CellId cid : nl.cell_ids()) {
        const Cell& c = nl.cell(cid);
        if (c.func == CellFunc::Buf) md.canonical[c.output] = c.inputs[0];
        if (c.func == CellFunc::Const0) md.constant_signals[c.output] = false;
        if (c.func == CellFunc::Const1) md.constant_signals[c.output] = true;
    }
    // Path-compress buffer chains.
    for (auto& [from, to] : md.canonical) {
        NetId t = to;
        std::size_t guard = 0;
        while (md.canonical.count(t)) {
            t = md.canonical.at(t);
            check(++guard <= md.canonical.size(), "techmap: buffer cycle");
        }
        to = t;
    }
    auto canon = [&md](NetId n) { return md.canon(n); };
    auto is_const = [&md, &canon](NetId n) { return md.constant_signals.count(canon(n)) != 0; };
    (void)is_const;

    // --- passes B/C: build one function per logic cell ------------------------
    std::vector<LeFunc> funcs;
    std::unordered_map<NetId, std::size_t> func_of_output;

    auto process_cell = [&](const Cell& c) {
        std::vector<NetId> ins;
        ins.reserve(c.inputs.size() + 1);
        for (NetId n : c.inputs) ins.push_back(canon(n));
        NetId feedback;
        TruthTable tt(0);
        if (netlist::is_sequential(c.func)) {
            tt = netlist::cell_function_with_feedback(c.func, c.inputs.size(),
                                                      c.table ? &*c.table : nullptr);
            ins.push_back(c.output);  // the looped variable
            feedback = c.output;
        } else if (c.func == CellFunc::Lut) {
            tt = *c.table;
        } else {
            tt = netlist::cell_function_with_feedback(c.func, c.inputs.size(), nullptr)
                     .cofactor(c.inputs.size(), false);  // drop the unused feedback var
        }
        Normalized n = normalize(tt, ins, c.output, feedback, md.constant_signals);
        switch (n.kind) {
            case Normalized::Kind::Constant:
                md.constant_signals[c.output] = n.const_value;
                break;
            case Normalized::Kind::Alias: {
                md.canonical[c.output] = n.alias;
                break;
            }
            case Normalized::Kind::Function:
                if (n.func.inputs.size() > 7)
                    base::fail("techmap: function wider than 7 inputs: " + c.name);
                func_of_output[c.output] = funcs.size();
                funcs.push_back(std::move(n.func));
                break;
        }
    };

    // Combinational cells in topological order so folding propagates forward;
    // memory elements afterwards (their feedback blocks folding anyway).
    for (CellId cid : nl.topo_order_cut_sequential()) {
        const Cell& c = nl.cell(cid);
        if (c.func == CellFunc::Buf || c.func == CellFunc::Const0 ||
            c.func == CellFunc::Const1 || c.func == CellFunc::Delay)
            continue;
        process_cell(c);
    }
    for (CellId cid : nl.cell_ids()) {
        const Cell& c = nl.cell(cid);
        if (!netlist::is_sequential(c.func)) continue;
        process_cell(c);
    }
    for (CellId cid : nl.cell_ids()) {
        const Cell& c = nl.cell(cid);
        if (c.func != CellFunc::Delay) continue;
        md.pdes.push_back({canon(c.inputs[0]), c.output,
                           c.delay_ps.value_or(netlist::default_delay_ps(c.func))});
    }

    // New aliases may have appeared after funcs were built (only forward in
    // topo order, so existing funcs' inputs may need re-canonicalisation).
    for (LeFunc& f : funcs)
        for (NetId& n : f.inputs) n = canon(n);

    // --- pairing ---------------------------------------------------------------
    std::vector<bool> consumed(funcs.size(), false);
    std::vector<LeInst> les;

    auto make_single = [&](std::size_t i) {
        LeInst le;
        if (funcs[i].inputs.size() == 7)
            le.full7 = funcs[i];
        else
            le.a = funcs[i];
        les.push_back(std::move(le));
    };

    // 7-input functions occupy whole LEs immediately.
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        if (funcs[i].inputs.size() == 7) {
            make_single(i);
            consumed[i] = true;
        }
    }

    // Hinted rail pairs first.
    if (opts.use_rail_pair_hints) {
        for (const auto& [xo, yo] : hints.rail_pairs) {
            const auto xi = func_of_output.find(canon(xo));
            const auto yi = func_of_output.find(canon(yo));
            if (xi == func_of_output.end() || yi == func_of_output.end()) continue;
            const std::size_t fx = xi->second;
            const std::size_t fy = yi->second;
            if (fx == fy || consumed[fx] || consumed[fy]) continue;
            if (support_union_size(funcs[fx], funcs[fy]) > 6) continue;
            LeInst le;
            le.a = funcs[fx];
            le.b = funcs[fy];
            les.push_back(std::move(le));
            consumed[fx] = consumed[fy] = true;
        }
    }

    // --- validity absorption: try against the rail-pair LEs --------------------
    if (opts.absorb_validity) {
        auto driver_slot = [&les](NetId s) -> std::pair<std::size_t, std::uint32_t> {
            for (std::size_t i = 0; i < les.size(); ++i) {
                const std::uint32_t slot = les[i].output_slot(s);
                if (slot < 4) return {i, slot};
            }
            return {les.size(), 4};
        };
        for (NetId vo : hints.validity_nets) {
            const auto vi = func_of_output.find(canon(vo));
            if (vi == func_of_output.end() || consumed[vi->second]) continue;
            const LeFunc& vf = funcs[vi->second];
            if (vf.inputs.size() != 2 || vf.has_feedback) continue;
            const auto [le0, slot0] = driver_slot(vf.inputs[0]);
            const auto [le1, slot1] = driver_slot(vf.inputs[1]);
            if (le0 >= les.size() || le0 != le1) continue;
            if (slot0 > 2 || slot1 > 2 || les[le0].lut2) continue;
            les[le0].lut2 = vf;
            consumed[vi->second] = true;
        }
    }

    // --- greedy shared-support pairing of the rest ------------------------------
    if (opts.greedy_pairing) {
        for (std::size_t i = 0; i < funcs.size(); ++i) {
            if (consumed[i]) continue;
            std::size_t best = funcs.size();
            std::size_t best_score = 0;
            std::size_t scanned = 0;
            for (std::size_t j = i + 1; j < funcs.size() && scanned < opts.pairing_window; ++j) {
                if (consumed[j]) continue;
                ++scanned;
                if (support_union_size(funcs[i], funcs[j]) > 6) continue;
                const std::size_t score = 1 + shared_support(funcs[i], funcs[j]);
                if (score > best_score) {
                    best_score = score;
                    best = j;
                }
            }
            if (best < funcs.size()) {
                LeInst le;
                le.a = funcs[i];
                le.b = funcs[best];
                les.push_back(std::move(le));
                consumed[i] = consumed[best] = true;
            }
        }
    }
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        if (!consumed[i]) {
            make_single(i);
            consumed[i] = true;
        }
    }
    md.les = std::move(les);

    // --- primary I/O -------------------------------------------------------------
    for (NetId pi : nl.primary_inputs())
        md.primary_inputs.emplace_back(nl.net(pi).name, pi);
    for (const auto& [name, net] : nl.primary_outputs()) {
        const NetId s = canon(net);
        if (md.constant_signals.count(s))
            base::fail("techmap: constant primary output not supported: " + name);
        md.primary_outputs.emplace_back(name, s);
    }
    return md;
}

void verify_mapping(const Netlist& nl, const MappedDesign& md) {
    // Every LE function must equal the source cell that drives its output,
    // with the cell's inputs resolved through canonicalisation/constants.
    for (const LeInst& le : md.les) {
        for (const LeFunc* f : {le.a ? &*le.a : nullptr, le.b ? &*le.b : nullptr,
                                le.full7 ? &*le.full7 : nullptr, le.lut2 ? &*le.lut2 : nullptr}) {
            if (!f) continue;
            const CellId driver = nl.driver_of(f->output);
            check(driver.valid(), "verify_mapping: LE output is not a cell output");
            const Cell& c = nl.cell(driver);
            const std::size_t arity = f->inputs.size();
            std::vector<netlist::Logic> cin;
            cin.reserve(c.inputs.size());
            for (std::uint32_t m = 0; m < (1u << arity); ++m) {
                auto value_of = [&](NetId n) -> netlist::Logic {
                    const NetId s = md.canon(n);
                    const auto cit = md.constant_signals.find(s);
                    if (cit != md.constant_signals.end())
                        return netlist::from_bool(cit->second);
                    for (std::size_t i = 0; i < arity; ++i)
                        if (f->inputs[i] == s) return netlist::from_bool((m >> i) & 1u);
                    return netlist::Logic::X;
                };
                cin.clear();
                for (NetId n : c.inputs) cin.push_back(value_of(n));
                const netlist::Logic cur = value_of(c.output);
                const netlist::Logic expect =
                    netlist::eval_cell(c.func, cin, cur, c.table ? &*c.table : nullptr);
                if (expect == netlist::Logic::X) continue;  // cone not fully local
                if (f->tt.eval(m) != (expect == netlist::Logic::T))
                    base::fail("verify_mapping: function mismatch on " + c.name);
            }
        }
    }
}

}  // namespace afpga::cad
