#include "netlist/cells.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "base/check.hpp"

namespace afpga::netlist {

using base::check;

std::string to_string(CellFunc f) {
    switch (f) {
        case CellFunc::Const0: return "CONST0";
        case CellFunc::Const1: return "CONST1";
        case CellFunc::Buf: return "BUF";
        case CellFunc::Inv: return "INV";
        case CellFunc::And: return "AND";
        case CellFunc::Or: return "OR";
        case CellFunc::Nand: return "NAND";
        case CellFunc::Nor: return "NOR";
        case CellFunc::Xor: return "XOR";
        case CellFunc::Xnor: return "XNOR";
        case CellFunc::Mux: return "MUX";
        case CellFunc::Maj: return "MAJ";
        case CellFunc::C: return "C";
        case CellFunc::CAsym2P: return "C_ASYM2P";
        case CellFunc::Latch: return "LATCH";
        case CellFunc::Delay: return "DELAY";
        case CellFunc::Lut: return "LUT";
    }
    return "?";
}

bool is_sequential(CellFunc f) noexcept {
    return f == CellFunc::C || f == CellFunc::CAsym2P || f == CellFunc::Latch;
}

ArityRange arity_range(CellFunc f) noexcept {
    switch (f) {
        case CellFunc::Const0:
        case CellFunc::Const1: return {0, 0};
        case CellFunc::Buf:
        case CellFunc::Inv:
        case CellFunc::Delay: return {1, 1};
        case CellFunc::And:
        case CellFunc::Or:
        case CellFunc::Nand:
        case CellFunc::Nor:
        case CellFunc::Xor:
        case CellFunc::Xnor: return {2, 7};
        case CellFunc::Mux:
        case CellFunc::Maj: return {3, 3};
        case CellFunc::C: return {2, 7};
        case CellFunc::CAsym2P: return {2, 2};
        case CellFunc::Latch: return {2, 2};
        case CellFunc::Lut: return {0, TruthTable::kMaxArity};
    }
    return {0, 0};
}

namespace {

Logic logic_and(std::span<const Logic> in) {
    bool any_x = false;
    for (Logic v : in) {
        if (v == Logic::F) return Logic::F;
        if (v == Logic::X) any_x = true;
    }
    return any_x ? Logic::X : Logic::T;
}

Logic logic_or(std::span<const Logic> in) {
    bool any_x = false;
    for (Logic v : in) {
        if (v == Logic::T) return Logic::T;
        if (v == Logic::X) any_x = true;
    }
    return any_x ? Logic::X : Logic::F;
}

Logic logic_not(Logic v) {
    if (v == Logic::X) return Logic::X;
    return v == Logic::T ? Logic::F : Logic::T;
}

Logic logic_xor(std::span<const Logic> in) {
    bool parity = false;
    for (Logic v : in) {
        if (v == Logic::X) return Logic::X;
        parity ^= (v == Logic::T);
    }
    return from_bool(parity);
}

Logic eval_lut(const TruthTable& table, std::span<const Logic> in) {
    // Exact three-valued evaluation: enumerate completions of the unknown
    // inputs; if every completion agrees the value is known.
    std::array<std::uint8_t, TruthTable::kMaxArity> unknowns{};
    std::size_t n_unknown = 0;
    std::uint32_t base_assign = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (in[i] == Logic::X)
            unknowns[n_unknown++] = static_cast<std::uint8_t>(i);
        else if (in[i] == Logic::T)
            base_assign |= 1u << i;
    }
    if (n_unknown > 10) return Logic::X;  // pessimistic cap
    bool first = true;
    bool value = false;
    for (std::uint32_t m = 0; m < (1u << n_unknown); ++m) {
        std::uint32_t a = base_assign;
        for (std::size_t k = 0; k < n_unknown; ++k)
            if ((m >> k) & 1u) a |= 1u << unknowns[k];
        const bool v = table.eval(a);
        if (first) {
            value = v;
            first = false;
        } else if (v != value) {
            return Logic::X;
        }
    }
    return from_bool(value);
}

}  // namespace

Logic eval_cell(CellFunc f, std::span<const Logic> inputs, Logic current,
                const TruthTable* table) {
    switch (f) {
        case CellFunc::Const0: return Logic::F;
        case CellFunc::Const1: return Logic::T;
        case CellFunc::Buf:
        case CellFunc::Delay: return inputs[0];
        case CellFunc::Inv: return logic_not(inputs[0]);
        case CellFunc::And: return logic_and(inputs);
        case CellFunc::Or: return logic_or(inputs);
        case CellFunc::Nand: return logic_not(logic_and(inputs));
        case CellFunc::Nor: return logic_not(logic_or(inputs));
        case CellFunc::Xor: return logic_xor(inputs);
        case CellFunc::Xnor: return logic_not(logic_xor(inputs));
        case CellFunc::Mux: {
            const Logic sel = inputs[0];
            if (sel == Logic::F) return inputs[1];
            if (sel == Logic::T) return inputs[2];
            return inputs[1] == inputs[2] ? inputs[1] : Logic::X;
        }
        case CellFunc::Maj: {
            int t = 0;
            int fcount = 0;
            for (Logic v : inputs) {
                t += (v == Logic::T);
                fcount += (v == Logic::F);
            }
            if (t >= 2) return Logic::T;
            if (fcount >= 2) return Logic::F;
            return Logic::X;
        }
        case CellFunc::C: {
            const bool all_t = std::ranges::all_of(inputs, [](Logic v) { return v == Logic::T; });
            const bool all_f = std::ranges::all_of(inputs, [](Logic v) { return v == Logic::F; });
            if (all_t) return Logic::T;
            if (all_f) return Logic::F;
            return current;  // hold (X inputs cannot force a transition)
        }
        case CellFunc::CAsym2P: {
            // out' = a & (b | out): rises on a&b, falls on !a.
            const Logic a = inputs[0];
            const Logic b = inputs[1];
            const Logic hold = logic_or(std::array{b, current});
            return logic_and(std::array{a, hold});
        }
        case CellFunc::Latch: {
            const Logic d = inputs[0];
            const Logic en = inputs[1];
            if (en == Logic::T) return d;
            if (en == Logic::F) return current;
            return d == current ? current : Logic::X;
        }
        case CellFunc::Lut: {
            AFPGA_ASSERT(table != nullptr, "LUT cell without truth table");
            AFPGA_ASSERT(inputs.size() == table->arity(), "LUT arity mismatch");
            return eval_lut(*table, inputs);
        }
    }
    return Logic::X;
}

bool eval_cell_bool(CellFunc f, const std::vector<bool>& inputs, const TruthTable* table) {
    check(!is_sequential(f), "eval_cell_bool on sequential cell");
    std::vector<Logic> in(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) in[i] = from_bool(inputs[i]);
    const Logic out = eval_cell(f, in, Logic::X, table);
    AFPGA_ASSERT(is_known(out), "combinational cell produced X on known inputs");
    return out == Logic::T;
}

TruthTable cell_function_with_feedback(CellFunc f, std::size_t n_inputs,
                                       const TruthTable* table) {
    check(f != CellFunc::Delay, "DELAY has no LUT realisation");
    const auto [amin, amax] = arity_range(f);
    check(n_inputs >= amin && n_inputs <= amax, "cell_function_with_feedback: bad arity");
    if (f == CellFunc::Lut) check(table && table->arity() == n_inputs, "LUT table arity mismatch");
    std::vector<Logic> in(n_inputs);
    return TruthTable::from_function(n_inputs + 1, [&](std::uint32_t m) {
        for (std::size_t i = 0; i < n_inputs; ++i) in[i] = from_bool((m >> i) & 1u);
        const Logic cur = from_bool((m >> n_inputs) & 1u);
        const Logic out = eval_cell(f, in, cur, table);
        AFPGA_ASSERT(is_known(out), "feedback function produced X");
        return out == Logic::T;
    });
}

std::int64_t default_delay_ps(CellFunc f) noexcept {
    switch (f) {
        case CellFunc::Const0:
        case CellFunc::Const1: return 0;
        case CellFunc::Buf:
        case CellFunc::Inv: return 50;
        case CellFunc::C:
        case CellFunc::CAsym2P: return 120;
        case CellFunc::Latch: return 80;
        case CellFunc::Delay: return 200;
        case CellFunc::Lut: return 100;
        default: return 100;
    }
}

}  // namespace afpga::netlist
