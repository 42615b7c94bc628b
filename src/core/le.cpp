#include "core/le.hpp"

#include <vector>

#include "base/check.hpp"

namespace afpga::core {

using base::check;
using netlist::Logic;
using netlist::TruthTable;

std::array<Logic, 4> LeEval::evaluate(const LeConfig& cfg, const std::array<Logic, 7>& in) {
    const TruthTable ta = TruthTable::from_bits(6, cfg.tt_a);
    const TruthTable tb = TruthTable::from_bits(6, cfg.tt_b);
    const std::span<const Logic> lo(in.data(), 6);
    const Logic a = netlist::eval_cell(netlist::CellFunc::Lut, lo, Logic::X, &ta);
    const Logic b = netlist::eval_cell(netlist::CellFunc::Lut, lo, Logic::X, &tb);
    Logic o2;
    if (in[6] == Logic::F)
        o2 = a;
    else if (in[6] == Logic::T)
        o2 = b;
    else
        o2 = (a == b) ? a : Logic::X;
    const std::array<Logic, 3> exported{a, b, o2};
    check(cfg.lut2_sel0 < 3 && cfg.lut2_sel1 < 3, "LeEval: bad LUT2 select");
    const TruthTable t2 = TruthTable::from_bits(2, cfg.lut2_tt);
    const std::array<Logic, 2> l2in{exported[cfg.lut2_sel0], exported[cfg.lut2_sel1]};
    const Logic o3 = netlist::eval_cell(netlist::CellFunc::Lut, l2in, Logic::X, &t2);
    return {a, b, o2, o3};
}

TruthTable LeEval::output_function(const LeConfig& cfg, std::uint32_t out) {
    check(out < 4, "LeEval: bad output index");
    // O0..O2 over i0..i6: the halves ignore i6, the mux picks B when it is 1.
    auto exported = [&cfg](std::uint32_t o) {
        auto half = [](std::uint64_t tt) {
            return TruthTable::from_bits(6, tt).remap({0, 1, 2, 3, 4, 5}, 7);
        };
        if (o == kLeOutA) return half(cfg.tt_a);
        if (o == kLeOutB) return half(cfg.tt_b);
        const TruthTable i6 = TruthTable::identity(7, 6);
        return (~i6 & half(cfg.tt_a)) | (i6 & half(cfg.tt_b));
    };
    if (out != kLeOutLut2) return exported(out);
    check(cfg.lut2_sel0 < 3 && cfg.lut2_sel1 < 3, "LeEval: bad LUT2 select");
    const TruthTable x = exported(cfg.lut2_sel0);
    const TruthTable y = exported(cfg.lut2_sel1);
    // The LUT2 as a sum of its true rows over (x, y).
    TruthTable r(7);
    for (std::uint32_t row = 0; row < 4; ++row)
        if ((cfg.lut2_tt >> row) & 1u) r = r | (((row & 1u) ? x : ~x) & ((row & 2u) ? y : ~y));
    return r;
}

void LeProgram::set_half(LeConfig& cfg, bool half_b, const TruthTable& table,
                         const std::vector<std::size_t>& pin_map) {
    check(table.arity() <= 6, "set_half: function too wide for a LUT6 half");
    check(pin_map.size() == table.arity(), "set_half: pin map arity mismatch");
    for (std::size_t p : pin_map) check(p < 6, "set_half: pin must be one of i0..i5");
    (half_b ? cfg.tt_b : cfg.tt_a) = table.remap(pin_map, 6).bits64();
}

void LeProgram::set_full7(LeConfig& cfg, const TruthTable& table,
                          const std::vector<std::size_t>& pin_map) {
    check(table.arity() == 7, "set_full7: need a 7-variable function");
    check(pin_map.size() == 7, "set_full7: pin map arity mismatch");
    std::size_t sel_var = 7;
    for (std::size_t i = 0; i < 7; ++i) {
        check(pin_map[i] < 7, "set_full7: bad pin");
        if (pin_map[i] == 6) {
            check(sel_var == 7, "set_full7: two variables mapped to i6");
            sel_var = i;
        }
    }
    check(sel_var != 7, "set_full7: no variable mapped to i6");
    const TruthTable f0 = table.cofactor(sel_var, false);
    const TruthTable f1 = table.cofactor(sel_var, true);
    // Remaining variables keep their pin mapping (all < 6).
    std::vector<std::size_t> sub_map;
    for (std::size_t i = 0; i < 7; ++i)
        if (i != sel_var) sub_map.push_back(pin_map[i]);
    set_half(cfg, false, f0, sub_map);
    set_half(cfg, true, f1, sub_map);
}

void LeProgram::set_lut2(LeConfig& cfg, const TruthTable& table2, std::uint32_t sel0,
                         std::uint32_t sel1) {
    check(table2.arity() == 2, "set_lut2: need a 2-variable function");
    check(sel0 < 3 && sel1 < 3, "set_lut2: selects must pick O0/O1/O2");
    cfg.lut2_tt = static_cast<std::uint8_t>(table2.bits64());
    cfg.lut2_sel0 = static_cast<std::uint8_t>(sel0);
    cfg.lut2_sel1 = static_cast<std::uint8_t>(sel1);
}

std::string describe(const LeConfig& cfg) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "LE{A=%016llx B=%016llx lut2=%x sel=(%u,%u)}",
                  static_cast<unsigned long long>(cfg.tt_a),
                  static_cast<unsigned long long>(cfg.tt_b), cfg.lut2_tt, cfg.lut2_sel0,
                  cfg.lut2_sel1);
    return buf;
}

}  // namespace afpga::core
