// Unit + property tests for TruthTable and the cell evaluation semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "netlist/cells.hpp"
#include "netlist/truthtable.hpp"

namespace {

using afpga::base::Rng;
using afpga::netlist::CellFunc;
using afpga::netlist::Logic;
using afpga::netlist::TruthTable;

TruthTable random_table(std::size_t arity, Rng& rng) {
    return TruthTable::from_function(arity, [&](std::uint32_t) { return rng.chance(0.5); });
}

TEST(TruthTable, ConstantAndIdentity) {
    const auto c1 = TruthTable::constant(3, true);
    EXPECT_TRUE(c1.is_constant());
    for (std::uint32_t m = 0; m < 8; ++m) EXPECT_TRUE(c1.eval(m));
    const auto x1 = TruthTable::identity(3, 1);
    for (std::uint32_t m = 0; m < 8; ++m) EXPECT_EQ(x1.eval(m), ((m >> 1) & 1) != 0);
}

TEST(TruthTable, FromBitsRoundTrip) {
    const auto t = TruthTable::from_bits(3, 0b10010110);  // XOR3
    EXPECT_EQ(t.bits64(), 0b10010110u);
    EXPECT_TRUE(t.eval(0b001));
    EXPECT_FALSE(t.eval(0b011));
}

TEST(TruthTable, SupportDetection) {
    // f = x0 XOR x2 over 4 vars: depends on 0 and 2 only.
    const auto t = TruthTable::from_function(
        4, [](std::uint32_t m) { return ((m & 1) ^ ((m >> 2) & 1)) != 0; });
    EXPECT_TRUE(t.depends_on(0));
    EXPECT_FALSE(t.depends_on(1));
    EXPECT_TRUE(t.depends_on(2));
    EXPECT_FALSE(t.depends_on(3));
    EXPECT_EQ(t.support(), (std::vector<std::size_t>{0, 2}));
}

TEST(TruthTable, CofactorShannon) {
    Rng rng(42);
    for (int iter = 0; iter < 20; ++iter) {
        const auto f = random_table(5, rng);
        for (std::size_t var = 0; var < 5; ++var) {
            const auto f0 = f.cofactor(var, false);
            const auto f1 = f.cofactor(var, true);
            // Shannon: f(m) == (m_var ? f1 : f0)(m without var)
            for (std::uint32_t m = 0; m < 32; ++m) {
                const std::uint32_t lo = m & ((1u << var) - 1);
                const std::uint32_t hi = (m >> (var + 1)) << var;
                const std::uint32_t sub = hi | lo;
                const bool expect = ((m >> var) & 1) ? f1.eval(sub) : f0.eval(sub);
                EXPECT_EQ(f.eval(m), expect);
            }
        }
    }
}

TEST(TruthTable, PruneSupport) {
    const auto t = TruthTable::from_function(
        4, [](std::uint32_t m) { return ((m & 1) & ((m >> 3) & 1)) != 0; });
    std::vector<std::size_t> kept;
    const auto p = t.prune_support(&kept);
    EXPECT_EQ(p.arity(), 2u);
    EXPECT_EQ(kept, (std::vector<std::size_t>{0, 3}));
    EXPECT_TRUE(p.eval(0b11));
    EXPECT_FALSE(p.eval(0b01));
}

TEST(TruthTable, RemapPermutation) {
    Rng rng(7);
    const auto f = random_table(3, rng);
    // Swap vars 0 and 2.
    const auto g = f.remap({2, 1, 0}, 3);
    for (std::uint32_t m = 0; m < 8; ++m) {
        const std::uint32_t swapped = ((m & 1) << 2) | (m & 2) | ((m >> 2) & 1);
        EXPECT_EQ(g.eval(m), f.eval(swapped));
    }
}

TEST(TruthTable, RemapExtend) {
    const auto f = TruthTable::from_bits(2, 0b0110);  // XOR2
    const auto g = f.remap({1, 3}, 5);                // vars 1 and 3 of a 5-var fn
    for (std::uint32_t m = 0; m < 32; ++m)
        EXPECT_EQ(g.eval(m), (((m >> 1) ^ (m >> 3)) & 1) != 0);
}

TEST(TruthTable, BooleanOperators) {
    Rng rng(3);
    const auto a = random_table(4, rng);
    const auto b = random_table(4, rng);
    const auto andt = a & b;
    const auto ort = a | b;
    const auto xort = a ^ b;
    const auto nott = ~a;
    for (std::uint32_t m = 0; m < 16; ++m) {
        EXPECT_EQ(andt.eval(m), a.eval(m) && b.eval(m));
        EXPECT_EQ(ort.eval(m), a.eval(m) || b.eval(m));
        EXPECT_EQ(xort.eval(m), a.eval(m) != b.eval(m));
        EXPECT_EQ(nott.eval(m), !a.eval(m));
    }
}

TEST(TruthTable, ArityLimit) {
    EXPECT_THROW(TruthTable(17), afpga::base::Error);
    EXPECT_NO_THROW(TruthTable(16));
}

// --- word-level operations against a bit-at-a-time reference -----------------
//
// Ref is the row-by-row implementation every word-level TruthTable operation
// must agree with: it evaluates each result row from the definition.

struct Ref {
    std::size_t arity = 0;
    std::vector<bool> rows;

    explicit Ref(std::size_t a) : arity(a), rows(std::size_t{1} << a, false) {}
    explicit Ref(const TruthTable& t) : Ref(t.arity()) {
        for (std::uint32_t m = 0; m < rows.size(); ++m) rows[m] = t.eval(m);
    }
    [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(rows.size()); }

    [[nodiscard]] bool depends_on(std::size_t var) const {
        const std::uint32_t bit = 1u << var;
        for (std::uint32_t m = 0; m < size(); ++m)
            if (!(m & bit) && rows[m] != rows[m | bit]) return true;
        return false;
    }
    [[nodiscard]] std::vector<std::size_t> support() const {
        std::vector<std::size_t> s;
        for (std::size_t v = 0; v < arity; ++v)
            if (depends_on(v)) s.push_back(v);
        return s;
    }
    [[nodiscard]] bool is_constant() const {
        for (bool r : rows)
            if (r != rows[0]) return false;
        return true;
    }
    [[nodiscard]] Ref cofactor(std::size_t var, bool value) const {
        Ref t(arity - 1);
        for (std::uint32_t m = 0; m < t.size(); ++m) {
            const std::uint32_t lo = m & ((1u << var) - 1u);
            const std::uint32_t hi = (m >> var) << (var + 1);
            t.rows[m] = rows[hi | (value ? (1u << var) : 0u) | lo];
        }
        return t;
    }
    [[nodiscard]] Ref prune_support(std::vector<std::size_t>* kept) const {
        const std::vector<std::size_t> keep = support();
        Ref t(keep.size());
        for (std::uint32_t m = 0; m < t.size(); ++m) {
            std::uint32_t full = 0;
            for (std::size_t i = 0; i < keep.size(); ++i)
                if ((m >> i) & 1u) full |= 1u << keep[i];
            t.rows[m] = rows[full];
        }
        *kept = keep;
        return t;
    }
    [[nodiscard]] Ref remap(const std::vector<std::size_t>& perm, std::size_t new_arity) const {
        Ref t(new_arity);
        for (std::uint32_t m = 0; m < t.size(); ++m) {
            std::uint32_t old = 0;
            for (std::size_t i = 0; i < arity; ++i)
                if ((m >> perm[i]) & 1u) old |= 1u << i;
            t.rows[m] = rows[old];
        }
        return t;
    }
    template <class Op>
    [[nodiscard]] Ref zip(const Ref& o, Op op) const {
        Ref t(arity);
        for (std::uint32_t m = 0; m < size(); ++m) t.rows[m] = op(rows[m], o.rows[m]);
        return t;
    }
};

/// The table of arity `a` whose rows are the low bits of `code`, then zeros.
TruthTable table_of(std::size_t a, std::uint64_t code) {
    return TruthTable::from_function(a, [code](std::uint32_t m) {
        return m < 64 && ((code >> m) & 1u) != 0;
    });
}

void expect_same(const TruthTable& got, const Ref& want, const char* what) {
    ASSERT_EQ(got.arity(), want.arity) << what;
    ASSERT_EQ(Ref(got).rows, want.rows) << what;
}

/// Every unary operation of `t` against the reference.
void check_unary(const TruthTable& t) {
    const Ref r(t);
    expect_same(~t, r.zip(r, [](bool a, bool) { return !a; }), "operator~");
    if (t.arity() < 6) {
        // The rows past 2^arity of the one storage word stay zero.
        EXPECT_EQ((~t).bits64() >> t.rows(), 0u);
        EXPECT_EQ(~~t, t);
    }
    EXPECT_EQ(t.is_constant(), r.is_constant());
    for (std::size_t v = 0; v < t.arity(); ++v) {
        EXPECT_EQ(t.depends_on(v), r.depends_on(v)) << "var " << v;
        expect_same(t.cofactor(v, false), r.cofactor(v, false), "cofactor 0");
        expect_same(t.cofactor(v, true), r.cofactor(v, true), "cofactor 1");
    }
    EXPECT_EQ(t.support(), r.support());
    std::vector<std::size_t> kept;
    std::vector<std::size_t> want_kept;
    expect_same(t.prune_support(&kept), r.prune_support(&want_kept), "prune_support");
    EXPECT_EQ(kept, want_kept);
}

void check_binary(const TruthTable& a, const TruthTable& b) {
    const Ref ra(a);
    const Ref rb(b);
    expect_same(a & b, ra.zip(rb, [](bool x, bool y) { return x && y; }), "operator&");
    expect_same(a | b, ra.zip(rb, [](bool x, bool y) { return x || y; }), "operator|");
    expect_same(a ^ b, ra.zip(rb, [](bool x, bool y) { return x != y; }), "operator^");
}

void check_remap(const TruthTable& t, const std::vector<std::size_t>& perm,
                 std::size_t new_arity) {
    expect_same(t.remap(perm, new_arity), Ref(t).remap(perm, new_arity), "remap");
}

/// A random map of `arity` variables into `new_arity` (repeats allowed
/// unless `injective`).
std::vector<std::size_t> random_perm(std::size_t arity, std::size_t new_arity, bool injective,
                                     Rng& rng) {
    std::vector<std::size_t> pool(new_arity);
    for (std::size_t i = 0; i < new_arity; ++i) pool[i] = i;
    std::vector<std::size_t> perm;
    for (std::size_t i = 0; i < arity; ++i) {
        if (injective) {
            const std::size_t k = i + rng.below(new_arity - i);
            std::swap(pool[i], pool[k]);
            perm.push_back(pool[i]);
        } else {
            perm.push_back(rng.below(new_arity));
        }
    }
    return perm;
}

TEST(TruthTableWords, FactoriesMatchDefinition) {
    for (std::size_t a = 0; a <= TruthTable::kMaxArity; ++a) {
        for (bool v : {false, true}) {
            Ref want(a);
            want.rows.assign(want.size(), v);
            expect_same(TruthTable::constant(a, v), want, "constant");
        }
        for (std::size_t var = 0; var < a; ++var) {
            Ref want(a);
            for (std::uint32_t m = 0; m < want.size(); ++m) want.rows[m] = (m >> var) & 1u;
            expect_same(TruthTable::identity(a, var), want, "identity");
        }
    }
    Rng rng(5);
    for (std::size_t a = 0; a <= 6; ++a)
        for (int i = 0; i < 50; ++i) {
            const std::uint64_t bits = rng.next();
            Ref want(a);
            for (std::uint32_t m = 0; m < want.size(); ++m) want.rows[m] = (bits >> m) & 1u;
            const TruthTable t = TruthTable::from_bits(a, bits);
            expect_same(t, want, "from_bits");
            EXPECT_EQ(t.bits64() >> (t.rows() - 1) >> 1, 0u);  // high rows stay zero
        }
}

TEST(TruthTableWords, RowWordsMatchDefinition) {
    // The codec's word view: row m is bit m % 64 of word m / 64, and bits
    // past rows() written through set_row_word are dropped.
    Rng rng(11);
    for (std::size_t a : {0u, 3u, 6u, 7u, 10u}) {
        TruthTable t(a);
        ASSERT_EQ(t.row_words().size(), (t.rows() + 63) / 64);
        std::vector<std::uint64_t> words(t.row_words().size());
        for (std::size_t i = 0; i < words.size(); ++i) t.set_row_word(i, words[i] = rng.next());
        Ref want(a);
        for (std::uint32_t m = 0; m < want.size(); ++m)
            want.rows[m] = (words[m / 64] >> (m % 64)) & 1u;
        expect_same(t, want, "set_row_word");
        for (std::size_t i = 0; i < words.size(); ++i) {
            const std::size_t live = std::min<std::size_t>(64, t.rows() - 64 * i);
            const std::uint64_t mask = live == 64 ? ~0ULL : (1ULL << live) - 1;
            EXPECT_EQ(t.row_words()[i], words[i] & mask) << "arity " << a << " word " << i;
        }
    }
}

TEST(TruthTableWords, FromFunctionVisitsRowsInOrder) {
    for (std::size_t a : {0u, 3u, 6u, 7u, 10u}) {
        std::vector<std::uint32_t> seen;
        (void)TruthTable::from_function(a, [&seen](std::uint32_t m) {
            seen.push_back(m);
            return (m * 2654435761u) >> 31;
        });
        ASSERT_EQ(seen.size(), std::size_t{1} << a);
        for (std::uint32_t m = 0; m < seen.size(); ++m) EXPECT_EQ(seen[m], m);
    }
}

TEST(TruthTableWords, UnaryExhaustiveUpToArity4) {
    for (std::size_t a = 0; a <= 4; ++a)
        for (std::uint64_t code = 0; code < (std::uint64_t{1} << (1u << a)); ++code) {
            check_unary(table_of(a, code));
            if (HasFatalFailure()) return;
        }
}

TEST(TruthTableWords, BinaryExhaustiveUpToArity3) {
    for (std::size_t a = 0; a <= 3; ++a) {
        const std::uint64_t n = std::uint64_t{1} << (1u << a);
        for (std::uint64_t x = 0; x < n; ++x)
            for (std::uint64_t y = 0; y < n; ++y) {
                check_binary(table_of(a, x), table_of(a, y));
                if (HasFatalFailure()) return;
            }
    }
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) check_binary(random_table(4, rng), random_table(4, rng));
}

TEST(TruthTableWords, RemapExhaustiveUpToArity3) {
    // Every function of arity <= 3 through every map into arity <= 5,
    // repeated and omitted targets included.
    for (std::size_t a = 0; a <= 3; ++a)
        for (std::size_t na = a > 0 ? 1 : 0; na <= 5; ++na) {
            std::size_t maps = 1;
            for (std::size_t i = 0; i < a; ++i) maps *= na;
            for (std::size_t code = 0; code < maps; ++code) {
                std::vector<std::size_t> perm;
                for (std::size_t i = 0, c = code; i < a; ++i, c /= na) perm.push_back(c % na);
                for (std::uint64_t f = 0; f < (std::uint64_t{1} << (1u << a)); ++f) {
                    check_remap(table_of(a, f), perm, na);
                    if (HasFatalFailure()) return;
                }
            }
        }
}

TEST(TruthTableWords, RemapEveryArity4Function) {
    Rng rng(13);
    std::vector<std::pair<std::vector<std::size_t>, std::size_t>> maps;
    for (std::size_t na : {3u, 4u, 5u, 7u}) maps.emplace_back(random_perm(4, na, na > 3, rng), na);
    maps.emplace_back(random_perm(4, 5, false, rng), 5);
    for (std::uint64_t f = 0; f < (1u << 16); ++f)
        for (const auto& [perm, na] : maps) {
            check_remap(table_of(4, f), perm, na);
            if (HasFatalFailure()) return;
        }
}

TEST(TruthTableWords, SeededArity5To16) {
    Rng rng(2026);
    for (std::size_t a = 5; a <= TruthTable::kMaxArity; ++a) {
        const int reps = a <= 10 ? 6 : 2;
        for (int i = 0; i < reps; ++i) {
            const TruthTable t = random_table(a, rng);
            check_unary(t);
            check_binary(t, random_table(a, rng));
            // A function of a few scattered variables: prune and depends_on
            // must find exactly those.
            const auto vars = random_perm(3, a, true, rng);
            const TruthTable g = random_table(3, rng);
            const TruthTable sparse = TruthTable::from_function(a, [&](std::uint32_t m) {
                std::uint32_t row = 0;
                for (std::size_t k = 0; k < 3; ++k) row |= ((m >> vars[k]) & 1u) << k;
                return g.eval(row);
            });
            check_unary(sparse);
            check_unary(TruthTable::constant(a, i % 2 == 1));
            for (std::size_t na : {a, std::min<std::size_t>(a + 1, TruthTable::kMaxArity)}) {
                check_remap(t, random_perm(a, na, true, rng), na);
                check_remap(t, random_perm(a, na, false, rng), na);
            }
            check_remap(t, random_perm(a, a - 2, false, rng), a - 2);
            if (HasFatalFailure()) return;
        }
    }
}

// --- cell evaluation ---------------------------------------------------------

TEST(CellEval, ControllingValuesDominateX) {
    using afpga::netlist::eval_cell;
    const std::vector<Logic> and_in{Logic::F, Logic::X};
    EXPECT_EQ(eval_cell(CellFunc::And, and_in, Logic::X), Logic::F);
    const std::vector<Logic> or_in{Logic::T, Logic::X};
    EXPECT_EQ(eval_cell(CellFunc::Or, or_in, Logic::X), Logic::T);
    const std::vector<Logic> xor_in{Logic::T, Logic::X};
    EXPECT_EQ(eval_cell(CellFunc::Xor, xor_in, Logic::X), Logic::X);
}

TEST(CellEval, MullerCHolds) {
    using afpga::netlist::eval_cell;
    const std::vector<Logic> mixed{Logic::T, Logic::F};
    EXPECT_EQ(eval_cell(CellFunc::C, mixed, Logic::F), Logic::F);
    EXPECT_EQ(eval_cell(CellFunc::C, mixed, Logic::T), Logic::T);
    const std::vector<Logic> all_t{Logic::T, Logic::T};
    EXPECT_EQ(eval_cell(CellFunc::C, all_t, Logic::F), Logic::T);
    const std::vector<Logic> all_f{Logic::F, Logic::F};
    EXPECT_EQ(eval_cell(CellFunc::C, all_f, Logic::T), Logic::F);
}

TEST(CellEval, AsymmetricC) {
    using afpga::netlist::eval_cell;
    // rises only on a&b
    EXPECT_EQ(eval_cell(CellFunc::CAsym2P, std::vector<Logic>{Logic::T, Logic::T}, Logic::F),
              Logic::T);
    EXPECT_EQ(eval_cell(CellFunc::CAsym2P, std::vector<Logic>{Logic::T, Logic::F}, Logic::F),
              Logic::F);
    // holds while a stays high
    EXPECT_EQ(eval_cell(CellFunc::CAsym2P, std::vector<Logic>{Logic::T, Logic::F}, Logic::T),
              Logic::T);
    // falls on !a regardless of b
    EXPECT_EQ(eval_cell(CellFunc::CAsym2P, std::vector<Logic>{Logic::F, Logic::T}, Logic::T),
              Logic::F);
}

TEST(CellEval, LatchTransparency) {
    using afpga::netlist::eval_cell;
    EXPECT_EQ(eval_cell(CellFunc::Latch, std::vector<Logic>{Logic::T, Logic::T}, Logic::F),
              Logic::T);
    EXPECT_EQ(eval_cell(CellFunc::Latch, std::vector<Logic>{Logic::T, Logic::F}, Logic::F),
              Logic::F);
}

TEST(CellEval, LutExactXPropagation) {
    using afpga::netlist::eval_cell;
    // f = a OR b: with a=T, b=X the output is known T.
    const auto t = TruthTable::from_bits(2, 0b1110);
    const std::vector<Logic> in{Logic::T, Logic::X};
    EXPECT_EQ(eval_cell(CellFunc::Lut, in, Logic::X, &t), Logic::T);
    const std::vector<Logic> in2{Logic::F, Logic::X};
    EXPECT_EQ(eval_cell(CellFunc::Lut, in2, Logic::X, &t), Logic::X);
}

TEST(CellEval, FeedbackFunctionOfC2IsMajority) {
    // C2 with feedback variable appended equals MAJ(a, b, state).
    const auto t = afpga::netlist::cell_function_with_feedback(CellFunc::C, 2);
    ASSERT_EQ(t.arity(), 3u);
    for (std::uint32_t m = 0; m < 8; ++m) {
        const int ones = ((m & 1) != 0) + ((m & 2) != 0) + ((m & 4) != 0);
        EXPECT_EQ(t.eval(m), ones >= 2) << "m=" << m;
    }
}

TEST(CellEval, PropertyRandomLutMatchesTable) {
    Rng rng(99);
    for (int iter = 0; iter < 50; ++iter) {
        const std::size_t arity = 1 + rng.below(6);
        const auto t = random_table(arity, rng);
        for (std::uint32_t m = 0; m < (1u << arity); ++m) {
            std::vector<bool> in(arity);
            for (std::size_t i = 0; i < arity; ++i) in[i] = (m >> i) & 1u;
            EXPECT_EQ(afpga::netlist::eval_cell_bool(CellFunc::Lut, in, &t), t.eval(m));
        }
    }
}

}  // namespace
