#include "netlist/truthtable.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "base/check.hpp"

namespace afpga::netlist {

using base::check;

namespace {

using Words = std::vector<std::uint64_t>;

/// kVar[v]: the rows of one word where variable v (< 6) is 1.
constexpr std::uint64_t kVar[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

std::size_t word_count(std::size_t arity) {
    return arity <= 6 ? 1 : std::size_t{1} << (arity - 6);
}

/// Variable `var` (< 6) of every row of word `x` moved to the top: keeps the
/// rows where it is `value` and packs them into the low 32 bits.
std::uint64_t compress(std::uint64_t x, std::size_t var, bool value) {
    x = (value ? x >> (1u << var) : x) & ~kVar[var];
    for (std::size_t k = var; k < 5; ++k) x = (x | (x >> (1u << k))) & ~kVar[k + 1];
    return x;
}

/// In place: the table over `arity` variables becomes its cofactor with
/// `var` fixed to `value` (arity - 1 variables, the rest keep their order).
void cofactor_words(Words& w, std::size_t arity, std::size_t var, bool value) {
    const std::size_t out = word_count(arity - 1);
    if (var >= 6) {
        // Whole words: result word j = hi|lo splits around the dropped bit.
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t j = 0; j < out; ++j) {
            const std::size_t hi = j >> (var - 6);
            const std::size_t lo = j & (stride - 1);
            w[j] = w[(hi << (var - 5)) | (value ? stride : 0) | lo];
        }
    } else if (arity <= 6) {
        w[0] = compress(w[0], var, value);
    } else {
        // Each source word yields 32 rows; reads stay at or ahead of writes.
        for (std::size_t j = 0; j < out; ++j)
            w[j] = compress(w[2 * j], var, value) | (compress(w[2 * j + 1], var, value) << 32);
    }
    w.resize(out);
}

/// In place, same arity: every row takes the value of the row with `var`
/// forced to `value` (the result no longer depends on `var`).
void restrict_words(Words& w, std::size_t var, bool value) {
    if (var >= 6) {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t i = 0; i < w.size(); ++i)
            if (i & stride) {
                if (value)
                    w[i - stride] = w[i];
                else
                    w[i] = w[i - stride];
            }
        return;
    }
    const unsigned s = 1u << var;
    for (std::uint64_t& x : w) {
        const std::uint64_t half = x & (value ? kVar[var] : ~kVar[var]);
        x = value ? half | (half >> s) : half | (half << s);
    }
}

/// In place: rows where `var` is 0 from `f0`, the others from `f1`.
void select_words(Words& f0, const Words& f1, std::size_t var) {
    for (std::size_t i = 0; i < f0.size(); ++i) {
        const std::uint64_t sel =
            var < 6 ? kVar[var] : (((i >> (var - 6)) & 1u) ? ~0ULL : 0ULL);
        f0[i] = (f0[i] & ~sel) | (f1[i] & sel);
    }
}

/// In place: exchange variables a < b.
void swap_words(Words& w, std::size_t a, std::size_t b) {
    if (b < 6) {
        // Delta swap of the rows with (a, b) = (1, 0) and (0, 1).
        const unsigned shift = (1u << b) - (1u << a);
        const std::uint64_t m = kVar[a] & ~kVar[b];
        for (std::uint64_t& x : w) {
            const std::uint64_t t = ((x >> shift) ^ x) & m;
            x ^= t | (t << shift);
        }
    } else if (a < 6) {
        const std::size_t stride = std::size_t{1} << (b - 6);
        const unsigned s = 1u << a;
        for (std::size_t i = 0; i < w.size(); ++i) {
            if (i & stride) continue;
            const std::uint64_t lo = w[i];
            const std::uint64_t hi = w[i + stride];
            w[i] = (lo & ~kVar[a]) | ((hi & ~kVar[a]) << s);
            w[i + stride] = (hi & kVar[a]) | ((lo & kVar[a]) >> s);
        }
    } else {
        const std::size_t sa = std::size_t{1} << (a - 6);
        const std::size_t sb = std::size_t{1} << (b - 6);
        for (std::size_t i = 0; i < w.size(); ++i)
            if ((i & sa) && !(i & sb)) std::swap(w[i], w[i - sa + sb]);
    }
}

/// In place: append don't-care variables arity..new_arity-1.
void extend_words(Words& w, std::size_t arity, std::size_t new_arity) {
    for (std::size_t k = arity; k < std::min<std::size_t>(new_arity, 6); ++k)
        w[0] |= w[0] << (1u << k);
    w.resize(word_count(new_arity));
    for (std::size_t k = std::max<std::size_t>(arity, 6); k < new_arity; ++k) {
        const std::size_t half = std::size_t{1} << (k - 6);
        std::copy_n(w.begin(), half, w.begin() + static_cast<std::ptrdiff_t>(half));
    }
}

}  // namespace

TruthTable::TruthTable(std::size_t arity) : arity_(arity), bits_(std::size_t{1} << arity) {
    check(arity <= kMaxArity, "TruthTable arity too large");
}

TruthTable TruthTable::from_words(std::size_t arity, const std::vector<std::uint64_t>& w) {
    TruthTable t(arity);
    for (std::size_t i = 0; i < w.size(); ++i) t.bits_.set_word(i, w[i]);
    return t;
}

TruthTable TruthTable::from_bits(std::size_t arity, std::uint64_t bits) {
    check(arity <= 6, "from_bits: arity must be <= 6");
    TruthTable t(arity);
    t.bits_.set_word(0, bits);
    return t;
}

TruthTable TruthTable::constant(std::size_t arity, bool value) {
    TruthTable t(arity);
    if (value)
        for (std::size_t i = 0; i < t.words().size(); ++i) t.bits_.set_word(i, ~0ULL);
    return t;
}

TruthTable TruthTable::identity(std::size_t arity, std::size_t var) {
    check(var < arity, "identity: var out of range");
    TruthTable t(arity);
    for (std::size_t i = 0; i < t.words().size(); ++i)
        t.bits_.set_word(i, var < 6 ? kVar[var] : (((i >> (var - 6)) & 1u) ? ~0ULL : 0ULL));
    return t;
}

bool TruthTable::eval(std::uint32_t assignment) const {
    check(assignment < rows(), "TruthTable::eval: assignment out of range");
    return bits_.get(assignment);
}

void TruthTable::set_row(std::uint32_t assignment, bool value) {
    check(assignment < rows(), "TruthTable::set_row: assignment out of range");
    bits_.set(assignment, value);
}

std::uint64_t TruthTable::bits64() const {
    check(arity_ <= 6, "bits64: arity must be <= 6");
    return words()[0];
}

bool TruthTable::is_constant() const {
    const Words& w = words();
    const std::uint64_t all_ones = arity_ >= 6 ? ~0ULL : (1ULL << rows()) - 1ULL;
    const std::uint64_t want = (w[0] & 1u) ? all_ones : 0ULL;
    return std::all_of(w.begin(), w.end(), [want](std::uint64_t x) { return x == want; });
}

bool TruthTable::depends_on(std::size_t var) const {
    check(var < arity_, "depends_on: var out of range");
    const Words& w = words();
    if (var < 6) {
        const unsigned s = 1u << var;
        for (std::uint64_t x : w)
            if (((x >> s) ^ x) & ~kVar[var]) return true;
        return false;
    }
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < w.size(); ++i)
        if (!(i & stride) && w[i] != w[i + stride]) return true;
    return false;
}

std::vector<std::size_t> TruthTable::support() const {
    std::vector<std::size_t> s;
    for (std::size_t v = 0; v < arity_; ++v)
        if (depends_on(v)) s.push_back(v);
    return s;
}

TruthTable TruthTable::cofactor(std::size_t var, bool value) const {
    check(var < arity_, "cofactor: var out of range");
    Words w = words();
    cofactor_words(w, arity_, var, value);
    return from_words(arity_ - 1, w);
}

TruthTable TruthTable::prune_support(std::vector<std::size_t>* kept) const {
    std::vector<std::size_t> keep = support();
    Words w = words();
    std::size_t arity = arity_;
    // Drop unused variables from the top so lower indices stay valid.
    for (std::size_t v = arity_, k = keep.size(); v-- > 0;) {
        if (k > 0 && keep[k - 1] == v) {
            --k;
            continue;
        }
        cofactor_words(w, arity--, v, false);
    }
    if (kept) *kept = std::move(keep);
    return from_words(arity, w);
}

TruthTable TruthTable::remap(const std::vector<std::size_t>& perm, std::size_t new_arity) const {
    check(perm.size() == arity_, "remap: perm arity mismatch");
    for (std::size_t p : perm) check(p < new_arity, "remap: target var out of range");
    check(new_arity <= kMaxArity, "TruthTable arity too large");
    Words w = words();
    std::array<std::size_t, kMaxArity> target{};  // variable -> new index
    std::copy(perm.begin(), perm.end(), target.begin());
    std::size_t kept = perm.size();
    // A variable sharing its target with an earlier one is tied to it: keep
    // the rows where the two agree, then drop the now-redundant variable.
    for (std::size_t j = kept; j-- > 0;) {
        const std::size_t first = static_cast<std::size_t>(
            std::find(target.begin(), target.begin() + static_cast<std::ptrdiff_t>(j),
                      target[j]) -
            target.begin());
        if (first == j) continue;
        Words f1 = w;
        restrict_words(w, j, false);
        restrict_words(f1, j, true);
        select_words(w, f1, first);
        cofactor_words(w, kept, j, false);
        std::copy(target.begin() + static_cast<std::ptrdiff_t>(j + 1),
                  target.begin() + static_cast<std::ptrdiff_t>(kept),
                  target.begin() + static_cast<std::ptrdiff_t>(j));
        --kept;
    }
    // Now injective: append don't-care variables for the unused targets (in
    // increasing order), then move every variable to its target by swaps.
    extend_words(w, kept, new_arity);
    std::array<bool, kMaxArity> used{};
    for (std::size_t v = 0; v < kept; ++v) used[target[v]] = true;
    std::array<std::size_t, kMaxArity> var_at{};   // position -> variable
    std::array<std::size_t, kMaxArity> pos_of{};   // variable -> position
    std::array<std::size_t, kMaxArity> var_for{};  // target -> variable
    for (std::size_t v = 0, spare = 0; v < new_arity; ++v) {
        if (v >= kept)
            while (used[spare]) ++spare;
        var_at[v] = pos_of[v] = v;
        var_for[v < kept ? target[v] : spare++] = v;
    }
    for (std::size_t t = 0; t < new_arity; ++t) {
        const std::size_t v = var_for[t];
        const std::size_t p = pos_of[v];
        if (p == t) continue;
        swap_words(w, t, p);  // positions below t are final, so t < p
        const std::size_t u = var_at[t];
        var_at[t] = v;
        var_at[p] = u;
        pos_of[v] = t;
        pos_of[u] = p;
    }
    return from_words(new_arity, w);
}

TruthTable TruthTable::operator~() const {
    TruthTable t(arity_);
    const Words& w = words();
    for (std::size_t i = 0; i < w.size(); ++i) t.bits_.set_word(i, ~w[i]);
    return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
    check(arity_ == o.arity_, "operator&: arity mismatch");
    TruthTable t(arity_);
    for (std::size_t i = 0; i < words().size(); ++i)
        t.bits_.set_word(i, words()[i] & o.words()[i]);
    return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
    check(arity_ == o.arity_, "operator|: arity mismatch");
    TruthTable t(arity_);
    for (std::size_t i = 0; i < words().size(); ++i)
        t.bits_.set_word(i, words()[i] | o.words()[i]);
    return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
    check(arity_ == o.arity_, "operator^: arity mismatch");
    TruthTable t(arity_);
    for (std::size_t i = 0; i < words().size(); ++i)
        t.bits_.set_word(i, words()[i] ^ o.words()[i]);
    return t;
}

std::string TruthTable::to_string() const {
    std::string s;
    s.reserve(rows());
    for (std::uint32_t m = 0; m < rows(); ++m) s.push_back(eval(m) ? '1' : '0');
    return s;
}

}  // namespace afpga::netlist
