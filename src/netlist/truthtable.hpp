// Truth tables over up to 16 variables.
//
// Truth tables are the common currency between the asynchronous circuit
// generators, the technology mapper and the LE configuration model: a LUT6
// half of an LE is exactly a 6-variable TruthTable.
//
// Every operation works on the 64-bit words of the table (one word up to
// arity 6, 2^(arity-6) words above), moving variables with mask-and-shift
// steps in the style of ABC's Abc_Tt* helpers and the kitty library.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/bitvector.hpp"

namespace afpga::netlist {

/// A complete Boolean function of `arity()` ordered variables.
///
/// Row `m` (0 <= m < 2^arity) holds f(x) for the input assignment where
/// variable `i` equals bit `i` of `m` (variable 0 is the LSB).
class TruthTable {
public:
    static constexpr std::size_t kMaxArity = 16;

    /// Constant-0 function of `arity` variables.
    explicit TruthTable(std::size_t arity = 0);

    /// Build from an evaluator called on every input assignment, in row
    /// order (so a stateful `f` sees rows 0, 1, 2, ...).
    template <class F>
    static TruthTable from_function(std::size_t arity, F&& f) {
        TruthTable t(arity);
        const std::uint32_t rows = std::uint32_t{1} << arity;
        for (std::uint32_t base = 0; base < rows; base += 64) {
            std::uint64_t word = 0;
            for (std::uint32_t m = base; m < rows && m < base + 64; ++m)
                if (f(m)) word |= std::uint64_t{1} << (m - base);
            t.bits_.set_word(base / 64, word);
        }
        return t;
    }

    /// Build from the raw table word (row m = bit m). arity <= 6.
    static TruthTable from_bits(std::size_t arity, std::uint64_t bits);

    static TruthTable constant(std::size_t arity, bool value);
    /// Projection onto variable `var`.
    static TruthTable identity(std::size_t arity, std::size_t var);

    [[nodiscard]] std::size_t arity() const noexcept { return arity_; }
    [[nodiscard]] std::size_t rows() const noexcept { return bits_.size(); }

    [[nodiscard]] bool eval(std::uint32_t assignment) const;
    void set_row(std::uint32_t assignment, bool value);

    /// Low 2^arity bits as a word; arity must be <= 6.
    [[nodiscard]] std::uint64_t bits64() const;

    /// The table's words: row m is bit m % 64 of word m / 64, and bits past
    /// rows() are zero. One word up to arity 6, 2^(arity-6) above.
    [[nodiscard]] std::span<const std::uint64_t> row_words() const noexcept { return words(); }
    /// Overwrite word `i` of row_words() (bounds-checked); bits past rows()
    /// are dropped.
    void set_row_word(std::size_t i, std::uint64_t word) { bits_.set_word(i, word); }

    [[nodiscard]] bool is_constant() const;
    [[nodiscard]] bool depends_on(std::size_t var) const;
    /// Indices of variables the function actually depends on.
    [[nodiscard]] std::vector<std::size_t> support() const;

    /// f with variable `var` fixed to `value`; result has arity-1 variables
    /// (remaining variables keep their relative order).
    [[nodiscard]] TruthTable cofactor(std::size_t var, bool value) const;

    /// Remove variables the function does not depend on; `kept` (if non-null)
    /// receives the original indices of the surviving variables in order.
    [[nodiscard]] TruthTable prune_support(std::vector<std::size_t>* kept = nullptr) const;

    /// Reorder/extend variables: old variable `i` becomes new variable
    /// `perm[i]` (perm.size() == arity(), each target < new_arity). Old
    /// variables sharing a target are tied together; new variables no old
    /// one maps to are don't-cares. Result arity = new_arity.
    [[nodiscard]] TruthTable remap(const std::vector<std::size_t>& perm,
                                   std::size_t new_arity) const;

    [[nodiscard]] TruthTable operator~() const;
    [[nodiscard]] TruthTable operator&(const TruthTable& o) const;
    [[nodiscard]] TruthTable operator|(const TruthTable& o) const;
    [[nodiscard]] TruthTable operator^(const TruthTable& o) const;

    friend bool operator==(const TruthTable& a, const TruthTable& b) noexcept = default;

    /// Rows as a 0/1 string, row 0 first.
    [[nodiscard]] std::string to_string() const;

private:
    /// The table over `arity` variables whose words are `w`.
    static TruthTable from_words(std::size_t arity, const std::vector<std::uint64_t>& w);
    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
        return bits_.words();
    }

    std::size_t arity_;
    base::BitVector bits_;  ///< row m = bit m; bits past rows() stay zero
};

}  // namespace afpga::netlist
