/// \file
/// Dynamic bit vector used for LUT truth tables and configuration
/// bitstreams.
///
/// Threading: BitVector is a plain value type with no internal
/// synchronisation — share const references freely, never mutate one
/// object from two threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace afpga::base {

/// A resizable vector of bits with word-level access.
///
/// Bit `i` lives in word `i / 64`, bit position `i % 64`. Unused high bits of
/// the last word are kept zero (maintained by all mutators) so that word-wise
/// comparison and hashing are well defined. `append_bits`, `get_bits` and
/// `set_bits` touch at most the two words a field straddles, and
/// range-check once per call.
class BitVector {
public:
    /// Empty vector.
    BitVector() = default;
    /// `nbits` bits, all set to `fill`.
    explicit BitVector(std::size_t nbits, bool fill = false);

    /// Number of bits.
    [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
    /// True when size() == 0.
    [[nodiscard]] bool empty() const noexcept { return nbits_ == 0; }

    /// Read bit `i` (bounds-checked).
    [[nodiscard]] bool get(std::size_t i) const;
    /// Write bit `i` (bounds-checked).
    void set(std::size_t i, bool v);
    /// Invert bit `i` (bounds-checked).
    void flip(std::size_t i);

    /// Append a single bit at the end.
    void push_back(bool v);
    /// Append the low `n` bits of `word` (LSB first).
    void append_bits(std::uint64_t word, std::size_t n);
    /// Read `n` bits starting at `pos` as an LSB-first word. n <= 64.
    [[nodiscard]] std::uint64_t get_bits(std::size_t pos, std::size_t n) const;
    /// Overwrite `n` bits starting at `pos` with the low bits of `word`.
    void set_bits(std::size_t pos, std::uint64_t word, std::size_t n);

    /// Grow or shrink to `nbits`; new bits are set to `fill`.
    void resize(std::size_t nbits, bool fill = false);
    /// Remove all bits.
    void clear() noexcept;

    /// Population count.
    [[nodiscard]] std::size_t count_ones() const noexcept;
    /// True if every bit is zero.
    [[nodiscard]] bool none() const noexcept;

    /// CRC-32 (IEEE 802.3 polynomial, reflected, table-driven) over the
    /// packed little-endian bytes of words(), then the 8 bytes of size().
    [[nodiscard]] std::uint32_t crc32() const noexcept;

    /// "0101..." LSB-first rendering, for diagnostics.
    [[nodiscard]] std::string to_string() const;

    /// The packed 64-bit words (LSB-first; tail bits zero).
    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }
    /// Overwrite word `w` (bits 64w..64w+63; bounds-checked). Bits past
    /// size() are cleared, so the tail stays zero.
    void set_word(std::size_t w, std::uint64_t value);

    /// Bitwise equality (same size and same bits).
    friend bool operator==(const BitVector& a, const BitVector& b) noexcept = default;

private:
    void mask_tail() noexcept;

    std::size_t nbits_ = 0;
    std::vector<std::uint64_t> words_;
};

}  // namespace afpga::base
