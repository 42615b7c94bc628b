#include "base/bitvector.hpp"

#include <array>
#include <bit>

#include "base/check.hpp"

namespace afpga::base {

namespace {
constexpr std::size_t kWordBits = 64;
std::size_t word_count(std::size_t nbits) { return (nbits + kWordBits - 1) / kWordBits; }
/// The low `n` bits set, for n in [0, 64].
constexpr std::uint64_t low_mask(std::size_t n) {
    return n >= kWordBits ? ~0ULL : (1ULL << n) - 1ULL;
}

/// Reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320): entry `b` is the
/// register after shifting byte `b` through the bitwise update eight times.
constexpr std::array<std::uint32_t, 256> kCrcTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t crc = b;
        for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
        table[b] = crc;
    }
    return table;
}();
}  // namespace

BitVector::BitVector(std::size_t nbits, bool fill)
    : nbits_(nbits), words_(word_count(nbits), fill ? ~0ULL : 0ULL) {
    mask_tail();
}

bool BitVector::get(std::size_t i) const {
    check(i < nbits_, "BitVector::get out of range");
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVector::set(std::size_t i, bool v) {
    check(i < nbits_, "BitVector::set out of range");
    const std::uint64_t mask = 1ULL << (i % kWordBits);
    if (v)
        words_[i / kWordBits] |= mask;
    else
        words_[i / kWordBits] &= ~mask;
}

void BitVector::flip(std::size_t i) {
    check(i < nbits_, "BitVector::flip out of range");
    words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

void BitVector::set_word(std::size_t w, std::uint64_t value) {
    check(w < words_.size(), "BitVector::set_word out of range");
    words_[w] = value;
    if (w + 1 == words_.size()) mask_tail();
}

void BitVector::push_back(bool v) {
    const std::size_t off = nbits_ % kWordBits;
    if (off == 0) words_.push_back(0);
    if (v) words_.back() |= 1ULL << off;
    ++nbits_;
}

void BitVector::append_bits(std::uint64_t word, std::size_t n) {
    check(n <= kWordBits, "append_bits: n > 64");
    if (n == 0) return;
    word &= low_mask(n);
    const std::size_t off = nbits_ % kWordBits;
    if (off == 0) {
        words_.push_back(word);
    } else {
        words_.back() |= word << off;
        if (off + n > kWordBits) words_.push_back(word >> (kWordBits - off));
    }
    nbits_ += n;
}

std::uint64_t BitVector::get_bits(std::size_t pos, std::size_t n) const {
    check(n <= kWordBits, "get_bits: n > 64");
    check(pos <= nbits_ && n <= nbits_ - pos, "get_bits out of range");
    if (n == 0) return 0;
    const std::size_t w = pos / kWordBits;
    const std::size_t off = pos % kWordBits;
    std::uint64_t out = words_[w] >> off;
    if (off + n > kWordBits) out |= words_[w + 1] << (kWordBits - off);
    return out & low_mask(n);
}

void BitVector::set_bits(std::size_t pos, std::uint64_t word, std::size_t n) {
    check(n <= kWordBits, "set_bits: n > 64");
    check(pos <= nbits_ && n <= nbits_ - pos, "set_bits out of range");
    if (n == 0) return;
    const std::uint64_t mask = low_mask(n);
    word &= mask;
    const std::size_t w = pos / kWordBits;
    const std::size_t off = pos % kWordBits;
    words_[w] = (words_[w] & ~(mask << off)) | (word << off);
    if (off + n > kWordBits) {
        const std::size_t shift = kWordBits - off;
        words_[w + 1] = (words_[w + 1] & ~(mask >> shift)) | (word >> shift);
    }
}

void BitVector::resize(std::size_t nbits, bool fill) {
    const std::size_t old_bits = nbits_;
    nbits_ = nbits;
    words_.resize(word_count(nbits), 0);
    if (fill && nbits > old_bits) {
        // mask_tail above/below keeps invariants; set new bits individually.
        for (std::size_t i = old_bits; i < nbits; ++i) set(i, true);
    }
    mask_tail();
}

void BitVector::clear() noexcept {
    nbits_ = 0;
    words_.clear();
}

std::size_t BitVector::count_ones() const noexcept {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

bool BitVector::none() const noexcept {
    for (std::uint64_t w : words_)
        if (w != 0) return false;
    return true;
}

std::uint32_t BitVector::crc32() const noexcept {
    std::uint32_t crc = 0xFFFFFFFFu;
    auto feed = [&crc](std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            const auto byte = static_cast<std::uint8_t>(word >> (8 * b));
            crc = (crc >> 8) ^ kCrcTable[(crc ^ byte) & 0xFFu];
        }
    };
    for (std::uint64_t w : words_) feed(w);
    // Length participates so that trailing zeros change the digest.
    feed(nbits_);
    return ~crc;
}

std::string BitVector::to_string() const {
    std::string s;
    s.reserve(nbits_);
    for (std::size_t i = 0; i < nbits_; ++i) s.push_back(get(i) ? '1' : '0');
    return s;
}

void BitVector::mask_tail() noexcept {
    const std::size_t rem = nbits_ % kWordBits;
    if (rem != 0 && !words_.empty()) words_.back() &= (1ULL << rem) - 1ULL;
}

}  // namespace afpga::base
