#include "base/bitvector.hpp"

#include <bit>

#include "base/check.hpp"

namespace afpga::base {

namespace {
constexpr std::size_t kWordBits = 64;
std::size_t word_count(std::size_t nbits) { return (nbits + kWordBits - 1) / kWordBits; }
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
    resize(nbits_ + 1);
    set(nbits_ - 1, v);
}

void BitVector::append_bits(std::uint64_t word, std::size_t n) {
    check(n <= kWordBits, "append_bits: n > 64");
    for (std::size_t i = 0; i < n; ++i) push_back((word >> i) & 1ULL);
}

std::uint64_t BitVector::get_bits(std::size_t pos, std::size_t n) const {
    check(n <= kWordBits, "get_bits: n > 64");
    check(pos + n <= nbits_, "get_bits out of range");
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (get(pos + i)) out |= 1ULL << i;
    return out;
}

void BitVector::set_bits(std::size_t pos, std::uint64_t word, std::size_t n) {
    check(n <= kWordBits, "set_bits: n > 64");
    check(pos + n <= nbits_, "set_bits out of range");
    for (std::size_t i = 0; i < n; ++i) set(pos + i, (word >> i) & 1ULL);
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
    auto feed = [&crc](std::uint8_t byte) {
        crc ^= byte;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    };
    for (std::uint64_t w : words_)
        for (int b = 0; b < 8; ++b) feed(static_cast<std::uint8_t>(w >> (8 * b)));
    // Length participates so that trailing zeros change the digest.
    for (int b = 0; b < 8; ++b) feed(static_cast<std::uint8_t>(nbits_ >> (8 * b)));
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
