// Unit tests for the base utilities: strong ids, bit vectors, RNG, tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "base/bitvector.hpp"
#include "base/check.hpp"
#include "base/ids.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"

namespace {

using afpga::base::BitVector;
using afpga::base::Rng;
using afpga::base::StrongId;

struct FooTag {};
struct BarTag {};
using FooId = StrongId<FooTag>;
using BarId = StrongId<BarTag>;

TEST(StrongId, DefaultIsInvalid) {
    FooId id;
    EXPECT_FALSE(id.valid());
    EXPECT_EQ(id, FooId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
    FooId id{42u};
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(id.value(), 42u);
    EXPECT_EQ(id.index(), 42u);
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
    static_assert(!std::is_same_v<FooId, BarId>);
}

TEST(StrongId, Ordering) {
    EXPECT_LT(FooId{1u}, FooId{2u});
    EXPECT_EQ(FooId{7u}, FooId{7u});
}

TEST(StrongId, Hashable) {
    std::unordered_set<FooId> s;
    s.insert(FooId{1u});
    s.insert(FooId{1u});
    s.insert(FooId{2u});
    EXPECT_EQ(s.size(), 2u);
}

TEST(BitVector, ConstructAndGet) {
    BitVector bv(130);
    EXPECT_EQ(bv.size(), 130u);
    EXPECT_TRUE(bv.none());
    bv.set(0, true);
    bv.set(64, true);
    bv.set(129, true);
    EXPECT_TRUE(bv.get(0));
    EXPECT_TRUE(bv.get(64));
    EXPECT_TRUE(bv.get(129));
    EXPECT_FALSE(bv.get(1));
    EXPECT_EQ(bv.count_ones(), 3u);
}

TEST(BitVector, FillConstructorMasksTail) {
    BitVector bv(70, true);
    EXPECT_EQ(bv.count_ones(), 70u);
}

TEST(BitVector, Flip) {
    BitVector bv(8);
    bv.flip(3);
    EXPECT_TRUE(bv.get(3));
    bv.flip(3);
    EXPECT_FALSE(bv.get(3));
}

TEST(BitVector, PushBackGrows) {
    BitVector bv;
    for (int i = 0; i < 100; ++i) bv.push_back(i % 3 == 0);
    EXPECT_EQ(bv.size(), 100u);
    EXPECT_TRUE(bv.get(0));
    EXPECT_FALSE(bv.get(1));
    EXPECT_TRUE(bv.get(99));
}

TEST(BitVector, AppendAndGetBits) {
    BitVector bv;
    bv.append_bits(0b1011, 4);
    bv.append_bits(0xFF, 8);
    EXPECT_EQ(bv.get_bits(0, 4), 0b1011u);
    EXPECT_EQ(bv.get_bits(4, 8), 0xFFu);
}

TEST(BitVector, SetBits) {
    BitVector bv(16);
    bv.set_bits(4, 0b1101, 4);
    EXPECT_EQ(bv.get_bits(4, 4), 0b1101u);
    EXPECT_EQ(bv.get_bits(0, 4), 0u);
}

TEST(BitVector, EqualityAndCrc) {
    BitVector a(40);
    BitVector b(40);
    a.set(17, true);
    b.set(17, true);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.crc32(), b.crc32());
    b.set(18, true);
    EXPECT_NE(a, b);
    EXPECT_NE(a.crc32(), b.crc32());
}

TEST(BitVector, CrcDependsOnLength) {
    BitVector a(8);
    BitVector b(16);
    EXPECT_NE(a.crc32(), b.crc32());
}

TEST(BitVector, OutOfRangeThrows) {
    BitVector bv(8);
    EXPECT_THROW((void)bv.get(8), afpga::base::Error);
    EXPECT_THROW(bv.set(9, true), afpga::base::Error);
}

// ---- Word-level operations against a bit-by-bit model ----------------------

/// A fixed pseudo-random bit sequence (64-bit LCG, top bit per step).
std::vector<bool> bit_pattern(std::size_t n) {
    std::vector<bool> bits(n);
    std::uint64_t x = 0x243F6A8885A308D3ULL;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        bits[i] = (x >> 63) != 0;
    }
    return bits;
}

BitVector from_model(const std::vector<bool>& model) {
    BitVector bv(model.size());
    for (std::size_t i = 0; i < model.size(); ++i) bv.set(i, model[i]);
    return bv;
}

/// Same size and bits as `model`, exactly enough words, and a zero tail.
::testing::AssertionResult matches_model(const BitVector& bv, const std::vector<bool>& model) {
    if (bv.size() != model.size())
        return ::testing::AssertionFailure() << "size " << bv.size() << " != " << model.size();
    if (bv.words().size() != (model.size() + 63) / 64)
        return ::testing::AssertionFailure() << bv.words().size() << " words for "
                                             << model.size() << " bits";
    for (std::size_t i = 0; i < model.size(); ++i)
        if (bv.get(i) != model[i]) return ::testing::AssertionFailure() << "bit " << i;
    if (model.size() % 64 != 0 && (bv.words().back() >> (model.size() % 64)) != 0)
        return ::testing::AssertionFailure() << "tail bits past " << model.size() << " are set";
    return ::testing::AssertionSuccess();
}

// Every start 0..130 (three words' worth of offsets) and width 0..64, so each
// straddle of a word boundary is hit from both sides.
constexpr std::size_t kMaxPos = 130;
constexpr std::uint64_t kJunk = 0xA5C3'96E1'F00D'5EEDULL;  // high bits must be ignored

TEST(BitVectorWords, GetBitsMatchesBitReads) {
    const std::vector<bool> model = bit_pattern(kMaxPos + 64);
    const BitVector bv = from_model(model);
    for (std::size_t pos = 0; pos <= kMaxPos; ++pos) {
        for (std::size_t n = 0; n <= 64; ++n) {
            std::uint64_t expect = 0;
            for (std::size_t i = 0; i < n; ++i)
                if (model[pos + i]) expect |= 1ULL << i;
            ASSERT_EQ(bv.get_bits(pos, n), expect) << "pos " << pos << " n " << n;
        }
    }
}

TEST(BitVectorWords, SetBitsMatchesBitWrites) {
    const std::vector<bool> base = bit_pattern(kMaxPos + 64);
    for (std::size_t pos = 0; pos <= kMaxPos; ++pos) {
        for (std::size_t n = 0; n <= 64; ++n) {
            const std::uint64_t word = kJunk * (pos + 1) ^ n;
            std::vector<bool> model = base;
            for (std::size_t i = 0; i < n; ++i) model[pos + i] = ((word >> i) & 1ULL) != 0;
            BitVector bv = from_model(base);
            bv.set_bits(pos, word, n);
            ASSERT_TRUE(matches_model(bv, model)) << "pos " << pos << " n " << n;
        }
    }
}

TEST(BitVectorWords, AppendBitsMatchesPushBack) {
    for (std::size_t len = 0; len <= kMaxPos; ++len) {
        const std::vector<bool> prefix = bit_pattern(len);
        const BitVector start = from_model(prefix);
        for (std::size_t n = 0; n <= 64; ++n) {
            const std::uint64_t word = kJunk * (len + 1) ^ n;
            std::vector<bool> model = prefix;
            for (std::size_t i = 0; i < n; ++i) model.push_back(((word >> i) & 1ULL) != 0);
            BitVector bv = start;
            bv.append_bits(word, n);
            ASSERT_TRUE(matches_model(bv, model)) << "len " << len << " n " << n;
        }
    }
}

TEST(BitVectorWords, PushBackAcrossWordBoundaries) {
    const std::vector<bool> bits = bit_pattern(3 * 64 + 5);
    BitVector bv;
    std::vector<bool> model;
    for (const bool b : bits) {
        bv.push_back(b);
        model.push_back(b);
        ASSERT_TRUE(matches_model(bv, model)) << "after " << model.size() << " bits";
    }
}

TEST(BitVectorWords, ResizeMatchesModel) {
    for (std::size_t from = 0; from <= kMaxPos; from += 7) {
        const std::vector<bool> start = bit_pattern(from);
        for (std::size_t to = 0; to <= kMaxPos + 64; to += 5) {
            for (const bool fill : {false, true}) {
                std::vector<bool> model = start;
                model.resize(to, fill);
                BitVector bv = from_model(start);
                bv.resize(to, fill);
                ASSERT_TRUE(matches_model(bv, model))
                    << from << " -> " << to << " fill " << fill;
            }
        }
    }
}

TEST(BitVectorWords, RangeChecksOncePerCall) {
    BitVector bv(100);
    EXPECT_NO_THROW((void)bv.get_bits(100, 0));
    EXPECT_NO_THROW(bv.set_bits(36, ~0ULL, 64));
    EXPECT_THROW((void)bv.get_bits(37, 64), afpga::base::Error);
    EXPECT_THROW(bv.set_bits(99, 0, 2), afpga::base::Error);
    EXPECT_THROW((void)bv.get_bits(0, 65), afpga::base::Error);
    EXPECT_THROW(bv.append_bits(0, 65), afpga::base::Error);
    // pos + n would wrap: still out of range, not a wild read.
    EXPECT_THROW((void)bv.get_bits(~std::size_t{0}, 2), afpga::base::Error);
    EXPECT_EQ(bv.size(), 100u);
}

// Known answers recorded from the bit-serial CRC-32 (8 shifts per byte) that
// the table-driven one replaced: every stored bitstream CRC depends on them.
TEST(BitVectorWords, Crc32KnownAnswers) {
    struct Kat {
        std::size_t bits;
        std::uint32_t pattern;
        std::uint32_t ones;
    };
    const Kat kats[] = {
        {0, 0x6522DF69U, 0x6522DF69U},    {1, 0x8E79DA5AU, 0x8E79DA5AU},
        {63, 0xACD8AD5DU, 0x416D87F1U},   {64, 0xBFFD2E2EU, 0x52480482U},
        {65, 0x48E6DDD6U, 0x448AC86FU},   {1000, 0xB3F0B1F1U, 0xF5844706U},
    };
    for (const Kat& k : kats) {
        EXPECT_EQ(from_model(bit_pattern(k.bits)).crc32(), k.pattern) << k.bits << " bits";
        EXPECT_EQ(BitVector(k.bits, true).crc32(), k.ones) << k.bits << " ones";
    }
}

TEST(Check, LiteralAndStringMessagesThrowExactText) {
    using afpga::base::check;
    using afpga::base::Error;
    EXPECT_NO_THROW(check(true, "literal message that passes"));
    EXPECT_NO_THROW(check(true, std::string("string message that passes")));
    try {
        check(false, "a literal message longer than fifteen characters");
        FAIL() << "check(false, literal) did not throw";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "a literal message longer than fifteen characters");
    }
    const std::string name = "net42";
    try {
        check(false, "unknown net " + name);
        FAIL() << "check(false, string) did not throw";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "unknown net net42");
    }
}

TEST(Rng, Deterministic) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, ForkDoesNotPerturbParent) {
    Rng plain(99);
    Rng forked(99);
    (void)forked.fork(0);
    (void)forked.fork(1);
    for (int i = 0; i < 256; ++i) EXPECT_EQ(plain.next(), forked.next());
    // Forking mid-sequence is equally invisible.
    (void)forked.fork(7);
    for (int i = 0; i < 256; ++i) EXPECT_EQ(plain.next(), forked.next());
}

TEST(Rng, ForkStreamsIndependentOfParentAndSiblings) {
    // Regression for replica use: a fork must never replay (a shifted copy
    // of) the parent sequence or a sibling's. With 64-bit draws, any overlap
    // between the 256-draw windows of the three streams flags correlation.
    Rng parent(4242);
    Rng f0 = parent.fork(0);
    Rng f1 = parent.fork(1);
    std::unordered_set<std::uint64_t> parent_draws;
    for (int i = 0; i < 256; ++i) parent_draws.insert(parent.next());
    int collisions = 0;
    std::unordered_set<std::uint64_t> f0_draws;
    for (int i = 0; i < 256; ++i) {
        const std::uint64_t v = f0.next();
        collisions += parent_draws.count(v);
        f0_draws.insert(v);
    }
    for (int i = 0; i < 256; ++i) {
        const std::uint64_t v = f1.next();
        collisions += parent_draws.count(v);
        collisions += f0_draws.count(v);
    }
    EXPECT_EQ(collisions, 0);
}

TEST(Rng, ForkDeterministicFromParentState) {
    Rng a(5);
    Rng b(5);
    Rng fa = a.fork(3);
    Rng fb = b.fork(3);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(fa.next(), fb.next());
    // Same stream id from a different parent state is a different stream.
    (void)b.next();
    Rng fc = b.fork(3);
    int same = 0;
    Rng fa2 = a.fork(3);
    for (int i = 0; i < 64; ++i) same += (fa2.next() == fc.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, DeriveSeedDistinctAcrossStreams) {
    std::unordered_set<std::uint64_t> seeds;
    for (std::uint64_t base : {1ULL, 7ULL, 0xDEADBEEFULL})
        for (std::uint64_t stream = 0; stream < 512; ++stream)
            seeds.insert(Rng::derive_seed(base, stream));
    EXPECT_EQ(seeds.size(), 3u * 512u);
    // Pure function of its arguments.
    EXPECT_EQ(Rng::derive_seed(42, 3), Rng::derive_seed(42, 3));
}

TEST(Rng, BelowInRange) {
    Rng r(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

// Known answers recorded before below() stopped computing its rejection
// threshold for draws at or above the bound: the values and the number of
// words consumed (the next() after the draws) must never change, or every
// seeded placement would. 2^63 + 1 rejects about half of all words.
TEST(Rng, BelowKnownAnswers) {
    struct Case {
        std::uint64_t bound;
        std::uint64_t draws[6];
        std::uint64_t next_after;
    };
    const Case cases[] = {
        {0x1ull, {0x0ull, 0x0ull, 0x0ull, 0x0ull, 0x0ull, 0x0ull}, 0x64F330B569AE67A8ull},
        {0x3ull, {0x1ull, 0x0ull, 0x2ull, 0x2ull, 0x0ull, 0x1ull}, 0x64F330B569AE67A8ull},
        {0x11ull, {0x8ull, 0x8ull, 0x1ull, 0xEull, 0x5ull, 0x0ull}, 0x64F330B569AE67A8ull},
        {0x100000001ull,
         {0x58F05D4ull, 0xC2421C78ull, 0x37C1EB6ull, 0x82FF80C5ull, 0x9B5816F6ull, 0xFE1F6470ull},
         0x64F330B569AE67A8ull},
        {0x8000000000000001ull,
         {0x4837F3EE8A7A1064ull, 0x460DF3B261660AA6ull, 0xE897A69CE63C9D4ull,
          0x386885089F3803DFull, 0x6E85D22E08996B82ull, 0x61CA930597A23685ull},
         0x5DC776408A671F75ull},
        {0xFFFFFFFFFFFFFFFFull,
         {0xE48715A13D7772Eull, 0xC837F3EE8A7A1065ull, 0x1272314B15EE5001ull,
          0x28E323A6ABE2A46Bull, 0xC60DF3B261660AA7ull, 0x3EAFF0863CCF54F5ull},
         0x64F330B569AE67A8ull},
    };
    for (const Case& c : cases) {
        Rng r(2024);
        for (const std::uint64_t want : c.draws) EXPECT_EQ(r.below(c.bound), want) << c.bound;
        EXPECT_EQ(r.next(), c.next_after) << c.bound;
    }
    // A longer run per bound, folded into an FNV-1a digest, so that rare
    // rejections are exercised too.
    struct Digest {
        std::uint64_t bound;
        std::uint64_t fnv;
        std::uint64_t next_after;
    };
    const Digest digests[] = {
        {0x1ull, 0x12633B178B17A745ull, 0x24C1735B5C952A78ull},
        {0x3ull, 0x4C00DF59C5988C98ull, 0x24C1735B5C952A78ull},
        {0x11ull, 0xADE7B37FEE21E4F6ull, 0x24C1735B5C952A78ull},
        {0x100000001ull, 0xCAA6A42744E13FA0ull, 0x24C1735B5C952A78ull},
        {0x8000000000000001ull, 0x6ACDAC147EE11AC8ull, 0xCFA31556DD008FF8ull},
        {0xFFFFFFFFFFFFFFFFull, 0x60432366DFCFFFB8ull, 0x24C1735B5C952A78ull},
    };
    for (const Digest& d : digests) {
        Rng r(77);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (int i = 0; i < 1000; ++i) {
            h ^= r.below(d.bound);
            h *= 0x100000001b3ull;
        }
        EXPECT_EQ(h, d.fnv) << d.bound;
        EXPECT_EQ(r.next(), d.next_after) << d.bound;
    }
}

TEST(Rng, RangeInclusive) {
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ShufflePreservesElements) {
    Rng r(13);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto w = v;
    r.shuffle(w);
    std::sort(w.begin(), w.end());
    EXPECT_EQ(v, w);
}

TEST(Strings, FormatPercent) {
    EXPECT_EQ(afpga::base::format_percent(0.51), "51.0%");
    EXPECT_EQ(afpga::base::format_percent(0.7649, 1), "76.5%");
}

TEST(Strings, JoinSplit) {
    EXPECT_EQ(afpga::base::join({"a", "b", "c"}, ", "), "a, b, c");
    const auto parts = afpga::base::split("x,y,,z", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
}

TEST(Strings, BusBit) { EXPECT_EQ(afpga::base::bus_bit("sum", 3), "sum[3]"); }

TEST(Strings, ParseUintTakesOnlyWholeInRangeDecimals) {
    using afpga::base::parse_uint;
    EXPECT_EQ(parse_uint("0", 10), 0u);
    EXPECT_EQ(parse_uint("65535", 65535), 65535u);
    EXPECT_EQ(parse_uint("18446744073709551615", UINT64_MAX), UINT64_MAX);
    // The values atoi would have bent into something else.
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.5", "abc"})
        EXPECT_EQ(parse_uint(bad, UINT64_MAX), std::nullopt) << "'" << bad << "'";
    EXPECT_EQ(parse_uint("65536", 65535), std::nullopt);
    EXPECT_EQ(parse_uint("70000", 65535), std::nullopt);
    EXPECT_EQ(parse_uint("18446744073709551616", UINT64_MAX), std::nullopt);  // overflow
}

TEST(TextTable, RendersAligned) {
    afpga::base::TextTable t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22222"});
    const std::string s = t.render();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ArityMismatchThrows) {
    afpga::base::TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), afpga::base::Error);
}

TEST(Check, ThrowsWithMessage) {
    try {
        afpga::base::check(false, "boom");
        FAIL() << "expected throw";
    } catch (const afpga::base::Error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

}  // namespace
