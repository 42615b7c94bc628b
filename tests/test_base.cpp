// Unit tests for the base utilities: strong ids, bit vectors, RNG, tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_set>

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
