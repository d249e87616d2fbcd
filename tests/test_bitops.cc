/**
 * @file
 * Unit and property tests for util/bitops.hh — the arithmetic every
 * predictor index depends on.
 */

#include <gtest/gtest.h>

#include "util/bitops.hh"
#include "util/random.hh"

namespace {

using namespace ibp::util;

TEST(MaskLow, Basics)
{
    EXPECT_EQ(maskLow(0), 0u);
    EXPECT_EQ(maskLow(1), 0x1u);
    EXPECT_EQ(maskLow(4), 0xfu);
    EXPECT_EQ(maskLow(10), 0x3ffu);
    EXPECT_EQ(maskLow(63), 0x7fffffffffffffffULL);
    EXPECT_EQ(maskLow(64), ~std::uint64_t{0});
    EXPECT_EQ(maskLow(99), ~std::uint64_t{0});
}

TEST(BitsRange, ExtractsMiddleBits)
{
    EXPECT_EQ(bitsRange(0xabcd, 0, 4), 0xdu);
    EXPECT_EQ(bitsRange(0xabcd, 4, 4), 0xcu);
    EXPECT_EQ(bitsRange(0xabcd, 8, 8), 0xabu);
    EXPECT_EQ(bitsRange(0xabcd, 16, 4), 0u);
}

TEST(SelectLow, MatchesMask)
{
    EXPECT_EQ(selectLow(0xdeadbeef, 8), 0xefu);
    EXPECT_EQ(selectLow(0xdeadbeef, 16), 0xbeefu);
    EXPECT_EQ(selectLow(0xdeadbeef, 0), 0u);
}

TEST(FoldXor, KnownValues)
{
    // 10 bits folded to 5: high chunk XOR low chunk.
    EXPECT_EQ(foldXor(0b1100111010, 10, 5), 0b11001u ^ 0b11010u);
    // Folding a value narrower than the output returns it unchanged.
    EXPECT_EQ(foldXor(0b101, 3, 5), 0b101u);
    // Zero output width folds to zero.
    EXPECT_EQ(foldXor(0xffffffff, 32, 0), 0u);
}

TEST(FoldXor, MasksInputToWidth)
{
    // Bits above `width` must not leak into the fold.
    EXPECT_EQ(foldXor(0xff00, 8, 4), 0u);
}

TEST(FoldXor, PreservesZero)
{
    for (unsigned w = 1; w <= 64; w += 7)
        for (unsigned o = 1; o <= 16; ++o)
            EXPECT_EQ(foldXor(0, w, o), 0u) << w << " " << o;
}

TEST(RotateLeft, Basics)
{
    EXPECT_EQ(rotateLeft(0b0001, 4, 1), 0b0010u);
    EXPECT_EQ(rotateLeft(0b1000, 4, 1), 0b0001u);
    EXPECT_EQ(rotateLeft(0b1010, 4, 0), 0b1010u);
    EXPECT_EQ(rotateLeft(0b1010, 4, 4), 0b1010u);
    EXPECT_EQ(rotateLeft(0xff, 0, 3), 0u);
    // rotateAmount() is rotateLeft()'s own amount reduction.
    EXPECT_EQ(rotateAmount(95, 7), 4u);
    EXPECT_EQ(rotateAmount(12, 6), 0u);
    EXPECT_EQ(rotateAmount(3, 0), 0u);
    EXPECT_EQ(rotateLeft(0b1010011, 7, 95),
              rotateLeft(0b1010011, 7, rotateAmount(95, 7)));
}

TEST(ReverseBits, Basics)
{
    EXPECT_EQ(reverseBits(0b001, 3), 0b100u);
    EXPECT_EQ(reverseBits(0b110, 3), 0b011u);
    EXPECT_EQ(reverseBits(0b1, 1), 0b1u);
    EXPECT_EQ(reverseBits(0, 8), 0u);
}

TEST(ReverseBits, IsAnInvolution)
{
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const unsigned width = 1 + rng.below(32);
        const std::uint64_t v = rng() & maskLow(width);
        EXPECT_EQ(reverseBits(reverseBits(v, width), width), v);
    }
}

TEST(InterleaveBits, Basics)
{
    // a -> even positions, b -> odd positions.
    EXPECT_EQ(interleaveBits(0b11, 0b00, 2), 0b0101u);
    EXPECT_EQ(interleaveBits(0b00, 0b11, 2), 0b1010u);
    EXPECT_EQ(interleaveBits(0b10, 0b01, 2), 0b0110u);
}

TEST(Log2Ceil, Basics)
{
    EXPECT_EQ(log2Ceil(0), 0u);
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(1024), 10u);
    EXPECT_EQ(log2Ceil(1025), 11u);
}

TEST(IsPowerOf2, Basics)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 63));
    EXPECT_FALSE(isPowerOf2((1ULL << 63) + 1));
}

TEST(GshareIndex, StaysInRange)
{
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        const unsigned bits = 1 + rng.below(20);
        const std::uint64_t idx = gshareIndex(rng(), rng(), bits);
        EXPECT_LT(idx, std::uint64_t{1} << bits);
    }
}

TEST(GshareIndex, HistorySensitivity)
{
    // Different history must be able to produce a different index for
    // the same pc (the whole point of gshare).
    const std::uint64_t pc = 0x120001000;
    EXPECT_NE(gshareIndex(pc, 0x001, 10), gshareIndex(pc, 0x002, 10));
}

/** Property sweep: foldXor output always fits in out_bits. */
class FoldRangeTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FoldRangeTest, OutputFits)
{
    const unsigned out_bits = GetParam();
    Rng rng(out_bits);
    for (int i = 0; i < 300; ++i) {
        const unsigned width = 1 + rng.below(64);
        const std::uint64_t folded = foldXor(rng(), width, out_bits);
        EXPECT_EQ(folded & ~maskLow(out_bits), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, FoldRangeTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 16u));

} // namespace
