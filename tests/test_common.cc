/**
 * @file
 * Unit tests for the common utilities: RNG, statistics, bit strings,
 * edit distance and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "common/bit_string.hh"
#include "common/edit_distance.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"

namespace csim
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        hit_lo = hit_lo || v == -3;
        hit_hi = hit_hi || v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng r(5);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = r.gaussian(10.0, 3.0);
        sum += g;
        sq += g * g;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(SampleSet, Mean)
{
    SampleSet s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(SampleSet, PercentileExtremes)
{
    SampleSet s;
    for (int i = 1; i <= 7; ++i)
        s.add(i * 10);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 70.0);
    // A tiny positive percentile still maps to the first sample
    // under nearest-rank.
    EXPECT_DOUBLE_EQ(s.percentile(0.0001), 10.0);
    EXPECT_THROW(s.percentile(-1), std::logic_error);
    EXPECT_THROW(s.percentile(101), std::logic_error);
}

TEST(SampleSet, EmptyIsZero)
{
    SampleSet s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(SampleSet, Percentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(0, 10, 10);
    h.add(0.5);
    h.add(5.5);
    h.add(-3.0);   // clamps to first bucket
    h.add(99.0);   // clamps to last bucket
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucketValue(0), 2u);
    EXPECT_EQ(h.bucketValue(5), 1u);
    EXPECT_EQ(h.bucketValue(9), 1u);
}

TEST(Histogram, SparklineLength)
{
    Histogram h(0, 10, 16);
    for (int i = 0; i < 100; ++i)
        h.add(i % 10);
    EXPECT_EQ(h.sparkline().size(), 16u);
}

TEST(BitString, TextRoundTrip)
{
    const std::string msg = "Hello, covert world!";
    EXPECT_EQ(bitsToText(textToBits(msg)), msg);
}

TEST(BitString, BytesRoundTrip)
{
    const std::vector<std::uint8_t> bytes = {0x00, 0xff, 0xa5, 0x17};
    EXPECT_EQ(bitsToBytes(bytesToBits(bytes)), bytes);
}

TEST(BitString, StringRoundTrip)
{
    const BitString bits = bitsFromString("1011001");
    EXPECT_EQ(bitsToString(bits), "1011001");
    EXPECT_EQ(bits.size(), 7u);
}

TEST(BitString, TrailingBitsDropped)
{
    BitString bits = bitsFromString("10110011 101");
    EXPECT_EQ(bitsToBytes(bits).size(), 1u);
    EXPECT_EQ(bitsToBytes(bits)[0], 0xb3);
}

TEST(BitString, RandomBitsAreBalanced)
{
    Rng r(17);
    const BitString bits = randomBits(r, 4000);
    int ones = 0;
    for (auto b : bits)
        ones += b;
    EXPECT_NEAR(ones, 2000, 150);
}

TEST(BitString, SymbolsRoundTrip)
{
    const std::vector<int> syms = {0, 3, 1, 2, 2, 0};
    const BitString bits = symbolsToBits(syms, 2);
    EXPECT_EQ(bits.size(), 12u);
    EXPECT_EQ(bitsToSymbols(bits, 2), syms);
}

TEST(BitString, SymbolEncoding)
{
    // 0b10 0b01 -> 1001
    EXPECT_EQ(bitsToString(symbolsToBits({2, 1}, 2)), "1001");
}

TEST(EditDistance, Identical)
{
    const BitString a = bitsFromString("110100");
    EXPECT_EQ(editDistance(a, a), 0u);
    EXPECT_DOUBLE_EQ(rawBitAccuracy(a, a), 1.0);
}

TEST(EditDistance, SingleFlip)
{
    const BitString a = bitsFromString("110100");
    const BitString b = bitsFromString("111100");
    EXPECT_EQ(editDistance(a, b), 1u);
    EXPECT_NEAR(rawBitAccuracy(a, b), 5.0 / 6.0, 1e-12);
}

TEST(EditDistance, LostBit)
{
    const BitString a = bitsFromString("110100");
    const BitString b = bitsFromString("11000");
    EXPECT_EQ(editDistance(a, b), 1u);
}

TEST(EditDistance, DuplicatedBit)
{
    const BitString a = bitsFromString("1010");
    const BitString b = bitsFromString("10110");
    EXPECT_EQ(editDistance(a, b), 1u);
}

TEST(EditDistance, EmptyCases)
{
    const BitString e;
    const BitString a = bitsFromString("101");
    EXPECT_EQ(editDistance(e, e), 0u);
    EXPECT_EQ(editDistance(e, a), 3u);
    EXPECT_EQ(editDistance(a, e), 3u);
    EXPECT_DOUBLE_EQ(rawBitAccuracy(e, e), 1.0);
    EXPECT_DOUBLE_EQ(rawBitAccuracy(e, a), 0.0);
    EXPECT_DOUBLE_EQ(rawBitAccuracy(a, e), 0.0);
}

TEST(EditDistance, AccuracyNeverNegative)
{
    const BitString a = bitsFromString("11");
    const BitString b = bitsFromString("0000000000");
    EXPECT_GE(rawBitAccuracy(a, b), 0.0);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t;
    t.header({"a", "long-header"});
    t.row({"wide-cell", "1"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| a         | long-header |"),
              std::string::npos);
    EXPECT_NE(out.find("| wide-cell | 1           |"),
              std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::pct(0.9731), "97.3%");
}

} // namespace
} // namespace csim
