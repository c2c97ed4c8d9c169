/**
 * @file
 * Unit tests for the base library: bit utilities, deterministic RNG,
 * saturating counters, histograms and the statistics registry.
 */

#include <gtest/gtest.h>

#include "base/bitutil.hh"
#include "base/histogram.hh"
#include "base/log.hh"
#include "base/rng.hh"
#include "base/sat_counter.hh"
#include "base/stats.hh"

using namespace rix;

TEST(BitUtil, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(63), 0x7fffffffffffffffull);
    EXPECT_EQ(mask(64), ~u64(0));
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xff00, 7, 0), 0u);
    EXPECT_EQ(bits(~u64(0), 63, 0), ~u64(0));
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x7f, 8), 127);
    EXPECT_EQ(sext(0x80, 8), -128);
    EXPECT_EQ(sext(0xffff, 16), -1);
    EXPECT_EQ(sext(0, 16), 0);
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtil, Pow2AndAlign)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_EQ(alignDown(0x1234, 16), 0x1230u);
    EXPECT_EQ(alignUp(0x1234, 16), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 16), 0x1240u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 20000; ++i) {
        s64 v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chance(250);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.02);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.predictTaken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0);
    EXPECT_FALSE(c.predictTaken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, Threshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.predictTaken()); // 1 of max 3
    c.increment();
    EXPECT_TRUE(c.predictTaken()); // 2 of max 3
}

TEST(SatCounter, TrainFollowsDirection)
{
    SatCounter c(3, 4);
    c.train(true);
    EXPECT_EQ(c.value(), 5);
    c.train(false);
    c.train(false);
    EXPECT_EQ(c.value(), 3);
}

TEST(Histogram, Bucketing)
{
    Histogram h({4, 16, 64});
    h.sample(1);
    h.sample(4);
    h.sample(5);
    h.sample(64);
    h.sample(65);
    EXPECT_EQ(h.bucketCount(0), 2u); // <=4
    EXPECT_EQ(h.bucketCount(1), 1u); // <=16
    EXPECT_EQ(h.bucketCount(2), 1u); // <=64
    EXPECT_EQ(h.bucketCount(3), 1u); // overflow
    EXPECT_EQ(h.totalSamples(), 5u);
}

TEST(Histogram, CumulativeAndMean)
{
    Histogram h({10, 100});
    h.sample(5, 3);
    h.sample(50);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.cumulativeFraction(1), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), (5.0 * 3 + 50) / 4);
    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
}

TEST(Stats, StatSetBasics)
{
    StatSet s;
    s.set("a", 1.5);
    s.add("a", 0.5);
    EXPECT_TRUE(s.has("a"));
    EXPECT_FALSE(s.has("b"));
    EXPECT_DOUBLE_EQ(s.get("a"), 2.0);
    EXPECT_DOUBLE_EQ(s.get("b", -1.0), -1.0);
    EXPECT_NE(s.format().find("a = 2"), std::string::npos);
}

TEST(Stats, Means)
{
    EXPECT_DOUBLE_EQ(arithMean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(geoMean({1, 4}), 2.0);
    EXPECT_DOUBLE_EQ(arithMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
}

TEST(Counter, IncrementForms)
{
    Counter c;
    ++c;
    c++;
    c += 3;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Log, StrfmtNeverTruncates)
{
    EXPECT_EQ(strfmt("%s=%d", "x", 7), "x=7");
    const std::string body(5000, 'r');
    const std::string out = strfmt("head %s tail", body.c_str());
    EXPECT_EQ(out.size(), body.size() + 10);
    EXPECT_EQ(out, "head " + body + " tail");
}
