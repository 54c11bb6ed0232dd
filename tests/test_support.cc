/**
 * @file
 * Unit tests for the support layer: deterministic RNG, interval
 * map, statistics, and the table renderer.
 */

#include <cstdlib>
#include <random>

#include <gtest/gtest.h>

#include "support/interval_map.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace icp;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3u);
}

TEST(Rng, RangeIsInclusiveAndBounded)
{
    Rng rng(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.range(3, 10);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 10u);
        hit_lo |= v == 3;
        hit_hi |= v == 10;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(9);
    unsigned hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits, 2500, 250);
}

TEST(Rng, WeightedPickHonorsWeights)
{
    Rng rng(11);
    unsigned counts[3] = {};
    for (int i = 0; i < 9000; ++i)
        counts[rng.weightedPick({1.0, 2.0, 0.0})]++;
    EXPECT_EQ(counts[2], 0u);
    EXPECT_NEAR(counts[1], 2 * counts[0], counts[0] / 2);
}

TEST(IntervalMap, InsertFindAndOverlapRejection)
{
    IntervalMap<int> map;
    EXPECT_TRUE(map.insert(10, 20, 1));
    EXPECT_TRUE(map.insert(20, 30, 2));
    EXPECT_FALSE(map.insert(15, 25, 3)); // overlaps both
    EXPECT_FALSE(map.insert(5, 11, 4));  // overlaps head
    EXPECT_TRUE(map.insert(0, 10, 5));   // adjacent is fine

    EXPECT_EQ(*map.find(10), 1);
    EXPECT_EQ(*map.find(19), 1);
    EXPECT_EQ(*map.find(20), 2);
    EXPECT_EQ(map.find(30), nullptr);
    EXPECT_EQ(*map.find(0), 5);

    auto bounds = map.bounds(25);
    ASSERT_TRUE(bounds.has_value());
    EXPECT_EQ(bounds->first, 20u);
    EXPECT_EQ(bounds->second, 30u);
}

TEST(IntervalMap, NextAtOrAfterAndErase)
{
    IntervalMap<int> map;
    map.insert(100, 110, 1);
    map.insert(200, 210, 2);
    auto next = map.nextAtOrAfter(111);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->start, 200u);
    EXPECT_TRUE(map.eraseAt(200));
    EXPECT_FALSE(map.eraseAt(200));
    EXPECT_FALSE(map.nextAtOrAfter(111).has_value());
}

TEST(SampleStats, MinMaxMeanPercentile)
{
    SampleStats stats;
    for (double v : {4.0, 1.0, 3.0, 2.0})
        stats.add(v);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 4.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
    EXPECT_DOUBLE_EQ(stats.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100), 4.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50), 2.5);
}

TEST(SampleStats, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.0123), "1.23%");
    EXPECT_EQ(formatPercent(-0.005), "-0.50%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(LatencyHistogram, FixedSizeAndWithinOneBucketOfExact)
{
    // The serve daemon records one latency per request for its whole
    // lifetime: the record must not grow, and its percentiles must
    // stay within one bucket of the exact ones.
    LatencyHistogram hist;
    EXPECT_EQ(hist.percentile(50), 0.0);
    const std::size_t size_before = sizeof(hist) + hist.buckets().size();
    SampleStats exact;
    std::mt19937_64 rng(42);
    std::lognormal_distribution<double> ms(1.0, 1.5);
    for (int i = 0; i < 100000; ++i) {
        const double v = ms(rng);
        hist.add(v);
        exact.add(v);
    }
    EXPECT_EQ(sizeof(hist) + hist.buckets().size(), size_before);
    EXPECT_EQ(hist.count(), 100000u);
    std::uint64_t total = 0;
    for (std::uint64_t c : hist.buckets())
        total += c;
    EXPECT_EQ(total, hist.count());

    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
        const long est = static_cast<long>(
            LatencyHistogram::bucketOf(hist.percentile(p)));
        const long ref = static_cast<long>(
            LatencyHistogram::bucketOf(exact.percentile(p)));
        EXPECT_LE(std::labs(est - ref), 1) << "p" << p;
    }
    EXPECT_DOUBLE_EQ(hist.max(), exact.max());
    EXPECT_LE(hist.percentile(100), hist.max());
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"a", "bb"});
    table.addRow({"xxx", "y"});
    table.addSeparator();
    table.addRow({"1", "22222"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| a   | bb    |"), std::string::npos);
    EXPECT_NE(out.find("| xxx | y     |"), std::string::npos);
    EXPECT_NE(out.find("| 1   | 22222 |"), std::string::npos);
    // Header rule + separator + top/bottom rules = 5 rules.
    std::size_t rules = 0, pos = 0;
    while ((pos = out.find("+--", pos)) != std::string::npos) {
        ++rules;
        pos += 3;
    }
    // 4 rule lines (top, header, separator, bottom) x 2 columns.
    EXPECT_EQ(rules, 8u);
}
