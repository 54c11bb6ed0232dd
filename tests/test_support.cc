/**
 * @file
 * Unit tests for the support layer: deterministic RNG, statistics,
 * the metrics registry, and the table renderer.
 */

#include <chrono>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

namespace
{

/** One `--timing` row: name, value, unit ("" for counters). */
struct TableRow
{
    std::string name;
    std::string value;
    std::string unit;
};

std::vector<TableRow>
tableRows(const std::string &table)
{
    std::vector<TableRow> rows;
    std::istringstream lines(table);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        TableRow row;
        fields >> row.name >> row.value >> row.unit;
        rows.push_back(row);
    }
    return rows;
}

/** The (key, value) pairs of a flat JSON object of numbers. */
std::vector<std::pair<std::string, std::string>>
jsonPairs(const std::string &json)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    std::istringstream items(json.substr(1, json.size() - 2));
    std::string item;
    while (std::getline(items, item, ',')) {
        const std::size_t open = item.find('"');
        const std::size_t close = item.find('"', open + 1);
        pairs.emplace_back(item.substr(open + 1, close - open - 1),
                           item.substr(item.find(':') + 2));
    }
    return pairs;
}

void
spinFor(std::chrono::microseconds us)
{
    const auto until = std::chrono::steady_clock::now() + us;
    while (std::chrono::steady_clock::now() < until) {
    }
}

} // namespace

TEST(Metrics, NestedSpanIsChargedToItselfOnly)
{
    Metrics m;
    const Timer outer = m.timer("outer");
    const Timer inner = m.timer("inner");
    const auto t0 = std::chrono::steady_clock::now();
    {
        const ScopedTimer o(outer);
        spinFor(std::chrono::microseconds(500));
        const ScopedTimer i(inner);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto total = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    EXPECT_GE(inner.value(), 5'000'000u);
    EXPECT_GE(outer.value(), 500'000u);
    // The parent keeps only its self time: the two never overlap.
    EXPECT_LE(outer.value() + inner.value(), total);
    EXPECT_LE(outer.value(), total - 5'000'000u);
}

TEST(Metrics, RowsPlusUnattributedEqualWallOnOneThread)
{
    Metrics m;
    const Timer a = m.timer("a");
    const Timer b = m.timer("b");
    m.counter("n").add(7);
    for (int k = 0; k < 3; ++k) {
        const ScopedTimer sa(a);
        spinFor(std::chrono::microseconds(200));
        const ScopedTimer sb(b);
        spinFor(std::chrono::microseconds(300));
    }
    spinFor(std::chrono::microseconds(400));
    double sum = 0.0, wall = -1.0;
    unsigned ms_rows = 0;
    for (const TableRow &r : tableRows(m.table())) {
        if (r.unit != "ms")
            continue;
        ++ms_rows;
        if (r.name == "wall")
            wall = std::stod(r.value);
        else
            sum += std::stod(r.value);
    }
    EXPECT_EQ(ms_rows, 4u); // a, b, wall, (unattributed)
    EXPECT_NEAR(sum, wall, 0.001 * ms_rows);
    EXPECT_GE(wall, 1.9);
}

TEST(Metrics, UntouchedEntriesAreOmitted)
{
    Metrics m;
    (void)m.timer("never.timer");
    (void)m.counter("never.counter");
    const Counter once = m.counter("once");
    once.add(0);
    std::string table = m.table();
    EXPECT_EQ(table.find("never."), std::string::npos) << table;
    EXPECT_NE(table.find("once"), std::string::npos) << table;
    // Counters alone have no wall-clock budget to report.
    EXPECT_EQ(tableRows(table).size(), 1u) << table;
    {
        const ScopedTimer t(m.timer("timed"));
    }
    table = m.table();
    EXPECT_NE(table.find("(unattributed)"), std::string::npos);
    EXPECT_NE(table.find("peak-rss"), std::string::npos);

    m.reset();
    EXPECT_EQ(m.table(), "");
    EXPECT_EQ(m.json(), "{}");
    EXPECT_EQ(once.value(), 0u);
}

TEST(Metrics, JsonKeysMatchTableRows)
{
    Metrics m;
    m.counter("cache.cross_hits").add(3);
    {
        const ScopedTimer t(m.timer("jump-table"));
    }
    // Names pairwise (wall moves between the two calls, so only the
    // counter's value is compared). Keys keep the historical spelling.
    const std::vector<TableRow> rows = tableRows(m.table());
    const auto pairs = jsonPairs(m.json());
    const std::vector<std::string> keys = {
        "cache_cross_hits", "jump-table_ms", "wall_ms",
        "unattributed_ms", "peak_rss_bytes"};
    ASSERT_EQ(rows.size(), keys.size());
    ASSERT_EQ(pairs.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(pairs[i].first, keys[i]) << rows[i].name;
    EXPECT_EQ(rows[0].name, "cache.cross_hits");
    EXPECT_EQ(rows[1].name, "jump-table");
    EXPECT_EQ(pairs[0].second, "3");
    EXPECT_EQ(rows[0].value, "3");
    EXPECT_EQ(rows[2].name, "wall");
    EXPECT_EQ(rows[3].name, "(unattributed)");
    EXPECT_EQ(rows[4].name, "peak-rss");
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
