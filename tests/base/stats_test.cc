/**
 * @file
 * Unit tests for summary statistics.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/stats.hh"

namespace {

using namespace lia;

/** Add @p values to @p s one at a time, in order. */
void
addAll(SampleStats &s, std::initializer_list<double> values)
{
    for (double v : values)
        s.add(v);
}

TEST(SampleStatsTest, BasicMoments)
{
    SampleStats s;
    addAll(s, {1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SampleStatsTest, PercentileInterpolates)
{
    SampleStats s;
    addAll(s, {10.0, 20.0, 30.0, 40.0, 50.0});
    EXPECT_DOUBLE_EQ(s.p50(), 30.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
    EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);
}

TEST(SampleStatsTest, SingleSampleIsEveryPercentile)
{
    SampleStats s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.p50(), 7.0);
    EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(SampleStatsTest, UnsortedInsertOrderIrrelevant)
{
    SampleStats a, b;
    addAll(a, {5.0, 1.0, 3.0});
    addAll(b, {1.0, 3.0, 5.0});
    EXPECT_DOUBLE_EQ(a.p50(), b.p50());
    EXPECT_DOUBLE_EQ(a.percentile(75), b.percentile(75));
}

TEST(SampleStatsTest, QueriesThenMoreSamples)
{
    SampleStats s;
    addAll(s, {2.0, 1.0});
    EXPECT_DOUBLE_EQ(s.p50(), 1.5);
    s.add(0.0);  // re-sorts lazily
    EXPECT_DOUBLE_EQ(s.p50(), 1.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(SampleStatsTest, UniformSamplesMatchTheory)
{
    Rng rng(9);
    SampleStats s;
    for (int i = 0; i < 50'000; ++i)
        s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.p50(), 0.5, 0.01);
    EXPECT_NEAR(s.p95(), 0.95, 0.01);
}

TEST(SampleStatsTest, MeanIsUnchangedByPercentileQueries)
{
    // percentile() sorts the samples in place; the mean must not
    // depend on whether a percentile was asked for first.
    Rng rng(11);
    for (int set = 0; set < 50; ++set) {
        SampleStats s;
        for (int i = 0; i < 1000; ++i)
            s.add(rng.uniform() * 1e3 + 1e-3 * rng.uniform());
        const double before = s.mean();
        s.p50();
        EXPECT_EQ(s.mean(), before) << "set " << set;
    }
}

TEST(SampleStatsTest, MergedMeanIsUnchangedByPercentileQueries)
{
    Rng rng(12);
    SampleStats a, b;
    for (int i = 0; i < 1000; ++i) {
        a.add(rng.uniform() * 1e3);
        b.add(rng.uniform() * 1e-3);
    }
    b.p99();  // the merged-in samples arrive sorted
    a.merge(b);
    EXPECT_EQ(a.count(), 2000u);
    const double before = a.mean();
    a.p50();
    EXPECT_EQ(a.mean(), before);
}

TEST(SampleStatsTest, EmptyQueriesPanic)
{
    detail::setThrowOnError(true);
    SampleStats s;
    EXPECT_THROW(s.mean(), std::logic_error);
    EXPECT_THROW(s.p50(), std::logic_error);
    detail::setThrowOnError(false);
}

TEST(SampleStatsTest, OutOfRangePercentilePanics)
{
    detail::setThrowOnError(true);
    SampleStats s;
    s.add(1.0);
    EXPECT_THROW(s.percentile(101.0), std::logic_error);
    EXPECT_THROW(s.percentile(-1.0), std::logic_error);
    detail::setThrowOnError(false);
}

} // namespace
