/**
 * @file
 * Tests for the Azure-statistics workload generator and the Poisson
 * arrival process.
 */

#include <gtest/gtest.h>

#include "trace/azure.hh"

namespace {

using namespace lia::trace;

TEST(AzureTraceTest, RequestsRespectContextBudget)
{
    AzureTraceGenerator gen(TraceKind::Conversation, 2048, 7);
    for (int i = 0; i < 2000; ++i) {
        const auto r = gen.next();
        EXPECT_GE(r.lIn, 32);
        EXPECT_GE(r.lOut, 8);
        EXPECT_LE(r.lIn + r.lOut, 2048);
    }
}

TEST(AzureTraceTest, CodeTraceOutputsNear32)
{
    AzureTraceGenerator gen(TraceKind::Code, 2048, 7);
    double sum = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(gen.next().lOut);
    EXPECT_NEAR(sum / n, 32.0, 6.0);
}

TEST(AzureTraceTest, ConversationTraceOutputsNear256)
{
    AzureTraceGenerator gen(TraceKind::Conversation, 2048, 7);
    double sum = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(gen.next().lOut);
    EXPECT_NEAR(sum / n, 256.0, 30.0);
}

TEST(AzureTraceTest, InputLengthsRoughlyUniform)
{
    // §7: input token lengths are uniformly distributed; mean should
    // sit near the middle of [32, max].
    AzureTraceGenerator gen(TraceKind::Code, 2048, 11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(gen.next().lIn);
    EXPECT_NEAR(sum / n, (32 + 2016) / 2.0, 60.0);
}

TEST(AzureTraceTest, DeterministicForSeed)
{
    AzureTraceGenerator a(TraceKind::Code, 2048, 3);
    AzureTraceGenerator b(TraceKind::Code, 2048, 3);
    for (int i = 0; i < 100; ++i) {
        const auto ra = a.next();
        const auto rb = b.next();
        EXPECT_EQ(ra.lIn, rb.lIn);
        EXPECT_EQ(ra.lOut, rb.lOut);
    }
}

TEST(AzureTraceTest, BatchProducesRequestedCount)
{
    AzureTraceGenerator gen(TraceKind::Code, 2048, 5);
    EXPECT_EQ(gen.batch(64).size(), 64u);
}

TEST(SweepTest, LinSweepCapsAtModelBudget)
{
    const auto sweep32 = standardLinSweep(32);
    EXPECT_EQ(sweep32.back(), 2016);  // L_max for L_out = 32
    const auto sweep256 = standardLinSweep(256);
    EXPECT_EQ(sweep256.back(), 1792);  // L_max for L_out = 256
    for (std::size_t i = 1; i < sweep32.size(); ++i)
        EXPECT_GT(sweep32[i], sweep32[i - 1]);
}

TEST(SweepTest, BatchSweepMatchesEvaluation)
{
    EXPECT_EQ(standardBatchSweep(),
              (std::vector<std::int64_t>{1, 64, 900}));
}

TEST(PoissonProcessTest, DeterministicMonotoneAndCalibrated)
{
    // The serve:: engine and the cluster router share this generator,
    // so equal seeds must mean equal arrival sequences.
    PoissonProcess a(0.5, 42), b(0.5, 42), c(0.5, 43);
    double prev = 0, sum = 0;
    bool seeds_differ = false;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        const double t = a.next();
        EXPECT_DOUBLE_EQ(t, b.next());
        seeds_differ = seeds_differ || t != c.next();
        EXPECT_GT(t, prev);
        sum += t - prev;
        prev = t;
    }
    EXPECT_TRUE(seeds_differ);
    EXPECT_NEAR(sum / n, 2.0, 0.05);  // mean gap = 1/rate
}

} // namespace
