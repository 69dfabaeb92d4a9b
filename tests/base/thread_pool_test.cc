/**
 * @file
 * Unit tests for the deterministic parallel-for thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "base/thread_pool.hh"
#include "support/dispatch_counter.hh"

namespace {

using lia::base::ThreadPool;

TEST(ThreadPoolTest, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
}

TEST(ThreadPoolTest, ThreadCountMatchesConstructorArgument)
{
    ThreadPool one(1);
    ThreadPool four(4);
    EXPECT_EQ(one.threadCount(), 1);
    EXPECT_EQ(four.threadCount(), 4);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce)
{
    for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        constexpr std::int64_t n = 10007;  // prime: ragged last chunk
        std::vector<std::atomic<int>> visits(n);
        pool.parallelFor(n, 1, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
                visits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (std::int64_t i = 0; i < n; ++i)
            ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
                << "index " << i << " at " << threads << " threads";
    }
}

TEST(ThreadPoolTest, ChunksRespectGrainAndCoverRange)
{
    ThreadPool pool(4);
    std::atomic<std::int64_t> total{0};
    pool.parallelFor(1000, 64, [&](std::int64_t b, std::int64_t e) {
        // Every chunk but the last must hold at least `grain` items.
        if (e != 1000)
            EXPECT_GE(e - b, 64);
        total.fetch_add(e - b);
    });
    EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolTest, EmptyAndTinyRangesRunInline)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, 1, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(3, 8, [&](std::int64_t b, std::int64_t e) {
        // n <= grain executes as one inline chunk on the caller.
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 3);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, GrainForSizesChunksToTheMinimumWork)
{
    using lia::base::kMinChunkWork;
    EXPECT_EQ(ThreadPool::grainFor(kMinChunkWork), 1);
    EXPECT_EQ(ThreadPool::grainFor(2 * kMinChunkWork), 1);
    EXPECT_EQ(ThreadPool::grainFor(1), kMinChunkWork);
    EXPECT_EQ(ThreadPool::grainFor(0), kMinChunkWork);
    EXPECT_EQ(ThreadPool::grainFor(kMinChunkWork - 1), 2);
    // Rounded up: grainFor(w) items always carry at least the minimum.
    for (std::int64_t work : {3, 7, 1000, 12345})
        EXPECT_GE(ThreadPool::grainFor(work) * work, kMinChunkWork);
}

TEST(ThreadPoolTest, FewerThanTwoGrainsRunInline)
{
    ThreadPool pool(4);
    lia::test::DispatchCounter dispatched(&pool);
    for (const std::int64_t n : {1, 8, 15}) {
        int calls = 0;
        pool.parallelFor(n, 8, [&](std::int64_t b, std::int64_t e) {
            EXPECT_EQ(b, 0);
            EXPECT_EQ(e, n);
            ++calls;
        });
        EXPECT_EQ(calls, 1) << n << " items";
    }
    EXPECT_EQ(dispatched.count(), 0);
    // Two whole grains: the loop reaches the workers.
    std::atomic<std::int64_t> total{0};
    pool.parallelFor(16, 8, [&](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b);
    });
    EXPECT_EQ(total.load(), 16);
    EXPECT_EQ(dispatched.count(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<std::int64_t> inner_items{0};
    pool.parallelFor(16, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            EXPECT_TRUE(ThreadPool::insideWorker());
            pool.parallelFor(8, 1,
                             [&](std::int64_t ib, std::int64_t ie) {
                                 inner_items.fetch_add(ie - ib);
                             });
        }
    });
    EXPECT_EQ(inner_items.load(), 16 * 8);
    EXPECT_FALSE(ThreadPool::insideWorker());
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    std::atomic<std::int64_t> done{0};
    EXPECT_THROW(
        pool.parallelFor(100, 1,
                         [&](std::int64_t b, std::int64_t e) {
                             if (b == 0)
                                 throw std::runtime_error("chunk fail");
                             done.fetch_add(e - b);
                         }),
        std::runtime_error);
    // The loop drained before rethrowing: no chunk is left running.
    EXPECT_LE(done.load(), 100);
}

TEST(ThreadPoolTest, ManySmallLoopsReuseWorkers)
{
    // Dispatch stress: generations must not tangle across iterations.
    ThreadPool pool(3);
    for (int round = 0; round < 200; ++round) {
        std::atomic<std::int64_t> sum{0};
        pool.parallelFor(64, 1, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
                sum.fetch_add(i);
        });
        ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
    }
}

TEST(ThreadPoolTest, ConcurrentExternalCallersSerializeSafely)
{
    // The pool holds a single job slot: two non-worker threads
    // dispatching at once must take turns, not overwrite each other's
    // job (which used to abandon one caller's loop and could strand a
    // waiter forever). Each caller's loop must still visit every
    // index exactly once.
    ThreadPool pool(4);
    constexpr int kCallers = 4;
    constexpr std::int64_t n = 4096;
    std::vector<std::int64_t> sums(kCallers, 0);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&pool, &sums, c] {
            for (int round = 0; round < 50; ++round) {
                std::atomic<std::int64_t> sum{0};
                pool.parallelFor(
                    n, 1, [&sum](std::int64_t b, std::int64_t e) {
                        for (std::int64_t i = b; i < e; ++i)
                            sum.fetch_add(i,
                                          std::memory_order_relaxed);
                    });
                sums[static_cast<std::size_t>(c)] = sum.load();
            }
        });
    }
    for (std::thread &caller : callers)
        caller.join();
    for (int c = 0; c < kCallers; ++c)
        EXPECT_EQ(sums[static_cast<std::size_t>(c)], n * (n - 1) / 2)
            << "caller " << c;
}

TEST(ThreadPoolTest, PartitionIsDeterministicPerPool)
{
    // Same (n, grain, threadCount) must produce identical chunk
    // boundaries run to run — the determinism contract's scaffolding.
    const auto boundaries = [](ThreadPool &pool) {
        std::vector<std::int64_t> begins;
        std::mutex m;
        pool.parallelFor(777, 5, [&](std::int64_t b, std::int64_t) {
            std::lock_guard<std::mutex> lock(m);
            begins.push_back(b);
        });
        std::sort(begins.begin(), begins.end());
        return begins;
    };
    ThreadPool pool(4);
    const auto first = boundaries(pool);
    const auto second = boundaries(pool);
    EXPECT_EQ(first, second);
}

TEST(ThreadPoolLowLatencyTest, EveryIndexVisitedExactlyOnce)
{
    // The low-latency flavour changes only how threads WAIT (bounded
    // spin before the CV), never what runs: same coverage contract as
    // parallelFor, including under back-to-back dispatch where the
    // spin phase actually engages.
    ThreadPool pool(4);
    for (int round = 0; round < 200; ++round) {
        std::vector<std::atomic<int>> hits(97);
        pool.parallelForLowLatency(
            97, 1, [&](std::int64_t b, std::int64_t e) {
                for (std::int64_t i = b; i < e; ++i)
                    hits[static_cast<std::size_t>(i)].fetch_add(1);
            });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "index " << i << " round " << round;
    }
}

TEST(ThreadPoolLowLatencyTest, MixedFlavoursInterleaveSafely)
{
    // Alternating low-latency and plain loops flips the workers' spin
    // hint every dispatch; generations must not tangle.
    ThreadPool pool(3);
    for (int round = 0; round < 100; ++round) {
        std::atomic<std::int64_t> sum{0};
        const auto body = [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
                sum.fetch_add(i);
        };
        if (round % 2 == 0)
            pool.parallelForLowLatency(64, 1, body);
        else
            pool.parallelFor(64, 1, body);
        ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
    }
}

TEST(ThreadPoolLowLatencyTest, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    std::atomic<std::int64_t> done{0};
    EXPECT_THROW(
        pool.parallelForLowLatency(
            100, 1,
            [&](std::int64_t b, std::int64_t e) {
                if (b == 0)
                    throw std::runtime_error("chunk fail");
                done.fetch_add(e - b);
            }),
        std::runtime_error);
    EXPECT_LE(done.load(), 100);
    // The pool is still serviceable after the failed loop.
    std::atomic<std::int64_t> sum{0};
    pool.parallelForLowLatency(64, 1,
                               [&](std::int64_t b, std::int64_t e) {
                                   for (std::int64_t i = b; i < e; ++i)
                                       sum.fetch_add(i);
                               });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPoolLowLatencyTest, ObserverSeesLowLatencyLoops)
{
    // Low-latency dispatches report through the same onParallelFor
    // hook as plain ones — the bench's dispatch-latency stats and the
    // kernel profiler rely on this.
    struct Counter : lia::base::ParallelObserver
    {
        std::atomic<int> loops{0};
        void onParallelFor(double seconds) override
        {
            ++loops;
            EXPECT_GE(seconds, 0.0);
        }
    } counter;
    ThreadPool pool(2);
    pool.setObserver(&counter);
    for (int i = 0; i < 5; ++i)
        pool.parallelForLowLatency(
            1000, 1, [](std::int64_t, std::int64_t) {});
    pool.setObserver(nullptr);
    EXPECT_EQ(counter.loops.load(), 5);
}

TEST(ThreadPoolLowLatencyTest, InlinePathsMatchParallelFor)
{
    // Serial pools and tiny ranges take the same inline shortcut.
    ThreadPool serial(1);
    std::int64_t visited = 0;
    serial.parallelForLowLatency(10, 1,
                                 [&](std::int64_t b, std::int64_t e) {
                                     visited += e - b;
                                 });
    EXPECT_EQ(visited, 10);
    ThreadPool pool(4);
    visited = 0;
    pool.parallelForLowLatency(3, 8,
                               [&](std::int64_t b, std::int64_t e) {
                                   visited += e - b;
                               });
    EXPECT_EQ(visited, 3);
}

} // namespace
