/**
 * @file
 * Property suite for the blocked/parallel kernel layer's determinism
 * contract (DESIGN.md §7).
 *
 * Random GEMM shapes — including m=1 decode rows and ragged k/n that
 * leave partial column tiles — run through matmul, matmulPacked, and
 * matmulTransposed at thread pools of 1, 2, and the host default, and
 * every output must equal the retained scalar reference EXACTLY (bit
 * for bit, not within a tolerance): blocking, packing, and threading
 * are layout/schedule changes only. The row-wise and elementwise
 * kernels get the same treatment, and a full greedy decode across
 * executors pinned to different pools must emit identical tokens.
 *
 * The random shapes are small, so the pool's work-size rule runs them
 * inline; a second class of shapes is sized from base::kMinChunkWork
 * so every kernel partition holds at least two chunks, and a
 * DispatchCounter proves those calls really reached the workers.
 *
 * Scenario count scales with LIA_PROPERTY_SCENARIOS (the nightly CI
 * job raises it past the default ~200 shapes).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "runtime/executor.hh"
#include "runtime/kernels.hh"
#include "support/dispatch_counter.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using base::ThreadPool;
using lia::test::DispatchCounter;

std::size_t
shapeCount()
{
    if (const char *env = std::getenv("LIA_PROPERTY_SCENARIOS")) {
        const long scenarios = std::atol(env);
        if (scenarios > 0)
            return static_cast<std::size_t>(scenarios);
    }
    return 200;
}

/** Bit-for-bit tensor equality (memcmp, so -0.0 != +0.0 and any NaN
 *  payload difference would fail — exactly the contract). */
bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<std::size_t>(a.numel())) == 0;
}

/** The pools every kernel must agree across: serial inline, two
 *  workers, and the host default (whatever LIA_THREADS says). */
std::vector<std::shared_ptr<ThreadPool>>
contractPools()
{
    std::vector<std::shared_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);  // inline serial path
    pools.push_back(std::make_shared<ThreadPool>(1));
    pools.push_back(std::make_shared<ThreadPool>(2));
    const int host = ThreadPool::defaultThreadCount();
    if (host > 2)
        pools.push_back(std::make_shared<ThreadPool>(host));
    return pools;
}

struct GemmShape
{
    std::int64_t m, k, n;
};

/**
 * Shape generator biased toward the hard cases: m=1 decode rows,
 * m in the row-partition regime (>= 4), k/n that are not multiples
 * of the pack tile width (partial final tile), and tiny extents.
 */
GemmShape
randomShape(std::mt19937_64 &gen)
{
    std::uniform_int_distribution<int> mKind(0, 3);
    std::uniform_int_distribution<std::int64_t> mBig(2, 33);
    std::uniform_int_distribution<std::int64_t> kAny(1, 70);
    std::uniform_int_distribution<std::int64_t> nAny(1, 70);
    GemmShape s;
    switch (mKind(gen)) {
    case 0: s.m = 1; break;                    // decode
    case 1: s.m = 4; break;                    // row-partition floor
    default: s.m = mBig(gen); break;
    }
    s.k = kAny(gen);
    s.n = nAny(gen);
    return s;
}

/**
 * Shapes above the work-size rule: k and a ragged n sized from
 * base::kMinChunkWork so that the narrowest partition of every GEMM
 * kernel (one output column of one row, k MACs) holds at least two
 * chunks — each kernel call must dispatch on a multi-thread pool.
 */
GemmShape
bigShape(std::mt19937_64 &gen)
{
    std::uniform_int_distribution<int> mKind(0, 2);
    std::uniform_int_distribution<std::int64_t> mBig(4, 16);
    std::uniform_int_distribution<std::int64_t> kBig(300, 420);
    std::uniform_int_distribution<std::int64_t> tail(1, 90);
    GemmShape s;
    switch (mKind(gen)) {
    case 0: s.m = 1; break;                    // decode
    case 1: s.m = 3; break;                    // skinny column split
    default: s.m = mBig(gen); break;
    }
    s.k = kBig(gen);
    s.n = 2 * ((base::kMinChunkWork + s.k - 1) / s.k) + 16 + tail(gen);
    return s;
}

/**
 * Every GEMM kernel on shape @p s against the scalar references at
 * every contract pool; with @p must_dispatch, each call on a
 * multi-thread pool must also have reached the workers.
 */
void
checkGemms(const GemmShape &s, std::size_t it, std::mt19937_64 &gen,
           const std::vector<std::shared_ptr<ThreadPool>> &pools,
           bool must_dispatch)
{
    std::uniform_int_distribution<int> coin(0, 1);
    Rng rng(static_cast<std::uint64_t>(1000 + it));
    const Tensor a = Tensor::randomNormal({s.m, s.k}, rng, 1.0);
    const Tensor b = Tensor::randomNormal({s.k, s.n}, rng, 1.0);
    const Tensor bt = [&] {
        Tensor t({s.n, s.k});
        for (std::int64_t i = 0; i < s.n; ++i)
            for (std::int64_t c = 0; c < s.k; ++c)
                t.data()[i * s.k + c] = b.data()[c * s.n + i];
        return t;
    }();
    Tensor bias;
    if (coin(gen)) {
        Rng brng(static_cast<std::uint64_t>(5000 + it));
        bias = Tensor::randomNormal({s.n}, brng, 1.0);
    }
    const bool round = coin(gen) != 0;

    const KernelOptions serial{round, nullptr};
    const Tensor ref = scalarMatmul(a, b, bias, serial);
    const Tensor refT = scalarMatmulTransposed(a, bt, serial);
    const PackedMatrix packed = packColumns(b);
    const PackedMatrix packedT = packTransposed(bt);

    for (const auto &pool : pools) {
        const KernelOptions opts{round, pool.get()};
        const int threads = pool ? pool->threadCount() : 0;
        DispatchCounter dispatched(pool.get());
        const bool expect = must_dispatch && threads > 1;
        const auto dispatchedOnce = [&] {
            const bool ok = !expect || dispatched.count() > 0;
            dispatched.reset();
            return ok;
        };
        ASSERT_TRUE(bitIdentical(matmul(a, b, bias, opts), ref))
            << "matmul " << s.m << "x" << s.k << "x" << s.n
            << " at " << threads << " threads";
        EXPECT_TRUE(dispatchedOnce()) << "matmul ran inline";
        ASSERT_TRUE(
            bitIdentical(matmulPacked(a, packed, bias, opts), ref))
            << "matmulPacked " << s.m << "x" << s.k << "x" << s.n
            << " at " << threads << " threads";
        EXPECT_TRUE(dispatchedOnce()) << "matmulPacked ran inline";
        ASSERT_TRUE(
            bitIdentical(matmulPacked(a, packedT, bias, opts), ref))
            << "matmulPacked(transposed pack) " << s.m << "x" << s.k
            << "x" << s.n << " at " << threads << " threads";
        EXPECT_TRUE(dispatchedOnce())
            << "matmulPacked(transposed pack) ran inline";
        ASSERT_TRUE(bitIdentical(matmulTransposed(a, bt, opts), refT))
            << "matmulTransposed " << s.m << "x" << s.k << "x" << s.n
            << " at " << threads << " threads";
        EXPECT_TRUE(dispatchedOnce()) << "matmulTransposed ran inline";
    }
}

TEST(KernelParallelProperty, GemmsMatchScalarReferenceBitForBit)
{
    const auto pools = contractPools();
    std::mt19937_64 gen(20250806);
    const std::size_t shapes = shapeCount();
    for (std::size_t it = 0; it < shapes; ++it)
        checkGemms(randomShape(gen), it, gen, pools, false);
}

TEST(KernelParallelProperty, AboveThresholdGemmsDispatchAndMatchBitForBit)
{
    const auto pools = contractPools();
    std::mt19937_64 gen(20260114);
    const std::size_t shapes = shapeCount() / 20 + 6;
    for (std::size_t it = 0; it < shapes; ++it)
        checkGemms(bigShape(gen), 100000 + it, gen, pools, true);
}

/**
 * The row-wise and elementwise kernels on an (m, n) input at every
 * multi-thread contract pool against the serial path; with
 * @p must_dispatch, each call must also have reached the workers.
 */
void
checkRowKernels(std::int64_t m, std::int64_t n, std::int64_t offset,
                std::size_t it,
                const std::vector<std::shared_ptr<ThreadPool>> &pools,
                bool must_dispatch)
{
    Rng rng(static_cast<std::uint64_t>(9000 + it));
    const Tensor x = Tensor::randomNormal({m, n}, rng, 2.0);
    const Tensor g = Tensor::randomNormal({n}, rng, 1.0);
    const Tensor bb = Tensor::randomNormal({n}, rng, 1.0);
    const Tensor other = Tensor::randomNormal({m, n}, rng, 1.0);

    const KernelOptions serial{true, nullptr};
    const Tensor ln_ref = layerNorm(x, g, bb, serial);
    Tensor sm_ref = x.clone();
    softmaxRows(sm_ref, serial);
    Tensor csm_ref = x.clone();
    causalSoftmaxRows(csm_ref, offset, serial);
    Tensor relu_ref = x.clone();
    reluInPlace(relu_ref, serial);
    Tensor silu_ref = x.clone();
    siluInPlace(silu_ref, serial);
    Tensor mul_ref = x.clone();
    mulInPlace(mul_ref, other, serial);
    const Tensor add_ref = add(x, other, serial);

    for (const auto &pool : pools) {
        if (!pool)
            continue;
        const KernelOptions opts{true, pool.get()};
        DispatchCounter dispatched(pool.get());
        const bool expect = must_dispatch && pool->threadCount() > 1;
        const auto dispatchedOnce = [&] {
            const bool ok = !expect || dispatched.count() > 0;
            dispatched.reset();
            return ok;
        };
        ASSERT_TRUE(bitIdentical(layerNorm(x, g, bb, opts), ln_ref));
        EXPECT_TRUE(dispatchedOnce()) << "layerNorm ran inline";
        Tensor sm = x.clone();
        softmaxRows(sm, opts);
        ASSERT_TRUE(bitIdentical(sm, sm_ref));
        EXPECT_TRUE(dispatchedOnce()) << "softmaxRows ran inline";
        Tensor csm = x.clone();
        causalSoftmaxRows(csm, offset, opts);
        ASSERT_TRUE(bitIdentical(csm, csm_ref));
        EXPECT_TRUE(dispatchedOnce()) << "causalSoftmaxRows ran inline";
        Tensor relu = x.clone();
        reluInPlace(relu, opts);
        ASSERT_TRUE(bitIdentical(relu, relu_ref));
        EXPECT_TRUE(dispatchedOnce()) << "reluInPlace ran inline";
        Tensor silu = x.clone();
        siluInPlace(silu, opts);
        ASSERT_TRUE(bitIdentical(silu, silu_ref));
        EXPECT_TRUE(dispatchedOnce()) << "siluInPlace ran inline";
        Tensor mul = x.clone();
        mulInPlace(mul, other, opts);
        ASSERT_TRUE(bitIdentical(mul, mul_ref));
        EXPECT_TRUE(dispatchedOnce()) << "mulInPlace ran inline";
        ASSERT_TRUE(bitIdentical(add(x, other, opts), add_ref));
        EXPECT_TRUE(dispatchedOnce()) << "add ran inline";
    }
}

TEST(KernelParallelProperty, RowAndElementwiseKernelsMatchSerial)
{
    const auto pools = contractPools();
    std::mt19937_64 gen(77);
    std::uniform_int_distribution<std::int64_t> rows(1, 40);
    std::uniform_int_distribution<std::int64_t> cols(1, 130);
    std::uniform_int_distribution<std::int64_t> off(0, 8);

    const std::size_t iters = shapeCount() / 4 + 8;
    for (std::size_t it = 0; it < iters; ++it) {
        const std::int64_t m = rows(gen), n = cols(gen);
        checkRowKernels(m, n, off(gen), it, pools, false);
    }
}

TEST(KernelParallelProperty, AboveThresholdRowKernelsDispatchAndMatchSerial)
{
    // Rows of n elements, and enough of them that both the row
    // partition (n per row) and the element partition hold at least
    // two chunks of base::kMinChunkWork.
    const auto pools = contractPools();
    std::mt19937_64 gen(78);
    std::uniform_int_distribution<std::int64_t> cols(200, 400);
    std::uniform_int_distribution<std::int64_t> tail(0, 20);
    std::uniform_int_distribution<std::int64_t> off(0, 8);
    for (std::size_t it = 0; it < 4; ++it) {
        const std::int64_t n = cols(gen);
        const std::int64_t m =
            2 * ((base::kMinChunkWork + n - 1) / n) + tail(gen);
        checkRowKernels(m, n, off(gen), 50000 + it, pools, true);
    }
}

TEST(KernelParallelProperty, GreedyDecodeIdenticalAcrossPoolSizes)
{
    // End-to-end anchor: three executors over the same seed-1234
    // weights, pinned to 1/2/4-thread pools, must emit the exact same
    // greedy token streams — the whole layer stack obeys §7, not just
    // the isolated kernels.
    const std::vector<std::vector<std::int64_t>> prompts = {
        {1, 4, 7, 10, 13, 16, 19, 22},
        {8, 15, 22, 29, 36, 43, 50, 57},
    };
    std::vector<std::vector<std::vector<std::int64_t>>> streams;
    for (const int threads : {1, 2, 4}) {
        Rng rng(1234);
        ExecutorConfig cfg;
        cfg.pool = std::make_shared<ThreadPool>(threads);
        CooperativeExecutor exec(
            hw::sprA100(),
            TransformerWeights::random(model::tinyOpt(), rng), cfg);
        streams.push_back(exec.generate(prompts, 12));
    }
    EXPECT_EQ(streams[0], streams[1])
        << "decode diverged between 1 and 2 threads";
    EXPECT_EQ(streams[0], streams[2])
        << "decode diverged between 1 and 4 threads";
}

} // namespace
