/**
 * @file
 * Property suite for the in-place cached attention (DESIGN.md §7).
 *
 * cachedAttention reads K/V straight out of KvCache storage. The
 * oracle is the composition it replaced: copy the layer's K/V out
 * through keys()/values(), slice each head, then
 * scalarMatmulTransposed, the 1/sqrt(headDim) scale,
 * causalSoftmaxRows and scalarMatmul. Every output must equal the
 * oracle bit for bit (memcmp) over random histories, for decode
 * (1 token), speculative verify (k+1) and chunked-prefill shapes, at
 * batch 1 and batch > 1, MHA and GQA head layouts, BF16 rounding on
 * and off, and pools of 1, 2 and 4 threads — including views taken
 * mid-step, which must see the step's pending tokens. Those random
 * histories are short enough for the pool's work-size rule to run
 * them inline, so a second class with histories sized from
 * base::kMinChunkWork must also reach the workers (a DispatchCounter
 * checks) on the multi-thread pools.
 *
 * Scenario count scales with LIA_PROPERTY_SCENARIOS.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "model/config.hh"
#include "runtime/kernels.hh"
#include "runtime/kv_cache.hh"
#include "support/dispatch_counter.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using base::ThreadPool;
using lia::test::DispatchCounter;

std::size_t
scenarioCount()
{
    if (const char *env = std::getenv("LIA_PROPERTY_SCENARIOS")) {
        const long scenarios = std::atol(env);
        if (scenarios > 0)
            return static_cast<std::size_t>(scenarios);
    }
    return 120;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<std::size_t>(a.numel())) == 0;
}

/** A two-layer KV geometry with the given head layout. */
model::ModelConfig
headLayout(std::int64_t heads, std::int64_t kv_heads,
           std::int64_t head_dim)
{
    model::ModelConfig m = model::tinyOpt();
    m.numLayers = 2;
    m.numHeads = heads;
    m.kvHeads = kv_heads;
    m.headDim = head_dim;
    m.dModel = heads * head_dim;
    return m;
}

Tensor
randomKv(std::int64_t batch, std::int64_t tokens, std::int64_t kv,
         Rng &rng)
{
    return Tensor::randomNormal({batch, tokens, kv}, rng, 1.0);
}

/** The pre-fusion composition: copies, slices, four kernels. */
Tensor
composedAttention(const Tensor &q, const KvCache &cache,
                  std::int64_t layer, const model::ModelConfig &m,
                  std::int64_t tokens, bool bf16)
{
    const KernelOptions opts{bf16, nullptr};
    const Tensor keys = cache.keys(layer);
    const Tensor values = cache.values(layer);
    const std::int64_t batch = keys.dim(0);
    const std::int64_t len = keys.dim(1);
    const std::int64_t dh = m.headDim;
    const std::int64_t group = m.numHeads / m.kvHeads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor out({batch * tokens, m.numHeads * dh});
    for (std::int64_t b = 0; b < batch; ++b) {
        for (std::int64_t h = 0; h < m.numHeads; ++h) {
            const std::int64_t kvh = h / group;
            Tensor qh({tokens, dh});
            for (std::int64_t t = 0; t < tokens; ++t)
                for (std::int64_t c = 0; c < dh; ++c)
                    qh.at(t, c) = q.at(b * tokens + t, h * dh + c);
            Tensor kh({len, dh});
            Tensor vh({len, dh});
            for (std::int64_t i = 0; i < len; ++i) {
                for (std::int64_t c = 0; c < dh; ++c) {
                    kh.at(i, c) = keys.at(b, i, kvh * dh + c);
                    vh.at(i, c) = values.at(b, i, kvh * dh + c);
                }
            }
            Tensor scores = scalarMatmulTransposed(qh, kh, opts);
            for (std::int64_t i = 0; i < scores.numel(); ++i)
                scores.data()[i] *= scale;
            causalSoftmaxRows(scores, len - tokens, opts);
            Tensor ctx = scalarMatmul(scores, vh, Tensor(), opts);
            for (std::int64_t t = 0; t < tokens; ++t)
                for (std::int64_t c = 0; c < dh; ++c)
                    out.at(b * tokens + t, h * dh + c) = ctx.at(t, c);
        }
    }
    return out;
}

struct Scenario
{
    std::int64_t heads, kvHeads, headDim;
    std::int64_t batch;
    std::int64_t history;  //!< tokens cached before this step
    std::int64_t tokens;   //!< tokens appended this step
};

/** Random tokens shape: decode, speculative verify (k+1) or chunk. */
std::int64_t
stepTokens(std::size_t index, Rng &rng)
{
    switch (index % 3) {
      case 0:
        return 1;
      case 1:
        return rng.uniformInt(1, 8) + 1;
      default:
        return rng.uniformInt(9, 40);
    }
}

Scenario
randomScenario(std::size_t index, Rng &rng)
{
    static const std::int64_t layouts[][3] = {
        {2, 2, 16}, {4, 4, 8}, {4, 2, 8}, {4, 1, 8}, {6, 3, 5},
        {3, 1, 7}};
    const auto &layout = layouts[rng.uniformInt(
        0, static_cast<std::int64_t>(std::size(layouts)) - 1)];
    Scenario s;
    s.heads = layout[0];
    s.kvHeads = layout[1];
    s.headDim = layout[2];
    s.batch = rng.bernoulli(0.5) ? 1 : rng.uniformInt(2, 3);
    s.tokens = stepTokens(index, rng);
    // Decode and verify need history; a chunk may be the first one.
    s.history = rng.uniformInt(index % 3 == 2 ? 0 : 1, 96);
    return s;
}

/** Fill @p history tokens over all layers, in a few uneven steps. */
void
appendHistory(KvCache &cache, const model::ModelConfig &m,
              std::int64_t history, Rng &rng)
{
    while (cache.length() < history) {
        const std::int64_t step = std::min<std::int64_t>(
            history - cache.length(), rng.uniformInt(1, 24));
        for (std::int64_t l = 0; l < m.numLayers; ++l)
            cache.append(l, randomKv(cache.batch(), step, m.kvDim(), rng),
                         randomKv(cache.batch(), step, m.kvDim(), rng));
    }
}

/**
 * One scenario against the composed oracle at every pool, on a view
 * taken mid-step (layer 0) and after the step (layer 1). With
 * @p must_dispatch, every call on a multi-thread pool must also have
 * reached the workers.
 */
void
checkScenario(const Scenario &s, std::size_t n, Rng &rng,
              bool must_dispatch)
{
    ThreadPool pool2(2);
    ThreadPool pool4(4);
    ThreadPool *const pools[] = {nullptr, &pool2, &pool4};
    const model::ModelConfig m = headLayout(s.heads, s.kvHeads, s.headDim);
    KvCache cache(m, s.batch, s.history + s.tokens + 3);
    appendHistory(cache, m, s.history, rng);
    const Tensor q = Tensor::randomNormal(
        {s.batch * s.tokens, s.heads * s.headDim}, rng, 1.0);

    // Layer 0 mid-step (layer 1 not yet appended), then layer 1
    // once the step has completed.
    for (std::int64_t l = 0; l < m.numLayers; ++l) {
        cache.append(l, randomKv(s.batch, s.tokens, m.kvDim(), rng),
                     randomKv(s.batch, s.tokens, m.kvDim(), rng));
        const KvView view = cache.view(l);
        ASSERT_EQ(view.length, s.history + s.tokens);
        for (bool bf16 : {true, false}) {
            const Tensor want =
                composedAttention(q, cache, l, m, s.tokens, bf16);
            for (ThreadPool *pool : pools) {
                DispatchCounter dispatched(pool);
                const Tensor got = cachedAttention(
                    q, view, s.heads, s.tokens, KernelOptions{bf16, pool});
                const int threads = pool ? pool->threadCount() : 1;
                ASSERT_TRUE(bitIdentical(got, want))
                    << "scenario " << n << " layer " << l << " heads "
                    << s.heads << "/" << s.kvHeads << " dh "
                    << s.headDim << " batch " << s.batch << " history "
                    << s.history << " tokens " << s.tokens << " bf16 "
                    << bf16 << " threads " << threads;
                if (must_dispatch && threads > 1) {
                    EXPECT_GT(dispatched.count(), 0)
                        << "scenario " << n << " ran inline at "
                        << threads << " threads";
                }
            }
        }
    }
}

TEST(CachedAttentionProperty, MemcmpEqualsTheComposedKernels)
{
    Rng rng(0xA77E);
    const std::size_t scenarios = scenarioCount();
    for (std::size_t n = 0; n < scenarios; ++n)
        checkScenario(randomScenario(n, rng), n, rng, false);
}

TEST(CachedAttentionProperty, AboveThresholdHistoriesDispatchAndMatch)
{
    // Each (batch, head) pair costs 2 * tokens * len * headDim MACs:
    // size the history so one pair is a whole base::kMinChunkWork
    // chunk, and with at least four pairs the loop must dispatch.
    Rng rng(0xB16A);
    const std::size_t scenarios = scenarioCount() / 30 + 3;
    for (std::size_t n = 0; n < scenarios; ++n) {
        Scenario s;
        s.heads = 4;
        s.kvHeads = rng.bernoulli(0.5) ? 4 : 2;
        s.headDim = 16;
        s.batch = rng.uniformInt(1, 2);
        s.tokens = rng.uniformInt(9, 40);  // chunk-shaped steps
        const std::int64_t len =
            (base::kMinChunkWork + 2 * s.tokens * s.headDim - 1) /
            (2 * s.tokens * s.headDim);
        s.history = std::max<std::int64_t>(1, len - s.tokens) +
                    rng.uniformInt(0, 16);
        checkScenario(s, n, rng, true);
    }
}

TEST(CachedAttentionTest, MidStepViewSeesPendingTokens)
{
    const model::ModelConfig m = headLayout(4, 2, 8);
    KvCache cache(m, 2, 16);
    Rng rng(7);
    appendHistory(cache, m, 5, rng);
    cache.append(0, randomKv(2, 3, m.kvDim(), rng),
                 randomKv(2, 3, m.kvDim(), rng));
    EXPECT_EQ(cache.length(), 5);
    const KvView mid = cache.view(0);
    EXPECT_EQ(mid.length, 8);
    EXPECT_EQ(mid.batch, 2);
    EXPECT_EQ(mid.kvDim, m.kvDim());
    EXPECT_EQ(mid.batchStride, 16 * m.kvDim());
    // The view aliases the cache: its rows are keys()'s rows.
    const Tensor keys = cache.keys(0);
    const Tensor values = cache.values(0);
    ASSERT_EQ(keys.dim(1), mid.length);
    for (std::int64_t b = 0; b < 2; ++b) {
        EXPECT_EQ(std::memcmp(mid.keys + b * mid.batchStride,
                              keys.data() + b * 8 * m.kvDim(),
                              sizeof(float) * 8 * m.kvDim()),
                  0);
        EXPECT_EQ(std::memcmp(mid.values + b * mid.batchStride,
                              values.data() + b * 8 * m.kvDim(),
                              sizeof(float) * 8 * m.kvDim()),
                  0);
    }
}

} // namespace
