/**
 * @file
 * Property suite for the executor's ragged batched decode (DESIGN.md
 * §6, §7).
 *
 * decodeBatch advances many sequences — each its own batch-1 KvCache
 * at its own context length — in one pass: one m = B matmul per
 * projection and for the LM head, and attention per sequence over its
 * own cache view. It must equal running decodeOne on each sequence in
 * turn, bit for bit: the sampled tokens, every cache's K/V bytes and
 * length, and the executor's modeled account (ledger bytes per
 * traffic class, transfer count, link seconds, CPU and GPU busy
 * seconds).
 *
 * Variants cover the OPT and the gated (SwiGLU, GQA) model, fp32 and
 * int8 weights, BF16 rounding on and off, greedy and top-k sampling,
 * and pools of 1, 2 and 4 threads. Each runs short ragged batches
 * (batch 1 included, random subsets of the live sequences per step)
 * and long-context batches sized from base::kMinChunkWork so the
 * per-sequence attention loop dispatches — mixed lengths straddling
 * chunk boundaries — which a DispatchCounter checks on multi-thread
 * pools.
 *
 * Scenario count scales with LIA_PROPERTY_SCENARIOS.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "runtime/executor.hh"
#include "support/dispatch_counter.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using base::ThreadPool;
using lia::test::DispatchCounter;

std::size_t
roundsPerVariant()
{
    if (const char *env = std::getenv("LIA_PROPERTY_SCENARIOS")) {
        const long scenarios = std::atol(env);
        if (scenarios > 0)
            return static_cast<std::size_t>(scenarios) / 200 + 1;
    }
    return 1;
}

struct Variant
{
    bool gated = false;
    bool int8 = false;
    bool bf16 = true;
    bool topK = false;
    int threads = 1;

    std::string name() const
    {
        return std::string(gated ? "llama" : "opt") +
               (int8 ? " int8" : " fp32") + (bf16 ? " bf16" : " fp32-acc") +
               (topK ? " top-k" : " greedy") + " x" +
               std::to_string(threads);
    }
};

model::ModelConfig
variantModel(const Variant &v)
{
    model::ModelConfig m = v.gated ? model::tinyLlama(64, 2, 4, 2, 512)
                                   : model::tinyOpt(64, 2, 4, 512);
    return v.int8 ? model::quantized(m, model::WeightPrecision::Int8) : m;
}

/** Two executors over identical weights and one shared pool: the
 *  per-sequence reference and the batched path under test. */
struct Pair
{
    model::ModelConfig model;
    std::shared_ptr<ThreadPool> pool;
    std::unique_ptr<CooperativeExecutor> sequential;
    std::unique_ptr<CooperativeExecutor> batched;
};

Pair
makePair(const Variant &v)
{
    Pair p;
    p.model = variantModel(v);
    p.pool = std::make_shared<ThreadPool>(v.threads);
    ExecutorConfig cfg;
    cfg.bf16Rounding = v.bf16;
    cfg.weightPrecision = v.int8 ? model::WeightPrecision::Int8
                                 : model::WeightPrecision::Bf16;
    cfg.pool = p.pool;
    // A mixed plan, so every traffic class reaches the ledger.
    cfg.decodePolicy = core::Policy::attentionOnCpu();
    cfg.residentLayers = 1;
    if (v.topK) {
        cfg.sampling.mode = SamplingMode::TopK;
        cfg.sampling.topK = 8;
        cfg.sampling.seed = 99;
    }
    for (auto *exec : {&p.sequential, &p.batched}) {
        Rng rng(4242);
        *exec = std::make_unique<CooperativeExecutor>(
            hw::sprA100(), TransformerWeights::random(p.model, rng), cfg);
    }
    return p;
}

/** Caches and last tokens of one sequence set, mirrored per path. */
struct Sequences
{
    std::vector<KvCache> sequential;
    std::vector<KvCache> batched;
    std::vector<std::int64_t> last;
};

/** Short ragged prompts, prefilled for real through both paths. */
Sequences
prefillShort(Pair &p, std::int64_t count, Rng &rng)
{
    Sequences s;
    for (std::int64_t i = 0; i < count; ++i) {
        std::vector<std::int64_t> prompt(
            static_cast<std::size_t>(rng.uniformInt(1, 60)));
        for (auto &tok : prompt)
            tok = rng.uniformInt(0, p.model.vocabSize - 1);
        s.sequential.emplace_back(p.model, 1, p.model.maxSeqLen);
        s.batched.emplace_back(p.model, 1, p.model.maxSeqLen);
        const std::int64_t a =
            p.sequential->prefillChunk(s.sequential.back(), prompt);
        const std::int64_t b =
            p.batched->prefillChunk(s.batched.back(), prompt);
        EXPECT_EQ(a, b);
        s.last.push_back(a);
    }
    return s;
}

/**
 * Long random histories: enough sequences at contexts >= 400 that the
 * attention loop over sequences holds at least two chunks of
 * base::kMinChunkWork (each costs 2 * context * dModel MACs).
 */
Sequences
fillLong(Pair &p, Rng &rng)
{
    constexpr std::int64_t minContext = 400;
    const std::int64_t perSeq = 2 * minContext * p.model.dModel;
    const std::int64_t count =
        2 * ((base::kMinChunkWork + perSeq - 1) / perSeq) +
        rng.uniformInt(0, 5);
    Sequences s;
    for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t len = rng.uniformInt(minContext, 500);
        KvCache cache(p.model, 1, p.model.maxSeqLen);
        for (std::int64_t l = 0; l < p.model.numLayers; ++l)
            cache.append(
                l,
                Tensor::randomNormal({1, len, p.model.kvDim()}, rng, 1.0),
                Tensor::randomNormal({1, len, p.model.kvDim()}, rng, 1.0));
        s.sequential.push_back(cache);
        s.batched.push_back(std::move(cache));
        s.last.push_back(rng.uniformInt(0, p.model.vocabSize - 1));
    }
    return s;
}

/**
 * @p steps decode steps over @p s — or, with @p subsets, over random
 * non-empty subsets of it (kept in order): decodeOne per sequence on
 * one path, one decodeBatch on the other. Returns the loops the
 * batched calls dispatched.
 */
std::int64_t
decodeBoth(Pair &p, Sequences &s, int steps, bool subsets, Rng &rng,
           const std::string &where)
{
    DispatchCounter dispatched(p.pool.get());
    std::int64_t batchedDispatches = 0;
    for (int step = 0; step < steps; ++step) {
        std::vector<std::size_t> picked;
        for (std::size_t i = 0; i < s.last.size(); ++i)
            if (!subsets || rng.bernoulli(0.8))
                picked.push_back(i);
        if (picked.empty())
            picked.push_back(0);

        std::vector<std::int64_t> want;
        for (std::size_t i : picked)
            want.push_back(
                p.sequential->decodeOne(s.sequential[i], s.last[i]));

        std::vector<KvCache *> caches;
        std::vector<std::int64_t> feed;
        for (std::size_t i : picked) {
            caches.push_back(&s.batched[i]);
            feed.push_back(s.last[i]);
        }
        dispatched.reset();
        const std::vector<std::int64_t> got =
            p.batched->decodeBatch(caches, feed);
        batchedDispatches += dispatched.count();
        EXPECT_EQ(got, want) << where << " step " << step << " batch "
                             << picked.size();
        for (std::size_t j = 0; j < picked.size(); ++j)
            s.last[picked[j]] = want[j];
    }
    for (std::size_t i = 0; i < s.last.size(); ++i) {
        EXPECT_EQ(s.batched[i].length(), s.sequential[i].length())
            << where << " sequence " << i;
        EXPECT_EQ(s.batched[i].fingerprint(), s.sequential[i].fingerprint())
            << where << " sequence " << i << " KV bytes differ";
    }
    return batchedDispatches;
}

/** The modeled account must match exactly, not within a tolerance:
 *  the batched path charges each sequence as decodeOne would, in the
 *  same order. */
void
expectSameAccount(const CooperativeExecutor &a,
                  const CooperativeExecutor &b, const std::string &where)
{
    for (Traffic t : {Traffic::Param, Traffic::Kv, Traffic::Activation})
        EXPECT_EQ(a.ledger().bytes(t), b.ledger().bytes(t)) << where;
    EXPECT_EQ(a.ledger().transferCount(), b.ledger().transferCount())
        << where;
    EXPECT_EQ(a.ledger().totalTime(), b.ledger().totalTime()) << where;
    EXPECT_EQ(a.cpuDevice().busyTime(), b.cpuDevice().busyTime()) << where;
    EXPECT_EQ(a.gpuDevice().busyTime(), b.gpuDevice().busyTime()) << where;
}

std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    int index = 0;
    for (bool gated : {false, true})
        for (bool int8 : {false, true})
            for (bool bf16 : {true, false})
                for (int threads : {1, 2, 4}) {
                    Variant v;
                    v.gated = gated;
                    v.int8 = int8;
                    v.bf16 = bf16;
                    v.topK = index++ % 4 == 3;
                    v.threads = threads;
                    out.push_back(v);
                }
    return out;
}

TEST(DecodeBatchProperty, RaggedBatchEqualsSequentialDecodeOne)
{
    Rng rng(0xBA7C4);
    const std::size_t rounds = roundsPerVariant();
    for (const Variant &v : variants()) {
        Pair p = makePair(v);
        for (std::size_t round = 0; round < rounds; ++round) {
            const std::string where =
                v.name() + " round " + std::to_string(round);
            // Batch 1, then a small ragged batch.
            for (std::int64_t count : {std::int64_t{1},
                                       rng.uniformInt(2, 6)}) {
                Sequences s = prefillShort(p, count, rng);
                decodeBoth(p, s, 6, true, rng, where + " short");
            }
            Sequences s = fillLong(p, rng);
            const std::int64_t dispatches =
                decodeBoth(p, s, 3, false, rng, where + " long");
            if (v.threads > 1) {
                EXPECT_GT(dispatches, 0)
                    << where << ": long-context batches ran inline";
            }
        }
        expectSameAccount(*p.sequential, *p.batched, v.name());
    }
}

TEST(DecodeBatchTest, MultiRowCachesJoinARaggedBatch)
{
    // A batch-B cache (generate()'s uniform batch, which decodeStep
    // feeds through decodeBatch) contributes B rows to a ragged batch;
    // joined with a batch-1 sequence, each group must decode exactly
    // as it does on its own.
    const model::ModelConfig m = model::tinyOpt();
    Rng wa(7), wb(7);
    CooperativeExecutor a(hw::sprA100(),
                          TransformerWeights::random(m, wa), {});
    CooperativeExecutor b(hw::sprA100(),
                          TransformerWeights::random(m, wb), {});
    std::vector<std::int64_t> next =
        a.prefill({{1, 2, 3, 4}, {9, 8, 7, 6}, {5, 5, 5, 5}});
    KvCache single(m, 1, m.maxSeqLen);
    std::int64_t last = a.prefillChunk(single, {3, 1, 4, 1, 5, 9, 2});
    KvCache group = a.cache();
    KvCache single2 = single;

    for (int step = 0; step < 4; ++step) {
        std::vector<std::int64_t> want = a.decodeStep(next);
        const std::int64_t wantOne = a.decodeOne(single, last);
        std::vector<std::int64_t> feed = next;
        feed.push_back(last);
        const std::vector<std::int64_t> got =
            b.decodeBatch({&group, &single2}, feed);
        next = want;
        last = wantOne;
        want.push_back(wantOne);
        EXPECT_EQ(got, want) << "step " << step;
    }
    EXPECT_EQ(group.fingerprint(), a.cache().fingerprint());
    EXPECT_EQ(single2.fingerprint(), single.fingerprint());
}

} // namespace
