#include "probes.hh"

#include <algorithm>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "runtime/executor.hh"
#include "runtime/kernels.hh"
#include "sim/event_queue.hh"
#include "timing.hh"

namespace perfbench {

using namespace lia;

double
probeMedian(int warmup, int samples, int batch,
            const std::function<void()> &call)
{
    for (int i = 0; i < warmup; ++i)
        call();
    std::vector<double> perCall;
    perCall.reserve(static_cast<std::size_t>(samples));
    for (int s = 0; s < samples; ++s) {
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < batch; ++i)
            call();
        perCall.push_back(since(start) / batch);
    }
    return median(std::move(perCall));
}

namespace {

/** A KvCache holding @p context tokens of @p prompt-driven history. */
std::unique_ptr<runtime::KvCache>
cacheAt(runtime::CooperativeExecutor &executor,
        const model::ModelConfig &model, std::int64_t context,
        std::int64_t capacity)
{
    auto cache = std::make_unique<runtime::KvCache>(model, 1, capacity);
    std::vector<std::int64_t> prompt(static_cast<std::size_t>(context));
    for (std::int64_t i = 0; i < context; ++i)
        prompt[static_cast<std::size_t>(i)] = (7 * i + 3) % model.vocabSize;
    executor.prefillChunk(*cache, prompt);
    return cache;
}

RuntimeProbes::Kernel
probeKernel(std::int64_t m, std::int64_t k, std::int64_t n,
            base::ThreadPool &pool)
{
    Rng rng(0x5eed + static_cast<std::uint64_t>(m));
    const runtime::Tensor a = runtime::Tensor::randomNormal({m, k}, rng, 1);
    const runtime::Tensor b = runtime::Tensor::randomNormal({k, n}, rng, 1);
    const runtime::Tensor bias = runtime::Tensor::randomNormal({n}, rng, 1);
    const runtime::PackedMatrix packed = runtime::packColumns(b);
    runtime::KernelOptions opts;
    opts.pool = &pool;

    RuntimeProbes::Kernel kernel;
    kernel.m = m;
    kernel.k = k;
    kernel.n = n;
    kernel.flops = 2.0 * static_cast<double>(m * k * n);
    kernel.bytes = 4.0 * static_cast<double>(a.numel() + bias.numel() +
                                             m * n) +
                   packed.fp32Bytes();
    const double secs = probeMedian(200, 400, 10, [&] {
        const runtime::Tensor c = runtime::matmulPacked(a, packed, bias,
                                                        opts);
        (void)c;
    });
    kernel.gflops = kernel.flops / secs / 1e9;
    return kernel;
}

} // namespace

RuntimeProbes
probeRuntime(const Workload &w)
{
    RuntimeProbes p;
    const model::ModelConfig &m = w.model;
    p.shortContext = 32;
    p.longContext = w.engine.maxContext - 32;
    p.chunkTokens = w.engine.prefillChunkTokens > 0
                        ? w.engine.prefillChunkTokens
                        : 32;

    Rng rng(w.engine.seed);
    runtime::ExecutorConfig config;  // shared pool, as RuntimeBackend
    runtime::CooperativeExecutor executor(
        w.system, runtime::TransformerWeights::random(m, rng), config);
    const std::int64_t capacity = w.engine.maxContext + 1;

    // Each timed call appends one step; truncate() rolls it back
    // outside the timed region, so every sample sees the same context.
    auto decodeAt = [&](std::int64_t context) {
        auto cache = cacheAt(executor, m, context, capacity);
        std::vector<double> samples;
        for (int i = 0; i < 400; ++i) {
            const Clock::time_point start = Clock::now();
            executor.decodeOne(*cache, 1);
            const double secs = since(start);
            cache->truncate(context);
            if (i >= 50)
                samples.push_back(secs);
        }
        return median(std::move(samples)) * 1e6;
    };
    p.decodeOneShortUs = decodeAt(p.shortContext);
    p.decodeOneLongUs = decodeAt(p.longContext);

    {
        auto cache = cacheAt(executor, m, p.longContext, capacity);
        p.kvReadLongUs = 1e6 * probeMedian(50, 400, 1, [&] {
            for (std::int64_t layer = 0; layer < m.numLayers; ++layer) {
                const runtime::Tensor k = cache->keys(layer);
                const runtime::Tensor v = cache->values(layer);
                (void)k;
                (void)v;
            }
        });
    }

    {
        const std::int64_t history = p.longContext / 2;
        auto cache = cacheAt(executor, m, history, capacity);
        const std::vector<std::int64_t> chunk(
            static_cast<std::size_t>(p.chunkTokens), 5);
        std::vector<double> samples;
        for (int i = 0; i < 250; ++i) {
            const Clock::time_point start = Clock::now();
            executor.prefillChunk(*cache, chunk);
            const double secs = since(start);
            cache->truncate(history);
            if (i >= 50)
                samples.push_back(secs);
        }
        p.prefillChunkUs = median(std::move(samples)) * 1e6;
    }

    base::ThreadPool &pool = base::ThreadPool::shared();
    p.m1 = probeKernel(1, m.dModel, m.ffnDim, pool);
    p.mChunk = probeKernel(p.chunkTokens, m.dModel, m.ffnDim, pool);

    const std::int64_t threads = pool.threadCount();
    p.poolDispatchUs = 1e6 * probeMedian(200, 400, 10, [&] {
        pool.parallelFor(threads, 1, [](std::int64_t, std::int64_t) {});
    });
    return p;
}

AnalyticProbes
probeAnalytic(const Workload &w, const serve::IterationCostCache &costs)
{
    AnalyticProbes p;
    const std::int64_t maxBatch = w.engine.maxBatch;
    const std::int64_t maxContext =
        std::min<std::int64_t>(w.engine.maxContext, w.model.maxSeqLen);

    // A sweep over decode operating points of the workload; the warm-up
    // calls memoise any the timed passes did not visit.
    std::vector<std::pair<std::int64_t, std::int64_t>> points;
    for (std::int64_t b = 1; b <= maxBatch; b *= 2)
        for (std::int64_t c = 32; c <= maxContext; c += maxContext / 8)
            points.emplace_back(b, c);
    std::size_t next = 0;
    p.costLookupNs = 1e9 * probeMedian(1000, 200, 1000, [&] {
        const auto &[b, c] = points[next];
        next = next + 1 == points.size() ? 0 : next + 1;
        costs.time(model::Stage::Decode, b, c);
    });

    // Unmemoised pricing: straight to the engine, one scenario per
    // call, cycling through the same operating points.
    next = 0;
    p.estimateIterationUs = 1e6 * probeMedian(20, 60, 5, [&] {
        const auto &[b, c] = points[next];
        next = next + 1 == points.size() ? 0 : next + 1;
        core::IterationScenario scenario;
        scenario.stage = model::Stage::Decode;
        scenario.batch = b;
        scenario.context = c;
        costs.engine().estimateIteration(scenario);
    });

    sim::EventQueue queue;
    p.eventNs = 1e9 * probeMedian(1000, 200, 1000, [&] {
        queue.schedule(queue.now(), [] {});
        queue.step();
    });
    return p;
}

} // namespace perfbench
