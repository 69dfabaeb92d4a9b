/**
 * @file
 * Per-layer probes: direct calls into one layer's public entry point,
 * timed from outside. Every probe warms up first, then reports the
 * median of many timed calls, at the shapes of the workload's model.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <functional>

#include "serve/cost_cache.hh"
#include "workloads.hh"

namespace perfbench {

/**
 * Median seconds per call of @p call over @p samples timed samples,
 * after @p warmup untimed ones. Each sample times @p batch back-to-back
 * calls and divides, so calls far below the clock's resolution still
 * time meaningfully.
 */
double probeMedian(int warmup, int samples, int batch,
                   const std::function<void()> &call);

/** Runtime and kernel probes of a runtime workload. */
struct RuntimeProbes
{
    double decodeOneShortUs = 0;  //!< decodeOne at a short context
    double decodeOneLongUs = 0;   //!< decodeOne at a long context
    double kvReadLongUs = 0;      //!< keys()+values() of every layer
    double prefillChunkUs = 0;    //!< one prefillChunk of chunk tokens
    std::int64_t shortContext = 0;
    std::int64_t longContext = 0;
    std::int64_t chunkTokens = 0;

    /** matmulPacked on the model's FC1 shape (d x ffn). */
    struct Kernel
    {
        std::int64_t m = 0, k = 0, n = 0;
        double gflops = 0;
        double flops = 0;  //!< 2mkn per call
        double bytes = 0;  //!< A + packed B + bias + C, from sizes
    };
    Kernel m1;
    Kernel mChunk;

    double poolDispatchUs = 0;  //!< empty parallelFor on the pool
};

RuntimeProbes probeRuntime(const Workload &workload);

/** Probes of the analytic layers every workload runs on. */
struct AnalyticProbes
{
    double costLookupNs = 0;      //!< warm IterationCostCache::time
    double estimateIterationUs = 0;  //!< EngineModel::estimateIteration
    double eventNs = 0;           //!< EventQueue schedule + step
};

/** @p costs must be the workload's (warmed) cost cache. */
AnalyticProbes probeAnalytic(const Workload &workload,
                             const lia::serve::IterationCostCache &costs);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
