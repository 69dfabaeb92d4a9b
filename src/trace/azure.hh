/**
 * @file
 * Workload generation following the Azure LLM inference trace
 * statistics the paper samples its token lengths from (§7 "Token
 * sequence lengths", [38]).
 *
 * Input lengths are uniformly distributed over [32, model maximum];
 * output lengths concentrate at 32 tokens (code traces) or 256 tokens
 * (conversation traces). Arrivals follow a Poisson process.
 */

#ifndef LIA_TRACE_AZURE_HH
#define LIA_TRACE_AZURE_HH

#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "core/engine.hh"

namespace lia {
namespace trace {

/** Which trace family's output-length statistics to follow. */
enum class TraceKind
{
    Code,          //!< short responses, L_out ~ 32
    Conversation,  //!< long responses, L_out ~ 256

    /**
     * Online mix: each request is drawn from the code or conversation
     * family with equal probability — the interleaved stream a
     * user-facing endpoint actually sees, and the workload whose
     * output-length spread makes iteration-level (continuous)
     * batching pay off over static batching.
     */
    Mixed,
};

const char *toString(TraceKind kind);

/** One inference request drawn from the trace distribution. */
struct Request
{
    std::int64_t lIn = 0;
    std::int64_t lOut = 0;
};

/** Deterministic generator of trace-shaped requests. */
class AzureTraceGenerator
{
  public:
    AzureTraceGenerator(TraceKind kind, std::int64_t max_context,
                        std::uint64_t seed = 1);

    /** Draw the next request. */
    Request next();

    /** Draw @p count requests. */
    std::vector<Request> batch(std::size_t count);

  private:
    TraceKind kind_;
    std::int64_t maxContext_;
    Rng rng_;
};

/**
 * Deterministic Poisson arrival process: exponential inter-arrival
 * gaps drawn from an owned Rng. The serving engine and the cluster
 * router draw from it with the same seed convention, so equal seeds
 * mean equal arrival sequences.
 */
class PoissonProcess
{
  public:
    PoissonProcess(double rate_per_second, std::uint64_t seed);

    /** Absolute time of the next arrival (monotonically increasing). */
    double next();

  private:
    double rate_;
    double t_ = 0;
    Rng rng_;
};

/**
 * The evaluation grid of input lengths used across Figs. 10-12:
 * 32 up to the model-defined maximum (2016 when generating 32 tokens,
 * 1792 when generating 256, so L_in + L_out <= 2048).
 */
std::vector<std::int64_t> standardLinSweep(std::int64_t l_out,
                                           std::int64_t max_seq = 2048);

/** The three batch-size operating points of §7 (1, 64, 900). */
std::vector<std::int64_t> standardBatchSweep();

} // namespace trace
} // namespace lia

#endif // LIA_TRACE_AZURE_HH
