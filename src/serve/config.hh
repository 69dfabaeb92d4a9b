/**
 * @file
 * Configuration of the continuous-batching serving engine.
 *
 * The engine is a FIFO serving queue with iteration-level
 * scheduling: requests join and leave the running
 * batch between engine iterations, and every iteration is priced by
 * the LIA analytical engine at the *current* dynamic batch size. The
 * scheduler policy selects between the Orca-style continuous batcher,
 * the static FIFO baseline, and an SLO-aware variant with admission
 * control.
 */

#ifndef LIA_SERVE_CONFIG_HH
#define LIA_SERVE_CONFIG_HH

#include <cstdint>
#include <functional>

#include "trace/azure.hh"

namespace lia {

namespace obs {
class EventSink;
} // namespace obs

namespace serve {

class SloMonitor;

/** Iteration-level scheduling discipline. */
enum class SchedulerPolicy
{
    /**
     * Static FIFO batching: collect up to maxBatch queued requests,
     * prefill them together, then decode the cohort until *every*
     * member finishes. No joins mid-flight; finished requests keep
     * occupying (and being priced at) their batch slot — the slot
     * waste continuous batching exists to eliminate.
     */
    StaticFifo,

    /**
     * Continuous (iteration-level) batching: after every iteration,
     * finished requests leave immediately and queued requests join up
     * to maxBatch, KV capacity permitting. Joiners are prefilled
     * piggybacked on the running batch's next iteration.
     */
    Continuous,

    /**
     * Continuous batching plus SLO enforcement: the decode batch is
     * capped so one decode step stays within the time-between-tokens
     * target (derived from the engine's iteration estimates, the
     * capacity planner's latency model), and admission sheds requests
     * whose projected time-to-first-token already exceeds the TTFT
     * target — trading raw completions for goodput.
     */
    SloAware,

    /**
     * Continuous batching with vLLM-style optimistic admission:
     * requests are admitted against their *current* KV footprint
     * (prompt only) plus a free-space watermark instead of the full
     * output horizon. When an iteration's projected KV growth would
     * breach the DDR budget the scheduler preempts victims
     * last-admitted-first, choosing per victim between swapping its
     * cache to the CXL pool (priced at the pool's interleaved
     * bandwidth) and discarding it for a later recompute prefill
     * (priced by the analytical engine), whichever the model says is
     * cheaper. Raises steady-state occupancy at the same DDR budget.
     */
    Preemptive,
};

const char *toString(SchedulerPolicy policy);

/** Service-level objectives enforced by SchedulerPolicy::SloAware. */
struct SloTargets
{
    /** Time-to-first-token target, seconds; 0 disables. */
    double ttft = 0;

    /** Per-token decode budget (time between tokens), seconds. */
    double tbt = 0;

    /** End-to-end response-time target used by goodput accounting. */
    double e2e = 0;

    bool any() const { return ttft > 0 || tbt > 0 || e2e > 0; }
};

/**
 * Cross-request prefix caching (DESIGN.md §10): a radix tree over
 * token-block prefixes whose nodes hold immutable KV spans, shared
 * ref-counted across requests. Hits skip prefill for the matched
 * prefix; cold nodes demote to the CXL pool when the transfer is
 * cheaper than the recompute the cached prefix saves.
 */
struct PrefixCacheConfig
{
    /** Master switch; off keeps the engine bit-identical to PR 6. */
    bool enabled = false;

    /**
     * Radix granularity: node spans and matches are multiples of this
     * many tokens. Coarser blocks mean fewer nodes and fewer splits;
     * finer blocks match more of a diverging prompt.
     */
    std::int64_t blockTokens = 16;

    /**
     * Zipfian prompt-sharing pools (0 = independent prompts). Each
     * request draws a pool with probability proportional to
     * 1/(rank+1)^sharingExponent and shares that pool's prompt prefix.
     */
    std::int64_t sharingPools = 0;

    /** Zipf skew of the pool popularity distribution. */
    double sharingExponent = 1.0;

    /** Upper bound on a pool prefix, as a fraction of maxContext. */
    double sharedFraction = 0.5;
};

/**
 * Speculative decoding (DESIGN.md §11): a CPU-side draft model
 * proposes draftTokens greedy tokens per decode step; the target
 * verifies them in one batched pass and emits the accepted prefix
 * plus one corrected token. Greedy verification is deterministic, so
 * spec-on output streams are bit-identical to spec-off — speculation
 * only changes how many tokens one iteration yields and what it costs.
 */
struct SpecConfig
{
    /** Master switch; off keeps the engine bit-identical to PR 7. */
    bool enabled = false;

    /** Draft tokens proposed per speculative decode step (k). */
    std::int64_t draftTokens = 4;

    /**
     * Modeled per-draft acceptance probability for analytic-only runs
     * (no execution backend): each draft is accepted independently
     * with this probability by a deterministic counter-hashed
     * Bernoulli draw, so analytic runs emit a plausible variable
     * token stream without running a draft model. Runtime-backed runs
     * ignore it — real verification decides.
     */
    double acceptRate = 0.8;

    /**
     * Acceptance oracle override: returns the number of drafts
     * accepted (in [0, k]) for speculation step @p spec_step of
     * request @p request_id proposing @p k drafts. The differential
     * harness records a backed run's real acceptances and replays
     * them through this hook so the analytic twin takes bit-identical
     * scheduling decisions. Null — the default — uses the acceptRate
     * draw above.
     */
    std::function<std::int64_t(std::uint64_t request_id,
                               std::int64_t k,
                               std::uint64_t spec_step)>
        oracle;
};

/** Configuration of one serving-engine run. */
struct Config
{
    double arrivalRatePerSecond = 0.2;  //!< Poisson arrival rate
    std::size_t requests = 200;         //!< requests to simulate
    trace::TraceKind trace = trace::TraceKind::Mixed;
    std::int64_t maxContext = 2048;     //!< trace length ceiling
    std::uint64_t seed = 1;             //!< arrivals + trace shapes

    SchedulerPolicy policy = SchedulerPolicy::Continuous;
    std::int64_t maxBatch = 64;         //!< hard batch ceiling
    SloTargets slo;                     //!< used by SloAware only

    /**
     * Let the §6 memory policy spill parameters to the CXL pool (when
     * the system has one), freeing DDR for KV cache — admission
     * capacity then grows exactly as Table 3's batch increase.
     */
    bool cxlSpill = true;

    /**
     * Token granularity for memoising iteration costs: contexts are
     * rounded up to this bucket before pricing, trading a slightly
     * conservative estimate for far fewer cost-model evaluations.
     */
    std::int64_t contextBucket = 32;

    /**
     * Chunked prefill: largest number of prompt tokens a request may
     * prefill in one iteration (0 = monolithic prefill). Long prompts
     * then split across iterations and interleave with the running
     * batch's decode steps instead of stalling them for the whole
     * prompt. Ignored by StaticFifo (cohorts prefill together).
     */
    std::int64_t prefillChunkTokens = 0;

    /**
     * Preemptive admission watermark: fraction of the KV budget kept
     * free when admitting new work optimistically, absorbing a few
     * iterations of decode growth before preemption triggers.
     */
    double admissionWatermark = 0.1;

    /**
     * Operator-imposed ceiling on the KV budget, bytes (0 = derive
     * the budget from system memory alone). Lets deployments pin the
     * KV pool — and lets tests compare admission policies at one
     * explicit DDR budget.
     */
    double kvBudgetCapBytes = 0;

    /** Cross-request prefix caching + prompt-sharing workload knobs. */
    PrefixCacheConfig prefix;

    /** Speculative decoding (draft + batched verify) knobs. */
    SpecConfig spec;

    /**
     * Optional trace sink receiving request-lifecycle spans, engine
     * iteration spans with the analytical cost breakdown, scheduler
     * decision instants, swap-channel occupancy, and per-iteration
     * counters on the simulated-time axis (tracks per serve/tracks.hh;
     * taxonomy in DESIGN.md §8). Not owned; must outlive the run.
     * Null — the default — emits nothing and costs nothing: runs are
     * bit-identical with or without a sink attached.
     */
    obs::EventSink *sink = nullptr;

    /**
     * Optional SLO burn-rate monitor (serve/slo_monitor.hh) fed the
     * TTFT / inter-token / response-time signals as they happen on
     * the simulated clock. Passive and not owned: like the sink, a
     * run with a monitor attached is bit-identical to one without —
     * it observes scheduling, never steers it. When attached, the
     * engine also emits an "slo_pressure" counter per iteration.
     */
    SloMonitor *sloMonitor = nullptr;

    /** Panics on malformed settings. */
    void validate() const;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_CONFIG_HH
