/**
 * @file
 * perfbench driver: runs one workload and prints its metrics.
 *
 *   perfbench_driver --workload <rt-decode|rt-prefix|sim-fleet>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics and writes the benchmark's spans as a Chrome trace
 * into the working directory. The last line of standard output is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * A run is: set-up (timed many times), a timed section of whole
 * serving passes over the same request stream while another round fits
 * in --seconds, and output checks. Every pass of one run does identical
 * work, so host time is the lower quartile across repetitions (per
 * iteration, where the benchmark sees iterations); a co-tenant's burst
 * that slows some passes does not move it. Simulated-time (model_*)
 * metrics come from the first pass and are deterministic per seed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "cluster/router.hh"
#include "obs/sink.hh"
#include "obs/timeline.hh"
#include "probes.hh"
#include "serve/engine.hh"
#include "serve/metrics.hh"
#include "serve/runtime_backend.hh"
#include "timing.hh"
#include "workloads.hh"

namespace {

using namespace lia;
using namespace perfbench;

// ---------------------------------------------------------------------
// Options and report
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parseUnsigned(const char *text, std::uint64_t *out)
{
    if (!text || !*text || *text == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    *out = v;
    return true;
}

std::optional<Options>
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        if (key == "--workload" && value) {
            o.workload = value;
            haveWorkload = true;
        } else if (key == "--seed" && parseUnsigned(value, &n)) {
            o.seed = n;
            haveSeed = true;
        } else if (key == "--seconds" && parseUnsigned(value, &n) &&
                   n >= 1 && n <= 600) {
            o.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (key == "--trace" && parseUnsigned(value, &n) && n <= 1) {
            o.trace = n == 1;
            haveTrace = true;
        } else {
            std::cerr << "perfbench: bad or incomplete argument '" << key
                      << "'\n";
            return std::nullopt;
        }
        ++i;
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace) {
        std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
                     "--seconds <1..600> --trace <0|1>\n";
        return std::nullopt;
    }
    return o;
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;  //!< printed beside the value, not in the JSON
    bool set = false;
};

/** Every metric a run reports, in output order, with its unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"tok_per_s", "1/s"},
    {"step_ms_p50", "ms"},
    {"step_ms_p99", "ms"},
    {"peak_rss_mb", "MB"},
    {"model_ttft_p50_s", "s"},
    {"model_ttft_tail_s", "s"},
    {"model_tbt_tail_s", "s"},
    {"model_goodput_rps", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"runtime.busy_share", "ratio"},
    {"runtime.decode_us_per_tok", "us"},
    {"runtime.prefill_us_per_tok", "us"},
    {"runtime.decode_batch_mean", "count"},
    {"runtime.kv_live_over_reserved", "ratio"},
    {"runtime.swap_outs", "count"},
    {"runtime.recomputes_verified", "count"},
    {"runtime.decode_one_us.ctx_short", "us"},
    {"runtime.decode_one_us.ctx_long", "us"},
    {"runtime.kv_read_us.ctx_long", "us"},
    {"runtime.prefill_chunk_us", "us"},
    {"kernels.matmul_packed_gflops.m1", "GFLOP/s"},
    {"kernels.matmul_packed_gflops.mchunk", "GFLOP/s"},
    {"base.pool_dispatch_us", "us"},
    {"prefix.hit_token_share", "ratio"},
    {"prefix.hits_verified", "count"},
    {"serve.iterations", "count"},
    {"serve.host_us_per_iter", "us"},
    {"serve.batch_mean", "count"},
    {"serve.kv_occupancy_mean", "ratio"},
    {"serve.preemptions", "count"},
    {"serve.phase_share.queued", "ratio"},
    {"serve.phase_share.prefill", "ratio"},
    {"serve.phase_share.decode", "ratio"},
    {"serve.phase_share.preempted", "ratio"},
    {"serve.phase_share.swapped", "ratio"},
    {"serve.phase_share.recompute", "ratio"},
    {"cluster.routed_imbalance", "ratio"},
    {"cluster.host_us_per_iter_growth", "ratio"},
    {"core.cost_lookup_ns", "ns"},
    {"core.estimate_iteration_us", "us"},
    {"sim.event_ns", "ns"},
    {"obs.trace_overhead", "ratio"},
};

/**
 * The run's metrics: every metric of the run's kind, in catalog order.
 * A metric a workload never sets reads 0, "not on this workload's
 * path" — a layer the workload does not run.
 */
struct Report
{
    explicit Report(bool trace)
    {
        if (trace)
            for (const MetricSpec &spec : kPerLayer)
                metrics.push_back({spec.name, 0, spec.unit,
                                   "not on this workload's path"});
        else
            for (const MetricSpec &spec : kEndToEnd)
                metrics.push_back({spec.name, 0, spec.unit, "not measured"});
    }

    /** Set a catalogued metric; @p unit must match the catalog. */
    void add(const std::string &name, double value, const std::string &unit,
             const std::string &note = "")
    {
        for (Metric &m : metrics) {
            if (m.name == name) {
                LIA_ASSERT(m.unit == unit, "metric ", name, " unit ", unit,
                           " != ", m.unit);
                m.value = value;
                m.note = note;
                m.set = true;
                return;
            }
        }
        LIA_PANIC("uncatalogued metric ", name);
    }

    void problem(const std::string &what) { problems.push_back(what); }

    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
};

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/**
 * The quantile at which repeated host-time measurements of identical
 * work are summarised: their lower quartile. Co-tenants of a shared
 * host only ever slow a repetition, and for stretches of seconds to
 * minutes; the lower quartile reads the program's own speed whenever a
 * quarter of the run was undisturbed, where the median moves with the
 * disturbed share (see README.md, "Noise"). Medians are printed beside.
 */
constexpr double kHostQuantile = 0.25;

double
hostTime(std::vector<double> seconds)
{
    return quantile(std::move(seconds), kHostQuantile);
}

/** Quantile @p q of each index across equally long rows. */
std::vector<double>
columnQuantiles(const std::vector<std::vector<double>> &rows, double q)
{
    std::vector<double> out(rows.front().size());
    std::vector<double> column(rows.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (std::size_t r = 0; r < rows.size(); ++r)
            column[r] = rows[r][i];
        out[i] = quantile(column, q);
    }
    return out;
}

double
sum(const std::vector<double> &values)
{
    double total = 0;
    for (double v : values)
        total += v;
    return total;
}

/** Every row of @p rows has the first row's length. */
bool
sameLengths(const std::vector<std::vector<double>> &rows)
{
    for (const auto &row : rows)
        if (row.size() != rows.front().size())
            return false;
    return true;
}

// ---------------------------------------------------------------------
// Simulated-time metrics (deterministic per seed)
// ---------------------------------------------------------------------

void
addModelMetrics(Report &report, const std::vector<serve::Request> &requests,
                const serve::SloTargets &slo, double makespan)
{
    std::vector<double> ttft, tbt;
    for (const serve::Request &r : requests) {
        if (r.state != serve::RequestState::Finished)
            continue;
        ttft.push_back(r.ttft());
        if (r.lOut > 1)
            tbt.push_back(r.meanTbt());
    }
    double ttftPct = 0, tbtPct = 0;
    const double ttftTail = tailWithTen(ttft, &ttftPct);
    const double tbtTail = tailWithTen(tbt, &tbtPct);
    auto at = [](double pct, std::size_t n) {
        std::ostringstream os;
        os.precision(4);
        os << "p" << pct << " of " << n << " requests";
        return os.str();
    };
    report.add("model_ttft_p50_s", median(ttft), "s",
               "of " + std::to_string(ttft.size()) + " requests");
    report.add("model_ttft_tail_s", ttftTail, "s", at(ttftPct, ttft.size()));
    report.add("model_tbt_tail_s", tbtTail, "s",
               "per-request mean gap, " + at(tbtPct, tbt.size()));
    std::ostringstream limits;
    limits << "TTFT <= " << slo.ttft << " s and TBT <= " << slo.tbt << " s";
    report.add("model_goodput_rps",
               serve::goodputPerSecond(requests, slo, makespan), "1/s",
               limits.str());
}

/** Share of finished requests' lifetime per lifecycle phase. */
std::map<std::string, double>
phaseShares(const obs::TimelineRecorder &timeline)
{
    std::map<std::string, double> seconds;
    double total = 0;
    for (const obs::TimelineRecorder::Record *record : timeline.finished()) {
        for (const auto &[phase, s] : record->phaseSeconds())
            seconds[phase] += s;
        total += record->e2e();
    }
    for (auto &[phase, s] : seconds)
        s = total > 0 ? s / total : 0;
    return seconds;
}

void
addPhaseShares(Report &report, const std::map<std::string, double> &shares)
{
    for (const char *phase : {"queued", "prefill", "decode", "preempted",
                              "swapped", "recompute"}) {
        const auto it = shares.find(phase);
        report.add(std::string("serve.phase_share.") + phase,
                   it == shares.end() ? 0.0 : it->second, "ratio");
    }
}

// ---------------------------------------------------------------------
// Runtime-backed workloads (rt-decode, rt-prefix)
// ---------------------------------------------------------------------

/** What one backed serving pass measured. */
struct RuntimePass
{
    /** Host seconds: run start to the first onPlan, then between
     *  consecutive onPlan starts, then the last onPlan to run end. */
    std::vector<double> segments;
    std::vector<PlanTiming> plans;
    double wall = 0;
    double busy = 0;
    serve::Result result;
    serve::RuntimeBackend::Counters counters;
    std::map<std::uint64_t, std::vector<std::int64_t>> outputs;
    std::map<std::string, double> phases;  //!< traced passes only
};

bool
countersMatch(const serve::RuntimeBackend::Counters &c,
              const serve::Metrics &mx)
{
    return c.prefillChunks == mx.prefillChunks &&
           c.evictions == mx.recomputes &&
           c.recomputesVerified == mx.recomputes &&
           c.swapOuts == mx.swapOuts && c.swapIns == mx.swapIns &&
           c.swapOutBytes == mx.swapOutBytes &&
           c.swapInBytes == mx.swapInBytes &&
           c.prefixAttaches == mx.prefixHits &&
           c.prefixHitsVerified == mx.prefixHits &&
           static_cast<std::int64_t>(c.prefixAttachTokens) ==
               mx.prefixHitTokens &&
           static_cast<std::int64_t>(c.tokensProduced()) ==
               mx.tokensGenerated;
}

bool
sameSchedule(const serve::Metrics &a, const serve::Metrics &b)
{
    return a.iterations == b.iterations && a.makespan == b.makespan &&
           a.tokensGenerated == b.tokensGenerated &&
           a.completed == b.completed && a.preemptions == b.preemptions &&
           a.prefixHitTokens == b.prefixHitTokens;
}

class RuntimeWorkload
{
  public:
    RuntimeWorkload(const Workload &w, SpanRecorder *spans)
        : w_(w), spans_(spans)
    {
    }

    /**
     * One set-up: everything the next untraced pass needs before its
     * first request — the engine (pricing engine, cost cache), the
     * RuntimeBackend (weight synthesis and packing), and an analytic
     * warm pass that memoises the stream's iteration prices.
     */
    double setup()
    {
        const Clock::time_point start = Clock::now();
        if (spans_)
            spans_->begin("setup", "setup");
        engine_ = std::make_unique<serve::ServingEngine>(w_.system, w_.model,
                                                         w_.engine);
        backend_ = std::make_unique<serve::RuntimeBackend>(
            w_.system, w_.model, w_.engine);
        analytic_ = engine_->run();
        if (spans_)
            spans_->end();
        return since(start);
    }

    /** Traced passes run engines with a sink attached; they share one
     *  cost cache, warmed here as setup() warms the untraced engine's. */
    void prepareTraced()
    {
        pricing_ = std::make_unique<serve::ServingEngine>(
            w_.system, w_.model, w_.engine);
        sharedCosts_ = std::make_shared<serve::IterationCostCache>(
            pricing_->pricingEngine(), w_.engine.contextBucket);
        serve::ServingEngine(w_.system, w_.model, w_.engine, sharedCosts_)
            .run();
    }

    /** An untraced pass runs on the engine and backend of the last
     *  setup(); a traced one builds its own. */
    RuntimePass pass(bool traced)
    {
        RuntimePass p;
        std::unique_ptr<serve::RuntimeBackend> backend =
            traced ? std::make_unique<serve::RuntimeBackend>(
                         w_.system, w_.model, w_.engine)
                   : std::move(backend_);
        TimedBackend timed(*backend, traced ? spans_ : nullptr);
        obs::TimelineRecorder timeline;
        std::unique_ptr<serve::ServingEngine> tracedEngine;
        serve::ServingEngine *engine = engine_.get();
        if (traced) {
            serve::Config config = w_.engine;
            config.sink = &timeline;
            tracedEngine = std::make_unique<serve::ServingEngine>(
                w_.system, w_.model, config, sharedCosts_);
            engine = tracedEngine.get();
            spans_->begin("ServingEngine::run", "serve");
        }

        const Clock::time_point start = Clock::now();
        p.result = engine->run(&timed);
        const Clock::time_point stop = Clock::now();
        if (traced)
            spans_->end();

        p.wall = seconds(start, stop);
        p.busy = timed.busySeconds();
        p.plans = timed.plans();
        Clock::time_point prev = start;
        for (const PlanTiming &plan : p.plans) {
            p.segments.push_back(seconds(prev, plan.start));
            prev = plan.start;
        }
        p.segments.push_back(seconds(prev, stop));
        p.counters = backend->counters();
        for (const serve::Request &r : p.result.requests)
            if (r.state == serve::RequestState::Finished)
                p.outputs[r.id] = backend->outputs(r.id);
        if (traced)
            p.phases = phaseShares(timeline);
        lastBackend_ = std::move(backend);
        return p;
    }

    /** Failed requests of @p p: refused or unfinished, streams that
     *  differ from the first pass, or every request when the pass's
     *  accounting disagrees with the engine's. */
    std::uint64_t check(const RuntimePass &p, const RuntimePass &first,
                        Report &report) const
    {
        const serve::Metrics &mx = p.result.metrics;
        std::uint64_t failed = 0;
        if (!sameSchedule(mx, analytic_.metrics)) {
            report.problem("backed pass scheduled differently from the "
                           "analytic run");
            return w_.engine.requests;
        }
        if (!countersMatch(p.counters, mx)) {
            report.problem("RuntimeBackend counters disagree with "
                           "serve::Metrics");
            return w_.engine.requests;
        }
        if (p.result.kvReservedAtDrain != 0) {
            report.problem("KV still reserved at drain");
            return w_.engine.requests;
        }
        for (const serve::Request &r : p.result.requests) {
            if (r.state != serve::RequestState::Finished) {
                ++failed;
                continue;
            }
            const auto it = first.outputs.find(r.id);
            if (it == first.outputs.end() ||
                it->second != p.outputs.at(r.id))
                ++failed;
        }
        return failed;
    }

    /** Requests of @p first whose greedy stream differs from an
     *  uninterrupted reference generation. */
    std::uint64_t checkReference(const RuntimePass &first)
    {
        std::uint64_t failed = 0;
        for (const serve::Request &r : first.result.requests) {
            if (r.state != serve::RequestState::Finished)
                continue;
            if (lastBackend_->referenceOutputs(r) != first.outputs.at(r.id))
                ++failed;
        }
        return failed;
    }

    const serve::ServingEngine &engine() const { return *engine_; }

  private:
    const Workload &w_;
    SpanRecorder *spans_;
    std::unique_ptr<serve::ServingEngine> engine_;
    std::unique_ptr<serve::RuntimeBackend> backend_;
    serve::Result analytic_;
    std::unique_ptr<serve::ServingEngine> pricing_;
    std::shared_ptr<serve::IterationCostCache> sharedCosts_;
    std::unique_ptr<serve::RuntimeBackend> lastBackend_;
};

/** Host-time summary of a set of identical passes. */
struct PassSummary
{
    double tokPerS = 0;
    double tokPerSMedian = 0;         //!< the same from per-iteration medians
    std::vector<double> stepMs;       //!< per iteration, host time across passes
    std::vector<double> planSeconds;  //!< per plan, host time across passes
};

std::optional<PassSummary>
summarize(const std::vector<RuntimePass> &passes, std::int64_t tokens)
{
    std::vector<std::vector<double>> segments, plans;
    for (const RuntimePass &p : passes) {
        segments.push_back(p.segments);
        plans.emplace_back();
        for (const PlanTiming &plan : p.plans)
            plans.back().push_back(plan.seconds);
    }
    if (!sameLengths(segments))
        return std::nullopt;
    PassSummary s;
    const std::vector<double> seg = columnQuantiles(segments, kHostQuantile);
    s.tokPerS = static_cast<double>(tokens) / sum(seg);
    s.tokPerSMedian =
        static_cast<double>(tokens) / sum(columnQuantiles(segments, 0.5));
    // Segment i >= 1 is iteration i-1's start-to-start host time; the
    // last one runs to the end of ServingEngine::run.
    for (std::size_t i = 1; i < seg.size(); ++i)
        s.stepMs.push_back(seg[i] * 1e3);
    s.planSeconds = columnQuantiles(plans, kHostQuantile);
    return s;
}

void
runRuntime(const Workload &w, const Options &o, Report &report,
           SpanRecorder *spans)
{
    RuntimeWorkload rw(w, spans);

    if (o.trace)
        rw.prepareTraced();

    // Set-ups are spread over the run, ten before each untraced pass,
    // so that one slow stretch of the host cannot move them.
    // A round that would end past --seconds is not started.
    std::vector<double> setups;
    std::vector<RuntimePass> untraced, traced;
    double peakRss = 0, round = 0;
    const Clock::time_point start = Clock::now();
    while (untraced.size() < 3 || since(start) + round < o.seconds) {
        const Clock::time_point r0 = Clock::now();
        for (int i = 0; i < 10; ++i)
            setups.push_back(rw.setup());
        untraced.push_back(rw.pass(false));
        if (untraced.size() == 1)
            peakRss = peakRssMb();
        if (o.trace)
            traced.push_back(rw.pass(true));
        round = since(r0);
    }

    // --- Output checks ------------------------------------------------
    const RuntimePass &first = untraced.front();
    for (const auto *set : {&untraced, &traced}) {
        for (const RuntimePass &p : *set) {
            report.attempted += w.engine.requests;
            report.failed += rw.check(p, first, report);
        }
    }
    const std::uint64_t refFailed = rw.checkReference(first);
    if (refFailed > 0) {
        report.problem(std::to_string(refFailed) +
                       " greedy streams differ from referenceOutputs");
        report.failed += refFailed * (untraced.size() + traced.size());
    }

    const serve::Result &r = first.result;
    const serve::Metrics &mx = r.metrics;
    const auto summary = summarize(untraced, mx.tokensGenerated);
    if (!summary) {
        report.problem("passes ran different iteration counts");
        report.failed = report.attempted;
        return;
    }

    if (!o.trace) {
        report.add("setup_s", hostTime(setups), "s",
                   "lower quartile of " + std::to_string(setups.size()) +
                       ", median " + number(median(setups)));
        report.add("tok_per_s", summary->tokPerS, "1/s",
                   std::to_string(mx.tokensGenerated) + " tokens x " +
                       std::to_string(untraced.size()) +
                       " passes, from medians " +
                       number(summary->tokPerSMedian));
        report.add("step_ms_p50", quantile(summary->stepMs, 0.5), "ms",
                   std::to_string(summary->stepMs.size()) + " iterations");
        report.add("step_ms_p99", quantile(summary->stepMs, 0.99), "ms");
        report.add("peak_rss_mb", peakRss, "MB", "after the first round");
        addModelMetrics(report, r.requests, w.goodputSlo, mx.makespan);
        return;
    }

    // --- Per-layer metrics -------------------------------------------
    // Host-time figures come from the untraced passes; the traced ones
    // give the phase shares, the spans and the tracing overhead.
    const std::vector<PlanTiming> &plans = first.plans;
    double decodeSecs = 0, decodeToks = 0, mixedSecs = 0, mixedDecode = 0,
           prefillToks = 0, batchSum = 0, batchPlans = 0, live = 0,
           reserved = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const PlanTiming &p = plans[i];
        const double secs = summary->planSeconds[i];
        if (p.prefillTokens == 0 && p.decodeTokens > 0) {
            decodeSecs += secs;
            decodeToks += static_cast<double>(p.decodeTokens);
        } else if (p.prefillTokens > 0) {
            mixedSecs += secs;
            mixedDecode += static_cast<double>(p.decodeTokens);
            prefillToks += static_cast<double>(p.prefillTokens);
        }
        if (p.decodeTokens > 0) {
            batchSum += static_cast<double>(p.decodeTokens);
            batchPlans += 1;
        }
        live += p.liveKvBytes;
        reserved += p.reservedKvBytes;
    }
    const double decodeUs = decodeToks > 0 ? 1e6 * decodeSecs / decodeToks : 0;
    // Plans that prefill also decode the running batch: charge their
    // decode tokens at the pure-decode rate, the rest is prefill.
    const double prefillUs =
        prefillToks > 0
            ? (1e6 * mixedSecs - decodeUs * mixedDecode) / prefillToks
            : 0;
    std::vector<double> busyShare;
    for (const RuntimePass &p : untraced)
        busyShare.push_back(p.busy / p.wall);

    report.add("runtime.busy_share", median(busyShare), "ratio");
    report.add("runtime.decode_us_per_tok", decodeUs, "us");
    report.add("runtime.prefill_us_per_tok", prefillUs, "us");
    report.add("runtime.decode_batch_mean",
               batchPlans > 0 ? batchSum / batchPlans : 0, "count");
    report.add("runtime.kv_live_over_reserved",
               reserved > 0 ? live / reserved : 0, "ratio");
    report.add("runtime.swap_outs",
               static_cast<double>(first.counters.swapOuts), "count");
    report.add("runtime.recomputes_verified",
               static_cast<double>(first.counters.recomputesVerified),
               "count");

    spans->begin("probes", "probes");
    const RuntimeProbes probes = probeRuntime(w);
    const AnalyticProbes analytic = probeAnalytic(w, rw.engine().costs());
    spans->end();
    report.add("runtime.decode_one_us.ctx_short", probes.decodeOneShortUs,
               "us", "context " + std::to_string(probes.shortContext));
    report.add("runtime.decode_one_us.ctx_long", probes.decodeOneLongUs,
               "us", "context " + std::to_string(probes.longContext));
    report.add("runtime.kv_read_us.ctx_long", probes.kvReadLongUs, "us",
               "keys()+values() of all layers at context " +
                   std::to_string(probes.longContext));
    report.add("runtime.prefill_chunk_us", probes.prefillChunkUs, "us",
               std::to_string(probes.chunkTokens) + " tokens");
    auto kernelNote = [](const RuntimeProbes::Kernel &k) {
        std::ostringstream os;
        os << k.m << "x" << k.k << "x" << k.n << ", " << k.flops
           << " FLOP and " << k.bytes << " B per call (bytes from sizes)";
        return os.str();
    };
    report.add("kernels.matmul_packed_gflops.m1", probes.m1.gflops,
               "GFLOP/s", kernelNote(probes.m1));
    report.add("kernels.matmul_packed_gflops.mchunk", probes.mChunk.gflops,
               "GFLOP/s", kernelNote(probes.mChunk));
    report.add("base.pool_dispatch_us", probes.poolDispatchUs, "us",
               std::to_string(base::ThreadPool::shared().threadCount()) +
                   " threads");

    std::int64_t promptTokens = 0;
    for (const serve::Request &req : r.requests)
        promptTokens += req.lIn;
    report.add("prefix.hit_token_share",
               promptTokens > 0 ? static_cast<double>(mx.prefixHitTokens) /
                                      static_cast<double>(promptTokens)
                                : 0,
               "ratio");
    report.add("prefix.hits_verified",
               static_cast<double>(first.counters.prefixHitsVerified),
               "count", "hits " + std::to_string(mx.prefixHits));

    report.add("serve.iterations", static_cast<double>(mx.iterations),
               "count");
    std::vector<double> engineUs;
    for (const RuntimePass &p : untraced)
        engineUs.push_back(1e6 * (p.wall - p.busy) /
                           static_cast<double>(mx.iterations));
    report.add("serve.host_us_per_iter", hostTime(engineUs), "us",
               "outside RuntimeBackend calls");
    report.add("serve.batch_mean", mx.batchOccupancy.mean(), "count");
    report.add("serve.kv_occupancy_mean", mx.kvOccupancy.mean(), "ratio");
    report.add("serve.preemptions", static_cast<double>(mx.preemptions),
               "count");
    addPhaseShares(report, traced.front().phases);

    report.add("core.cost_lookup_ns", analytic.costLookupNs, "ns");
    report.add("core.estimate_iteration_us", analytic.estimateIterationUs,
               "us");
    report.add("sim.event_ns", analytic.eventNs, "ns");

    const auto tracedSummary = summarize(traced, mx.tokensGenerated);
    report.add("obs.trace_overhead",
               tracedSummary ? 1.0 - tracedSummary->tokPerS / summary->tokPerS
                             : 0,
               "ratio", "1 - traced/untraced tok_per_s");
}

// ---------------------------------------------------------------------
// The analytic fleet (sim-fleet)
// ---------------------------------------------------------------------

/** Stamps the host clock at every engine iteration start. */
class IterationClock final : public obs::EventSink
{
  public:
    void setTrackName(obs::Track, const std::string &,
                      const std::string &) override
    {
    }
    void beginSpan(obs::Track, const char *name, double,
                   obs::Args) override
    {
        if (std::strcmp(name, "iteration") == 0)
            stamps.push_back(Clock::now());
    }
    void endSpan(obs::Track, double) override {}
    void instant(obs::Track, const char *, double, obs::Args) override {}
    void counter(obs::Track, const char *, double, double) override {}

    std::vector<Clock::time_point> stamps;
};

/** Forwards every event to a replaceable target (none: drops them), so
 *  one warmed router can run successive passes into fresh recorders. */
class ForwardingSink final : public obs::EventSink
{
  public:
    void setTrackName(obs::Track track, const std::string &process,
                      const std::string &thread) override
    {
        if (target)
            target->setTrackName(track, process, thread);
    }
    void beginSpan(obs::Track track, const char *name, double seconds,
                   obs::Args args) override
    {
        if (target)
            target->beginSpan(track, name, seconds, std::move(args));
    }
    void endSpan(obs::Track track, double seconds) override
    {
        if (target)
            target->endSpan(track, seconds);
    }
    void instant(obs::Track track, const char *name, double seconds,
                 obs::Args args) override
    {
        if (target)
            target->instant(track, name, seconds, std::move(args));
    }
    void counter(obs::Track track, const char *name, double seconds,
                 double value) override
    {
        if (target)
            target->counter(track, name, seconds, value);
    }

    obs::EventSink *target = nullptr;
};

cluster::ClusterConfig
fleetConfig(const Workload &w, obs::EventSink *sink)
{
    cluster::ClusterConfig config;
    config.engine = w.engine;
    config.replicas = w.replicas;
    config.routing = w.routing;
    config.sink = sink;
    return config;
}

/** Failed requests of one fleet pass (refusals, unfinished, leaks, or
 *  every request when the pass diverges from the reference pass). */
std::uint64_t
checkFleet(const cluster::ClusterResult &r,
           const cluster::ClusterResult &reference, Report &report)
{
    const serve::Metrics &mx = r.aggregate;
    const std::uint64_t n = r.requestsRouted;
    if (mx.completed + mx.rejected() != r.requestsRouted) {
        report.problem("routed != completed + rejected");
        return n;
    }
    for (const cluster::ReplicaReport &rep : r.replicas) {
        if (rep.result.kvReservedAtDrain != 0) {
            report.problem("KV left reserved at drain");
            return n;
        }
    }
    if (!sameSchedule(mx, reference.aggregate)) {
        report.problem("fleet passes diverged");
        return n;
    }
    return mx.rejected();
}

void
runFleet(const Workload &w, const Options &o, Report &report,
         SpanRecorder *spans)
{
    // Untraced runs alternate plain passes (tok_per_s) with passes
    // that carry the iteration clock (step_ms): the sink makes the
    // engine render every event, which plain passes must not pay.
    // Traced runs alternate plain passes with passes recorded into a
    // fresh TimelineRecorder. The observed router is warmed first.
    IterationClock clock;
    ForwardingSink recorderSlot;
    obs::EventSink *observedSink = &clock;
    if (o.trace)
        observedSink = &recorderSlot;
    cluster::ClusterRouter observed(w.system, w.model,
                                    fleetConfig(w, observedSink));
    observed.run();

    // Wall seconds of each plain and each traced pass.
    std::vector<double> setups, passSeconds, tracedSeconds;
    std::vector<std::vector<double>> intervals;
    std::map<std::string, double> phases;
    double peakRss = 0;
    std::unique_ptr<cluster::ClusterRouter> router;
    cluster::ClusterResult reference;

    double round = 0;
    const Clock::time_point start = Clock::now();
    while (setups.size() < 3 || since(start) + round < o.seconds) {
        // Set-up, once per round so that set-ups spread over the run:
        // the router (pricing engine, cost cache) and a warm pass that
        // memoises every iteration price the stream needs.
        const Clock::time_point s0 = Clock::now();
        if (spans)
            spans->begin("setup", "setup");
        router = std::make_unique<cluster::ClusterRouter>(
            w.system, w.model, fleetConfig(w, nullptr));
        cluster::ClusterResult warm = router->run();
        if (spans)
            spans->end();
        setups.push_back(since(s0));
        if (setups.size() == 1)
            reference = warm;
        report.attempted += warm.requestsRouted;
        report.failed += checkFleet(warm, reference, report);

        // Two plain passes a round: they fill half of the run, so their
        // lower quartile finds the host's undisturbed stretches.
        for (int i = 0; i < 2; ++i) {
            const Clock::time_point t0 = Clock::now();
            const cluster::ClusterResult r = router->run();
            passSeconds.push_back(since(t0));
            report.attempted += r.requestsRouted;
            report.failed += checkFleet(r, reference, report);
        }

        obs::TimelineRecorder timeline;
        clock.stamps.clear();
        recorderSlot.target = &timeline;
        if (spans)
            spans->begin("ClusterRouter::run", "cluster");
        const Clock::time_point c0 = Clock::now();
        const cluster::ClusterResult rc = observed.run();
        const double observedWall = since(c0);
        if (spans)
            spans->end();
        recorderSlot.target = nullptr;
        report.attempted += rc.requestsRouted;
        report.failed += checkFleet(rc, reference, report);
        if (o.trace) {
            tracedSeconds.push_back(observedWall);
            if (phases.empty())
                phases = phaseShares(timeline);
        } else {
            std::vector<double> row;
            Clock::time_point prev = c0;
            for (const Clock::time_point &t : clock.stamps) {
                row.push_back(seconds(prev, t));
                prev = t;
            }
            intervals.push_back(std::move(row));
        }
        if (setups.size() == 1)
            peakRss = peakRssMb();
        round = since(s0);
    }

    const serve::Metrics &mx = reference.aggregate;
    const double tokens = static_cast<double>(mx.tokensGenerated);
    const double iterations = static_cast<double>(mx.iterations);
    if (!o.trace) {
        if (!sameLengths(intervals)) {
            report.problem("fleet passes ran different iteration counts");
            report.failed = report.attempted;
            return;
        }
        // Interval i >= 1 is fleet iteration i-1's start-to-start time.
        std::vector<double> stepMs =
            columnQuantiles(intervals, kHostQuantile);
        stepMs.erase(stepMs.begin());
        for (double &v : stepMs)
            v *= 1e3;
        report.add("setup_s", hostTime(setups), "s",
                   "lower quartile of " + std::to_string(setups.size()) +
                       " (router + warm pass), median " +
                       number(median(setups)));
        report.add("tok_per_s", tokens / hostTime(passSeconds), "1/s",
                   "lower-quartile time of " +
                       std::to_string(passSeconds.size()) +
                       " passes, from the median " +
                       number(tokens / median(passSeconds)));
        report.add("step_ms_p50", quantile(stepMs, 0.5), "ms",
                   std::to_string(stepMs.size()) +
                       " iterations, iteration-clock sink attached");
        report.add("step_ms_p99", quantile(stepMs, 0.99), "ms");
        report.add("peak_rss_mb", peakRss, "MB", "after the first round");
        std::vector<serve::Request> requests;
        for (const cluster::ReplicaReport &rep : reference.replicas)
            requests.insert(requests.end(), rep.result.requests.begin(),
                            rep.result.requests.end());
        addModelMetrics(report, requests, w.goodputSlo, reference.makespan);
        return;
    }

    // --- Per-layer metrics -------------------------------------------
    report.add("serve.iterations", static_cast<double>(mx.iterations),
               "count");
    const double iterUs = 1e6 * hostTime(passSeconds) / iterations;
    report.add("serve.host_us_per_iter", iterUs, "us");
    report.add("serve.batch_mean", mx.batchOccupancy.mean(), "count");
    report.add("serve.kv_occupancy_mean", mx.kvOccupancy.mean(), "ratio");
    report.add("serve.preemptions", static_cast<double>(mx.preemptions),
               "count");
    addPhaseShares(report, phases);

    double maxRouted = 0, meanRouted = 0;
    for (const cluster::ReplicaReport &rep : reference.replicas) {
        maxRouted = std::max(maxRouted, static_cast<double>(rep.routed));
        meanRouted += static_cast<double>(rep.routed);
    }
    meanRouted /= static_cast<double>(reference.replicas.size());
    report.add("cluster.routed_imbalance", maxRouted / meanRouted, "ratio");

    // Host cost per iteration at a quarter of the stream: ~1 while the
    // backlog is bounded, growing when the router's queue walks do.
    const Workload quarter = w.quarter();
    cluster::ClusterRouter small(quarter.system, quarter.model,
                                 fleetConfig(quarter, nullptr));
    const double smallIterations =
        static_cast<double>(small.run().aggregate.iterations);
    std::vector<double> smallUs;
    for (int i = 0; i < 9; ++i) {
        const Clock::time_point t0 = Clock::now();
        small.run();
        smallUs.push_back(1e6 * since(t0) / smallIterations);
    }
    report.add("cluster.host_us_per_iter_growth",
               iterUs / hostTime(smallUs), "ratio",
               std::to_string(w.engine.requests) + " vs " +
                   std::to_string(quarter.engine.requests) + " requests");

    spans->begin("probes", "probes");
    const AnalyticProbes analytic = probeAnalytic(w, router->costs());
    spans->end();
    report.add("core.cost_lookup_ns", analytic.costLookupNs, "ns");
    report.add("core.estimate_iteration_us", analytic.estimateIterationUs,
               "us");
    report.add("sim.event_ns", analytic.eventNs, "ns");
    report.add("obs.trace_overhead",
               1.0 - hostTime(passSeconds) / hostTime(tracedSeconds), "ratio",
               "1 - traced/untraced tok_per_s");
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
printResult(const Report &report, const Workload &w)
{
    const bool correct = report.problems.empty() && report.failed == 0;
    std::cout << "\n";
    for (const Metric &m : report.metrics) {
        std::cout << "  " << m.name << " = " << number(m.value) << " "
                  << m.unit;
        if (!m.note.empty())
            std::cout << "  (" << m.note << ")";
        std::cout << "\n";
    }
    std::cout << "requests: sent " << report.attempted << ", succeeded "
              << report.attempted - report.failed << ", failed "
              << report.failed << " (" << w.engine.requests
              << " per pass)\n";
    for (const std::string &p : report.problems)
        std::cout << "CHECK FAILED: " << p << "\n";
    std::cout << "output checks: " << (correct ? "pass" : "FAIL") << "\n";

    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
             << (std::isfinite(m.value) ? number(m.value) : "0")
             << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Options> options = parseOptions(argc, argv);
    if (!options)
        return 2;
    const Options &o = *options;

#ifndef __OPTIMIZE__
    std::cerr << "perfbench: refusing to time a non-optimised build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
#endif

    Workload w;
    try {
        w = makeWorkload(o.workload, o.seed);
    } catch (const std::invalid_argument &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    // The kernel pool sizes itself from LIA_THREADS on first use.
    const std::string threads = std::to_string(w.threads);
    setenv("LIA_THREADS", threads.c_str(), 1);
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

    std::cout << "perfbench " << w.name << ": build " << PERFBENCH_BUILD_TYPE
              << ", LIA_THREADS " << threads << ", nproc " << nproc
              << ", seed " << o.seed << ", config " << configDigest(w)
              << ", " << w.engine.requests << " requests per pass, "
              << o.seconds << " s timed, trace " << o.trace << "\n"
              << "  " << w.model.name << " on " << w.system.name << ", "
              << serve::toString(w.engine.policy) << ", "
              << trace::toString(w.engine.trace) << " trace"
              << (w.runtime ? ", runtime-backed"
                            : ", " + std::to_string(w.replicas) +
                                  " replicas, analytic")
              << "\n";

    Report report(o.trace);
    SpanRecorder spans;
    SpanRecorder *spanSink = o.trace ? &spans : nullptr;
    if (w.runtime)
        runRuntime(w, o, report, spanSink);
    else
        runFleet(w, o, report, spanSink);

    if (o.trace) {
        const std::string path = "perfbench-trace-" + w.name + "-seed" +
                                 std::to_string(o.seed) + ".json";
        if (!spans.writeChromeTrace(path))
            report.problem("could not write " + path);
        std::cout << "spans: " << spans.spans().size() << " written to "
                  << path << "; self time per layer:";
        for (const auto &[layer, secs] : spans.selfSeconds())
            std::cout << " " << layer << " " << number(secs) << " s;";
        std::cout << "\n";
    }
    report.failed = std::min(report.failed, report.attempted);
    if (!o.trace)
        for (const Metric &m : report.metrics)
            if (!m.set)
                report.problem(m.name + " was not measured");
    printResult(report, w);
    return 0;
}
