/**
 * @file
 * Benchmark-side timing: order statistics, the span recorder the
 * traced run writes as a Chrome trace, and the ExecutionBackend
 * decorator that times every RuntimeBackend call.
 *
 * Everything here times calls from the outside; nothing under src/ is
 * instrumented.
 */

#ifndef PERFBENCH_TIMING_HH
#define PERFBENCH_TIMING_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/backend.hh"
#include "serve/runtime_backend.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
double seconds(Clock::time_point from, Clock::time_point to);

/** Seconds since @p from. */
double since(Clock::time_point from);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** The @p q quantile (0..1) of @p values by nearest rank (0 when
 *  empty). */
double quantile(std::vector<double> values, double q);

/**
 * The highest-percentile sample with at least ten samples above it:
 * the 11th largest value. The percentile it sits at, (n-10)/n, goes
 * to @p percentile. Falls back to the maximum below 11 samples.
 */
double tailWithTen(std::vector<double> values, double *percentile);

/**
 * Spans the benchmark records around its own calls into each layer,
 * kept in memory and written as a Chrome trace at the end of the run.
 * A span's layer is the metric-layer name ("serve", "runtime",
 * "cluster", ...); self time is its duration minus the time its direct
 * children cover.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        double begin = 0;  //!< seconds since the recorder's origin
        double end = 0;
        int parent = -1;   //!< index of the enclosing span, or -1
    };

    SpanRecorder();

    /** Open a span; spans nest and close in LIFO order. */
    void begin(const std::string &name, const std::string &layer);
    void end();

    /** Add a closed span under the innermost open span. */
    void add(const std::string &name, const std::string &layer,
             Clock::time_point begin, Clock::time_point end);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self seconds per layer over every recorded span. */
    std::map<std::string, double> selfSeconds() const;

    /** Write the spans as Chrome-trace JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double offset(Clock::time_point t) const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** One onPlan call as the decorator saw it. */
struct PlanTiming
{
    Clock::time_point start;     //!< when the engine called onPlan
    double seconds = 0;          //!< host time inside RuntimeBackend
    std::int64_t decodeTokens = 0;
    std::int64_t prefillTokens = 0;
    double liveKvBytes = 0;      //!< backend DDR KV after the call
    double reservedKvBytes = 0;  //!< admission reservation of the plan
};

/**
 * ExecutionBackend decorator: forwards every call to a RuntimeBackend
 * unchanged and times it. It never alters a plan or a return value,
 * so a decorated run is bit-identical to an undecorated one (the
 * perfbench self-test checks that).
 */
class TimedBackend final : public lia::serve::ExecutionBackend
{
  public:
    /** @p spans, when non-null, receives one span per call. */
    TimedBackend(lia::serve::RuntimeBackend &inner,
                 SpanRecorder *spans = nullptr);

    void onPlan(const lia::serve::IterationPlan &plan,
                const std::vector<lia::serve::Request> &requests,
                const lia::serve::AdmissionController &admission)
        override;
    std::int64_t speculate(const lia::serve::Request &request,
                           std::int64_t draft_tokens) override;
    void onFinish(const lia::serve::Request &request) override;
    void onDrain() override;

    const std::vector<PlanTiming> &plans() const { return plans_; }

    /** Host seconds spent inside the inner backend, all calls. */
    double busySeconds() const { return busy_; }

  private:
    /** Account a call that began at @p start; returns its end. */
    Clock::time_point record(const char *name, Clock::time_point start);

    lia::serve::RuntimeBackend &inner_;
    SpanRecorder *spans_;
    std::vector<PlanTiming> plans_;
    double busy_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_HH
