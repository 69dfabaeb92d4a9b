#include "timing.hh"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/sink.hh"

namespace perfbench {

using namespace lia;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
since(Clock::time_point from)
{
    return seconds(from, Clock::now());
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
tailWithTen(std::vector<double> values, double *percentile)
{
    if (values.empty()) {
        *percentile = 0;
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n <= 10) {
        *percentile = 100.0;
        return values.back();
    }
    *percentile = 100.0 * static_cast<double>(n - 10) /
                  static_cast<double>(n);
    return values[n - 11];
}

// --- SpanRecorder ---------------------------------------------------

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

double
SpanRecorder::offset(Clock::time_point t) const
{
    return seconds(origin_, t);
}

void
SpanRecorder::begin(const std::string &name, const std::string &layer)
{
    Span span{name, layer, offset(Clock::now()), 0,
              open_.empty() ? -1 : open_.back()};
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(span));
}

void
SpanRecorder::end()
{
    spans_[static_cast<std::size_t>(open_.back())].end =
        offset(Clock::now());
    open_.pop_back();
}

void
SpanRecorder::add(const std::string &name, const std::string &layer,
                  Clock::time_point begin, Clock::time_point end)
{
    spans_.push_back(Span{name, layer, offset(begin), offset(end),
                          open_.empty() ? -1 : open_.back()});
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::vector<double> childSeconds(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            childSeconds[static_cast<std::size_t>(span.parent)] +=
                span.end - span.begin;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].layer] +=
            spans_[i].end - spans_[i].begin - childSeconds[i];
    return self;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"name\":\"" << obs::jsonEscape(s.name)
            << "\",\"cat\":\"" << obs::jsonEscape(s.layer)
            << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
            << obs::jsonNumber(s.begin * 1e6)
            << ",\"dur\":" << obs::jsonNumber((s.end - s.begin) * 1e6)
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
            << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    // Self time per layer rides along as trace metadata.
    out << "],\"otherData\":{";
    bool first = true;
    for (const auto &[layer, secs] : selfSeconds()) {
        out << (first ? "" : ",") << "\"self_s." << obs::jsonEscape(layer)
            << "\":" << obs::jsonNumber(secs);
        first = false;
    }
    out << "}}\n";
    return static_cast<bool>(out);
}

// --- TimedBackend ---------------------------------------------------

TimedBackend::TimedBackend(serve::RuntimeBackend &inner,
                           SpanRecorder *spans)
    : inner_(inner), spans_(spans)
{
}

Clock::time_point
TimedBackend::record(const char *name, Clock::time_point start)
{
    const Clock::time_point stop = Clock::now();
    busy_ += seconds(start, stop);
    if (spans_)
        spans_->add(name, "runtime", start, stop);
    return stop;
}

void
TimedBackend::onPlan(const serve::IterationPlan &plan,
                     const std::vector<serve::Request> &requests,
                     const serve::AdmissionController &admission)
{
    PlanTiming t;
    t.decodeTokens = static_cast<std::int64_t>(plan.decode.size());
    for (const serve::PrefillChunk &chunk : plan.chunks)
        t.prefillTokens += chunk.tokens;
    t.reservedKvBytes = admission.reservedBytes();

    t.start = Clock::now();
    inner_.onPlan(plan, requests, admission);
    t.seconds = seconds(t.start, record("RuntimeBackend::onPlan", t.start));
    t.liveKvBytes = inner_.liveKvBytes();
    plans_.push_back(t);
}

std::int64_t
TimedBackend::speculate(const serve::Request &request,
                        std::int64_t draft_tokens)
{
    const Clock::time_point start = Clock::now();
    const std::int64_t accepted = inner_.speculate(request, draft_tokens);
    record("RuntimeBackend::speculate", start);
    return accepted;
}

void
TimedBackend::onFinish(const serve::Request &request)
{
    const Clock::time_point start = Clock::now();
    inner_.onFinish(request);
    record("RuntimeBackend::onFinish", start);
}

void
TimedBackend::onDrain()
{
    const Clock::time_point start = Clock::now();
    inner_.onDrain();
    record("RuntimeBackend::onDrain", start);
}

} // namespace perfbench
