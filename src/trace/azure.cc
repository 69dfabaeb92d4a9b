#include "trace/azure.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace lia {
namespace trace {

const char *
toString(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Code:
        return "code";
      case TraceKind::Conversation:
        return "conversation";
      case TraceKind::Mixed:
        return "mixed";
    }
    LIA_PANIC("unknown trace kind");
}

PoissonProcess::PoissonProcess(double rate_per_second,
                               std::uint64_t seed)
    : rate_(rate_per_second), rng_(seed)
{
    LIA_ASSERT(rate_per_second > 0, "bad arrival rate");
}

double
PoissonProcess::next()
{
    const double u = std::max(rng_.uniform(), 1e-12);
    t_ += -std::log(u) / rate_;
    return t_;
}

AzureTraceGenerator::AzureTraceGenerator(TraceKind kind,
                                         std::int64_t max_context,
                                         std::uint64_t seed)
    : kind_(kind), maxContext_(max_context), rng_(seed)
{
    LIA_ASSERT(max_context >= 64, "context too small for the trace");
}

Request
AzureTraceGenerator::next()
{
    Request r;
    // Mean output lengths from the code/conversation traces; clamp the
    // spread so l_in + l_out always fits the context. The mixed trace
    // flips a fair coin per request between the two families.
    TraceKind kind = kind_;
    if (kind == TraceKind::Mixed)
        kind = rng_.bernoulli(0.5) ? TraceKind::Code
                                   : TraceKind::Conversation;
    const std::int64_t mean_out =
        kind == TraceKind::Code ? 32 : 256;
    const double drawn = rng_.normal(static_cast<double>(mean_out),
                                     static_cast<double>(mean_out) / 4.0);
    r.lOut = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(drawn), 8,
        std::min(mean_out * 2, maxContext_ - 32));
    // Input lengths are uniformly distributed (§7).
    r.lIn = rng_.uniformInt(32, maxContext_ - r.lOut);
    return r;
}

std::vector<Request>
AzureTraceGenerator::batch(std::size_t count)
{
    std::vector<Request> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(next());
    return out;
}

std::vector<std::int64_t>
standardLinSweep(std::int64_t l_out, std::int64_t max_seq)
{
    LIA_ASSERT(l_out > 0 && l_out < max_seq, "bad l_out");
    const std::int64_t l_max = max_seq - l_out;
    std::vector<std::int64_t> sweep{32, 128, 512, 1024};
    sweep.erase(std::remove_if(sweep.begin(), sweep.end(),
                               [l_max](std::int64_t l) {
                                   return l >= l_max;
                               }),
                sweep.end());
    sweep.push_back(l_max);
    return sweep;
}

std::vector<std::int64_t>
standardBatchSweep()
{
    return {1, 64, 900};
}

} // namespace trace
} // namespace lia
