#include "workloads.hh"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using namespace lia;

namespace {

/**
 * The runtime workloads' model: the differential harness's tiny OPT
 * (d=32, 2 layers, 2 heads, 101-token vocabulary) with a 512-token
 * window. Small enough that a serving pass takes seconds of host time,
 * so a run holds several passes to take quantiles over.
 */
model::ModelConfig
runtimeModel()
{
    return model::tinyOpt(32, 2, 2, 512, 101);
}

Workload
rtDecode(std::uint64_t seed)
{
    Workload w;
    w.name = "rt-decode";
    w.system = hw::withCxl(hw::sprA100());
    w.model = runtimeModel();
    w.threads = 2;

    serve::Config &c = w.engine;
    c.requests = 96;
    c.seed = seed;
    c.trace = trace::TraceKind::Conversation;
    // Outputs of ~256 tokens leave room for prompts of 32..~64.
    c.maxContext = 320;
    c.policy = serve::SchedulerPolicy::Continuous;
    c.maxBatch = 8;
    // A burst: all requests arrive within the first simulated
    // millisecond, so the batch sits at maxBatch until the stream
    // drains. (An open loop near capacity spreads the simulated TTFT
    // far more across seeds.)
    c.arrivalRatePerSecond = 1e5;

    // Limits sit above every request's latency at the current code, so
    // goodput is the completion rate until TTFT or TBT regresses.
    w.goodputSlo.ttft = 0.09;
    w.goodputSlo.tbt = 35e-6;
    return w;
}

Workload
rtPrefix(std::uint64_t seed)
{
    Workload w;
    w.name = "rt-prefix";
    w.system = hw::withCxl(hw::sprA100());
    w.model = runtimeModel();
    w.threads = 2;

    serve::Config &c = w.engine;
    c.requests = 512;
    c.seed = seed;
    c.trace = trace::TraceKind::Code;
    // Prompts of 32..~350 tokens against outputs of ~32.
    c.maxContext = 384;
    c.policy = serve::SchedulerPolicy::Preemptive;
    c.maxBatch = 32;
    c.prefillChunkTokens = 32;
    // Six full-length contexts of DDR KV and no admission watermark:
    // admission overcommits and decode growth preempts, with the CXL
    // pool as the swap exit.
    c.kvBudgetCapBytes = 6.0 * 512 * w.model.kvBytesPerToken();
    c.admissionWatermark = 0;
    // Many mildly skewed pools: most requests share a prefix, and the
    // hit volume does not hinge on one pool's random prefix length.
    c.prefix.enabled = true;
    c.prefix.sharingPools = 64;
    c.prefix.sharingExponent = 0.5;
    c.prefix.sharedFraction = 0.5;
    // A burst, as rt-decode: the batch fills to the KV budget at once.
    c.arrivalRatePerSecond = 1e5;

    w.goodputSlo.ttft = 0.05;
    w.goodputSlo.tbt = 60e-6;
    return w;
}

Workload
simFleet(std::uint64_t seed)
{
    Workload w;
    w.name = "sim-fleet";
    w.runtime = false;
    w.system = hw::withCxl(hw::sprA100());
    w.model = model::opt30b();
    // The fleet never touches the kernel pool.
    w.threads = 1;

    serve::Config &c = w.engine;
    // 2000 requests keep a round (set-up, two plain passes, observed
    // pass) near a second, so a run takes quantiles over dozens of
    // rounds; the model_* spread across seeds stays within 6 % of the
    // median.
    c.requests = 2000;
    c.seed = seed;
    c.trace = trace::TraceKind::Mixed;
    c.policy = serve::SchedulerPolicy::Preemptive;
    c.maxBatch = 64;
    c.prefillChunkTokens = 256;
    // 24 requests/min is below what four replicas serve, so the
    // backlog (and EngineInstance::kvLoad()'s queue walk) stays
    // bounded and host cost grows linearly in the request count. At
    // 30/min the fleet nears saturation and batch size, and with it
    // tok_per_s and the TBT tail, spread more across seeds.
    c.arrivalRatePerSecond = 24.0 / 60.0;

    w.replicas = 4;
    w.routing = cluster::RoutingPolicy::LeastKvLoaded;

    w.goodputSlo.ttft = 5.0;
    w.goodputSlo.tbt = 0.5;
    return w;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

Workload
Workload::quarter() const
{
    Workload w = *this;
    w.engine.requests /= 4;
    return w;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "rt-decode", "rt-prefix", "sim-fleet"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "rt-decode")
        return rtDecode(seed);
    if (name == "rt-prefix")
        return rtPrefix(seed);
    if (name == "sim-fleet")
        return simFleet(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string
configDigest(const Workload &w)
{
    const serve::Config &c = w.engine;
    std::ostringstream os;
    os.precision(17);
    os << w.name << '|' << w.runtime << '|' << w.system.name << '|'
       << w.model.name << '|' << w.model.dModel << '|'
       << w.model.numLayers << '|' << w.model.numHeads << '|'
       << w.model.maxSeqLen << '|' << w.model.vocabSize << '|'
       << w.threads << '|' << c.requests << '|'
       << c.arrivalRatePerSecond << '|' << trace::toString(c.trace)
       << '|' << c.maxContext << '|' << serve::toString(c.policy) << '|'
       << c.maxBatch << '|' << c.prefillChunkTokens << '|'
       << c.kvBudgetCapBytes << '|' << c.admissionWatermark << '|'
       << c.prefix.enabled << '|' << c.prefix.sharingPools << '|'
       << c.prefix.sharingExponent << '|' << c.prefix.sharedFraction
       << '|' << c.spec.enabled << '|' << w.replicas << '|'
       << cluster::toString(w.routing) << '|' << w.goodputSlo.ttft
       << '|' << w.goodputSlo.tbt;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(os.str())));
    return hex;
}

} // namespace perfbench
