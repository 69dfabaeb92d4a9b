/**
 * @file
 * perfbench self-test: the TimedBackend decorator is passive.
 *
 * Runs each runtime workload twice, once with a plain RuntimeBackend
 * and once with the same backend behind TimedBackend (spans on), and
 * requires identical serve::Metrics and identical greedy streams for
 * every request. Exits non-zero on any difference.
 */

#include <iostream>
#include <string>

#include "serve/engine.hh"
#include "serve/runtime_backend.hh"
#include "timing.hh"
#include "workloads.hh"

using namespace lia;
using namespace perfbench;

namespace {

bool
decoratorIsPassive(const std::string &name, std::uint64_t seed)
{
    const Workload w = makeWorkload(name, seed);

    serve::ServingEngine plainEngine(w.system, w.model, w.engine);
    serve::RuntimeBackend plain(w.system, w.model, w.engine);
    const serve::Result a = plainEngine.run(&plain);

    serve::ServingEngine timedEngine(w.system, w.model, w.engine);
    serve::RuntimeBackend inner(w.system, w.model, w.engine);
    SpanRecorder spans;
    TimedBackend timed(inner, &spans);
    const serve::Result b = timedEngine.run(&timed);

    bool ok = a.metrics.toJson() == b.metrics.toJson() &&
              a.requests.size() == b.requests.size() &&
              timed.plans().size() == a.metrics.iterations;
    std::size_t streams = 0;
    for (const serve::Request &r : a.requests) {
        if (r.state != serve::RequestState::Finished)
            continue;
        ok = ok && plain.outputs(r.id) == inner.outputs(r.id);
        ++streams;
    }
    std::cout << (ok ? "PASS " : "FAIL ") << name << " seed " << seed
              << ": metrics and " << streams << " greedy streams "
              << (ok ? "identical" : "differ") << " with the decorator\n";
    return ok;
}

} // namespace

int
main()
{
    bool ok = true;
    for (const char *name : {"rt-decode", "rt-prefix"})
        for (std::uint64_t seed : {1, 2})
            ok = decoratorIsPassive(name, seed) && ok;
    return ok ? 0 : 1;
}
