/**
 * @file
 * Online-serving scenario (§7.2's latency-driven workload).
 *
 * Draws a stream of requests from the Azure-statistics trace
 * generator, plans each request with LIA at B = 1 on the SPR-A100
 * platform, and reports the latency distribution against the IPEX
 * and FlexGen baselines — the situation of a user-facing assistant
 * where every query's response time matters.
 *
 * Then serves a Poisson stream of code-trace requests through the
 * continuous-batching engine capped at batch 1 (iteration-priced),
 * the B = 1 serial server of the online scenario, and reports its
 * utilisation and response times.
 *
 * Usage: online_serving [num_requests] [seed]
 *                       [--trace-out trace.json]
 *                       [--metrics-out metrics.prom]
 *
 * --trace-out records the B = 1 serving-engine run as a
 * Chrome-trace / Perfetto JSON timeline; --metrics-out writes that
 * run's Prometheus text exposition (DESIGN.md §13). Instrumentation
 * never changes the metrics (DESIGN.md §8).
 */

#include <cstdlib>
#include <iostream>

#include "base/args.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "baselines/presets.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "obs/chrome_trace.hh"
#include "serve/engine.hh"
#include "serve/metrics.hh"
#include "serve/prom.hh"
#include "trace/azure.hh"

int
main(int argc, char **argv)
{
    using namespace lia;
    using core::Scenario;

    const ArgParser args(argc, argv);
    const auto requests =
        static_cast<std::size_t>(args.positionalInt(0, 40));
    const auto seed = static_cast<std::uint64_t>(args.positionalInt(1, 7));
    const std::string trace_out = args.getString("trace-out");
    const std::string metrics_out = args.getString("metrics-out");

    const auto sys = hw::sprA100();
    const auto m = model::opt30b();

    std::cout << "Online serving: " << requests << " requests from "
              << "the code+conversation trace mix, " << m.name
              << " on " << sys.name << ", B=1\n\n";

    trace::AzureTraceGenerator gen(trace::TraceKind::Mixed,
                                   m.maxSeqLen, seed);

    auto lia = baselines::liaEngine(sys, m);
    auto ipex = baselines::ipexEngine(sys, m);
    baselines::FlexGenModel flexgen(sys, m);

    SampleStats lia_lat, ipex_lat, fg_lat;
    int cpu_policies = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        const auto req = gen.next();
        const Scenario sc{1, req.lIn, req.lOut};
        const auto plan = lia.estimate(sc);
        lia_lat.add(plan.latency());
        ipex_lat.add(ipex.estimate(sc).latency());
        fg_lat.add(flexgen.estimate(sc).latency());
        cpu_policies +=
            plan.decodePolicy == core::Policy::fullCpu() ? 1 : 0;
    }

    TextTable table = serve::latencyTable("framework");
    serve::addLatencyRow(table, "LIA", lia_lat, lia_lat.mean());
    serve::addLatencyRow(table, "IPEX", ipex_lat, lia_lat.mean());
    serve::addLatencyRow(table, "FlexGen", fg_lat, lia_lat.mean());
    table.print(std::cout);

    std::cout << "\nLIA chose the full-CPU decode policy on "
              << cpu_policies << "/" << requests
              << " requests (B=1 sits left of the Fig. 9 decode "
                 "crossover);\nprefill moves to the GPU once "
                 "L_in crosses the compute-intensity boundary.\n";

    // --- The same deployment as a B = 1 serving queue ---------------
    const double rate = 1.5 / 60.0;  // 1.5 arrivals/min

    obs::ChromeTraceWriter trace;
    serve::Config serve_cfg;
    serve_cfg.arrivalRatePerSecond = rate;
    serve_cfg.requests = requests;
    serve_cfg.trace = trace::TraceKind::Code;
    serve_cfg.maxContext = m.maxSeqLen;
    serve_cfg.seed = seed;
    serve_cfg.policy = serve::SchedulerPolicy::Continuous;
    serve_cfg.maxBatch = 1;
    serve_cfg.cxlSpill = false;
    if (!trace_out.empty())
        serve_cfg.sink = &trace;
    serve::ServingEngine engine(sys, m, serve_cfg);
    const auto served = engine.run();

    std::cout << "\nServing queue at B=1, "
              << fmtDouble(rate * 60.0, 1) << " arrivals/min:\n";
    TextTable queue({"serving model", "util", "mean resp", "p50 resp",
                     "p95 resp"});
    queue.addRow({"serve engine, maxBatch=1",
                  fmtPercent(served.metrics.utilisation()),
                  fmtSeconds(served.metrics.responseTime.mean()),
                  fmtSeconds(served.metrics.responseTime.p50()),
                  fmtSeconds(served.metrics.responseTime.p95())});
    queue.print(std::cout);

    if (!trace_out.empty()) {
        if (trace.writeFile(trace_out))
            std::cout << "\nWrote " << trace.events().size()
                      << "-event Chrome trace to " << trace_out
                      << " (open in ui.perfetto.dev)\n";
        else {
            std::cerr << "\nFailed to write trace to " << trace_out
                      << "\n";
            return EXIT_FAILURE;
        }
    }
    if (!metrics_out.empty()) {
        if (serve::writePrometheusFile(metrics_out, served.metrics))
            std::cout << "Wrote Prometheus metrics to " << metrics_out
                      << "\n";
        else {
            std::cerr << "Failed to write metrics to " << metrics_out
                      << "\n";
            return EXIT_FAILURE;
        }
    }
    return EXIT_SUCCESS;
}
