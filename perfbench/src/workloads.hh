/**
 * @file
 * The benchmark's three workloads (see perfbench/README.md for why
 * each exists and which layers it stresses).
 *
 * A workload fixes the system, the model, the serving configuration,
 * the request count, the kernel pool size, and the TTFT/TBT limits
 * goodput is judged by. Only the seed varies between runs: it drives
 * arrivals, request shapes, prompts and weights, so one seed always
 * produces the same inputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/config.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "serve/config.hh"

namespace perfbench {

struct Workload
{
    std::string name;

    /** Runtime-backed ServingEngine (true) or analytic fleet. */
    bool runtime = true;

    lia::hw::SystemConfig system;
    lia::model::ModelConfig model;

    /** The engine configuration; for the fleet, the per-replica one
     *  (requests and rate are fleet totals, as ClusterConfig says). */
    lia::serve::Config engine;

    /** Fleet layout; only meaningful when !runtime. */
    std::size_t replicas = 1;
    lia::cluster::RoutingPolicy routing =
        lia::cluster::RoutingPolicy::LeastKvLoaded;

    /** Kernel pool size (LIA_THREADS) the workload runs at. */
    int threads = 1;

    /** Limits a request must meet to count toward goodput. */
    lia::serve::SloTargets goodputSlo;

    /** The same stream with a quarter of the requests (the fleet's
     *  host-cost growth check). */
    Workload quarter() const;
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The workload @p name at @p seed; throws std::invalid_argument for
 *  an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * FNV-1a digest of every setting that shapes the workload except the
 * seed, as 16 hex digits: two runs with equal digests ran the same
 * configuration.
 */
std::string configDigest(const Workload &workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
