// The benchmark's three workloads.  Each returns its checks, the
// end-to-end metrics (every run), the per-layer metrics (traced runs
// only) and a JSON object of supporting detail for the report line.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

struct WorkloadResult {
    Ledger ledger;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /// Per-workload quantities under their own names (diagnosis_s,
    /// msgs_per_s, ...) plus sample counts, for the report line.
    std::vector<Metric> named;
    std::string engine;   ///< rank engine the workload runs on
    std::string flavors;  ///< MPI flavors it covers
    int deaths = 0;       ///< session processes that died and were run again
    /// Share of the machine's CPU time the hypervisor took for other
    /// guests while the workload ran (/proc/stat steal): host load
    /// that slows every wall time here.
    double steal_share = 0.0;
};

WorkloadResult run_pc_mpi1(const Args& args);
WorkloadResult run_pc_mpi2(const Args& args);
WorkloadResult run_substrate(const Args& args);

/// The end-to-end metric names, units and order every workload emits.
struct EndToEnd {
    double setup_s = 0.0;
    double job_s = 0.0;
    double perturbation = 0.0;
    double peak_rss_mb = 0.0;
};
std::vector<Metric> end_to_end_metrics(const EndToEnd& e);
/// Stores overhead.<metric> = traced - untraced for every end-to-end
/// metric: the cost of the traced run's own measurement.
void add_overhead(const EndToEnd& traced, const EndToEnd& untraced, Layers* l);

}  // namespace e2e
