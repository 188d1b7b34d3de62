// Shared plumbing for the end-to-end benchmark: wall clocks, the
// check ledger, sample sets with percentiles, flight-recorder span
// analysis, and the JSON result lines.
//
// The benchmark measures the program from outside: it times its own
// calls into each module's public functions and reads what the
// program already exposes (the World's pvar registry and its always-on
// flight recorder).  Nothing here reaches inside src/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/world.hpp"
#include "trace/flight_recorder.hpp"

namespace m2p::core {
class PerfTool;
}

namespace e2e {

using namespace m2p;

/// Seconds on the monotonic clock.
double now_s();

/// Steal and total jiffies of all CPUs so far, from /proc/stat's cpu
/// line; both 0 when it cannot be read.
std::pair<double, double> cpu_steal_jiffies();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Logical CPUs this process may run on (the affinity mask), and the
/// C++ runtime's hardware_concurrency -- the tool's CPUBound divisor.
int nproc();
unsigned hardware_concurrency();

/// Flight-recorder ring capacity (events per thread) of traced runs,
/// up from the default 8192 so more of a session's spans survive until
/// the benchmark snapshots them.
constexpr std::size_t kTracedRingCapacity = std::size_t{1} << 16;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string commit = "unknown";
};

/// Two kinds of check.  `exact` checks compare an output with a
/// closed-form truth (a run completes, byte counts, discovered windows,
/// reduction results); each is one operation of the result line, and a
/// mismatch is a failed operation that also makes the run incorrect.
/// Verdict checks grade a Performance Consultant finding against the
/// paper.  They are diagnosis quality, not operations: the known
/// host-dependent CPUBound mismatches fail in most runs and a few
/// near-threshold verdicts flip from run to run, so they are counted
/// apart (verdict_checks, verdict_mismatches), printed with every
/// check's pass rate, and reported as per-layer metrics.
class Ledger {
public:
    void check(const std::string& name, bool ok, bool exact);
    /// Records @p attempted checks, @p passed of them passed, silently.
    void add(const std::string& name, int attempted, int passed, bool exact);
    /// One line per check: "<attempted> <passed> <exact 0|1> <name>".
    std::string to_lines() const;
    int attempted() const;  ///< exact checks
    int failed() const;     ///< exact checks that failed
    bool correct() const;
    int verdict_checks() const;
    int verdict_mismatches() const;
    /// {"name": {"passed": p, "attempted": a, "exact": bool}, ...}
    std::string pass_rates_json() const;
    void merge(const Ledger& other, const std::string& prefix);

private:
    struct Tally {
        int attempted = 0;
        int passed = 0;
        bool exact = false;
    };
    std::vector<std::string> order_;
    std::map<std::string, Tally> tally_;
};

/// Named sample sets ("simmpi.call_us.pt2pt" -> values).
class Samples {
public:
    void add(const std::string& name, double v) { sets_[name].push_back(v); }
    void append(const std::string& name, const std::vector<double>& v);
    /// Nearest-rank percentile (q in [0,1]); 0 for an empty set.
    double pct(const std::string& name, double q) const;
    std::size_t count(const std::string& name) const;
    std::vector<double> values(const std::string& name) const;
    const std::map<std::string, std::vector<double>>& sets() const { return sets_; }

private:
    std::map<std::string, std::vector<double>> sets_;
};

double median_of(std::vector<double> v);

/// Per-layer readings of a traced run: scalars (timed call totals,
/// pvar counters) plus sample sets reported as p50/p99.
struct Layers {
    std::map<std::string, double> value;
    Samples samples;
};

/// Adds the World's pvars that the per-layer table names to @p out:
/// counters are summed across worlds, the queue high-water mark is
/// the maximum.  Call after join_all, before the World dies.
void add_pvars(simmpi::World& world, Layers* out);

/// Classifies every MPI_ boundary span in the recorder into
/// simmpi.call_us.{pt2pt,coll,rma_active,rma_passive,spawn}, RMA
/// epoch waits into simmpi.rma.epoch_wait_us, and PC experiment
/// Start->Stop pairs into pc.experiment_ms.
void read_recorder(const trace::FlightRecorder& fr, Samples* out);

/// Times MetricManager::request/release (core.metric_{request,release}_us)
/// for each hypothesis metric on the whole program, @p reps times: the
/// instrumentation insert/remove churn one PC experiment causes.
void time_metric_calls(core::PerfTool& tool, int reps, Samples* out);

/// Median wall milliseconds of mdl::parse over the default metric file.
double mdl_parse_ms(int reps);

/// One metric in the final result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The per-layer metrics every traced run emits, in a fixed order; a
/// layer the workload does not exercise reads 0.
std::vector<Metric> per_layer_metrics(const Layers& l);

/// The machine-readable result, printed as the last line of standard output.
std::string result_line(bool correct, int attempted, int failed,
                        const std::vector<Metric>& metrics);

std::string json_escape(const std::string& s);
std::string json_num(double v);

}  // namespace e2e
