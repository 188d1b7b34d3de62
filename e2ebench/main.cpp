// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload <pc-mpi1|pc-mpi2|substrate-256|all> --seed <n>
//            --seconds <s> --trace <0|1> [--smoke] [--commit <id>]
//
// Prints a progress log, one `{"report": ...}` line (host stamp, every
// check's pass rate, the per-workload quantities under their own names)
// and, last, the result line: {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones from a separate traced pass,
// plus the run's verdict grades and session process deaths.
// Exits non-zero on a usage error.  README.md explains the workloads.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace e2e {

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
    return {{"setup_s", e.setup_s, "s"},
            {"job_s", e.job_s, "s"},
            {"perturbation", e.perturbation, "ratio"},
            {"peak_rss_mb", e.peak_rss_mb, "MB"}};
}

void add_overhead(const EndToEnd& traced, const EndToEnd& untraced, Layers* l) {
    l->value["overhead.setup_s"] = traced.setup_s - untraced.setup_s;
    l->value["overhead.job_s"] = traced.job_s - untraced.job_s;
    l->value["overhead.perturbation"] = traced.perturbation - untraced.perturbation;
    l->value["overhead.peak_rss_mb"] = traced.peak_rss_mb - untraced.peak_rss_mb;
}

namespace {

constexpr const char* kWorkloads[] = {"pc-mpi1", "pc-mpi2", "substrate-256"};

/// The run's verdict grades and session deaths, appended to every
/// traced workload's per-layer metrics.
std::vector<Metric> run_metrics(const WorkloadResult& r) {
    const int graded = r.ledger.verdict_checks();
    const int matched = graded - r.ledger.verdict_mismatches();
    return {{"pc.verdict_mismatches", static_cast<double>(r.ledger.verdict_mismatches()),
             "count"},
            {"pc.verdict_match_ratio",
             graded > 0 ? static_cast<double>(matched) / graded : 0.0, "ratio"},
            {"bench.session_deaths", static_cast<double>(r.deaths), "count"}};
}

WorkloadResult run_workload(const std::string& name, const Args& args) {
    std::printf("== workload %s (seed %llu, %s)\n", name.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "untraced");
    std::fflush(stdout);
    const auto [steal0, total0] = cpu_steal_jiffies();
    WorkloadResult r = name == "pc-mpi1"   ? run_pc_mpi1(args)
                       : name == "pc-mpi2" ? run_pc_mpi2(args)
                                           : run_substrate(args);
    const auto [steal1, total1] = cpu_steal_jiffies();
    if (total1 > total0) r.steal_share = (steal1 - steal0) / (total1 - total0);
    return r;
}

std::string metrics_json(const std::vector<Metric>& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i) out += ",";
        out += "\"" + json_escape(ms[i].name) + "\":{\"value\":" + json_num(ms[i].value) +
               ",\"unit\":\"" + json_escape(ms[i].unit) + "\"}";
    }
    return out + "}";
}

void print_report(const std::string& workload, const Args& args,
                  const WorkloadResult& r) {
    std::printf(
        "{\"report\":{\"workload\":\"%s\",\"host\":{\"nproc\":%d,"
        "\"hardware_concurrency\":%u,\"rank_engine\":\"%s\",\"flavors\":\"%s\","
        "\"seed\":%llu,\"commit\":\"%s\",\"trace\":%d,\"smoke\":%d,"
        "\"steal_share\":%s},"
        "\"attempted\":%d,\"failed\":%d,\"verdict_checks\":%d,"
        "\"verdict_mismatches\":%d,\"session_deaths\":%d,\"named\":%s,\"checks\":%s}}\n",
        workload.c_str(), nproc(), hardware_concurrency(), r.engine.c_str(),
        r.flavors.c_str(), static_cast<unsigned long long>(args.seed),
        json_escape(args.commit).c_str(), args.trace ? 1 : 0, args.smoke ? 1 : 0,
        json_num(r.steal_share).c_str(), r.ledger.attempted(), r.ledger.failed(),
        r.ledger.verdict_checks(), r.ledger.verdict_mismatches(), r.deaths,
        metrics_json(r.named).c_str(),
        r.ledger.pass_rates_json().c_str());
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload <pc-mpi1|pc-mpi2|"
                 "substrate-256|all> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke] [--commit <id>]\n",
                 why);
    return 2;
}

bool known_workload(const std::string& w) {
    if (w == "all") return true;
    for (const char* k : kWorkloads)
        if (w == k) return true;
    return false;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
    using namespace e2e;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--smoke") {
            args.smoke = true;
        } else if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            args.workload = argv[++i];
        } else if (a == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--commit") {
            args.commit = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!known_workload(args.workload)) return usage("unknown or missing --workload");
    if (!(args.seconds > 0)) return usage("--seconds must be positive");

    if (args.workload != "all") {
        WorkloadResult r = run_workload(args.workload, args);
        print_report(args.workload, args, r);
        if (args.trace)
            for (const Metric& m : run_metrics(r))
                r.per_layer.push_back(m);
        std::printf("%s\n", result_line(r.ledger.correct(), r.ledger.attempted(),
                                         r.ledger.failed(),
                                         args.trace ? r.per_layer : r.end_to_end)
                                .c_str());
        return 0;
    }
    // Every workload in one process, one session at a time; metric
    // names are prefixed with the workload's.
    Ledger all;
    std::vector<Metric> metrics;
    for (const char* w : kWorkloads) {
        WorkloadResult r = run_workload(w, args);
        print_report(w, args, r);
        if (args.trace)
            for (const Metric& m : run_metrics(r))
                r.per_layer.push_back(m);
        all.merge(r.ledger, std::string(w) + ": ");
        for (const Metric& m : args.trace ? r.per_layer : r.end_to_end)
            metrics.push_back({std::string(w) + "." + m.name, m.value, m.unit});
    }
    std::printf("%s\n",
                result_line(all.correct(), all.attempted(), all.failed(), metrics).c_str());
    return 0;
}
