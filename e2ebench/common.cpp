#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>

#include "core/metrics.hpp"
#include "core/tool.hpp"
#include "mdl/ast.hpp"
#include "mdl/default_metrics.hpp"
#include "util/clock.hpp"

namespace e2e {

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::pair<double, double> cpu_steal_jiffies() {
    // cpu  user nice system idle iowait irq softirq steal ...
    double f[8] = {};
    if (std::FILE* in = std::fopen("/proc/stat", "r")) {
        if (std::fscanf(in, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &f[0], &f[1], &f[2],
                        &f[3], &f[4], &f[5], &f[6], &f[7]) != 8)
            f[7] = f[0] = f[1] = f[2] = f[3] = f[4] = f[5] = f[6] = 0.0;
        std::fclose(in);
    }
    double total = 0.0;
    for (double v : f) total += v;
    return {f[7], total};
}

double peak_rss_mb() {
    // VmHWM restarts at exec, unlike getrusage's ru_maxrss, which would
    // also count the launcher that exec'd this process.
    long kib = 0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
        std::fclose(f);
    }
    return static_cast<double>(kib) / 1024.0;
}

int nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
}

unsigned hardware_concurrency() { return std::thread::hardware_concurrency(); }

// ---------------------------------------------------------------------------
// Ledger

void Ledger::check(const std::string& name, bool ok, bool exact) {
    add(name, 1, ok ? 1 : 0, exact);
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", name.c_str());
}

int Ledger::attempted() const {
    int n = 0;
    for (const auto& [name, t] : tally_)
        if (t.exact) n += t.attempted;
    return n;
}

int Ledger::failed() const {
    int n = 0;
    for (const auto& [name, t] : tally_)
        if (t.exact) n += t.attempted - t.passed;
    return n;
}

bool Ledger::correct() const { return failed() == 0; }

int Ledger::verdict_checks() const {
    int n = 0;
    for (const auto& [name, t] : tally_)
        if (!t.exact) n += t.attempted;
    return n;
}

int Ledger::verdict_mismatches() const {
    int n = 0;
    for (const auto& [name, t] : tally_)
        if (!t.exact) n += t.attempted - t.passed;
    return n;
}

std::string Ledger::pass_rates_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const Tally& t = tally_.at(order_[i]);
        if (i) out += ",";
        out += "\"" + json_escape(order_[i]) + "\":{\"passed\":" +
               std::to_string(t.passed) + ",\"attempted\":" +
               std::to_string(t.attempted) + ",\"exact\":" +
               (t.exact ? "true" : "false") + "}";
    }
    return out + "}";
}

void Ledger::add(const std::string& name, int attempted, int passed, bool exact) {
    auto [it, fresh] = tally_.try_emplace(name);
    if (fresh) order_.push_back(name);
    it->second.attempted += attempted;
    it->second.passed += passed;
    it->second.exact = exact;
}

std::string Ledger::to_lines() const {
    std::string out;
    for (const std::string& name : order_) {
        const Tally& t = tally_.at(name);
        out += std::to_string(t.attempted) + " " + std::to_string(t.passed) + " " +
               (t.exact ? "1 " : "0 ") + name + "\n";
    }
    return out;
}

void Ledger::merge(const Ledger& other, const std::string& prefix) {
    for (const std::string& name : other.order_) {
        const Tally& t = other.tally_.at(name);
        add(prefix + name, t.attempted, t.passed, t.exact);
    }
}

// ---------------------------------------------------------------------------
// Samples

void Samples::append(const std::string& name, const std::vector<double>& v) {
    auto& dst = sets_[name];
    dst.insert(dst.end(), v.begin(), v.end());
}

double Samples::pct(const std::string& name, double q) const {
    auto it = sets_.find(name);
    if (it == sets_.end() || it->second.empty()) return 0.0;
    std::vector<double> v = it->second;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

std::size_t Samples::count(const std::string& name) const {
    auto it = sets_.find(name);
    return it == sets_.end() ? 0 : it->second.size();
}

std::vector<double> Samples::values(const std::string& name) const {
    auto it = sets_.find(name);
    return it == sets_.end() ? std::vector<double>{} : it->second;
}

double median_of(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Program readings

void add_pvars(simmpi::World& world, Layers* out) {
    static const char* const kCounters[] = {
        "instr.dispatch.events",          "instr.dispatch.snippets",
        "simmpi.mailbox.delivered_msgs",  "simmpi.mailbox.eager_msgs",
        "simmpi.mailbox.rendezvous_msgs", "simmpi.mailbox.flow_stalls",
        "trace.ring.written",             "trace.ring.dropped",
        "pc.experiments.started",         "pc.experiments.completed",
        "pc.experiments.tested_true",
    };
    pvar::Registry& reg = world.pvars();
    const auto read = [&reg](const char* name) {
        const pvar::VarId id = reg.find(name);
        return id == pvar::kInvalidVar ? 0.0 : static_cast<double>(reg.read(id));
    };
    for (const char* name : kCounters) out->value[name] += read(name);
    double& hwm = out->value["simmpi.mailbox.bytes_queued_hwm"];
    hwm = std::max(hwm, read("simmpi.mailbox.bytes_queued_hwm"));
}

namespace {

/// MPI call class of a boundary span name ("MPI_Send" / "PMPI_Send"),
/// or null for calls outside the per-layer table (Init, Win_create...).
const char* call_class(const char* name) {
    if (!name) return nullptr;
    if (name[0] == 'P') ++name;
    if (std::strncmp(name, "MPI_", 4) != 0) return nullptr;
    const std::string op = name + 4;
    static const char* const kPt2pt[] = {"Send",  "Recv",    "Ssend",    "Isend",
                                         "Irecv", "Wait",    "Waitall",  "Sendrecv",
                                         "Probe", "Iprobe"};
    static const char* const kColl[] = {"Barrier", "Bcast",   "Reduce", "Allreduce",
                                        "Gather",  "Scatter", "Allgather"};
    static const char* const kActive[] = {"Win_fence", "Win_start", "Win_complete",
                                          "Win_post", "Win_wait"};
    for (const char* s : kPt2pt)
        if (op == s) return "simmpi.call_us.pt2pt";
    for (const char* s : kColl)
        if (op == s) return "simmpi.call_us.coll";
    for (const char* s : kActive)
        if (op == s) return "simmpi.call_us.rma_active";
    if (op == "Win_lock" || op == "Win_unlock") return "simmpi.call_us.rma_passive";
    if (op == "Comm_spawn") return "simmpi.call_us.spawn";
    return nullptr;
}

}  // namespace

void read_recorder(const trace::FlightRecorder& fr, Samples* out) {
    static const util::TickCalibration cal = util::calibrate_ticks();
    const double us_per_tick = cal.seconds_per_tick * 1e6;
    // ExperimentStart/Stop come from the consultant's thread in batch
    // order, so per-hypothesis FIFO pairing matches each start with
    // its own stop.
    std::map<const char*, std::deque<std::uint64_t>> open;
    for (const trace::Event& e : fr.snapshot()) {
        const auto kind = static_cast<trace::EventKind>(e.kind);
        switch (kind) {
            case trace::EventKind::MpiCall:
            case trace::EventKind::Pt2ptSend:
            case trace::EventKind::Pt2ptRecv:
                if (const char* cls = call_class(e.name))
                    out->add(cls, static_cast<double>(e.t1 - e.t0) * us_per_tick);
                break;
            case trace::EventKind::RmaEpoch:
                out->add("simmpi.rma.epoch_wait_us", static_cast<double>(e.b) / 1e3);
                break;
            case trace::EventKind::ExperimentStart:
                open[e.name].push_back(e.t0);
                break;
            case trace::EventKind::ExperimentStop: {
                auto& q = open[e.name];
                if (q.empty()) break;
                out->add("pc.experiment_ms",
                         static_cast<double>(e.t1 - q.front()) * us_per_tick / 1e3);
                q.pop_front();
                break;
            }
            default:
                break;
        }
    }
}

void time_metric_calls(core::PerfTool& tool, int reps, Samples* out) {
    for (int i = 0; i < reps; ++i) {
        for (const char* m : {"sync_wait_inclusive", "io_wait_inclusive", "cpu"}) {
            const double t0 = now_s();
            auto pair = tool.metrics().request(m, core::Focus{});
            const double t1 = now_s();
            tool.metrics().release(pair);
            const double t2 = now_s();
            out->add("core.metric_request_us", (t1 - t0) * 1e6);
            out->add("core.metric_release_us", (t2 - t1) * 1e6);
        }
    }
}

double mdl_parse_ms(int reps) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const double t0 = now_s();
        const mdl::MdlFile f = mdl::parse(mdl::default_metrics_source());
        ms.push_back((now_s() - t0) * 1e3);
    }
    return median_of(ms);
}

std::vector<Metric> per_layer_metrics(const Layers& l) {
    const auto v = [&l](const char* name) {
        auto it = l.value.find(name);
        return it == l.value.end() ? 0.0 : it->second;
    };
    std::vector<Metric> out;
    const auto scalar = [&](const char* name, const char* unit) {
        out.push_back({name, v(name), unit});
    };
    const auto pcts = [&](const std::string& name, const char* unit) {
        out.push_back({name + ".p50", l.samples.pct(name, 0.50), unit});
        out.push_back({name + ".p99", l.samples.pct(name, 0.99), unit});
    };
    // core session: the calls Session::run_with_consultant makes.
    for (const char* n : {"core.session_ctor_s", "pperfmark.register_s", "simmpi.launch_s",
                          "core.search_s", "simmpi.join_tail_s", "core.flush_s"})
        scalar(n, "s");
    // core metrics / mdl
    scalar("mdl.parse_ms", "ms");
    pcts("core.metric_request_us", "us");
    pcts("core.metric_release_us", "us");
    // core consultant
    for (const char* n : {"pc.experiments.started", "pc.experiments.completed",
                          "pc.experiments.tested_true"})
        scalar(n, "count");
    const double completed = v("pc.experiments.completed");
    out.push_back({"pc.true_ratio",
                   completed > 0 ? v("pc.experiments.tested_true") / completed : 0.0,
                   "ratio"});
    pcts("pc.experiment_ms", "ms");
    // instr
    scalar("instr.dispatch.events", "count");
    scalar("instr.dispatch.snippets", "count");
    const double events = v("instr.dispatch.events");
    out.push_back({"instr.snippets_per_event",
                   events > 0 ? v("instr.dispatch.snippets") / events : 0.0, "ratio"});
    // simmpi pt2pt, collectives, RMA, spawn
    pcts("simmpi.call_us.pt2pt", "us");
    for (const char* n : {"simmpi.mailbox.delivered_msgs", "simmpi.mailbox.eager_msgs",
                          "simmpi.mailbox.rendezvous_msgs", "simmpi.mailbox.flow_stalls"})
        scalar(n, "count");
    scalar("simmpi.mailbox.bytes_queued_hwm", "bytes");
    pcts("simmpi.call_us.coll", "us");
    pcts("simmpi.call_us.rma_active", "us");
    pcts("simmpi.call_us.rma_passive", "us");
    pcts("simmpi.rma.epoch_wait_us", "us");
    pcts("simmpi.call_us.spawn", "us");
    // trace
    scalar("trace.ring.written", "count");
    scalar("trace.ring.dropped", "count");
    // substrate-256 phase rates (untraced rounds of the same run)
    for (const char* n : {"substrate.msgs_per_s", "substrate.allreduce_per_s",
                          "substrate.fence_epochs_per_s", "substrate.lock_epochs_per_s"})
        scalar(n, "1/s");
    // tracing overhead: traced minus untraced, per end-to-end metric
    scalar("overhead.setup_s", "s");
    scalar("overhead.job_s", "s");
    scalar("overhead.perturbation", "ratio");
    scalar("overhead.peak_rss_mb", "MB");
    return out;
}

// ---------------------------------------------------------------------------
// JSON

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string result_line(bool correct, int attempted, int failed,
                        const std::vector<Metric>& metrics) {
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) out += ", ";
        out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
               json_num(metrics[i].value) + ", \"unit\": \"" +
               json_escape(metrics[i].unit) + "\"}";
    }
    return out + "}}";
}

}  // namespace e2e
