// pc-mpi1 and pc-mpi2: Performance Consultant sessions over the
// PPerfMark programs of paper Tables 2 and 3, graded with the same
// criteria as bench/bench_table2_pperfmark_mpi1.cpp,
// bench/bench_table3_pperfmark_mpi2.cpp and (oned)
// bench/bench_fig22_oned.cpp.
//
// A pass runs every session of the workload as often as its plan
// says, in an order the seed shuffles.  Untraced sessions call
// Session::run_with_consultant (or Session::run) exactly as a user
// would; traced sessions make the same calls one by one --
// run_app_async, PerformanceConsultant::search, World::join_all,
// PerfTool::flush -- so each gets its own time.
//
// Every session runs in a child process forked for it.  The tool can
// abort its process on a race (see README.md, *Findings*); a session
// whose process dies is counted as a session death and run again, so
// one abort costs one session instead of the whole run.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/session.hpp"
#include "pperfmark/pperfmark.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using R = core::PCReport;
using Pairs = std::map<std::string, std::shared_ptr<core::MetricFocusPair>>;

/// Iterations per program, scaled from bench_common.hpp's pc_params so
/// each application runs about a second under the Performance
/// Consultant: the search then covers the whole run instead of the
/// application outliving it, and a workload pass fits the run budget.
ppm::Params params_for(const std::string& program, bool smoke) {
    ppm::Params p;
    p.time_to_waste = 2;
    p.waste_unit_seconds = 0.002;
    if (program == ppm::kSmallMessages) p.iterations = 27000;
    else if (program == ppm::kBigMessage) p.iterations = 15000;
    else if (program == ppm::kWrongWay) p.iterations = 26000;
    else if (program == ppm::kIntensiveServer) p.iterations = 60;
    else if (program == ppm::kRandomBarrier) p.iterations = 250;
    else if (program == ppm::kDiffuseProcedure) p.iterations = 250;
    else if (program == ppm::kSystemTime) p.iterations = 150, p.waste_unit_seconds = 0.004;
    else if (program == ppm::kHotProcedure) p.iterations = 400;
    else if (program == ppm::kSstwod) p.iterations = 15000, p.grid_n = 48;
    else if (program == ppm::kAllcount) p.iterations = 100, p.epochs = 400,
             p.rma_ops_per_epoch = 20;
    else if (program == ppm::kWincreateBlast) p.win_blast_count = 64;
    else if (program == ppm::kWinfenceSync) p.iterations = 225;
    else if (program == ppm::kWinscpwSync) p.iterations = 225;
    else if (program == ppm::kWinlockSync) p.iterations = 300;
    else if (program == ppm::kSpawnCount) p.spawn_rounds = 4, p.spawn_children = 3;
    else if (program == ppm::kSpawnSync) p.iterations = 125;
    else if (program == ppm::kSpawnwinSync) p.iterations = 175;
    else if (program == ppm::kOned) p.iterations = 12500, p.grid_n = 48;
    if (smoke) {
        p.iterations = std::max(2, p.iterations / 10);
        p.epochs = std::max(2, p.epochs / 10);
    }
    return p;
}

core::PerformanceConsultant::Options pc_options(const std::string& program) {
    core::PerformanceConsultant::Options o;
    o.eval_interval = 0.08;
    o.max_search_seconds = 6.0;
    if (program == ppm::kDiffuseProcedure) o.cpu_threshold = 0.2;  // as the paper did
    return o;
}

/// What a session contributes to the end-to-end figures.
enum class Role {
    Graded,           ///< a PC session: its wall time is one of job_s's samples
    GradedApart,      ///< a PC session reported on its own, outside job_s
    PerturbPc,        ///< a graded PC session that is also perturbation's numerator
    PerturbToolOnly,  ///< the same program, tool attached, no PC: the denominator
    Discovery,        ///< tool-only exact-discovery run (no PC, not in job_s)
};

bool has_pc(Role r) {
    return r == Role::Graded || r == Role::GradedApart || r == Role::PerturbPc;
}

/// What a finished session hands its grader.  `check(what, ok, exact)`
/// records one check under the session's label.
struct Finished {
    core::Session& session;
    const R& report;
    const Pairs& metrics;  ///< the plan's pre_metrics, by name
    const ppm::Params& params;
    std::function<void(const std::string&, bool, bool)> check;
};
using GradeFn = std::function<void(const Finished&)>;

struct Plan {
    std::string label;  ///< "program [flavor]"
    std::string program;
    simmpi::Flavor flavor = simmpi::Flavor::Lam;
    int nprocs = 4;
    Role role = Role::Graded;
    /// How often the session runs per pass.  A tool-only perturbation
    /// plan ignores it: it runs once in each couple of its PC plan.
    int runs = 2;
    /// Metrics requested on the whole program before launch, so they
    /// count every event; released after grading.
    std::vector<std::string> pre_metrics;
    GradeFn grade;
};

Plan make_plan(const std::string& program, simmpi::Flavor flavor, int nprocs, Role role,
               GradeFn grade) {
    Plan p;
    p.program = program;
    p.flavor = flavor;
    p.label = program + " [" + simmpi::flavor_name(flavor) + "]";
    if (role == Role::PerturbToolOnly) p.label += " no-PC";
    p.nprocs = nprocs;
    p.role = role;
    p.grade = std::move(grade);
    return p;
}

/// How many couples (one run under the PC, one tool-only) a
/// perturbation pair runs per pass.  The tool-only small-messages run
/// wanders from 0.65 s to 1.05 s within one process, so that pair takes
/// eight; spawnwin-sync's is steadier.
constexpr int kSmallMessagesPerturbRuns = 8;
constexpr int kPerturbRuns = 5;

/// A graded PC session whose verdict must match the paper's.
GradeFn verdict(std::function<bool(const R&)> matches) {
    return [matches = std::move(matches)](const Finished& f) {
        f.check("verdict", matches(f.report), false);
    };
}

// --------------------------------------------------------------------------
// pc-mpi1: Table 2, every program on both flavors, plus small-messages
// once more with the tool attached but no PC.

std::vector<Plan> mpi1_plans() {
    const std::vector<std::pair<const char*, std::function<bool(const R&)>>> rows = {
        {ppm::kSmallMessages,
         [](const R& r) {
             return r.found("ExcessiveSyncWaitingTime", "Gsend_message") &&
                    r.found("ExcessiveSyncWaitingTime", "MPI_Send");
         }},
        {ppm::kBigMessage,
         [](const R& r) {
             return r.found("ExcessiveSyncWaitingTime", "MPI_Send") &&
                    (r.found("ExcessiveSyncWaitingTime", "MPI_Recv") ||
                     r.found("ExcessiveSyncWaitingTime", "Grecv_message"));
         }},
        {ppm::kWrongWay,
         [](const R& r) {
             return r.found("ExcessiveSyncWaitingTime", "MPI_Send") ||
                    r.found("ExcessiveSyncWaitingTime", "MPI_Recv");
         }},
        {ppm::kIntensiveServer,
         [](const R& r) {
             return r.found("ExcessiveSyncWaitingTime", "Grecv_message") &&
                    r.found("CPUBound", "");
         }},
        {ppm::kRandomBarrier,
         [](const R& r) {
             return r.found("ExcessiveSyncWaitingTime", "MPI_Barrier") &&
                    r.found("CPUBound", "waste_time");
         }},
        {ppm::kDiffuseProcedure,
         [](const R& r) {
             return r.found("ExcessiveSyncWaitingTime", "MPI_Barrier") &&
                    r.found("CPUBound", "bottleneckProcedure");
         }},
        // The paper's deliberate failure: matching means all-false.
        {ppm::kSystemTime,
         [](const R& r) {
             for (const auto& root : r.roots)
                 if (root->tested_true) return false;
             return true;
         }},
        {ppm::kHotProcedure,
         [](const R& r) {
             return r.found("CPUBound", "bottleneckProcedure") &&
                    !r.found("CPUBound", "irrelevantProcedure");
         }},
        {ppm::kSstwod,
         [](const R& r) {
             return r.found("ExcessiveSyncWaitingTime", "MPI_Sendrecv") ||
                    r.found("ExcessiveSyncWaitingTime", "MPI_Allreduce");
         }},
    };
    std::vector<Plan> plans;
    for (const auto& [program, matches] : rows) {
        const std::string prog = program;
        // Paper rank counts: 6 for client/server, 2 for pairwise, else 4.
        int nprocs = 4;
        if (prog == ppm::kSmallMessages || prog == ppm::kIntensiveServer ||
            prog == ppm::kRandomBarrier)
            nprocs = 6;
        else if (prog == ppm::kBigMessage || prog == ppm::kWrongWay)
            nprocs = 2;
        for (const auto flavor : {simmpi::Flavor::Lam, simmpi::Flavor::Mpich}) {
            const bool small = prog == ppm::kSmallMessages;
            const Role role =
                small && flavor == simmpi::Flavor::Lam ? Role::PerturbPc : Role::Graded;
            GradeFn grade = verdict(matches);
            if (small) {
                // MPICH's socket transport makes small-messages show
                // ExcessiveIOBlockingTime; LAM's does not.
                const bool want_io = flavor == simmpi::Flavor::Mpich;
                grade = [matches = matches, want_io](const Finished& f) {
                    f.check("verdict", matches(f.report), false);
                    f.check(want_io ? "shows ExcessiveIOBlockingTime"
                                    : "shows no ExcessiveIOBlockingTime",
                            f.report.found("ExcessiveIOBlockingTime", "") == want_io,
                            false);
                };
            }
            plans.push_back(make_plan(prog, flavor, nprocs, role, std::move(grade)));
            if (role == Role::PerturbPc) plans.back().runs = kSmallMessagesPerturbRuns;
        }
    }
    Plan tool_only = make_plan(
        ppm::kSmallMessages, simmpi::Flavor::Lam, 6, Role::PerturbToolOnly,
        [](const Finished& f) {
            // Whole-program byte totals: the five clients send, only the
            // server receives.
            const ppm::MessageTruth t = ppm::small_messages_truth(f.params, 6);
            f.check("sent bytes == small_messages_truth",
                    f.metrics.at("msg_bytes_sent")->total() ==
                        static_cast<double>(t.bytes_sent * 5),
                    true);
            f.check("received bytes == small_messages_truth",
                    f.metrics.at("msg_bytes_recv")->total() ==
                        static_cast<double>(t.bytes_received_at_server),
                    true);
        });
    tool_only.pre_metrics = {"msg_bytes_sent", "msg_bytes_recv"};
    plans.push_back(std::move(tool_only));
    return plans;
}

// --------------------------------------------------------------------------
// pc-mpi2: Table 3's PC sessions and exact-discovery checks, plus
// spawnwin-sync once more with the tool attached but no PC.

std::vector<Plan> mpi2_plans() {
    using simmpi::Flavor;
    std::vector<Plan> plans;
    const auto cpu_p0 = [](const R& r) {
        return r.found("CPUBound", "waste_time") || r.found("CPUBound", "/Process/p0");
    };
    for (const auto flavor : {Flavor::Lam, Flavor::Mpich}) {
        plans.push_back(make_plan(ppm::kWinfenceSync, flavor, 4, Role::Graded,
                                  verdict([cpu_p0](const R& r) {
                                      return (r.found("ExcessiveSyncWaitingTime",
                                                      "Win_fence") ||
                                              r.found("ExcessiveSyncWaitingTime",
                                                      "Barrier")) &&
                                             cpu_p0(r);
                                  })));
        // LAM blocks in MPI_Win_start, MPICH2 in MPI_Win_complete.
        const char* at = flavor == Flavor::Lam ? "Win_start" : "Win_complete";
        plans.push_back(make_plan(
            ppm::kWinscpwSync, flavor, 4, Role::Graded, verdict([cpu_p0, at](const R& r) {
                return r.found("ExcessiveSyncWaitingTime", at) &&
                       r.found("ExcessiveSyncWaitingTime", "/SyncObject/Window/") &&
                       cpu_p0(r);
            })));
    }
    // winlock-sync stalls in most runs: three ranks wait about 26 s in
    // MPI_Win_free for the fourth, and the run ends about 30 s (the
    // World's wait deadline) late.  It takes 1.4 s or 31 s, nothing in
    // between, so it would make job_s bimodal; it is graded, run once
    // per pass, and reported on its own as winlock-sync_s.
    Plan winlock = make_plan(
        ppm::kWinlockSync, Flavor::Lam, 4, Role::GradedApart,
        [](const Finished& f) {
            f.check("verdict",
                    f.report.found("ExcessiveSyncWaitingTime", "Win_lock") &&
                        f.metrics.at("pt_rma_sync_wait")->total() > 0.0,
                    false);
        });
    winlock.pre_metrics = {"pt_rma_sync_wait"};
    winlock.runs = 1;
    plans.push_back(std::move(winlock));
    plans.push_back(make_plan(ppm::kSpawnSync, Flavor::Lam, 1, Role::Graded,
                              verdict([](const R& r) {
                                  return r.found("ExcessiveSyncWaitingTime",
                                                 "childFunction") &&
                                         r.found("CPUBound", "");
                              })));
    // spawnwin-sync is the perturbation pair: oned, the RMA-heaviest
    // program, swung from 0.62 s to 2.2 s without the PC, which made
    // the ratio wander by a fifth from run to run.
    plans.push_back(make_plan(ppm::kSpawnwinSync, Flavor::Lam, 1, Role::PerturbPc,
                              verdict([](const R& r) {
                                  return r.found("ExcessiveSyncWaitingTime", "Win_fence") ||
                                         r.found("ExcessiveSyncWaitingTime", "Barrier");
                              })));
    plans.back().runs = kPerturbRuns;
    plans.push_back(make_plan(ppm::kSpawnwinSync, Flavor::Lam, 1, Role::PerturbToolOnly,
                              [](const Finished&) {}));
    plans.push_back(make_plan(ppm::kOned, Flavor::Lam, 4, Role::Graded,
                              verdict([](const R& r) {
                                  return r.found("ExcessiveSyncWaitingTime", "Win_fence") &&
                                         r.found("ExcessiveSyncWaitingTime", "exchng1");
                              })));

    Plan allcount = make_plan(
        ppm::kAllcount, Flavor::Lam, 3, Role::Discovery,
        [](const Finished& f) {
            const ppm::RmaTruth t = ppm::allcount_truth(f.params, 3);
            f.check("RMA ops == allcount_truth",
                    f.metrics.at("rma_ops")->total() ==
                        static_cast<double>(t.puts + t.gets + t.accs),
                    true);
            f.check("RMA bytes == allcount_truth",
                    f.metrics.at("rma_bytes")->total() ==
                        static_cast<double>(t.put_bytes + t.get_bytes + t.acc_bytes),
                    true);
        });
    allcount.pre_metrics = {"rma_ops", "rma_bytes"};
    plans.push_back(std::move(allcount));
    plans.push_back(make_plan(
        ppm::kWincreateBlast, Flavor::Lam, 2, Role::Discovery,
        [](const Finished& f) {
            const auto windows =
                f.session.tool().hierarchy().children("/SyncObject/Window", true);
            f.check("every window discovered",
                    windows.size() == static_cast<std::size_t>(f.params.win_blast_count),
                    true);
        }));
    plans.push_back(make_plan(
        ppm::kSpawnCount, Flavor::Lam, 1, Role::Discovery,
        [](const Finished& f) {
            f.check("every spawned process discovered",
                    f.session.tool().known_process_count() ==
                        1 + f.params.spawn_rounds * f.params.spawn_children,
                    true);
        }));
    return plans;
}

// --------------------------------------------------------------------------
// Running sessions

struct SessionTimes {
    double setup_s = 0.0;  ///< Session constructor + ppm::register_all
    double wall_s = 0.0;   ///< launch to verdict (or to a joined, flushed run)
};

SessionTimes run_session(const Plan& plan, bool smoke, bool traced, Ledger& ledger,
                         Layers* layers) {
    const ppm::Params params = params_for(plan.program, smoke);
    const core::PerformanceConsultant::Options opts = pc_options(plan.program);
    simmpi::World::Config wcfg = core::tool_world_config();
    if (traced) wcfg.trace_ring_capacity = kTracedRingCapacity;

    const double t0 = now_s();
    core::Session s(plan.flavor, {}, wcfg);
    const double t1 = now_s();
    ppm::register_all(s.world(), params);
    const double t2 = now_s();

    Pairs pre;
    for (const std::string& m : plan.pre_metrics)
        pre[m] = s.tool().metrics().request(m, core::Focus{});

    R report;
    const double t3 = now_s();
    if (!traced) {
        if (has_pc(plan.role))
            report = s.run_with_consultant(plan.program, plan.nprocs, opts);
        else
            report.outcome = s.run(plan.program, plan.nprocs);
    } else {
        core::run_app_async(s.tool(), plan.program, {}, plan.nprocs);
        const double ta = now_s();
        if (has_pc(plan.role)) {
            core::PerformanceConsultant pc(s.tool(), opts);
            report = pc.search([&s] { return !s.world().all_finished(); });
        }
        const double tb = now_s();
        s.world().join_all();
        const double tc = now_s();
        s.tool().flush();
        const double td = now_s();
        report.outcome = core::outcome_from_world(s.world());
        layers->value["core.session_ctor_s"] += t1 - t0;
        layers->value["pperfmark.register_s"] += t2 - t1;
        layers->value["simmpi.launch_s"] += ta - t3;
        layers->value["core.search_s"] += tb - ta;
        layers->value["simmpi.join_tail_s"] += tc - tb;
        layers->value["core.flush_s"] += td - tc;
    }
    const double t4 = now_s();

    const int failed_before = ledger.failed() + ledger.verdict_mismatches();
    const Finished f{s, report, pre, params,
                     [&ledger, &plan](const std::string& what, bool ok, bool exact) {
                         ledger.check(plan.label + ": " + what, ok, exact);
                     }};
    f.check("run completes", report.outcome.ok(), true);
    bool measured = true;
    for (const auto& [name, pair] : pre) {
        f.check("metric " + name + " instantiated", pair != nullptr, true);
        measured = measured && pair;
    }
    if (report.outcome.ok() && measured) plan.grade(f);
    if (ledger.failed() + ledger.verdict_mismatches() != failed_before && has_pc(plan.role))
        std::printf("--- findings for %s:\n%s", plan.label.c_str(),
                    core::PerformanceConsultant::render_condensed(report).c_str());
    for (auto& [name, pair] : pre)
        if (pair) s.tool().metrics().release(pair);
    if (traced) {
        add_pvars(s.world(), layers);
        if (const trace::FlightRecorder* fr = s.world().recorder())
            read_recorder(*fr, &layers->samples);
        time_metric_calls(s.tool(), smoke ? 2 : 20, &layers->samples);
    }
    return {t2 - t0, t4 - t3};
}

// --------------------------------------------------------------------------
// Session processes

/// Attempts per session before it counts as not completing.
constexpr int kSessionAttempts = 3;

/// What a session's process sends back, one record per line:
///   T <setup_s> <wall_s> <peak_rss_mb>
///   C <attempted> <passed> <exact> <check name>
///   V <value> <layer name>
///   S <layer name> <count> <values...>
std::string encode(const SessionTimes& t, const Ledger& ledger, const Layers& layers) {
    std::ostringstream out;
    out.precision(17);
    out << "T " << t.setup_s << " " << t.wall_s << " " << peak_rss_mb() << "\n";
    std::istringstream checks(ledger.to_lines());
    for (std::string line; std::getline(checks, line);) out << "C " << line << "\n";
    for (const auto& [name, v] : layers.value) out << "V " << v << " " << name << "\n";
    for (const auto& [name, vs] : layers.samples.sets()) {
        out << "S " << name << " " << vs.size();
        for (double v : vs) out << " " << v;
        out << "\n";
    }
    return out.str();
}

/// Adds a session's records to the parent's ledger and layers: layer
/// values add up, as they would in one process, except high-water marks
/// (names ending in _hwm), which take the maximum.
SessionTimes decode(const std::string& msg, double* rss_mb, Ledger& ledger,
                    Layers* layers) {
    SessionTimes t;
    std::istringstream in(msg);
    for (std::string line; std::getline(in, line);) {
        std::istringstream rec(line);
        std::string kind;
        rec >> kind;
        if (kind == "T") {
            rec >> t.setup_s >> t.wall_s >> *rss_mb;
        } else if (kind == "C") {
            int attempted = 0, passed = 0, exact = 0;
            std::string name;
            rec >> attempted >> passed >> exact >> std::ws;
            std::getline(rec, name);
            ledger.add(name, attempted, passed, exact != 0);
        } else if (kind == "V" && layers) {
            double v = 0.0;
            std::string name;
            rec >> v >> std::ws;
            std::getline(rec, name);
            double& sum = layers->value[name];
            const bool hwm = name.size() > 4 && name.compare(name.size() - 4, 4, "_hwm") == 0;
            sum = hwm ? std::max(sum, v) : sum + v;
        } else if (kind == "S" && layers) {
            std::string name;
            std::size_t n = 0;
            rec >> name >> n;
            std::vector<double> vs(n);
            for (double& v : vs) rec >> v;
            layers->samples.append(name, vs);
        }
    }
    return t;
}

/// run_session in a forked child.  The parent stays single-threaded, so
/// the fork is safe.  Returns the session's times; @p rss_mb gets the
/// child's peak resident set, @p deaths one more for each child that
/// died.  After kSessionAttempts deaths the session's "run completes"
/// check fails.
SessionTimes run_session_isolated(const Plan& plan, bool smoke, bool traced,
                                  Ledger& ledger, Layers* layers, double* rss_mb,
                                  int* deaths) {
    for (int attempt = 0; attempt < kSessionAttempts; ++attempt) {
        int fds[2];
        if (pipe(fds) != 0) throw std::runtime_error("e2ebench: pipe failed");
        std::fflush(stdout);
        const pid_t pid = fork();
        if (pid < 0) throw std::runtime_error("e2ebench: fork failed");
        if (pid == 0) {
            close(fds[0]);
            int code = 0;
            try {
                Ledger l;
                Layers lay;
                const SessionTimes t = run_session(plan, smoke, traced, l, &lay);
                const std::string msg = encode(t, l, lay);
                for (std::size_t off = 0; off < msg.size();) {
                    const ssize_t n = write(fds[1], msg.data() + off, msg.size() - off);
                    if (n < 0 && errno == EINTR) continue;
                    if (n <= 0) {
                        code = 4;
                        break;
                    }
                    off += static_cast<std::size_t>(n);
                }
            } catch (const std::exception& e) {
                std::printf("  %s: %s\n", plan.label.c_str(), e.what());
                code = 3;
            }
            std::fflush(stdout);
            _exit(code);
        }
        close(fds[1]);
        std::string msg;
        char buf[1 << 16];
        for (;;) {
            const ssize_t n = read(fds[0], buf, sizeof buf);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) break;
            msg.append(buf, static_cast<std::size_t>(n));
        }
        close(fds[0]);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
            return decode(msg, rss_mb, ledger, layers);
        ++*deaths;
        if (WIFSIGNALED(status))
            std::printf("  %s: session process killed by signal %d; run again\n",
                        plan.label.c_str(), WTERMSIG(status));
        else
            std::printf("  %s: session process exited with %d; run again\n",
                        plan.label.c_str(), WEXITSTATUS(status));
    }
    ledger.check(plan.label + ": run completes", false, true);
    return {};
}

/// Runs every session `runs` times per pass, in a seeded order, and
/// passes until another would not fit in the run's seconds.
///
/// job_s is the median over the PC sessions of each session's fastest
/// run.  The fastest, because load from outside the process only ever
/// adds time.  The median rather than the sum, because on a loaded host
/// the thread engine slips the message-heavy programs (sstwod,
/// big-message, oned) into a mode 1.5 to 5 times slower for whole runs:
/// over four sets of ten runs the sum's quartile spread reached 0.38 of
/// its median, the median's 0.16.  The sum is reported as
/// diagnosis_total_s.
///
/// The perturbation pair runs as adjacent couples, one run under the PC
/// and one tool-only, which side first alternating from couple to
/// couple; perturbation is the median over couples of their ratio.
/// Host load drifts over seconds (the PC runs of one pass took 0.86 to
/// 0.98 s while its tool-only runs, minutes apart, took 0.79 to 0.87 s),
/// so only runs close in time are compared.  A median rather than a
/// minimum, because the tool-only small-messages run also has an
/// occasional fast mode that a minimum would pick.
EndToEnd measure(const std::vector<Plan>& plans, std::mt19937_64& rng, const Args& args,
                 bool traced, Ledger& ledger, Layers* layers, int* passes, int* deaths,
                 std::vector<Metric>* apart) {
    const Plan* tool_only = nullptr;
    for (const Plan& p : plans)
        if (p.role == Role::PerturbToolOnly) tool_only = &p;
    // A unit is one session run, or one couple of the perturbation pair.
    std::vector<std::pair<const Plan*, const Plan*>> order;
    for (const Plan& p : plans) {
        if (p.role == Role::PerturbToolOnly) continue;
        for (int i = 0; i < p.runs; ++i)
            order.emplace_back(&p, p.role == Role::PerturbPc ? tool_only : nullptr);
    }
    std::vector<double> setup;
    std::map<std::string, std::vector<double>> walls;  // by label
    std::vector<double> couple_ratios;
    double rss_mb = peak_rss_mb();
    const auto run = [&](const Plan& plan) {
        double session_rss = 0.0;
        const SessionTimes s = run_session_isolated(plan, args.smoke, traced, ledger,
                                                    layers, &session_rss, deaths);
        rss_mb = std::max(rss_mb, session_rss);
        std::printf("  %-34s setup %.4f s  wall %.3f s\n", plan.label.c_str(), s.setup_s,
                    s.wall_s);
        std::fflush(stdout);
        setup.push_back(s.setup_s);
        walls[plan.label].push_back(s.wall_s);
        return s.wall_s;
    };
    const double start = now_s();
    double last = 0.0;
    *passes = 0;
    do {
        const double t = now_s();
        std::shuffle(order.begin(), order.end(), rng);
        for (const auto& [plan, partner] : order) {
            if (!partner) {
                run(*plan);
                continue;
            }
            const bool pc_first = couple_ratios.size() % 2 == 0;
            const double first = run(pc_first ? *plan : *partner);
            const double second = run(pc_first ? *partner : *plan);
            couple_ratios.push_back(pc_first ? first / second : second / first);
        }
        last = now_s() - t;
        ++*passes;
    } while (now_s() - start + last <= args.seconds);

    EndToEnd e;
    std::vector<double> diagnosis;
    for (const Plan& plan : plans) {
        const std::vector<double>& w = walls.at(plan.label);
        const double fastest = *std::min_element(w.begin(), w.end());
        if (plan.role == Role::Graded || plan.role == Role::PerturbPc)
            diagnosis.push_back(fastest);
        if (plan.role == Role::GradedApart && apart)
            apart->push_back({plan.program + "_s", fastest, "s"});
    }
    e.job_s = median_of(diagnosis);
    if (apart) {
        double total = 0.0;
        for (double d : diagnosis) total += d;
        apart->push_back({"diagnosis_total_s", total, "s"});
    }
    e.setup_s = median_of(setup);
    e.perturbation = median_of(couple_ratios);
    e.peak_rss_mb = rss_mb;
    return e;
}

WorkloadResult run_pc(const Args& args, const std::vector<Plan>& plans) {
    WorkloadResult r;
    r.engine = "thread";
    r.flavors = "lam,mpich";
    std::mt19937_64 rng(args.seed);
    int passes = 0;
    std::vector<Metric> apart;
    const EndToEnd untraced =
        measure(plans, rng, args, false, r.ledger, nullptr, &passes, &r.deaths, &apart);
    r.end_to_end = end_to_end_metrics(untraced);
    r.named = {{"diagnosis_s", untraced.job_s, "s"},
               {"perturbation", untraced.perturbation, "ratio"},
               {"setup_s", untraced.setup_s, "s"},
               {"peak_rss_mb", untraced.peak_rss_mb, "MB"},
               {"passes", static_cast<double>(passes), "count"}};
    r.named.insert(r.named.end(), apart.begin(), apart.end());
    if (args.trace) {
        // One traced pass after the untraced ones, each session run once
        // (the perturbation pair as one couple) so that a traced run
        // stays well inside its time limit on a loaded host; the
        // difference is the cost of tracing.  Call times and counters
        // sum over that pass.
        std::vector<Plan> once_each = plans;
        for (Plan& p : once_each) p.runs = 1;
        Layers layers;
        Args once = args;
        once.seconds = 0;
        int traced_passes = 0;
        const EndToEnd traced = measure(once_each, rng, once, true, r.ledger, &layers,
                                        &traced_passes, &r.deaths, nullptr);
        layers.value["mdl.parse_ms"] = mdl_parse_ms(20);
        add_overhead(traced, untraced, &layers);
        r.per_layer = per_layer_metrics(layers);
        for (const char* s : {"simmpi.call_us.pt2pt", "simmpi.call_us.coll",
                              "simmpi.call_us.rma_active", "simmpi.call_us.rma_passive",
                              "simmpi.rma.epoch_wait_us", "simmpi.call_us.spawn",
                              "pc.experiment_ms", "core.metric_request_us"})
            r.named.push_back({std::string(s) + ".samples",
                               static_cast<double>(layers.samples.count(s)), "count"});
    }
    return r;
}

}  // namespace

WorkloadResult run_pc_mpi1(const Args& args) { return run_pc(args, mpi1_plans()); }
WorkloadResult run_pc_mpi2(const Args& args) { return run_pc(args, mpi2_plans()); }

}  // namespace e2e
