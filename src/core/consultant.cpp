#include "core/consultant.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <sstream>
#include <thread>

#include "core/metrics.hpp"
#include "util/clock.hpp"

namespace m2p::core {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
    return s.rfind(prefix, 0) == 0;
}

/// Depth of a node's focus (how many refinements were applied); used
/// to bound the search.
int focus_depth(const Focus& f) {
    auto seg = [](const std::string& p) {
        return static_cast<int>(std::count(p.begin(), p.end(), '/')) - 1;
    };
    return seg(f.code) + seg(f.syncobj) + seg(f.process) + seg(f.machine);
}

/// Flight-recorder events outlive the consultant, so experiment events
/// must carry string-literal names, not pointers into hypotheses_.
const char* static_hypothesis_name(const std::string& name) {
    if (name == "ExcessiveSyncWaitingTime") return "ExcessiveSyncWaitingTime";
    if (name == "ExcessiveIOBlockingTime") return "ExcessiveIOBlockingTime";
    if (name == "CPUBound") return "CPUBound";
    return "Hypothesis";
}

}  // namespace

bool PCReport::found(const std::string& hypothesis,
                     const std::string& focus_substr) const {
    std::deque<const PCNode*> q;
    for (const auto& r : roots) q.push_back(r.get());
    while (!q.empty()) {
        const PCNode* n = q.front();
        q.pop_front();
        const bool focus_match =
            focus_substr == "WholeProgram"
                ? n->focus.is_whole_program()
                : n->focus.to_string().find(focus_substr) != std::string::npos;
        if (n->tested_true && n->hypothesis == hypothesis && focus_match) return true;
        for (const auto& c : n->children) q.push_back(c.get());
    }
    return false;
}

PerformanceConsultant::PerformanceConsultant(PerfTool& tool, Options opts)
    : tool_(tool), opts_(opts) {
    const double sync = opts_.sync_threshold >= 0
                            ? opts_.sync_threshold
                            : tool_.tunable("PC_SyncThreshold", 0.2);
    const double io = opts_.io_threshold >= 0 ? opts_.io_threshold
                                              : tool_.tunable("PC_IoThreshold", 0.2);
    const double cpu = opts_.cpu_threshold >= 0 ? opts_.cpu_threshold
                                                : tool_.tunable("PC_CpuThreshold", 0.3);
    hypotheses_ = {
        {"ExcessiveSyncWaitingTime", "sync_wait_inclusive", sync},
        {"ExcessiveIOBlockingTime", "io_wait_inclusive", io},
        {"CPUBound", "cpu", cpu},
    };
}

const PerformanceConsultant::HypothesisDef& PerformanceConsultant::hypothesis(
    const std::string& name) const {
    for (const auto& h : hypotheses_)
        if (h.name == name) return h;
    throw std::out_of_range("unknown hypothesis " + name);
}

PCReport PerformanceConsultant::search(const std::function<bool()>& still_running) {
    PCReport report;
    const double t_begin = util::wall_seconds();

    std::deque<PCNode*> frontier;
    for (const auto& h : hypotheses_) {
        auto n = std::make_unique<PCNode>();
        n->hypothesis = h.name;
        n->threshold = h.threshold;
        frontier.push_back(n.get());
        report.roots.push_back(std::move(n));
    }
    std::set<std::string> visited;

    // Collects false nodes worth retrying: hypothesis roots and false
    // children of true parents.  The Performance Consultant evaluates
    // continually while the application runs -- a hypothesis that was
    // false during startup may become true once the steady state is
    // reached (and vice versa; latest result wins).
    auto collect_retestable = [&report] {
        std::vector<PCNode*> out;
        struct Frame {
            PCNode* node;
            bool parent_true;
        };
        std::deque<Frame> q;
        for (const auto& r : report.roots) q.push_back({r.get(), true});
        while (!q.empty()) {
            Frame f = q.front();
            q.pop_front();
            if (f.parent_true && f.node->tested && !f.node->tested_true)
                out.push_back(f.node);
            for (const auto& c : f.node->children)
                q.push_back({c.get(), f.node->tested_true});
        }
        return out;
    };

    // Survivor re-planning state: the death epoch the current plan was
    // built against.  When it moves, the search re-plans over the
    // survivors instead of carrying truncated results forward.
    std::uint64_t planned_epoch = tool_.world().death_epoch();
    const auto focus_alive = [this](const Focus& f) {
        return !tool_.ranks_for_focus(f).empty();
    };
    // Truncated-but-retestable nodes: their values cover a shrinking
    // process set, so re-measure them over the survivors.
    auto collect_truncated = [&report, &focus_alive] {
        std::vector<PCNode*> out;
        std::deque<PCNode*> q;
        for (const auto& r : report.roots) q.push_back(r.get());
        while (!q.empty()) {
            PCNode* n = q.front();
            q.pop_front();
            if (n->tested && n->truncated && focus_alive(n->focus)) out.push_back(n);
            for (const auto& c : n->children) q.push_back(c.get());
        }
        return out;
    };

    while (still_running() &&
           util::wall_seconds() - t_begin < opts_.max_search_seconds) {
        if (const std::uint64_t epoch = tool_.world().death_epoch();
            epoch != planned_epoch) {
            planned_epoch = epoch;
            // Ranks died since the plan was drawn up: drop queued
            // experiments whose focus has no live rank left (their
            // /Process resources are retired) and re-enqueue truncated
            // results for a clean survivor measurement.
            std::erase_if(frontier,
                          [&](PCNode* n) { return !focus_alive(n->focus); });
            for (PCNode* n : collect_truncated())
                if (std::find(frontier.begin(), frontier.end(), n) == frontier.end())
                    frontier.push_back(n);
        }
        if (frontier.empty()) {
            for (PCNode* n : collect_retestable()) frontier.push_back(n);
            if (frontier.empty()) break;
        }
        std::vector<PCNode*> batch;
        while (!frontier.empty() && static_cast<int>(batch.size()) < opts_.max_batch) {
            batch.push_back(frontier.front());
            frontier.pop_front();
        }
        report.experiments_run += static_cast<int>(batch.size());
        tool_.count_pc(PerfTool::PcTally::Started, batch.size());
        evaluate_batch(batch, still_running);
        for (PCNode* n : batch) {
            if (n->tested && !n->truncated && tool_.world().death_epoch() != 0) {
                ++report.post_loss_experiments;
                tool_.count_pc(PerfTool::PcTally::PostLoss);
            }
        }
        for (PCNode* n : batch) {
            if (!n->tested_true) continue;
            if (focus_depth(n->focus) >= opts_.max_depth) continue;
            for (auto& child : refine(*n)) {
                const std::string key =
                    child->hypothesis + "|" + child->focus.to_string();
                if (!visited.insert(key).second) continue;
                frontier.push_back(child.get());
                n->children.push_back(std::move(child));
            }
        }
    }
    report.search_seconds = util::wall_seconds() - t_begin;
    return report;
}

double PerformanceConsultant::evaluate_batch(
    std::vector<PCNode*>& batch, const std::function<bool()>& still_running) {
    struct Experiment {
        PCNode* node;
        std::shared_ptr<MetricFocusPair> pair;
        double total0 = 0.0;
    };
    std::vector<Experiment> exps;
    MetricManager& mm = tool_.metrics();
    for (PCNode* n : batch) {
        const HypothesisDef& h = hypothesis(n->hypothesis);
        auto pair = mm.request(h.metric, n->focus);
        if (!pair) {
            n->tested = false;  // focus not expressible for this metric
            continue;
        }
        tool_.world().trace_event(trace::EventKind::ExperimentStart, -1,
                                  static_hypothesis_name(n->hypothesis),
                                  focus_depth(n->focus));
        exps.push_back({n, pair, pair->total()});
    }
    // Snapshot the failure state: any death during the evaluation
    // interval means these experiments measured a shrinking process
    // set, so their values are flagged rather than trusted blindly.
    const std::uint64_t deaths0 = tool_.world().death_epoch();
    const double t0 = util::wall_seconds();
    // Sleep in slices so a finished application cuts the wave short.
    while (util::wall_seconds() - t0 < opts_.eval_interval && still_running())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double elapsed = std::max(1e-6, util::wall_seconds() - t0);
    const bool lost_ranks = tool_.world().death_epoch() != deaths0;
    if (lost_ranks)
        tool_.world().trace_event(trace::EventKind::ExperimentTruncated, -1,
                                  "rank_lost_mid_experiment",
                                  static_cast<std::int64_t>(exps.size()));

    for (Experiment& e : exps) {
        // Overwrite, don't accumulate: a clean re-test over the
        // survivors clears the stale truncation verdict.
        e.node->truncated = lost_ranks;
        const double delta = e.pair->total() - e.total0;
        const double cpus = delta / elapsed;
        std::size_t denom =
            std::max<std::size_t>(1, tool_.ranks_for_focus(e.node->focus).size());
        if (e.node->hypothesis == "CPUBound") {
            // CPU consumption is bounded by hardware capacity, not by
            // the process count: on an oversubscribed host (fewer
            // cores than ranks) a fully CPU-bound program still only
            // burns `cores` CPUs.  On the paper's cluster (a core per
            // process) this equals the process count.
            const std::size_t cores =
                std::max<unsigned>(1, std::thread::hardware_concurrency());
            denom = std::min(denom, cores);
        }
        e.node->value = cpus / static_cast<double>(denom);
        e.node->tested = true;
        e.node->tested_true = e.node->value > e.node->threshold;
        tool_.count_pc(PerfTool::PcTally::Completed);
        if (lost_ranks) tool_.count_pc(PerfTool::PcTally::Truncated);
        if (e.node->tested_true) tool_.count_pc(PerfTool::PcTally::TestedTrue);
        tool_.world().trace_event(trace::EventKind::ExperimentStop, -1,
                                  static_hypothesis_name(e.node->hypothesis),
                                  e.node->tested_true ? 1 : 0);
        mm.release(e.pair);
    }
    return elapsed;
}

std::vector<std::unique_ptr<PCNode>> PerformanceConsultant::refine(const PCNode& node) {
    // Refinement discipline (keeps the search tree in the shape of the
    // paper's condensed figures and the experiment count bounded):
    //  - the Code axis refines only while the SyncObject axis is
    //    unrefined (drill functions first, then attach the sync
    //    object, as in Fig 3's Gsend_message -> MPI_Send -> comm);
    //  - the SyncObject axis refines anywhere (sync hypothesis only);
    //  - the Process axis refines only for CPUBound and only from the
    //    hypothesis root (Fig 9's "not every process was found to be
    //    CPU bound in waste_time").
    std::vector<std::unique_ptr<PCNode>> out;
    if (node.focus.syncobj == "/SyncObject") refine_code_axis(node, &out);
    if (node.hypothesis == "ExcessiveSyncWaitingTime" ||
        node.hypothesis == "ExcessiveIOBlockingTime")
        refine_syncobj_axis(node, &out);
    if (opts_.refine_processes && node.hypothesis == "CPUBound" &&
        node.focus.code == "/Code" && node.focus.syncobj == "/SyncObject")
        refine_process_axis(node, &out);
    if (opts_.refine_machines && node.focus.code == "/Code" &&
        node.focus.syncobj == "/SyncObject" && node.focus.process == "/Process")
        refine_machine_axis(node, &out);
    return out;
}

void PerformanceConsultant::refine_code_axis(const PCNode& node,
                                             std::vector<std::unique_ptr<PCNode>>* out) {
    instr::Registry& reg = tool_.world().registry();
    std::vector<std::string> candidates;  // full code paths

    const std::string& code = node.focus.code;
    const auto segs = static_cast<int>(std::count(code.begin(), code.end(), '/'));

    // The sync/IO hypotheses drill into the library calls the metric
    // actually covers; instrumenting every library symbol would blow
    // Paradyn's instrumentation-cost budget for no benefit.
    auto add_hypothesis_calls = [&](const std::string& base) {
        const char* set = node.hypothesis == "ExcessiveIOBlockingTime"
                              ? "io_calls"
                              : "mpi_sync_calls";
        for (instr::FuncId f : tool_.resolve_funcset(set)) {
            const instr::FunctionInfo& fi = reg.info(f);
            // Display the implementation-visible symbol (MPI_* on LAM,
            // PMPI_* on MPICH's weak-symbol build -- paper Figs 3 vs 7).
            std::string name = fi.name;
            if (tool_.world().flavor() == simmpi::Flavor::Lam &&
                starts_with(name, "PMPI_"))
                name = name.substr(1);
            candidates.push_back(base + "/" + name);
        }
    };
    auto add_app_functions = [&](const std::string& module, const std::string& base) {
        int added = 0;
        for (instr::FuncId f : reg.functions_in_module(module)) {
            const instr::FunctionInfo& fi = reg.info(f);
            if (!instr::has_category(fi.categories, instr::Category::AppCode)) continue;
            if (added++ >= 2 * opts_.max_children_per_axis) break;
            candidates.push_back(base + "/" + fi.name);
        }
    };

    if (code == "/Code") {
        // Whole program -> modules.  CPU refinement only descends into
        // application code; sync/IO also descend into the libraries.
        for (const std::string& m : reg.modules()) {
            bool has_app = false;
            for (instr::FuncId f : reg.functions_in_module(m))
                has_app = has_app || instr::has_category(reg.info(f).categories,
                                                         instr::Category::AppCode);
            if (node.hypothesis == "CPUBound" && !has_app) continue;
            if (node.hypothesis != "CPUBound" && !has_app && m != "libmpi" &&
                m != "libc")
                continue;
            candidates.push_back("/Code/" + m);
        }
    } else if (segs == 2) {
        // Module -> its functions.
        const std::string module = ResourceHierarchy::leaf(code);
        if (module == "libmpi" || module == "libc") {
            if (node.hypothesis != "CPUBound") add_hypothesis_calls(code);
        } else {
            add_app_functions(module, code);
        }
    } else {
        // Application function -> the MPI / transport calls made
        // inside it.  (CPUBound stops at a function.)
        const std::string leaf = ResourceHierarchy::leaf(code);
        const bool leaf_is_app = reg.find(leaf, "libmpi") == instr::kInvalidFunc &&
                                 reg.find(leaf, "libc") == instr::kInvalidFunc;
        if (!leaf_is_app || node.hypothesis == "CPUBound") return;
        add_hypothesis_calls(code);
    }

    for (const std::string& c : candidates) {
        auto n = std::make_unique<PCNode>();
        n->hypothesis = node.hypothesis;
        n->threshold = node.threshold;
        n->focus = node.focus;
        n->focus.code = c;
        out->push_back(std::move(n));
    }
}

void PerformanceConsultant::refine_syncobj_axis(
    const PCNode& node, std::vector<std::unique_ptr<PCNode>>* out) {
    ResourceHierarchy& rh = tool_.hierarchy();
    std::vector<std::string> candidates;
    const std::string& so = node.focus.syncobj;
    if (so == "/SyncObject") {
        if (node.hypothesis == "ExcessiveIOBlockingTime") {
            // I/O blocking refines over open files (MPI-I/O extension).
            for (const std::string& c : rh.children("/SyncObject/File", false))
                candidates.push_back(c);
        } else {
            // Retired resources (freed windows) are excluded from the
            // search (paper 4.2.3).
            for (const std::string& c : rh.children("/SyncObject/Message", false))
                candidates.push_back(c);
            candidates.push_back("/SyncObject/Barrier");
            for (const std::string& c : rh.children("/SyncObject/Window", false))
                candidates.push_back(c);
        }
    } else if (starts_with(so, "/SyncObject/Message/comm_") &&
               so.find("tag_") == std::string::npos) {
        for (const std::string& c : rh.children(so, false)) candidates.push_back(c);
    }
    int added = 0;
    for (const std::string& c : candidates) {
        if (added++ >= opts_.max_children_per_axis) break;
        auto n = std::make_unique<PCNode>();
        n->hypothesis = node.hypothesis;
        n->threshold = node.threshold;
        n->focus = node.focus;
        n->focus.syncobj = c;
        out->push_back(std::move(n));
    }
}

void PerformanceConsultant::refine_process_axis(
    const PCNode& node, std::vector<std::unique_ptr<PCNode>>* out) {
    if (node.focus.process != "/Process") return;
    int added = 0;
    for (const std::string& c : tool_.hierarchy().children("/Process", false)) {
        if (added++ >= opts_.max_children_per_axis) break;
        auto n = std::make_unique<PCNode>();
        n->hypothesis = node.hypothesis;
        n->threshold = node.threshold;
        n->focus = node.focus;
        n->focus.process = c;
        out->push_back(std::move(n));
    }
}

void PerformanceConsultant::refine_machine_axis(
    const PCNode& node, std::vector<std::unique_ptr<PCNode>>* out) {
    if (node.focus.machine != "/Machine") return;
    int added = 0;
    for (const std::string& c : tool_.hierarchy().children("/Machine", false)) {
        if (added++ >= opts_.max_children_per_axis) break;
        auto n = std::make_unique<PCNode>();
        n->hypothesis = node.hypothesis;
        n->threshold = node.threshold;
        n->focus = node.focus;
        n->focus.machine = c;
        out->push_back(std::move(n));
    }
}

std::string PerformanceConsultant::render_condensed(const PCReport& report,
                                                    bool include_false_roots) {
    std::ostringstream os;
    struct Frame {
        const PCNode* node;
        int depth;
    };
    auto describe = [](const PCNode& n) {
        std::string d;
        if (n.focus.is_whole_program()) return std::string("WholeProgram");
        if (n.focus.code != "/Code") d += n.focus.code;
        if (n.focus.syncobj != "/SyncObject") d += (d.empty() ? "" : " ") + n.focus.syncobj;
        if (n.focus.process != "/Process") d += (d.empty() ? "" : " ") + n.focus.process;
        if (n.focus.machine != "/Machine") d += (d.empty() ? "" : " ") + n.focus.machine;
        return d;
    };
    if (report.outcome.status == RunOutcome::Status::RanksLost)
        os << "(degraded search: " << report.outcome.epitaphs.size()
           << " rank(s) lost during the run; findings cover survivors only)\n";
    else if (report.outcome.status == RunOutcome::Status::Recovered)
        os << "(recovered search: " << report.outcome.epitaphs.size()
           << " rank(s) lost; survivors shrank and the search re-measured "
           << report.post_loss_experiments << " experiment(s) over them)\n";
    else if (report.outcome.status == RunOutcome::Status::Aborted)
        os << "(run aborted, code " << report.outcome.abort_code << ")\n";
    for (const auto& root : report.roots) {
        if (!root->tested_true && !include_false_roots) continue;
        std::vector<Frame> stack{{root.get(), 0}};
        while (!stack.empty()) {
            Frame f = stack.back();
            stack.pop_back();
            os << std::string(static_cast<std::size_t>(f.depth) * 2, ' ');
            if (f.depth == 0) os << f.node->hypothesis << ": ";
            os << describe(*f.node);
            if (!f.node->tested)
                os << "  (untested)";
            else
                os << "  " << (f.node->tested_true ? "TRUE" : "false") << " (value "
                   << f.node->value << ", threshold " << f.node->threshold << ")";
            if (f.node->truncated) os << "  [truncated: rank lost mid-experiment]";
            os << "\n";
            // Children in reverse so the stack pops them in order;
            // only true children appear in the condensed view.
            for (auto it = f.node->children.rbegin(); it != f.node->children.rend();
                 ++it) {
                if ((*it)->tested_true) stack.push_back({it->get(), f.depth + 1});
            }
        }
    }
    return os.str();
}

}  // namespace m2p::core
