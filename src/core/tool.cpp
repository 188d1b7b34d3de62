#include "core/tool.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "core/metrics.hpp"
#include "mdl/default_metrics.hpp"
#include "simmpi/launcher.hpp"
#include "util/clock.hpp"

namespace m2p::core {

namespace {

/// MDL runtime services implemented against the tool's registries.
class ToolServices final : public mdl::Services {
public:
    explicit ToolServices(PerfTool& tool) : tool_(tool) {}

    std::int64_t type_size(std::int64_t datatype_handle) const override {
        return simmpi::datatype_size(static_cast<simmpi::Datatype>(datatype_handle));
    }
    std::int64_t window_unique_id(std::int64_t win_handle) const override {
        return tool_.window_uid(static_cast<simmpi::Win>(win_handle));
    }
    std::int64_t comm_unique_id(std::int64_t comm_handle) const override {
        // simmpi communicator handles are never reused, so the handle
        // itself is a stable identity for the tool.
        return comm_handle;
    }

private:
    PerfTool& tool_;
};

}  // namespace

PerfTool::PerfTool(simmpi::World& world, Options opts)  // NOLINT
    : world_(world), opts_(std::move(opts)), pvar_scope_(world.pvars()) {
    mdl_ = mdl::parse(opts_.mdl_source.empty() ? mdl::default_metrics_source()
                                               : opts_.mdl_source);
    // PC lifecycle tallies as registry-owned pvars.  The scope detaches
    // them in the destructor; the storage stays with the registry.
    const std::pair<const char*, const char*> pc_vars[] = {
        {"pc.experiments.started", "PC experiments launched"},
        {"pc.experiments.completed", "PC experiments measured to completion"},
        {"pc.experiments.tested_true", "experiments whose hypothesis held"},
        {"pc.experiments.truncated", "experiments truncated by a rank death"},
        {"pc.experiments.post_loss", "clean experiments completed after a loss"},
    };
    static_assert(std::size(pc_vars) == std::tuple_size_v<decltype(pc_tally_)>);
    for (std::size_t i = 0; i < pc_tally_.size(); ++i)
        pc_tally_[i] = pvar_scope_.add_owned_counter(pc_vars[i].first, "experiments",
                                                     pc_vars[i].second);
    services_ = std::make_shared<ToolServices>(*this);
    metrics_ = std::make_unique<MetricManager>(*this, opts_.bin_width, opts_.bins);
    frontend_ = std::thread([this] { frontend_loop(); });
    install_discovery();
    scan_code_resources();
    if (opts_.spawn_method == SpawnMethod::Intercept)
        world_.set_profiling_layer(this);
    world_.set_death_observer(
        [this](const simmpi::Epitaph& e) { on_rank_death(e); });
}

PerfTool::~PerfTool() {
    // Unhook before tearing anything down: a rank dying during
    // destruction must not post into a stopping frontend.
    world_.set_death_observer(nullptr);
    if (world_.profiling_layer() == this) world_.set_profiling_layer(nullptr);
    metrics_.reset();  // stop the sampler before tearing down state
    {
        std::lock_guard lk(q_mu_);
        stop_ = true;
    }
    q_cv_.notify_all();
    if (frontend_.joinable()) frontend_.join();
    // Detach pc.experiments.* so a later tool on the same world can
    // register them again.
    pvar_scope_.reset();
}

double PerfTool::tunable(const std::string& name, double fallback) const {
    const auto it = mdl_.tunables.find(name);
    return it == mdl_.tunables.end() ? fallback : it->second;
}

// ---------------------------------------------------------------------------
// Daemon -> frontend report channel
// ---------------------------------------------------------------------------

void PerfTool::post(Report r) {
    {
        std::lock_guard lk(mu_);
        enqueue_locked(std::move(r));
    }
    q_cv_.notify_all();
}

void PerfTool::enqueue_locked(Report r) {
    for (Daemon& d : daemons_)
        if (d.node == r.daemon_node) ++d.reports_sent;
    std::lock_guard lk(q_mu_);
    queue_.push_back(std::move(r));
}

void PerfTool::frontend_loop() {
    for (;;) {
        Report r;
        {
            std::unique_lock lk(q_mu_);
            q_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_) return;
                continue;
            }
            r = std::move(queue_.front());
            queue_.pop_front();
            applying_ = true;
        }
        switch (r.kind) {
            case Report::Kind::NewResource:
                if (!hierarchy_.exists(r.path)) hierarchy_.add(r.path, r.rkind);
                if (!r.display.empty()) hierarchy_.set_display(r.path, r.display);
                // A rank can die while its discovery reports are still in
                // flight, putting the Retire ahead of the NewResource in
                // the queue; honour the stashed retire now.
                if (pending_retires_.erase(r.path) != 0) hierarchy_.retire(r.path);
                break;
            case Report::Kind::NameUpdate:
                if (hierarchy_.exists(r.path)) hierarchy_.set_display(r.path, r.display);
                break;
            case Report::Kind::Retire:
                if (hierarchy_.exists(r.path)) hierarchy_.retire(r.path);
                else pending_retires_.insert(r.path);
                break;
        }
        {
            std::lock_guard lk(q_mu_);
            applying_ = false;
        }
        q_cv_.notify_all();
    }
}

void PerfTool::flush() {
    std::unique_lock lk(q_mu_);
    q_cv_.wait(lk, [&] { return queue_.empty() && !applying_; });
}

// ---------------------------------------------------------------------------
// Process management
// ---------------------------------------------------------------------------

void PerfTool::on_launch(const std::vector<int>& global_ranks) {
    for (int g : global_ranks) add_process(g);
    scan_code_resources();
}

void PerfTool::add_process(int global_rank) {
    std::string node;
    {
        std::lock_guard lk(mu_);
        if (known_procs_.count(global_rank)) return;
        known_procs_.insert(global_rank);
        node = world_.proc(global_rank).node;
        rank_node_[global_rank] = node;
        auto it = std::find_if(daemons_.begin(), daemons_.end(),
                               [&](const Daemon& d) { return d.node == node; });
        if (it == daemons_.end()) {
            daemons_.push_back(Daemon{node, {global_rank}, 0});
        } else {
            it->ranks.push_back(global_rank);
        }
    }
    const std::string pname = "p" + std::to_string(global_rank);
    post({Report::Kind::NewResource, "/Machine/" + node, ResourceKind::Machine, "",
          node});
    post({Report::Kind::NewResource, "/Machine/" + node + "/" + pname,
          ResourceKind::Process, "", node});
    post({Report::Kind::NewResource, "/Process/" + pname, ResourceKind::Process,
          world_.proc(global_rank).program, node});
}

std::string PerfTool::process_path(int global_rank) const {
    return "/Process/p" + std::to_string(global_rank);
}

void PerfTool::on_rank_death(const simmpi::Epitaph& e) {
    // Runs on whatever thread recorded the death (the dying rank or
    // the join watchdog); it only posts reports, the frontend thread
    // applies them.  The dead process is retired, not removed: the UI
    // greys it out, and children("/Process", false) -- what the PC's
    // process refinement uses -- excludes it from future experiments.
    std::string node;
    {
        std::lock_guard lk(mu_);
        const auto it = rank_node_.find(e.global_rank);
        if (it != rank_node_.end()) {
            node = it->second;
        } else {
            // Death beat discovery: the daemon never registered this
            // rank, but the world's process table has it from launch.
            // Post the retires anyway -- the frontend stashes them if
            // the NewResource reports have not landed yet.
            node = world_.proc(e.global_rank).node;
        }
    }
    const std::string pname = "p" + std::to_string(e.global_rank);
    post({Report::Kind::Retire, "/Process/" + pname, ResourceKind::Process, "",
          node});
    post({Report::Kind::Retire, "/Machine/" + node + "/" + pname,
          ResourceKind::Process, "", node});
    world_.trace_event(trace::EventKind::ResourceRetired, -1, "process",
                       e.global_rank);
}

std::vector<Daemon> PerfTool::daemons() const {
    std::lock_guard lk(mu_);
    return daemons_;
}

int PerfTool::known_process_count() const {
    std::lock_guard lk(mu_);
    return static_cast<int>(known_procs_.size());
}

std::vector<int> PerfTool::ranks_for_focus(const Focus& f) const {
    std::lock_guard lk(mu_);
    std::vector<int> out;
    const bool have_deaths = world_.death_epoch() != 0;
    for (int g : known_procs_) {
        // Dead ranks no longer contribute samples; counting them would
        // deflate per-process normalization for the survivors.
        if (have_deaths && world_.rank_dead(g)) continue;
        const std::string pname = "p" + std::to_string(g);
        if (f.process != "/Process" && f.process != "/Process/" + pname) continue;
        if (f.machine != "/Machine") {
            const std::string& node = rank_node_.at(g);
            const std::string base = "/Machine/" + node;
            if (f.machine != base && f.machine != base + "/" + pname) continue;
        }
        out.push_back(g);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Code resources
// ---------------------------------------------------------------------------

bool PerfTool::function_visible(const instr::FunctionInfo& fi) const {
    // LAM builds two library copies, so users see the MPI_* strong
    // symbols; MPICH's default weak-symbol build resolves them to the
    // PMPI_* definitions (paper section 4.1.1).
    if (fi.module != "libmpi") return true;
    const bool is_pmpi = fi.name.rfind("PMPI_", 0) == 0;
    return world_.flavor() == simmpi::Flavor::Lam ? !is_pmpi : is_pmpi;
}

void PerfTool::scan_code_resources() {
    instr::Registry& reg = world_.registry();
    const std::size_t n = reg.function_count();
    for (instr::FuncId f = 0; f < n; ++f) {
        const instr::FunctionInfo& fi = reg.info(f);
        if (!function_visible(fi)) continue;
        const std::string mod_path = "/Code/" + fi.module;
        post({Report::Kind::NewResource, mod_path, ResourceKind::Module, "", ""});
        post({Report::Kind::NewResource, mod_path + "/" + fi.name,
              ResourceKind::Function, "", ""});
    }
}

// ---------------------------------------------------------------------------
// Discovery instrumentation (windows, communicators, names, spawn)
// ---------------------------------------------------------------------------

void PerfTool::install_discovery() {
    instr::Registry& reg = world_.registry();
    const simmpi::FuncIds& f = world_.fids();

    auto node_of = [this](int rank) {
        std::lock_guard lk(mu_);
        const auto it = rank_node_.find(rank);
        return it == rank_node_.end() ? std::string() : it->second;
    };
    (void)node_of;

    // Window discovery: instrument the return of MPI_Win_create to
    // read the new handle (paper 4.2.1).
    reg.insert(f.PMPI_Win_create, instr::Where::Return,
               [this](const instr::CallContext& ctx) {
                   if (ctx.args.size() > 5 && ctx.args[5] >= 0)
                       discover_window(ctx.args[5]);
               });
    // Window retirement at MPI_Win_free entry.
    reg.insert(f.PMPI_Win_free, instr::Where::Entry,
               [this](const instr::CallContext& ctx) {
                   if (!ctx.args.empty()) retire_window(ctx.args[0]);
               });
    // Object naming: update reports travel daemon -> frontend and
    // change the resource display (paper 4.2.3).
    reg.insert(f.PMPI_Comm_set_name, instr::Where::Entry,
               [this](const instr::CallContext& ctx) {
                   if (ctx.args.empty() || ctx.str_args.empty()) return;
                   discover_comm(ctx.args[0], -1);
                   post({Report::Kind::NameUpdate,
                         "/SyncObject/Message/comm_" + std::to_string(ctx.args[0]),
                         ResourceKind::Communicator, std::string(ctx.str_args[0]), ""});
               });
    reg.insert(f.PMPI_Win_set_name, instr::Where::Entry,
               [this](const instr::CallContext& ctx) {
                   if (ctx.args.empty() || ctx.str_args.empty()) return;
                   const std::int64_t uid = window_uid(
                       static_cast<simmpi::Win>(ctx.args[0]));
                   if (uid < 0) return;
                   post({Report::Kind::NameUpdate, window_path(uid),
                         ResourceKind::Window, std::string(ctx.str_args[0]), ""});
                   // LAM stores window names in the window's shadow
                   // communicator, so named windows also surface under
                   // /SyncObject/Message (paper Fig 23).
                   if (world_.flavor() == simmpi::Flavor::Lam) {
                       const simmpi::Comm shadow =
                           world_.win(static_cast<simmpi::Win>(ctx.args[0])).shadow_comm;
                       if (shadow != simmpi::MPI_COMM_NULL) {
                           discover_comm(shadow, -1);
                           post({Report::Kind::NameUpdate,
                                 "/SyncObject/Message/comm_" + std::to_string(shadow),
                                 ResourceKind::Communicator,
                                 std::string(ctx.str_args[0]), ""});
                       }
                   }
               });

    // File discovery (MPI-I/O extension): instrument MPI_File_open's
    // return for the new handle and the filename; retire at close.
    reg.insert(f.PMPI_File_open, instr::Where::Return,
               [this](const instr::CallContext& ctx) {
                   if (ctx.args.size() < 5 || ctx.args[4] < 0) return;
                   const std::string path =
                       "/SyncObject/File/file_" + std::to_string(ctx.args[4]);
                   const std::string display =
                       ctx.str_args.empty() ? "" : std::string(ctx.str_args[0]);
                   post({Report::Kind::NewResource, path, ResourceKind::Category,
                         display, ""});
               });
    reg.insert(f.PMPI_File_close, instr::Where::Entry,
               [this](const instr::CallContext& ctx) {
                   if (ctx.args.empty() || ctx.args[0] < 0) return;
                   post({Report::Kind::Retire,
                         "/SyncObject/File/file_" + std::to_string(ctx.args[0]),
                         ResourceKind::Category, "", ""});
               });

    // Communicator/tag discovery on message-passing entry points.
    struct CommArg {
        instr::FuncId fid;
        int comm_at;
        int tag_at;  ///< -1: no tag
    };
    const CommArg comm_args[] = {
        {f.PMPI_Send, 5, 4},   {f.PMPI_Recv, 5, 4},    {f.PMPI_Isend, 5, 4},
        {f.PMPI_Irecv, 5, 4},  {f.PMPI_Sendrecv, 10, 4}, {f.PMPI_Barrier, 0, -1},
        {f.PMPI_Bcast, 4, -1}, {f.PMPI_Reduce, 6, -1},  {f.PMPI_Allreduce, 5, -1},
    };
    for (const CommArg& ca : comm_args) {
        reg.insert(ca.fid, instr::Where::Entry,
                   [this, ca](const instr::CallContext& ctx) {
                       if (static_cast<std::size_t>(ca.comm_at) >= ctx.args.size())
                           return;
                       std::int64_t tag = -1;
                       if (ca.tag_at >= 0 &&
                           static_cast<std::size_t>(ca.tag_at) < ctx.args.size())
                           tag = ctx.args[static_cast<std::size_t>(ca.tag_at)];
                       discover_comm(ctx.args[static_cast<std::size_t>(ca.comm_at)], tag);
                   });
    }

    // Attach-method spawn discovery: at MPI_Comm_spawn return, ask the
    // MPI Debugging Interface for new processes (paper 4.2.2).  When
    // the implementation does not support MPIR -- as LAM and MPICH2
    // did not at the time -- the attach fails and is counted.
    if (opts_.spawn_method == SpawnMethod::Attach) {
        reg.insert(f.PMPI_Comm_spawn, instr::Where::Return,
                   [this](const instr::CallContext&) { attach_new_processes(); });
    }
}

void PerfTool::discover_window(std::int64_t handle) {
    std::string path;
    {
        std::lock_guard lk(mu_);
        const auto h = static_cast<simmpi::Win>(handle);
        if (win_uid_by_handle_.count(h)) return;
        // The MPI implementation may reuse a window identifier after a
        // previous window was freed, so the resource id is N-M where N
        // is the implementation id and M makes the pair unique.
        const int n = static_cast<int>(world_.win_impl_id(handle));
        if (n < 0) return;
        const int m = win_next_m_[n]++;
        const std::int64_t uid = next_win_uid_++;
        path = "/SyncObject/Window/" + std::to_string(n) + "-" + std::to_string(m);
        win_uid_by_handle_[h] = uid;
        win_path_by_uid_[uid] = path;
    }
    post({Report::Kind::NewResource, path, ResourceKind::Window, "", ""});
}

void PerfTool::retire_window(std::int64_t handle) {
    std::string path;
    {
        std::lock_guard lk(mu_);
        const auto it = win_uid_by_handle_.find(static_cast<simmpi::Win>(handle));
        if (it == win_uid_by_handle_.end()) return;
        path = win_path_by_uid_[it->second];
        // Keep the handle->uid mapping: other ranks' create/free
        // instrumentation for the same window may still fire, and
        // simmpi never reuses handle values (only implementation ids,
        // which the N-M scheme already disambiguates).
    }
    post({Report::Kind::Retire, path, ResourceKind::Window, "", ""});
    world_.trace_event(trace::EventKind::ResourceRetired, -1, "window", handle);
}

void PerfTool::discover_comm(std::int64_t handle, std::int64_t tag) {
    if (handle < 0) return;
    // Reserved high tags are MPI-internal traffic; they are not user
    // synchronization objects.
    const bool user_tag = tag >= 0 && tag < (1 << 28);
    {
        // Reports are queued under the same lock that marks the comm
        // and tag known, so queue order is discovery order: a tag
        // discovered by another rank can never overtake its
        // communicator's report to the front end.
        std::lock_guard lk(mu_);
        const auto c = static_cast<simmpi::Comm>(handle);
        const bool new_comm = known_comms_.insert(c).second;
        const bool new_tag =
            user_tag && known_tags_.insert({c, static_cast<int>(tag)}).second;
        if (!new_comm && !new_tag) return;
        const std::string cpath = "/SyncObject/Message/comm_" + std::to_string(handle);
        if (new_comm)
            enqueue_locked({Report::Kind::NewResource, cpath, ResourceKind::Communicator,
                            world_.object_name_of_comm(c), ""});
        if (new_tag)
            enqueue_locked({Report::Kind::NewResource,
                            cpath + "/tag_" + std::to_string(tag),
                            ResourceKind::MessageTag, "", ""});
    }
    q_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Window registry queries
// ---------------------------------------------------------------------------

std::int64_t PerfTool::window_uid(simmpi::Win handle) const {
    std::lock_guard lk(mu_);
    const auto it = win_uid_by_handle_.find(handle);
    return it == win_uid_by_handle_.end() ? -1 : it->second;
}

std::string PerfTool::window_path(std::int64_t uid) const {
    std::lock_guard lk(mu_);
    const auto it = win_path_by_uid_.find(uid);
    return it == win_path_by_uid_.end() ? std::string() : it->second;
}

std::int64_t PerfTool::window_uid_of_path(const std::string& path) const {
    std::lock_guard lk(mu_);
    for (const auto& [uid, p] : win_path_by_uid_)
        if (p == path) return uid;
    return -1;
}

// ---------------------------------------------------------------------------
// Spawn support
// ---------------------------------------------------------------------------

void PerfTool::wrap_init(simmpi::Rank& rank) {
    // The intercept method's MPI_Init wrapper gathers the information
    // needed to start Paradyn daemons for future spawns (paper 4.2.2).
    std::lock_guard lk(mu_);
    (void)rank;
}

int PerfTool::wrap_spawn(simmpi::Rank& rank, simmpi::SpawnArgs args,
                         simmpi::Comm* intercomm, std::vector<int>* errcodes) {
    // Intercept method: replace the user's command with "paradynd",
    // which starts a daemon stub per child that registers the process
    // with the front end and then runs the real program.  This is
    // simple but inflates the measured spawn cost and starts one
    // daemon per process (the drawbacks the paper calls out).
    const std::string wrapped = "paradynd!" + args.command;
    if (!world_.has_program(wrapped)) {
        simmpi::ProgramFn orig = world_.find_program(args.command);
        if (orig) {
            const double cost = opts_.daemon_start_cost;
            world_.register_program(
                wrapped, [this, orig](simmpi::Rank& r,
                                      const std::vector<std::string>& argv) {
                    {
                        std::lock_guard lk(mu_);
                        ++spawn_stats_.daemons_started;
                    }
                    add_process(r.global_rank());
                    orig(r, argv);
                });
            (void)cost;
        }
    }
    const double t0 = util::wall_seconds();
    const std::string cmd = world_.has_program(wrapped) ? wrapped : args.command;
    // The daemon startups sit on the spawn's critical path: the MPI
    // implementation starts paradynd, which only then starts the real
    // MPI process -- this is precisely why the intercept method
    // "inflates the measured values" of spawn operations (paper 4.2.2).
    int my_rank_in_comm = -1;
    rank.MPI_Comm_rank(args.comm, &my_rank_in_comm);
    if (my_rank_in_comm == args.root)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.daemon_start_cost * args.maxprocs));
    const int rc = rank.PMPI_Comm_spawn(cmd, args.argv, args.maxprocs, args.info,
                                        args.root, args.comm, intercomm, errcodes);
    {
        std::lock_guard lk(mu_);
        ++spawn_stats_.spawns_seen;
        spawn_stats_.intercept_overhead_seconds += util::wall_seconds() - t0;
    }
    return rc;
}

void PerfTool::attach_new_processes() {
    const std::vector<simmpi::MpirProcDesc> table = world_.mpir_proctable();
    {
        std::lock_guard lk(mu_);
        ++spawn_stats_.spawns_seen;
        if (table.empty()) {
            // Neither LAM nor MPICH2 supported the dynamic-process
            // parts of the MPI Debugging Interface at the time: the
            // attach method cannot find the children (paper 4.2.2).
            ++spawn_stats_.attach_failures;
            return;
        }
    }
    for (const simmpi::MpirProcDesc& d : table) {
        bool known;
        {
            std::lock_guard lk(mu_);
            known = known_procs_.count(d.global_rank) != 0;
        }
        if (!known) {
            add_process(d.global_rank);
            std::lock_guard lk(mu_);
            ++spawn_stats_.processes_attached;
        }
    }
}

// ---------------------------------------------------------------------------
// MDL function sets
// ---------------------------------------------------------------------------

std::vector<instr::FuncId> PerfTool::resolve_funcset(const std::string& set) const {
    instr::Registry& reg = world_.registry();
    auto by_names = [&](std::initializer_list<const char*> names) {
        std::vector<instr::FuncId> out;
        for (const char* n : names) {
            const instr::FuncId f = reg.find(n);
            if (f != instr::kInvalidFunc) out.push_back(f);
        }
        return out;
    };
    using instr::Category;

    if (set == "mpi_sync_calls")
        // Message passing, collectives, waits, and (the paper's
        // extension) the RMA synchronization routines, so the PC's
        // ExcessiveSyncWaitingTime hypothesis covers one-sided codes.
        return by_names({"PMPI_Send", "PMPI_Recv", "PMPI_Sendrecv", "PMPI_Barrier",
                         "PMPI_Bcast", "PMPI_Reduce", "PMPI_Allreduce", "PMPI_Wait",
                         "PMPI_Waitall", "PMPI_Win_fence", "PMPI_Win_start",
                         "PMPI_Win_complete", "PMPI_Win_wait", "PMPI_Win_lock",
                         "PMPI_Win_unlock"});
    if (set == "io_calls") {
        // All I/O at PMPI level (the weak-symbol rule) plus the libc
        // transport calls; file access joined this set when MPI-I/O
        // support landed, so ExcessiveIOBlockingTime covers both.
        std::vector<instr::FuncId> out;
        for (instr::FuncId f :
             reg.functions_with(static_cast<std::uint32_t>(Category::Io))) {
            const instr::FunctionInfo& fi = reg.info(f);
            if (fi.module == "libc" || fi.name.rfind("PMPI_", 0) == 0)
                out.push_back(f);
        }
        return out;
    }
    if (set == "app_procedures")
        return reg.functions_with(static_cast<std::uint32_t>(Category::AppCode));
    if (set == "mpi_send_layout12")
        return by_names({"PMPI_Send", "PMPI_Isend", "PMPI_Sendrecv"});
    if (set == "mpi_recv_layout12") return by_names({"PMPI_Recv"});
    if (set == "mpi_comm_at5")
        return by_names({"PMPI_Send", "PMPI_Recv", "PMPI_Isend", "PMPI_Irecv",
                         "PMPI_Allreduce"});
    if (set == "mpi_comm_at10") return by_names({"PMPI_Sendrecv"});
    if (set == "mpi_comm_at0") return by_names({"PMPI_Barrier"});
    if (set == "mpi_comm_at4") return by_names({"PMPI_Bcast"});
    if (set == "mpi_comm_at6") return by_names({"PMPI_Reduce"});
    if (set == "mpi_tag_at4")
        return by_names({"PMPI_Send", "PMPI_Recv", "PMPI_Isend", "PMPI_Irecv"});
    if (set == "mpi_barrier") return by_names({"PMPI_Barrier"});
    if (set == "mpi_put") return by_names({"PMPI_Put"});
    if (set == "mpi_get") return by_names({"PMPI_Get"});
    if (set == "mpi_acc") return by_names({"PMPI_Accumulate"});
    if (set == "mpi_rma_data")
        return by_names({"PMPI_Put", "PMPI_Get", "PMPI_Accumulate"});
    if (set == "mpi_at_rma_sync")
        return by_names({"PMPI_Win_fence", "PMPI_Win_start", "PMPI_Win_complete",
                         "PMPI_Win_wait"});
    if (set == "mpi_pt_rma_sync")
        return by_names({"PMPI_Win_lock", "PMPI_Win_unlock"});
    if (set == "mpi_rma_sync")
        return by_names({"PMPI_Win_fence", "PMPI_Win_create", "PMPI_Win_free",
                         "PMPI_Win_start", "PMPI_Win_complete", "PMPI_Win_wait",
                         "PMPI_Win_lock", "PMPI_Win_unlock", "PMPI_Put", "PMPI_Get",
                         "PMPI_Accumulate"});
    if (set == "mpi_rma_sync_routines")
        return by_names({"PMPI_Win_fence", "PMPI_Win_create", "PMPI_Win_free",
                         "PMPI_Win_start", "PMPI_Win_complete", "PMPI_Win_wait",
                         "PMPI_Win_lock", "PMPI_Win_unlock"});
    if (set == "mpi_win_at7") return by_names({"PMPI_Put", "PMPI_Get"});
    if (set == "mpi_win_at8") return by_names({"PMPI_Accumulate"});
    if (set == "mpi_win_at0")
        return by_names({"PMPI_Win_complete", "PMPI_Win_wait", "PMPI_Win_free"});
    if (set == "mpi_win_at1") return by_names({"PMPI_Win_fence", "PMPI_Win_unlock"});
    if (set == "mpi_win_at2") return by_names({"PMPI_Win_start", "PMPI_Win_post"});
    if (set == "mpi_win_at3") return by_names({"PMPI_Win_lock"});
    if (set == "mpi_file_writes_rw")
        return by_names({"PMPI_File_write", "PMPI_File_write_all",
                         "PMPI_File_write_shared"});
    if (set == "mpi_file_writes_at") return by_names({"PMPI_File_write_at"});
    if (set == "mpi_file_reads_rw")
        return by_names({"PMPI_File_read", "PMPI_File_read_all",
                         "PMPI_File_read_shared"});
    if (set == "mpi_file_reads_at") return by_names({"PMPI_File_read_at"});
    if (set == "mpi_file_data_ops")
        return by_names({"PMPI_File_read", "PMPI_File_write", "PMPI_File_read_at",
                         "PMPI_File_write_at", "PMPI_File_read_all",
                         "PMPI_File_write_all", "PMPI_File_read_shared",
                         "PMPI_File_write_shared"});
    if (set == "mpi_file_all_calls")
        return by_names({"PMPI_File_open", "PMPI_File_close", "PMPI_File_read",
                         "PMPI_File_write", "PMPI_File_read_at", "PMPI_File_write_at",
                         "PMPI_File_read_all", "PMPI_File_write_all",
                         "PMPI_File_read_shared", "PMPI_File_write_shared",
                         "PMPI_File_seek", "PMPI_File_sync", "PMPI_File_delete"});
    if (set == "mpi_file_handle_at0")
        return by_names({"PMPI_File_close", "PMPI_File_read", "PMPI_File_write",
                         "PMPI_File_read_at", "PMPI_File_write_at",
                         "PMPI_File_read_all", "PMPI_File_write_all",
                         "PMPI_File_read_shared", "PMPI_File_write_shared",
                         "PMPI_File_seek", "PMPI_File_sync"});
    if (set == "mpi_all_calls")
        return reg.functions_with(static_cast<std::uint32_t>(Category::MpiApi));
    // focus_procedure / focus_module are bound per instantiation via
    // ConstraintBinding::set_overrides; unresolved they select nothing.
    if (set == "focus_procedure" || set == "focus_module") return {};
    throw mdl::CompileError("unknown MDL function set '" + set + "'");
}

// ---------------------------------------------------------------------------
// Launch helper
// ---------------------------------------------------------------------------

std::vector<int> run_app_async(PerfTool& tool, const std::string& command,
                               const std::vector<std::string>& argv, int nprocs,
                               int procs_per_node) {
    simmpi::World& w = tool.world();
    const int nnodes =
        std::max(1, (nprocs + procs_per_node - 1) / std::max(1, procs_per_node));
    std::vector<simmpi::Node> nodes;
    for (int i = 0; i < nnodes; ++i)
        nodes.push_back({"node" + std::to_string(i), procs_per_node});
    const std::vector<std::string> args = {"-np", std::to_string(nprocs)};
    const simmpi::LaunchPlan plan = w.flavor() == simmpi::Flavor::Lam
                                        ? simmpi::plan_lam(nodes, args)
                                        : simmpi::plan_mpich(nodes, args);
    const std::vector<int> globals = simmpi::launch(w, command, argv, plan);
    tool.on_launch(globals);
    return globals;
}

}  // namespace m2p::core
