#include "simmpi/rank.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <type_traits>

#include "simmpi/sched.hpp"
#include "util/clock.hpp"

namespace m2p::simmpi {

namespace {

// Tags at and above this value are reserved for library-internal
// traffic (the MPICH-flavor dissemination barrier, LAM-flavor fence
// tokens).  User tags must stay below it, as with real MPI tag bounds.
constexpr int kReservedTagBase = 1 << 28;

bool contains(const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
}

std::int64_t as_arg(const void* p) {
    return static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(p));
}

// Blocking waits park on the context's WaitToken and are woken by a
// targeted unpark from whoever satisfied the condition, by the
// death/poison broadcast, or by the deadline sweeper; thread-mode
// tokens additionally self-cap at the legacy 5 ms liveness slice
// (DESIGN.md sections 9 and 12).  Every caller loops re-checking its
// predicate, so spurious wakeups are harmless.

// Park waiting for a message to land in @p mb (only the owning rank
// ever waits here, so a single waiter slot suffices).
void wait_for_msg(Mailbox& mb, std::unique_lock<std::mutex>& lk,
                  std::chrono::steady_clock::time_point deadline) {
    const std::shared_ptr<sched::WaitToken>& tok = sched::current_wait_token();
    ++mb.msg_waiters;
    mb.msg_waiter = tok;
    lk.unlock();
    tok->park_until(deadline);
    lk.lock();
    if (mb.msg_waiter == tok) mb.msg_waiter.reset();
    --mb.msg_waiters;
}

// Park waiting for eager flow-control headroom in @p mb.  Many senders
// can be parked here at once, so each registers its own token.
void wait_for_space(Mailbox& mb, std::unique_lock<std::mutex>& lk,
                    std::chrono::steady_clock::time_point deadline) {
    const std::shared_ptr<sched::WaitToken>& tok = sched::current_wait_token();
    mb.flow_stalls.fetch_add(1, std::memory_order_relaxed);
    ++mb.space_waiters;
    mb.space_tokens.push_back(tok);
    lk.unlock();
    tok->park_until(deadline);
    lk.lock();
    auto& v = mb.space_tokens;
    v.erase(std::remove(v.begin(), v.end(), tok), v.end());
    --mb.space_waiters;
}

}  // namespace

Rank::Rank(World& world, int global_rank) : world_(world), global_(global_rank) {}

Comm Rank::MPI_COMM_WORLD() const { return world_.proc(global_).comm_world; }

// ---------------------------------------------------------------------------
// Fault plane (DESIGN.md section 9)
// ---------------------------------------------------------------------------

void Rank::fault_point(const char* name) {
    // Cooperative fairness: every MPI call is a yield point, so a rank
    // busy-polling MPI_Iprobe cannot starve its peers on a small
    // worker pool (two relaxed loads when no other fiber is runnable).
    sched::maybe_yield();
    ProcData& p = world_.proc_data(global_);
    p.last_call.store(name, std::memory_order_relaxed);
    const std::uint64_t n = p.calls_made.fetch_add(1, std::memory_order_relaxed) + 1;
    check_poisoned();
    FaultPlan* plan = world_.config().faults.get();
    if (!plan || !plan->has_call_faults()) return;
    const FaultPlan::CallAction act = plan->on_call(global_, name, n);
    if (act.kind == FaultPlan::CallAction::Kind::Kill) {
        // name is the call-site string literal, so the ring may keep it.
        world_.trace_event(trace::EventKind::Fault, global_, name,
                           static_cast<std::int64_t>(n));
        // Before the unwind frees this rank's window memory: survivors
        // may be mid-memcpy through it (see rma_detach_all).
        rma_detach_all();
        throw RankKilled{Epitaph::Cause::Killed,
                         std::string("fault plan: killed in ") + name + " (call " +
                             std::to_string(n) + ")"};
    }
    if (act.kind == FaultPlan::CallAction::Kind::Hang) {
        world_.trace_event(trace::EventKind::Fault, global_, name,
                           static_cast<std::int64_t>(n));
        // A hung rank is dead to its peers from here on; detach its
        // window memory before publishing the death so no survivor
        // races an RMA apply against the eventual unwind.
        rma_detach_all();
        // Publish the death *before* wedging: peers unwedge via the
        // liveness checks immediately instead of waiting out the hang.
        Epitaph e;
        e.global_rank = global_;
        e.cause = Epitaph::Cause::Hung;
        e.detail = std::string("fault plan: hung in ") + name;
        e.last_call = name;
        e.calls_made = n;
        world_.record_death(std::move(e));
        sched::sleep_for(std::chrono::duration<double>(act.hang_seconds));
        throw RankKilled{Epitaph::Cause::Hung, {}, /*recorded=*/true};
    }
}

int Rank::comm_error(Comm c, int code) {
    int handler = world_.config().default_errhandler;
    if (world_.comm_valid(c))
        handler = world_.comm(c).errhandler.load(std::memory_order_relaxed);
    if (handler == MPI_ERRORS_ARE_FATAL) {
        world_.poison(code);
        rma_detach_all();
        throw RankKilled{Epitaph::Cause::Poisoned,
                         "MPI_ERRORS_ARE_FATAL: error " + std::to_string(code)};
    }
    return code;
}

void Rank::check_poisoned() const {
    if (!world_.poisoned()) return;
    rma_detach_all();
    throw RankKilled{Epitaph::Cause::Poisoned,
                     "world poisoned (code " + std::to_string(world_.poison_code()) +
                         ")"};
}

std::chrono::steady_clock::time_point Rank::wait_deadline() const {
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(world_.config().wait_deadline_seconds));
}

// ---------------------------------------------------------------------------
// Rank / group translation helpers
// ---------------------------------------------------------------------------

int Rank::my_rank_in(const CommData& c) const {
    const auto it = std::find(c.group.begin(), c.group.end(), global_);
    if (it != c.group.end()) return static_cast<int>(it - c.group.begin());
    // Intercomm: we may be a member of the "remote" side; our local
    // group is then the remote_group vector.
    const auto it2 = std::find(c.remote_group.begin(), c.remote_group.end(), global_);
    if (it2 != c.remote_group.end()) return static_cast<int>(it2 - c.remote_group.begin());
    return MPI_UNDEFINED;
}

const std::vector<int>& Rank::dest_group(const CommData& c) const {
    if (!c.is_inter) return c.group;
    // Point-to-point on an intercommunicator addresses the other side.
    return contains(c.group, global_) ? c.remote_group : c.group;
}

int Rank::check_pt2pt(const CommData& c, int count, Datatype dt, int peer, int tag,
                      bool is_send) const {
    if (count < 0) return MPI_ERR_COUNT;
    if (datatype_size(dt) <= 0) return MPI_ERR_TYPE;
    if (tag != MPI_ANY_TAG && tag < 0) return MPI_ERR_TAG;
    if (is_send && tag == MPI_ANY_TAG) return MPI_ERR_TAG;
    if (peer == MPI_PROC_NULL) return MPI_SUCCESS;
    if (peer == MPI_ANY_SOURCE) return is_send ? MPI_ERR_RANK : MPI_SUCCESS;
    const auto& grp = dest_group(c);
    if (peer < 0 || static_cast<std::size_t>(peer) >= grp.size()) return MPI_ERR_RANK;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

int Rank::MPI_Init() {
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Init);
    fault_point("MPI_Init");
    const int rc = PMPI_Init();
    if (auto* layer = world_.profiling_layer()) layer->wrap_init(*this);
    return rc;
}

int Rank::PMPI_Init() {
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Init);
    if (initialized_) return MPI_ERR_OTHER;
    initialized_ = true;
    return MPI_SUCCESS;
}

int Rank::MPI_Init_thread(int required, int* provided) {
    if (!provided) return MPI_ERR_ARG;
    if (required < MPI_THREAD_SINGLE || required > MPI_THREAD_MULTIPLE)
        return MPI_ERR_ARG;
    const int rc = MPI_Init();
    if (rc != MPI_SUCCESS) return rc;
    // Ranks are threads of one address space and every internal
    // structure is lock-protected: MULTIPLE is always available.
    thread_level_ = required;
    *provided = required;
    return MPI_SUCCESS;
}

int Rank::MPI_Query_thread(int* provided) const {
    if (!provided) return MPI_ERR_ARG;
    *provided = thread_level_;
    return MPI_SUCCESS;
}

int Rank::MPI_Finalize() {
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Finalize);
    fault_point("MPI_Finalize");
    return PMPI_Finalize();
}

int Rank::PMPI_Finalize() {
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Finalize);
    if (!initialized_ || finalized_) return MPI_ERR_OTHER;
    // Push any Table-1 RMA counters still staged thread-locally (a
    // window touched after its last sync call) to the shared counters
    // before the rank stops running MPI code.
    rma_flush_all_stages();
    // An erroneous-but-reachable chaos shape: a rank whose MPI_Win_free
    // failed (dead member wedged the barrier) finalizes and returns,
    // freeing the user memory behind its window while survivors still
    // target it.  Finalize is this rank's last MPI call, so detaching
    // here is always safe and closes that hole too.
    rma_detach_all();
    finalized_ = true;
    return MPI_SUCCESS;
}

int Rank::MPI_Abort(Comm c, int errorcode) {
    const std::int64_t a[] = {c, errorcode};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Abort, a);
    fault_point("MPI_Abort");
    return PMPI_Abort(c, errorcode);
}

int Rank::PMPI_Abort(Comm c, int errorcode) {
    const std::int64_t a[] = {c, errorcode};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Abort, a);
    (void)c;  // like most MPIs, simmpi aborts the whole job, not one comm
    world_.poison(errorcode == MPI_SUCCESS ? MPI_ERR_OTHER : errorcode);
    rma_detach_all();
    throw RankKilled{Epitaph::Cause::Aborted,
                     "MPI_Abort(code=" + std::to_string(errorcode) + ")"};
}

int Rank::MPI_Comm_set_errhandler(Comm c, int errhandler) {
    if (errhandler != MPI_ERRORS_ARE_FATAL && errhandler != MPI_ERRORS_RETURN)
        return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    world_.comm(c).errhandler.store(errhandler, std::memory_order_relaxed);
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_get_errhandler(Comm c, int* errhandler) {
    if (!errhandler) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    *errhandler = world_.comm(c).errhandler.load(std::memory_order_relaxed);
    return MPI_SUCCESS;
}

double Rank::MPI_Wtime() const { return util::wall_seconds(); }

int Rank::MPI_Get_processor_name(std::string* name) const {
    if (!name) return MPI_ERR_ARG;
    *name = world_.proc(global_).node;
    return MPI_SUCCESS;
}

int Rank::MPI_Type_size(Datatype dt, int* size) const {
    if (!size) return MPI_ERR_ARG;
    const int s = datatype_size(dt);
    if (s <= 0) return MPI_ERR_TYPE;
    *size = s;
    return MPI_SUCCESS;
}

int Rank::MPI_Get_count(const Status* st, Datatype dt, int* count) const {
    if (!st || !count) return MPI_ERR_ARG;
    const int s = datatype_size(dt);
    if (s <= 0) return MPI_ERR_TYPE;
    *count = (st->count_bytes % s == 0) ? st->count_bytes / s : MPI_UNDEFINED;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Communicators and groups
// ---------------------------------------------------------------------------

int Rank::MPI_Comm_size(Comm c, int* size) {
    if (!size) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    const bool on_remote_side = cd.is_inter && !contains(cd.group, global_);
    *size = static_cast<int>(on_remote_side ? cd.remote_group.size() : cd.group.size());
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_rank(Comm c, int* rank) {
    if (!rank) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    const int r = my_rank_in(world_.comm(c));
    if (r == MPI_UNDEFINED) return MPI_ERR_COMM;
    *rank = r;
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_remote_size(Comm c, int* size) {
    if (!size) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (!cd.is_inter) return MPI_ERR_COMM;
    const bool on_local_side = contains(cd.group, global_);
    *size = static_cast<int>(on_local_side ? cd.remote_group.size() : cd.group.size());
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_dup(Comm c, Comm* out) {
    if (!out) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    fault_point("MPI_Comm_dup");
    CommData& cd = world_.comm(c);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (!barrier_internal(cd)) return comm_error(c, coll_fail_code(cd));
    // Every member must end up with the same handle; rank 0 creates.
    if (my_rank_in(cd) == 0)
        cd.spawn_result = world_.create_comm(cd.group, cd.remote_group, cd.is_inter);
    if (!barrier_internal(cd)) return comm_error(c, coll_fail_code(cd));
    *out = cd.spawn_result;
    if (!barrier_internal(cd)) return comm_error(c, coll_fail_code(cd));
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_free(Comm* c) {
    if (!c) return MPI_ERR_ARG;
    if (!world_.comm_valid(*c)) return MPI_ERR_COMM;
    // Collective-free semantics: the handle is retired (and its payload
    // storage released) once every member has freed it.
    world_.release_comm_member(*c);
    *c = MPI_COMM_NULL;
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_group(Comm c, Group* g) {
    if (!g) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    const bool on_remote_side = cd.is_inter && !contains(cd.group, global_);
    *g = world_.create_group(on_remote_side ? cd.remote_group : cd.group);
    return MPI_SUCCESS;
}

int Rank::MPI_Group_incl(Group g, int n, const int* ranks, Group* out) {
    if (!out || (n > 0 && !ranks)) return MPI_ERR_ARG;
    if (!world_.group_valid(g)) return MPI_ERR_GROUP;
    GroupData& gd = world_.group(g);
    std::vector<int> sel;
    sel.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (ranks[i] < 0 || static_cast<std::size_t>(ranks[i]) >= gd.global_ranks.size())
            return MPI_ERR_RANK;
        sel.push_back(gd.global_ranks[static_cast<std::size_t>(ranks[i])]);
    }
    *out = world_.create_group(std::move(sel));
    return MPI_SUCCESS;
}

int Rank::MPI_Group_size(Group g, int* size) {
    if (!size) return MPI_ERR_ARG;
    if (!world_.group_valid(g)) return MPI_ERR_GROUP;
    *size = static_cast<int>(world_.group(g).global_ranks.size());
    return MPI_SUCCESS;
}

int Rank::MPI_Group_free(Group* g) {
    if (!g) return MPI_ERR_ARG;
    if (!world_.group_valid(*g)) return MPI_ERR_GROUP;
    // Groups are rank-local snapshots, so the storage can go at once.
    GroupData& gd = world_.group(*g);
    gd.freed = true;
    std::vector<int>().swap(gd.global_ranks);
    *g = MPI_GROUP_NULL;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Point-to-point bodies
// ---------------------------------------------------------------------------

int Rank::send_body(const void* buf, int count, Datatype dt, int dest, int tag, Comm c,
                    SendMode mode) {
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_pt2pt(cd, count, dt, dest, tag, /*is_send=*/true);
        rc != MPI_SUCCESS)
        return rc;
    if (dest == MPI_PROC_NULL) return MPI_SUCCESS;

    const std::size_t bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(datatype_size(dt));
    const int src_cr = my_rank_in(cd);
    const int dest_global = dest_group(cd)[static_cast<std::size_t>(dest)];
    Mailbox& mb = world_.mailbox(dest_global);

    // A revoked communicator fails every current and future operation
    // on it; checked before touching the destination mailbox so the
    // envelope never enters a queue nobody will drain.
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    // A provably-unreachable destination fails fast: nothing will ever
    // drain the mailbox or signal the rendezvous token.  (Gated on the
    // death epoch so fault-free runs keep the old behavior for sends
    // to already-finished ranks.)
    if (world_.death_epoch() != 0 && world_.rank_unreachable(dest_global))
        return comm_error(c, MPI_ERR_RANK);

    FaultPlan::MessageAction inject;
    if (FaultPlan* plan = world_.config().faults.get();
        plan && plan->has_message_faults())
        inject = plan->on_message(global_, dest_global);

    // The blocking part of the send happens inside the transport
    // function so the tool sees where the MPI implementation really
    // waits: socket write() for MPICH, the sysv RPI for LAM (paper
    // Fig 3: MPICH's ExcessiveIOBlockingTime).
    const auto& f = world_.fids();
    instr::FunctionGuard tg(world_.registry(),
                            world_.flavor() == Flavor::Mpich ? f.io_write : f.sysv_send);

    // Injected link faults: a delay stalls inside the transport (where
    // a slow wire would); a drop discards the envelope after the
    // "wire" accepted it, so the sender sees success -- exactly the
    // silent loss the liveness deadline exists to catch.
    if (inject.delay_seconds > 0) {
        world_.trace_event(trace::EventKind::Fault, global_, "fault_delay",
                           static_cast<std::int64_t>(inject.delay_seconds * 1e9), tag,
                           dest_global);
        sched::sleep_for(std::chrono::duration<double>(inject.delay_seconds));
    }
    if (inject.drop) {
        world_.trace_event(trace::EventKind::Fault, global_, "fault_drop",
                           static_cast<std::int64_t>(bytes), tag, dest_global);
        return MPI_SUCCESS;
    }

    const bool rendezvous =
        mode == SendMode::Synchronous ||
        (mode == SendMode::Standard && bytes > world_.config().eager_limit);
    std::shared_ptr<DeliveryToken> token;
    std::shared_ptr<sched::WaitToken> wake_msg;
    {
        std::unique_lock lk(mb.mu);
        if (!rendezvous && mode == SendMode::Standard) {
            // Eager flow control: park while the destination queue is
            // full; the receiver unparks us as it drains.
            const auto deadline = wait_deadline();
            while (mb.bytes_queued + bytes + kEnvelopeOverhead >
                   world_.config().mailbox_capacity) {
                // Evaluate the doom predicates under mb.mu, but run the
                // error paths only after dropping it: check_poisoned and
                // comm_error may detach window shards (shard mutexes)
                // or poison the world, neither of which may happen
                // while a mailbox mutex is held.
                int err = MPI_SUCCESS;
                if (comm_revoked(cd))
                    err = MPI_ERR_REVOKED;
                else if (world_.death_epoch() != 0 &&
                         (world_.poisoned() ||
                          world_.rank_unreachable(dest_global)))
                    err = MPI_ERR_RANK;
                else if (std::chrono::steady_clock::now() >= deadline)
                    err = MPI_ERR_OTHER;
                if (err != MPI_SUCCESS) {
                    lk.unlock();
                    check_poisoned();  // throws when the world is poisoned
                    return comm_error(c, err);
                }
                wait_for_space(mb, lk, deadline);
            }
        }
        Envelope env;
        env.src_global = global_;
        env.src_comm_rank = src_cr;
        env.tag = tag;
        env.context = cd.context;
        env.data = mb.take_buf_locked(bytes);
        if (bytes > 0) std::memcpy(env.data.data(), buf, bytes);
        if (rendezvous) {
            token = std::make_shared<DeliveryToken>();
            env.delivered = token;  // not charged against mailbox capacity
        } else {
            mb.bytes_queued += bytes + kEnvelopeOverhead;
        }
        mb.queue.push_back(std::move(env));
        mb.note_queued_locked(rendezvous);
        wake_msg = mb.msg_waiter;
    }
    if (wake_msg) wake_msg->unpark();
    // Rendezvous: block until the receiver has copied the payload.  The
    // token wakes only this sender.  Abandon the wait when the receiver
    // dies first (its mailbox keeps the orphan envelope, but nothing
    // will ever drain it).
    if (token) {
        const auto deadline = wait_deadline();
        const bool delivered = token->wait_or_abandon(
            [&] {
                return world_.poisoned() || comm_revoked(cd) ||
                       (world_.death_epoch() != 0 &&
                        world_.rank_unreachable(dest_global)) ||
                       std::chrono::steady_clock::now() >= deadline;
            },
            deadline);
        if (!delivered) {
            check_poisoned();
            return comm_error(c, comm_revoked(cd) ? MPI_ERR_REVOKED : MPI_ERR_RANK);
        }
    }
    // Fold the transfer into the enclosing MPI_ call's span rather than
    // recording a second event.  Reserved tags are collective/RMA side
    // traffic running inside some *other* user call's guard; folding
    // those would mislabel that call's span, so they stay untraced.
    if (tag < kReservedTagBase)
        world_.trace_call_payload(trace::EventKind::Pt2ptSend,
                                  static_cast<std::int64_t>(bytes), tag,
                                  dest_global);
    return MPI_SUCCESS;
}

int Rank::recv_body(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                    Status* st, std::int64_t context_offset) {
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_pt2pt(cd, count, dt, src, tag, /*is_send=*/false);
        rc != MPI_SUCCESS)
        return rc;
    if (src == MPI_PROC_NULL) {
        if (st) {
            st->MPI_SOURCE = MPI_PROC_NULL;
            st->MPI_TAG = MPI_ANY_TAG;
            st->count_bytes = 0;
        }
        return MPI_SUCCESS;
    }

    const std::int64_t want_ctx = cd.context + context_offset;
    const std::size_t cap =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(datatype_size(dt));
    Mailbox& mb = world_.mailbox(global_);

    const auto& f = world_.fids();
    instr::FunctionGuard tg(world_.registry(),
                            world_.flavor() == Flavor::Mpich ? f.io_read : f.sysv_recv);

    // Liveness bookkeeping: internal traffic (side-channel contexts or
    // reserved tags) fails like a collective; user receives fail when
    // the named source -- or, for ANY_SOURCE, every peer -- becomes
    // unreachable with nothing left in the queue.
    const bool internal_traffic =
        context_offset != 0 || (tag != MPI_ANY_TAG && tag >= kReservedTagBase);
    const int src_global = src == MPI_ANY_SOURCE
                               ? -1
                               : dest_group(cd)[static_cast<std::size_t>(src)];
    const auto deadline = wait_deadline();

    std::unique_lock lk(mb.mu);
    for (;;) {
        auto it = std::find_if(mb.queue.begin(), mb.queue.end(), [&](const Envelope& e) {
            return e.context == want_ctx && (tag == MPI_ANY_TAG || e.tag == tag) &&
                   (src == MPI_ANY_SOURCE || e.src_comm_rank == src);
        });
        if (it != mb.queue.end()) {
            Envelope env = std::move(*it);
            mb.queue.erase(it);
            mb.note_delivered_locked(env.data.size());
            const bool truncated = env.data.size() > cap;
            const std::size_t n = std::min(env.data.size(), cap);
            if (n > 0) std::memcpy(buf, env.data.data(), n);
            if (st) {
                st->MPI_SOURCE = env.src_comm_rank;
                st->MPI_TAG = env.tag;
                st->count_bytes = static_cast<int>(n);
                st->MPI_ERROR = truncated ? MPI_ERR_COUNT : MPI_SUCCESS;
            }
            std::vector<std::shared_ptr<sched::WaitToken>> wake_space;
            if (!env.delivered) {
                mb.bytes_queued -= env.data.size() + kEnvelopeOverhead;
                wake_space.swap(mb.space_tokens);
            }
            mb.recycle_locked(std::move(env.data));
            lk.unlock();
            // Wake every parked sender: they need different amounts of
            // room, so the frontmost waiter alone may not be the one
            // that fits.
            for (const auto& t : wake_space) t->unpark();
            if (env.delivered) env.delivered->signal();
            if (!internal_traffic)
                world_.trace_call_payload(trace::EventKind::Pt2ptRecv,
                                          static_cast<std::int64_t>(n), env.tag,
                                          env.src_global);
            return truncated ? MPI_ERR_COUNT : MPI_SUCCESS;
        }
        // No queued match.  The scan above ran under mb.mu, and peers
        // enqueue under mb.mu before they can die or finish, so bailing
        // here cannot lose a message that was actually delivered.
        // Revocation is checked first and independently of the death
        // epoch: a communicator can be revoked with zero deaths.  The
        // verdict is computed under mb.mu; the error paths run after
        // dropping it (check_poisoned/comm_error may take shard mutexes
        // via rma_detach_all, or poison the world).
        int err = MPI_SUCCESS;
        if (comm_revoked(cd)) {
            err = MPI_ERR_REVOKED;
        } else if (world_.death_epoch() != 0) {
            if (world_.poisoned()) {
                err = MPI_ERR_OTHER;  // check_poisoned throws below
            } else if (internal_traffic) {
                // Reserved-tag exchanges (e.g. the MPICH dissemination
                // barrier) are collectives: any dead member dooms them.
                if (world_.comm_has_dead_member(cd)) err = MPI_ERR_PROC_FAILED;
            } else if (src_global >= 0) {
                if (world_.rank_unreachable(src_global)) err = MPI_ERR_RANK;
            } else {
                bool any_alive = false;
                for (int g : dest_group(cd))
                    if (g != global_ && !world_.rank_unreachable(g)) {
                        any_alive = true;
                        break;
                    }
                if (!any_alive) err = MPI_ERR_RANK;
            }
        }
        if (err == MPI_SUCCESS && std::chrono::steady_clock::now() >= deadline)
            err = MPI_ERR_OTHER;
        if (err != MPI_SUCCESS) {
            lk.unlock();
            check_poisoned();  // throws when the world is poisoned
            return comm_error(c, err);
        }
        wait_for_msg(mb, lk, deadline);
    }
}

int Rank::probe_body(int src, int tag, Comm c, int* flag, Status* st, bool blocking) {
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_pt2pt(cd, 0, MPI_BYTE, src, tag, /*is_send=*/false);
        rc != MPI_SUCCESS)
        return rc;
    if (src == MPI_PROC_NULL) {
        if (flag) *flag = 1;
        if (st) {
            st->MPI_SOURCE = MPI_PROC_NULL;
            st->MPI_TAG = MPI_ANY_TAG;
            st->count_bytes = 0;
        }
        return MPI_SUCCESS;
    }
    Mailbox& mb = world_.mailbox(global_);
    const auto deadline = wait_deadline();
    std::unique_lock lk(mb.mu);
    for (;;) {
        const auto it =
            std::find_if(mb.queue.begin(), mb.queue.end(), [&](const Envelope& e) {
                return e.context == cd.context && (tag == MPI_ANY_TAG || e.tag == tag) &&
                       (src == MPI_ANY_SOURCE || e.src_comm_rank == src);
            });
        if (it != mb.queue.end()) {
            if (flag) *flag = 1;
            if (st) {
                st->MPI_SOURCE = it->src_comm_rank;
                st->MPI_TAG = it->tag;
                st->count_bytes = static_cast<int>(it->data.size());
                st->MPI_ERROR = MPI_SUCCESS;
            }
            return MPI_SUCCESS;
        }
        if (!blocking) {
            if (flag) *flag = 0;
            return MPI_SUCCESS;
        }
        // As in recv_body: verdicts under mb.mu, error paths (which may
        // detach shards or poison the world) after dropping it.
        int err = MPI_SUCCESS;
        if (comm_revoked(cd)) {
            err = MPI_ERR_REVOKED;
        } else if (world_.death_epoch() != 0) {
            if (world_.poisoned()) {
                err = MPI_ERR_OTHER;  // check_poisoned throws below
            } else if (src != MPI_ANY_SOURCE) {
                const int src_global = dest_group(cd)[static_cast<std::size_t>(src)];
                if (world_.rank_unreachable(src_global)) err = MPI_ERR_RANK;
            } else {
                bool any_alive = false;
                for (int g : dest_group(cd))
                    if (g != global_ && !world_.rank_unreachable(g)) {
                        any_alive = true;
                        break;
                    }
                if (!any_alive) err = MPI_ERR_RANK;
            }
        }
        if (err == MPI_SUCCESS && std::chrono::steady_clock::now() >= deadline)
            err = MPI_ERR_OTHER;
        if (err != MPI_SUCCESS) {
            lk.unlock();
            check_poisoned();  // throws when the world is poisoned
            return comm_error(c, err);
        }
        wait_for_msg(mb, lk, deadline);
    }
}

int Rank::MPI_Probe(int src, int tag, Comm c, Status* st) {
    fault_point("MPI_Probe");
    return probe_body(src, tag, c, nullptr, st, /*blocking=*/true);
}

int Rank::MPI_Iprobe(int src, int tag, Comm c, int* flag, Status* st) {
    if (!flag) return MPI_ERR_ARG;
    fault_point("MPI_Iprobe");
    return probe_body(src, tag, c, flag, st, /*blocking=*/false);
}

void Rank::internal_send(const void* buf, int bytes, int dest_cr, int tag, CommData& c) {
    const int src_cr = my_rank_in(c);
    const int dest_global = c.group[static_cast<std::size_t>(dest_cr)];
    Mailbox& mb = world_.mailbox(dest_global);
    std::shared_ptr<sched::WaitToken> wake_msg;
    {
        std::lock_guard lk(mb.mu);
        Envelope env;
        env.src_global = global_;
        env.src_comm_rank = src_cr;
        env.tag = tag;
        env.context = c.context + 1;  // collective side channel
        env.data = mb.take_buf_locked(static_cast<std::size_t>(bytes));
        if (bytes > 0) std::memcpy(env.data.data(), buf, static_cast<std::size_t>(bytes));
        mb.bytes_queued += env.data.size() + kEnvelopeOverhead;
        mb.queue.push_back(std::move(env));
        mb.note_queued_locked(/*rendezvous=*/false);
        wake_msg = mb.msg_waiter;
    }
    if (wake_msg) wake_msg->unpark();
}

bool Rank::internal_recv(void* buf, int bytes, int src_cr, int tag, CommData& c) {
    const std::int64_t want_ctx = c.context + 1;
    Mailbox& mb = world_.mailbox(global_);
    const auto deadline = wait_deadline();
    std::unique_lock lk(mb.mu);
    for (;;) {
        auto it = std::find_if(mb.queue.begin(), mb.queue.end(), [&](const Envelope& e) {
            return e.context == want_ctx && e.tag == tag && e.src_comm_rank == src_cr;
        });
        if (it != mb.queue.end()) {
            const std::size_t n =
                std::min(it->data.size(), static_cast<std::size_t>(bytes));
            if (n > 0) std::memcpy(buf, it->data.data(), n);
            mb.note_delivered_locked(it->data.size());
            mb.bytes_queued -= it->data.size() + kEnvelopeOverhead;
            mb.recycle_locked(std::move(it->data));
            mb.queue.erase(it);
            std::vector<std::shared_ptr<sched::WaitToken>> wake_space;
            wake_space.swap(mb.space_tokens);
            lk.unlock();
            for (const auto& t : wake_space) t->unpark();
            return true;
        }
        // Already-queued traffic was drained above; once the comm is
        // revoked or a member of the collective is dead the operation
        // can never complete.
        if (comm_revoked(c)) return false;
        if (world_.death_epoch() != 0) {
            if (world_.poisoned()) {
                // check_poisoned detaches window shards; never under
                // mb.mu.  poisoned() is monotone, so it surely throws.
                lk.unlock();
                check_poisoned();
            }
            if (world_.comm_has_dead_member(c)) return false;
        }
        if (std::chrono::steady_clock::now() >= deadline) return false;
        wait_for_msg(mb, lk, deadline);
    }
}

bool Rank::barrier_internal(CommData& c) {
    std::unique_lock lk(c.bar_mu);
    if (comm_revoked(c)) return false;
    if (world_.death_epoch() != 0) {
        if (world_.poisoned()) {
            // check_poisoned detaches window shards; never under
            // bar_mu.  poisoned() is monotone, so it surely throws.
            lk.unlock();
            check_poisoned();
        }
        if (world_.comm_has_dead_member(c)) return false;
    }
    const std::uint64_t gen = c.bar_gen;
    if (static_cast<std::size_t>(++c.bar_count) == c.group.size()) {
        c.bar_count = 0;
        ++c.bar_gen;
        std::vector<std::shared_ptr<sched::WaitToken>> waiters;
        waiters.swap(c.bar_waiters);
        lk.unlock();
        for (const auto& t : waiters) t->unpark();
        return true;
    }
    const auto deadline = wait_deadline();
    const std::shared_ptr<sched::WaitToken>& tok = sched::current_wait_token();
    for (;;) {
        c.bar_waiters.push_back(tok);
        lk.unlock();
        tok->park_until(deadline);
        lk.lock();
        auto& v = c.bar_waiters;
        v.erase(std::remove(v.begin(), v.end(), tok), v.end());
        if (c.bar_gen != gen) return true;
        const bool doomed =
            world_.poisoned() || comm_revoked(c) ||
            (world_.death_epoch() != 0 && world_.comm_has_dead_member(c)) ||
            std::chrono::steady_clock::now() >= deadline;
        if (doomed) {
            // Withdraw so the count stays consistent for survivors that
            // bail later (every survivor fails this barrier alike),
            // then drop bar_mu before the poison path detaches shards.
            --c.bar_count;
            lk.unlock();
            check_poisoned();
            return false;
        }
    }
}

int Rank::next_coll_tag(Comm c) {
    // Collectives execute in the same order on every member, so a
    // per-rank counter yields matching tags without communication.
    return kReservedTagBase + 64 * coll_seq_[c]++;
}

void Rank::reduce_combine(void* acc, const void* in, int count, Datatype dt,
                          Op op) const {
    auto fold = [&](auto* a, const auto* b) {
        using T = std::remove_cvref_t<decltype(*b)>;
        for (int i = 0; i < count; ++i) {
            switch (op) {
                case MPI_SUM:
                    // Integer sums wrap modulo 2^N through the unsigned
                    // type (signed overflow would be undefined).
                    if constexpr (std::is_integral_v<T>) {
                        using U = std::make_unsigned_t<T>;
                        a[i] = static_cast<T>(static_cast<U>(static_cast<U>(a[i]) +
                                                             static_cast<U>(b[i])));
                    } else {
                        a[i] = a[i] + b[i];
                    }
                    break;
                case MPI_MAX: a[i] = std::max(a[i], b[i]); break;
                case MPI_MIN: a[i] = std::min(a[i], b[i]); break;
                case MPI_OP_NULL: break;
            }
        }
    };
    switch (dt) {
        case MPI_INT:
            fold(static_cast<std::int32_t*>(acc), static_cast<const std::int32_t*>(in));
            break;
        case MPI_LONG:
            fold(static_cast<std::int64_t*>(acc), static_cast<const std::int64_t*>(in));
            break;
        case MPI_FLOAT:
            fold(static_cast<float*>(acc), static_cast<const float*>(in));
            break;
        case MPI_DOUBLE:
            fold(static_cast<double*>(acc), static_cast<const double*>(in));
            break;
        case MPI_CHAR:
        case MPI_BYTE:
            fold(static_cast<std::uint8_t*>(acc), static_cast<const std::uint8_t*>(in));
            break;
        case MPI_DATATYPE_NULL: break;
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree collective building blocks (CollAlgo::Tree).
//
// All three run in a "virtual rank" space rotated so the root is vrank
// 0; `mask` ends at the lowest set bit of vrank (or past n for the
// root), which makes parent = vrank - mask and the children the
// vrank + 2^k below mask.  Depth is ceil(log2 n) instead of the flat
// algorithms' O(n) root loop.
// ---------------------------------------------------------------------------

bool Rank::coll_bcast_tree(void* buf, int bytes, int root_cr, int tag, CommData& c) {
    const int n = static_cast<int>(c.group.size());
    const int me = my_rank_in(c);
    const int vrank = (me - root_cr + n) % n;
    const auto actual = [&](int v) { return (v + root_cr) % n; };
    int mask = 1;
    while (mask < n && (vrank & mask) == 0) mask <<= 1;
    if (vrank != 0 && !internal_recv(buf, bytes, actual(vrank - mask), tag, c))
        return false;
    for (int m = mask >> 1; m > 0; m >>= 1)
        if (vrank + m < n) internal_send(buf, bytes, actual(vrank + m), tag, c);
    return true;
}

bool Rank::coll_gather_tree(const void* sbuf, void* rbuf, int block, int root_cr,
                            int tag, CommData& c) {
    const int n = static_cast<int>(c.group.size());
    const int me = my_rank_in(c);
    const int vrank = (me - root_cr + n) % n;
    const auto actual = [&](int v) { return (v + root_cr) % n; };
    int mask = 1;
    while (mask < n && (vrank & mask) == 0) mask <<= 1;
    // This rank relays the blocks of its whole subtree: vranks
    // [vrank, vrank + span), laid out in vrank order.
    const int span = std::min(mask, n - vrank);
    std::vector<std::byte> tmp(static_cast<std::size_t>(span) *
                               static_cast<std::size_t>(block));
    if (block > 0) std::memcpy(tmp.data(), sbuf, static_cast<std::size_t>(block));
    for (int m = 1; m < mask; m <<= 1) {
        const int child = vrank + m;
        if (child >= n) break;
        // The child's subtree spans min(m, n - child) vranks, exactly
        // the room left in tmp starting at offset m.
        const int cnt = std::min(m, n - child);
        if (!internal_recv(tmp.data() + static_cast<std::size_t>(m) * block,
                           cnt * block, actual(child), tag, c))
            return false;
    }
    if (vrank != 0) {
        internal_send(tmp.data(), span * block, actual(vrank - mask), tag, c);
    } else if (block > 0) {
        // Unrotate: comm rank r's block sits at vrank (r - root) in tmp.
        auto* out = static_cast<std::byte*>(rbuf);
        for (int r = 0; r < n; ++r)
            std::memcpy(out + static_cast<std::size_t>(r) * block,
                        tmp.data() + static_cast<std::size_t>((r - root_cr + n) % n) *
                                         block,
                        static_cast<std::size_t>(block));
    }
    return true;
}

bool Rank::coll_scatter_tree(const void* sbuf, void* rbuf, int block, int root_cr,
                             int tag, CommData& c) {
    const int n = static_cast<int>(c.group.size());
    const int me = my_rank_in(c);
    const int vrank = (me - root_cr + n) % n;
    const auto actual = [&](int v) { return (v + root_cr) % n; };
    int mask = 1;
    while (mask < n && (vrank & mask) == 0) mask <<= 1;
    const int span = std::min(mask, n - vrank);
    std::vector<std::byte> tmp(static_cast<std::size_t>(span) *
                               static_cast<std::size_t>(block));
    if (vrank == 0) {
        // Rotate into vrank order so every subtree is contiguous.
        const auto* in = static_cast<const std::byte*>(sbuf);
        if (block > 0)
            for (int r = 0; r < n; ++r)
                std::memcpy(tmp.data() + static_cast<std::size_t>((r - root_cr + n) % n) *
                                             block,
                            in + static_cast<std::size_t>(r) * block,
                            static_cast<std::size_t>(block));
    } else if (!internal_recv(tmp.data(), span * block, actual(vrank - mask), tag, c)) {
        return false;
    }
    for (int m = mask >> 1; m > 0; m >>= 1) {
        const int child = vrank + m;
        if (child < n) {
            const int cnt = std::min(m, n - child);
            internal_send(tmp.data() + static_cast<std::size_t>(m) * block, cnt * block,
                          actual(child), tag, c);
        }
    }
    if (block > 0) std::memcpy(rbuf, tmp.data(), static_cast<std::size_t>(block));
    return true;
}

bool Rank::coll_allreduce_tree(const void* sbuf, void* rbuf, int count, Datatype dt,
                               Op op, int bytes, int tag, CommData& c) {
    const int n = static_cast<int>(c.group.size());
    const int me = my_rank_in(c);
    std::unique_lock lk(c.shm_mu);
    if (!c.shm_layout_built) {
        std::map<std::string, int> index_of;
        c.shm_node_of.resize(static_cast<std::size_t>(n));
        for (int cr = 0; cr < n; ++cr) {
            const std::string& node = world_.proc(c.group[cr]).node;
            const auto [it, fresh] =
                index_of.emplace(node, static_cast<int>(c.shm_leaders.size()));
            if (fresh) {
                c.shm_leaders.push_back(cr);
                c.shm_node_size.push_back(0);
            }
            c.shm_node_of[static_cast<std::size_t>(cr)] = it->second;
            ++c.shm_node_size[static_cast<std::size_t>(it->second)];
        }
        c.shm_cells = std::vector<ShmCombineCell>(c.shm_leaders.size());
        c.shm_layout_built = true;
    }
    const int ni = c.shm_node_of[static_cast<std::size_t>(me)];
    ShmCombineCell& cell = c.shm_cells[static_cast<std::size_t>(ni)];
    const int k = c.shm_node_size[static_cast<std::size_t>(ni)];
    const bool leader = c.shm_leaders[static_cast<std::size_t>(ni)] == me;
    const std::uint64_t gen0 = cell.gen;
    if (cell.arrived == 0) {
        cell.failed = false;
        cell.acc.resize(static_cast<std::size_t>(bytes));
        if (bytes > 0)
            std::memcpy(cell.acc.data(), sbuf, static_cast<std::size_t>(bytes));
    } else if (bytes > 0) {
        reduce_combine(cell.acc.data(), sbuf, count, dt, op);
    }
    ++cell.arrived;
    const auto deadline = wait_deadline();
    const std::shared_ptr<sched::WaitToken>& tok = sched::current_wait_token();
    if (!leader) {
        // Last arriver hands the full node to the (parked) leader.
        if (cell.arrived == k && cell.leader_waiter) cell.leader_waiter->unpark();
        for (;;) {
            cell.waiters.push_back(tok);
            lk.unlock();
            tok->park_until(deadline);
            lk.lock();
            auto& v = cell.waiters;
            v.erase(std::remove(v.begin(), v.end(), tok), v.end());
            if (cell.gen != gen0) break;
            const bool doomed =
                world_.poisoned() || comm_revoked(c) ||
                (world_.death_epoch() != 0 && world_.comm_has_dead_member(c)) ||
                std::chrono::steady_clock::now() >= deadline;
            if (doomed) {
                // The fold already consumed this rank's contribution,
                // so no withdrawal: flag the round instead and let the
                // leader publish the failure (every member fails alike).
                cell.failed = true;
                if (cell.leader_waiter) cell.leader_waiter->unpark();
                check_poisoned();
                return false;
            }
        }
        if (cell.result_failed) return false;
        if (bytes > 0)
            std::memcpy(rbuf, cell.result.data(), static_cast<std::size_t>(bytes));
        return true;
    }
    // Leader: publishes the round's outcome (result or failure) so
    // parked followers always get released exactly once per round.
    const auto publish = [&](bool ok, std::vector<std::byte>&& value) {
        cell.result_failed = !ok;
        cell.result = std::move(value);
        ++cell.gen;
        cell.arrived = 0;
        std::vector<std::shared_ptr<sched::WaitToken>> waiters;
        waiters.swap(cell.waiters);
        lk.unlock();
        for (const auto& t : waiters) t->unpark();
    };
    while (cell.arrived < k && !cell.failed) {
        cell.leader_waiter = tok;
        lk.unlock();
        tok->park_until(deadline);
        lk.lock();
        if (cell.leader_waiter == tok) cell.leader_waiter.reset();
        if (cell.arrived >= k || cell.failed) break;
        const bool doomed =
            world_.poisoned() || comm_revoked(c) ||
            (world_.death_epoch() != 0 && world_.comm_has_dead_member(c)) ||
            std::chrono::steady_clock::now() >= deadline;
        if (doomed) {
            publish(false, {});
            check_poisoned();
            return false;
        }
    }
    cell.leader_waiter.reset();
    bool ok = !cell.failed;
    std::vector<std::byte> acc;
    acc.swap(cell.acc);
    lk.unlock();
    const int num_leaders = static_cast<int>(c.shm_leaders.size());
    if (ok && num_leaders > 1) {
        // Binomial reduce to the first leader, then binomial bcast
        // back across the leader set (node index == leader index).
        const std::vector<int>& ld = c.shm_leaders;
        const int lme = ni;
        std::vector<std::byte> tmp(static_cast<std::size_t>(bytes));
        for (int mask = 1; mask < num_leaders; mask <<= 1) {
            if (lme & mask) {
                internal_send(acc.data(), bytes, ld[static_cast<std::size_t>(lme - mask)],
                              tag, c);
                break;
            }
            const int child = lme + mask;
            if (child >= num_leaders) continue;
            if (!internal_recv(tmp.data(), bytes, ld[static_cast<std::size_t>(child)],
                               tag, c)) {
                ok = false;
                break;
            }
            if (bytes > 0) reduce_combine(acc.data(), tmp.data(), count, dt, op);
        }
        if (ok) {
            int mask = 1;
            while (mask < num_leaders && (lme & mask) == 0) mask <<= 1;
            if (lme != 0 &&
                !internal_recv(acc.data(), bytes, ld[static_cast<std::size_t>(lme - mask)],
                               tag + 32, c))
                ok = false;
            if (ok)
                for (int m = mask >> 1; m > 0; m >>= 1)
                    if (lme + m < num_leaders)
                        internal_send(acc.data(), bytes,
                                      ld[static_cast<std::size_t>(lme + m)], tag + 32, c);
        }
    }
    if (ok && bytes > 0)
        std::memcpy(rbuf, acc.data(), static_cast<std::size_t>(bytes));
    lk.lock();
    ok = ok && !cell.failed;
    publish(ok, std::move(acc));
    return ok;
}

// ---------------------------------------------------------------------------
// Point-to-point: instrumented trampolines
// ---------------------------------------------------------------------------

int Rank::MPI_Send(const void* buf, int count, Datatype dt, int dest, int tag, Comm c) {
    const std::int64_t a[] = {as_arg(buf),
                              count,
                              static_cast<std::int64_t>(dt),
                              dest,
                              tag,
                              c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Send, a);
    fault_point("MPI_Send");
    return PMPI_Send(buf, count, dt, dest, tag, c);
}

int Rank::PMPI_Send(const void* buf, int count, Datatype dt, int dest, int tag, Comm c) {
    const std::int64_t a[] = {as_arg(buf),
                              count,
                              static_cast<std::int64_t>(dt),
                              dest,
                              tag,
                              c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Send, a);
    return send_body(buf, count, dt, dest, tag, c, SendMode::Standard);
}

int Rank::MPI_Ssend(const void* buf, int count, Datatype dt, int dest, int tag,
                    Comm c) {
    const std::int64_t a[] = {as_arg(buf),
                              count,
                              static_cast<std::int64_t>(dt),
                              dest,
                              tag,
                              c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Ssend, a);
    fault_point("MPI_Ssend");
    {
        const std::int64_t pa[] = {as_arg(buf),
                                   count,
                                   static_cast<std::int64_t>(dt),
                                   dest,
                                   tag,
                                   c};
        instr::FunctionGuard pg(world_.registry(), world_.fids().PMPI_Ssend, pa);
        return send_body(buf, count, dt, dest, tag, c, SendMode::Synchronous);
    }
}

int Rank::MPI_Recv(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                   Status* st) {
    const std::int64_t a[] = {as_arg(buf), count, static_cast<std::int64_t>(dt),
                              src,         tag,   c,
                              as_arg(st)};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Recv, a);
    fault_point("MPI_Recv");
    return PMPI_Recv(buf, count, dt, src, tag, c, st);
}

int Rank::PMPI_Recv(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                    Status* st) {
    const std::int64_t a[] = {as_arg(buf), count, static_cast<std::int64_t>(dt),
                              src,         tag,   c,
                              as_arg(st)};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Recv, a);
    return recv_body(buf, count, dt, src, tag, c, st);
}

int Rank::MPI_Isend(const void* buf, int count, Datatype dt, int dest, int tag, Comm c,
                    Request* req) {
    const std::int64_t a[] = {as_arg(buf), count,       static_cast<std::int64_t>(dt),
                              dest,        tag,         c,
                              as_arg(req)};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Isend, a);
    fault_point("MPI_Isend");
    return PMPI_Isend(buf, count, dt, dest, tag, c, req);
}

int Rank::PMPI_Isend(const void* buf, int count, Datatype dt, int dest, int tag, Comm c,
                     Request* req) {
    const std::int64_t a[] = {as_arg(buf), count,       static_cast<std::int64_t>(dt),
                              dest,        tag,         c,
                              as_arg(req)};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Isend, a);
    if (!req) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_pt2pt(cd, count, dt, dest, tag, /*is_send=*/true);
        rc != MPI_SUCCESS)
        return rc;
    if (dest == MPI_PROC_NULL) {
        RequestData rd;
        rd.kind = RequestKind::Completed;
        rd.owner_global = global_;
        *req = world_.create_request(std::move(rd));
        return MPI_SUCCESS;
    }

    const std::size_t bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(datatype_size(dt));
    const int src_cr = my_rank_in(cd);
    const int dest_global = dest_group(cd)[static_cast<std::size_t>(dest)];
    Mailbox& mb = world_.mailbox(dest_global);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.rank_unreachable(dest_global))
        return comm_error(c, MPI_ERR_RANK);
    if (FaultPlan* plan = world_.config().faults.get();
        plan && plan->has_message_faults() &&
        plan->on_message(global_, dest_global).drop) {
        // Lost on the wire: the request completes as if delivered (a
        // standard-mode sender cannot observe the loss; injected delays
        // are a blocking-send concern and are ignored here).
        RequestData done;
        done.kind = RequestKind::Completed;
        done.owner_global = global_;
        *req = world_.create_request(std::move(done));
        return MPI_SUCCESS;
    }
    RequestData rd;
    rd.owner_global = global_;
    rd.dest_mailbox = dest_global;
    rd.comm = c;
    std::shared_ptr<sched::WaitToken> wake_msg;
    {
        std::lock_guard lk(mb.mu);
        Envelope env;
        env.src_global = global_;
        env.src_comm_rank = src_cr;
        env.tag = tag;
        env.context = cd.context;
        env.data = mb.take_buf_locked(bytes);
        if (bytes > 0) std::memcpy(env.data.data(), buf, bytes);
        if (bytes <= world_.config().eager_limit &&
            mb.bytes_queued + bytes + kEnvelopeOverhead <=
                world_.config().mailbox_capacity) {
            mb.bytes_queued += bytes + kEnvelopeOverhead;
            rd.kind = RequestKind::Completed;
        } else {
            // Large (or flow-controlled) nonblocking send: completion is
            // deferred to MPI_Wait via a delivery token.
            rd.kind = RequestKind::SendToken;
            rd.delivered = std::make_shared<DeliveryToken>();
            env.delivered = rd.delivered;
        }
        mb.queue.push_back(std::move(env));
        mb.note_queued_locked(rd.kind == RequestKind::SendToken);
        wake_msg = mb.msg_waiter;
    }
    if (wake_msg) wake_msg->unpark();
    *req = world_.create_request(std::move(rd));
    return MPI_SUCCESS;
}

int Rank::MPI_Irecv(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                    Request* req) {
    const std::int64_t a[] = {as_arg(buf), count,       static_cast<std::int64_t>(dt),
                              src,         tag,         c,
                              as_arg(req)};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Irecv, a);
    fault_point("MPI_Irecv");
    return PMPI_Irecv(buf, count, dt, src, tag, c, req);
}

int Rank::PMPI_Irecv(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                     Request* req) {
    const std::int64_t a[] = {as_arg(buf), count,       static_cast<std::int64_t>(dt),
                              src,         tag,         c,
                              as_arg(req)};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Irecv, a);
    if (!req) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_pt2pt(cd, count, dt, src, tag, /*is_send=*/false);
        rc != MPI_SUCCESS)
        return rc;
    // The receive is matched when waited on.  This serializes overlap
    // but preserves blocking semantics (documented in DESIGN.md).
    RequestData rd;
    rd.kind = RequestKind::RecvDeferred;
    rd.owner_global = global_;
    rd.buf = buf;
    rd.count = count;
    rd.dt = dt;
    rd.src = src;
    rd.tag = tag;
    rd.comm = c;
    *req = world_.create_request(std::move(rd));
    return MPI_SUCCESS;
}

int Rank::wait_one(RequestData& rd, Status* st) {
    switch (rd.kind) {
        case RequestKind::Null:
        case RequestKind::Completed: return MPI_SUCCESS;
        case RequestKind::SendToken: {
            const auto deadline = wait_deadline();
            const int dest = rd.dest_mailbox;
            CommData& cd = world_.comm(rd.comm);
            const bool delivered = rd.delivered->wait_or_abandon(
                [&] {
                    return world_.poisoned() || comm_revoked(cd) ||
                           (world_.death_epoch() != 0 &&
                            world_.rank_unreachable(dest)) ||
                           std::chrono::steady_clock::now() >= deadline;
                },
                deadline);
            if (delivered) return MPI_SUCCESS;
            check_poisoned();
            return comm_error(rd.comm,
                              comm_revoked(cd) ? MPI_ERR_REVOKED : MPI_ERR_RANK);
        }
        case RequestKind::RecvDeferred:
            return recv_body(rd.buf, rd.count, rd.dt, rd.src, rd.tag, rd.comm, st);
    }
    return MPI_ERR_REQUEST;
}

int Rank::MPI_Wait(Request* req, Status* st) {
    const std::int64_t a[] = {as_arg(req)};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Wait, a);
    fault_point("MPI_Wait");
    return PMPI_Wait(req, st);
}

int Rank::PMPI_Wait(Request* req, Status* st) {
    const std::int64_t a[] = {as_arg(req)};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Wait, a);
    if (!req) return MPI_ERR_ARG;
    if (*req == MPI_REQUEST_NULL) return MPI_SUCCESS;
    if (!world_.request_valid(*req)) return MPI_ERR_REQUEST;
    RequestData& rd = world_.request(*req);
    const int rc = wait_one(rd, st);
    world_.free_request(*req);
    *req = MPI_REQUEST_NULL;
    return rc;
}

int Rank::MPI_Waitall(int n, Request* reqs, Status* sts) {
    const std::int64_t a[] = {n, as_arg(reqs)};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Waitall, a);
    fault_point("MPI_Waitall");
    return PMPI_Waitall(n, reqs, sts);
}

int Rank::PMPI_Waitall(int n, Request* reqs, Status* sts) {
    const std::int64_t a[] = {n, as_arg(reqs)};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Waitall, a);
    if (n < 0 || (n > 0 && !reqs)) return MPI_ERR_ARG;
    int rc = MPI_SUCCESS;
    for (int i = 0; i < n; ++i) {
        Status* st = sts ? &sts[i] : nullptr;
        const int r = PMPI_Wait(&reqs[i], st);
        if (r != MPI_SUCCESS) rc = r;
    }
    return rc;
}

int Rank::MPI_Sendrecv(const void* sbuf, int scount, Datatype sdt, int dest, int stag,
                       void* rbuf, int rcount, Datatype rdt, int src, int rtag, Comm c,
                       Status* st) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              dest,         stag,   as_arg(rbuf),
                              rcount,       static_cast<std::int64_t>(rdt),
                              src,          rtag,   c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Sendrecv, a);
    fault_point("MPI_Sendrecv");
    return PMPI_Sendrecv(sbuf, scount, sdt, dest, stag, rbuf, rcount, rdt, src, rtag, c,
                         st);
}

int Rank::PMPI_Sendrecv(const void* sbuf, int scount, Datatype sdt, int dest, int stag,
                        void* rbuf, int rcount, Datatype rdt, int src, int rtag, Comm c,
                        Status* st) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              dest,         stag,   as_arg(rbuf),
                              rcount,       static_cast<std::int64_t>(rdt),
                              src,          rtag,   c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Sendrecv, a);
    // The send half is buffered so two processes exchanging with
    // Sendrecv cannot deadlock; the waiting happens in the receive.
    const int rc = send_body(sbuf, scount, sdt, dest, stag, c, SendMode::ForceEager);
    if (rc != MPI_SUCCESS) return rc;
    return recv_body(rbuf, rcount, rdt, src, rtag, c, st);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

Rank::CollScope::CollScope(Rank& r, const char* name, Comm c, std::int64_t bytes,
                           int algo)
    : r_(r), name_(name), c_(c), algo_(algo) {
    r_.world_.trace_event(trace::EventKind::CollBegin, r_.global_, name_, bytes, algo_, c_);
}

Rank::CollScope::~CollScope() {
    r_.world_.trace_event(trace::EventKind::CollEnd, r_.global_, name_, 0, algo_, c_);
}

int Rank::MPI_Barrier(Comm c) {
    const std::int64_t a[] = {c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Barrier, a);
    fault_point("MPI_Barrier");
    return PMPI_Barrier(c);
}

int Rank::PMPI_Barrier(Comm c) {
    const std::int64_t a[] = {c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Barrier, a);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    // Barrier "algo": 0 = LAM's shared token exchange, 1 = MPICH's
    // dissemination rounds.
    CollScope cs(*this, "MPI_Barrier", c, 0,
                 world_.flavor() == Flavor::Mpich ? 1 : 0);
    if (world_.flavor() == Flavor::Lam)
        return barrier_internal(cd) ? MPI_SUCCESS : comm_error(c, coll_fail_code(cd));
    // MPICH implements MPI_Barrier as a dissemination exchange built on
    // PMPI_Sendrecv -- which is why the paper's Performance Consultant
    // drills from MPI_Barrier down to PMPI_Sendrecv (Fig 9).
    const int n = static_cast<int>(cd.group.size());
    if (n <= 1) return MPI_SUCCESS;
    const int me = my_rank_in(cd);
    const int seq_tag = next_coll_tag(c);
    // The tag is consumed unconditionally (coll_seq_ must stay aligned
    // across ranks even when some bail), then liveness is checked.
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    int tok = 0, tok2 = 0;
    int round = 0;
    for (int k = 1; k < n; k <<= 1, ++round) {
        const int to = (me + k) % n;
        const int from = (me - k % n + n) % n;
        Status st;
        const int rc = PMPI_Sendrecv(&tok, 1, MPI_INT, to, seq_tag + round, &tok2, 1,
                                     MPI_INT, from, seq_tag + round, c, &st);
        // Map whatever the exchange saw (dead partner on either half)
        // to the one code every survivor of a failed collective gets.
        if (rc != MPI_SUCCESS) return comm_error(c, coll_fail_code(cd));
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Bcast(void* buf, int count, Datatype dt, int root, Comm c) {
    const std::int64_t a[] = {as_arg(buf), count, static_cast<std::int64_t>(dt), root, c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Bcast, a);
    fault_point("MPI_Bcast");
    return PMPI_Bcast(buf, count, dt, root, c);
}

int Rank::PMPI_Bcast(void* buf, int count, Datatype dt, int root, Comm c) {
    const std::int64_t a[] = {as_arg(buf), count, static_cast<std::int64_t>(dt), root, c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Bcast, a);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    if (count < 0) return MPI_ERR_COUNT;
    if (datatype_size(dt) <= 0) return MPI_ERR_TYPE;
    const int n = static_cast<int>(cd.group.size());
    if (root < 0 || root >= n) return MPI_ERR_RANK;
    const int me = my_rank_in(cd);
    const int bytes = count * datatype_size(dt);
    const int tag = next_coll_tag(c);
    const bool tree = world_.config().coll_algo == CollAlgo::Tree && n > 1;
    CollScope cs(*this, "MPI_Bcast", c, bytes, tree ? 1 : 0);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    if (tree)
        return coll_bcast_tree(buf, bytes, root, tag, cd)
                   ? MPI_SUCCESS
                   : comm_error(c, coll_fail_code(cd));
    // Flat star: the linear baseline CollAlgo::Flat selects.
    if (me == root) {
        for (int r = 0; r < n; ++r)
            if (r != root) internal_send(buf, bytes, r, tag, cd);
    } else if (!internal_recv(buf, bytes, root, tag, cd)) {
        return comm_error(c, coll_fail_code(cd));
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Reduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op,
                     int root, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), as_arg(rbuf),
                              count,        static_cast<std::int64_t>(dt),
                              static_cast<std::int64_t>(op), root, c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Reduce, a);
    fault_point("MPI_Reduce");
    return PMPI_Reduce(sbuf, rbuf, count, dt, op, root, c);
}

int Rank::PMPI_Reduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op,
                      int root, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), as_arg(rbuf),
                              count,        static_cast<std::int64_t>(dt),
                              static_cast<std::int64_t>(op), root, c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Reduce, a);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    if (count < 0) return MPI_ERR_COUNT;
    if (datatype_size(dt) <= 0) return MPI_ERR_TYPE;
    const int n = static_cast<int>(cd.group.size());
    if (root < 0 || root >= n) return MPI_ERR_RANK;
    const int me = my_rank_in(cd);
    const int bytes = count * datatype_size(dt);
    const int tag = next_coll_tag(c);
    const bool tree = world_.config().coll_algo == CollAlgo::Tree && n > 1;
    CollScope cs(*this, "MPI_Reduce", c, bytes, tree ? 1 : 0);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    if (tree) {
        // Binomial reduce (ops are commutative): combine children's
        // partial results, then forward the accumulator to the parent.
        const int vrank = (me - root + n) % n;
        const auto actual = [&](int v) { return (v + root) % n; };
        std::vector<std::byte> acc(static_cast<std::size_t>(bytes));
        std::vector<std::byte> tmp(static_cast<std::size_t>(bytes));
        if (bytes > 0) std::memcpy(acc.data(), sbuf, static_cast<std::size_t>(bytes));
        for (int mask = 1; mask < n; mask <<= 1) {
            if (vrank & mask) {
                internal_send(acc.data(), bytes, actual(vrank - mask), tag, cd);
                break;
            }
            const int child = vrank + mask;
            if (child < n) {
                if (!internal_recv(tmp.data(), bytes, actual(child), tag, cd))
                    return comm_error(c, coll_fail_code(cd));
                reduce_combine(acc.data(), tmp.data(), count, dt, op);
            }
        }
        if (me == root && bytes > 0)
            std::memcpy(rbuf, acc.data(), static_cast<std::size_t>(bytes));
        return MPI_SUCCESS;
    }
    if (me == root) {
        if (bytes > 0) std::memcpy(rbuf, sbuf, static_cast<std::size_t>(bytes));
        std::vector<std::byte> tmp(static_cast<std::size_t>(bytes));
        for (int r = 0; r < n; ++r) {
            if (r == root) continue;
            if (!internal_recv(tmp.data(), bytes, r, tag, cd))
                return comm_error(c, coll_fail_code(cd));
            reduce_combine(rbuf, tmp.data(), count, dt, op);
        }
    } else {
        internal_send(sbuf, bytes, root, tag, cd);
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Allreduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op,
                        Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), as_arg(rbuf),
                              count,        static_cast<std::int64_t>(dt),
                              static_cast<std::int64_t>(op), c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Allreduce, a);
    fault_point("MPI_Allreduce");
    return PMPI_Allreduce(sbuf, rbuf, count, dt, op, c);
}

int Rank::PMPI_Allreduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op,
                         Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), as_arg(rbuf),
                              count,        static_cast<std::int64_t>(dt),
                              static_cast<std::int64_t>(op), c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Allreduce, a);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    if (count < 0) return MPI_ERR_COUNT;
    if (datatype_size(dt) <= 0) return MPI_ERR_TYPE;
    const int n = static_cast<int>(cd.group.size());
    const int me = my_rank_in(cd);
    const int bytes = count * datatype_size(dt);
    const int tag = next_coll_tag(c);
    const bool tree = world_.config().coll_algo == CollAlgo::Tree && n > 1;
    CollScope cs(*this, "MPI_Allreduce", c, bytes, tree ? 1 : 0);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    if (tree) {
        // Node-aware schedule, replacing recursive doubling: doubling
        // moved 2*n*log2(n) point-to-point messages per operation and
        // parked both partners at every round, losing to the flat star
        // on wall-clock whenever ranks timeshare a small worker pool.
        // Here same-node ranks fold through a shared combining cell
        // (zero messages -- the shm fast path a real intra-node
        // transport takes) and only node leaders exchange across the
        // simulated network, binomially.  Aggregate traffic drops from
        // the star's 2*(n-1) messages to 2*(#nodes-1) while the
        // per-rank critical path stays logarithmic.
        return coll_allreduce_tree(sbuf, rbuf, count, dt, op, bytes, tag, cd)
                   ? MPI_SUCCESS
                   : comm_error(c, coll_fail_code(cd));
    }
    if (me == 0) {
        if (bytes > 0) std::memcpy(rbuf, sbuf, static_cast<std::size_t>(bytes));
        std::vector<std::byte> tmp(static_cast<std::size_t>(bytes));
        for (int r = 1; r < n; ++r) {
            if (!internal_recv(tmp.data(), bytes, r, tag, cd))
                return comm_error(c, coll_fail_code(cd));
            reduce_combine(rbuf, tmp.data(), count, dt, op);
        }
        for (int r = 1; r < n; ++r) internal_send(rbuf, bytes, r, tag + 1, cd);
    } else {
        internal_send(sbuf, bytes, 0, tag, cd);
        if (!internal_recv(rbuf, bytes, 0, tag + 1, cd))
            return comm_error(c, coll_fail_code(cd));
    }
    return MPI_SUCCESS;
}

namespace {
/// Shared validation for the gather/scatter family.
int check_gs(const CommData& cd, int scount, Datatype sdt, int rcount, Datatype rdt,
             int root) {
    if (cd.is_inter) return MPI_ERR_COMM;
    if (scount < 0 || rcount < 0) return MPI_ERR_COUNT;
    if (datatype_size(sdt) <= 0 || datatype_size(rdt) <= 0) return MPI_ERR_TYPE;
    if (root < 0 || static_cast<std::size_t>(root) >= cd.group.size())
        return MPI_ERR_RANK;
    // Matching signatures (we require equal byte counts per block).
    if (static_cast<std::int64_t>(scount) * datatype_size(sdt) !=
        static_cast<std::int64_t>(rcount) * datatype_size(rdt))
        return MPI_ERR_ARG;
    return MPI_SUCCESS;
}
}  // namespace

int Rank::MPI_Gather(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                     Datatype rdt, int root, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              as_arg(rbuf), rcount, static_cast<std::int64_t>(rdt),
                              root,         c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Gather, a);
    fault_point("MPI_Gather");
    return PMPI_Gather(sbuf, scount, sdt, rbuf, rcount, rdt, root, c);
}

int Rank::PMPI_Gather(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                      int rcount, Datatype rdt, int root, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              as_arg(rbuf), rcount, static_cast<std::int64_t>(rdt),
                              root,         c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Gather, a);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_gs(cd, scount, sdt, rcount, rdt, root); rc != MPI_SUCCESS)
        return rc;
    const int me = my_rank_in(cd);
    const int n = static_cast<int>(cd.group.size());
    const int block = scount * datatype_size(sdt);
    const int tag = next_coll_tag(c);
    const bool tree = world_.config().coll_algo == CollAlgo::Tree && n > 1;
    CollScope cs(*this, "MPI_Gather", c, block, tree ? 1 : 0);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    if (tree)
        return coll_gather_tree(sbuf, me == root ? rbuf : nullptr, block, root, tag, cd)
                   ? MPI_SUCCESS
                   : comm_error(c, coll_fail_code(cd));
    if (me == root) {
        auto* out = static_cast<std::byte*>(rbuf);
        std::memcpy(out + static_cast<std::ptrdiff_t>(root) * block, sbuf,
                    static_cast<std::size_t>(block));
        for (int r = 0; r < n; ++r) {
            if (r == root) continue;
            if (!internal_recv(out + static_cast<std::ptrdiff_t>(r) * block, block, r,
                               tag, cd))
                return comm_error(c, coll_fail_code(cd));
        }
    } else {
        internal_send(sbuf, block, root, tag, cd);
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Scatter(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                      int rcount, Datatype rdt, int root, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              as_arg(rbuf), rcount, static_cast<std::int64_t>(rdt),
                              root,         c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Scatter, a);
    fault_point("MPI_Scatter");
    return PMPI_Scatter(sbuf, scount, sdt, rbuf, rcount, rdt, root, c);
}

int Rank::PMPI_Scatter(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                       int rcount, Datatype rdt, int root, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              as_arg(rbuf), rcount, static_cast<std::int64_t>(rdt),
                              root,         c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Scatter, a);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_gs(cd, scount, sdt, rcount, rdt, root); rc != MPI_SUCCESS)
        return rc;
    const int me = my_rank_in(cd);
    const int n = static_cast<int>(cd.group.size());
    const int block = rcount * datatype_size(rdt);
    const int tag = next_coll_tag(c);
    const bool tree = world_.config().coll_algo == CollAlgo::Tree && n > 1;
    CollScope cs(*this, "MPI_Scatter", c, block, tree ? 1 : 0);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    if (tree)
        return coll_scatter_tree(me == root ? sbuf : nullptr, rbuf, block, root, tag, cd)
                   ? MPI_SUCCESS
                   : comm_error(c, coll_fail_code(cd));
    if (me == root) {
        const auto* in = static_cast<const std::byte*>(sbuf);
        std::memcpy(rbuf, in + static_cast<std::ptrdiff_t>(root) * block,
                    static_cast<std::size_t>(block));
        for (int r = 0; r < n; ++r) {
            if (r == root) continue;
            internal_send(in + static_cast<std::ptrdiff_t>(r) * block, block, r, tag,
                          cd);
        }
    } else if (!internal_recv(rbuf, block, root, tag, cd)) {
        return comm_error(c, coll_fail_code(cd));
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Allgather(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                        int rcount, Datatype rdt, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              as_arg(rbuf), rcount, static_cast<std::int64_t>(rdt), c};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Allgather, a);
    fault_point("MPI_Allgather");
    return PMPI_Allgather(sbuf, scount, sdt, rbuf, rcount, rdt, c);
}

int Rank::PMPI_Allgather(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                         int rcount, Datatype rdt, Comm c) {
    const std::int64_t a[] = {as_arg(sbuf), scount, static_cast<std::int64_t>(sdt),
                              as_arg(rbuf), rcount, static_cast<std::int64_t>(rdt), c};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Allgather, a);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (const int rc = check_gs(cd, scount, sdt, rcount, rdt, 0); rc != MPI_SUCCESS)
        return rc;
    const int me = my_rank_in(cd);
    const int n = static_cast<int>(cd.group.size());
    const int block = rcount * datatype_size(rdt);
    const int tag = next_coll_tag(c);
    const bool tree = world_.config().coll_algo == CollAlgo::Tree && n > 1;
    CollScope cs(*this, "MPI_Allgather", c, block, tree ? 1 : 0);
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    auto* out = static_cast<std::byte*>(rbuf);
    if (tree) {
        if ((n & (n - 1)) == 0) {
            // Power of two: recursive doubling, each round swapping the
            // m-block slab the partner pair already holds.
            if (block > 0)
                std::memcpy(out + static_cast<std::size_t>(me) * block, sbuf,
                            static_cast<std::size_t>(block));
            int round = 0;
            for (int m = 1; m < n; m <<= 1, ++round) {
                const int peer = me ^ m;
                const int my_off = me & ~(m - 1);
                const int peer_off = peer & ~(m - 1);
                internal_send(out + static_cast<std::size_t>(my_off) * block, m * block,
                              peer, tag + round, cd);
                if (!internal_recv(out + static_cast<std::size_t>(peer_off) * block,
                                   m * block, peer, tag + round, cd))
                    return comm_error(c, coll_fail_code(cd));
            }
        } else {
            if (!coll_gather_tree(sbuf, me == 0 ? rbuf : nullptr, block, 0, tag, cd) ||
                !coll_bcast_tree(out, n * block, 0, tag + 32, cd))
                return comm_error(c, coll_fail_code(cd));
        }
        return MPI_SUCCESS;
    }
    // Gather-to-0 then broadcast of the assembled vector.
    if (me == 0) {
        std::memcpy(out, sbuf, static_cast<std::size_t>(block));
        for (int r = 1; r < n; ++r)
            if (!internal_recv(out + static_cast<std::ptrdiff_t>(r) * block, block, r,
                               tag, cd))
                return comm_error(c, coll_fail_code(cd));
        for (int r = 1; r < n; ++r) internal_send(out, n * block, r, tag + 1, cd);
    } else {
        internal_send(sbuf, block, 0, tag, cd);
        if (!internal_recv(out, n * block, 0, tag + 1, cd))
            return comm_error(c, coll_fail_code(cd));
    }
    return MPI_SUCCESS;
}

}  // namespace m2p::simmpi
