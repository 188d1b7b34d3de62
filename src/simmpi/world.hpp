// World: the shared state of a simmpi universe -- the process table,
// communicators, RMA windows, groups, mailboxes, and the spawn
// machinery.  One World models one cluster run (an "mpirun"): the
// launcher creates the initial processes; MPI_Comm_spawn adds more at
// run time, exactly the situation the paper's dynamic-process-creation
// support must handle (tools cannot know the number of application
// processes until run time, section 3).
//
// Handle tables use the append-only chunked-storage pattern from the
// instrumentation registry (see handle_table.hpp): every lookup on the
// message data path -- comm(), mailbox(), proc(), request(), win() --
// is lock-free; creation and free keep writer mutexes.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "instr/registry.hpp"
#include "pvar/registry.hpp"
#include "simmpi/faults.hpp"
#include "simmpi/handle_table.hpp"
#include "simmpi/recovery.hpp"
#include "simmpi/sched.hpp"
#include "simmpi/types.hpp"
#include "trace/flight_recorder.hpp"

namespace m2p::pvar {
class ExportWriter;
}

namespace m2p::simmpi {

class Rank;
class World;

/// An MPI program: what an executable's main() would be on a cluster.
/// Registered under a command name so MPI_Comm_spawn can find it
/// (simulating the process manager's ability to exec a binary).
using ProgramFn = std::function<void(Rank&, const std::vector<std::string>& argv)>;

/// Reusable payload storage: raw uninitialized bytes, so filling it
/// costs one memcpy (a std::vector would zero every byte first, a
/// second full write over the payload).  Buffers cycle sender ->
/// queue -> receiver -> per-mailbox free list -> sender.
class PayloadBuf {
public:
    PayloadBuf() = default;
    PayloadBuf(PayloadBuf&&) = default;
    PayloadBuf& operator=(PayloadBuf&&) = default;

    /// Makes the buffer hold exactly @p n bytes, reallocating only when
    /// the current capacity is too small.  Contents are uninitialized.
    void ensure(std::size_t n) {
        if (cap_ < n) {
            data_.reset(new std::byte[n]);
            cap_ = n;
        }
        size_ = n;
    }
    std::byte* data() { return data_.get(); }
    const std::byte* data() const { return data_.get(); }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

private:
    std::unique_ptr<std::byte[]> data_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/// Rendezvous completion token: delivering one message wakes exactly
/// the one sender (or waiter) parked on it -- never the whole mailbox.
/// Parking is a sched::WaitToken registration: on the fiber engine a
/// signal is a targeted unpark (no polling slice at all); on the
/// thread engine the token degrades to the legacy 5 ms cv slices.
class DeliveryToken {
public:
    void signal() {
        std::shared_ptr<sched::WaitToken> w;
        {
            std::lock_guard lk(mu_);
            done_.store(true, std::memory_order_release);
            w = std::move(waiter_);
        }
        if (w) w->unpark();
    }
    /// Liveness-checked wait: parks until signalled and gives up when
    /// @p abandoned() turns true (peer died, world poisoned, deadline
    /// passed).  @p deadline bounds each park so the deadline clause of
    /// the predicate is guaranteed to be re-evaluated; death and poison
    /// re-checks ride the scheduler's broadcast unpark.  Returns true
    /// when the token was signalled, false when the wait was abandoned.
    /// Signals still win races: the predicate is only consulted while
    /// done_ is false.
    template <class Abandoned>
    bool wait_or_abandon(Abandoned&& abandoned,
                         std::chrono::steady_clock::time_point deadline) {
        if (done_.load(std::memory_order_acquire)) return true;
        const std::shared_ptr<sched::WaitToken>& tok = sched::current_wait_token();
        for (;;) {
            // Consult the predicate BEFORE parking: if the peer died in
            // the past there is no future broadcast to wake us, so an
            // unchecked first park would sleep clear to the deadline.
            if (abandoned()) return done_.load(std::memory_order_acquire);
            {
                std::lock_guard lk(mu_);
                if (done_.load(std::memory_order_acquire)) return true;
                waiter_ = tok;
            }
            tok->park_until(deadline);
            {
                std::lock_guard lk(mu_);
                waiter_.reset();
            }
            if (done_.load(std::memory_order_acquire)) return true;
        }
    }

private:
    std::atomic<bool> done_{false};
    std::mutex mu_;  ///< guards waiter_ registration only
    std::shared_ptr<sched::WaitToken> waiter_;
};

/// One message in flight.
struct Envelope {
    int src_global = -1;
    int src_comm_rank = -1;
    int tag = 0;
    std::int64_t context = 0;  ///< communicator context id
    PayloadBuf data;
    /// Rendezvous token: non-null when the sender blocks until the
    /// receiver has copied the payload (large messages).
    std::shared_ptr<DeliveryToken> delivered;
};

/// Accounting cost of one queued envelope beyond its payload (header,
/// matching metadata).  Real MPI eager buffers are charged per-message
/// overhead too; without it, tiny messages would never exert
/// backpressure.
inline constexpr std::size_t kEnvelopeOverhead = 64;

/// Per-process incoming message queue with eager-protocol flow
/// control: once queued bytes exceed the capacity, senders block --
/// this is what makes the PPerfMark small-messages clients spend
/// their time in MPI_Send, as the paper observes (Fig 3).
///
/// Waiters are split by what they wait for, so wakeups are targeted:
/// msg_waiter parks the owning rank (at most one context) waiting for
/// an arrival and is unparked by the sender that fills the queue;
/// space_waiters holds flow-controlled senders, unparked when the
/// receiver drains bytes.  Rendezvous senders never wait on the
/// mailbox at all -- they wait on their envelope's DeliveryToken.
/// The integer counters mirror the token slots for the watchdog dump.
struct Mailbox {
    std::mutex mu;  ///< guards everything below (stats excepted)
    std::deque<Envelope> queue;
    std::size_t bytes_queued = 0;
    int msg_waiters = 0;
    int space_waiters = 0;

    // Transport accounting for the pvar plane (simmpi.mailbox.*).
    // Relaxed atomics bumped at the push/drain/park sites while mu is
    // already held, but readable lock-free by their pvar readers --
    // only the bytes_queued gauge touches a mailbox mutex.
    std::atomic<std::uint64_t> eager_msgs{0};       ///< envelopes queued eagerly
    std::atomic<std::uint64_t> rendezvous_msgs{0};  ///< envelopes queued with a token
    std::atomic<std::uint64_t> delivered_msgs{0};   ///< envelopes drained by a receiver
    std::atomic<std::uint64_t> delivered_bytes{0};  ///< payload bytes drained
    std::atomic<std::uint64_t> flow_stalls{0};      ///< sender parks for eager headroom
    std::atomic<std::uint64_t> bytes_queued_hwm{0};  ///< high-water of bytes_queued

    /// Records a just-queued envelope in the stats; caller holds mu
    /// (bytes_queued already includes the envelope).
    void note_queued_locked(bool rendezvous) {
        (rendezvous ? rendezvous_msgs : eager_msgs)
            .fetch_add(1, std::memory_order_relaxed);
        if (bytes_queued > bytes_queued_hwm.load(std::memory_order_relaxed))
            bytes_queued_hwm.store(bytes_queued, std::memory_order_relaxed);
    }
    /// Records a drained envelope; caller holds mu.
    void note_delivered_locked(std::size_t payload_bytes) {
        delivered_msgs.fetch_add(1, std::memory_order_relaxed);
        delivered_bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
    }
    std::shared_ptr<sched::WaitToken> msg_waiter;
    std::vector<std::shared_ptr<sched::WaitToken>> space_tokens;
    std::vector<PayloadBuf> free_bufs;  ///< recycled payload buffers

    static constexpr std::size_t kMaxFreeBufs = 64;
    static constexpr std::size_t kMaxRecycledCapacity = 64 * 1024;

    /// Pops a recycled buffer (or grows a fresh one) sized to @p n.
    /// Caller holds mu.
    PayloadBuf take_buf_locked(std::size_t n) {
        PayloadBuf b;
        if (!free_bufs.empty()) {
            b = std::move(free_bufs.back());
            free_bufs.pop_back();
        }
        b.ensure(n);
        return b;
    }

    /// Returns a drained buffer to the free list (bounded; oversized
    /// rendezvous buffers are dropped).  Caller holds mu.
    void recycle_locked(PayloadBuf&& b) {
        if (b.capacity() == 0 || b.capacity() > kMaxRecycledCapacity) return;
        if (free_bufs.size() >= kMaxFreeBufs) return;
        free_bufs.push_back(std::move(b));
    }
};

/// One simulated MPI process (a fiber, or an OS thread on the legacy
/// engine).  finished/cpu_clock_ready are atomic publish flags: the
/// owning context stores its result fields first, then the flag;
/// lock-free readers load the flag before touching the fields.
struct ProcData {
    int global_rank = -1;
    std::string node;        ///< simulated hostname, e.g. "node2"
    std::string program;     ///< command name ("a.out", "child", ...)
    Comm comm_world = MPI_COMM_NULL;
    Comm parent_intercomm = MPI_COMM_NULL;  ///< for spawned children
    clockid_t cpu_clock{};   ///< per-thread CPU clock (thread engine only)
    std::atomic<bool> cpu_clock_ready{false};
    /// Fiber engine: CPU nanoseconds accumulated at every fiber
    /// switch-out (the worker charges each slice to the rank it ran).
    std::atomic<std::int64_t> cpu_ns{0};
    std::atomic<bool> finished{false};
    /// CPU seconds at exit (the thread's clock dies with the thread).
    double final_cpu_seconds = 0.0;
    /// Set (before finished) when the rank died instead of returning;
    /// liveness checks read it to unwedge peers.  The epitaph with the
    /// full story lives in the world's table.
    std::atomic<bool> dead{false};
    /// Dispatch-boundary breadcrumbs for the join_all watchdog dump:
    /// the MPI_* entry point the rank was last seen in (a string
    /// literal, hence the raw pointer) and how many it has made.
    std::atomic<const char*> last_call{nullptr};
    std::atomic<std::uint64_t> calls_made{0};
};

/// Shared-memory combining cell for the node-aware tree allreduce:
/// one per (communicator, simulated node).  Ranks that share a node
/// fold their contributions into `acc` under the comm's shm_mu --
/// intra-node traffic never touches a mailbox, exactly the shm
/// fast path LAM's sysv RPI and MPICH's shared-memory device use.
/// The node leader carries the folded value through the cross-node
/// exchange and publishes the result by bumping `gen`.
struct ShmCombineCell {
    std::uint64_t gen = 0;  ///< bumps when a round's outcome publishes
    int arrived = 0;        ///< arrivals in the current round
    bool failed = false;    ///< a member bailed (death/poison/deadline)
    std::vector<std::byte> acc;     ///< in-progress fold
    std::vector<std::byte> result;  ///< published outcome of round gen-1
    bool result_failed = false;
    std::shared_ptr<sched::WaitToken> leader_waiter;  ///< leader awaiting full node
    std::vector<std::shared_ptr<sched::WaitToken>> waiters;  ///< followers
};

struct CommData {
    Comm handle = MPI_COMM_NULL;
    std::int64_t context = 0;
    std::vector<int> group;         ///< local group: global ranks
    std::vector<int> remote_group;  ///< non-empty for intercommunicators
    bool is_inter = false;
    std::atomic<bool> freed{false};
    /// Members that have called MPI_Comm_free; payload storage is
    /// released when the count reaches the full membership (at which
    /// point no member can still be inside an operation on this comm).
    std::atomic<int> free_count{0};
    /// Per-communicator error handler (MPI_ERRORS_ARE_FATAL or
    /// MPI_ERRORS_RETURN), applied to fault-class errors only.
    std::atomic<int> errhandler{MPI_ERRORS_RETURN};
    /// Set (once, never cleared) by MPI_Comm_revoke: every pending and
    /// future operation on this communicator fails with
    /// MPI_ERR_REVOKED.  Checked with relaxed loads in wait-loop
    /// predicates -- NOT gated on death_epoch, because a revoke can
    /// happen with zero deaths.
    std::atomic<bool> revoked{false};
    std::string name;  ///< guarded by World::name_mu_

    // ULFM-style recovery rendezvous (MPI_Comm_agree / MPI_Comm_shrink
    // / MPI_Comm_split).  agree and shrink keep working on a revoked
    // communicator and excuse dead members; split is an ordinary
    // collective that requires full participation.
    FtRendezvous agree_rv;
    FtRendezvous shrink_rv;
    FtRendezvous split_rv;

    // Internal (uninstrumented) central barrier state.  Arrivals park
    // their own wait token in bar_waiters; the closing rank bumps the
    // generation and unparks the collected tokens -- a targeted fan-out
    // instead of a broadcast condition variable.
    std::mutex bar_mu;
    int bar_count = 0;
    std::uint64_t bar_gen = 0;
    std::vector<std::shared_ptr<sched::WaitToken>> bar_waiters;

    // Spawn rendezvous: root publishes the new intercomm handle here.
    Comm spawn_result = MPI_COMM_NULL;
    // Collective MPI_Win_create rendezvous: rank 0 publishes the handle.
    Win win_result = MPI_WIN_NULL;

    // Node-aware collective layout + combining cells, built lazily
    // under shm_mu on first tree allreduce (placement is fixed for the
    // comm's lifetime).  shm_leaders holds one comm rank per node (the
    // lowest on that node); shm_node_of maps comm rank -> node index.
    std::mutex shm_mu;
    bool shm_layout_built = false;
    std::vector<int> shm_leaders;
    std::vector<int> shm_node_of;
    std::vector<int> shm_node_size;
    std::vector<ShmCombineCell> shm_cells;
};

struct GroupData {
    Group handle = MPI_GROUP_NULL;
    std::vector<int> global_ranks;
    std::atomic<bool> freed{false};
};

struct InfoData {
    Info handle = MPI_INFO_NULL;
    std::map<std::string, std::string> kv;
    std::atomic<bool> freed{false};
};

/// Exposure epoch for post/start/complete/wait on one target.  All
/// parking is token-based: origins blocked in MPI_Win_start /
/// MPI_Win_complete each register their own DeliveryToken in
/// post_waiters (MPI_Win_post signals each exactly once), and the
/// target blocked in MPI_Win_wait parks on wait_token (the last
/// MPI_Win_complete signals it) -- no condition variable is ever
/// broadcast to a herd of unrelated waiters.
struct Exposure {
    bool exposed = false;
    std::vector<int> group;      ///< origin global ranks allowed this epoch
    std::vector<int> started;    ///< origins that matched this epoch
    int completes = 0;
    /// Target parked in MPI_Win_wait for this epoch (at most one).
    std::shared_ptr<DeliveryToken> wait_token;
    /// Origins parked until this target's exposure epoch opens.
    std::vector<std::shared_ptr<DeliveryToken>> post_waiters;
};

/// One parked MPI_Win_lock caller: an MCS-style queue node carrying
/// its own completion token.  The granter sets `granted` (or the
/// window-free drain sets `aborted`) under the shard mutex before
/// signalling, so the woken locker reads an unambiguous verdict.
struct LockWaiter {
    int origin = -1;
    int lock_type = 0;
    bool granted = false;
    bool aborted = false;  ///< window freed underneath the waiter
    std::shared_ptr<DeliveryToken> token = std::make_shared<DeliveryToken>();
};

/// Passive-target lock state for one target member: explicit holder
/// identity (so waiters can bail when a holder dies with the lock
/// held) plus a FIFO waiter queue.  Unlock hands the lock to exactly
/// the head waiter -- or the maximal run of shared waiters at the
/// head -- instead of notify_all'ing every parked locker to re-fight.
struct PassiveLock {
    int exclusive_holder = -1;        ///< global rank, -1 when not held
    std::vector<int> shared_holders;  ///< global ranks (repeats allowed)
    std::deque<std::shared_ptr<LockWaiter>> waiters;
    bool held() const { return exclusive_holder != -1 || !shared_holders.empty(); }
};

struct WinMember {
    std::byte* base = nullptr;
    std::int64_t size = 0;
    int disp_unit = 1;
};

/// A queued RMA data-transfer op (Mpich flavor defers transfers from
/// MPI_Put/Get/Accumulate to MPI_Win_complete, so the blocking happens
/// in complete rather than start -- the implementation freedom the
/// MPI-2 standard grants and the paper's section 5.2.1.1 observes).
/// Get never stages a payload: the target bytes are copied straight
/// into origin_addr when the op completes on the origin's thread.
struct PendingRmaOp {
    enum class Kind { Put, Get, Accumulate } kind = Kind::Put;
    int origin_global = -1;
    std::vector<std::byte> payload;   ///< for put/accumulate
    std::byte* origin_addr = nullptr; ///< for get
    std::int64_t target_disp = 0;
    std::int64_t nbytes = 0;
    Datatype dt = MPI_DATATYPE_NULL;
    Op op = MPI_OP_NULL;
};

/// Tool-visible Table-1 accounting for one window.  The data plane
/// never touches these on the per-op hot path: each rank stages its
/// increments thread-locally (Rank::RmaStage) and flushes them here
/// with one fetch_add per dirty field at each RMA synchronization
/// call, so totals stay bit-exact (the histogram contract from the
/// dispatch fast path) while Put/Get/Accumulate pay zero shared
/// atomic traffic.
struct WinCounters {
    std::atomic<std::int64_t> put_ops{0}, get_ops{0}, acc_ops{0};
    std::atomic<std::int64_t> put_bytes{0}, get_bytes{0}, acc_bytes{0};
    std::atomic<std::int64_t> sync_ops{0};
    std::atomic<std::int64_t> at_sync_wait_ns{0};  ///< fence/start/complete/wait
    std::atomic<std::int64_t> pt_sync_wait_ns{0};  ///< lock/unlock
};

/// Per-target-rank shard of a window: everything one target's RMA
/// traffic touches -- its memory descriptor, exposure epoch, passive
/// lock, and the staged-op (MPSC) queue -- behind its own mutex, so
/// origins driving different targets of the same window never
/// contend.  Shards are created collectively inside MPI_Win_create
/// (between its barriers); after the final creation barrier the shard
/// map is immutable, so lookups are unsynchronized reads.
struct WinShard {
    std::mutex mu;  ///< guards everything below
    bool has_member = false;
    WinMember member;
    Exposure exposure;
    PassiveLock lock;
    /// Ops staged by origins for this target (Mpich PSCW deferral);
    /// each origin drains its own entries at MPI_Win_complete.
    std::vector<PendingRmaOp> staged;
};

struct WinData {
    Win handle = MPI_WIN_NULL;
    int impl_id = -1;  ///< small reused id, as real MPIs reuse them (paper 4.2.1)
    Comm comm = MPI_COMM_NULL;
    Comm shadow_comm = MPI_COMM_NULL;  ///< Lam keeps window names in a comm (Fig 23)
    std::string name;  ///< guarded by World::name_mu_
    std::atomic<bool> freed{false};

    std::mutex mu;  ///< guards shard-map mutation (MPI_Win_create only)
    std::map<int, WinShard> shards;  ///< by target global rank

    /// Shard lookup (read-only map walk; see WinShard's immutability
    /// note).  Null for ranks that are not window members.
    WinShard* shard(int global_rank) {
        const auto it = shards.find(global_rank);
        return it == shards.end() ? nullptr : &it->second;
    }

    // Fence epoch (internal barrier for the Mpich flavor): arrivals
    // park on per-rank tokens; the closing rank signals each exactly
    // once instead of broadcasting on a shared condition variable.
    std::mutex fence_mu;
    int fence_count = 0;
    std::uint64_t fence_gen = 0;
    std::vector<std::shared_ptr<DeliveryToken>> fence_waiters;

    WinCounters counters;  ///< epoch-batched Table-1 accounting
};

/// One file in the simulated parallel filesystem: a shared byte array
/// all processes access through MPI-I/O (DESIGN.md: the stand-in for
/// the cluster's PVFS/NFS volume).
struct StoredFile {
    std::mutex mu;
    std::vector<std::byte> data;
};

struct FileData {
    File handle = MPI_FILE_NULL;
    std::string filename;
    std::shared_ptr<StoredFile> store;
    Comm comm = MPI_COMM_NULL;
    int amode = 0;
    std::atomic<bool> closed{false};
    bool delete_on_close = false;
    Info info = MPI_INFO_NULL;  ///< hints given at open / set_view
    std::mutex mu;  ///< guards pointers and the view below
    std::map<int, std::int64_t> individual_ptr;  ///< per global rank, in etypes
    std::int64_t shared_ptr_ = 0;                ///< in etypes
    // File view (MPI_File_set_view, contiguous): transfers address the
    // file starting at view_disp, in units of view_etype.
    std::int64_t view_disp = 0;
    Datatype view_etype = MPI_BYTE;
};

enum class RequestKind { Null, SendToken, RecvDeferred, Completed };

struct RequestData {
    Request handle = MPI_REQUEST_NULL;
    RequestKind kind = RequestKind::Null;
    bool live = false;  ///< slot holds an outstanding request
    int owner_global = -1;
    std::shared_ptr<DeliveryToken> delivered;  ///< SendToken
    int dest_mailbox = -1;            ///< destination rank of the send
    // RecvDeferred parameters:
    void* buf = nullptr;
    int count = 0;
    Datatype dt = MPI_DATATYPE_NULL;
    int src = MPI_ANY_SOURCE;
    int tag = MPI_ANY_TAG;
    Comm comm = MPI_COMM_NULL;
};

/// Interposition seam for the profiling (PMPI) library: the paper's
/// intercept method wraps MPI_Comm_spawn and MPI_Init in a wrapper
/// library.  When installed, Rank::MPI_Comm_spawn routes here instead
/// of straight to PMPI_Comm_spawn.
struct SpawnArgs {
    std::string command;
    std::vector<std::string> argv;
    int maxprocs = 0;
    Info info = MPI_INFO_NULL;
    int root = 0;
    Comm comm = MPI_COMM_NULL;
};

class ProfilingLayer {
public:
    virtual ~ProfilingLayer() = default;
    /// Wrapper for MPI_Comm_spawn.  Implementations typically adjust
    /// @p args and call rank.PMPI_Comm_spawn(...).  Return MPI result.
    virtual int wrap_spawn(Rank& rank, SpawnArgs args, Comm* intercomm,
                           std::vector<int>* errcodes) = 0;
    /// Wrapper hook fired inside MPI_Init.
    virtual void wrap_init(Rank& /*rank*/) {}
};

/// Ids of every function simmpi registers with the instrumentation
/// substrate, cached so trampolines avoid name lookups.
struct FuncIds {
    using F = instr::FuncId;
    // clang-format off
    F MPI_Init{}, PMPI_Init{}, MPI_Finalize{}, PMPI_Finalize{};
    F MPI_Send{}, PMPI_Send{}, MPI_Recv{}, PMPI_Recv{};
    F MPI_Ssend{}, PMPI_Ssend{};
    F MPI_Isend{}, PMPI_Isend{}, MPI_Irecv{}, PMPI_Irecv{};
    F MPI_Wait{}, PMPI_Wait{}, MPI_Waitall{}, PMPI_Waitall{};
    F MPI_Sendrecv{}, PMPI_Sendrecv{};
    F MPI_Barrier{}, PMPI_Barrier{};
    F MPI_Bcast{}, PMPI_Bcast{}, MPI_Reduce{}, PMPI_Reduce{};
    F MPI_Allreduce{}, PMPI_Allreduce{};
    F MPI_Gather{}, PMPI_Gather{}, MPI_Scatter{}, PMPI_Scatter{};
    F MPI_Allgather{}, PMPI_Allgather{};
    F MPI_Win_create{}, PMPI_Win_create{}, MPI_Win_free{}, PMPI_Win_free{};
    F MPI_Win_fence{}, PMPI_Win_fence{};
    F MPI_Win_start{}, PMPI_Win_start{}, MPI_Win_complete{}, PMPI_Win_complete{};
    F MPI_Win_post{}, PMPI_Win_post{}, MPI_Win_wait{}, PMPI_Win_wait{};
    F MPI_Win_lock{}, PMPI_Win_lock{}, MPI_Win_unlock{}, PMPI_Win_unlock{};
    F MPI_Put{}, PMPI_Put{}, MPI_Get{}, PMPI_Get{};
    F MPI_Accumulate{}, PMPI_Accumulate{};
    F MPI_Comm_spawn{}, PMPI_Comm_spawn{};
    F MPI_Comm_get_parent{}, PMPI_Comm_get_parent{};
    F MPI_Comm_set_name{}, PMPI_Comm_set_name{};
    F MPI_Win_set_name{}, PMPI_Win_set_name{};
    F MPI_Abort{}, PMPI_Abort{};
    F io_read{}, io_write{};        ///< Mpich socket transport ("read"/"write")
    F sysv_recv{}, sysv_send{};     ///< Lam sysv RPI transport
    // MPI-I/O (the remaining MPI-2 feature the paper's conclusion
    // lists as in-progress work).
    F MPI_File_open{}, PMPI_File_open{}, MPI_File_close{}, PMPI_File_close{};
    F MPI_File_read{}, PMPI_File_read{}, MPI_File_write{}, PMPI_File_write{};
    F MPI_File_read_at{}, PMPI_File_read_at{};
    F MPI_File_write_at{}, PMPI_File_write_at{};
    F MPI_File_read_all{}, PMPI_File_read_all{};
    F MPI_File_write_all{}, PMPI_File_write_all{};
    F MPI_File_read_shared{}, PMPI_File_read_shared{};
    F MPI_File_write_shared{}, PMPI_File_write_shared{};
    F MPI_File_seek{}, PMPI_File_seek{};
    F MPI_File_sync{}, PMPI_File_sync{};
    F MPI_File_delete{}, PMPI_File_delete{};
    // clang-format on
};

/// MPIR debugging-interface process descriptor (paper section 4.2.2:
/// the attach method would use MPIR_proctable to find spawned
/// processes; LAM and MPICH2 did not support it at the time, so the
/// interface is disable-able to reproduce that gap).
struct MpirProcDesc {
    std::string host_name;
    std::string executable_name;
    int global_rank = -1;
};

/// Which collective algorithms the transport uses.  Tree (binomial /
/// recursive-doubling, log depth) is the default for every run, the
/// paper-validation benches included; Flat keeps the linear root-loops
/// as the baseline the transport bench and the collective and fault
/// test matrices compare against.
enum class CollAlgo { Flat, Tree };

/// How rank bodies are executed.  Fiber, the default for a raw World,
/// multiplexes stackful fibers over the work-stealing scheduler pool
/// with park/unpark blocking (DESIGN.md section 12).  Thread runs one
/// OS thread per rank; every core::Session runs on it
/// (tool_world_config), because the Performance Consultant's sync-wait
/// hypotheses need preemptively scheduled ranks.
enum class RankEngine { Fiber, Thread };

class World {
public:
    struct Config {
        Flavor flavor = Flavor::Lam;
        /// Rank execution engine (fibers by default).
        RankEngine rank_engine = RankEngine::Fiber;
        /// Scheduler worker threads for the fiber engine; 0 picks
        /// hardware_concurrency.
        std::size_t sched_workers = 0;
        /// Usable stack bytes per fiber (plus a guard page).
        std::size_t fiber_stack_bytes = 256 * 1024;
        std::size_t eager_limit = 4096;        ///< bytes; larger sends rendezvous
        std::size_t mailbox_capacity = 65536;  ///< eager bytes queued before senders block
        CollAlgo coll_algo = CollAlgo::Tree;   ///< collective algorithm family
        bool mpir_enabled = false;
        /// Simulated per-process daemon start cost (seconds) charged by
        /// the intercept spawn method (paper: "adds overhead to the
        /// spawning operation").
        double daemon_start_cost = 0.002;
        /// Simulated base cost of creating one process via spawn.
        double spawn_base_cost = 0.0005;
        /// Total attempts do_spawn makes against a transient injected
        /// spawn fault (fail_spawn specs fire once, so the retry sees a
        /// clean consult).  1 = no retry, preserving the PR 3 contract.
        int spawn_retry_attempts = 1;
        /// Backoff before the first retry; doubles per attempt.
        double spawn_retry_backoff_seconds = 0.002;
        /// Start processes paused until release_start_gate() -- how
        /// Paradyn creates processes: stopped, so initial
        /// instrumentation is in place before user code runs.
        bool start_paused = false;
        /// Simulated filesystem speed for MPI-I/O transfers.  Real
        /// file access is what made I/O "traditionally a performance
        /// bottleneck" (paper section 3); the simulated store charges
        /// a per-operation latency plus a per-byte cost.
        double file_latency_seconds = 50e-6;
        double file_bandwidth_bytes_per_second = 200e6;
        /// Deterministic fault-injection schedule (null = fault free).
        std::shared_ptr<FaultPlan> faults;
        /// Error handler new communicators start with.
        int default_errhandler = MPI_ERRORS_RETURN;
        /// Backstop for every liveness-checked blocking wait: a wait
        /// that makes no progress for this long returns an error even
        /// when no peer is provably dead (e.g. a lost-message cycle).
        double wait_deadline_seconds = 30.0;
        /// join_all watchdog: ranks still unfinished after this long
        /// get their state dumped to stderr, then the world is
        /// poisoned (and aborted if that does not unwedge them).
        double join_deadline_seconds = 120.0;
        /// Always-on flight recorder (per-thread event rings).  Turn
        /// off only for overhead ablations; the capacity is events per
        /// recording thread, rounded up to a power of two -- older
        /// events are overwritten, with exact drop counters.
        bool trace_enabled = true;
        std::size_t trace_ring_capacity = 8192;
    };

    World(instr::Registry& reg, Config cfg);
    ~World();
    World(const World&) = delete;
    World& operator=(const World&) = delete;

    instr::Registry& registry() { return reg_; }
    const Config& config() const { return cfg_; }
    Flavor flavor() const { return cfg_.flavor; }
    const FuncIds& fids() const { return fids_; }

    // -- Flight recorder ---------------------------------------------------
    /// Null when Config::trace_enabled is false.
    trace::FlightRecorder* recorder() const { return recorder_.get(); }
    /// Drops one instant event into the calling thread's ring; a no-op
    /// (one pointer test) when tracing is disabled.
    /// Folds a data-plane payload into the MpiCall span the recorder
    /// will emit when the enclosing MPI_ trampoline returns -- no extra
    /// ring slot or timestamp on the hot path.  No-op when tracing is
    /// off or no user-boundary call is active on this thread.
    void trace_call_payload(trace::EventKind kind, std::int64_t a = 0,
                            std::int64_t b = 0, std::int64_t c = 0) {
        if (recorder_)
            instr::set_boundary_payload(static_cast<std::uint32_t>(kind), a, b, c);
    }
    void trace_event(trace::EventKind kind, int rank, const char* name,
                     std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0) {
        if (recorder_) recorder_->record(kind, rank, name, a, b, c);
    }
    /// Renders the postmortem dump (stderr, plus files under
    /// $M2P_POSTMORTEM_DIR when set) correlated with the epitaph
    /// table.  Called from poison() and the join_all watchdog; emits at
    /// most once per world.  Safe while rank threads are still
    /// recording.
    void emit_postmortem(const char* why);

    // -- Performance variables (MPI_T-style pvar plane) --------------------
    /// The world's pvar registry.  Every plane registers its counters
    /// here at world construction (instr.dispatch.*, simmpi.mailbox.*,
    /// trace.ring.*, faults.epitaphs) or object creation
    /// (rma.table1.win<h>.*); tool-side providers (pc.experiments.*)
    /// attach through a pvar::ProviderScope so they can detach before
    /// the world dies.  Setting M2P_PVAR_EXPORT additionally streams
    /// snapshots to an mmap file an external sampler can read live.
    pvar::Registry& pvars() { return pvars_; }
    /// Number of recorded epitaphs, lock-free (the faults.epitaphs
    /// pvar source; equals epitaphs().size() at quiescence).
    std::uint64_t epitaph_count() const {
        return epitaph_count_.load(std::memory_order_acquire);
    }

    // -- Program registry ------------------------------------------------
    void register_program(const std::string& command, ProgramFn fn);
    bool has_program(const std::string& command) const;
    /// Returns the registered program (empty function if unknown).
    ProgramFn find_program(const std::string& command) const;

    // -- Process management ----------------------------------------------
    /// Creates one process (thread) running @p command.  Returns its
    /// global rank.  @p comm_world is the world communicator the
    /// process belongs to; pass MPI_COMM_NULL to defer (launcher sets
    /// it before starting).
    int create_proc(const std::string& node, const std::string& command);
    /// Starts the thread for @p global_rank.  The proc's comm_world
    /// must be set.  @p argv is passed to the program.
    void start_proc(int global_rank, std::vector<std::string> argv);
    void set_proc_comm_world(int global_rank, Comm cw, Comm parent = MPI_COMM_NULL);
    /// Releases processes held by Config::start_paused.  Idempotent;
    /// also releases processes started after the call.
    void release_start_gate();
    /// Blocks until every started process has returned.
    void join_all();

    std::size_t proc_count() const;
    const ProcData& proc(int global_rank) const;
    /// Mutable proc slot, for the dispatch boundary's breadcrumb
    /// stores (last_call / calls_made) on the owning rank thread.
    ProcData& proc_data(int global_rank);
    std::vector<int> live_procs() const;
    /// CPU seconds consumed so far by the process's thread.
    double proc_cpu_seconds(int global_rank) const;
    bool all_finished() const;

    // -- Failure plane -----------------------------------------------------
    /// True when @p global_rank died (epitaph recorded) instead of
    /// returning normally.
    bool rank_dead(int global_rank) const;
    /// True when @p global_rank will never touch MPI again: dead or
    /// cleanly finished.  Blocking waits bail on unreachable peers
    /// (after draining anything already queued).
    bool rank_unreachable(int global_rank) const;
    /// Bumped on every death and on poison; fault-free wait loops pay
    /// one relaxed load instead of scanning peers.
    std::uint64_t death_epoch() const {
        return death_epoch_.load(std::memory_order_acquire);
    }
    /// Records a rank's death: marks the proc dead, appends the
    /// epitaph, bumps the death epoch, and invokes the death observer
    /// (tool-side retirement).  Idempotent per rank.
    void record_death(Epitaph e);
    std::vector<Epitaph> epitaphs() const;
    /// MPI_ERRORS_ARE_FATAL / MPI_Abort: marks the whole world doomed.
    /// Every rank unwinds at its next dispatch or liveness-checked
    /// wait.
    void poison(int errorcode);
    bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }
    int poison_code() const { return poison_code_.load(std::memory_order_acquire); }
    /// True when any member (local or remote group) of @p cd is dead.
    bool comm_has_dead_member(const CommData& cd) const;
    bool any_dead(const std::vector<int>& global_ranks) const;
    /// Revokes @p c: sets the comm's revoked flag, traces the Revoke
    /// lifecycle event, and broadcasts a wakeup to every parked fiber
    /// so pending operations on the comm fail with MPI_ERR_REVOKED now
    /// rather than at the next 5 ms thread-mode slice.  Idempotent.
    void revoke_comm(Comm c, int by_global_rank);
    /// Set when a shrink completes on a world that has lost ranks: the
    /// survivors rebuilt a communicator and kept going, so the session
    /// outcome is Recovered rather than RanksLost.
    void mark_recovered();
    bool recovered() const { return recovered_.load(std::memory_order_acquire); }
    /// Observer invoked (serialized, outside World locks) on each rank
    /// death -- the PerfTool registers here to retire the dead
    /// process's resources.  Pass nullptr to unregister.
    void set_death_observer(std::function<void(const Epitaph&)> obs);
    /// Per-rank state dump (last call, mailbox depth, waiter counts)
    /// for the join_all watchdog and post-mortem debugging.
    void dump_state(const char* why) const;

    // -- Handles -----------------------------------------------------------
    // Lookups (comm/group/info/win/request/file/mailbox/proc) are
    // lock-free; create/free operations serialize on writer mutexes.
    Comm create_comm(std::vector<int> group, std::vector<int> remote = {},
                     bool is_inter = false);
    CommData& comm(Comm c);
    bool comm_valid(Comm c) const;
    /// Records one member's MPI_Comm_free.  When every member of the
    /// communicator has freed it, the handle is retired and its payload
    /// storage (groups, name) is released -- long-running worlds no
    /// longer grow their comm table payload without bound.
    void release_comm_member(Comm c);
    Group create_group(std::vector<int> global_ranks);
    GroupData& group(Group g);
    bool group_valid(Group g) const;
    Info create_info();
    InfoData& info(Info i);
    bool info_valid(Info i) const;
    Win create_win(Comm c);
    WinData& win(Win w);
    bool win_valid(Win w) const;
    void release_win_impl_id(int impl_id);
    Request create_request(RequestData rd);
    RequestData& request(Request r);
    bool request_valid(Request r) const;
    void free_request(Request r);

    Mailbox& mailbox(int global_rank);

    // -- Simulated parallel filesystem ----------------------------------
    /// Finds or (when @p create) creates a stored file.  Returns null
    /// when the file does not exist and create is false.
    std::shared_ptr<StoredFile> fs_lookup(const std::string& filename, bool create);
    bool fs_exists(const std::string& filename) const;
    bool fs_delete(const std::string& filename);
    File create_file(std::string filename, std::shared_ptr<StoredFile> store, Comm comm,
                     int amode, bool delete_on_close);
    FileData& file(File f);
    bool file_valid(File f) const;

    // -- Tool-facing runtime services (used by MDL snippets) --------------
    /// MPI implementation id of a window handle (may be reused across
    /// create/free cycles -- the tool's N-M scheme handles that).
    std::int64_t win_impl_id(std::int64_t handle) const;
    std::int64_t comm_context(std::int64_t handle) const;
    std::string object_name_of_win(Win w) const;
    std::string object_name_of_comm(Comm c) const;
    void set_comm_name(Comm c, const std::string& name);
    void set_win_name(Win w, const std::string& name);
    void set_type_name(Datatype dt, std::string name);
    std::string type_name(Datatype dt) const;

    // -- Profiling layer ----------------------------------------------------
    void set_profiling_layer(ProfilingLayer* layer) { profiling_ = layer; }
    ProfilingLayer* profiling_layer() const { return profiling_; }

    // -- Spawn -------------------------------------------------------------
    /// Executes the actual spawn on behalf of the root rank: creates
    /// @p maxprocs children running @p command, builds their world
    /// communicator and the parent<->child intercommunicator, starts
    /// their threads.  Returns the intercomm handle (parent side).
    Comm do_spawn(const std::string& command, const std::vector<std::string>& argv,
                  int maxprocs, Comm parent_comm);
    /// Nodes new processes are placed on (round-robin).
    void set_node_pool(std::vector<std::string> nodes);
    const std::vector<std::string>& node_pool() const { return nodes_; }

    // -- MPIR debugging interface stub --------------------------------------
    bool mpir_enabled() const { return cfg_.mpir_enabled; }
    void set_mpir_enabled(bool on) { cfg_.mpir_enabled = on; }
    /// Snapshot of MPIR_proctable (empty when the interface is off,
    /// as with LAM/MPICH2 at the time of the paper).
    std::vector<MpirProcDesc> mpir_proctable() const;

private:
    void register_mpi_functions();
    void register_pvars();

    instr::Registry& reg_;
    Config cfg_;
    FuncIds fids_;

    // Lock-free handle tables (lookup side); each serializes its own
    // appends internally.  Procs and mailboxes are created together
    // under mu_ so their indices stay aligned.
    HandleTable<ProcData, 0> procs_;
    HandleTable<Mailbox, 0> mailboxes_;
    HandleTable<CommData> comms_;
    HandleTable<GroupData> groups_;
    HandleTable<InfoData> infos_;
    HandleTable<WinData> wins_;
    HandleTable<RequestData> requests_;
    HandleTable<FileData> files_;
    std::atomic<std::int64_t> next_context_{100};

    /// Recycled request slots (mirrors the free_win_impl_ids_ scheme):
    /// completed requests return their handle here instead of growing
    /// the table forever.
    mutable std::mutex request_free_mu_;
    std::vector<Request> free_requests_;

    /// Guards MPI-2 object names (set/get_name are rare control-plane
    /// calls; the data path never touches them).
    mutable std::mutex name_mu_;

    /// Runs a rank body on the calling context: start gate, instr TLS
    /// setup, the program itself, death/epitaph handling, CPU-time
    /// publication, and the finished/unfinished bookkeeping.  Shared
    /// by both engines.
    void run_rank_body(int global_rank, std::vector<std::string> argv,
                       ProgramFn fn);
    /// Lazily constructs the fiber scheduler (fiber engine only).
    sched::Scheduler* scheduler_locked();

    mutable std::mutex mu_;  ///< guards control-plane state below
    /// Completion plane for join_all: bodies still running.  The last
    /// finisher decrements under join_mu_ and notifies join_cv_ -- no
    /// polling loop (DESIGN.md 12).  Declared BEFORE threads_/sched_
    /// on purpose: members declared later are destroyed first, so the
    /// scheduler's destructor (which joins its workers, quiescing
    /// every fiber epilogue) runs while these are still alive.
    std::atomic<std::size_t> unfinished_{0};
    mutable std::mutex join_mu_;
    mutable std::condition_variable join_cv_;
    std::deque<std::thread> threads_;  ///< thread engine; stable refs while spawn appends
    std::size_t joined_ = 0;
    std::unique_ptr<sched::Scheduler> sched_;  ///< fiber engine (lazy)
    std::size_t started_ = 0;  ///< rank bodies launched (either engine)
    std::map<std::string, std::shared_ptr<StoredFile>> filesystem_;
    std::map<Datatype, std::string> type_names_;
    std::map<std::string, ProgramFn> programs_;
    std::vector<std::string> nodes_{"node0"};
    std::size_t next_node_ = 0;
    /// Start gate: paused rank bodies park here until release.
    std::vector<std::shared_ptr<sched::WaitToken>> start_waiters_;
    bool start_released_ = false;
    std::vector<int> free_win_impl_ids_;
    int next_win_impl_id_ = 0;
    ProfilingLayer* profiling_ = nullptr;

    // Failure plane: the epitaph table and the world-poison flag.
    mutable std::mutex epitaph_mu_;
    std::vector<Epitaph> epitaphs_;
    std::atomic<std::uint64_t> epitaph_count_{0};  ///< lock-free mirror for pvars
    std::atomic<std::uint64_t> death_epoch_{0};
    std::atomic<bool> poisoned_{false};
    std::atomic<bool> recovered_{false};
    std::atomic<int> poison_code_{MPI_SUCCESS};
    /// Serializes observer invocation against set_death_observer so
    /// the tool can unregister without racing an in-flight callback.
    mutable std::mutex observer_mu_;
    std::function<void(const Epitaph&)> death_observer_;

    // Flight recorder (null when Config::trace_enabled is false).
    std::unique_ptr<trace::FlightRecorder> recorder_;
    std::atomic<bool> postmortem_emitted_{false};

    // Pvar plane.  The registry is declared after every provider it
    // reads; the export writer is the LAST member on purpose: members
    // declared later are destroyed first, so its publisher thread (and
    // final closed snapshot) are gone before any counter source dies.
    pvar::Registry pvars_;
    std::unique_ptr<pvar::ExportWriter> exporter_;
};

}  // namespace m2p::simmpi
