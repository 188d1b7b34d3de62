/// \file sched.hpp
/// Work-stealing fiber scheduler for simmpi (DESIGN.md section 12).
///
/// The scheduler multiplexes rank fibers over a pool of OS worker
/// threads (default: hardware_concurrency).  Each worker owns a local
/// run queue; idle workers steal from peers and drain a shared
/// injection queue that non-worker threads (tool threads, the
/// deadline sweeper) push wakeups through.
///
/// Blocking is expressed through WaitToken, the one primitive every
/// simmpi wait site uses.  On a fiber it is a park/unpark state
/// machine with targeted wakeups (no polling slice at all); on a
/// plain OS thread (the retained thread-per-rank engine, or a test
/// driving a Rank directly) it degrades to a mutex/condvar wait
/// capped at the legacy 5 ms liveness slice.  Either way callers keep
/// their re-check loops: parks may return spuriously, and all
/// abandon predicates (peer death, poison, deadline) are re-evaluated
/// after every wakeup -- that is how the old slice semantics carry
/// over exactly, just without the 5 ms latency floor.
///
/// Wakeup sources for a parked fiber:
///   - a targeted WaitToken::unpark() from whoever satisfied the wait,
///   - Scheduler::unpark_all_parked() on death-epoch bump / poison,
///   - the deadline sweeper when the park's own deadline expires.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "simmpi/fiber.hpp"

namespace m2p::simmpi::sched {

/// The single blocking handle.  Fiber-owned tokens are created by the
/// scheduler; any other thread gets a lazily-created thread-local one
/// from current_wait_token().
class WaitToken {
public:
    /// Block the calling context until unpark() or (roughly) the
    /// deadline.  May return early/spuriously; callers loop re-checking
    /// their predicate.  Must only be called by the owning context.
    void park_until(std::chrono::steady_clock::time_point deadline);

    /// Wake the owner if parked; otherwise leave a pending notify that
    /// the owner's next park consumes.  Safe from any thread, any time.
    void unpark();

private:
    friend class Fiber;
    friend class Scheduler;

    enum State : std::uint32_t {
        kIdle = 0,      ///< running, no pending notify
        kNotified = 1,  ///< notify pending; next park returns at once
        kParking = 2,   ///< fiber announced intent, switch in progress
        kParked = 3,    ///< fully parked; unpark requeues the fiber
        kDone = 4,      ///< fiber finished; unparks are no-ops
    };

    /// Issued after every store that consumes a notify (kNotified or a
    /// lost park -> kIdle), paired with the fence at unpark() entry.
    /// Without the pair this is store-buffer (Dekker) reordering: the
    /// waker's predicate store and the owner's kIdle store both sit in
    /// store buffers while each side loads the other's stale value --
    /// the waker sees the old kNotified and returns, the owner re-reads
    /// a false predicate and parks until its deadline.
    static void consume_fence() { std::atomic_thread_fence(std::memory_order_seq_cst); }

    std::atomic<std::uint32_t> state_{kIdle};
    Fiber* fiber_ = nullptr;  ///< set once at fiber creation, else null

    // Thread-mode fallback: plain mutex/condvar with a 5 ms slice cap
    // (the legacy liveness behavior of the thread-per-rank engine).
    std::mutex mu_;
    std::condition_variable cv_;
};

struct Worker {
    Scheduler* sched = nullptr;
    int index = -1;
    std::thread th;
    StackContext sched_ctx;  ///< the worker loop's own context
    Fiber* current = nullptr;
    std::mutex mu;
    std::deque<Fiber*> q;
    std::atomic<int> qsize{0};
};

class Scheduler {
public:
    /// @p workers == 0 picks max(1, hardware_concurrency).
    explicit Scheduler(std::size_t workers);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Create a fiber and make it runnable.  The returned pointer is
    /// owned by the scheduler and stays valid until destruction.
    /// @p ictx seeds the fiber's migrated instr TLS (rank identity,
    /// trace sink) before the first switch-in.
    Fiber* spawn(Fiber::Body body, std::size_t stack_bytes,
                 std::atomic<std::int64_t>* cpu_sink = nullptr,
                 const instr::ThreadContext& ictx = {});

    /// Make a suspended fiber runnable (scheduler-internal and token
    /// unpark path).
    void ready(Fiber* f);

    /// Broadcast: unpark every currently-parked fiber so it re-checks
    /// its abandon predicate.  Called on death-epoch bump and poison.
    void unpark_all_parked();

    std::size_t worker_count() const { return workers_.size(); }

    /// Cheap runnable-work probe for maybe_yield().
    int injected_size() const {
        return inject_size_.load(std::memory_order_relaxed);
    }

private:
    friend class Fiber;
    friend class WaitToken;

    void worker_main(Worker& w);
    Fiber* next_runnable(Worker& w);
    void run_one(Worker& w, Fiber* f);
    void finalize_park(Fiber* f);
    void finalize_finish(Fiber* f);
    void sweeper_main();

    /// Switch from @p from to @p to, with sanitizer annotations.
    /// Returns the SwitchOp value passed by whoever switches back.
    static void* transfer(StackContext& from, StackContext& to, void* arg,
                          bool from_dying);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::atomic<bool> stop_{false};

    std::mutex inject_mu_;
    std::condition_variable inject_cv_;
    std::deque<Fiber*> inject_;
    std::atomic<int> inject_size_{0};
    std::atomic<int> idle_workers_{0};

    // Deadline sweeper.  It finds timed parks by scanning fibers_
    // (lock order park_mu_ -> fibers_mu_); parking and resuming take
    // no scheduler-wide lock.  park_mu_ guards only the sweeper's sleep
    // and the rare poke that shortens it.
    std::mutex park_mu_;
    std::condition_variable park_cv_;
    std::thread sweeper_;
    /// steady_clock nanoseconds the sweeper is sleeping to: max when it
    /// has no timer *and* while it scans.  finalize_park pokes it only
    /// for a deadline earlier than this, so in steady state (every park
    /// carries a liveness deadline later than the horizon) parking is
    /// lock-free.  seq_cst on both sides: the sweeper's store before
    /// its scan and the parker's kParked CAS before its load form a
    /// Dekker pair, so either the scan sees the park or the parker
    /// sees the scan marker and pokes (DESIGN.md section 12).
    std::atomic<std::int64_t> sweep_horizon_ns_{
        std::numeric_limits<std::int64_t>::max()};

    std::mutex fibers_mu_;
    std::vector<std::unique_ptr<Fiber>> fibers_;
};

/// The calling context's wait token: the running fiber's own token, or
/// a lazily-created thread-local one for plain OS threads.
const std::shared_ptr<WaitToken>& current_wait_token();

/// True when called on a fiber stack.
bool on_fiber();

/// Fiber-aware sleep: parks the fiber with a deadline (the worker runs
/// other ranks meanwhile); falls back to this_thread::sleep_for off
/// fiber.  Used for simulated costs (I/O latency, spawn cost, fault
/// hangs) so a sleeping rank never wedges a worker.
void sleep_for(std::chrono::nanoseconds d);

template <class Rep, class Period>
inline void sleep_for(std::chrono::duration<Rep, Period> d) {
    sleep_for(std::chrono::duration_cast<std::chrono::nanoseconds>(d));
}

/// Cooperative fairness point: yields the worker iff other fibers are
/// runnable.  Costs two relaxed loads when the queues are empty.
/// Called from the MPI dispatch boundary so busy-poll loops
/// (MPI_Iprobe spinning) cannot starve peers on a small worker pool.
void maybe_yield();

/// CPU nanoseconds consumed by the current fiber's in-progress slice
/// plus nothing else; 0 off fiber.  Rank bodies add this to their
/// accumulated counter for an exact final figure.
std::int64_t current_slice_cpu_ns();

}  // namespace m2p::simmpi::sched
