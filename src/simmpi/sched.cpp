#include "simmpi/sched.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/clock.hpp"

namespace m2p::simmpi::sched {

namespace {

thread_local Worker* t_worker = nullptr;

// Per-slice CPU accounting runs on every fiber switch-in/out, so it
// must not be a syscall: CLOCK_THREAD_CPUTIME_ID costs ~250 ns per
// read on a virtualized host (no vDSO path), which at two reads per
// slice dominates a park/unpark cycle.  A calibrated TSC delta reads
// in a few ns.  The divergence: rdtsc measures wall time, so an
// involuntary preemption of the worker mid-slice is charged to the
// running fiber, where the thread CPU clock would exclude it.  Worker
// slices never block voluntarily (blocking sites park, switching the
// fiber out), so on a quiet host the two agree; under host
// contention the rdtsc figure errs toward the scheduling reality the
// simulation models anyway.
std::int64_t slice_clock_ns() {
    static const double ns_per_tick =
        util::calibrate_ticks().seconds_per_tick * 1e9;
    return static_cast<std::int64_t>(
        static_cast<double>(util::ticks()) * ns_per_tick);
}

constexpr auto kThreadSlice = std::chrono::milliseconds(5);

// util::rank_cpu_seconds() provider (installed by the first Scheduler):
// on a fiber, its accumulated slices plus the in-progress one -- the
// thread CPU clock would subtract two different workers' clocks when a
// rank migrates between a timer's start and stop reads.  Off fiber,
// the thread clock is the context's own and stays correct.
double fiber_aware_cpu_seconds() {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr)
        return util::thread_cpu_seconds();
    Fiber* f = w->current;
    std::int64_t ns = current_slice_cpu_ns();
    if (std::atomic<std::int64_t>* sink = f->cpu_sink())
        ns += sink->load(std::memory_order_relaxed);
    return static_cast<double>(ns) * 1e-9;
}

// A park deadline at or beyond this sentinel means "no timer": the
// sweeper skips it entirely.
constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();
constexpr std::int64_t kNoDeadlineNs = std::numeric_limits<std::int64_t>::max();

std::int64_t to_ns(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
        .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// WaitToken
// ---------------------------------------------------------------------------

void WaitToken::park_until(std::chrono::steady_clock::time_point deadline) {
    if (fiber_ != nullptr) {
        // Fiber mode: the caller must BE the fiber.
        std::uint32_t s = state_.load(std::memory_order_acquire);
        if (s == kNotified) {
            state_.store(kIdle, std::memory_order_relaxed);
            consume_fence();
            return;
        }
        if (deadline != kNoDeadline &&
            deadline <= std::chrono::steady_clock::now()) {
            // Already past due: don't enter the park machinery, but do
            // give peers a chance so an expired-deadline re-check loop
            // cannot monopolize the worker.
            maybe_yield();
            return;
        }
        // Published to the sweeper by the release CAS below (the
        // worker's kParking -> kParked CAS continues its release
        // sequence).
        fiber_->park_deadline_.store(to_ns(deadline), std::memory_order_relaxed);
        // Announce the park with a CAS, not a store: an unpark on
        // another thread may have CASed kIdle -> kNotified after the
        // fast-path load above, and a blind kParking store would
        // overwrite (lose) that notify -- a deadline-less park would
        // then sleep until an unrelated broadcast.
        std::uint32_t expected = kIdle;
        if (!state_.compare_exchange_strong(expected, kParking,
                                            std::memory_order_acq_rel)) {
            // expected == kNotified: consume it and return instead of
            // parking.
            state_.store(kIdle, std::memory_order_relaxed);
            consume_fence();
            return;
        }
        fiber_->suspend(SwitchOp::Park);
        // Resumed: state is kIdle, or kNotified from a second unpark
        // (left pending for the next park -- a benign spurious pass).
        return;
    }
    // Thread mode: legacy 5 ms liveness slice so dead-peer/poison
    // re-checks happen even without targeted wakeups.
    std::unique_lock lk(mu_);
    const auto slice = std::chrono::steady_clock::now() + kThreadSlice;
    cv_.wait_until(lk, std::min(deadline, slice), [this] {
        return state_.load(std::memory_order_relaxed) == kNotified;
    });
    state_.store(kIdle, std::memory_order_relaxed);
}

void WaitToken::unpark() {
    if (fiber_ == nullptr) {
        {
            std::lock_guard lk(mu_);
            state_.store(kNotified, std::memory_order_relaxed);
        }
        cv_.notify_one();
        return;
    }
    // Pairs with consume_fence(): orders the caller's predicate store
    // before the state load below (see consume_fence).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (;;) {
        std::uint32_t s = state_.load(std::memory_order_acquire);
        switch (s) {
            case kParked:
                if (state_.compare_exchange_weak(s, kIdle,
                                                 std::memory_order_acq_rel)) {
                    fiber_->sched_->ready(fiber_);
                    return;
                }
                break;
            case kParking:
                // The owner is mid-switch; flag it so the scheduler's
                // finalize turns the park into an immediate requeue.
                if (state_.compare_exchange_weak(s, kNotified,
                                                 std::memory_order_acq_rel))
                    return;
                break;
            case kIdle:
                if (state_.compare_exchange_weak(s, kNotified,
                                                 std::memory_order_acq_rel))
                    return;
                break;
            default:  // kNotified (pending) or kDone (fiber gone): no-op
                return;
        }
    }
}

// ---------------------------------------------------------------------------
// Fiber <-> scheduler handoff
// ---------------------------------------------------------------------------

void Fiber::suspend(SwitchOp op) {
    Worker* w = t_worker;
    if (w == nullptr || w->current != this) {
        std::fprintf(stderr, "simmpi sched: suspend off own worker\n");
        std::abort();
    }
    Scheduler::transfer(ctx_, w->sched_ctx,
                        reinterpret_cast<void*>(static_cast<std::uintptr_t>(op)),
                        /*from_dying=*/op == SwitchOp::Finished);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Scheduler::Scheduler(std::size_t workers) {
    // The provider checks t_worker itself, so it is safe to leave
    // installed after this scheduler is destroyed (it then degrades to
    // the thread clock) and idempotent across schedulers.
    util::set_rank_cpu_provider(&fiber_aware_cpu_seconds);
    if (workers == 0) {
        const unsigned hc = std::thread::hardware_concurrency();
        workers = hc == 0 ? 1 : hc;
    }
    for (std::size_t i = 0; i < workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->sched = this;
        w->index = static_cast<int>(i);
        workers_.push_back(std::move(w));
    }
    for (auto& w : workers_) w->th = std::thread([this, &w] { worker_main(*w); });
    sweeper_ = std::thread([this] { sweeper_main(); });
}

Scheduler::~Scheduler() {
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard lk(inject_mu_);
    }
    inject_cv_.notify_all();
    {
        std::lock_guard lk(park_mu_);
    }
    park_cv_.notify_all();
    for (auto& w : workers_) w->th.join();
    sweeper_.join();
    // Any fiber still suspended here leaked out of join_all; destroying
    // its stack now is no worse than the thread engine's detach-free
    // guarantee (join_all aborts the process on wedged ranks first).
}

Fiber* Scheduler::spawn(Fiber::Body body, std::size_t stack_bytes,
                        std::atomic<std::int64_t>* cpu_sink,
                        const instr::ThreadContext& ictx) {
    auto f = std::make_unique<Fiber>(this, std::move(body), stack_bytes);
    f->set_cpu_sink(cpu_sink);
    f->ictx_ = ictx;
    Fiber* raw = f.get();
    {
        std::lock_guard lk(fibers_mu_);
        fibers_.push_back(std::move(f));
    }
    ready(raw);
    return raw;
}

void Scheduler::ready(Fiber* f) {
    Worker* w = t_worker;
    if (w != nullptr && w->sched == this) {
        {
            std::lock_guard lk(w->mu);
            w->q.push_back(f);
        }
        w->qsize.fetch_add(1, std::memory_order_release);
        if (idle_workers_.load(std::memory_order_acquire) > 0)
            inject_cv_.notify_one();
        return;
    }
    {
        std::lock_guard lk(inject_mu_);
        inject_.push_back(f);
    }
    inject_size_.fetch_add(1, std::memory_order_release);
    inject_cv_.notify_one();
}

void Scheduler::unpark_all_parked() {
    // Broadcast to EVERY fiber's token, not just the parked ones: a
    // fiber that evaluated its liveness predicate just before the
    // death-epoch bump and is now mid-park would miss a parked-only
    // sweep and sleep until its deadline.  Leaving a
    // pending notify on running/idle tokens turns that race into one
    // benign spurious pass; finished fibers (kDone) no-op.  Tokens are
    // copied out so unpark()'s requeue work happens without the lock.
    std::vector<std::shared_ptr<WaitToken>> toks;
    {
        std::lock_guard lk(fibers_mu_);
        toks.reserve(fibers_.size());
        for (const auto& f : fibers_) toks.push_back(f->token_);
    }
    for (auto& t : toks) t->unpark();
}

Fiber* Scheduler::next_runnable(Worker& w) {
    for (;;) {
        // Move one injected fiber into the local queue per tick, even
        // when local work exists.  Yielding fibers requeue locally, so
        // a local-first pop with no inject drain would let one spinning
        // fiber starve everything in the shared queue (spawns and
        // cross-thread unparks land there) indefinitely.
        if (inject_size_.load(std::memory_order_acquire) > 0) {
            Fiber* moved = nullptr;
            {
                std::lock_guard lk(inject_mu_);
                if (!inject_.empty()) {
                    moved = inject_.front();
                    inject_.pop_front();
                    inject_size_.fetch_sub(1, std::memory_order_relaxed);
                }
            }
            if (moved != nullptr) {
                std::lock_guard lk(w.mu);
                w.q.push_back(moved);
                w.qsize.fetch_add(1, std::memory_order_relaxed);
            }
        }
        {
            std::lock_guard lk(w.mu);
            if (!w.q.empty()) {
                Fiber* f = w.q.front();
                w.q.pop_front();
                w.qsize.fetch_sub(1, std::memory_order_relaxed);
                return f;
            }
        }
        for (auto& other : workers_) {
            if (other.get() == &w) continue;
            std::lock_guard lk(other->mu);
            if (!other->q.empty()) {
                Fiber* f = other->q.back();  // steal the cold end
                other->q.pop_back();
                other->qsize.fetch_sub(1, std::memory_order_relaxed);
                return f;
            }
        }
        if (stop_.load(std::memory_order_acquire)) return nullptr;
        std::unique_lock lk(inject_mu_);
        if (!inject_.empty()) continue;
        idle_workers_.fetch_add(1, std::memory_order_acq_rel);
        // Timed wait as a lost-wakeup backstop: a ready() that read
        // idle_workers_ just before our increment misses the notify;
        // the 20 ms re-scan bounds the damage.
        inject_cv_.wait_for(lk, std::chrono::milliseconds(20));
        idle_workers_.fetch_sub(1, std::memory_order_acq_rel);
        if (stop_.load(std::memory_order_acquire)) return nullptr;
    }
}

void Scheduler::worker_main(Worker& w) {
    t_worker = &w;
    // The worker loop's context needs no stack of its own (it runs on
    // the OS thread stack); sanitizer bookkeeping only.
    init_worker_context(w.sched_ctx);
    for (;;) {
        Fiber* f = next_runnable(w);
        if (f == nullptr) break;
        run_one(w, f);
    }
    t_worker = nullptr;
}

void Scheduler::run_one(Worker& w, Fiber* f) {
    w.current = f;
    f->slice_cpu_start_ = slice_clock_ns();
    const instr::ThreadContext worker_ctx =
        instr::exchange_thread_context(f->ictx_);
    void* r = transfer(w.sched_ctx, f->ctx_, f, /*from_dying=*/false);
    f->ictx_ = instr::exchange_thread_context(worker_ctx);
    if (f->cpu_sink_ != nullptr)
        f->cpu_sink_->fetch_add(slice_clock_ns() - f->slice_cpu_start_,
                                std::memory_order_relaxed);
    w.current = nullptr;
    switch (static_cast<SwitchOp>(reinterpret_cast<std::uintptr_t>(r))) {
        case SwitchOp::Park:
            finalize_park(f);
            break;
        case SwitchOp::Yield:
            ready(f);
            break;
        case SwitchOp::Finished:
            finalize_finish(f);
            break;
        default:
            std::fprintf(stderr, "simmpi sched: bad switch op\n");
            std::abort();
    }
}

void Scheduler::finalize_park(Fiber* f) {
    // Read before the flip: once kParked is visible an unpark may
    // resume the fiber, and its next park stores a new deadline.
    const std::int64_t deadline = f->park_deadline_.load(std::memory_order_relaxed);
    std::uint32_t expected = WaitToken::kParking;
    if (!f->token_->state_.compare_exchange_strong(expected, WaitToken::kParked,
                                                   std::memory_order_seq_cst)) {
        // An unpark raced in while the fiber was mid-switch: the park
        // loses, the fiber runs again immediately.
        f->token_->state_.store(WaitToken::kIdle, std::memory_order_relaxed);
        WaitToken::consume_fence();
        ready(f);
        return;
    }
    // Dekker pair with sweeper_main: our seq_cst kParked CAS precedes
    // this load, the sweeper's seq_cst scan-marker store precedes its
    // state loads.  Either its scan sees this park, or we read the
    // marker (max, later than any deadline) or the horizon it settled
    // on after the scan -- and poke when our deadline is earlier.  A
    // deadline later than the horizon needs nothing: the sweeper wakes
    // at the horizon and rescans.
    if (deadline < sweep_horizon_ns_.load(std::memory_order_seq_cst)) {
        // Under park_mu_ the sweeper is either waiting (the horizon is
        // the one it sleeps to) or unparking due tokens outside the lock
        // (the horizon still holds the scan marker; it rescans next).
        std::lock_guard lk(park_mu_);
        if (deadline < sweep_horizon_ns_.load(std::memory_order_relaxed))
            park_cv_.notify_one();
    }
}

void Scheduler::finalize_finish(Fiber* f) {
    f->token_->state_.store(WaitToken::kDone, std::memory_order_release);
    // Release the (large) stack eagerly; the small Fiber object stays
    // owned by fibers_ so stray pointers stay dereferenceable.
    f->release_stack();
}

void Scheduler::sweeper_main() {
    std::unique_lock lk(park_mu_);
    std::vector<std::shared_ptr<WaitToken>> due;
    while (!stop_.load(std::memory_order_acquire)) {
        // Scan marker first (see finalize_park): a park this scan may
        // miss reads max and pokes, blocking on park_mu_ until we wait.
        sweep_horizon_ns_.store(kNoDeadlineNs, std::memory_order_seq_cst);
        const std::int64_t now = to_ns(std::chrono::steady_clock::now());
        std::int64_t horizon = kNoDeadlineNs;
        {
            std::lock_guard flk(fibers_mu_);
            for (const auto& f : fibers_) {
                // Acquire via the kParked CAS's release sequence, so
                // the deadline read is this park's or a later one's; a
                // stale pairing only costs a spurious unpark.
                if (f->token_->state_.load(std::memory_order_seq_cst) !=
                    WaitToken::kParked)
                    continue;
                const std::int64_t d = f->park_deadline_.load(std::memory_order_relaxed);
                if (d <= now)
                    due.push_back(f->token_);
                else
                    horizon = std::min(horizon, d);
            }
        }
        if (!due.empty()) {
            lk.unlock();
            for (auto& t : due) t->unpark();
            due.clear();
            lk.lock();
            continue;
        }
        sweep_horizon_ns_.store(horizon, std::memory_order_seq_cst);
        if (horizon == kNoDeadlineNs)
            park_cv_.wait(lk);
        else
            park_cv_.wait_until(lk, std::chrono::steady_clock::time_point(
                                        std::chrono::nanoseconds(horizon)));
    }
}

// ---------------------------------------------------------------------------
// Free helpers
// ---------------------------------------------------------------------------

const std::shared_ptr<WaitToken>& current_wait_token() {
    Worker* w = t_worker;
    if (w != nullptr && w->current != nullptr) return w->current->token();
    thread_local std::shared_ptr<WaitToken> t_token;
    if (!t_token) t_token = std::make_shared<WaitToken>();
    return t_token;
}

bool on_fiber() {
    Worker* w = t_worker;
    return w != nullptr && w->current != nullptr;
}

void sleep_for(std::chrono::nanoseconds d) {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr) {
        std::this_thread::sleep_for(d);
        return;
    }
    const auto end = std::chrono::steady_clock::now() + d;
    const auto& tok = w->current->token();
    while (std::chrono::steady_clock::now() < end) tok->park_until(end);
}

void maybe_yield() {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr) return;
    // Strided: a fiber offers its worker only every 64th dispatch.
    // Every call sites this at the MPI dispatch boundary, so a
    // busy-polling rank (MPI_Iprobe spinning) still cannot starve
    // runnable peers forever -- but an eager sender streaming a burst
    // of small messages is not forced into a context switch per
    // message, which would serialize the whole burst with its
    // receiver and forfeit the wakeup amortization the windowed
    // protocols rely on.
    if ((w->current->next_dispatch() & 63u) != 0) return;
    if (w->qsize.load(std::memory_order_relaxed) == 0 &&
        w->sched->injected_size() == 0)
        return;
    w->current->suspend(SwitchOp::Yield);
}

std::int64_t current_slice_cpu_ns() {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr) return 0;
    return slice_clock_ns() - w->current->slice_cpu_start();
}

}  // namespace m2p::simmpi::sched
