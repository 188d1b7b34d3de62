// Fiber scheduler unit tests (DESIGN.md section 12): the park/unpark
// state machine, deadline sweeping, broadcast wakeups, fiber-aware
// sleep, and the thread-mode WaitToken fallback -- exercised directly
// against sched::Scheduler, below the World/Rank layers that normally
// drive it.  Named Sched.* so the TSAN job's -R regex picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "simmpi/fiber.hpp"
#include "simmpi/sched.hpp"
#include "util/clock.hpp"

namespace m2p::simmpi::sched {
namespace {

using namespace std::chrono_literals;
using clk = std::chrono::steady_clock;

constexpr std::size_t kStack = 256 * 1024;

/// Block the (plain-thread) test body until @p pred holds, using the
/// thread-mode token the fibers unpark -- the same protocol World uses
/// for join completion.
template <class Pred>
void wait_for(const Pred& pred, std::chrono::seconds deadline = 10s) {
    const auto until = clk::now() + deadline;
    const auto& tok = current_wait_token();
    while (!pred()) {
        ASSERT_LT(clk::now(), until) << "predicate never held";
        tok->park_until(clk::now() + 5ms);
    }
}

TEST(Sched, ManyFibersCompleteOnOneWorker) {
    Scheduler s(1);
    constexpr int kFibers = 512;
    std::atomic<int> done{0};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                done.fetch_add(1, std::memory_order_relaxed);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
}

TEST(Sched, TargetedUnparkWakesExactlyTheParkedFiber) {
    Scheduler s(1);
    std::atomic<bool> ready{false}, woken{false}, bystander_woken{false};
    std::shared_ptr<WaitToken> parked_tok;
    std::mutex mu;
    const auto& main_tok = current_wait_token();

    s.spawn(
        [&] {
            {
                std::lock_guard lk(mu);
                parked_tok = current_wait_token();
            }
            ready.store(true);
            main_tok->unpark();
            while (!woken.load())
                current_wait_token()->park_until(clk::now() + 10s);
            main_tok->unpark();
        },
        kStack);
    // A second parked fiber that must NOT wake from the targeted unpark
    // (only its own generous deadline or test teardown releases it).
    std::atomic<bool> stop_bystander{false};
    s.spawn(
        [&] {
            current_wait_token()->park_until(clk::now() + 500ms);
            bystander_woken.store(true);
            while (!stop_bystander.load())
                current_wait_token()->park_until(clk::now() + 5ms);
            main_tok->unpark();
        },
        kStack);

    wait_for([&] { return ready.load(); });
    std::this_thread::sleep_for(20ms);  // let the fiber actually park
    woken.store(true);
    {
        std::lock_guard lk(mu);
        parked_tok->unpark();
    }
    wait_for([&] { return woken.load(); });
    EXPECT_FALSE(bystander_woken.load())
        << "targeted unpark leaked to another fiber";
    stop_bystander.store(true);
    wait_for([&] { return bystander_woken.load(); });
}

TEST(Sched, UnparkBeforeParkIsConsumedByNextPark) {
    Scheduler s(1);
    std::atomic<bool> done{false};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            const auto& tok = current_wait_token();
            tok->unpark();  // pending notify on an idle token
            const auto t0 = clk::now();
            tok->park_until(t0 + 10s);  // must return at once, not in 10s
            EXPECT_LT(clk::now() - t0, 2s);
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
}

TEST(Sched, RacingUnparkAgainstParkAnnouncementIsNeverLost) {
    // Hammer the Idle->Parking announcement window: the waker thread
    // fires unpark() concurrently with the fiber's park_until(), so
    // some rounds land between the fast-path load and the kParking
    // transition.  A blind store there (instead of a CAS) overwrites
    // the notify and the round stalls for the full 10 s deadline.
    Scheduler s(1);
    constexpr int kRounds = 10000;
    std::atomic<int> acked{0};
    std::atomic<bool> go{false}, done{false}, tok_ready{false};
    std::shared_ptr<WaitToken> tok;
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            tok = current_wait_token();
            tok_ready.store(true);
            for (int i = 0; i < kRounds; ++i) {
                while (!go.exchange(false, std::memory_order_acq_rel))
                    current_wait_token()->park_until(clk::now() + 10s);
                acked.fetch_add(1, std::memory_order_release);
            }
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    while (!tok_ready.load()) std::this_thread::sleep_for(1ms);
    for (int i = 0; i < kRounds; ++i) {
        go.store(true, std::memory_order_release);
        tok->unpark();
        const auto until = clk::now() + 10s;
        while (acked.load(std::memory_order_acquire) <= i)
            ASSERT_LT(clk::now(), until) << "unpark lost at round " << i;
    }
    wait_for([&] { return done.load(); });
}

TEST(Sched, RankCpuSecondsChargesTheFiberNotTheWorker) {
    // Two fibers share one worker: a burner that spins and an idler
    // that parks while the burner owns the worker.  Reading the thread
    // CPU clock would charge the idler the burner's work; the
    // fiber-aware rank_cpu_seconds() provider must not.
    Scheduler s(1);
    std::atomic<bool> stop{false}, done{false};
    std::atomic<std::int64_t> burner_ns{0}, idler_ns{0};
    std::atomic<double> idle_delta{-1.0}, burner_total{0.0};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            while (!stop.load(std::memory_order_acquire)) {
                volatile std::uint64_t acc = 0;
                for (int i = 0; i < 200000; ++i)
                    acc += static_cast<std::uint64_t>(i);
                maybe_yield();
            }
            burner_total.store(util::rank_cpu_seconds());
            main_tok->unpark();
        },
        kStack, &burner_ns);
    s.spawn(
        [&] {
            const double t0 = util::rank_cpu_seconds();
            sleep_for(150ms);  // the burner owns the worker meanwhile
            const double t1 = util::rank_cpu_seconds();
            idle_delta.store(t1 - t0);
            stop.store(true, std::memory_order_release);
            done.store(true);
            main_tok->unpark();
        },
        kStack, &idler_ns);
    wait_for([&] { return done.load(); });
    wait_for([&] { return burner_total.load() > 0.0; });
    EXPECT_GE(idle_delta.load(), 0.0) << "per-fiber CPU went backwards";
    EXPECT_LT(idle_delta.load(), 0.05)
        << "idle fiber was charged the worker's CPU";
    EXPECT_GT(burner_total.load(), 0.05);
}

TEST(Sched, DeadlineSweeperReleasesAnUnnotifiedPark) {
    Scheduler s(1);
    std::atomic<bool> done{false};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            const auto t0 = clk::now();
            current_wait_token()->park_until(t0 + 50ms);
            // Nobody unparks us: only the deadline can release the park.
            EXPECT_GE(clk::now() - t0, 40ms);
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
}

TEST(Sched, TimedParksRacingASweeperScanAreNeverMissed) {
    // 128 fibers hold 30 s parks, so every sweeper scan walks a full
    // fiber table and, between short parks, the sweeper sleeps to a
    // ~30 s horizon.  One sleeper parks again and again with 50-500 us
    // deadlines; a park that lands while the sweeper scans must still
    // be seen, by the scan or through a poke.  A missed park sleeps to
    // the 30 s horizon, so the 2 s bound tests the protocol, not the
    // host.  (A second sleeper would hide a miss: its own short
    // deadline wakes the sweeper, whose rescan finds the missed park.)
    //  - The sleeper is spawned first, so the scan reads its slot
    //    before the holders' and a park landing just after that read
    //    has the whole holder table as its race window.
    //  - Busy fibers on every worker pick the sleeper up within a few
    //    maybe_yield() calls once the sweeper unparks it, so it parks
    //    again while the sweeper is still rescanning.
    Scheduler s(4);
    constexpr int kHolders = 128, kSleeps = 1000;
    std::atomic<bool> go{false}, stop{false};
    std::atomic<int> holders_started{0}, finished{0}, sleeps{0};
    std::atomic<std::int64_t> worst_ns{0};
    const auto& main_tok = current_wait_token();
    const auto finish = [&] {
        finished.fetch_add(1);
        main_tok->unpark();
    };
    s.spawn(
        [&] {
            while (!go.load()) current_wait_token()->park_until(clk::now() + 30s);
            std::uint64_t x = 0x9E3779B97F4A7C15ull;
            for (; !stop.load() && sleeps.load() < kSleeps; sleeps.fetch_add(1)) {
                x ^= x << 13;  // xorshift64: a fixed mix of sleep lengths
                x ^= x >> 7;
                x ^= x << 17;
                const auto t0 = clk::now();
                sleep_for(std::chrono::microseconds(50 + x % 451));
                worst_ns.store(std::max(worst_ns.load(), (clk::now() - t0).count()));
            }
            stop.store(true);
            finish();
        },
        kStack);
    for (int i = 0; i < kHolders; ++i)
        s.spawn(
            [&] {
                holders_started.fetch_add(1);
                while (!stop.load()) current_wait_token()->park_until(clk::now() + 30s);
                finish();
            },
            kStack);
    wait_for([&] { return holders_started.load() == kHolders; });
    const int spinners = static_cast<int>(s.worker_count());
    for (int i = 0; i < spinners; ++i)
        s.spawn(
            [&] {
                while (!stop.load()) maybe_yield();
                finish();
            },
            kStack);
    go.store(true);
    s.unpark_all_parked();
    // No asserting wait here: every fiber must be released before the
    // test's locals go out of scope, even when the sleeper is stuck.
    const auto until = clk::now() + 40s;
    while (!stop.load() && clk::now() < until) main_tok->park_until(clk::now() + 5ms);
    stop.store(true);
    s.unpark_all_parked();
    wait_for([&] { return finished.load() == 1 + kHolders + spinners; });
    EXPECT_EQ(sleeps.load(), kSleeps) << "the sleeper did not finish within 40 s";
    EXPECT_LT(worst_ns.load(), std::chrono::nanoseconds(2s).count())
        << "a short sleep waited for the 30 s horizon: the sweeper missed its park";
}

TEST(Sched, UnparkAllParkedWakesEveryParkedFiber) {
    Scheduler s(2);
    constexpr int kFibers = 32;
    std::atomic<int> parked_hint{0}, released{0};
    std::atomic<bool> go{false};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                parked_hint.fetch_add(1);
                while (!go.load())
                    current_wait_token()->park_until(clk::now() + 10s);
                released.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return parked_hint.load() == kFibers; });
    std::this_thread::sleep_for(50ms);  // give everyone time to park
    go.store(true);
    // The death-epoch/poison broadcast path: every parked fiber must
    // re-check its predicate well before its 10 s deadline.
    const auto t0 = clk::now();
    s.unpark_all_parked();
    wait_for([&] { return released.load() == kFibers; });
    EXPECT_LT(clk::now() - t0, 5s);
}

TEST(Sched, SleepingFibersShareOneWorker) {
    // 16 fibers each sleep 100 ms on a single worker.  With a wedging
    // sleep this takes 1.6 s; with a parking sleep, about 100 ms.
    Scheduler s(1);
    constexpr int kFibers = 16;
    std::atomic<int> done{0};
    const auto& main_tok = current_wait_token();
    const auto t0 = clk::now();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                sleep_for(100ms);
                done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
    EXPECT_LT(clk::now() - t0, 1s) << "sleep_for wedged the worker";
}

TEST(Sched, OnFiberAndSliceClockReflectContext) {
    EXPECT_FALSE(on_fiber());
    EXPECT_EQ(current_slice_cpu_ns(), 0);
    Scheduler s(1);
    std::atomic<bool> done{false};
    std::atomic<bool> was_on_fiber{false};
    std::atomic<std::int64_t> slice_ns{-1};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            was_on_fiber.store(on_fiber());
            // Burn a little CPU so the slice clock has something to show.
            volatile std::uint64_t acc = 0;
            for (int i = 0; i < 2'000'000; ++i) acc += static_cast<std::uint64_t>(i);
            slice_ns.store(current_slice_cpu_ns());
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
    EXPECT_TRUE(was_on_fiber.load());
    EXPECT_GT(slice_ns.load(), 0);
}

TEST(Sched, ThreadModeTokenParksAndUnparksAcrossThreads) {
    // No scheduler at all: the fallback must work for plain OS threads
    // (the retained thread-per-rank engine path).
    const auto& tok = current_wait_token();
    ASSERT_NE(tok, nullptr);
    std::atomic<bool> flag{false};
    std::thread waker([&] {
        std::this_thread::sleep_for(30ms);
        flag.store(true);
        tok->unpark();
    });
    const auto until = clk::now() + 10s;
    while (!flag.load()) {
        ASSERT_LT(clk::now(), until);
        tok->park_until(clk::now() + 5s);
    }
    waker.join();
    SUCCEED();
}

TEST(Sched, MaybeYieldKeepsBusyLoopsFair) {
    // Two busy-polling fibers on one worker: without the fairness point
    // the first to run would spin forever.  maybe_yield is strided, so
    // each loop iteration calls it once and the stride (64) is crossed
    // quickly.
    Scheduler s(1);
    std::atomic<int> turn{0};
    std::atomic<bool> done{false};
    const auto& main_tok = current_wait_token();
    const auto spin_until_turn = [&](int mine, int rounds) {
        for (int r = 0; r < rounds; ++r) {
            while (turn.load(std::memory_order_acquire) % 2 != mine)
                maybe_yield();  // busy poll, cooperative
            turn.fetch_add(1, std::memory_order_acq_rel);
        }
    };
    s.spawn([&] { spin_until_turn(0, 50); }, kStack);
    s.spawn(
        [&] {
            spin_until_turn(1, 50);
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
    EXPECT_EQ(turn.load(), 100);
}

TEST(Sched, WorkIsStolenAcrossWorkers) {
    // Spawn from the injector with 4 workers: completion of all fibers
    // requires idle workers to pull from the shared queue / steal.
    Scheduler s(4);
    constexpr int kFibers = 64;
    std::atomic<int> done{0};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                sleep_for(1ms);
                done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
    EXPECT_EQ(s.worker_count(), 4u);
}

}  // namespace
}  // namespace m2p::simmpi::sched
