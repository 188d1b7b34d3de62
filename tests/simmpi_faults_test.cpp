// Fault injection and fault-tolerant behavior: every FaultPlan fault
// kind (crash, hang, drop, delay, spawn failure) replayed
// deterministically, survivor error codes checked for consistency,
// errhandler semantics (MPI_ERRORS_RETURN vs MPI_ERRORS_ARE_FATAL),
// the join_all watchdog, and the tool-side degradation acceptance
// scenario (a Performance Consultant run that loses a rank mid-search
// yet reports survivor findings).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "core/session.hpp"
#include "pperfmark/pperfmark.hpp"
#include "simmpi/faults.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"
#include "simmpi/world.hpp"

namespace m2p {
namespace {

using simmpi::CollAlgo;
using simmpi::Comm;
using simmpi::Epitaph;
using simmpi::FaultPlan;
using simmpi::Flavor;
using simmpi::LaunchPlan;
using simmpi::Rank;
using simmpi::World;
using simmpi::MPI_BYTE;
using simmpi::MPI_COMM_NULL;
using simmpi::MPI_ERR_OTHER;
using simmpi::MPI_ERR_PROC_FAILED;
using simmpi::MPI_ERR_RANK;
using simmpi::MPI_ERR_SPAWN;
using simmpi::MPI_ERR_WIN;
using simmpi::MPI_ERRORS_ARE_FATAL;
using simmpi::MPI_INFO_NULL;
using simmpi::MPI_INT;
using simmpi::MPI_LOCK_EXCLUSIVE;
using simmpi::MPI_SUCCESS;
using simmpi::MPI_WIN_NULL;
using simmpi::Win;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Per-rank observations collected from inside the program bodies
/// (rank threads), read back on the test thread after join_all.
struct Observed {
    std::mutex mu;
    std::map<int, int> first_error;     ///< rank -> first non-success rc
    std::map<int, double> elapsed;      ///< rank -> seconds in the probed call
    void error(int me, int rc) {
        std::lock_guard lk(mu);
        first_error.emplace(me, rc);
    }
    void timing(int me, double s) {
        std::lock_guard lk(mu);
        elapsed[me] = s;
    }
};

World::Config faulted_cfg(Flavor f, CollAlgo algo) {
    World::Config cfg;
    cfg.flavor = f;
    cfg.coll_algo = algo;
    // Tight enough that a wrongly-deadlocked test fails fast, loose
    // enough that liveness detection (ms) is clearly what unwedges us.
    cfg.wait_deadline_seconds = 5.0;
    cfg.join_deadline_seconds = 30.0;
    cfg.faults = std::make_shared<FaultPlan>();
    return cfg;
}

void run_ranks(World& world, const std::string& prog, int n) {
    LaunchPlan plan;
    for (int i = 0; i < n; ++i)
        plan.placements.push_back("node" + std::to_string(i % 2));
    launch(world, prog, {}, plan);
    world.join_all();
}

// ---------------------------------------------------------------------------
// Crash in a collective: every survivor sees the same MPI_ERR_PROC_FAILED,
// across both collective algorithms and both flavors.
// ---------------------------------------------------------------------------

void crash_in_collective(Flavor f, CollAlgo algo) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(f, algo);
    // Rank 1 dies entering its 3rd allreduce (calls: Init, 2 allreduces, boom).
    cfg.faults->kill_at_call(1, 4);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        int rc = MPI_SUCCESS;
        for (int i = 0; i < 200 && rc == MPI_SUCCESS; ++i) {
            int in = me, out = 0;
            rc = r.MPI_Allreduce(&in, &out, 1, MPI_INT, simmpi::MPI_SUM,
                                 r.MPI_COMM_WORLD());
        }
        obs.error(me, rc);
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 4);

    const auto epitaphs = world.epitaphs();
    ASSERT_EQ(epitaphs.size(), 1u);
    EXPECT_EQ(epitaphs[0].global_rank, 1);
    EXPECT_EQ(epitaphs[0].cause, Epitaph::Cause::Killed);
    EXPECT_EQ(epitaphs[0].calls_made, 4u);
    EXPECT_EQ(epitaphs[0].last_call, "MPI_Allreduce");

    // The victim never reports; every survivor reports the same code.
    EXPECT_EQ(obs.first_error.count(1), 0u);
    for (int me : {0, 2, 3}) {
        ASSERT_EQ(obs.first_error.count(me), 1u) << "rank " << me << " hung?";
        EXPECT_EQ(obs.first_error[me], MPI_ERR_PROC_FAILED) << "rank " << me;
    }
    EXPECT_FALSE(world.poisoned());  // MPI_ERRORS_RETURN is the default
}

TEST(Faults, CrashInCollectiveLamFlat) {
    crash_in_collective(Flavor::Lam, CollAlgo::Flat);
}
TEST(Faults, CrashInCollectiveLamTree) {
    crash_in_collective(Flavor::Lam, CollAlgo::Tree);
}
TEST(Faults, CrashInCollectiveMpichFlat) {
    crash_in_collective(Flavor::Mpich, CollAlgo::Flat);
}
TEST(Faults, CrashInCollectiveMpichTree) {
    crash_in_collective(Flavor::Mpich, CollAlgo::Tree);
}

// ---------------------------------------------------------------------------
// Rank death at fiber scale: 256 fiber-scheduled ranks, one victim,
// and all 255 survivors must report the same MPI_ERR_PROC_FAILED.
// The error contract cannot dilute as the world grows past the old
// thread-per-rank wall -- this is the chaos leg of the rank-scaling
// acceptance criteria.
// ---------------------------------------------------------------------------

TEST(Faults, CrashInCollectiveAt256Ranks) {
    constexpr int kRanks = 256;
    constexpr int kVictim = 17;
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.join_deadline_seconds = 60.0;
    // The victim dies entering its 3rd allreduce (Init, 2 allreduces, boom).
    cfg.faults->kill_at_call(kVictim, 4);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        int rc = MPI_SUCCESS;
        for (int i = 0; i < 50 && rc == MPI_SUCCESS; ++i) {
            int in = me, out = 0;
            rc = r.MPI_Allreduce(&in, &out, 1, MPI_INT, simmpi::MPI_SUM,
                                 r.MPI_COMM_WORLD());
        }
        obs.error(me, rc);
        r.MPI_Finalize();
    });
    run_ranks(world, "app", kRanks);

    const auto epitaphs = world.epitaphs();
    ASSERT_EQ(epitaphs.size(), 1u);
    EXPECT_EQ(epitaphs[0].global_rank, kVictim);
    EXPECT_EQ(epitaphs[0].cause, Epitaph::Cause::Killed);
    EXPECT_EQ(epitaphs[0].last_call, "MPI_Allreduce");

    // The victim never reports; all 255 survivors report the same code.
    EXPECT_EQ(obs.first_error.count(kVictim), 0u);
    for (int me = 0; me < kRanks; ++me) {
        if (me == kVictim) continue;
        ASSERT_EQ(obs.first_error.count(me), 1u) << "rank " << me << " hung?";
        EXPECT_EQ(obs.first_error[me], MPI_ERR_PROC_FAILED) << "rank " << me;
    }
    EXPECT_FALSE(world.poisoned());  // MPI_ERRORS_RETURN is the default
}

// ---------------------------------------------------------------------------
// Crash seen from point-to-point: named-peer operations fail with
// MPI_ERR_RANK, both on the receive and the (eager and rendezvous)
// send side, without waiting for the deadline.
// ---------------------------------------------------------------------------

TEST(Faults, DeadPeerFailsRecvAndSendWithErrRank) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.faults->kill_at_call(1, 2);  // rank 1 dies right after MPI_Init
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 0) {
            const auto t0 = std::chrono::steady_clock::now();
            int v = 0;
            const int rc = r.MPI_Recv(&v, 1, MPI_INT, 1, 7, r.MPI_COMM_WORLD(),
                                      nullptr);
            obs.error(me, rc);
            obs.timing(me, seconds_since(t0));
            // Sends to the dead peer fail fast too.
            EXPECT_EQ(r.MPI_Send(&v, 1, MPI_INT, 1, 8, r.MPI_COMM_WORLD()),
                      MPI_ERR_RANK);
        } else {
            r.MPI_Barrier(r.MPI_COMM_WORLD());  // the call it dies in
        }
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 2);

    ASSERT_EQ(obs.first_error.count(0), 1u);
    EXPECT_EQ(obs.first_error[0], MPI_ERR_RANK);
    // Liveness detection, not the 5 s deadline, unwedged the receive.
    EXPECT_LT(obs.elapsed[0], 2.0);
    ASSERT_EQ(world.epitaphs().size(), 1u);
    EXPECT_EQ(world.epitaphs()[0].global_rank, 1);
}

TEST(Faults, RendezvousSenderUnwedgesWhenReceiverDies) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.faults->kill_at_call(1, 2);  // receiver dies entering its MPI_Recv
    World world(reg, cfg);
    Observed obs;
    // Payload above the eager limit: the sender blocks on delivery.
    const int kBytes = 64 * 1024;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        std::vector<char> buf(static_cast<std::size_t>(kBytes), 'r');
        if (me == 0) {
            const auto t0 = std::chrono::steady_clock::now();
            const int rc =
                r.MPI_Send(buf.data(), kBytes, MPI_BYTE, 1, 7, r.MPI_COMM_WORLD());
            obs.error(me, rc);
            obs.timing(me, seconds_since(t0));
        } else {
            r.MPI_Recv(buf.data(), kBytes, MPI_BYTE, 0, 7, r.MPI_COMM_WORLD(),
                       nullptr);
        }
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 2);

    ASSERT_EQ(obs.first_error.count(0), 1u);
    EXPECT_EQ(obs.first_error[0], MPI_ERR_RANK);
    EXPECT_LT(obs.elapsed[0], 2.0);  // liveness check, not deadline
}

// ---------------------------------------------------------------------------
// Hang injection: the stuck rank publishes its death *before* wedging,
// so survivors unwedge via the liveness check long before the hang (or
// any deadline) expires.
// ---------------------------------------------------------------------------

TEST(Faults, HangInBarrierUnwedgesSurvivorsViaLiveness) {
    constexpr double kHangSeconds = 1.0;
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.wait_deadline_seconds = 10.0;  // deadline clearly not the rescuer
    cfg.faults->hang_in_call(1, "MPI_Barrier", kHangSeconds);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        const auto t0 = std::chrono::steady_clock::now();
        const int rc = r.MPI_Barrier(r.MPI_COMM_WORLD());
        obs.error(me, rc);
        obs.timing(me, seconds_since(t0));
        r.MPI_Finalize();
    });
    const auto t0 = std::chrono::steady_clock::now();
    run_ranks(world, "app", 4);
    // join_all still has to wait out the hung thread itself.
    EXPECT_GE(seconds_since(t0), kHangSeconds * 0.9);

    const auto epitaphs = world.epitaphs();
    ASSERT_EQ(epitaphs.size(), 1u);
    EXPECT_EQ(epitaphs[0].global_rank, 1);
    EXPECT_EQ(epitaphs[0].cause, Epitaph::Cause::Hung);
    EXPECT_EQ(epitaphs[0].last_call, "MPI_Barrier");
    for (int me : {0, 2, 3}) {
        ASSERT_EQ(obs.first_error.count(me), 1u);
        EXPECT_EQ(obs.first_error[me], MPI_ERR_PROC_FAILED) << "rank " << me;
        // Unwedged well before the hang ended.
        EXPECT_LT(obs.elapsed[me], kHangSeconds * 0.75) << "rank " << me;
    }
}

// ---------------------------------------------------------------------------
// Lossy links: drops surface as the receiver's deadline error (the
// sender cannot tell), and a retransmission gets through; delays stall
// the wire but deliver intact.
// ---------------------------------------------------------------------------

TEST(Faults, DroppedMessageHitsReceiverDeadline) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.wait_deadline_seconds = 0.8;
    cfg.faults->drop_message(0, 1);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        int v = 41;
        if (me == 0) {
            // Silent loss: the eager sender still sees success.
            obs.error(me, r.MPI_Send(&v, 1, MPI_INT, 1, 7, r.MPI_COMM_WORLD()));
        } else {
            const auto t0 = std::chrono::steady_clock::now();
            const int rc =
                r.MPI_Recv(&v, 1, MPI_INT, 0, 7, r.MPI_COMM_WORLD(), nullptr);
            obs.error(me, rc);
            obs.timing(me, seconds_since(t0));
        }
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 2);

    EXPECT_EQ(obs.first_error[0], MPI_SUCCESS);
    EXPECT_EQ(obs.first_error[1], MPI_ERR_OTHER);
    EXPECT_GE(obs.elapsed[1], 0.7);
    EXPECT_TRUE(world.epitaphs().empty());  // nobody died; link fault only
}

TEST(Faults, DroppedMessageThenRetransmitDelivers) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.faults->drop_message(0, 1, /*nth_match=*/1);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 0) {
            int first = 41, second = 42;
            r.MPI_Send(&first, 1, MPI_INT, 1, 7, r.MPI_COMM_WORLD());   // dropped
            r.MPI_Send(&second, 1, MPI_INT, 1, 7, r.MPI_COMM_WORLD());  // arrives
        } else {
            int v = 0;
            EXPECT_EQ(r.MPI_Recv(&v, 1, MPI_INT, 0, 7, r.MPI_COMM_WORLD(), nullptr),
                      MPI_SUCCESS);
            obs.error(me, v);  // reuse the slot to carry the payload back
        }
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 2);
    EXPECT_EQ(obs.first_error[1], 42);
}

TEST(Faults, DelayedMessageStallsWireButArrivesIntact) {
    constexpr double kDelay = 0.3;
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.faults->delay_message(0, 1, /*nth_match=*/1, kDelay);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 0) {
            int v = 43;
            const auto t0 = std::chrono::steady_clock::now();
            EXPECT_EQ(r.MPI_Send(&v, 1, MPI_INT, 1, 7, r.MPI_COMM_WORLD()),
                      MPI_SUCCESS);
            obs.timing(me, seconds_since(t0));
        } else {
            int v = 0;
            const auto t0 = std::chrono::steady_clock::now();
            EXPECT_EQ(r.MPI_Recv(&v, 1, MPI_INT, 0, 7, r.MPI_COMM_WORLD(), nullptr),
                      MPI_SUCCESS);
            obs.timing(me, seconds_since(t0));
            obs.error(me, v);
        }
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 2);

    EXPECT_EQ(obs.first_error[1], 43);
    // The delay stalls inside the sender's transport (a slow wire), so
    // both sides observe it.
    EXPECT_GE(obs.elapsed[0], kDelay * 0.8);
    EXPECT_GE(obs.elapsed[1], kDelay * 0.8);
}

// ---------------------------------------------------------------------------
// Spawn failure: every parent gets MPI_ERR_SPAWN with errcodes filled,
// no rank deadlocks in the spawn rendezvous, and the *next* spawn works.
// ---------------------------------------------------------------------------

TEST(Faults, SpawnFailureIsCollectiveAndRecoverable) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.faults->fail_spawn(/*nth_spawn=*/1);
    World world(reg, cfg);
    Observed first, second;
    std::atomic<int> children{0};
    world.register_program("child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        ++children;
        r.MPI_Finalize();
    });
    world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        first.error(me, r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0,
                                         r.MPI_COMM_WORLD(), &inter, &errcodes));
        EXPECT_EQ(inter, MPI_COMM_NULL);
        ASSERT_EQ(errcodes.size(), 2u);
        for (int e : errcodes) EXPECT_EQ(e, MPI_ERR_SPAWN);
        // The world is intact; a second attempt succeeds everywhere.
        second.error(me, r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0,
                                          r.MPI_COMM_WORLD(), &inter, &errcodes));
        EXPECT_NE(inter, MPI_COMM_NULL);
        r.MPI_Finalize();
    });
    run_ranks(world, "parent", 2);

    for (int me : {0, 1}) {
        EXPECT_EQ(first.first_error[me], MPI_ERR_SPAWN) << "rank " << me;
        EXPECT_EQ(second.first_error[me], MPI_SUCCESS) << "rank " << me;
    }
    EXPECT_EQ(children.load(), 2);
    EXPECT_TRUE(world.epitaphs().empty());
}

TEST(Faults, SpawnOfUnknownProgramFailsInsteadOfThrowing) {
    // Satellite (b): the old implementation threw from inside the rank
    // thread when the spawned command was not registered; now it is a
    // proper collective spawn failure.
    instr::Registry reg;
    World world(reg, faulted_cfg(Flavor::Lam, CollAlgo::Tree));
    Observed obs;
    world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        obs.error(me, r.MPI_Comm_spawn("no-such-program", {}, 2, MPI_INFO_NULL, 0,
                                       r.MPI_COMM_WORLD(), &inter, &errcodes));
        EXPECT_EQ(inter, MPI_COMM_NULL);
        r.MPI_Finalize();
    });
    run_ranks(world, "parent", 2);
    for (int me : {0, 1}) EXPECT_EQ(obs.first_error[me], MPI_ERR_SPAWN);
    EXPECT_TRUE(world.epitaphs().empty());
    EXPECT_TRUE(world.all_finished());
}

TEST(Faults, LaunchOfUnknownProgramThrowsOnLaunchingThread) {
    instr::Registry reg;
    World world(reg, {});
    LaunchPlan plan;
    plan.placements = {"n0"};
    EXPECT_THROW(launch(world, "never-registered", {}, plan), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Errhandler semantics: MPI_Abort and MPI_ERRORS_ARE_FATAL poison the
// world; every rank terminates and join_all still completes.
// ---------------------------------------------------------------------------

TEST(Faults, AbortPoisonsWorldAndOutcomeIsAborted) {
    instr::Registry reg;
    World world(reg, faulted_cfg(Flavor::Lam, CollAlgo::Tree));
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 2) {
            r.MPI_Abort(r.MPI_COMM_WORLD(), 42);
            return;  // unreachable: MPI_Abort does not return
        }
        int rc = MPI_SUCCESS;
        for (int i = 0; i < 200 && rc == MPI_SUCCESS; ++i)
            rc = r.MPI_Barrier(r.MPI_COMM_WORLD());
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 3);

    EXPECT_TRUE(world.poisoned());
    EXPECT_EQ(world.poison_code(), 42);
    const auto epitaphs = world.epitaphs();
    int aborted = 0;
    for (const auto& e : epitaphs)
        if (e.cause == Epitaph::Cause::Aborted) ++aborted;
    EXPECT_EQ(aborted, 1);

    const core::RunOutcome o = core::outcome_from_world(world);
    EXPECT_EQ(o.status, core::RunOutcome::Status::Aborted);
    EXPECT_EQ(o.abort_code, 42);
    EXPECT_FALSE(o.ok());
}

TEST(Faults, ErrorsAreFatalTerminatesEveryRank) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.default_errhandler = MPI_ERRORS_ARE_FATAL;
    cfg.faults->kill_at_call(1, 3);
    World world(reg, cfg);
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int rc = MPI_SUCCESS;
        for (int i = 0; i < 200 && rc == MPI_SUCCESS; ++i)
            rc = r.MPI_Barrier(r.MPI_COMM_WORLD());
        // Unreachable under MPI_ERRORS_ARE_FATAL: the first failing
        // barrier terminates the rank instead of returning.
        ADD_FAILURE() << "rank survived a fatal-errhandler failure, rc=" << rc;
    });
    run_ranks(world, "app", 3);

    EXPECT_TRUE(world.poisoned());
    const auto epitaphs = world.epitaphs();
    EXPECT_EQ(epitaphs.size(), 3u);  // the victim + both poisoned survivors
    int killed = 0, poisoned = 0;
    for (const auto& e : epitaphs) {
        if (e.cause == Epitaph::Cause::Killed) ++killed;
        if (e.cause == Epitaph::Cause::Poisoned) ++poisoned;
    }
    EXPECT_EQ(killed, 1);
    EXPECT_EQ(poisoned, 2);
}

// Regression: poison() used to publish an export snapshot inline, and
// the snapshot pass re-takes every mailbox mutex (simmpi.mailbox.*
// gauges).  A fatal transport error raised from inside send_body's
// flow-control loop / recv_body's scan -- both run their doom checks
// under the destination's mailbox mutex -- therefore self-deadlocked
// whenever M2P_PVAR_EXPORT was set.  The error paths now drop mb.mu
// first and the death/poison flush is asynchronous; this test hangs
// (and is watchdog-aborted) if either regresses.
TEST(Faults, FatalTransportErrorWithExportAttachedDoesNotDeadlock) {
    const std::string path = ::testing::TempDir() + "faults_export." +
                             std::to_string(::getpid()) + ".pvar";
    ::unlink(path.c_str());
    ::setenv("M2P_PVAR_EXPORT", path.c_str(), 1);
    ::setenv("M2P_PVAR_EXPORT_PERIOD_US", "500", 1);
    {
        instr::Registry reg;
        World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
        cfg.default_errhandler = MPI_ERRORS_ARE_FATAL;
        cfg.wait_deadline_seconds = 0.3;
        cfg.mailbox_capacity = 4096;  // a few eager sends fill it
        World world(reg, cfg);
        world.register_program("jam", [](Rank& r, const std::vector<std::string>&) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0;
            r.MPI_Comm_rank(w, &me);
            if (me == 0) {
                // Eager sends against a receiver that never drains:
                // the flow-control park hits the wait deadline and the
                // FATAL errhandler poisons the world from the send
                // error path.
                std::vector<char> buf(512, 'x');
                int rc = MPI_SUCCESS;
                for (int i = 0; i < 1000 && rc == MPI_SUCCESS; ++i)
                    rc = r.MPI_Send(buf.data(), 512, MPI_BYTE, 1, 7, w);
                ADD_FAILURE() << "rank 0 survived a fatal send, rc=" << rc;
            } else {
                // A receive nothing ever matches: its deadline fires
                // the same fatal path from recv_body's scan loop.
                char b = 0;
                r.MPI_Recv(&b, 1, MPI_BYTE, 0, 99, w, nullptr);
                ADD_FAILURE() << "rank 1 survived a fatal recv";
            }
            r.MPI_Finalize();
        });
        run_ranks(world, "jam", 2);
        EXPECT_TRUE(world.poisoned());
        EXPECT_EQ(world.epitaphs().size(), 2u);
    }
    ::unsetenv("M2P_PVAR_EXPORT");
    ::unsetenv("M2P_PVAR_EXPORT_PERIOD_US");
    ::unlink(path.c_str());
}

// Regression: MPI_Win_lock's abandon path used to run check_poisoned()
// while still holding the target shard's mutex.  For a lock on the
// rank's OWN shard (legal and common), the rma_detach_all() inside
// check_poisoned re-locks that same non-recursive mutex:
// self-deadlock.  The abandon path now withdraws under the lock and
// errors after releasing it; this test wedges on regression.
TEST(Faults, AbortWhileHoldingPassiveLockUnwedgesSelfLockWaiter) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    cfg.wait_deadline_seconds = 5.0;
    World world(reg, cfg);
    world.register_program("locker", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::vector<std::int32_t> mem(4, 0);
        Win win = MPI_WIN_NULL;
        if (r.MPI_Win_create(mem.data(), 16, 4, MPI_INFO_NULL, w, &win) !=
            MPI_SUCCESS) {
            r.MPI_Finalize();
            return;
        }
        if (me == 1) {
            // Grab rank 0's shard exclusively, let rank 0 queue behind
            // us, then abort without unlocking: the waiter can only be
            // unwedged by the poison broadcast.
            r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win);
            r.MPI_Barrier(w);
            simmpi::sched::sleep_for(std::chrono::duration<double>(0.1));
            r.MPI_Abort(w, 42);
            return;  // unreachable
        }
        r.MPI_Barrier(w);
        // Queues behind rank 1's held lock on our OWN shard; the abort
        // dooms the wait and the abandon path must not re-lock the
        // shard it is withdrawing from.
        const int rc = r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win);
        ADD_FAILURE() << "rank 0 survived the poisoned lock wait, rc=" << rc;
        r.MPI_Finalize();
    });
    run_ranks(world, "locker", 2);
    EXPECT_TRUE(world.poisoned());
    EXPECT_EQ(world.poison_code(), 42);
}

// ---------------------------------------------------------------------------
// join_all watchdog (satellite a): a rank wedged outside any MPI call
// trips the join deadline, which poisons the world instead of hanging
// the harness forever.
// ---------------------------------------------------------------------------

TEST(Faults, JoinAllWatchdogPoisonsStragglers) {
    instr::Registry reg;
    World::Config cfg;
    cfg.join_deadline_seconds = 0.3;
    World world(reg, cfg);
    world.register_program("straggler", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        // Rank 1 wedges outside MPI where no liveness check can see it;
        // only the watchdog's poison (observed at the next MPI call)
        // brings it home.
        if (me == 1) std::this_thread::sleep_for(std::chrono::milliseconds(900));
        r.MPI_Barrier(r.MPI_COMM_WORLD());
        r.MPI_Finalize();
    });
    const auto t0 = std::chrono::steady_clock::now();
    run_ranks(world, "straggler", 2);
    EXPECT_LT(seconds_since(t0), 10.0);
    EXPECT_TRUE(world.poisoned());
    EXPECT_TRUE(world.all_finished());
}

// ---------------------------------------------------------------------------
// RMA epochs under faults: the data plane's per-epoch completion
// tokens must deliver the PR 3 error contract, not park survivors
// forever -- a fence losing a member fails with MPI_ERR_PROC_FAILED,
// and a lock queue behind a dead holder fails with MPI_ERR_RANK.
// ---------------------------------------------------------------------------

TEST(Faults, KillMidFenceFailsSurvivorsWithProcFailed) {
    instr::Registry reg;
    // Mpich: the counter/token fence path (LAM's fence rides the
    // barrier, which CrashInCollective already covers).
    World::Config cfg = faulted_cfg(Flavor::Mpich, CollAlgo::Tree);
    // Calls: MPI_Init, MPI_Win_create, boom entering the first fence.
    cfg.faults->kill_at_call(1, 3);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        std::vector<std::int32_t> mem(4, 0);
        Win win = MPI_WIN_NULL;
        r.MPI_Win_create(mem.data(), 16, 4, MPI_INFO_NULL, r.MPI_COMM_WORLD(), &win);
        int rc = MPI_SUCCESS;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 200 && rc == MPI_SUCCESS; ++i)
            rc = r.MPI_Win_fence(0, win);
        obs.error(me, rc);
        obs.timing(me, seconds_since(t0));
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 4);

    ASSERT_EQ(world.epitaphs().size(), 1u);
    EXPECT_EQ(world.epitaphs()[0].global_rank, 1);
    EXPECT_EQ(world.epitaphs()[0].last_call, "MPI_Win_fence");
    EXPECT_EQ(obs.first_error.count(1), 0u);
    for (int me : {0, 2, 3}) {
        ASSERT_EQ(obs.first_error.count(me), 1u) << "rank " << me << " hung?";
        EXPECT_EQ(obs.first_error[me], MPI_ERR_PROC_FAILED) << "rank " << me;
        // Liveness detection, not the 5 s wait deadline, unparked us.
        EXPECT_LT(obs.elapsed[me], 2.0) << "rank " << me;
    }
}

TEST(Faults, KillLockHolderFailsQueuedWaitersWithErrRank) {
    instr::Registry reg;
    World::Config cfg = faulted_cfg(Flavor::Lam, CollAlgo::Tree);
    // Rank 1's calls: Init, Win_create, Win_lock, boom in the barrier
    // it enters while still holding rank 0's exclusive lock.
    cfg.faults->kill_at_call(1, 4);
    World world(reg, cfg);
    Observed obs;
    std::atomic<bool> lock_held{false};
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        std::vector<std::int32_t> mem(4, 0);
        Win win = MPI_WIN_NULL;
        r.MPI_Win_create(mem.data(), 16, 4, MPI_INFO_NULL, r.MPI_COMM_WORLD(), &win);
        if (me == 1) {
            ASSERT_EQ(r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win), MPI_SUCCESS);
            lock_held = true;
            r.MPI_Barrier(r.MPI_COMM_WORLD());  // dies here, lock never released
        } else {
            while (!lock_held) simmpi::sched::sleep_for(std::chrono::milliseconds(1));
            const auto t0 = std::chrono::steady_clock::now();
            obs.error(me, r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win));
            obs.timing(me, seconds_since(t0));
            // The dead holder still owns the lock, so a free attempt is
            // refused instead of wedging the collective.
            EXPECT_EQ(r.MPI_Win_free(&win), MPI_ERR_WIN);
        }
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 4);

    ASSERT_EQ(world.epitaphs().size(), 1u);
    EXPECT_EQ(world.epitaphs()[0].global_rank, 1);
    for (int me : {0, 2, 3}) {
        ASSERT_EQ(obs.first_error.count(me), 1u) << "rank " << me << " hung?";
        EXPECT_EQ(obs.first_error[me], MPI_ERR_RANK) << "rank " << me;
        EXPECT_LT(obs.elapsed[me], 2.0) << "rank " << me;
    }
}

TEST(Faults, WinFreeWithHeldLockIsRefusedThenSucceeds) {
    // The end of a lock loop: ranks 0 and 2 call MPI_Win_free while
    // rank 1 still holds a passive-target lock.  They must block in the
    // collective until the holder unlocks -- not be refused and leave
    // the holder alone in the barrier.  The holder's own free while it
    // holds the lock is erroneous and refused (MPI_ERR_WIN) at once,
    // without entering the collective; after its unlock every member's
    // free succeeds.
    constexpr int kRanks = 3;
    instr::Registry reg;
    World world(reg, faulted_cfg(Flavor::Lam, CollAlgo::Tree));
    std::atomic<bool> locked{false}, unlocked{false};
    std::atomic<int> freeing{0};
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        std::vector<std::int32_t> mem(4, 0);
        Win win = MPI_WIN_NULL;
        r.MPI_Win_create(mem.data(), 16, 4, MPI_INFO_NULL, r.MPI_COMM_WORLD(), &win);
        if (me == 1) {
            ASSERT_EQ(r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win), MPI_SUCCESS);
            locked = true;
            while (freeing < kRanks - 1)
                simmpi::sched::sleep_for(std::chrono::milliseconds(1));
            // Let the others get well into the free's barrier.
            simmpi::sched::sleep_for(std::chrono::milliseconds(50));
            const auto t0 = std::chrono::steady_clock::now();
            EXPECT_EQ(r.MPI_Win_free(&win), MPI_ERR_WIN);  // own epoch in flight
            EXPECT_LT(seconds_since(t0), 2.0);  // refused up front, not at the deadline
            ASSERT_EQ(r.MPI_Win_unlock(0, win), MPI_SUCCESS);
            unlocked = true;
        } else {
            while (!locked) simmpi::sched::sleep_for(std::chrono::milliseconds(1));
            ++freeing;
        }
        EXPECT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS) << "rank " << me;
        EXPECT_TRUE(unlocked) << "rank " << me << " left the free before the unlock";
        r.MPI_Finalize();
    });
    const auto t0 = std::chrono::steady_clock::now();
    run_ranks(world, "app", kRanks);
    EXPECT_LT(seconds_since(t0), 2.0);  // no rank sat out the 5 s deadline
    EXPECT_TRUE(world.epitaphs().empty());
    EXPECT_TRUE(world.all_finished());
}

TEST(Faults, WinlockSyncRunFreesTheWindowOnEveryRankPromptly) {
    // PPerfMark's winlock-sync ends its exclusive-lock loop on each rank
    // at a different time.  Every rank's MPI_Win_free must succeed as
    // one collective: each return comes after all ranks have entered
    // (a refused free returns while the lock holder is still looping)
    // and well inside the 5 s wait deadline.
    constexpr int kRanks = 4;
    World::Config cfg = core::tool_world_config();
    cfg.wait_deadline_seconds = 5.0;
    instr::Registry reg;
    World world(reg, cfg);
    ppm::Params p;
    p.iterations = 100;  // default waste: rank 0 holds the lock 10 ms a turn
    ppm::register_all(world, p);

    // Per rank: entry time, then (ranks entered, seconds inside) at return.
    std::mutex mu;
    int entered = 0;
    std::map<int, std::chrono::steady_clock::time_point> entry;
    std::map<int, std::pair<int, double>> at_return;
    const instr::FuncId f = world.fids().PMPI_Win_free;
    reg.insert(f, instr::Where::Entry, [&](const instr::CallContext& c) {
        std::lock_guard lk(mu);
        entry[c.rank] = std::chrono::steady_clock::now();
        ++entered;
    });
    reg.insert(f, instr::Where::Return, [&](const instr::CallContext& c) {
        std::lock_guard lk(mu);
        at_return[c.rank] = {entered, seconds_since(entry[c.rank])};
    });
    run_ranks(world, ppm::kWinlockSync, kRanks);

    EXPECT_TRUE(world.epitaphs().empty());
    EXPECT_FALSE(world.poisoned());
    ASSERT_EQ(at_return.size(), static_cast<std::size_t>(kRanks));
    for (const auto& [rank, r] : at_return) {
        EXPECT_EQ(r.first, kRanks) << "rank " << rank << " left MPI_Win_free early";
        EXPECT_LT(r.second, 2.0) << "rank " << rank;
    }
}

// ---------------------------------------------------------------------------
// Tool-side degradation (the acceptance scenario): a Performance
// Consultant session over a PPerfMark program loses a rank mid-run,
// completes without hanging, reports RanksLost with the epitaph,
// retires the dead process in the resource hierarchy, and still has
// findings for the survivors.
// ---------------------------------------------------------------------------

TEST(Faults, ConsultantRunSurvivesKilledRank) {
    simmpi::World::Config wcfg;
    wcfg.wait_deadline_seconds = 2.0;
    wcfg.join_deadline_seconds = 60.0;
    wcfg.faults = std::make_shared<FaultPlan>();
    // Client rank 1 dies a few thousand sends into the run, mid-search.
    wcfg.faults->kill_at_call(1, 5000);
    core::Session s(Flavor::Lam, {}, wcfg);
    ppm::Params p;
    p.iterations = 150000;
    ppm::register_all(s.world(), p);

    core::PerformanceConsultant::Options opts;
    opts.eval_interval = 0.06;
    opts.max_search_seconds = 6.0;
    const core::PCReport r = s.run_with_consultant(ppm::kSmallMessages, 6, opts);

    EXPECT_EQ(r.outcome.status, core::RunOutcome::Status::RanksLost);
    ASSERT_EQ(r.outcome.epitaphs.size(), 1u);
    EXPECT_EQ(r.outcome.epitaphs[0].global_rank, 1);
    EXPECT_EQ(r.outcome.epitaphs[0].cause, Epitaph::Cause::Killed);

    // The dead process is retired in the hierarchy (greyed out, and
    // excluded from further PC refinement).
    EXPECT_TRUE(s.tool().hierarchy().get("/Process/p1").retired);
    EXPECT_FALSE(s.tool().hierarchy().get("/Process/p2").retired);

    // Survivor findings still come out, flagged as a degraded search.
    EXPECT_GT(r.experiments_run, 0);
    const std::string rendered = core::PerformanceConsultant::render_condensed(r);
    EXPECT_NE(rendered.find("degraded search"), std::string::npos) << rendered;
}

TEST(Faults, SessionRunReportsRanksLost) {
    simmpi::World::Config wcfg;
    wcfg.wait_deadline_seconds = 2.0;
    wcfg.faults = std::make_shared<FaultPlan>();
    wcfg.faults->kill_at_call(2, 10);
    core::Session s(Flavor::Lam, {}, wcfg);
    ppm::Params p;
    p.iterations = 50;
    ppm::register_all(s.world(), p);
    const core::RunOutcome o = s.run(ppm::kRandomBarrier, 4);
    EXPECT_EQ(o.status, core::RunOutcome::Status::RanksLost);
    ASSERT_EQ(o.epitaphs.size(), 1u);
    EXPECT_EQ(o.epitaphs[0].global_rank, 2);
    EXPECT_FALSE(o.ok());
}

}  // namespace
}  // namespace m2p
