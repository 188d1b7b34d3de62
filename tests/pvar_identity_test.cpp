// Pvar counter-identity matrix: every migrated plane's pvars must equal
// what the plane and the workload provably did.  A five-plane workload
// (pt2pt + collectives + RMA + MPI-IO, driving the dispatch, transport,
// trace-ring, rma-table1 and faults planes) runs at {2, 64, 256} ranks
// under both flavors.  At quiescence, dispatch, ring and fault pvars
// equal their planes' own stats bit for bit; RMA pvars equal the
// hand-derived Table-1 counts; and transport pvars, whose collective
// and MPI-IO share depends on the algorithms, are compared with a
// control run without the pt2pt ring, which isolates the ring's exact
// envelope and byte counts.  Mid-run it also checks the
// snapshot-internal ordering invariant (delivered <= queued).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "pvar/registry.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"
#include "trace/flight_recorder.hpp"

namespace m2p::simmpi {
namespace {

class PvarIdentityTest : public ::testing::TestWithParam<std::tuple<Flavor, int>> {};

/// Resolves a snapshot into name -> value using the registry's
/// descriptors (ids are stable, names are the cross-plane contract).
std::map<std::string, std::uint64_t> by_name(pvar::Registry& reg,
                                             const pvar::Snapshot& snap) {
    std::map<std::string, std::uint64_t> out;
    for (const pvar::Sample& s : snap.samples) {
        const pvar::Desc* d = reg.describe(s.id);
        if (d) out[d->name] = s.value;
    }
    return out;
}

/// Bytes of each rank's over-the-eager-limit ring message.
constexpr int kBigBytes = 8192;

/// Launches the five-plane workload on @p n ranks of @p world and
/// returns while it runs.  @p ring false skips the pt2pt ring (the transport
/// control run); rank 0 publishes its window handle via @p win_out.
void run_fiveplane(World& world, int n, bool ring, std::atomic<Win>* win_out) {
    world.register_program("fiveplane", [n, ring, win_out](
                                             Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        const int next = (me + 1) % n;
        const int prev = (me - 1 + n) % n;

        // Transport plane: a pt2pt ring (eager) plus one over-the-
        // eager-limit message per rank so the rendezvous counter moves.
        int tok = me;
        Status st;
        std::vector<char> big(kBigBytes, static_cast<char>(me));
        if (ring && me % 2 == 0) {
            ASSERT_EQ(r.MPI_Send(&tok, 1, MPI_INT, next, 1, w), MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Recv(&tok, 1, MPI_INT, prev, 1, w, &st), MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Send(big.data(), kBigBytes, MPI_BYTE, next, 2, w), MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Recv(big.data(), kBigBytes, MPI_BYTE, prev, 2, w, &st),
                      MPI_SUCCESS);
        } else if (ring) {
            ASSERT_EQ(r.MPI_Recv(&tok, 1, MPI_INT, prev, 1, w, &st), MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Send(&tok, 1, MPI_INT, next, 1, w), MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Recv(big.data(), kBigBytes, MPI_BYTE, prev, 2, w, &st),
                      MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Send(big.data(), kBigBytes, MPI_BYTE, next, 2, w), MPI_SUCCESS);
            EXPECT_EQ(big[0], static_cast<char>(prev));
        }

        // Collectives plane.
        int sum = 0;
        ASSERT_EQ(r.MPI_Allreduce(&tok, &sum, 1, MPI_INT, MPI_SUM, w), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);

        // RMA plane: one put/get/accumulate per rank between fences.
        std::vector<std::int32_t> mem(4, 0);
        Win win = MPI_WIN_NULL;
        ASSERT_EQ(r.MPI_Win_create(mem.data(), 16, 4, MPI_INFO_NULL, w, &win),
                  MPI_SUCCESS);
        if (me == 0 && win_out) *win_out = win;
        ASSERT_EQ(r.MPI_Win_fence(0, win), MPI_SUCCESS);
        const std::int32_t put = me + 1;
        std::int32_t got = 0;
        ASSERT_EQ(r.MPI_Put(&put, 1, MPI_INT, next, 0, 1, MPI_INT, win), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Get(&got, 1, MPI_INT, next, 1, 1, MPI_INT, win), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Accumulate(&put, 1, MPI_INT, next, 2, 1, MPI_INT, MPI_SUM, win),
                  MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Win_fence(0, win), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS);

        // IO plane (drives dispatch + trace events through the fs).
        File fh = MPI_FILE_NULL;
        ASSERT_EQ(r.MPI_File_open(w, "identity.dat", MPI_MODE_CREATE | MPI_MODE_RDWR,
                                  MPI_INFO_NULL, &fh),
                  MPI_SUCCESS);
        std::int32_t cell = me;
        ASSERT_EQ(r.MPI_File_write_at(fh, me * 4, &cell, 1, MPI_INT, &st), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);
        std::int32_t back = -1;
        ASSERT_EQ(r.MPI_File_read_at(fh, next * 4, &back, 1, MPI_INT, &st), MPI_SUCCESS);
        EXPECT_EQ(back, next);
        ASSERT_EQ(r.MPI_File_close(&fh), MPI_SUCCESS);

        r.MPI_Finalize();
    });

    LaunchPlan plan;
    for (int i = 0; i < n; ++i) plan.placements.push_back("node" + std::to_string(i % 2));
    launch(world, "fiveplane", {}, plan);
}

TEST_P(PvarIdentityTest, SnapshotMatchesLegacyAccessorsBitForBit) {
    const auto [flavor, n] = GetParam();

    World::Config cfg;
    cfg.flavor = flavor;
    cfg.file_latency_seconds = 1e-6;  // keep the IO leg quick at 256 ranks
    cfg.file_bandwidth_bytes_per_second = 10e9;
    instr::Registry reg;
    World world(reg, cfg);
    std::atomic<Win> win_out{MPI_WIN_NULL};
    run_fiveplane(world, n, /*ring=*/true, &win_out);

    // Mid-run: the registration-order invariant must hold inside every
    // snapshot even while ranks churn the mailboxes.
    for (int pass = 0; pass < 3; ++pass) {
        const auto vals = by_name(world.pvars(), world.pvars().snapshot());
        const std::uint64_t queued = vals.at("simmpi.mailbox.eager_msgs") +
                                     vals.at("simmpi.mailbox.rendezvous_msgs");
        EXPECT_LE(vals.at("simmpi.mailbox.delivered_msgs"), queued);
    }

    world.join_all();
    ASSERT_TRUE(world.epitaphs().empty());
    const Win win = win_out.load();
    ASSERT_NE(win, MPI_WIN_NULL);

    // Quiescent: one snapshot, then every plane.
    const auto vals = by_name(world.pvars(), world.pvars().snapshot());

    // Dispatch plane.
    const instr::DispatchStats ds = reg.stats();
    EXPECT_EQ(vals.at("instr.dispatch.events"), ds.events);
    EXPECT_EQ(vals.at("instr.dispatch.snippets"), ds.snippets_executed);
    EXPECT_GT(ds.events, 0u);

    // Transport plane, against the control run without the ring: the
    // ring adds exactly one eager and one rendezvous envelope per rank,
    // and nothing else in the workload exceeds the eager limit.
    instr::Registry ctrl_reg;
    World ctrl(ctrl_reg, cfg);
    run_fiveplane(ctrl, n, /*ring=*/false, nullptr);
    ctrl.join_all();
    ASSERT_TRUE(ctrl.epitaphs().empty());
    const auto base = by_name(ctrl.pvars(), ctrl.pvars().snapshot());
    const std::uint64_t N = static_cast<std::uint64_t>(n);
    const auto grew = [&](const char* name) { return vals.at(name) - base.at(name); };
    EXPECT_EQ(grew("simmpi.mailbox.eager_msgs"), N);
    EXPECT_EQ(vals.at("simmpi.mailbox.rendezvous_msgs"), N);
    EXPECT_EQ(base.at("simmpi.mailbox.rendezvous_msgs"), 0u);
    EXPECT_EQ(grew("simmpi.mailbox.delivered_msgs"), 2 * N);
    EXPECT_EQ(grew("simmpi.mailbox.delivered_bytes"), N * (sizeof(int) + kBigBytes));
    for (const auto* v : {&vals, &base}) {
        // Everything queued was drained, and no sender ever ran out of
        // eager headroom (every eager payload is a few bytes).
        EXPECT_EQ(v->at("simmpi.mailbox.delivered_msgs"),
                  v->at("simmpi.mailbox.eager_msgs") +
                      v->at("simmpi.mailbox.rendezvous_msgs"));
        EXPECT_EQ(v->at("simmpi.mailbox.bytes_queued"), 0u);
        EXPECT_EQ(v->at("simmpi.mailbox.flow_stalls"), 0u);
        EXPECT_GT(v->at("simmpi.mailbox.bytes_queued_hwm"), 0u);
    }

    // Trace-ring plane.
    ASSERT_NE(world.recorder(), nullptr);
    const trace::FlightRecorder::Stats ts = world.recorder()->stats();
    EXPECT_EQ(vals.at("trace.ring.written"), ts.written);
    EXPECT_EQ(vals.at("trace.ring.kept"), ts.kept);
    EXPECT_EQ(vals.at("trace.ring.dropped"), ts.dropped);
    EXPECT_EQ(ts.written, ts.kept + ts.dropped);
    EXPECT_EQ(vals.at("trace.ring.capacity"), world.recorder()->ring_capacity());

    // Faults plane (clean run: zero on both sides).
    EXPECT_EQ(vals.at("faults.epitaphs"), world.epitaph_count());
    EXPECT_EQ(world.epitaph_count(), world.epitaphs().size());

    // RMA table-1 plane for the published window: one put/get/acc of
    // 4 bytes per rank; Win_create + 2 fences + Win_free per rank; no
    // passive-target epoch.
    const std::string win_base = "rma.table1.win" + std::to_string(win) + ".";
    const auto rma = [&](const char* leaf) { return vals.at(win_base + leaf); };
    EXPECT_EQ(rma("put_ops"), N);
    EXPECT_EQ(rma("get_ops"), N);
    EXPECT_EQ(rma("acc_ops"), N);
    EXPECT_EQ(rma("put_bytes"), 4 * N);
    EXPECT_EQ(rma("get_bytes"), 4 * N);
    EXPECT_EQ(rma("acc_bytes"), 4 * N);
    EXPECT_EQ(rma("sync_ops"), 4 * N);
    EXPECT_EQ(rma("pt_sync_wait_ns"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PvarIdentityTest,
    ::testing::Combine(::testing::Values(Flavor::Lam, Flavor::Mpich),
                       ::testing::Values(2, 64, 256)),
    [](const ::testing::TestParamInfo<PvarIdentityTest::ParamType>& info) {
        return std::string(std::get<0>(info.param) == Flavor::Lam ? "Lam" : "Mpich") +
               std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace m2p::simmpi
