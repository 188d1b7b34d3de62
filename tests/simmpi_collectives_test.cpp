#include <gtest/gtest.h>

#include <limits>

#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace m2p::simmpi {
namespace {

class CollectivesTest : public ::testing::TestWithParam<Flavor> {
protected:
    void run(int n, std::function<void(Rank&)> fn) {
        instr::Registry reg;
        World::Config cfg;
        cfg.flavor = GetParam();
        World world(reg, cfg);
        world.register_program("prog",
                               [fn](Rank& r, const std::vector<std::string>&) { fn(r); });
        LaunchPlan plan;
        for (int i = 0; i < n; ++i) plan.placements.push_back("node0");
        launch(world, "prog", {}, plan);
        world.join_all();
    }
};

TEST_P(CollectivesTest, BarrierSynchronizesRepeatedly) {
    run(5, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        for (int i = 0; i < 50; ++i) ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, BarrierOrdersSideEffects) {
    // After rank 0 sets a flag and everyone barriers, every rank must
    // observe the flag.
    static std::atomic<int> flag{0};
    flag = 0;
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) flag.store(1);
        r.MPI_Barrier(w);
        EXPECT_EQ(flag.load(), 1);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, BcastDeliversFromEveryRoot) {
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        for (int root = 0; root < n; ++root) {
            int v = me == root ? 1000 + root : -1;
            ASSERT_EQ(r.MPI_Bcast(&v, 1, MPI_INT, root, w), MPI_SUCCESS);
            EXPECT_EQ(v, 1000 + root);
        }
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, ReduceSumAtRoot) {
    run(5, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        const int v = me + 1;
        int sum = 0;
        ASSERT_EQ(r.MPI_Reduce(&v, &sum, 1, MPI_INT, MPI_SUM, 0, w), MPI_SUCCESS);
        if (me == 0) EXPECT_EQ(sum, n * (n + 1) / 2);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, AllreduceSumMaxMin) {
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        double v = me + 1.0;
        double sum = 0, mx = 0, mn = 0;
        ASSERT_EQ(r.MPI_Allreduce(&v, &sum, 1, MPI_DOUBLE, MPI_SUM, w), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Allreduce(&v, &mx, 1, MPI_DOUBLE, MPI_MAX, w), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Allreduce(&v, &mn, 1, MPI_DOUBLE, MPI_MIN, w), MPI_SUCCESS);
        EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2.0);
        EXPECT_DOUBLE_EQ(mx, n);
        EXPECT_DOUBLE_EQ(mn, 1.0);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, AllreduceVectorPayload) {
    run(3, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        std::vector<std::int32_t> v(64, me);
        std::vector<std::int32_t> out(64, -1);
        ASSERT_EQ(r.MPI_Allreduce(v.data(), out.data(), 64, MPI_INT, MPI_SUM, w),
                  MPI_SUCCESS);
        for (std::int32_t x : out) EXPECT_EQ(x, n * (n - 1) / 2);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, IntegerSumsWrapPastTheTypeMaximum) {
    // MPI_SUM on MPI_INT / MPI_LONG wraps modulo 2^32 / 2^64 like the
    // hardware add, instead of overflowing a signed type.
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        const std::int32_t i32 = std::numeric_limits<std::int32_t>::max();
        const std::int64_t i64 = std::numeric_limits<std::int64_t>::max();
        std::int32_t s32 = 0;
        std::int64_t s64 = 0;
        ASSERT_EQ(r.MPI_Allreduce(&i32, &s32, 1, MPI_INT, MPI_SUM, w), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Allreduce(&i64, &s64, 1, MPI_LONG, MPI_SUM, w), MPI_SUCCESS);
        // 4 * (2^31 - 1) = 2^33 - 4 == -4 (mod 2^32); likewise for 2^64.
        EXPECT_EQ(s32, -4);
        EXPECT_EQ(s64, -4);
        std::int32_t root_sum = 0;
        ASSERT_EQ(r.MPI_Reduce(&i32, &root_sum, 1, MPI_INT, MPI_SUM, 0, w), MPI_SUCCESS);
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) {
            EXPECT_EQ(root_sum, -4);
        }
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, CollectivesInterleaveWithPt2pt) {
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        for (int i = 0; i < 20; ++i) {
            if (me == 0) {
                for (int d = 1; d < n; ++d) r.MPI_Send(&i, 1, MPI_INT, d, 3, w);
            } else {
                int v = -1;
                r.MPI_Recv(&v, 1, MPI_INT, 0, 3, w, nullptr);
                EXPECT_EQ(v, i);
            }
            r.MPI_Barrier(w);
            int sum = 0;
            r.MPI_Allreduce(&me, &sum, 1, MPI_INT, MPI_SUM, w);
            EXPECT_EQ(sum, n * (n - 1) / 2);
        }
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, ErrorsOnBadArguments) {
    run(1, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int v = 0, out = 0;
        EXPECT_EQ(r.MPI_Barrier(999), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Bcast(&v, 1, MPI_INT, 5, w), MPI_ERR_RANK);
        EXPECT_EQ(r.MPI_Bcast(&v, -1, MPI_INT, 0, w), MPI_ERR_COUNT);
        EXPECT_EQ(r.MPI_Reduce(&v, &out, 1, MPI_INT, MPI_SUM, 9, w), MPI_ERR_RANK);
        EXPECT_EQ(r.MPI_Allreduce(&v, &out, 1, MPI_DATATYPE_NULL, MPI_SUM, w),
                  MPI_ERR_TYPE);
        r.MPI_Finalize();
    });
}

INSTANTIATE_TEST_SUITE_P(Flavors, CollectivesTest,
                         ::testing::Values(Flavor::Lam, Flavor::Mpich),
                         [](const ::testing::TestParamInfo<Flavor>& i) {
                             return i.param == Flavor::Lam ? "Lam" : "Mpich";
                         });

TEST(CollectivesFlavor, MpichBarrierUsesPmpiSendrecv) {
    // The MPICH flavor implements MPI_Barrier on PMPI_Sendrecv -- the
    // structure the paper's PC exposes (Fig 9).  LAM's does not.
    for (const Flavor flavor : {Flavor::Lam, Flavor::Mpich}) {
        instr::Registry reg;
        World::Config cfg;
        cfg.flavor = flavor;
        World world(reg, cfg);
        std::atomic<int> sendrecvs{0};
        world.register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
            r.MPI_Init();
            r.MPI_Barrier(r.MPI_COMM_WORLD());
            r.MPI_Finalize();
        });
        reg.insert(reg.find("PMPI_Sendrecv"), instr::Where::Entry,
                   [&](const instr::CallContext&) { ++sendrecvs; });
        LaunchPlan plan;
        plan.placements = {"node0", "node0", "node0", "node0"};
        launch(world, "prog", {}, plan);
        world.join_all();
        if (flavor == Flavor::Mpich)
            EXPECT_GT(sendrecvs.load(), 0) << "MPICH barrier should use PMPI_Sendrecv";
        else
            EXPECT_EQ(sendrecvs.load(), 0) << "LAM barrier should not";
    }
}

}  // namespace
}  // namespace m2p::simmpi
