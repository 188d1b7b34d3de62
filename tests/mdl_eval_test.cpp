// MDL compilation/evaluation semantics, independent of the tool:
// counters, timers, constraints, $arg access, runtime-service calls,
// nesting, gates, and uninstall.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>

#include "instr/registry.hpp"
#include "mdl/ast.hpp"
#include "mdl/eval.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "util/clock.hpp"

namespace m2p::mdl {
namespace {

class FakeServices : public Services {
public:
    std::int64_t type_size(std::int64_t dt) const override { return dt * 4; }
    std::int64_t window_unique_id(std::int64_t h) const override { return h + 100; }
    std::int64_t comm_unique_id(std::int64_t h) const override { return h; }
};

struct EvalFixture {
    instr::Registry reg;
    instr::FuncId fa, fb;
    std::shared_ptr<FakeServices> services = std::make_shared<FakeServices>();
    MdlFile file;
    std::mutex sunk_mu;  // snippets fire on every thread that runs fa/fb
    std::vector<std::pair<double, double>> sunk;  // (now, delta)

    EvalFixture() {
        fa = reg.register_function("fa", "m", 0);
        fb = reg.register_function("fb", "m", 0);
    }

    FuncSetResolver resolver() {
        return [this](const std::string& set) -> std::vector<instr::FuncId> {
            if (set == "set_a") return {fa};
            if (set == "set_b") return {fb};
            if (set == "set_ab") return {fa, fb};
            return {};
        };
    }

    MetricSink sink() {
        return [this](double now, double delta) {
            std::lock_guard lk(sunk_mu);
            sunk.emplace_back(now, delta);
        };
    }

    double total() {
        std::lock_guard lk(sunk_mu);
        double t = 0;
        for (const auto& [n, d] : sunk) t += d;
        return t;
    }
};

TEST(MdlEval, CounterIncrementFeedsSink) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; base is counter {
  foreach func in set_a { append preinsn func.entry constrained (* m++; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    for (int i = 0; i < 5; ++i) instr::FunctionGuard g(fx.reg, fx.fa);
    EXPECT_DOUBLE_EQ(fx.total(), 5.0);
    uninstall(fx.reg, cm);
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    EXPECT_DOUBLE_EQ(fx.total(), 5.0);  // removed: no more counting
}

TEST(MdlEval, ByteArithmeticWithTypeSizeAndArgs) {
    EvalFixture fx;
    fx.file = parse(R"(
metric bytes_m { name "bytes_m"; counter bytes; counter count;
  base is counter { foreach func in set_a {
    append preinsn func.entry (* MPI_Type_size($arg[2], &bytes);
                                 count = $arg[1];
                                 bytes_m += bytes * count; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    const std::int64_t args[] = {0, 7, 2};  // count=7, dtype=2 -> size 8
    { instr::FunctionGuard g(fx.reg, fx.fa, args); }
    EXPECT_DOUBLE_EQ(fx.total(), 56.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, WallTimerMeasuresElapsed) {
    EvalFixture fx;
    fx.file = parse(R"(
metric t { name "t"; unitstype normalized; base is walltimer {
  foreach func in set_a {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard g(fx.reg, fx.fa);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    EXPECT_GT(fx.total(), 0.025);
    EXPECT_LT(fx.total(), 0.2);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, NestedTimerAccruesOnce) {
    // fa calls fb; both are in the timed set: the timer must not
    // double count (Paradyn timers nest).
    EvalFixture fx;
    fx.file = parse(R"(
metric t { name "t"; base is walltimer {
  foreach func in set_ab {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard outer(fx.reg, fx.fa);
        {
            instr::FunctionGuard inner(fx.reg, fx.fb);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GT(fx.total(), 0.035);
    EXPECT_LT(fx.total(), 0.08);  // ~40ms once, not 60ms
    ASSERT_EQ(fx.sunk.size(), 1u);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, ProcTimerMeasuresCpuNotSleep) {
    EvalFixture fx;
    fx.file = parse(R"(
metric t { name "t"; base is proctimer {
  foreach func in set_a {
    append preinsn func.entry (* startProcTimer(t); *)
    prepend preinsn func.return (* stopProcTimer(t); *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard g(fx.reg, fx.fa);
        std::this_thread::sleep_for(std::chrono::milliseconds(40));  // no CPU
        util::burn_thread_cpu(0.02);
    }
    EXPECT_GT(fx.total(), 0.015);
    EXPECT_LT(fx.total(), 0.04);  // sleep excluded
    uninstall(fx.reg, cm);
}

TEST(MdlEval, ConstraintGatesConstrainedCode) {
    EvalFixture fx;
    fx.file = parse(R"(
constraint win_c /SyncObject/Window is counter {
  foreach func in set_a {
    prepend preinsn func.entry
      (* if (DYNINSTWindow_FindUniqueId($arg[0]) == $constraint[0]) win_c = 1; *)
    append preinsn func.return (* win_c = 0; *)
  }
}
metric ops { name "ops"; constraint win_c; base is counter {
  foreach func in set_a { append preinsn func.entry constrained (* ops++; *) } } }
)");
    // Focus on window uid 103 => handle 3 matches (FakeServices: h+100).
    ConstraintBinding b{fx.file.find_constraint("win_c"), {103}, {}};
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {b}, fx.services,
                                       fx.resolver(), fx.sink());
    const std::int64_t match[] = {3};
    const std::int64_t other[] = {4};
    { instr::FunctionGuard g(fx.reg, fx.fa, match); }
    { instr::FunctionGuard g(fx.reg, fx.fa, other); }
    { instr::FunctionGuard g(fx.reg, fx.fa, match); }
    EXPECT_DOUBLE_EQ(fx.total(), 2.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, ConstraintFlagsNestAcrossCalls) {
    // Module-style constraint on fa; metric counts inside fb.  A
    // nested fa (fa -> fa -> fb) must keep the flag set until the
    // outermost return.
    EvalFixture fx;
    fx.file = parse(R"(
constraint mod_c /Code is counter {
  foreach func in focus_module {
    prepend preinsn func.entry (* mod_c = 1; *)
    append preinsn func.return (* mod_c = 0; *)
  }
}
metric ops { name "ops"; constraint mod_c; base is counter {
  foreach func in set_b { append preinsn func.entry constrained (* ops++; *) } } }
)");
    ConstraintBinding b{fx.file.find_constraint("mod_c"), {}, {{"focus_module", {fx.fa}}}};
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {b}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard g1(fx.reg, fx.fa);
        {
            instr::FunctionGuard g2(fx.reg, fx.fa);  // nested
        }
        instr::FunctionGuard g3(fx.reg, fx.fb);  // still inside fa: counted
    }
    { instr::FunctionGuard g(fx.reg, fx.fb); }  // outside fa: not counted
    EXPECT_DOUBLE_EQ(fx.total(), 1.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, MultipleConstraintsAllMustHold) {
    EvalFixture fx;
    fx.file = parse(R"(
constraint c1 /Code is counter {
  foreach func in focus_procedure {
    prepend preinsn func.entry (* c1 = 1; *)
    append preinsn func.return (* c1 = 0; *) } }
metric ops { name "ops"; constraint c1; base is counter {
  foreach func in set_b { append preinsn func.entry constrained (* ops++; *) } } }
)");
    // Bind the same constraint twice to different functions: fb only
    // counts when inside BOTH fa and fb (i.e., never for a bare fb).
    ConstraintBinding b1{fx.file.find_constraint("c1"), {}, {{"focus_procedure", {fx.fa}}}};
    ConstraintBinding b2{fx.file.find_constraint("c1"), {}, {{"focus_procedure", {fx.fb}}}};
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {b1, b2},
                                       fx.services, fx.resolver(), fx.sink());
    { instr::FunctionGuard g(fx.reg, fx.fb); }  // not inside fa
    EXPECT_DOUBLE_EQ(fx.total(), 0.0);
    {
        instr::FunctionGuard g1(fx.reg, fx.fa);
        instr::FunctionGuard g2(fx.reg, fx.fb);
    }
    EXPECT_DOUBLE_EQ(fx.total(), 1.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, EventGateFiltersByRank) {
    EvalFixture fx;
    fx.file = parse(R"(
metric ops { name "ops"; base is counter {
  foreach func in set_a { append preinsn func.entry (* ops++; *) } } }
)");
    EventGate gate = [](const instr::CallContext& c) { return c.rank == 2; };
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink(), gate);
    instr::set_current_rank(1);
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    instr::set_current_rank(2);
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    instr::set_current_rank(-1);
    EXPECT_DOUBLE_EQ(fx.total(), 1.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, UnknownCallRejectedAtCompileTime) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; base is counter {
  foreach func in set_a { append preinsn func.entry (* frobnicate($arg[0]); *) } } }
)");
    EXPECT_THROW(compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                fx.resolver(), fx.sink()),
                 CompileError);
    // Nothing was inserted.
    EXPECT_EQ(fx.reg.snippet_count(fx.fa, instr::Where::Entry), 0u);
}

TEST(MdlEval, ScratchVarsArePerThread) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; counter bytes; base is counter {
  foreach func in set_a {
    append preinsn func.entry (* bytes = $arg[0]; m += bytes; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    std::thread t1([&] {
        for (int i = 0; i < 1000; ++i) {
            const std::int64_t a[] = {1};
            instr::FunctionGuard g(fx.reg, fx.fa, a);
        }
    });
    std::thread t2([&] {
        for (int i = 0; i < 1000; ++i) {
            const std::int64_t a[] = {2};
            instr::FunctionGuard g(fx.reg, fx.fa, a);
        }
    });
    t1.join();
    t2.join();
    EXPECT_DOUBLE_EQ(fx.total(), 1000.0 + 2000.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, OutOfRangeArgIsZeroNotCrash) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; base is counter {
  foreach func in set_a { append preinsn func.entry (* m += $arg[9]; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    EXPECT_DOUBLE_EQ(fx.total(), 0.0);
    uninstall(fx.reg, cm);
}

/// Sink tallies keyed by the firing context's rank, for tests that
/// fire one compiled metric from several ranks.
struct RankTally {
    struct Entry {
        long samples = 0;
        double sum = 0.0;
    };
    std::mutex mu;
    std::map<int, Entry> by_rank;

    MetricSink sink() {
        return [this](double, double delta) {
            std::lock_guard lk(mu);
            Entry& e = by_rank[instr::current_rank()];
            ++e.samples;
            e.sum += delta;
        };
    }
    Entry at(int rank) {
        std::lock_guard lk(mu);
        return by_rank[rank];
    }
};

TEST(MdlEval, RankThreadsShareMetricsWithExactPerRankState) {
    // Four rank threads fire the same three compiled metrics -- a wall
    // timer and a proc timer nested fa -> fb, and a byte counter on fb
    // -- each under a procedureConstraint on fa.  Counts are exact per
    // rank; the timers accrue once per outer fa, and only inside fa.
    EvalFixture fx;
    fx.file = parse(R"(
constraint procedureConstraint /Code is counter {
  foreach func in focus_procedure {
    prepend preinsn func.entry (* procedureConstraint = 1; *)
    append preinsn func.return (* procedureConstraint = 0; *) } }
metric wall { name "wall"; constraint procedureConstraint; base is walltimer {
  foreach func in set_ab {
    append preinsn func.entry constrained (* startWallTimer(wall); *)
    prepend preinsn func.return constrained (* stopWallTimer(wall); *) } } }
metric cpu { name "cpu"; constraint procedureConstraint; base is proctimer {
  foreach func in set_ab {
    append preinsn func.entry constrained (* startProcTimer(cpu); *)
    prepend preinsn func.return constrained (* stopProcTimer(cpu); *) } } }
metric bytes_m { name "bytes_m"; counter bytes; constraint procedureConstraint;
  base is counter { foreach func in set_b {
    append preinsn func.entry constrained
      (* MPI_Type_size($arg[1], &bytes); bytes_m += bytes * $arg[0]; *) } } }
)");
    const ConstraintBinding in_fa{fx.file.find_constraint("procedureConstraint"),
                                  {},
                                  {{"focus_procedure", {fx.fa}}}};
    RankTally wall, cpu, bytes;
    std::vector<CompiledMetric> cms;
    cms.push_back(compile_metric(fx.reg, *fx.file.find_metric("wall"), {in_fa},
                                 fx.services, fx.resolver(), wall.sink()));
    cms.push_back(compile_metric(fx.reg, *fx.file.find_metric("cpu"), {in_fa},
                                 fx.services, fx.resolver(), cpu.sink()));
    cms.push_back(compile_metric(fx.reg, *fx.file.find_metric("bytes_m"), {in_fa},
                                 fx.services, fx.resolver(), bytes.sink()));

    constexpr int kRanks = 4;
    constexpr int kIters = 2000;
    std::vector<std::thread> ranks;
    for (int r = 0; r < kRanks; ++r) {
        ranks.emplace_back([&fx, r] {
            instr::set_current_rank(r);
            // count = r + 1 elements of datatype 2 (FakeServices: 8 bytes).
            const std::int64_t args[] = {r + 1, 2};
            for (int i = 0; i < kIters; ++i) {
                {
                    instr::FunctionGuard outer(fx.reg, fx.fa);
                    instr::FunctionGuard inner(fx.reg, fx.fb, args);
                }
                instr::FunctionGuard bare(fx.reg, fx.fb, args);  // outside fa
            }
            instr::set_current_rank(-1);
        });
    }
    for (auto& t : ranks) t.join();

    for (int r = 0; r < kRanks; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        EXPECT_EQ(wall.at(r).samples, kIters);
        EXPECT_EQ(cpu.at(r).samples, kIters);
        EXPECT_EQ(bytes.at(r).samples, kIters);
        EXPECT_DOUBLE_EQ(bytes.at(r).sum, double(kIters) * 8.0 * (r + 1));
        EXPECT_GT(wall.at(r).sum, 0.0);
        // cpu's interval nests inside wall's (its entry snippet runs
        // later, its return snippet earlier): CPU cannot exceed wall.
        EXPECT_LE(cpu.at(r).sum, wall.at(r).sum + 1e-3);
    }
    EXPECT_EQ(cms[0].contexts().chunks_allocated(), 1u);  // ranks 0..3 share chunk 0
    EXPECT_EQ(wall.at(-1).samples, 0);  // no non-rank context fired
    for (auto& cm : cms) uninstall(fx.reg, cm);
}

TEST(MdlEval, ContextTableGrowsLazilyPastTheFirstChunk) {
    // A scratch counter makes aliasing visible: each firing adds the
    // context's own running count, so rank 1500's and rank 0's sums
    // are 1+2+3+4 and 1+2 only if their records are distinct.
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; counter n; base is counter {
  foreach func in set_a { append preinsn func.entry (* n++; m += n; *) } } }
)");
    RankTally tally;
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), tally.sink());
    EXPECT_EQ(cm.contexts().chunks_allocated(), 0u);
    EXPECT_EQ(cm.contexts().stride() % 64, 0u);

    constexpr int kFar = 1500;
    static_assert(kFar >= static_cast<int>(ContextTable::kBaseChunk));
    instr::set_current_rank(kFar);
    for (int i = 0; i < 3; ++i) instr::FunctionGuard g(fx.reg, fx.fa);
    EXPECT_EQ(cm.contexts().chunks_allocated(), 1u);  // only rank 1500's chunk
    instr::set_current_rank(0);
    for (int i = 0; i < 2; ++i) instr::FunctionGuard g(fx.reg, fx.fa);
    EXPECT_EQ(cm.contexts().chunks_allocated(), 2u);
    instr::set_current_rank(kFar);
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    instr::set_current_rank(-1);

    EXPECT_DOUBLE_EQ(tally.at(kFar).sum, 1.0 + 2.0 + 3.0 + 4.0);
    EXPECT_DOUBLE_EQ(tally.at(0).sum, 1.0 + 2.0);
    EXPECT_EQ(cm.contexts().chunks_allocated(), 2u);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, FiberRanksKeepPerRankStateAcrossMigration) {
    // 32 fiber ranks on two scheduler workers.  Each rank's timed
    // region spans an MPI_Barrier, so ranks park and can resume on the
    // other worker between a timer's start and stop, and between the
    // scratch write at entry and its read at return.
    instr::Registry reg;
    simmpi::World::Config cfg;
    cfg.rank_engine = simmpi::RankEngine::Fiber;
    cfg.sched_workers = 2;
    simmpi::World world(reg, cfg);
    const instr::FuncId work = reg.register_function(
        "work", "app", static_cast<std::uint32_t>(instr::Category::AppCode));
    const MdlFile file = parse(R"(
metric wall { name "wall"; base is walltimer {
  foreach func in work_set {
    append preinsn func.entry (* startWallTimer(wall); *)
    prepend preinsn func.return (* stopWallTimer(wall); *) } } }
metric bytes_m { name "bytes_m"; counter bytes; base is counter {
  foreach func in work_set {
    append preinsn func.entry (* MPI_Type_size($arg[1], &bytes); *)
    append preinsn func.return (* bytes_m += bytes * $arg[0]; *) } } }
)");
    auto services = std::make_shared<FakeServices>();
    const FuncSetResolver resolver = [work](const std::string& set) {
        return set == "work_set" ? std::vector<instr::FuncId>{work}
                                 : std::vector<instr::FuncId>{};
    };
    RankTally wall, bytes;
    CompiledMetric cm_wall = compile_metric(reg, *file.find_metric("wall"), {}, services,
                                            resolver, wall.sink());
    CompiledMetric cm_bytes = compile_metric(reg, *file.find_metric("bytes_m"), {},
                                             services, resolver, bytes.sink());

    constexpr int kRanks = 32;
    constexpr int kIters = 20;
    world.register_program("prog", [&](simmpi::Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const int me = instr::current_rank();
        // One element of datatype me + 1 (FakeServices: 4 * (me + 1) bytes).
        const std::int64_t args[] = {1, me + 1};
        for (int i = 0; i < kIters; ++i) {
            instr::FunctionGuard g(reg, work, args);
            r.MPI_Barrier(r.MPI_COMM_WORLD());
        }
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    for (int i = 0; i < kRanks; ++i) plan.placements.push_back("node" + std::to_string(i / 8));
    const std::vector<int> ranks = simmpi::launch(world, "prog", {}, plan);
    world.join_all();

    ASSERT_EQ(ranks.size(), std::size_t{kRanks});
    for (int g : ranks) {
        SCOPED_TRACE("rank " + std::to_string(g));
        EXPECT_EQ(wall.at(g).samples, kIters);
        EXPECT_GT(wall.at(g).sum, 0.0);
        EXPECT_EQ(bytes.at(g).samples, kIters);
        EXPECT_DOUBLE_EQ(bytes.at(g).sum, double(kIters) * 4.0 * (g + 1));
    }
    uninstall(reg, cm_wall);
    uninstall(reg, cm_bytes);
}

}  // namespace
}  // namespace m2p::mdl
