// Ablation: the cost model behind dynamic instrumentation (the paper's
// core premise -- "its use of dynamic instrumentation can dramatically
// decrease the amount of data that must be collected ... instructions
// only need to be inserted in code sections where a performance
// problem is suspected").
//
// google-benchmark microbenchmarks of the instrumentation substrate:
//   - dispatch with 0 snippets (the always-paid trampoline cost),
//   - dispatch with 1 / 4 MDL-compiled snippets,
//   - dispatch after snippets were deleted (cost returns to baseline),
//   - snippet insert/remove cost,
//   - per call pair cost of a wall timer, a procedure-constrained timer
//     and a byte counter on 1 and 4 rank threads sharing one metric,
//   - a full MPI_Send round through simmpi with and without a metric.
#include <benchmark/benchmark.h>

#include "core/histogram.hpp"
#include "instr/registry.hpp"
#include "mdl/ast.hpp"
#include "mdl/eval.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "util/clock.hpp"

namespace {

using namespace m2p;

struct NullServices final : mdl::Services {
    std::int64_t type_size(std::int64_t dt) const override { return dt; }
    std::int64_t window_unique_id(std::int64_t h) const override { return h; }
    std::int64_t comm_unique_id(std::int64_t h) const override { return h; }
};

void BM_DispatchNoSnippets(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
}
BENCHMARK(BM_DispatchNoSnippets);

void BM_DispatchCounterSnippets(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    const mdl::MdlFile file = mdl::parse(R"(
metric m { name "m"; base is counter {
  foreach func in s { append preinsn func.entry (* m++; *) } } }
)");
    auto services = std::make_shared<NullServices>();
    double sunk = 0;
    std::vector<mdl::CompiledMetric> cms;
    for (int i = 0; i < state.range(0); ++i) {
        cms.push_back(mdl::compile_metric(
            reg, file.metrics[0], {}, services,
            [&](const std::string&) { return std::vector<instr::FuncId>{f}; },
            [&](double, double d) { sunk += d; }));
    }
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
    benchmark::DoNotOptimize(sunk);
    for (auto& cm : cms) mdl::uninstall(reg, cm);
}
BENCHMARK(BM_DispatchCounterSnippets)->Arg(1)->Arg(4);

void BM_DispatchAfterDelete(benchmark::State& state) {
    // Deleted instrumentation must cost the same as none -- this is
    // the whole point of insert/delete at run time.
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    int hits = 0;
    const instr::SnippetHandle h =
        reg.insert(f, instr::Where::Entry, [&](const instr::CallContext&) { ++hits; });
    reg.remove(h);
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_DispatchAfterDelete);

void BM_InsertRemoveSnippet(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    for (auto _ : state) {
        const instr::SnippetHandle h =
            reg.insert(f, instr::Where::Entry, [](const instr::CallContext&) {});
        reg.remove(h);
    }
}
BENCHMARK(BM_InsertRemoveSnippet);

void BM_TimerSnippetPair(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    const mdl::MdlFile file = mdl::parse(R"(
metric t { name "t"; base is walltimer {
  foreach func in s {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
)");
    auto services = std::make_shared<NullServices>();
    double sunk = 0;
    auto cm = mdl::compile_metric(
        reg, file.metrics[0], {}, services,
        [&](const std::string&) { return std::vector<instr::FuncId>{f}; },
        [&](double, double d) { sunk += d; });
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
    benchmark::DoNotOptimize(sunk);
    mdl::uninstall(reg, cm);
}
BENCHMARK(BM_TimerSnippetPair);

/// The snippet under test in BM_RankCallPair (its range(0)).
enum PairSnippet : int { kBare, kWallTimer, kConstrainedTimer, kByteCounter };

/// One registry and one compiled metric shared by every benchmark
/// thread, each thread acting as its own rank: an application procedure
/// calling an instrumented PMPI_Recv (small-messages' Grecv_message ->
/// PMPI_Recv shape), samples folding into a striped Histogram sized as
/// the tool sizes it.
struct RankPairFixture {
    instr::Registry reg;
    const instr::FuncId outer = reg.register_function("Grecv_message", "app", 0);
    const instr::FuncId recv = reg.register_function("PMPI_Recv", "libmpi", 0);
    core::Histogram hist{util::wall_seconds(), 0.005, 128, 8};
    mdl::CompiledMetric cm;

    explicit RankPairFixture(int snippet) {
        static const mdl::MdlFile file = mdl::parse(R"(
constraint procedureConstraint /Code is counter {
  foreach func in focus_procedure {
    prepend preinsn func.entry (* procedureConstraint = 1; *)
    append preinsn func.return (* procedureConstraint = 0; *) } }
metric wall { name "wall"; base is walltimer {
  foreach func in recv {
    append preinsn func.entry (* startWallTimer(wall); *)
    prepend preinsn func.return (* stopWallTimer(wall); *) } } }
metric pwall { name "pwall"; constraint procedureConstraint; base is walltimer {
  foreach func in recv {
    append preinsn func.entry constrained (* startWallTimer(pwall); *)
    prepend preinsn func.return constrained (* stopWallTimer(pwall); *) } } }
metric bytes_m { name "bytes_m"; counter bytes; base is counter {
  foreach func in recv { append preinsn func.return
    (* MPI_Type_size($arg[2], &bytes); bytes_m += bytes * $arg[1]; *) } } }
)");
        if (snippet == kBare) return;
        static const char* const names[] = {"", "wall", "pwall", "bytes_m"};
        std::vector<mdl::ConstraintBinding> bindings;
        if (snippet == kConstrainedTimer)
            bindings.push_back({file.find_constraint("procedureConstraint"),
                                {},
                                {{"focus_procedure", {outer}}}});
        cm = mdl::compile_metric(
            reg, *file.find_metric(names[snippet]), bindings,
            std::make_shared<NullServices>(),
            [this](const std::string&) { return std::vector<instr::FuncId>{recv}; },
            [this](double now, double d) { hist.add(now, d); });
    }
    ~RankPairFixture() { mdl::uninstall(reg, cm); }
};

/// Contended snippet cost per call pair: run with ->Threads(4), every
/// thread fires the same metric as a distinct rank.  `pair_ns` is each
/// thread's own wall time per call pair (lock waits included), averaged
/// over the threads.
void BM_RankCallPair(benchmark::State& state) {
    static std::unique_ptr<RankPairFixture> fx;
    if (state.thread_index() == 0)
        fx = std::make_unique<RankPairFixture>(static_cast<int>(state.range(0)));
    static const char* const labels[] = {"bare", "wall timer", "procedure-constrained timer",
                                         "byte counter"};
    state.SetLabel(labels[state.range(0)]);
    instr::set_current_rank(state.thread_index());
    const std::int64_t args[] = {0, 1, 8};  // one element of an 8-byte type
    const double t0 = util::wall_seconds();
    for (auto _ : state) {
        instr::FunctionGuard app(fx->reg, fx->outer);
        instr::FunctionGuard recv(fx->reg, fx->recv, args);
        benchmark::DoNotOptimize(&recv);
    }
    state.counters["pair_ns"] = benchmark::Counter(
        (util::wall_seconds() - t0) * 1e9 / static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
    instr::set_current_rank(-1);
    if (state.thread_index() == 0) {
        benchmark::DoNotOptimize(fx->hist.total());
        fx.reset();
    }
}
BENCHMARK(BM_RankCallPair)
    ->DenseRange(kBare, kByteCounter)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

/// Full message round trip through simmpi (rank 0 -> rank 1 -> rank 0),
/// with optional metric instrumentation on the PMPI send path.
void BM_PingPong(benchmark::State& state) {
    const bool instrumented = state.range(0) != 0;
    instr::Registry reg;
    simmpi::World world(reg, {});
    std::atomic<bool> stop{false};
    world.register_program("echo", [&](simmpi::Rank& r,
                                       const std::vector<std::string>&) {
        r.MPI_Init();
        char b = 0;
        while (true) {
            simmpi::Status st;
            r.MPI_Recv(&b, 1, simmpi::MPI_BYTE, 0, simmpi::MPI_ANY_TAG,
                       r.MPI_COMM_WORLD(), &st);
            if (st.MPI_TAG == 1) break;
            r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 0, 0, r.MPI_COMM_WORLD());
        }
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    plan.placements = {"node0", "node0"};
    // Rank 0 is driven by the benchmark thread itself via a handle.
    world.register_program("driver", [&](simmpi::Rank& r,
                                         const std::vector<std::string>&) {
        r.MPI_Init();
        char b = 0;
        while (!stop.load()) {
            r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD());
            r.MPI_Recv(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD(), nullptr);
        }
        r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 1, r.MPI_COMM_WORLD());  // stop echo
        r.MPI_Finalize();
    });

    mdl::CompiledMetric cm;
    double sunk = 0;
    if (instrumented) {
        static const mdl::MdlFile file = mdl::parse(R"(
metric b { name "b"; counter bytes; base is counter {
  foreach func in s { append preinsn func.entry
    (* MPI_Type_size($arg[2], &bytes); b += bytes * $arg[1]; *) } } }
)");
        auto services = std::make_shared<NullServices>();
        cm = mdl::compile_metric(
            reg, file.metrics[0], {}, services,
            [&](const std::string&) {
                return std::vector<instr::FuncId>{reg.find("PMPI_Send"),
                                                  reg.find("PMPI_Recv")};
            },
            [&](double, double d) { sunk += d; });
    }

    // Drive the ping-pong from this thread by measuring a fixed batch
    // per iteration inside the driver; simplest: run both ranks and
    // time the whole exchange loop.
    std::atomic<long> rounds{0};
    world.register_program("bench-driver", [&](simmpi::Rank& r,
                                               const std::vector<std::string>&) {
        r.MPI_Init();
        char b = 0;
        while (!stop.load()) {
            r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD());
            r.MPI_Recv(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD(), nullptr);
            rounds.fetch_add(1, std::memory_order_relaxed);
        }
        r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 1, r.MPI_COMM_WORLD());
        r.MPI_Finalize();
    });
    const int d = world.create_proc("node0", "bench-driver");
    const int e = world.create_proc("node0", "echo");
    const simmpi::Comm cw = world.create_comm({d, e});
    world.set_proc_comm_world(d, cw);
    world.set_proc_comm_world(e, cw);
    world.start_proc(d, {});
    world.start_proc(e, {});

    long last = 0;
    for (auto _ : state) {
        // One benchmark iteration = observe 1000 new round trips.
        const long target = last + 1000;
        while (rounds.load(std::memory_order_relaxed) < target)
            std::this_thread::yield();
        last = target;
    }
    state.SetItemsProcessed(last * 2);  // messages
    stop = true;
    world.join_all();
    if (instrumented) mdl::uninstall(reg, cm);
    benchmark::DoNotOptimize(sunk);
}
BENCHMARK(BM_PingPong)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
