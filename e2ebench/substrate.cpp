// substrate-256: a benchmark-owned MPI program on the fiber engine, 256
// ranks, no tool attached.  It runs the simulated MPI's scheduler,
// transport and RMA at scale with zero snippets and no Performance
// Consultant, so a tool-side change should leave it unchanged, while a
// scheduler or transport change shows up here and on pc-* alike.
//
// One round = a fresh World running four phases, each bracketed by
// barriers and timed on rank 0:
//   1. MPI_Sendrecv with seeded peer offsets (256-byte payloads);
//   2. MPI_Allreduce of 64 doubles;
//   3. fence epochs, one MPI_Put per rank per epoch;
//   4. exclusive MPI_Win_lock epochs, one MPI_Accumulate per epoch.
// Every payload, reduction and window cell is checked.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>

#include "core/session.hpp"
#include "pperfmark/pperfmark.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr int kRanks = 256;
constexpr int kRanksPerNode = 8;
constexpr int kPayloadInts = 64;
constexpr int kReduceDoubles = 64;

struct Sizes {
    int sendrecv_steps, allreduces, fence_epochs, lock_epochs;
};

Sizes sizes(bool smoke) {
    if (smoke) return {4, 4, 2, 2};
    return {150, 100, 50, 300};
}

/// Per-phase results of one round.
struct Round {
    double setup_s = 0.0;  ///< Registry + World construction + registration
    double wall_s = 0.0;   ///< launch to joined
    double phase_s[4] = {0, 0, 0, 0};
    int mismatches[4] = {0, 0, 0, 0};
    bool completed = false;
};

/// What the rank bodies write.  Each rank owns its own slot of
/// `call_us`, so timed calls never contend.
struct Shared {
    std::vector<int> offsets;       ///< sendrecv peer offsets, per step
    std::vector<int> fence_offset;  ///< put target offsets, per epoch
    std::vector<int> lock_offset;   ///< lock target offsets, per epoch
    Sizes n{};
    bool timed = false;
    std::atomic<int> mismatches[4] = {0, 0, 0, 0};
    double t[5] = {0, 0, 0, 0, 0};  ///< rank 0's phase boundaries
    std::vector<std::vector<double>> call_us[4];
};

std::vector<int> seeded_offsets(std::mt19937_64& rng, int count) {
    std::uniform_int_distribution<int> d(1, kRanks - 1);
    std::vector<int> v(count);
    for (int& x : v) x = d(rng);
    return v;
}

void rank_body(simmpi::Rank& r, Shared& sh) {
    using namespace simmpi;
    r.MPI_Init();
    const Comm w = r.MPI_COMM_WORLD();
    int me = 0, n = 0;
    r.MPI_Comm_rank(w, &me);
    r.MPI_Comm_size(w, &n);
    const auto timed = [&](int phase, auto&& call) {
        if (!sh.timed) return call();
        const double t0 = now_s();
        const int rc = call();
        sh.call_us[phase][me].push_back((now_s() - t0) * 1e6);
        return rc;
    };
    std::int32_t cells[2] = {0, 0};  // [0] fence put target, [1] lock counter
    Win win = MPI_WIN_NULL;
    r.MPI_Win_create(cells, sizeof cells, 4, MPI_INFO_NULL, w, &win);
    int bad[4] = {0, 0, 0, 0};

    r.MPI_Barrier(w);
    if (me == 0) sh.t[0] = now_s();
    std::int32_t out[kPayloadInts], in[kPayloadInts];
    for (int s = 0; s < sh.n.sendrecv_steps; ++s) {
        const int off = sh.offsets[s];
        const int dest = (me + off) % n, src = (me - off + n) % n;
        for (int k = 0; k < kPayloadInts; ++k) out[k] = me * 1000003 + s * 131 + k;
        timed(0, [&] {
            return r.MPI_Sendrecv(out, kPayloadInts, MPI_INT, dest, s, in, kPayloadInts,
                                  MPI_INT, src, s, w, nullptr);
        });
        for (int k = 0; k < kPayloadInts; ++k)
            bad[0] += in[k] != src * 1000003 + s * 131 + k;
    }

    r.MPI_Barrier(w);
    if (me == 0) sh.t[1] = now_s();
    double rin[kReduceDoubles], rout[kReduceDoubles];
    double base = 0.0;  // sum over ranks of (rank % 7)
    for (int q = 0; q < n; ++q) base += q % 7;
    for (int a = 0; a < sh.n.allreduces; ++a) {
        for (int k = 0; k < kReduceDoubles; ++k) rin[k] = me % 7 + k + a;
        timed(1, [&] {
            return r.MPI_Allreduce(rin, rout, kReduceDoubles, MPI_DOUBLE, MPI_SUM, w);
        });
        for (int k = 0; k < kReduceDoubles; ++k)
            bad[1] += rout[k] != base + static_cast<double>(n) * (k + a);
    }

    r.MPI_Barrier(w);
    if (me == 0) sh.t[2] = now_s();
    for (int e = 0; e < sh.n.fence_epochs; ++e) {
        const int off = sh.fence_offset[e];
        const std::int32_t v = me * 4099 + e;
        timed(2, [&] { return r.MPI_Win_fence(0, win); });
        r.MPI_Put(&v, 1, MPI_INT, (me + off) % n, 0, 1, MPI_INT, win);
        timed(2, [&] { return r.MPI_Win_fence(0, win); });
        bad[2] += cells[0] != ((me - off + n) % n) * 4099 + e;
    }

    r.MPI_Barrier(w);
    if (me == 0) sh.t[3] = now_s();
    const std::int32_t one = 1;
    for (int e = 0; e < sh.n.lock_epochs; ++e) {
        const int target = (me + sh.lock_offset[e]) % n;
        timed(3, [&] { return r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, target, 0, win); });
        r.MPI_Accumulate(&one, 1, MPI_INT, target, 1, 1, MPI_INT, MPI_SUM, win);
        timed(3, [&] { return r.MPI_Win_unlock(target, win); });
    }
    r.MPI_Barrier(w);
    if (me == 0) sh.t[4] = now_s();
    // Each epoch's offset is a rotation, so every rank is locked by
    // exactly one origin per epoch.
    bad[3] += cells[1] != sh.n.lock_epochs;

    r.MPI_Win_free(&win);
    for (int p = 0; p < 4; ++p) sh.mismatches[p].fetch_add(bad[p]);
    r.MPI_Finalize();
}

Round run_round(const Sizes& n, std::mt19937_64& rng, bool recorder, bool timed,
                Layers* layers) {
    Shared sh;
    sh.n = n;
    sh.offsets = seeded_offsets(rng, n.sendrecv_steps);
    sh.fence_offset = seeded_offsets(rng, n.fence_epochs);
    sh.lock_offset = seeded_offsets(rng, n.lock_epochs);
    sh.timed = timed;
    if (timed)
        for (auto& v : sh.call_us) v.resize(kRanks);

    simmpi::World::Config cfg;
    cfg.rank_engine = simmpi::RankEngine::Fiber;
    cfg.sched_workers = static_cast<std::size_t>(nproc());
    cfg.trace_enabled = recorder;
    if (timed) cfg.trace_ring_capacity = kTracedRingCapacity;

    Round out;
    const double t0 = now_s();
    instr::Registry reg;
    simmpi::World world(reg, cfg);
    const double t1 = now_s();
    world.register_program("substrate", [&sh](simmpi::Rank& r,
                                              const std::vector<std::string>&) {
        rank_body(r, sh);
    });
    const double t2 = now_s();
    simmpi::LaunchPlan plan;
    for (int i = 0; i < kRanks; ++i)
        plan.placements.push_back("node" + std::to_string(i / kRanksPerNode));
    simmpi::launch(world, "substrate", {}, plan);
    const double t3 = now_s();
    world.join_all();
    const double t4 = now_s();

    out.setup_s = t2 - t0;
    out.wall_s = t4 - t2;
    for (int p = 0; p < 4; ++p) {
        out.phase_s[p] = sh.t[p + 1] - sh.t[p];
        out.mismatches[p] = sh.mismatches[p].load();
    }
    out.completed = world.epitaphs().empty() && !world.poisoned();
    if (timed) {
        layers->value["core.session_ctor_s"] += t1 - t0;
        layers->value["pperfmark.register_s"] += t2 - t1;
        layers->value["simmpi.launch_s"] += t3 - t2;
        layers->value["simmpi.join_tail_s"] += t4 - t3;
        static const char* const kClass[4] = {
            "simmpi.call_us.pt2pt", "simmpi.call_us.coll", "simmpi.call_us.rma_active",
            "simmpi.call_us.rma_passive"};
        for (int p = 0; p < 4; ++p)
            for (const auto& v : sh.call_us[p]) layers->samples.append(kClass[p], v);
        add_pvars(world, layers);
        // Only RMA epoch waits come from the recorder: the benchmark
        // timed the calls itself.
        if (const trace::FlightRecorder* fr = world.recorder()) {
            Samples spans;
            read_recorder(*fr, &spans);
            layers->samples.append("simmpi.rma.epoch_wait_us",
                                   spans.values("simmpi.rma.epoch_wait_us"));
        }
    }
    return out;
}

void check_round(const Round& r, Ledger& ledger) {
    ledger.check("substrate-256: run completes", r.completed, true);
    ledger.check("substrate-256: Sendrecv payloads", r.mismatches[0] == 0, true);
    ledger.check("substrate-256: Allreduce sums", r.mismatches[1] == 0, true);
    ledger.check("substrate-256: fence Put values", r.mismatches[2] == 0, true);
    ledger.check("substrate-256: lock-epoch Accumulate counts", r.mismatches[3] == 0,
                 true);
}

}  // namespace

WorkloadResult run_substrate(const Args& args) {
    WorkloadResult res;
    res.engine = "fiber";
    res.flavors = "lam";
    const Sizes n = sizes(args.smoke);
    std::mt19937_64 rng(args.seed);

    // One warm-up round first (checked, not timed): the first World in
    // the process pays for thread and stack creation the others reuse.
    // Then rounds alternate the always-on flight recorder on and off,
    // the substrate's only observing machinery: job_s is the median
    // recorder-on round, perturbation the median on/off ratio of
    // adjacent rounds, so a load change outside the process cancels.
    check_round(run_round(n, rng, true, false, nullptr), res.ledger);
    std::vector<double> setup, on_wall, off_wall, ratios, rates[4];
    const double start = now_s();
    double last = 0.0;
    int rounds = 0;
    do {
        const double t = now_s();
        const bool recorder = rounds % 2 == 0;
        const Round r = run_round(n, rng, recorder, false, nullptr);
        last = now_s() - t;
        ++rounds;
        check_round(r, res.ledger);
        setup.push_back(r.setup_s);
        (recorder ? on_wall : off_wall).push_back(r.wall_s);
        if (!recorder) ratios.push_back(on_wall.back() / r.wall_s);
        if (recorder) {
            rates[0].push_back(kRanks * n.sendrecv_steps / r.phase_s[0]);
            rates[1].push_back(n.allreduces / r.phase_s[1]);
            rates[2].push_back(n.fence_epochs / r.phase_s[2]);
            rates[3].push_back(kRanks * n.lock_epochs / r.phase_s[3]);
        }
        std::printf("  round %d (recorder %s): setup %.4f s  wall %.3f s\n", rounds,
                    recorder ? "on" : "off", r.setup_s, r.wall_s);
        std::fflush(stdout);
    } while (rounds < 2 || now_s() - start + last <= args.seconds);

    const EndToEnd untraced{median_of(setup), median_of(on_wall), median_of(ratios),
                            peak_rss_mb()};
    res.end_to_end = end_to_end_metrics(untraced);
    static const char* const kRate[4] = {"msgs_per_s", "allreduce_per_s",
                                         "fence_epochs_per_s", "lock_epochs_per_s"};
    for (int p = 0; p < 4; ++p) res.named.push_back({kRate[p], median_of(rates[p]), "1/s"});
    res.named.push_back({"setup_s", untraced.setup_s, "s"});
    res.named.push_back({"peak_rss_mb", untraced.peak_rss_mb, "MB"});
    res.named.push_back({"rounds", static_cast<double>(rounds), "count"});

    if (args.trace) {
        Layers layers;
        for (int p = 0; p < 4; ++p)
            layers.value[std::string("substrate.") + kRate[p]] = median_of(rates[p]);
        const Round r = run_round(n, rng, true, true, &layers);
        check_round(r, res.ledger);
        // The substrate has no tool; the MDL and metric-manager layers
        // are timed on a session built only for that, outside the rounds.
        layers.value["mdl.parse_ms"] = mdl_parse_ms(20);
        {
            core::Session s(simmpi::Flavor::Lam);
            ppm::register_all(s.world(), ppm::Params{});
            time_metric_calls(s.tool(), args.smoke ? 2 : 400, &layers.samples);
        }
        const EndToEnd traced{r.setup_s, r.wall_s, r.wall_s / median_of(off_wall),
                              peak_rss_mb()};
        add_overhead(traced, untraced, &layers);
        res.per_layer = per_layer_metrics(layers);
        for (const char* s : {"simmpi.call_us.pt2pt", "simmpi.call_us.coll",
                              "simmpi.call_us.rma_active", "simmpi.call_us.rma_passive",
                              "simmpi.rma.epoch_wait_us"})
            res.named.push_back({std::string(s) + ".samples",
                                 static_cast<double>(layers.samples.count(s)), "count"});
    }
    return res;
}

}  // namespace e2e
