// Flight-recorder ring properties and postmortem correlation.
//
// The recorder's accounting contract is exact, not statistical:
// events_written == events_kept + events_dropped even while snapshot
// readers race overwriting writers.  And the postmortem dump a world
// emits when a fault plan kills a rank must name that rank's last
// recorded call, matching its epitaph -- the "what was it doing when
// it died" guarantee the flight recorder exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "simmpi/faults.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"
#include "trace/exporter.hpp"
#include "trace/flight_recorder.hpp"

namespace m2p::trace {
namespace {

TEST(TraceRing, ExactAccountingUnderMultiThreadChurn) {
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 5000;
    FlightRecorder::Options opts;
    opts.ring_capacity = 256;
    FlightRecorder fr(opts);

    std::atomic<bool> done{false};
    // A concurrent reader hammers snapshot() the whole time: every
    // event it sees must be well-formed (never torn), even while every
    // writer is overwriting its ring.
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            for (const Event& e : fr.snapshot()) {
                ASSERT_GE(e.kind, static_cast<std::uint32_t>(EventKind::MpiCall));
                ASSERT_LE(e.kind, static_cast<std::uint32_t>(EventKind::RunOutcome));
                ASSERT_NE(e.name, nullptr);
            }
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&fr, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                fr.record(EventKind::Pt2ptSend, t, "evt",
                          static_cast<std::int64_t>(i));
        });
    }
    for (auto& w : writers) w.join();
    done.store(true, std::memory_order_release);
    reader.join();

    const FlightRecorder::Stats st = fr.stats();
    EXPECT_EQ(st.rings, kThreads);
    EXPECT_EQ(st.written, kThreads * kPerThread);
    EXPECT_EQ(st.written, st.kept + st.dropped);  // exact, by construction
    // Every ring ran full; derive from the recorder (capacities round
    // up to a power of two) instead of repeating the literal.
    EXPECT_EQ(st.kept, kThreads * fr.ring_capacity());
    // Quiescent now: the merged snapshot holds exactly the kept events.
    EXPECT_EQ(fr.snapshot().size(), st.kept);
}

TEST(TraceRing, DroppedNeverUnderflowsWhileTheRingFills) {
    // One writer fills a large ring to just below capacity, so nothing
    // is ever dropped, while a reader polls dropped().  Reading the head
    // twice (once for written, once for kept) lets the writer advance
    // in between and the subtraction wrap to ~2^64.
    constexpr std::size_t kCap = std::size_t{1} << 18;
    EventRing ring(kCap, 0);
    ASSERT_EQ(ring.capacity(), kCap);
    std::atomic<bool> done{false};
    std::uint64_t reads = 0, bad_reads = 0, worst = 0;
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::uint64_t d = ring.dropped();
            ++reads;
            if (d != 0) {
                ++bad_reads;
                worst = std::max(worst, d);
            }
        }
    });
    Event e;
    e.name = "fill";
    e.kind = static_cast<std::uint32_t>(EventKind::Io);
    for (std::size_t i = 0; i + 1 < kCap; ++i) {
        e.a = static_cast<std::int64_t>(i);
        ring.push(e);
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_GT(reads, 0u);
    EXPECT_EQ(bad_reads, 0u) << "dropped() read " << worst << " on a ring that never filled";
    EXPECT_EQ(ring.written(), kCap - 1);
    EXPECT_EQ(ring.kept(), kCap - 1);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, OverwritesOldestAndKeepsNewestExactly) {
    // Overflow accounting at the WORLD's default capacity, read from
    // the config instead of hardcoded, so the case keeps testing the
    // shipped default even if an env/config override changes it.
    const std::uint64_t cap = simmpi::World::Config{}.trace_ring_capacity;
    FlightRecorder::Options opts;
    opts.ring_capacity = cap;
    FlightRecorder fr(opts);
    ASSERT_EQ(fr.ring_capacity(), cap) << "default must already be a power of two";
    const std::uint64_t total = cap + cap / 4;  // overflow by a quarter ring
    for (std::uint64_t i = 0; i < total; ++i)
        fr.record(EventKind::Io, 0, "io", static_cast<std::int64_t>(i));

    const FlightRecorder::Stats st = fr.stats();
    EXPECT_EQ(st.written, total);
    EXPECT_EQ(st.kept, cap);
    EXPECT_EQ(st.dropped, total - cap);

    const std::vector<Event> events = fr.snapshot();
    ASSERT_EQ(events.size(), cap);
    // The oldest quarter was overwritten; the survivors are the newest
    // `cap` events in order.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].a, static_cast<std::int64_t>(total - cap + i));
}

TEST(TraceRing, SmallCapacitiesRoundUpToAPowerOfTwo) {
    FlightRecorder::Options opts;
    opts.ring_capacity = 100;
    FlightRecorder fr(opts);
    EXPECT_EQ(fr.ring_capacity(), 128u);
}

// ---------------------------------------------------------------------------
// Postmortem correlation: a chaos plan kills a rank mid-run; the dump
// must name that rank's last recorded call, and it must match the
// epitaph's last-call record.
// ---------------------------------------------------------------------------

TEST(TraceRing, PostmortemNamesTheKilledRanksLastCall) {
    using simmpi::FaultPlan;
    using simmpi::LaunchPlan;
    using simmpi::Rank;
    using simmpi::World;

    // Postmortems must stay correlated past the old 16-rank wall; the
    // 256-rank point needs a deeper ring so the dead rank's last call
    // is still resident when 255 survivors keep churning events.
    for (const int kRanks : {4, 64, 256}) {
    bool correlated = false;
    // Which fault lands first depends on the seed (a dropped message
    // can make everyone bail before the victim reaches its kill call),
    // so scan seeds until one produces an epitaph.
    for (std::uint64_t seed : {1u, 7u, 23u, 42u, 5u}) {
        instr::Registry reg;
        World::Config cfg;
        cfg.flavor = simmpi::Flavor::Lam;
        cfg.wait_deadline_seconds = 1.0;
        cfg.join_deadline_seconds = 20.0;
        if (kRanks >= 256) cfg.trace_ring_capacity = 65536;
        cfg.faults = FaultPlan::chaos(seed, kRanks);
        World world(reg, cfg);
        world.register_program("chaotic", [&](Rank& r,
                                              const std::vector<std::string>&) {
            r.MPI_Init();
            const simmpi::Comm wc = r.MPI_COMM_WORLD();
            int me = 0, n = 0;
            r.MPI_Comm_rank(wc, &me);
            r.MPI_Comm_size(wc, &n);
            int rc = simmpi::MPI_SUCCESS;
            for (int i = 0; i < 80 && rc == simmpi::MPI_SUCCESS; ++i) {
                int tok = me, sum = 0;
                rc = r.MPI_Allreduce(&tok, &sum, 1, simmpi::MPI_INT,
                                     simmpi::MPI_SUM, wc);
                if (rc != simmpi::MPI_SUCCESS) break;
                rc = r.MPI_Barrier(wc);
            }
            r.MPI_Finalize();
        });
        LaunchPlan plan;
        for (int i = 0; i < kRanks; ++i)
            plan.placements.push_back("node" + std::to_string(i % 2));
        launch(world, "chaotic", {}, plan);
        world.join_all();
        if (world.epitaphs().empty()) continue;

        const simmpi::Epitaph e = world.epitaphs().front();
        ASSERT_NE(world.recorder(), nullptr);
        Exporter exporter(*world.recorder());

        const std::string pm = exporter.postmortem(world, "test");
        EXPECT_NE(pm.find("=== flight-recorder postmortem: test ==="),
                  std::string::npos);
        EXPECT_NE(pm.find("rank " + std::to_string(e.global_rank) + " [DEAD"),
                  std::string::npos)
            << pm;
        // The acceptance criterion: the recorder's last call event for
        // the dead rank lines up with its epitaph.
        EXPECT_NE(pm.find("last recorded call: " + e.last_call), std::string::npos)
            << "epitaph last_call=" << e.last_call << "\n"
            << pm;

        const std::string json = exporter.chrome_trace_json();
        EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
        EXPECT_NE(json.find(e.last_call), std::string::npos);
        correlated = true;  // one correlated death per size is the point
        break;
    }
    EXPECT_TRUE(correlated)
        << "no chaos seed produced an epitaph at " << kRanks << " ranks";
    }
}

// Tracing can be turned off entirely; the world then records nothing
// and emit_postmortem degrades to a no-op instead of crashing.
TEST(TraceRing, WorldWithTracingDisabledHasNoRecorder) {
    instr::Registry reg;
    simmpi::World::Config cfg;
    cfg.trace_enabled = false;
    simmpi::World world(reg, cfg);
    EXPECT_EQ(world.recorder(), nullptr);
    world.emit_postmortem("should be a no-op");
}

}  // namespace
}  // namespace m2p::trace
