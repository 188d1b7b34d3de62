// MPI_T-style performance-variable (pvar) registry.
//
// The paper's thesis is that tool support must expose the MPI runtime's
// behavior as measurable resources; Open MPI's Software Performance
// Counters later productized the idea as MPI_T pvars.  This registry is
// that seam for the reproduction: every data plane (instr dispatch,
// transport mailboxes, Table-1 RMA shards, trace rings, the fault
// plane, the Performance Consultant) registers its counters ONCE under
// a dotted name, and readers attach by name or glob without knowing
// which plane owns the value or how it is sharded.
//
// Design contract, in order of importance:
//
//  1. Providers keep their hot-path write shape.  A pvar is a *reader
//     function* over storage the provider already maintains (per-thread
//     stat slots, relaxed per-window atomics, per-ring head counters).
//     Registration never adds an atomic to anyone's fast path.
//  2. Lookup is lock-free.  The variable table is the same append-only
//     chunked storage as instr::Registry and simmpi's handle tables:
//     readers walk `count_` (acquire) into chunks that never move;
//     only registration/removal serialize on a writer mutex.
//  3. Snapshots never stop writers.  A snapshot pass walks the live
//     variables, polls each reader, and publishes the value into a
//     per-variable seqlock cell stamped with the snapshot epoch.
//     Concurrent cached readers (and the mmap export writer) retry the
//     odd/changed-sequence window and otherwise read torn-free
//     (value, epoch) pairs without taking any lock.
//
// Out-of-band readers live in export.hpp: an mmap-backed file a real
// second process samples while the run is live.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace m2p::pvar {

/// Variable semantics, mirroring the MPI_T pvar classes this plane
/// models.  Verification treats them differently: counters and
/// watermarks are monotone non-decreasing (the sampler asserts this
/// across snapshots); gauges (e.g. bytes currently queued) may move
/// both ways and are exempt.
enum class Class : std::uint32_t {
    Counter = 0,    ///< monotone event/byte count
    Watermark = 1,  ///< monotone high-water mark
    Gauge = 2,      ///< instantaneous level, non-monotone
};

const char* class_name(Class c);

/// Dense handle into the variable table.  Ids are never reused within
/// one registry: removal tombstones the slot (the export file keeps
/// the name column stable for the sampler).
using VarId = std::uint32_t;
inline constexpr VarId kInvalidVar = 0xffffffffu;

/// Polls the provider's current value.  Must be callable from any
/// thread, must not block on rank-fiber progress, and may take short
/// provider-internal locks (e.g. the instr stat-slot mutex).
using Reader = std::function<std::uint64_t()>;

struct Desc {
    std::string name;  ///< dotted path, e.g. "simmpi.mailbox.delivered_msgs"
    Class cls = Class::Counter;
    std::string unit;  ///< "events", "bytes", "ns", ... (docs only)
    std::string help;
};

/// One (value, epoch) pair published by a snapshot pass and readable
/// lock-free by anyone.
struct CachedSample {
    std::uint64_t value = 0;
    std::uint64_t epoch = 0;  ///< 0 until the first snapshot covers the var
};

/// One variable's sample inside a Snapshot.
struct Sample {
    VarId id = kInvalidVar;
    std::uint64_t value = 0;
};

/// Epoch-stamped consistent view: every sample was read by the same
/// snapshot pass (epoch), with the pass serialized against other
/// passes and against removal -- but never against writers, which keep
/// mutating their shards while the pass runs.
struct Snapshot {
    std::uint64_t epoch = 0;
    std::uint64_t ticks = 0;  ///< util::ticks() when the pass started
    std::vector<Sample> samples;
};

class Registry {
public:
    Registry();
    ~Registry();
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    // -- Provider side ---------------------------------------------------
    /// Registers a variable.  Returns kInvalidVar (and registers
    /// nothing) when another LIVE variable already owns @p name --
    /// duplicate names would make glob attachment ambiguous and the
    /// export file unreadable.  A name freed by remove() may be
    /// registered again (fresh id; the export file shows both slots,
    /// the old one tombstoned).
    VarId add(Desc d, Reader r);
    VarId add_counter(std::string name, Reader r, std::string unit = "events",
                      std::string help = {});
    VarId add_watermark(std::string name, Reader r, std::string unit = "bytes",
                        std::string help = {});
    VarId add_gauge(std::string name, Reader r, std::string unit = "bytes",
                    std::string help = {});
    /// Registers a counter whose storage lives inside the registry
    /// slot, for providers with no natural home for the value.  The
    /// returned atomic's address is stable for the registry's lifetime
    /// (chunked storage never moves), even after remove().  Null when
    /// the name is taken.  @p id, when given, receives the variable's
    /// id (kInvalidVar on failure).
    std::atomic<std::uint64_t>* add_owned_counter(std::string name,
                                                  std::string unit = "events",
                                                  std::string help = {},
                                                  VarId* id = nullptr);
    /// Tombstones @p id: detaches the name (re-registrable), excludes
    /// the variable from future snapshots, and -- because removal
    /// serializes against the snapshot pass -- guarantees no snapshot
    /// is still inside the reader when remove() returns, so the
    /// provider may free the storage the reader captured.
    bool remove(VarId id);

    // -- Reader side -----------------------------------------------------
    std::size_t size() const;  ///< ids allocated (live + tombstoned)
    bool alive(VarId id) const;
    const Desc* describe(VarId id) const;  ///< null for invalid ids
    /// Exact-name lookup among live variables.
    VarId find(const std::string& name) const;
    /// Attaches to every live variable matching @p glob (`*` and `?`),
    /// sorted by id (== registration order).  This is the MPI_T
    /// "attach a handle set" step; detaching is just dropping the ids.
    std::vector<VarId> attach(const std::string& glob) const;

    /// Polls the provider right now (0 for tombstoned/invalid ids).
    /// Unlike cached(), this races removal of the same id -- callers
    /// are either quiescent (tests) or hold the provider alive.
    std::uint64_t read(VarId id) const;
    /// Lock-free torn-free read of the last snapshotted (value, epoch)
    /// for @p id, via the per-variable seqlock.  Safe against a
    /// concurrent snapshot pass and against removal.
    CachedSample cached(VarId id) const;

    /// Runs one snapshot pass over every live variable: bumps the
    /// epoch, polls each reader, publishes each value into the
    /// variable's seqlock cell, and returns the collected view.
    /// Passes serialize on an internal mutex (writers never wait).
    Snapshot snapshot();
    /// Same pass restricted to @p ids (the attached-set form).
    Snapshot snapshot(const std::vector<VarId>& ids);
    /// Epoch of the most recent completed pass.
    std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

    /// True when @p name matches @p glob (`*` = any run, `?` = any one
    /// char).  Exposed for the sampler CLI's --match filter.
    static bool glob_match(const char* glob, const char* name);

private:
    struct Var {
        Desc desc;
        Reader read;
        std::atomic<bool> alive{false};
        std::atomic<std::uint64_t> owned{0};  ///< add_owned_counter storage
        /// Seqlock cell: seq odd while a snapshot pass writes
        /// value/epoch; cached() retries until seq is even and
        /// unchanged across the reads.
        std::atomic<std::uint64_t> seq{0};
        /// Relaxed atomics, ordered entirely by seq + the fences: plain
        /// fields would make the benign seqlock retry formally a data
        /// race (and TSAN rightly flags it).
        std::atomic<std::uint64_t> cached_value{0};
        std::atomic<std::uint64_t> cached_epoch{0};
    };

    static constexpr std::size_t kChunkShift = 8;  ///< 256 vars per chunk
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kMaxChunks = 256;

    /// Builds and publishes a variable (reg_mu_ held); an empty
    /// reader makes it read the slot's own `owned` atomic.
    VarId add_locked(Desc d, Reader r);
    Var* slot(VarId id) const;
    Var* live_slot(VarId id) const;
    void publish_locked(Var& v, std::uint64_t value, std::uint64_t epoch);

    mutable std::mutex reg_mu_;  ///< registration / removal / name index
    std::map<std::string, VarId, std::less<>> by_name_;
    std::atomic<std::uint32_t> count_{0};  ///< published ids (release)
    std::unique_ptr<std::unique_ptr<Var[]>[]> chunks_;

    std::mutex snap_mu_;  ///< serializes snapshot passes (and remove())
    std::atomic<std::uint64_t> epoch_{0};
};

/// RAII bundle for a provider's registrations: collects the ids it
/// adds and removes them all on destruction -- the pattern for
/// providers that die before the registry (PerfTool's pc.* vars, whose
/// world outlives the tool).
class ProviderScope {
public:
    explicit ProviderScope(Registry& r) : reg_(r) {}
    ~ProviderScope() { reset(); }
    ProviderScope(const ProviderScope&) = delete;
    ProviderScope& operator=(const ProviderScope&) = delete;

    VarId add_counter(std::string name, Reader r, std::string unit = "events",
                      std::string help = {}) {
        return track(reg_.add_counter(std::move(name), std::move(r), std::move(unit),
                                      std::move(help)));
    }
    /// Tracked form of Registry::add_owned_counter: the counter's
    /// storage outlives the scope (it is the registry's), so a provider
    /// may keep bumping it after reset() -- the bumps just go unread.
    std::atomic<std::uint64_t>* add_owned_counter(std::string name,
                                                  std::string unit = "events",
                                                  std::string help = {}) {
        VarId id = kInvalidVar;
        std::atomic<std::uint64_t>* c =
            reg_.add_owned_counter(std::move(name), std::move(unit), std::move(help), &id);
        track(id);
        return c;
    }
    /// Removes every tracked variable now (idempotent).
    void reset() {
        for (VarId id : ids_) reg_.remove(id);
        ids_.clear();
    }

private:
    VarId track(VarId id) {
        if (id != kInvalidVar) ids_.push_back(id);
        return id;
    }
    Registry& reg_;
    std::vector<VarId> ids_;
};

}  // namespace m2p::pvar
