#include "pvar/registry.hpp"

#include <algorithm>

#include "util/clock.hpp"

namespace m2p::pvar {

const char* class_name(Class c) {
    switch (c) {
        case Class::Counter: return "counter";
        case Class::Watermark: return "watermark";
        case Class::Gauge: return "gauge";
    }
    return "?";
}

Registry::Registry() : chunks_(new std::unique_ptr<Var[]>[kMaxChunks]) {}

Registry::~Registry() = default;

Registry::Var* Registry::slot(VarId id) const {
    if (id >= count_.load(std::memory_order_acquire)) return nullptr;
    return &chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
}

Registry::Var* Registry::live_slot(VarId id) const {
    Var* v = slot(id);
    if (!v || !v->alive.load(std::memory_order_acquire)) return nullptr;
    return v;
}

VarId Registry::add(Desc d, Reader r) {
    std::lock_guard lk(reg_mu_);
    return add_locked(std::move(d), std::move(r));
}

VarId Registry::add_locked(Desc d, Reader r) {
    if (d.name.empty() || by_name_.count(d.name)) return kInvalidVar;
    const std::uint32_t id = count_.load(std::memory_order_relaxed);
    const std::size_t chunk = id >> kChunkShift;
    if (chunk >= kMaxChunks) return kInvalidVar;
    if (!chunks_[chunk]) chunks_[chunk].reset(new Var[kChunkSize]);
    Var& v = chunks_[chunk][id & (kChunkSize - 1)];
    by_name_.emplace(d.name, id);
    v.desc = std::move(d);
    // No reader: the variable reads its own slot's atomic (owned
    // counters).  The slot address is chunk-stable, so this never
    // dangles.
    if (r)
        v.read = std::move(r);
    else
        v.read = [&v] { return v.owned.load(std::memory_order_relaxed); };
    v.alive.store(true, std::memory_order_relaxed);
    // Publish the id: lock-free readers acquire count_ and see the
    // fully built slot.
    count_.store(id + 1, std::memory_order_release);
    return id;
}

VarId Registry::add_counter(std::string name, Reader r, std::string unit,
                            std::string help) {
    return add({std::move(name), Class::Counter, std::move(unit), std::move(help)},
               std::move(r));
}

VarId Registry::add_watermark(std::string name, Reader r, std::string unit,
                              std::string help) {
    return add({std::move(name), Class::Watermark, std::move(unit), std::move(help)},
               std::move(r));
}

VarId Registry::add_gauge(std::string name, Reader r, std::string unit,
                          std::string help) {
    return add({std::move(name), Class::Gauge, std::move(unit), std::move(help)},
               std::move(r));
}

std::atomic<std::uint64_t>* Registry::add_owned_counter(std::string name,
                                                        std::string unit,
                                                        std::string help, VarId* id_out) {
    std::lock_guard lk(reg_mu_);
    const VarId id =
        add_locked({std::move(name), Class::Counter, std::move(unit), std::move(help)}, {});
    if (id_out) *id_out = id;
    return id == kInvalidVar ? nullptr : &slot(id)->owned;
}

bool Registry::remove(VarId id) {
    // Take the snapshot mutex FIRST: an in-flight snapshot pass may be
    // inside this variable's reader right now, and the provider is
    // about to free whatever the reader captured.  Holding snap_mu_
    // across the tombstone means remove() returns only after any such
    // pass has finished, and no later pass re-polls the variable.
    std::lock_guard snap(snap_mu_);
    std::lock_guard lk(reg_mu_);
    Var* v = slot(id);
    if (!v || !v->alive.load(std::memory_order_relaxed)) return false;
    v->alive.store(false, std::memory_order_release);
    by_name_.erase(v->desc.name);
    return true;
}

std::size_t Registry::size() const { return count_.load(std::memory_order_acquire); }

bool Registry::alive(VarId id) const { return live_slot(id) != nullptr; }

const Desc* Registry::describe(VarId id) const {
    Var* v = slot(id);
    return v ? &v->desc : nullptr;
}

VarId Registry::find(const std::string& name) const {
    std::lock_guard lk(reg_mu_);
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidVar : it->second;
}

std::vector<VarId> Registry::attach(const std::string& glob) const {
    std::vector<VarId> out;
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    for (std::uint32_t id = 0; id < n; ++id) {
        const Var& v = chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
        if (!v.alive.load(std::memory_order_acquire)) continue;
        if (glob_match(glob.c_str(), v.desc.name.c_str())) out.push_back(id);
    }
    return out;
}

std::uint64_t Registry::read(VarId id) const {
    Var* v = live_slot(id);
    return (v && v->read) ? v->read() : 0;
}

CachedSample Registry::cached(VarId id) const {
    Var* v = slot(id);
    if (!v) return {};
    for (;;) {
        const std::uint64_t s0 = v->seq.load(std::memory_order_acquire);
        if (s0 & 1) continue;  // pass mid-publish on this cell
        CachedSample out{v->cached_value.load(std::memory_order_relaxed),
                         v->cached_epoch.load(std::memory_order_relaxed)};
        std::atomic_thread_fence(std::memory_order_acquire);
        if (v->seq.load(std::memory_order_relaxed) == s0) return out;
    }
}

void Registry::publish_locked(Var& v, std::uint64_t value, std::uint64_t epoch) {
    const std::uint64_t s = v.seq.load(std::memory_order_relaxed);
    v.seq.store(s + 1, std::memory_order_relaxed);  // odd: cell is being written
    std::atomic_thread_fence(std::memory_order_release);
    v.cached_value.store(value, std::memory_order_relaxed);
    v.cached_epoch.store(epoch, std::memory_order_relaxed);
    v.seq.store(s + 2, std::memory_order_release);  // even again
}

Snapshot Registry::snapshot() {
    std::lock_guard lk(snap_mu_);
    Snapshot out;
    out.ticks = util::ticks();
    out.epoch = epoch_.load(std::memory_order_relaxed) + 1;
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    out.samples.reserve(n);
    for (std::uint32_t id = 0; id < n; ++id) {
        Var& v = chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
        if (!v.alive.load(std::memory_order_acquire) || !v.read) continue;
        const std::uint64_t value = v.read();
        publish_locked(v, value, out.epoch);
        out.samples.push_back({id, value});
    }
    epoch_.store(out.epoch, std::memory_order_release);
    return out;
}

Snapshot Registry::snapshot(const std::vector<VarId>& ids) {
    std::lock_guard lk(snap_mu_);
    Snapshot out;
    out.ticks = util::ticks();
    out.epoch = epoch_.load(std::memory_order_relaxed) + 1;
    out.samples.reserve(ids.size());
    for (const VarId id : ids) {
        Var* v = live_slot(id);
        if (!v || !v->read) continue;
        const std::uint64_t value = v->read();
        publish_locked(*v, value, out.epoch);
        out.samples.push_back({id, value});
    }
    epoch_.store(out.epoch, std::memory_order_release);
    return out;
}

bool Registry::glob_match(const char* glob, const char* name) {
    // Iterative star-backtracking matcher: `*` any run, `?` any char.
    const char* star = nullptr;
    const char* resume = nullptr;
    while (*name) {
        if (*glob == '*') {
            star = glob++;
            resume = name;
        } else if (*glob == *name || *glob == '?') {
            ++glob;
            ++name;
        } else if (star) {
            glob = star + 1;
            name = ++resume;
        } else {
            return false;
        }
    }
    while (*glob == '*') ++glob;
    return *glob == '\0';
}

}  // namespace m2p::pvar
