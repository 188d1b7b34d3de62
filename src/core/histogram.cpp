#include "core/histogram.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "instr/registry.hpp"

namespace m2p::core {

namespace {

/// Stripe buffers flush into the folding bins at this size; bounds
/// per-histogram buffered memory to nstripes * kFlushAt samples.
constexpr std::size_t kFlushAt = 64;

/// Stripe key of the calling context: the executing rank's global id,
/// so ranks 0..nstripes-1 never share a stripe (a thread-id hash put
/// two of four ranks on one stripe most of the time), and a migrating
/// fiber rank keeps its stripe.  Non-rank threads hash their thread id.
std::size_t stripe_key() {
    const int rank = instr::current_rank();
    if (rank >= 0) return static_cast<std::size_t>(rank);
    static thread_local const std::size_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return key;
}

}  // namespace

Histogram::Histogram(double origin, double base_bin_width, std::size_t bins,
                     std::size_t stripes)
    : origin_(origin),
      capacity_(bins),
      width_(base_bin_width),
      bins_(bins, 0.0),
      stripes_(new Stripe[std::max<std::size_t>(1, stripes)]),
      nstripes_(std::max<std::size_t>(1, stripes)) {
    if (base_bin_width <= 0.0 || bins < 2)
        throw std::invalid_argument("Histogram: bad bin configuration");
}

void Histogram::add(double t, double v) {
    Stripe& s = stripes_[stripe_key() % nstripes_];
    std::vector<std::pair<double, double>> full;
    {
        std::lock_guard lk(s.mu);
        s.buf.emplace_back(t, v);
        if (s.buf.size() < kFlushAt) return;
        full.swap(s.buf);
    }
    // Flush outside the stripe lock; stripe locks and mu_ are never
    // held together, so readers draining stripes cannot deadlock.
    std::lock_guard lk(mu_);
    for (const auto& [tt, vv] : full) add_locked(tt, vv);
}

void Histogram::add_locked(double t, double v) const {
    double rel = t - origin_;
    if (rel < 0.0) rel = 0.0;
    while (rel >= width_ * static_cast<double>(capacity_)) fold_locked();
    const auto idx = static_cast<std::size_t>(rel / width_);
    bins_[idx] += v;
    hi_ = std::max(hi_, idx + 1);
    total_ += v;
}

void Histogram::fold_locked() const {
    // Combine neighbouring bins; the new bin represents twice the time.
    for (std::size_t i = 0; i < capacity_ / 2; ++i)
        bins_[i] = bins_[2 * i] + (2 * i + 1 < capacity_ ? bins_[2 * i + 1] : 0.0);
    std::fill(bins_.begin() + static_cast<std::ptrdiff_t>(capacity_ / 2), bins_.end(),
              0.0);
    width_ *= 2.0;
    hi_ = (hi_ + 1) / 2;
    ++folds_;
}

void Histogram::drain_stripes() const {
    for (std::size_t i = 0; i < nstripes_; ++i) {
        Stripe& s = stripes_[i];
        std::vector<std::pair<double, double>> pending;
        {
            std::lock_guard lk(s.mu);
            if (s.buf.empty()) continue;
            pending.swap(s.buf);
        }
        std::lock_guard lk(mu_);
        for (const auto& [t, v] : pending) add_locked(t, v);
    }
}

double Histogram::bin_width() const {
    drain_stripes();
    std::lock_guard lk(mu_);
    return width_;
}

std::size_t Histogram::active_bins() const {
    drain_stripes();
    std::lock_guard lk(mu_);
    return hi_;
}

std::vector<double> Histogram::values() const {
    drain_stripes();
    std::lock_guard lk(mu_);
    return {bins_.begin(), bins_.begin() + static_cast<std::ptrdiff_t>(hi_)};
}

double Histogram::total() const {
    drain_stripes();
    std::lock_guard lk(mu_);
    return total_;
}

double Histogram::rate(bool exclude_endpoints) const {
    drain_stripes();
    std::lock_guard lk(mu_);
    if (hi_ == 0) return 0.0;
    std::size_t lo = 0;
    std::size_t hi = hi_;
    if (exclude_endpoints && hi_ > 2) {
        lo = 1;
        hi = hi_ - 1;
    }
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += bins_[i];
    const double covered = width_ * static_cast<double>(hi - lo);
    return covered > 0.0 ? sum / covered : 0.0;
}

int Histogram::folds() const {
    drain_stripes();
    std::lock_guard lk(mu_);
    return folds_;
}

std::string Histogram::to_csv() const {
    drain_stripes();
    std::lock_guard lk(mu_);
    std::string out = "bin_start_seconds,value\n";
    char row[64];
    for (std::size_t i = 0; i < hi_; ++i) {
        std::snprintf(row, sizeof row, "%.6f,%.9g\n",
                      width_ * static_cast<double>(i), bins_[i]);
        out += row;
    }
    return out;
}

}  // namespace m2p::core
