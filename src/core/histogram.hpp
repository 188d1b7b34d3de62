// Paradyn's fixed-memory folding histogram (paper section 4 & 5):
// performance data lives in a preset number of bins; when the program
// outlives the array, neighbouring bins are combined pairwise and the
// bin width doubles, freeing half the array.  Over time measurement
// granularity decreases -- the source of the small errors the paper
// discusses (their bins started at 0.2 s and folded up to 0.8 s; ours
// default to 5 ms since workloads are scaled down).
//
// Writes are striped (DESIGN.md "fast path"): add() appends the raw
// (t, v) sample to the executing rank's stripe buffer under that
// stripe's own mutex, so snippet fires from different ranks never
// serialize on one lock.  Stripes drain into the folding bins when a
// buffer fills or on any read, replaying samples through the exact
// binning/folding arithmetic -- totals, fold counts, and single-writer
// bin contents are identical to the unstriped implementation.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace m2p::core {

class Histogram {
public:
    /// @p origin is the wall-clock time of bin 0's left edge.
    /// @p stripes controls write-side striping (one buffer per stripe,
    /// rank r writes stripe r % stripes, non-rank threads hash onto
    /// stripes); sized for the expected rank count.
    Histogram(double origin, double base_bin_width = 0.005, std::size_t bins = 128,
              std::size_t stripes = 16);

    /// Accumulates @p v into the bin containing time @p t, folding as
    /// needed.  Thread-safe.  Values before the origin go to bin 0.
    void add(double t, double v);

    double origin() const { return origin_; }
    double bin_width() const;
    std::size_t capacity() const { return capacity_; }
    /// Number of bins touched so far (index of latest + 1).
    std::size_t active_bins() const;
    std::vector<double> values() const;

    /// Exact running total, independent of folding (used by the
    /// Performance Consultant's interval arithmetic).  Reflects every
    /// add() that completed before the call, exactly.
    double total() const;

    /// Mean per-second rate over the covered interval.  When
    /// @p exclude_endpoints is set, the first and last active bins are
    /// dropped, the error-reduction step the paper applies ("we
    /// eliminated the first and last bins from the calculations").
    double rate(bool exclude_endpoints) const;

    /// Number of folds performed so far.
    int folds() const;

    /// CSV export: "bin_start_seconds,value" rows -- the paper's
    /// workflow ("We exported the data that Paradyn gathered while
    /// making the histogram and calculated the number of bytes...").
    std::string to_csv() const;

private:
    struct Stripe {
        alignas(64) std::mutex mu;
        std::vector<std::pair<double, double>> buf;
    };

    void add_locked(double t, double v) const;  ///< requires mu_
    void fold_locked() const;                   ///< requires mu_
    void drain_stripes() const;  ///< replay all stripe buffers

    const double origin_;
    const std::size_t capacity_;
    mutable std::mutex mu_;  ///< guards the folding bins below
    mutable double width_;
    mutable std::vector<double> bins_;
    mutable std::size_t hi_ = 0;  ///< highest touched bin + 1
    mutable double total_ = 0.0;
    mutable int folds_ = 0;

    const std::unique_ptr<Stripe[]> stripes_;
    const std::size_t nstripes_;
};

}  // namespace m2p::core
