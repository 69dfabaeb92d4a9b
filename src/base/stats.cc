#include "base/stats.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lia {

void
SampleStats::add(double value)
{
    samples_.push_back(value);
    sum_ += value;
    sorted_ = samples_.size() <= 1;
}

void
SampleStats::merge(const SampleStats &other)
{
    if (other.empty())
        return;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
    sorted_ = samples_.size() <= 1;
}

double
SampleStats::mean() const
{
    LIA_ASSERT(!empty(), "no samples");
    return sum_ / static_cast<double>(samples_.size());
}

double
SampleStats::min() const
{
    LIA_ASSERT(!empty(), "no samples");
    return *std::min_element(samples_.begin(), samples_.end());
}

double
SampleStats::max() const
{
    LIA_ASSERT(!empty(), "no samples");
    return *std::max_element(samples_.begin(), samples_.end());
}

void
SampleStats::ensureSorted() const
{
    if (!sorted_) {
        auto &mutable_samples =
            const_cast<std::vector<double> &>(samples_);
        std::sort(mutable_samples.begin(), mutable_samples.end());
        sorted_ = true;
    }
}

double
SampleStats::percentile(double pct) const
{
    LIA_ASSERT(!empty(), "no samples");
    LIA_ASSERT(pct >= 0.0 && pct <= 100.0, "percentile out of range");
    ensureSorted();
    if (samples_.size() == 1)
        return samples_.front();
    const double rank =
        pct / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples_.size())
        return samples_.back();
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

} // namespace lia
