/**
 * @file
 * Counts the loops a thread pool really hands to its workers.
 *
 * base::ParallelObserver only hears about dispatched top-level loops —
 * a loop the work-size rule runs inline never reaches it — so a
 * counter installed on a pool tells a test whether a kernel call took
 * the parallel path at all (DESIGN.md §7). Property suites use it to
 * prove their above-threshold shapes still exercise the workers.
 */

#ifndef LIA_TESTS_SUPPORT_DISPATCH_COUNTER_HH
#define LIA_TESTS_SUPPORT_DISPATCH_COUNTER_HH

#include <atomic>
#include <cstdint>

#include "base/thread_pool.hh"

namespace lia {
namespace test {

/** Observer of one pool for its lifetime; null pools count nothing. */
class DispatchCounter : public base::ParallelObserver
{
  public:
    explicit DispatchCounter(base::ThreadPool *pool) : pool_(pool)
    {
        if (pool_ != nullptr)
            pool_->setObserver(this);
    }

    ~DispatchCounter() override
    {
        if (pool_ != nullptr)
            pool_->setObserver(nullptr);
    }

    DispatchCounter(const DispatchCounter &) = delete;
    DispatchCounter &operator=(const DispatchCounter &) = delete;

    void onParallelFor(double) override { ++count_; }

    /** Loops dispatched since construction or the last reset(). */
    std::int64_t count() const { return count_.load(); }

    void reset() { count_ = 0; }

  private:
    base::ThreadPool *pool_;
    std::atomic<std::int64_t> count_{0};
};

} // namespace test
} // namespace lia

#endif // LIA_TESTS_SUPPORT_DISPATCH_COUNTER_HH
