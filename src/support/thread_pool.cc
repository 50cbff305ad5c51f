#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "support/logging.h"

namespace ft {

namespace {

/** The pool whose worker is running on this thread, if any. */
thread_local const ThreadPool *currentPool = nullptr;

} // namespace

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : capacity_(std::max<size_t>(queue_capacity, 1))
{
    int count = std::max(num_threads, 1);
    threads_.reserve(count);
    for (int i = 0; i < count; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    jobReady_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    FT_ASSERT(job, "submitting an empty job");
    {
        std::unique_lock<std::mutex> lock(mu_);
        FT_ASSERT(!stopping_, "submit on a stopping thread pool");
        queueSpace_.wait(lock, [this] { return queue_.size() < capacity_; });
        queue_.push_back(std::move(job));
    }
    jobReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    allDone_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &body)
{
    parallelFor(n, [&body](size_t, size_t i) { body(i); });
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    // A call from one of this pool's own workers would hold a worker
    // while it waits on the others, so nesting is refused outright.
    FT_ASSERT(currentPool != this,
              "nested parallelFor: called from a worker of the same pool");
    if (n == 0)
        return;
    const size_t workers = std::min<size_t>(threads_.size(), n);
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(0, i);
        return;
    }
    // Per-call completion latch: the pool may be running unrelated jobs,
    // so wait() would over-wait. It counts finished indices, not jobs,
    // so the caller returns as soon as the work is done even if a
    // helper has not started yet; such a late helper claims nothing and
    // touches only the latch, which every job therefore shares.
    struct Latch
    {
        std::atomic<size_t> next{0};
        std::mutex mu;
        std::condition_variable cv;
        size_t done = 0;
    };
    auto latch = std::make_shared<Latch>();
    const auto *work = &body;
    auto runClaims = [n, work](Latch &l, size_t w) {
        size_t mine = 0;
        for (size_t i = l.next.fetch_add(1); i < n; i = l.next.fetch_add(1)) {
            (*work)(w, i);
            ++mine;
        }
        std::lock_guard<std::mutex> lock(l.mu);
        l.done += mine;
        if (l.done == n)
            l.cv.notify_one();
    };
    // The caller works as worker 0 and helpers join as they wake, so
    // the call never waits on a helper that has not been scheduled yet.
    for (size_t w = 1; w < workers; ++w)
        submit([latch, runClaims, w] { runClaims(*latch, w); });
    runClaims(*latch, 0);
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->cv.wait(lock, [&] { return latch->done == n; });
}

size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

uint64_t
ThreadPool::completedJobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
}

void
ThreadPool::workerLoop()
{
    currentPool = this;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            jobReady_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and fully drained
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        queueSpace_.notify_one();
        job();
        {
            std::lock_guard<std::mutex> lock(mu_);
            --active_;
            ++completed_;
            if (queue_.empty() && active_ == 0)
                allDone_.notify_all();
        }
    }
}

} // namespace ft
