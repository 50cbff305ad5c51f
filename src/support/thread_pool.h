/**
 * @file
 * A fixed-size worker pool with a bounded job queue.
 *
 * This is the concurrency primitive of the serving layer and of graph
 * tuning: simple FIFO dispatch (no work stealing), a capacity-bounded
 * queue so producers back-pressure instead of growing memory without
 * bound, and a parallelFor helper used by the batch evaluator to score
 * candidate schedules concurrently (Section 5.2's parallel measurement)
 * and by graph::tuneDag to search a DAG's distinct anchors at once.
 */
#ifndef FLEXTENSOR_SUPPORT_THREAD_POOL_H
#define FLEXTENSOR_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ft {

class ThreadPool
{
  public:
    /**
     * @param num_threads worker count (clamped to >= 1)
     * @param queue_capacity max queued-but-not-started jobs; submit()
     *        blocks while the queue is full (back-pressure)
     */
    explicit ThreadPool(int num_threads, size_t queue_capacity = 1024);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job; blocks while the queue is at capacity. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    /**
     * Run body(0..n-1) across the calling thread and up to
     * numThreads() - 1 pool workers, and block until all indices are
     * done. Indices are claimed dynamically, one at a time; the caller
     * claims too, so at most numThreads() indices run at once. Must not
     * be called from a task running on this same pool (no nesting);
     * such a call fails an FT_ASSERT.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body);

    /**
     * parallelFor variant passing a dense worker id (0..workers-1, where
     * workers = min(numThreads, n)) as the first argument — callers use
     * it to index per-worker scratch state without locking. The calling
     * thread is worker 0, and the sequential fallback runs everything
     * as worker 0.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    int numThreads() const { return static_cast<int>(threads_.size()); }

    /** Jobs queued but not yet picked up by a worker. */
    size_t queueDepth() const;

    /** Jobs retired since construction. */
    uint64_t completedJobs() const;

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable jobReady_;   ///< queue became non-empty
    std::condition_variable queueSpace_; ///< queue dropped below capacity
    std::condition_variable allDone_;    ///< queue empty and no job running
    std::deque<std::function<void()>> queue_;
    size_t capacity_;
    size_t active_ = 0;      ///< jobs currently executing
    uint64_t completed_ = 0; ///< jobs retired
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_THREAD_POOL_H
