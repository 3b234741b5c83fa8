/**
 * @file
 * Fixed-size worker thread pool and a deterministic parallel-for.
 *
 * The simulator's sweeps (bench figures, the differential test matrix)
 * are embarrassingly parallel: every (dataset, algorithm, machine) run
 * is an independent single-threaded simulation. The pool executes such
 * runs concurrently; callers keep determinism by indexing results with
 * the task's position in the submission order, never by completion
 * order. parallelFor() packages that pattern: body(i) runs exactly once
 * for every i in [0, n), concurrently on up to @c jobs threads, and with
 * jobs <= 1 it degenerates to a plain sequential loop on the calling
 * thread (no threads are created, byte-identical to the pre-pool code
 * path).
 */

#ifndef OMEGA_UTIL_THREAD_POOL_HH
#define OMEGA_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omega {

/** A fixed set of worker threads draining one FIFO task queue. */
class ThreadPool
{
  public:
    /** Spawn @p num_threads workers (at least one). */
    explicit ThreadPool(unsigned num_threads);

    /** Waits for queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; it runs on some worker, FIFO dispatch order. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished executing. */
    void wait();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * The machine's natural job count: the CPUs in this process's
     * affinity mask, or std::thread::hardware_concurrency (floored at 1,
     * since the standard allows it to report 0) where the mask cannot be
     * read.
     */
    static unsigned hardwareJobs();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable all_done_;
    std::deque<std::function<void()>> queue_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Run body(0) .. body(n-1), each exactly once, on up to @p jobs threads.
 *
 * Indices are handed out in order from a shared counter, so with one job
 * the execution order is exactly 0..n-1 on the calling thread. The body
 * must not touch shared mutable state (or must synchronize it); writing
 * result[i] from body(i) is the intended result-collection pattern and
 * is race-free. The first exception thrown by any body is rethrown on
 * the calling thread after all workers stop.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace omega

#endif // OMEGA_UTIL_THREAD_POOL_HH
