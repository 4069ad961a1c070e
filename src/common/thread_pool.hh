/**
 * @file
 * A fixed-size, work-stealing-free thread pool shared across the
 * toolchain. Five layers fan out over it with parallelFor(): the
 * exhaustive strategy's candidate compiles, the portfolio's member
 * compiles, runSweep's cells, GRAPE's segments (each sized by
 * forRequest()), and the statevector's complement-block loop.
 *
 * Design: one mutex-protected FIFO task queue, N-1 detachable worker
 * threads plus the calling thread (which always participates in
 * parallelFor), and first-exception propagation back to the caller.
 * There is deliberately no work stealing: tasks are coarse (whole
 * candidate compiles, whole block ranges), so a single queue keeps the
 * implementation small and the scheduling deterministic enough to
 * reason about.
 *
 * Thread-safety: submit() and parallelFor() may be called from any
 * thread that is not itself a pool worker; parallelFor() called *from*
 * a worker runs the range inline (no nested fan-out, no deadlock).
 */

#ifndef QOMPRESS_COMMON_THREAD_POOL_HH
#define QOMPRESS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

namespace qompress {

class ThreadPool
{
  public:
    /**
     * Create a pool with @p threads total lanes of parallelism.
     *
     * Lane 0 is the calling thread (it participates in parallelFor),
     * so only threads-1 OS threads are spawned; threads <= 1 spawns
     * none and every operation runs inline.
     */
    explicit ThreadPool(int threads);

    /** Joins all workers; pending submitted tasks are still drained. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (worker threads + the participating caller). */
    int numThreads() const { return threads_; }

    /**
     * Enqueue @p fn for execution on a worker; the returned future
     * delivers its result or rethrows its exception. With no workers
     * (numThreads() <= 1) the task runs inline before returning.
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<decltype(fn())>
    {
        using R = decltype(fn());
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        if (workers_.empty()) {
            (*task)();
            return fut;
        }
        enqueue([task] { (*task)(); });
        return fut;
    }

    /**
     * Run fn(i, lane) for every i in [begin, end), spread across the
     * workers and the calling thread.
     *
     * @p lane is a stable slot in [0, numThreads()): *within one
     * parallelFor invocation* at most one thread runs with a given
     * lane at a time, so callers may index per-lane scratch state
     * owned by that invocation (e.g. one CompileContext per lane)
     * without locking. The guarantee does not span concurrent
     * parallelFor calls from different threads on the same pool —
     * scratch shared across invocations needs its own synchronization.
     * Iteration order within a lane is ascending but
     * interleaving across lanes is unspecified; the function must not
     * rely on cross-index ordering. The first exception thrown by any
     * invocation is rethrown on the calling thread after all lanes
     * drain. Calls from inside a pool worker run the range inline on
     * lane 0 (nested parallelism is not expanded).
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t i, int lane)> &fn);

    /** The process-wide pool, sized by defaultThreadCount() on first
     *  use (thread-safe construction, never destroyed before exit). */
    static ThreadPool &global();

    /**
     * Lanes the global pool is built with: the QOMPRESS_THREADS
     * environment variable when set to a positive integer, else
     * std::thread::hardware_concurrency() (minimum 1).
     */
    static int defaultThreadCount();

    /** True when the current thread is a worker of *any* ThreadPool
     *  (used to keep nested parallelFor calls inline). */
    static bool onWorkerThread();

    /**
     * Resolve a lane-count request (the CompilerConfig::threads /
     * GrapeOptions::threads convention: 0 = process default, 1 =
     * serial, N = exactly N lanes) to a pool, or nullptr when the
     * caller should run serially.
     *
     * Returns nullptr when the request resolves to one lane or the
     * calling thread is already a pool worker (nested fan-out
     * degrades to inline execution); the global pool when the request
     * matches defaultThreadCount() (never force-sizes the global pool
     * to a mismatching request); otherwise a private pool constructed
     * into @p own. A still-live pool already in @p own is reused when
     * its lane count matches, so callers holding the optional across
     * hot iterations (e.g. GrapeWorkspace) spawn threads once; on any
     * other outcome @p own is reset so a stale private pool's idle
     * threads are not kept alive.
     */
    static ThreadPool *forRequest(int threads,
                                  std::optional<ThreadPool> &own);

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    int threads_;
    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> queue_;
    bool stopping_ = false;
};

} // namespace qompress

#endif // QOMPRESS_COMMON_THREAD_POOL_HH
