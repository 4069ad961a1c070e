#include "common/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/error.hh"

namespace qompress {

namespace {

/** Set while a thread is draining parallelFor work — for workers the
 *  whole loop, for the calling thread its lane-0 drain. Read by
 *  parallelFor and forRequest so nested fan-out degrades to inline
 *  execution: from a worker to avoid deadlocking its own pool, from
 *  the caller so a nested sweep can never run concurrently with the
 *  outer sweep's lanes (which would break per-lane scratch
 *  exclusivity). */
thread_local bool t_on_worker = false;

/** The process-wide pool forRequest hands out for default-sized
 *  requests (thread-safe construction, never destroyed before exit). */
ThreadPool &
globalPool()
{
    static ThreadPool pool(ThreadPool::defaultThreadCount());
    return pool;
}

} // namespace

ThreadPool::ThreadPool(int threads)
    : threads_(threads < 1 ? 1 : threads)
{
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int w = 1; w < threads_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

std::future<void>
ThreadPool::enqueue(std::function<void()> fn)
{
    std::packaged_task<void()> task(std::move(fn));
    std::future<void> done = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mu_);
        QPANIC_IF(stopping_, "ThreadPool: enqueue after shutdown");
        queue_.push(std::move(task));
    }
    cv_.notify_one();
    return done;
}

void
ThreadPool::workerLoop()
{
    t_on_worker = true;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task(); // a packaged_task captures its own errors
    }
}

void
ThreadPool::parallelFor(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t i, int lane)> &fn)
{
    if (begin >= end)
        return;

    // Inline paths: trivial range, no workers, or already on a worker
    // (nested fan-out would block a lane on work only that lane can
    // run; running inline is always correct because lanes only gate
    // scratch-state aliasing, not results).
    if (end - begin == 1 || workers_.empty() || t_on_worker) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i, 0);
        return;
    }

    struct Shared
    {
        std::atomic<std::size_t> next;
        std::mutex err_mu;
        std::exception_ptr first_error;
    };
    auto shared = std::make_shared<Shared>();
    shared->next.store(begin, std::memory_order_relaxed);

    auto drain = [shared, end, &fn](int lane) {
        for (;;) {
            // Stop grabbing work once any lane failed: remaining
            // indices are abandoned, matching "first exception wins".
            {
                std::lock_guard<std::mutex> lock(shared->err_mu);
                if (shared->first_error)
                    return;
            }
            const std::size_t i =
                shared->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                return;
            try {
                fn(i, lane);
            } catch (...) {
                std::lock_guard<std::mutex> lock(shared->err_mu);
                if (!shared->first_error)
                    shared->first_error = std::current_exception();
                return;
            }
        }
    };

    // One drainer per worker lane; the caller drains as lane 0 with
    // the worker flag raised so its fn bodies count as "on a worker"
    // (nested sweeps inline). The futures double as the join barrier.
    // If enqueue() itself throws (task allocation failure), flag
    // first_error so already-running drainers stop grabbing work, then
    // fall through to the join below — fn and the caller's scratch
    // must outlive every enqueued drainer before we rethrow.
    const int lanes = threads_;
    std::vector<std::future<void>> joins;
    joins.reserve(static_cast<std::size_t>(lanes - 1));
    std::exception_ptr enqueue_error;
    try {
        for (int lane = 1; lane < lanes; ++lane)
            joins.push_back(enqueue([drain, lane] { drain(lane); }));
    } catch (...) {
        enqueue_error = std::current_exception();
        std::lock_guard<std::mutex> lock(shared->err_mu);
        if (!shared->first_error)
            shared->first_error = enqueue_error;
    }
    if (!enqueue_error) {
        t_on_worker = true;
        drain(0); // never throws; errors land in first_error
        t_on_worker = false;
    }
    for (auto &f : joins)
        f.get();

    if (enqueue_error)
        std::rethrow_exception(enqueue_error);
    if (shared->first_error)
        std::rethrow_exception(shared->first_error);
}

int
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("QOMPRESS_THREADS")) {
        try {
            const int n = std::stoi(env);
            if (n >= 1)
                return n;
        } catch (...) {
            // fall through to hardware_concurrency
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool &
ThreadPool::forRequest(int threads, std::optional<ThreadPool> &own)
{
    int want = threads > 0 ? threads : defaultThreadCount();
    if (t_on_worker)
        want = 1; // nested fan-out runs inline on one lane
    if (want > 1 && want == defaultThreadCount()) {
        own.reset(); // don't keep a stale private pool's threads alive
        return globalPool();
    }
    if (!own || own->numThreads() != want)
        own.emplace(want);
    return *own;
}

} // namespace qompress
