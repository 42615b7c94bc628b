/// \file
/// Fixed-size thread pool with a work-stealing task queue.
///
/// The CAD layer builds RR graph rows, routes partition bins, and runs
/// independent flow jobs concurrently; all are coarse tasks
/// (microseconds to seconds), so the pool optimizes for simplicity and
/// predictable shutdown rather than nanosecond dispatch. Each worker owns a
/// deque: submissions are distributed round-robin, a worker pops its own
/// deque from the back and steals from the front of a victim's deque when
/// it runs dry, so a burst of uneven tasks balances itself without a
/// central bottleneck.
///
/// Determinism contract: the pool never decides *what* is computed, only
/// *when*. Callers that need bit-reproducible results must make each task a
/// pure function of its inputs (see Rng::derive_seed) and combine task
/// results in task-index order, never completion order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace afpga::base {

class ThreadPool {
public:
    /// Cap on a worker count that arrives from outside the program (a wire
    /// option, a daemon flag, AFPGA_THREADS); callers check it by name
    /// before constructing a pool.
    static constexpr std::size_t kMaxWorkers = 256;

    /// `workers == 0` means default_workers().
    explicit ThreadPool(std::size_t workers = 0);
    /// Drains remaining tasks, then joins every worker.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;             ///< non-copyable
    ThreadPool& operator=(const ThreadPool&) = delete;  ///< non-copyable

    /// Number of worker threads (fixed at construction).
    [[nodiscard]] std::size_t num_workers() const noexcept { return queues_.size(); }

    /// Enqueue a nullary callable; the future carries its result or exception.
    template <typename F>
    auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
        std::future<R> fut = task->get_future();
        enqueue([task] { (*task)(); });
        return fut;
    }

    /// Run fn(0) .. fn(n-1) on the pool and block until all complete. The
    /// first task exception (lowest index) is rethrown after all finish.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// Worker count used for `workers == 0`: the AFPGA_THREADS environment
    /// variable when set to a positive integer (CI pins pool sizes through
    /// it), otherwise std::thread::hardware_concurrency(), never below 1.
    [[nodiscard]] static std::size_t default_workers();

private:
    /// One worker's deque. The owner pops the back (most recently enqueued,
    /// cache-warm), thieves take the front, so idle workers drain the
    /// longest-waiting work first.
    struct Queue {
        std::mutex mu;
        std::deque<std::function<void()>> tasks;
    };

    void enqueue(std::function<void()> task);
    void worker_loop(std::size_t self);
    [[nodiscard]] bool try_take(std::size_t self, std::function<void()>& out);

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;

    // Sleep/wake state: pending_ counts queued-but-unstarted tasks; workers
    // wait on cv_ when every deque is empty.
    std::mutex sleep_mu_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
    bool stop_ = false;
    std::size_t next_queue_ = 0;  ///< round-robin submission cursor
};

}  // namespace afpga::base
