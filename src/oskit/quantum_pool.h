/**
 * @file
 * A fixed pool of host threads that runs posted tasks, each of which
 * its poster later settles on its own: a task no thread has started
 * yet is taken back, one in flight is waited for. The kernel uses it
 * to pre-run CPU-bound processes' next quanta (DESIGN.md §3.4): each
 * is posted as soon as the process's current quantum ends on its
 * budget and runs while the walk finishes that round and starts the
 * next. The threads never decide a simulated result, they only
 * compute quanta the kernel then commits one by one in its usual
 * order.
 */
#ifndef OCCLUM_OSKIT_QUANTUM_POOL_H
#define OCCLUM_OSKIT_QUANTUM_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace occlum::oskit {

class QuantumPool
{
  public:
    /** One unit of work, posted and settled any number of times. */
    class Task
    {
      public:
        Task() = default;
        Task(const Task &) = delete;
        Task &operator=(const Task &) = delete;

      protected:
        ~Task() = default;

      private:
        friend class QuantumPool;
        virtual void run() = 0;

        enum State : int { kIdle, kQueued, kRunning, kDone };
        /** kQueued exactly while the task is in the pool's queue;
         *  both change under the pool's mutex. */
        std::atomic<int> state_{kIdle};
    };

    /**
     * A pool of `workers` host threads (0: post() runs each task on
     * the calling thread at once). The threads start with the first
     * post(): until a process has a second thread, glibc and
     * libstdc++ keep their single-threaded fast paths (unlocked
     * malloc arenas, plain shared_ptr counts), so a process that never
     * pre-runs a quantum must not pay for the pool.
     */
    explicit QuantumPool(int workers) : workers_(workers) {}
    ~QuantumPool();
    QuantumPool(const QuantumPool &) = delete;
    QuantumPool &operator=(const QuantumPool &) = delete;

    /**
     * Queue idle `tasks`. Threads take the most recently queued task
     * first: a poster that settles its tasks in posting order reaches
     * the first ones itself while the threads work from the back.
     */
    void post(std::span<Task *const> tasks);

    /**
     * Settle a posted task and leave it idle: take it back if no
     * thread has started it (false: it did not run), otherwise wait
     * until it is done (true). Everything a task that ran wrote is
     * visible to the caller afterwards.
     */
    bool settle(Task &task);

    /**
     * The process-wide pool: one worker per CPU of this process's
     * affinity mask beyond the first, or nullptr when the mask holds a
     * single CPU (a pre-run could only serialize the same work).
     */
    static QuantumPool *shared();

  private:
    void worker_main();

    const int workers_;
    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable work_cv_;
    /** Queued tasks, taken from the back. */
    std::vector<Task *> queue_;
    bool stopping_ = false;
};

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_QUANTUM_POOL_H
