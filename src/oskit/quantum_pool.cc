#include "oskit/quantum_pool.h"

#include <sched.h>

#include <algorithm>

namespace occlum::oskit {

QuantumPool::~QuantumPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : threads_) {
        t.join();
    }
}

void
QuantumPool::worker_main()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (stopping_) {
            return;
        }
        Task *task = queue_.back();
        queue_.pop_back();
        task->state_ = Task::kRunning;
        lock.unlock();
        task->run();
        task->state_ = Task::kDone;
        task->state_.notify_one();
        lock.lock();
    }
}

void
QuantumPool::post(std::span<Task *const> tasks)
{
    if (tasks.empty()) {
        return;
    }
    if (workers_ == 0) {
        for (Task *task : tasks) {
            task->run();
            task->state_ = Task::kDone;
        }
        return;
    }
    if (threads_.empty()) {
        for (int i = 0; i < workers_; ++i) {
            threads_.emplace_back([this] { worker_main(); });
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (Task *task : tasks) {
            task->state_ = Task::kQueued;
            queue_.push_back(task);
        }
    }
    if (tasks.size() == 1) {
        work_cv_.notify_one();
    } else {
        work_cv_.notify_all();
    }
}

bool
QuantumPool::settle(Task &task)
{
    int state = task.state_.load();
    if (state == Task::kQueued) {
        std::lock_guard<std::mutex> lock(mu_);
        state = task.state_.load();
        if (state == Task::kQueued) {
            queue_.erase(std::find(queue_.begin(), queue_.end(), &task));
            task.state_ = Task::kIdle;
            return false;
        }
    }
    while (state == Task::kRunning) {
        task.state_.wait(Task::kRunning);
        state = task.state_.load();
    }
    task.state_ = Task::kIdle;
    return true;
}

QuantumPool *
QuantumPool::shared()
{
    static QuantumPool *pool = []() -> QuantumPool * {
        cpu_set_t set;
        CPU_ZERO(&set);
        int cpus = 1;
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            cpus = CPU_COUNT(&set);
        }
        if (cpus < 2) {
            return nullptr;
        }
        // Leaked on purpose: the workers must outlive every static
        // destructor that might still step a kernel.
        return new QuantumPool(cpus - 1);
    }();
    return pool;
}

} // namespace occlum::oskit
