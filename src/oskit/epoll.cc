#include "oskit/epoll.h"

#include <algorithm>

#include "oskit/kernel.h"

namespace occlum::oskit {

EpollObject::~EpollObject()
{
    release_all();
}

void
EpollObject::release_all()
{
    interest_.for_each([this](size_t, Entry &entry) {
        if (entry.live) {
            detach_watches(entry);
        }
    });
    interest_.clear();
    ready_.clear();
}

void
EpollObject::Ring::push_back(int fd)
{
    if (size_ == slots_.size()) {
        // Unroll into a buffer twice the size (a power of two).
        std::vector<int> grown(std::max<size_t>(16, 2 * slots_.size()));
        for (size_t i = 0; i < size_; ++i) {
            grown[i] = at(i);
        }
        slots_.swap(grown);
        head_ = 0;
    }
    slots_[(head_ + size_) & mask()] = fd;
    ++size_;
}

int
EpollObject::Ring::pop_front()
{
    int fd = slots_[head_];
    head_ = (head_ + 1) & mask();
    --size_;
    return fd;
}

void
EpollObject::Ring::remove(int fd)
{
    size_t kept = 0;
    for (size_t i = 0; i < size_; ++i) {
        int v = at(i);
        if (v != fd) {
            slots_[(head_ + kept++) & mask()] = v;
        }
    }
    size_ = kept;
}

void
EpollObject::release(int fd, Entry &entry)
{
    detach_watches(entry);
    if (entry.queued) {
        ready_.remove(fd);
    }
    interest_.release(static_cast<size_t>(fd));
}

void
EpollObject::attach_watches(int fd, Entry &entry)
{
    // The read-side watch is unconditional: hangup and error edges
    // (peer close, writer gone) are delivered through read-queue
    // wakeups and are always reported, like poll()'s POLLERR/POLLHUP.
    entry.read_watch = {this, fd};
    entry.read_q = &entry.file->read_waiters();
    entry.read_q->add_watch(&entry.read_watch);
    if (entry.events & static_cast<uint64_t>(abi::kPollOut)) {
        entry.write_watch = {this, fd};
        entry.write_q = &entry.file->write_waiters();
        entry.write_q->add_watch(&entry.write_watch);
    }
}

void
EpollObject::detach_watches(Entry &entry)
{
    if (entry.read_q) {
        entry.read_q->remove_watch(&entry.read_watch);
        entry.read_q = nullptr;
    }
    if (entry.write_q) {
        entry.write_q->remove_watch(&entry.write_watch);
        entry.write_q = nullptr;
    }
}

void
EpollObject::enqueue_candidate(int fd, Entry &entry, uint64_t when)
{
    if (entry.queued) {
        // An earlier event landing sooner pulls the due time forward.
        entry.due = std::min(entry.due, when);
        return;
    }
    entry.queued = true;
    entry.due = when;
    ready_.push_back(fd);
}

bool
EpollObject::reaches(const EpollObject *target) const
{
    bool found = false;
    interest_.for_each([&](size_t, const Entry &entry) {
        if (found || !entry.live ||
            entry.file->kind() != FileKind::kEpoll) {
            return;
        }
        auto *nested = static_cast<const EpollObject *>(entry.file.get());
        found = nested == target || nested->reaches(target);
    });
    return found;
}

void
EpollObject::prime_entry(Kernel &kernel, int fd, Entry &entry)
{
    // ADD/MOD-time readiness: a level that is already high, or data
    // already in flight, produces no future wake_queue notification —
    // the entry must become a candidate now or the event is lost.
    uint64_t bits =
        entry.file->poll_ready(kernel) &
        (entry.events |
         static_cast<uint64_t>(abi::kPollErr | abi::kPollHup));
    uint64_t now = kernel.clock().cycles();
    if (bits != 0) {
        enqueue_candidate(fd, entry, now);
        // Propagate to this epoll's own waiters/watchers (a blocked
        // epoll_wait on a shared fd, or a parent epoll nesting us).
        kernel.wake_queue(read_waiters(), now);
        return;
    }
    uint64_t due = entry.file->next_event_time(kernel);
    if (due != ~0ull) {
        enqueue_candidate(fd, entry, due);
        kernel.wake_queue(read_waiters(), due);
    }
}

Result<int64_t>
EpollObject::add(Kernel &kernel, int fd, const FilePtr &file,
                 uint64_t events)
{
    if (contains(fd)) {
        return Error(ErrorCode::kExist, "epoll_ctl: fd already added");
    }
    if (file.get() == this) {
        return Error(ErrorCode::kLoop, "epoll_ctl: self-add");
    }
    if (file->kind() == FileKind::kEpoll &&
        static_cast<EpollObject *>(file.get())->reaches(this)) {
        return Error(ErrorCode::kLoop, "epoll_ctl: watch cycle");
    }
    Entry &entry = interest_.claim(static_cast<size_t>(fd));
    entry.live = true;
    entry.file = file;
    entry.edge = (events & static_cast<uint64_t>(abi::kEpollEt)) != 0;
    entry.events = events & ~static_cast<uint64_t>(abi::kEpollEt);
    attach_watches(fd, entry);
    prime_entry(kernel, fd, entry);
    return 0;
}

Result<int64_t>
EpollObject::modify(Kernel &kernel, int fd, uint64_t events)
{
    Entry *found = find(fd);
    if (!found) {
        return Error(ErrorCode::kNoEnt, "epoll_ctl: fd not watched");
    }
    Entry &entry = *found;
    detach_watches(entry);
    entry.edge = (events & static_cast<uint64_t>(abi::kEpollEt)) != 0;
    entry.events = events & ~static_cast<uint64_t>(abi::kEpollEt);
    attach_watches(fd, entry);
    // MOD re-arms: re-evaluate readiness under the new mask (Linux
    // does the same wakeup check in ep_modify).
    if (!entry.queued) {
        prime_entry(kernel, fd, entry);
    }
    return 0;
}

Result<int64_t>
EpollObject::remove(int fd)
{
    Entry *entry = find(fd);
    if (!entry) {
        return Error(ErrorCode::kNoEnt, "epoll_ctl: fd not watched");
    }
    release(fd, *entry);
    return 0;
}

void
EpollObject::forget_fd(int fd)
{
    if (Entry *entry = find(fd)) {
        release(fd, *entry);
    }
}

void
EpollObject::on_source_event(Kernel &kernel, int fd, uint64_t when)
{
    Entry *entry = find(fd);
    if (!entry) {
        return;
    }
    enqueue_candidate(fd, *entry, when);
    // Recursive wake: blocked epoll_wait callers get their retry (or
    // a timer at `when` for in-flight data), and any parent epoll
    // watching this epoll fd gets the same notification — nesting
    // falls out of the same mechanism.
    kernel.wake_queue(read_waiters(), when);
}

int64_t
EpollObject::collect(Kernel &kernel, IoBuffer &out, uint64_t max_events,
                     uint64_t &min_due)
{
    uint64_t now = kernel.clock().cycles();
    int64_t n = 0;
    // One pass over the candidates queued now; nothing this loop calls
    // queues more. Kept candidates go back on the end as they are
    // seen, so they rotate in their original relative order (fairness
    // across busy fds).
    size_t pending = ready_.size();
    while (pending-- > 0) {
        int fd = ready_.pop_front();
        Entry *found = find(fd);
        if (!found || !found->queued) {
            continue; // stale: removed or already dequeued
        }
        Entry &entry = *found;
        if (n == static_cast<int64_t>(max_events)) {
            ready_.push_back(fd); // out of room this call; keep queued
            continue;
        }
        if (entry.due > now) {
            // In-flight: stays a candidate; the caller blocks no
            // later than this.
            min_due = std::min(min_due, entry.due);
            ready_.push_back(fd);
            continue;
        }
        uint64_t bits =
            entry.file->poll_ready(kernel) &
            (entry.events |
             static_cast<uint64_t>(abi::kPollErr | abi::kPollHup));
        if (bits != 0) {
            const int64_t event[2] = {fd, static_cast<int64_t>(bits)};
            out.store(static_cast<uint64_t>(n) * sizeof(event),
                      reinterpret_cast<const uint8_t *>(event),
                      sizeof(event));
            ++n;
            if (entry.edge) {
                // Edge-triggered: consumed. The next wake_queue
                // notification (a genuinely new edge) re-queues it.
                entry.queued = false;
            } else {
                ready_.push_back(fd); // level-triggered: still high
            }
            continue;
        }
        uint64_t due = entry.file->next_event_time(kernel);
        if (due != ~0ull && due > now) {
            entry.due = due;
            min_due = std::min(min_due, due);
            ready_.push_back(fd);
        } else {
            entry.queued = false; // spurious candidate: drop
        }
    }
    return n;
}

uint64_t
EpollObject::poll_ready(Kernel &kernel)
{
    uint64_t now = kernel.clock().cycles();
    for (size_t i = 0; i < ready_.size(); ++i) {
        const Entry *found = find(ready_.at(i));
        if (!found || !found->queued) {
            continue;
        }
        const Entry &entry = *found;
        if (entry.due > now) {
            continue;
        }
        uint64_t bits =
            entry.file->poll_ready(kernel) &
            (entry.events |
             static_cast<uint64_t>(abi::kPollErr | abi::kPollHup));
        if (bits != 0) {
            return static_cast<uint64_t>(abi::kPollIn);
        }
    }
    return 0;
}

uint64_t
EpollObject::next_event_time(Kernel &kernel)
{
    uint64_t now = kernel.clock().cycles();
    uint64_t min_due = ~0ull;
    for (size_t i = 0; i < ready_.size(); ++i) {
        const Entry *found = find(ready_.at(i));
        if (!found || !found->queued) {
            continue;
        }
        uint64_t due = found->due;
        if (due > now) {
            min_due = std::min(min_due, due);
        }
    }
    return min_due;
}

void
EpollObject::on_fd_release(Kernel &kernel)
{
    (void)kernel;
    if (--fd_refs_ == 0) {
        release_all();
    }
}

} // namespace occlum::oskit
