/**
 * @file
 * Kernel-side epoll: an interest list keyed by fd with a per-epoll
 * ready list, so kEpollWait dispatches O(active) instead of
 * re-scanning every interested fd the way kPoll does.
 *
 * Design (DESIGN.md §3.3):
 *  - Each interest entry holds a strong reference to the watched
 *    FileObject plus up to two EpollWatch subscriptions registered on
 *    the file's read/write WaitQueues. Kernel::wake_queue routes every
 *    notification it would deliver to waiters through the queue's
 *    watches as well, which moves the entry's fd onto this epoll's
 *    ready list and recursively wakes the epoll's own read waiters —
 *    that recursion is what makes epoll fds nest inside other epolls.
 *  - The ready list holds *candidates*: fds whose readiness may have
 *    changed, each stamped with the simulated cycle at which the
 *    event lands (future for in-flight network data). collect()
 *    verifies candidates against poll_ready() at dispatch time, so a
 *    spurious notification costs O(1) and never surfaces to the user.
 *  - Level-triggered entries stay on the ready list while ready;
 *    edge-triggered entries are dequeued when reported and only
 *    re-queued by the next wake_queue notification — i.e. after the
 *    level drains and re-arms, matching EPOLLET.
 *
 * The EpollObject is itself a pollable FileObject (POLLIN when any
 * candidate is due and ready), subject to the normal fd lifecycle.
 */
#ifndef OCCLUM_OSKIT_EPOLL_H
#define OCCLUM_OSKIT_EPOLL_H

#include <vector>

#include "oskit/file_object.h"
#include "oskit/leaf_table.h"

namespace occlum::oskit {

class EpollObject : public FileObject
{
  public:
    EpollObject() : FileObject(FileKind::kEpoll) {}
    ~EpollObject() override;

    /**
     * EPOLL_CTL_ADD. `events` is a mask of abi::kPoll* bits plus the
     * optional abi::kEpollEt flag. Errors: EEXIST if fd is already in
     * the interest list, ELOOP if adding `file` would create a watch
     * cycle (self-add or a nested epoll that reaches back here).
     */
    Result<int64_t> add(Kernel &kernel, int fd, const FilePtr &file,
                        uint64_t events);
    /** EPOLL_CTL_MOD. ENOENT if fd is not in the interest list. */
    Result<int64_t> modify(Kernel &kernel, int fd, uint64_t events);
    /** EPOLL_CTL_DEL. ENOENT if fd is not in the interest list. */
    Result<int64_t> remove(int fd);

    /**
     * Close of `fd` in the owning process: drop the interest entry if
     * present (no error if absent). Matches Linux's auto-removal of
     * closed descriptors from every epoll they were registered with.
     */
    void forget_fd(int fd);

    /**
     * A watched source queue fired for interest entry `fd` (called by
     * Kernel::wake_queue through the queue's EpollWatch list). `when`
     * is the simulated cycle the event lands; future events queue a
     * candidate stamped with that due time.
     */
    void on_source_event(Kernel &kernel, int fd, uint64_t when);

    /**
     * Pop up to `max_events` ready events into `out` as {fd, revents}
     * int64 pairs (out.size() holds at least max_events of them).
     * Level-triggered entries that remain ready stay queued;
     * edge-triggered entries are dequeued when reported. `min_due`
     * receives the earliest future candidate due time (for the caller's
     * block deadline). Cost is O(ready), never O(interested).
     */
    int64_t collect(Kernel &kernel, IoBuffer &out, uint64_t max_events,
                    uint64_t &min_due);

    /** True if `fd` is in the interest list. */
    bool contains(int fd) const { return find(fd) != nullptr; }
    /** Allocated leaves of the interest list (its memory). */
    size_t interest_leaves() const { return interest_.leaves(); }

    /** Watch-cycle check: can events from `target` reach this epoll? */
    bool reaches(const EpollObject *target) const;

    // ---- FileObject: an epoll fd is itself pollable ----------------
    uint64_t poll_ready(Kernel &kernel) override;
    uint64_t next_event_time(Kernel &kernel) override;
    void on_fd_acquire() override { ++fd_refs_; }
    void on_fd_release(Kernel &kernel) override;

  private:
    struct Entry {
        bool live = false;   // in the interest list
        FilePtr file;
        uint64_t events = 0; // requested abi::kPoll* bits
        bool edge = false;   // abi::kEpollEt
        bool queued = false; // on ready_ (invariant: queued ⟺ listed)
        uint64_t due = 0;    // cycle the queued event lands
        EpollWatch read_watch;
        EpollWatch write_watch;
        // The queues the watches were registered on (kept alive by
        // `file`), remembered so detach never guesses.
        WaitQueue *read_q = nullptr;
        WaitQueue *write_q = nullptr;
    };

    /**
     * The candidate list: fds in arrival order, in a ring that grows by
     * doubling and never shrinks, so queueing allocates nothing once it
     * has held the most candidates at once.
     */
    class Ring
    {
      public:
        size_t size() const { return size_; }
        bool empty() const { return size_ == 0; }
        int at(size_t i) const { return slots_[(head_ + i) & mask()]; }
        void push_back(int fd);
        int pop_front();
        /** Drop every occurrence of `fd`, keeping the others' order. */
        void remove(int fd);
        void clear() { head_ = size_ = 0; }

      private:
        size_t mask() const { return slots_.size() - 1; }
        std::vector<int> slots_;
        size_t head_ = 0;
        size_t size_ = 0;
    };

    /** The live entry of `fd`, or null. */
    Entry *
    find(int fd) const
    {
        Entry *entry =
            fd >= 0 ? interest_.find(static_cast<size_t>(fd)) : nullptr;
        return entry && entry->live ? entry : nullptr;
    }
    /** Free `entry`: detach its watches, leave the ready list. */
    void release(int fd, Entry &entry);
    /** Detach every live entry's watches and drop them all. */
    void release_all();

    void attach_watches(int fd, Entry &entry);
    void detach_watches(Entry &entry);
    /** Queue fd as a candidate (or pull its due time earlier). */
    void enqueue_candidate(int fd, Entry &entry, uint64_t when);
    /** Initial/MOD-time readiness probe: queue if ready or in-flight. */
    void prime_entry(Kernel &kernel, int fd, Entry &entry);

    /**
     * The interest list, indexed by fd (a dead slot is not `live`). A
     * LeafTable: each live entry's EpollWatches are registered on wait
     * queues by address, and a claimed entry never moves.
     */
    LeafTable<Entry> interest_;
    /** Invariant: an fd is on ready_ exactly once while its entry is
     *  live and `queued`, and never otherwise. */
    Ring ready_;
    int fd_refs_ = 0;
};

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_EPOLL_H
