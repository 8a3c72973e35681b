/**
 * @file
 * File-descriptor objects shared by every OS personality: pipes,
 * console, sockets. Personalities add their own file-system backed
 * objects (plain host files for the Linux model, encrypted-FS files
 * for Occlum, protected read-only files for the EIP baseline).
 */
#ifndef OCCLUM_OSKIT_FILE_OBJECT_H
#define OCCLUM_OSKIT_FILE_OBJECT_H

#include <memory>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "base/result.h"
#include "host/host.h"
#include "oelf/abi.h"
#include "vm/address_space.h"

namespace occlum::oskit {

class Kernel;
struct Process;
class EpollObject;

/**
 * One epoll interest entry's subscription to a source wait queue.
 * Registered on the watched file's read/write WaitQueue; when the
 * kernel notifies that queue, the watch routes the event straight to
 * its (epoll, fd) pair — O(watchers), never a scan of the epoll's
 * interest list.
 */
struct EpollWatch {
    EpollObject *epoll = nullptr;
    int fd = -1;
};

/**
 * A readiness wait queue: the set of blocked processes to wake when
 * an object's state changes (data arrived, space freed, peer closed,
 * child died). Queues never decide *when* the woken process runs —
 * the kernel re-dispatches woken processes in ascending-pid order at
 * the position the old retry-polling scheduler would have retried
 * them, which keeps the simulated cycle stream bit-identical.
 *
 * A process may wait on several queues at once (poll()); membership
 * is mirrored in Process::waiting_on so any wake detaches it from
 * every queue it joined.
 */
class WaitQueue
{
  public:
    WaitQueue() = default;
    ~WaitQueue();
    WaitQueue(const WaitQueue &) = delete;
    WaitQueue &operator=(const WaitQueue &) = delete;

    /** Register a blocked process (idempotent). */
    void add(Process *proc);
    /** Drop one process (no-op if absent). */
    void remove(Process *proc);
    /**
     * Detach every waiter into `out` (emptied first), in queue order,
     * emptying the queue. The two swap storage, so a queue that wakes
     * and refills again and again never allocates.
     */
    void take(std::vector<Process *> &out);

    /** The current waiters, without detaching them. */
    const std::vector<Process *> &peek() const { return waiters_; }

    bool empty() const { return waiters_.empty(); }

    /**
     * Epoll subscriptions on this queue. Unlike waiters, watches are
     * persistent: a notification does not detach them (that is what
     * makes edge re-arming work). The EpollObject owns the watch
     * storage and detaches it when the interest entry goes away; an
     * interest entry holds a strong reference to the watched file, so
     * a queue never outlives its watches' owners nor vice versa.
     */
    void add_watch(EpollWatch *watch);
    void remove_watch(EpollWatch *watch);
    const std::vector<EpollWatch *> &watches() const { return watches_; }

  private:
    std::vector<Process *> waiters_;
    std::vector<EpollWatch *> watches_;
};

/** Result of a read/write attempt on a file object. */
struct IoResult {
    int64_t value = 0;      // >=0 bytes / result, <0 -errno
    bool would_block = false;
    uint64_t wake_time = ~0ull; // earliest useful retry (cycles), if known

    static IoResult
    ok(int64_t v)
    {
        IoResult r;
        r.value = v;
        return r;
    }

    static IoResult
    err(ErrorCode code)
    {
        IoResult r;
        r.value = -static_cast<int64_t>(code);
        return r;
    }

    static IoResult
    block(uint64_t wake = ~0ull)
    {
        IoResult r;
        r.would_block = true;
        r.wake_time = wake;
        return r;
    }
};

/**
 * The bytes of one read or write: a plain host buffer, or a syscall's
 * user range resolved once (AddressSpace::resolve_raw) so that a file
 * object moves bytes straight between the guest's pages and its own
 * storage. Offsets are relative to the start of the buffer; callers
 * stay inside size().
 */
class IoBuffer
{
  public:
    IoBuffer(uint8_t *data, uint64_t len) : flat_(data), len_(len) {}
    IoBuffer(const uint8_t *data, uint64_t len)
        : IoBuffer(const_cast<uint8_t *>(data), len)
    {}
    /** [addr, addr+len) of `space`, whose pages resolve_raw put in
     *  `pages`; `pages` must outlive the buffer. */
    IoBuffer(vm::AddressSpace &space, uint64_t addr, uint64_t len,
             const std::vector<vm::Page *> &pages)
        : space_(&space), pages_(pages.data()), addr_(addr), len_(len)
    {}

    uint64_t size() const { return len_; }

    /** Copy [off, off+n) of the buffer to `dst`. */
    void load(uint64_t off, uint8_t *dst, uint64_t n) const;
    /** Copy `n` bytes from `src` to [off, off+n) of the buffer. */
    void store(uint64_t off, const uint8_t *src, uint64_t n);

  private:
    uint8_t *flat_ = nullptr; // a plain buffer, else null
    vm::AddressSpace *space_ = nullptr;
    vm::Page *const *pages_ = nullptr;
    uint64_t addr_ = 0;
    uint64_t len_ = 0;
};

/** What the kernel needs to know about an fd's object without a
 *  dynamic_cast: the syscalls that only take one kind check this. */
enum class FileKind : uint8_t {
    kOther,
    kListener,
    kEpoll,
};

/** Base class for everything an fd can point at. */
class FileObject
{
  public:
    explicit FileObject(FileKind kind = FileKind::kOther) : kind_(kind) {}
    virtual ~FileObject() = default;

    FileKind kind() const { return kind_; }

    /**
     * The read/write/sock_recv/sock_send syscalls' entry points. The
     * defaults stage the bytes through the kernel's buffer and call
     * read()/write(), since file-system files charge per call and need
     * one contiguous buffer; pipes, sockets and the console override
     * them to copy straight between the user's pages and their storage.
     */
    virtual IoResult read_user(Kernel &kernel, IoBuffer &dst);
    virtual IoResult write_user(Kernel &kernel, const IoBuffer &src);

    virtual IoResult
    read(Kernel &kernel, uint8_t *buf, uint64_t len)
    {
        (void)kernel;
        (void)buf;
        (void)len;
        return IoResult::err(ErrorCode::kInval);
    }

    virtual IoResult
    write(Kernel &kernel, const uint8_t *buf, uint64_t len)
    {
        (void)kernel;
        (void)buf;
        (void)len;
        return IoResult::err(ErrorCode::kInval);
    }

    virtual Result<int64_t>
    seek(int64_t offset, int whence)
    {
        (void)offset;
        (void)whence;
        return Error(ErrorCode::kSPipe, "not seekable");
    }

    virtual int64_t size() const { return -1; }

    virtual Status
    fsync(Kernel &kernel)
    {
        (void)kernel;
        return Status();
    }

    /** Called when an fd referencing this object is installed. */
    virtual void on_fd_acquire() {}
    /** Called when an fd referencing this object is closed. */
    virtual void on_fd_release(Kernel &kernel) { (void)kernel; }

    /**
     * Does -EPIPE from write() carry the default-fatal SIGPIPE
     * semantics? True for pipes and connected sockets (the kernel
     * kills the writer, as POSIX's default disposition does); false
     * for objects where EPIPE is an ordinary error return.
     */
    virtual bool epipe_kills() const { return false; }

    /**
     * Wait queues for readers/writers blocked on this object. Pipe
     * ends share their Pipe's queues (both ends wake the peer); every
     * other object owns its own pair.
     */
    virtual WaitQueue &read_waiters() { return read_waiters_; }
    virtual WaitQueue &write_waiters() { return write_waiters_; }

    /**
     * Current poll() readiness (abi::kPoll* bits). Regular files and
     * the console never block, so the default is always-ready.
     */
    virtual uint64_t
    poll_ready(Kernel &kernel)
    {
        (void)kernel;
        return static_cast<uint64_t>(abi::kPollIn | abi::kPollOut);
    }

    /**
     * Earliest future simulated cycle at which poll_ready() may gain
     * bits without any wait-queue notification (e.g. a network chunk
     * already in flight). ~0 = only explicit wakeups can change it.
     */
    virtual uint64_t
    next_event_time(Kernel &kernel)
    {
        (void)kernel;
        return ~0ull;
    }

  private:
    FileKind kind_;
    WaitQueue read_waiters_;
    WaitQueue write_waiters_;
};

using FilePtr = std::shared_ptr<FileObject>;

/**
 * lseek's position arithmetic, shared by every seekable file: resolve
 * `whence` against the current offset `cur` or the file `size`, add
 * `offset` without signed overflow, and return the new position.
 * kInval for an unknown whence, a negative result, or a sum past
 * INT64_MAX (a hostile SIP's `lseek(fd, INT64_MAX, SEEK_END)`).
 */
Result<int64_t> resolve_seek(uint64_t cur, uint64_t size, int64_t offset,
                             int whence);

/**
 * An in-kernel pipe. Both personalities use it; the *cost* of moving
 * bytes differs (Occlum/Linux copy, EIP encrypts through untrusted
 * memory) and is charged by the kernel around the byte movement.
 *
 * The bytes live in a fixed ring of kCapacity, allocated on the first
 * write and freed with the Pipe, so moving bytes never allocates:
 * push() and pop() copy straight between the ring and the caller's
 * buffer (a user range's pages), split at the wrap point.
 */
class Pipe
{
  public:
    static constexpr size_t kCapacity = 65536;

    int readers = 0;
    int writers = 0;

    // Shared by both PipeEnd objects: a write on one end wakes
    // readers blocked on the other, and vice versa.
    WaitQueue read_waiters;
    WaitQueue write_waiters;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Append the first min(src.size(), room) bytes of `src`;
     *  returns how many. */
    size_t push(const IoBuffer &src);
    /** Remove min(dst.size(), size()) bytes into `dst`; returns how
     *  many. */
    size_t pop(IoBuffer &dst);
    size_t push(const uint8_t *src, size_t len)
    {
        return push(IoBuffer(src, len));
    }
    size_t pop(uint8_t *dst, size_t len)
    {
        IoBuffer buf(dst, len);
        return pop(buf);
    }

    bool
    can_write() const
    {
        return size_ < kCapacity;
    }

  private:
    std::unique_ptr<uint8_t[]> ring_; // kCapacity bytes once written
    size_t head_ = 0;                 // ring offset of the oldest byte
    size_t size_ = 0;
};

/** One end of a pipe. */
class PipeEnd : public FileObject
{
  public:
    PipeEnd(std::shared_ptr<Pipe> pipe, bool is_read_end)
        : pipe_(std::move(pipe)), read_end_(is_read_end)
    {}

    IoResult read(Kernel &kernel, uint8_t *buf, uint64_t len) override
    {
        IoBuffer dst(buf, len);
        return read_user(kernel, dst);
    }
    IoResult write(Kernel &kernel, const uint8_t *buf,
                   uint64_t len) override
    {
        return write_user(kernel, IoBuffer(buf, len));
    }
    IoResult read_user(Kernel &kernel, IoBuffer &dst) override;
    IoResult write_user(Kernel &kernel, const IoBuffer &src) override;
    void on_fd_acquire() override;
    void on_fd_release(Kernel &kernel) override;

    bool is_read_end() const { return read_end_; }
    Pipe &pipe() { return *pipe_; }
    bool epipe_kills() const override { return true; }

    WaitQueue &read_waiters() override { return pipe_->read_waiters; }
    WaitQueue &write_waiters() override { return pipe_->write_waiters; }
    uint64_t poll_ready(Kernel &kernel) override;

  private:
    std::shared_ptr<Pipe> pipe_;
    bool read_end_;
};

/** The controlling console: stdout/stderr capture, EOF stdin. */
class Console : public FileObject
{
  public:
    explicit Console(std::string *sink) : sink_(sink) {}

    IoResult
    read_user(Kernel &, IoBuffer &) override
    {
        return IoResult::ok(0); // EOF
    }

    IoResult
    write_user(Kernel &, const IoBuffer &src) override
    {
        size_t old = sink_->size();
        sink_->resize(old + src.size());
        src.load(0, reinterpret_cast<uint8_t *>(sink_->data() + old),
                 src.size());
        return IoResult::ok(static_cast<int64_t>(src.size()));
    }

  private:
    std::string *sink_;
};

/** A connected TCP-like socket (server side lives in a process). */
class SocketFile : public FileObject
{
  public:
    SocketFile(host::NetSim *net, host::NetSim::Connection *conn,
               bool at_server)
        : net_(net), conn_(conn), at_server_(at_server)
    {}

    IoResult read(Kernel &kernel, uint8_t *buf, uint64_t len) override
    {
        IoBuffer dst(buf, len);
        return read_user(kernel, dst);
    }
    IoResult write(Kernel &kernel, const uint8_t *buf,
                   uint64_t len) override
    {
        return write_user(kernel, IoBuffer(buf, len));
    }
    IoResult read_user(Kernel &kernel, IoBuffer &dst) override;
    IoResult write_user(Kernel &kernel, const IoBuffer &src) override;
    void on_fd_acquire() override { ++fd_refs_; }
    void on_fd_release(Kernel &kernel) override;
    uint64_t poll_ready(Kernel &kernel) override;
    uint64_t next_event_time(Kernel &kernel) override;
    bool epipe_kills() const override { return true; }

    bool at_server() const { return at_server_; }

  private:
    host::NetSim *net_;
    /** Null once the last fd is released: the connection may be gone,
     *  and every method reads as closed and drained. */
    host::NetSim::Connection *conn_;
    bool at_server_;
    int fd_refs_ = 0;
};

/** A listening socket bound to a port. */
class ListenerFile : public FileObject
{
  public:
    ListenerFile(host::NetSim *net, uint16_t port)
        : FileObject(FileKind::kListener), net_(net), port_(port)
    {}

    host::NetSim *net() { return net_; }
    uint16_t port() const { return port_; }

    void on_fd_acquire() override { ++fd_refs_; }
    void on_fd_release(Kernel &kernel) override;
    uint64_t poll_ready(Kernel &kernel) override;
    uint64_t next_event_time(Kernel &kernel) override;

  private:
    host::NetSim *net_;
    uint16_t port_;
    int fd_refs_ = 0;
};

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_FILE_OBJECT_H
