#include "oskit/file_object.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "oskit/kernel.h"
#include "trace/trace.h"

namespace occlum::oskit {

Result<int64_t>
resolve_seek(uint64_t cur, uint64_t size, int64_t offset, int whence)
{
    uint64_t base = 0;
    switch (whence) {
      case static_cast<int>(abi::kSeekSet): base = 0; break;
      case static_cast<int>(abi::kSeekCur): base = cur; break;
      case static_cast<int>(abi::kSeekEnd): base = size; break;
      default:
        return Error(ErrorCode::kInval, "bad whence");
    }
    int64_t pos = 0;
    if (base > static_cast<uint64_t>(INT64_MAX) ||
        __builtin_add_overflow(static_cast<int64_t>(base), offset, &pos) ||
        pos < 0) {
        return Error(ErrorCode::kInval, "seek out of range");
    }
    return pos;
}

// ---------------------------------------------------------------------
// IoBuffer
// ---------------------------------------------------------------------

void
IoBuffer::load(uint64_t off, uint8_t *dst, uint64_t n) const
{
    if (flat_) {
        std::memcpy(dst, flat_ + off, n);
        return;
    }
    const uint64_t first = addr_ / vm::kPageSize;
    while (n > 0) {
        const uint64_t a = addr_ + off;
        const uint64_t chunk =
            std::min(n, vm::kPageSize - (a & vm::kPageMask));
        std::memcpy(dst,
                    vm::AddressSpace::page_bytes(
                        *pages_[a / vm::kPageSize - first]) +
                        (a & vm::kPageMask),
                    chunk);
        dst += chunk;
        off += chunk;
        n -= chunk;
    }
}

void
IoBuffer::store(uint64_t off, const uint8_t *src, uint64_t n)
{
    if (flat_) {
        std::memcpy(flat_ + off, src, n);
        return;
    }
    const uint64_t first = addr_ / vm::kPageSize;
    while (n > 0) {
        const uint64_t a = addr_ + off;
        const uint64_t chunk =
            std::min(n, vm::kPageSize - (a & vm::kPageMask));
        space_->store_raw(*pages_[a / vm::kPageSize - first], a, src,
                          chunk);
        src += chunk;
        off += chunk;
        n -= chunk;
    }
}

// ---------------------------------------------------------------------
// FileObject
// ---------------------------------------------------------------------

IoResult
FileObject::read_user(Kernel &kernel, IoBuffer &dst)
{
    uint8_t *staging = kernel.staging(dst.size());
    IoResult r = read(kernel, staging, dst.size());
    if (r.value > 0) {
        dst.store(0, staging, static_cast<uint64_t>(r.value));
    }
    return r;
}

IoResult
FileObject::write_user(Kernel &kernel, const IoBuffer &src)
{
    uint8_t *staging = kernel.staging(src.size());
    src.load(0, staging, src.size());
    return write(kernel, staging, src.size());
}

// ---------------------------------------------------------------------
// WaitQueue
// ---------------------------------------------------------------------

WaitQueue::~WaitQueue()
{
    // Normally empty by now (a blocked process keeps every object it
    // waits on alive through its own fd table, and Kernel teardown
    // detaches survivors); clean up back-pointers if not.
    for (Process *proc : waiters_) {
        auto &w = proc->waiting_on;
        w.erase(std::remove(w.begin(), w.end(), this), w.end());
    }
}

void
WaitQueue::add(Process *proc)
{
    if (std::find(waiters_.begin(), waiters_.end(), proc) ==
        waiters_.end()) {
        waiters_.push_back(proc);
    }
}

void
WaitQueue::remove(Process *proc)
{
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), proc),
                   waiters_.end());
}

void
WaitQueue::take(std::vector<Process *> &out)
{
    out.clear();
    out.swap(waiters_);
}

void
WaitQueue::add_watch(EpollWatch *watch)
{
    if (std::find(watches_.begin(), watches_.end(), watch) ==
        watches_.end()) {
        watches_.push_back(watch);
    }
}

void
WaitQueue::remove_watch(EpollWatch *watch)
{
    watches_.erase(
        std::remove(watches_.begin(), watches_.end(), watch),
        watches_.end());
}

// ---------------------------------------------------------------------
// Pipe
// ---------------------------------------------------------------------

size_t
Pipe::push(const IoBuffer &src)
{
    size_t n = std::min<size_t>(src.size(), kCapacity - size_);
    if (n == 0) {
        return 0;
    }
    if (!ring_) {
        ring_.reset(new uint8_t[kCapacity]);
    }
    size_t tail = (head_ + size_) % kCapacity;
    size_t first = std::min(n, kCapacity - tail);
    src.load(0, ring_.get() + tail, first);
    src.load(first, ring_.get(), n - first);
    size_ += n;
    return n;
}

size_t
Pipe::pop(IoBuffer &dst)
{
    size_t n = std::min<size_t>(dst.size(), size_);
    if (n == 0) {
        return 0;
    }
    size_t first = std::min(n, kCapacity - head_);
    dst.store(0, ring_.get() + head_, first);
    dst.store(first, ring_.get(), n - first);
    head_ = (head_ + n) % kCapacity;
    size_ -= n;
    return n;
}

// ---------------------------------------------------------------------
// PipeEnd
// ---------------------------------------------------------------------

void
PipeEnd::on_fd_acquire()
{
    if (read_end_) {
        ++pipe_->readers;
    } else {
        ++pipe_->writers;
    }
}

void
PipeEnd::on_fd_release(Kernel &kernel)
{
    if (read_end_) {
        if (--pipe_->readers == 0) {
            // Last reader gone: blocked writers must learn they will
            // never drain the pipe (EPIPE, SIGPIPE-shaped death).
            kernel.wake_queue(pipe_->write_waiters,
                              kernel.clock().cycles());
        }
    } else {
        if (--pipe_->writers == 0) {
            // Last writer gone: blocked readers see EOF.
            kernel.wake_queue(pipe_->read_waiters,
                              kernel.clock().cycles());
        }
    }
}

IoResult
PipeEnd::read_user(Kernel &kernel, IoBuffer &dst)
{
    if (!read_end_) {
        return IoResult::err(ErrorCode::kBadF);
    }
    if (pipe_->empty()) {
        if (pipe_->writers == 0) {
            return IoResult::ok(0); // EOF
        }
        return IoResult::block();
    }
    uint64_t n = pipe_->pop(dst);
    kernel.charge(kernel.pipe_op_cost() +
                  static_cast<uint64_t>(n * kernel.pipe_byte_cost()));
    if (n > 0) {
        // Freed capacity: wake writers blocked on a full pipe.
        kernel.wake_queue(pipe_->write_waiters, kernel.clock().cycles());
    }
    return IoResult::ok(static_cast<int64_t>(n));
}

IoResult
PipeEnd::write_user(Kernel &kernel, const IoBuffer &src)
{
    if (read_end_) {
        return IoResult::err(ErrorCode::kBadF);
    }
    if (pipe_->readers == 0) {
        return IoResult::err(ErrorCode::kPipe);
    }
    if (!pipe_->can_write()) {
        return IoResult::block();
    }
    uint64_t n = pipe_->push(src);
    kernel.charge(kernel.pipe_op_cost() +
                  static_cast<uint64_t>(n * kernel.pipe_byte_cost()));
    if (n > 0) {
        kernel.wake_queue(pipe_->read_waiters, kernel.clock().cycles());
    }
    return IoResult::ok(static_cast<int64_t>(n));
}

uint64_t
PipeEnd::poll_ready(Kernel &kernel)
{
    (void)kernel;
    uint64_t bits = 0;
    if (read_end_) {
        if (!pipe_->empty()) {
            bits |= static_cast<uint64_t>(abi::kPollIn);
        }
        if (pipe_->writers == 0) {
            // Writer gone is a hangup, not data: POLLIN here used to
            // send pollers into a 0-byte read loop on a drained pipe.
            // HUP is always reported, so the poller still wakes; the
            // read then sees a clean EOF.
            bits |= static_cast<uint64_t>(abi::kPollHup);
        }
    } else {
        if (pipe_->readers == 0) {
            bits |= static_cast<uint64_t>(abi::kPollErr);
        } else if (pipe_->can_write()) {
            bits |= static_cast<uint64_t>(abi::kPollOut);
        }
    }
    return bits;
}

// ---------------------------------------------------------------------
// SocketFile
// ---------------------------------------------------------------------

IoResult
SocketFile::read_user(Kernel &kernel, IoBuffer &dst)
{
    if (!conn_) {
        return IoResult::ok(0); // closed here: EOF
    }
    uint64_t next_arrival = ~0ull;
    size_t n = net_->recv_with(
        conn_, at_server_, dst.size(), kernel.clock().cycles(),
        next_arrival,
        [&dst](const uint8_t *src, size_t len) { dst.store(0, src, len); });
    if (n == 0) {
        if (net_->is_drained(conn_, at_server_,
                             kernel.clock().cycles())) {
            return IoResult::ok(0); // peer closed, EOF
        }
        return IoResult::block(next_arrival);
    }
    {
        OCC_TRACE_SPAN(kOcall, "net.recv", n);
        kernel.ocall();
        kernel.charge(
            static_cast<uint64_t>(n * CostModel::kMemcpyCyclesPerByte));
    }
    return IoResult::ok(static_cast<int64_t>(n));
}

IoResult
SocketFile::write_user(Kernel &kernel, const IoBuffer &src)
{
    const uint64_t len = src.size();
    if (!conn_ || !(at_server_ ? conn_->open_client : conn_->open_server)) {
        // Same default-fatal SIGPIPE shape as pipes (the kernel's
        // epipe_kills() path); a send into a closed connection used
        // to succeed silently.
        return IoResult::err(ErrorCode::kPipe);
    }
    net_->send_with(conn_, at_server_, len,
                    [&src, len](uint8_t *dst) { src.load(0, dst, len); });
    {
        OCC_TRACE_SPAN(kOcall, "net.send", len);
        kernel.ocall();
        kernel.charge(
            static_cast<uint64_t>(len * CostModel::kMemcpyCyclesPerByte));
    }
    return IoResult::ok(static_cast<int64_t>(len));
}

void
SocketFile::on_fd_release(Kernel &kernel)
{
    // A socket shared through fd inheritance (spawn stdio) must only
    // close the connection when the *last* descriptor goes away.
    // Closing on the first release tore the socket out of the wakeup
    // registry while another SIP still held a live fd: a poller
    // blocked on the surviving descriptor never saw later data.
    // The close may free the connection (the peer closed first), so
    // the registry lets go of it before, and this file forgets it
    // after: an epoll entry can keep the file alive past this point.
    if (--fd_refs_ == 0) {
        kernel.socket_closed(conn_, at_server_);
        net_->close(conn_, at_server_); // fires on_close → wakes peer
        conn_ = nullptr;
    }
}

uint64_t
SocketFile::poll_ready(Kernel &kernel)
{
    if (!conn_) {
        // Closed here: hung up, and reading gives EOF.
        return static_cast<uint64_t>(abi::kPollHup | abi::kPollIn);
    }
    uint64_t now = kernel.clock().cycles();
    uint64_t bits = 0;
    bool peer_open =
        at_server_ ? conn_->open_client : conn_->open_server;
    if (peer_open) {
        bits |= static_cast<uint64_t>(abi::kPollOut);
    } else {
        bits |= static_cast<uint64_t>(abi::kPollHup);
    }
    if (net_->readable_now(conn_, at_server_, now)) {
        bits |= static_cast<uint64_t>(abi::kPollIn);
    } else if (net_->is_drained(conn_, at_server_, now)) {
        bits |= static_cast<uint64_t>(abi::kPollIn); // EOF readable
    }
    return bits;
}

uint64_t
SocketFile::next_event_time(Kernel &kernel)
{
    (void)kernel;
    return conn_ ? net_->next_arrival_time(conn_, at_server_) : ~0ull;
}

// ---------------------------------------------------------------------
// ListenerFile
// ---------------------------------------------------------------------

void
ListenerFile::on_fd_release(Kernel &kernel)
{
    // The listener is shared across master and workers through fd
    // inheritance; only the last close gives up the port.
    if (--fd_refs_ == 0) {
        kernel.listener_closed(port_);
    }
}

uint64_t
ListenerFile::poll_ready(Kernel &kernel)
{
    // Closed (an epoll entry may outlive the fds): the port may be
    // another listener's now.
    if (fd_refs_ == 0) {
        return 0;
    }
    return net_->next_accept_time(port_) <= kernel.clock().cycles()
               ? static_cast<uint64_t>(abi::kPollIn)
               : 0;
}

uint64_t
ListenerFile::next_event_time(Kernel &kernel)
{
    (void)kernel;
    return fd_refs_ == 0 ? ~0ull : net_->next_accept_time(port_);
}

} // namespace occlum::oskit
