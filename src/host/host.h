/**
 * @file
 * The untrusted host world: where binaries live, where the encrypted
 * file system's block device persists, and where the network sits.
 *
 * In the paper's threat model (§3.1) everything here is attacker-
 * controlled; the Occlum LibOS therefore never trusts host content —
 * binaries are signature-checked, FS blocks are decrypted and
 * HMAC-verified, network data is opaque.
 */
#ifndef OCCLUM_HOST_HOST_H
#define OCCLUM_HOST_HOST_H

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "base/cost_model.h"
#include "base/result.h"
#include "base/sim_clock.h"
#include "crypto/sha256.h"
#include "faultsim/faultsim.h"
#include "oelf/oelf.h"

namespace occlum::host {

/**
 * A simple path -> bytes store: the host directory containing OELF
 * binaries and (for the Linux baseline) plain files. Cost charging is
 * the OS personality's job, not this store's.
 *
 * Every put() gives the entry a fresh version from a store-wide
 * counter, so a remove() then put() at the same path never repeats
 * one. Each entry can memoize the SHA-256 digest of its bytes at one
 * version (memoized_digest()). The memo is simulator bookkeeping: it
 * spares the host re-hashing bytes that have not changed, and it
 * holds a digest, never a verdict. get_mutable() hands out a raw
 * pointer whose writes the store cannot see, so from then on the
 * entry is unversioned and nothing is memoized for it. A put() of an
 * oelf::SignedBinary memoizes the digest the build signed, so the
 * first spawn after a build hashes nothing either. The store takes no
 * lock: the kernel uses it only on the walk's thread.
 */
class HostFileStore
{
  public:
    /** version() of a missing entry, or of one get_mutable() handed out. */
    static constexpr uint64_t kUnversioned = 0;

    void
    put(const std::string &path, Bytes content)
    {
        store(path, std::move(content));
    }

    /**
     * put() a verifier-built binary and memoize its signed digest at
     * the version this put creates. Only the trusted build makes a
     * SignedBinary, so the digest is that of the Image its bytes parse
     * to; the memo is a digest, never a verdict, and is dropped like
     * any other by the next put, get_mutable or remove.
     */
    void
    put(const std::string &path, const oelf::SignedBinary &binary)
    {
        Entry &entry = store(path, binary.bytes());
        if (entry.version != kUnversioned) {
            entry.digest = binary.digest();
            entry.digest_version = entry.version;
        }
    }

    bool exists(const std::string &path) const
    {
        return files_.count(path) != 0;
    }

    Result<const Bytes *>
    get(const std::string &path) const
    {
        auto it = files_.find(path);
        if (it == files_.end()) {
            return no_entry(path);
        }
        return &it->second.bytes;
    }

    /**
     * Writable bytes of an existing entry; a missing one stays missing.
     * The pointer stays valid until remove(), and the entry is
     * unversioned for good.
     */
    Result<Bytes *>
    get_mutable(const std::string &path)
    {
        auto it = files_.find(path);
        if (it == files_.end()) {
            return no_entry(path);
        }
        it->second.version = kUnversioned;
        return &it->second.bytes;
    }

    void remove(const std::string &path) { files_.erase(path); }

    size_t count() const { return files_.size(); }

    /**
     * Which file `path` names: drawn when a put() creates the entry,
     * kept by later puts and get_mutable(), so a path removed and put
     * again names a new file. 0 for a missing entry.
     */
    uint64_t
    identity(const std::string &path) const
    {
        auto it = files_.find(path);
        return it == files_.end() ? 0 : it->second.identity;
    }

    /** The entry's current version (kUnversioned: missing or mutable). */
    uint64_t
    version(const std::string &path) const
    {
        auto it = files_.find(path);
        return it == files_.end() ? kUnversioned : it->second.version;
    }

    /**
     * The digest of `path`'s bytes at `version`: the memo when it was
     * taken at that version, else `compute()`, which is memoized if
     * `version` is still the entry's current one. `compute` must hash
     * the bytes the caller read at `version`.
     */
    template <typename Compute>
    crypto::Sha256Digest
    memoized_digest(const std::string &path, uint64_t version,
                    Compute &&compute)
    {
        auto it = files_.find(path);
        const bool current = version != kUnversioned &&
                             it != files_.end() &&
                             it->second.version == version;
        if (current && it->second.digest_version == version) {
            return it->second.digest;
        }
        ++memo_misses_;
        crypto::Sha256Digest digest = compute();
        if (current) {
            it->second.digest = digest;
            it->second.digest_version = version;
        }
        return digest;
    }

    /** memoized_digest() calls that had to call `compute`. */
    uint64_t memo_misses() const { return memo_misses_; }

  private:
    struct Entry {
        Bytes bytes;
        uint64_t identity = 0;
        uint64_t version = kUnversioned;
        uint64_t digest_version = kUnversioned; // when `digest` was taken
        crypto::Sha256Digest digest{};
    };

    /** Both put()s: replace the bytes and draw a fresh version. */
    Entry &
    store(const std::string &path, Bytes content)
    {
        auto [it, fresh] = files_.try_emplace(path);
        it->second.bytes = std::move(content);
        if (fresh) {
            it->second.identity = ++next_identity_;
        }
        // An entry get_mutable() handed out stays unversioned.
        if (fresh || it->second.version != kUnversioned) {
            it->second.version = ++next_version_;
        }
        return it->second;
    }

    static Error
    no_entry(const std::string &path)
    {
        return Error(ErrorCode::kNoEnt, "no such host file: " + path);
    }

    std::map<std::string, Entry> files_;
    uint64_t next_version_ = kUnversioned;
    uint64_t next_identity_ = 0;
    uint64_t memo_misses_ = 0;
};

/**
 * A block device backing the encrypted file system (the 1 TB SSD of
 * the paper's testbed). Reads and writes charge calibrated disk costs
 * to the shared clock. Content is untrusted: the enclave-side FS
 * encrypts and MACs every block.
 */
class BlockDevice
{
  public:
    static constexpr uint64_t kBlockSize = 4096;

    BlockDevice(SimClock &clock, uint64_t block_count)
        : clock_(&clock), blocks_(block_count)
    {}

    uint64_t block_count() const { return blocks_.size(); }

    Status
    read_block(uint64_t index, Bytes &out)
    {
        if (index >= blocks_.size()) {
            return Status(ErrorCode::kInval, "block index out of range");
        }
        switch (faultsim::FaultSim::instance().dev_read_fault()) {
          case faultsim::DevFault::kTransient:
            // The request reached the device and bounced: pay the
            // submission overhead, move no data. kAgain = retryable.
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kAgain,
                          "transient read fault (injected)");
          case faultsim::DevFault::kHard:
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kIo, "read fault (injected)");
          default:
            break;
        }
        charge_read(kBlockSize);
        if (blocks_[index].empty()) {
            out.assign(kBlockSize, 0);
        } else {
            out = blocks_[index];
        }
        return Status();
    }

    Status
    write_block(uint64_t index, const Bytes &in)
    {
        if (index >= blocks_.size() || in.size() != kBlockSize) {
            return Status(ErrorCode::kInval, "bad block write");
        }
        faultsim::FaultSim &faults = faultsim::FaultSim::instance();
        switch (faults.dev_write_fault()) {
          case faultsim::DevFault::kTransient:
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kAgain,
                          "transient write fault (injected)");
          case faultsim::DevFault::kHard:
            clock_->advance(CostModel::kDiskRequestCycles);
            return Status(ErrorCode::kIo, "write fault (injected)");
          case faultsim::DevFault::kTorn: {
            // Power-cut mid-write: the first half lands, the tail
            // keeps the old content — and the host reports success,
            // exactly the lie a real disk tells without a barrier.
            charge_write(kBlockSize);
            Bytes &block = blocks_[index];
            if (block.empty()) {
                block.assign(kBlockSize, 0);
            }
            std::copy(in.begin(), in.begin() + kBlockSize / 2,
                      block.begin());
            return Status();
          }
          case faultsim::DevFault::kCorrupt:
            // Reported success, flipped bits at rest: the attack /
            // rot case EncFs MACs exist to catch.
            charge_write(kBlockSize);
            blocks_[index] = in;
            faults.scramble(blocks_[index].data(),
                            blocks_[index].size());
            return Status();
          case faultsim::DevFault::kNone:
            break;
        }
        charge_write(kBlockSize);
        blocks_[index] = in;
        return Status();
    }

    /** Raw access without cost (used by tests to inspect/tamper). */
    Bytes &raw_block(uint64_t index) { return blocks_[index]; }

  private:
    void
    charge_read(uint64_t bytes)
    {
        clock_->advance(CostModel::kDiskRequestCycles +
                        static_cast<uint64_t>(
                            bytes * CostModel::kDiskReadCyclesPerByte));
    }

    void
    charge_write(uint64_t bytes)
    {
        clock_->advance(CostModel::kDiskRequestCycles +
                        static_cast<uint64_t>(
                            bytes * CostModel::kDiskWriteCyclesPerByte));
    }

    SimClock *clock_;
    std::vector<Bytes> blocks_;
};

/**
 * A std::allocator whose value-less construct() leaves the element
 * uninitialized: growing a buffer of this kind before copying bytes
 * into it does not zero them first.
 */
template <typename T>
struct UninitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
        using other = UninitAllocator<U>;
    };

    UninitAllocator() = default;
    template <typename U>
    UninitAllocator(const UninitAllocator<U> &) noexcept
    {}

    template <typename U>
    void
    construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/**
 * The 1 Gbps LAN between the server under test and the load
 * generator. Models a shared-bandwidth link ("busy-until" semantics)
 * plus a fixed round-trip latency; data chunks become readable at
 * their computed arrival timestamps.
 *
 * Connection lifetime: connect() creates the record and gives it a
 * slot, and the record is freed once both sides have closed it after
 * it left its listener's queue (accepted, or refused by unlisten()).
 * So after close(conn, side), that side must never touch `conn`
 * again: the peer's close may already have freed it.
 */
class NetSim
{
  public:
    explicit NetSim(SimClock &clock) : clock_(&clock) {}

    /**
     * One direction of a connection: the bytes sent and not yet
     * released, contiguous, plus one mark per send. Mark i covers
     * data[marks[i-1].end, marks[i].end) (from 0 for i == 0) and
     * becomes readable at its arrival_cycles; arrivals are monotone.
     * `read` is the offset of the next unread byte and `head` the
     * first mark not fully read, so the direction is empty when
     * head == marks.size(). A drained direction releases its storage.
     */
    struct Stream {
        struct Mark {
            size_t end;
            uint64_t arrival_cycles;
        };

        /** Every byte is written by send_with's fill before it is
         *  read, so growing this buffer does not zero it. */
        std::vector<uint8_t, UninitAllocator<uint8_t>> data;
        std::vector<Mark> marks;
        size_t read = 0;
        size_t head = 0;

        bool empty() const { return head == marks.size(); }
    };

    struct Connection {
        /** Monotonic over the NetSim's life (trace instants print it). */
        int id = 0;
        /** Index among the live connections, stable for this one's
         *  life and handed to a later connection once it is freed. */
        uint32_t slot = 0;
        bool queued = true;        // on its listener's queue
        bool open_server = true;   // server side not closed
        bool open_client = true;   // client side not closed
        Stream to_server;
        Stream to_client;
    };

    /** Create a listener; returns false if the port is taken. */
    bool listen(uint16_t port, int backlog);

    /**
     * Remove the port's listener: later connects are refused, and each
     * connection still queued is refused too. Its server side closes
     * (the client sees a hangup), and it is freed once the client
     * closes, or at once if the client already has.
     */
    void unlisten(uint16_t port);

    /** Client side: initiate a connection (completes after RTT/2). */
    Result<Connection *> connect(uint16_t port);

    /** Server side: pop a pending connection if one has arrived. */
    Connection *try_accept(uint16_t port, uint64_t now_cycles);

    /** Earliest pending-connection arrival, or ~0 if none. */
    uint64_t next_accept_time(uint16_t port) const;

    /** Enqueue bytes (shared-link bandwidth + half-RTT latency). */
    void
    send(Connection *conn, bool from_server, const uint8_t *data,
         size_t len)
    {
        send_with(conn, from_server, len, [data, len](uint8_t *dst) {
            std::copy(data, data + len, dst);
        });
    }

    /**
     * send() whose `len` bytes `fill(dst)` writes straight into the
     * stream, so a caller holding them elsewhere (guest pages) copies
     * them once.
     */
    template <typename Fill>
    void
    send_with(Connection *conn, bool from_server, size_t len, Fill &&fill)
    {
        fill(append(conn, from_server, len));
        sent(conn, from_server);
    }

    /**
     * Dequeue up to `cap` arrived bytes. Returns bytes read; sets
     * `next_arrival` to the earliest pending arrival when 0 is
     * returned with data still in flight (~0 if the queue is empty).
     */
    size_t
    recv(Connection *conn, bool at_server, uint8_t *out, size_t cap,
         uint64_t now_cycles, uint64_t &next_arrival)
    {
        return recv_with(conn, at_server, cap, now_cycles, next_arrival,
                         [out](const uint8_t *src, size_t n) {
                             std::copy(src, src + n, out);
                         });
    }

    /**
     * recv() that hands the dequeued bytes to `sink(src, n)` instead
     * of copying them out, so a caller copies them once to where they
     * go (guest pages). Not called when nothing is dequeued.
     */
    template <typename Sink>
    size_t
    recv_with(Connection *conn, bool at_server, size_t cap,
              uint64_t now_cycles, uint64_t &next_arrival, Sink &&sink)
    {
        Stream &stream = at_server ? conn->to_server : conn->to_client;
        next_arrival = ~0ull;
        if (stream.empty()) {
            return 0; // the common poll of an idle connection
        }
        const uint64_t head = stream.marks[stream.head].arrival_cycles;
        if (head > now_cycles) {
            // Nothing has arrived: report when it will. The short-read
            // draw happens on every receive from a non-empty stream.
            next_arrival = head;
            faultsim::FaultSim::instance().net_recv_cap(cap);
            return 0;
        }
        size_t begin = 0;
        size_t total = take(stream, cap, now_cycles, next_arrival, begin);
        if (total > 0) {
            sink(stream.data.data() + begin, total);
        }
        if (stream.empty()) {
            release(stream);
        }
        return total;
    }

    /** Close one side (idempotent while the record lives). Frees the
     *  record of one off its listener's queue once both are closed. */
    void close(Connection *conn, bool server_side);

    /** Connections not yet freed. */
    size_t
    live_connections() const
    {
        return connections_.size() - free_slots_.size();
    }
    /** Slots ever handed out: the peak of live_connections(). */
    size_t slot_capacity() const { return connections_.size(); }

    /** True if the peer closed and nothing is left to read. */
    bool
    is_drained(const Connection *conn, bool at_server,
               uint64_t now_cycles) const
    {
        (void)now_cycles;
        const Stream &stream = at_server ? conn->to_server : conn->to_client;
        bool peer_open = at_server ? conn->open_client : conn->open_server;
        // Marks still unread once every byte is read are zero-length
        // sends: nothing is left to deliver.
        return !peer_open && stream.read == stream.data.size();
    }

    /** True if recv() would return bytes right now. */
    bool
    readable_now(const Connection *conn, bool at_server,
                 uint64_t now_cycles) const
    {
        const Stream &stream = at_server ? conn->to_server : conn->to_client;
        return !stream.empty() &&
               stream.marks[stream.head].arrival_cycles <= now_cycles;
    }

    /** Earliest in-flight arrival toward `at_server` (~0 if none). */
    uint64_t
    next_arrival_time(const Connection *conn, bool at_server) const
    {
        const Stream &stream = at_server ? conn->to_server : conn->to_client;
        return stream.empty() ? ~0ull
                              : stream.marks[stream.head].arrival_cycles;
    }

    /**
     * Observer hooks for the in-enclave kernel's wait queues: fired
     * when state a blocked process may be waiting on changes. `when`
     * is the simulated arrival cycle (future for in-flight data,
     * "now" for a close). Host-side load generators drive the same
     * NetSim directly, so these fire for their traffic too.
     */
    struct Events {
        std::function<void(Connection *, bool to_server, uint64_t when)>
            on_data;
        std::function<void(uint16_t port, uint64_t when)> on_connect;
        std::function<void(Connection *, bool closed_by_server)> on_close;
    };

    void set_events(Events events) { events_ = std::move(events); }

  private:
    /** send()'s link accounting: grows the stream by `len` bytes and
     *  returns where they go. */
    uint8_t *append(Connection *conn, bool from_server, size_t len);
    /** send()'s end: fires on_data for the mark append() pushed. */
    void sent(Connection *conn, bool from_server);
    /** recv()'s mark walk over a stream whose head mark has arrived:
     *  consumes up to `cap` arrived bytes starting at `begin`; returns
     *  how many. */
    size_t take(Stream &stream, size_t cap, uint64_t now_cycles,
                uint64_t &next_arrival, size_t &begin);
    /** A drained stream holds no storage: its buffers go to spares_. */
    void release(Stream &stream);

    /**
     * Buffers of drained streams, handed to the next empty stream that
     * is sent to, so a connection per request (and a drain per
     * response) does not allocate and free its buffers every time.
     * At most kSpares, none larger than kSpareBytes.
     */
    static constexpr size_t kSpares = 8;
    static constexpr size_t kSpareBytes = 1 << 20;
    std::vector<Stream> spares_;

    struct Listener {
        int backlog = 16;
        std::deque<std::pair<Connection *, uint64_t>>
            pending; // connection + arrival time
    };

    /** Free `conn`'s record if both sides are closed and it is off
     *  its listener's queue; no one may touch it after that. */
    void free_if_done(Connection *conn);

    SimClock *clock_;
    std::map<uint16_t, Listener> listeners_;
    /** Every live connection at its slot; a freed slot is null and
     *  listed in free_slots_, which the next connect() reuses. */
    std::vector<std::unique_ptr<Connection>> connections_;
    std::vector<uint32_t> free_slots_;
    uint64_t link_busy_until_ = 0;
    int next_conn_id_ = 1;
    Events events_;
};

} // namespace occlum::host

#endif // OCCLUM_HOST_HOST_H
