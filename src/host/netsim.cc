#include "host/host.h"

#include <cstring>

#include "base/log.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace occlum::host {

namespace {

trace::Counter &
net_counter(const char *name)
{
    return trace::Registry::instance().counter(name);
}

} // namespace

bool
NetSim::listen(uint16_t port, int backlog)
{
    if (listeners_.count(port)) {
        return false;
    }
    Listener listener;
    listener.backlog = backlog;
    listeners_.emplace(port, std::move(listener));
    return true;
}

void
NetSim::unlisten(uint16_t port)
{
    auto it = listeners_.find(port);
    if (it == listeners_.end()) {
        return;
    }
    const auto pending = std::move(it->second.pending);
    listeners_.erase(it);
    for (const auto &[conn, arrival] : pending) {
        conn->queued = false;
        if (conn->open_server) {
            close(conn, true);
        } else {
            // close() would return at once for a closed side.
            free_if_done(conn);
        }
    }
}

Result<NetSim::Connection *>
NetSim::connect(uint16_t port)
{
    auto it = listeners_.find(port);
    if (it == listeners_.end()) {
        return Error(ErrorCode::kNoEnt, "connection refused");
    }
    if (it->second.pending.size() >=
        static_cast<size_t>(it->second.backlog)) {
        return Error(ErrorCode::kAgain, "backlog full");
    }
    uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<uint32_t>(connections_.size());
        connections_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    connections_[slot] = std::make_unique<Connection>();
    Connection *raw = connections_[slot].get();
    raw->id = next_conn_id_++;
    raw->slot = slot;
    OCC_TRACE_INSTANT(kNet, "net.connect", raw->id);
    static trace::Counter *ctr = &net_counter("net.connects");
    ctr->add();
    uint64_t arrival = clock_->cycles() + CostModel::kNetRttCycles / 2;
    it->second.pending.emplace_back(raw, arrival);
    if (events_.on_connect) {
        events_.on_connect(port, arrival);
    }
    return raw;
}

NetSim::Connection *
NetSim::try_accept(uint16_t port, uint64_t now_cycles)
{
    auto it = listeners_.find(port);
    if (it == listeners_.end() || it->second.pending.empty()) {
        return nullptr;
    }
    if (it->second.pending.front().second > now_cycles) {
        return nullptr;
    }
    Connection *conn = it->second.pending.front().first;
    it->second.pending.pop_front();
    conn->queued = false;
    OCC_TRACE_INSTANT(kNet, "net.accept", conn->id);
    static trace::Counter *ctr = &net_counter("net.accepts");
    ctr->add();
    return conn;
}

uint64_t
NetSim::next_accept_time(uint16_t port) const
{
    auto it = listeners_.find(port);
    if (it == listeners_.end() || it->second.pending.empty()) {
        return ~0ull;
    }
    return it->second.pending.front().second;
}

uint8_t *
NetSim::append(Connection *conn, bool from_server, size_t len)
{
    // Shared 1 Gbps link: the transfer occupies the link starting at
    // max(now, busy_until); it lands half an RTT after it finishes.
    static trace::Counter *ctr = &net_counter("net.bytes_sent");
    ctr->add(len);
    faultsim::FaultSim &faults = faultsim::FaultSim::instance();
    uint64_t start = std::max(clock_->cycles(), link_busy_until_);
    uint64_t transfer =
        static_cast<uint64_t>(len * CostModel::kNetCyclesPerByte);
    if (faults.net_drop_fires()) {
        // Segment loss under reliable-stream semantics: the first
        // transmission still burned the link, the sender retransmits
        // after its timeout, and the payload arrives late — loss is
        // a latency/bandwidth tax, never missing bytes.
        link_busy_until_ = start + transfer;
        start = link_busy_until_ + CostModel::kNetRetransmitCycles;
    }
    link_busy_until_ = start + transfer;
    uint64_t arrival =
        link_busy_until_ + CostModel::kNetRttCycles / 2;
    if (faults.net_dup_fires()) {
        // Spurious retransmit: the duplicate occupies the link; the
        // receiver's sequence numbers discard it, so it is visible
        // only as delay for whatever sends next.
        link_busy_until_ += transfer;
    }

    Stream &stream = from_server ? conn->to_client : conn->to_server;
    if (stream.marks.empty() && stream.data.capacity() == 0 &&
        !spares_.empty()) {
        stream = std::move(spares_.back()); // a fresh stream's buffers
        spares_.pop_back();
    }
    // Drop the fully read marks and their bytes once they are at
    // least half the buffer: each byte moves at most once more.
    size_t base = stream.head == 0 ? 0 : stream.marks[stream.head - 1].end;
    if (base > 0 && base >= stream.data.size() - base) {
        stream.data.erase(stream.data.begin(),
                          stream.data.begin() +
                              static_cast<std::ptrdiff_t>(base));
        stream.marks.erase(stream.marks.begin(),
                           stream.marks.begin() +
                               static_cast<std::ptrdiff_t>(stream.head));
        for (Stream::Mark &mark : stream.marks) {
            mark.end -= base;
        }
        stream.read -= base;
        stream.head = 0;
    }
    const size_t at = stream.data.size();
    stream.data.resize(at + len);
    stream.marks.push_back({stream.data.size(), arrival});
    return stream.data.data() + at;
}

void
NetSim::sent(Connection *conn, bool from_server)
{
    if (events_.on_data) {
        const Stream &stream = from_server ? conn->to_client
                                           : conn->to_server;
        events_.on_data(conn, !from_server,
                        stream.marks.back().arrival_cycles);
    }
}

void
NetSim::release(Stream &stream)
{
    Stream spare = std::move(stream);
    stream = Stream();
    if (spares_.size() < kSpares && spare.data.capacity() <= kSpareBytes) {
        spare.data.clear();
        spare.marks.clear();
        spare.read = 0;
        spare.head = 0;
        spares_.push_back(std::move(spare));
    }
}

size_t
NetSim::take(Stream &stream, size_t cap, uint64_t now_cycles,
             uint64_t &next_arrival, size_t &begin)
{
    // Short read: the NIC hands over less than asked. Capacity never
    // drops below 1 byte, so a looping reader always makes progress
    // (no livelock against the retry machinery).
    cap = faultsim::FaultSim::instance().net_recv_cap(cap);
    // Take whole arrived marks while they fit, then a prefix of the
    // next one; stop at the first mark still in flight (head of line).
    begin = stream.read;
    size_t stop = begin;
    while (stop - begin < cap && !stream.empty()) {
        const Stream::Mark &mark = stream.marks[stream.head];
        if (mark.arrival_cycles > now_cycles) {
            next_arrival = mark.arrival_cycles;
            break;
        }
        if (mark.end - begin <= cap) {
            stop = mark.end;
            ++stream.head;
        } else {
            stop = begin + cap;
        }
    }
    size_t total = stop - begin;
    if (total > 0) {
        static trace::Counter *ctr = &net_counter("net.bytes_received");
        ctr->add(total);
    }
    stream.read = stop;
    return total;
}

void
NetSim::close(Connection *conn, bool server_side)
{
    // Idempotent: a second close of the same side must not re-fire
    // on_close — the peer's blocked pollers are woken exactly once
    // per hangup edge, not once per redundant close() call.
    bool &open = server_side ? conn->open_server : conn->open_client;
    if (!open) {
        return;
    }
    open = false;
    if (events_.on_close) {
        events_.on_close(conn, server_side);
    }
    free_if_done(conn);
}

void
NetSim::free_if_done(Connection *conn)
{
    // Neither side may touch the record now; a queued one is still
    // referenced by its listener's queue.
    if (!conn->open_server && !conn->open_client && !conn->queued) {
        const uint32_t slot = conn->slot;
        connections_[slot].reset();
        free_slots_.push_back(slot);
    }
}

} // namespace occlum::host
