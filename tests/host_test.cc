/**
 * @file
 * Host-world tests: block device cost charging, the NetSim bandwidth
 * and latency model (busy-until link sharing, arrival times, EOF on
 * close), its per-direction byte streams (marks, head-of-line stops,
 * storage release), and the base utilities (bytes, stats, rng).
 */
#include <gtest/gtest.h>

#include <vector>

#include "base/rng.h"
#include "base/stats.h"
#include "faultsim/faultsim.h"
#include "host/host.h"

namespace occlum::host {
namespace {

TEST(BlockDevice, ChargesDiskCosts)
{
    SimClock clock;
    BlockDevice device(clock, 16);
    Bytes block(BlockDevice::kBlockSize, 0xaa);
    uint64_t before = clock.cycles();
    ASSERT_TRUE(device.write_block(3, block).ok());
    uint64_t write_cost = clock.cycles() - before;
    EXPECT_GE(write_cost,
              static_cast<uint64_t>(BlockDevice::kBlockSize *
                                    CostModel::kDiskWriteCyclesPerByte));
    before = clock.cycles();
    Bytes back;
    ASSERT_TRUE(device.read_block(3, back).ok());
    EXPECT_EQ(back, block);
    uint64_t read_cost = clock.cycles() - before;
    EXPECT_LT(read_cost, write_cost); // SSD reads ~4.5x faster
    // Bounds checked.
    EXPECT_FALSE(device.read_block(16, back).ok());
    EXPECT_FALSE(device.write_block(0, Bytes(100)).ok());
}

TEST(NetSim, ConnectionLifecycleAndLatency)
{
    SimClock clock;
    NetSim net(clock);
    ASSERT_TRUE(net.listen(80, 4));
    EXPECT_FALSE(net.listen(80, 4)); // port taken
    EXPECT_FALSE(net.connect(81).ok()); // refused

    auto conn = net.connect(80);
    ASSERT_TRUE(conn.ok());
    // SYN in flight: not acceptable yet.
    EXPECT_EQ(net.try_accept(80, clock.cycles()), nullptr);
    uint64_t syn_arrival = net.next_accept_time(80);
    EXPECT_GT(syn_arrival, clock.cycles());
    clock.advance(syn_arrival - clock.cycles());
    NetSim::Connection *server_side = net.try_accept(80, clock.cycles());
    ASSERT_NE(server_side, nullptr);
    EXPECT_EQ(server_side, conn.value());

    // Client sends; data arrives after transfer + half RTT.
    Bytes payload(1000, 0x5a);
    net.send(conn.value(), false, payload.data(), payload.size());
    uint8_t buf[2048];
    uint64_t next_arrival = ~0ull;
    EXPECT_EQ(net.recv(server_side, true, buf, sizeof(buf),
                       clock.cycles(), next_arrival),
              0u);
    ASSERT_NE(next_arrival, ~0ull);
    uint64_t min_cycles =
        static_cast<uint64_t>(1000 * CostModel::kNetCyclesPerByte) +
        CostModel::kNetRttCycles / 2;
    EXPECT_GE(next_arrival - clock.cycles(), min_cycles);
    clock.advance(next_arrival - clock.cycles());
    EXPECT_EQ(net.recv(server_side, true, buf, sizeof(buf),
                       clock.cycles(), next_arrival),
              1000u);

    // Close -> EOF at the peer once drained.
    net.close(conn.value(), false);
    EXPECT_TRUE(net.is_drained(server_side, true, clock.cycles()));
}

TEST(NetSim, CloseIsIdempotentPerSide)
{
    // Double-closing one side of a connection must fire the on_close
    // observer exactly once per side: kernels hang poller wakeups off
    // this event, and a re-fired close used to wake blocked pollers a
    // second time for a hangup they had already consumed.
    SimClock clock;
    NetSim net(clock);
    ASSERT_TRUE(net.listen(80, 4));
    auto conn = net.connect(80);
    ASSERT_TRUE(conn.ok());
    int closes = 0;
    NetSim::Events events;
    events.on_close = [&](NetSim::Connection *, bool) { ++closes; };
    net.set_events(std::move(events));

    net.close(conn.value(), false);
    net.close(conn.value(), false); // second close: swallowed
    EXPECT_EQ(closes, 1);
    net.close(conn.value(), true); // the other side is independent
    net.close(conn.value(), true);
    EXPECT_EQ(closes, 2);
}

TEST(NetSim, UnlistenRefusesQueuedAndLaterConnects)
{
    // A connection still queued when its listener goes is refused: its
    // server side closes (the client's hangup), and it is freed once
    // the client closes too. Later connects are refused, and the port
    // can be listened on again.
    SimClock clock;
    NetSim net(clock);
    ASSERT_TRUE(net.listen(80, 4));
    auto queued = net.connect(80);
    ASSERT_TRUE(queued.ok());
    std::vector<bool> closed_by_server;
    NetSim::Events events;
    events.on_close = [&](NetSim::Connection *, bool by_server) {
        closed_by_server.push_back(by_server);
    };
    net.set_events(std::move(events));

    net.unlisten(80);
    EXPECT_EQ(closed_by_server, std::vector<bool>{true});
    EXPECT_TRUE(net.is_drained(queued.value(), false, clock.cycles()));
    EXPECT_FALSE(net.connect(80).ok());
    EXPECT_EQ(net.live_connections(), 1u);
    net.close(queued.value(), false);
    EXPECT_EQ(net.live_connections(), 0u);
    EXPECT_TRUE(net.listen(80, 4));

    // A queued connection both of whose sides already closed is freed
    // by unlisten itself.
    auto closed = net.connect(80);
    ASSERT_TRUE(closed.ok());
    net.close(closed.value(), false);
    net.close(closed.value(), true);
    EXPECT_EQ(net.live_connections(), 1u);
    net.unlisten(80);
    EXPECT_EQ(net.live_connections(), 0u);
}

TEST(NetSim, SharedLinkSerializesTransfers)
{
    // Two large sends back to back: the second's arrival is pushed
    // out by the first's occupancy of the 1 Gbps link.
    SimClock clock;
    NetSim net(clock);
    ASSERT_TRUE(net.listen(80, 4));
    auto c1 = net.connect(80);
    auto c2 = net.connect(80);
    ASSERT_TRUE(c1.ok() && c2.ok());
    Bytes mb(1 << 20, 1);
    net.send(c1.value(), false, mb.data(), mb.size());
    net.send(c2.value(), false, mb.data(), mb.size());
    clock.advance(CostModel::kNetRttCycles);
    uint64_t a1 = ~0ull, a2 = ~0ull;
    uint8_t buf[1];
    net.recv(c1.value(), true, buf, 0, clock.cycles(), a1);
    net.recv(c2.value(), true, buf, 0, clock.cycles(), a2);
    ASSERT_NE(a1, ~0ull);
    ASSERT_NE(a2, ~0ull);
    uint64_t transfer =
        static_cast<uint64_t>(mb.size() * CostModel::kNetCyclesPerByte);
    EXPECT_GE(a2, a1 + transfer); // serialized on the shared link
}

// ---- per-direction byte streams ----------------------------------------

/**
 * One accepted connection on a quiet fault plan (checks counted,
 * nothing fires), so exact sizes and arrivals hold even under an
 * ambient OCCLUM_FAULT_PLAN. NetSim hands out the same Connection to
 * both sides; `at_server` picks the direction.
 */
struct StreamRig {
    faultsim::ScopedFaultPlan quiet{faultsim::FaultPlan{}};
    SimClock clock;
    NetSim net{clock};
    NetSim::Connection *conn = nullptr;

    StreamRig()
    {
        EXPECT_TRUE(net.listen(80, 4));
        auto c = net.connect(80);
        EXPECT_TRUE(c.ok());
        conn = c.value();
    }

    /** Client → server send; returns the arrival cycle. */
    uint64_t
    send(const Bytes &bytes)
    {
        net.send(conn, false, bytes.data(), bytes.size());
        return conn->to_server.marks.back().arrival_cycles;
    }

    void
    advance_to(uint64_t cycle)
    {
        if (cycle > clock.cycles()) {
            clock.advance(cycle - clock.cycles());
        }
    }

    size_t
    recv(Bytes &out, size_t cap, uint64_t &next_arrival)
    {
        out.assign(cap, 0);
        size_t n = net.recv(conn, true, out.data(), cap, clock.cycles(),
                            next_arrival);
        out.resize(n);
        return n;
    }
};

Bytes
fill(size_t len, uint8_t first)
{
    Bytes out(len);
    for (size_t i = 0; i < len; ++i) {
        out[i] = static_cast<uint8_t>(first + i);
    }
    return out;
}

Bytes
concat(std::initializer_list<Bytes> parts)
{
    Bytes out;
    for (const Bytes &part : parts) {
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

TEST(NetStream, RecvSplitsAMarkAndSpansArrivedMarks)
{
    StreamRig rig;
    Bytes a = fill(100, 0), b = fill(200, 100), c = fill(300, 50);
    rig.send(a);
    rig.send(b);
    rig.advance_to(rig.send(c));
    Bytes got;
    uint64_t next = 0;
    // All of a and the first half of b: b's mark is split.
    ASSERT_EQ(rig.recv(got, 150, next), 150u);
    EXPECT_EQ(got, concat({a, Bytes(b.begin(), b.begin() + 50)}));
    EXPECT_EQ(next, ~0ull);
    EXPECT_EQ(rig.conn->to_server.head, 1u);
    EXPECT_EQ(rig.conn->to_server.read, 150u);
    // The rest of b and most of c in one call.
    ASSERT_EQ(rig.recv(got, 400, next), 400u);
    EXPECT_EQ(got, concat({Bytes(b.begin() + 50, b.end()),
                           Bytes(c.begin(), c.begin() + 250)}));
    ASSERT_EQ(rig.recv(got, 1000, next), 50u);
    EXPECT_EQ(got, Bytes(c.begin() + 250, c.end()));
    EXPECT_TRUE(rig.conn->to_server.empty());
}

TEST(NetStream, InFlightMarkStopsDelivery)
{
    StreamRig rig;
    Bytes a = fill(100, 1), b = fill(100, 2);
    rig.advance_to(rig.send(a));
    uint64_t b_arrival = rig.send(b);
    ASSERT_GT(b_arrival, rig.clock.cycles());
    Bytes got;
    uint64_t next = 0;
    // a has landed; b is still on the wire: delivery stops at b.
    ASSERT_EQ(rig.recv(got, 1000, next), 100u);
    EXPECT_EQ(got, a);
    EXPECT_EQ(next, b_arrival);
    EXPECT_FALSE(rig.net.readable_now(rig.conn, true, rig.clock.cycles()));
    EXPECT_EQ(rig.net.next_arrival_time(rig.conn, true), b_arrival);
    ASSERT_EQ(rig.recv(got, 1000, next), 0u);
    EXPECT_EQ(next, b_arrival);
    rig.advance_to(b_arrival);
    EXPECT_TRUE(rig.net.readable_now(rig.conn, true, rig.clock.cycles()));
    ASSERT_EQ(rig.recv(got, 1000, next), 100u);
    EXPECT_EQ(got, b);
    EXPECT_EQ(rig.net.next_arrival_time(rig.conn, true), ~0ull);
}

TEST(NetStream, ZeroCapProbeReportsNextArrival)
{
    StreamRig rig;
    uint64_t arrival = rig.send(fill(64, 3));
    Bytes got;
    uint64_t next = 0;
    ASSERT_EQ(rig.recv(got, 0, next), 0u);
    EXPECT_EQ(next, arrival);
    // Landed: the probe reads nothing and reports no pending arrival.
    rig.advance_to(arrival);
    ASSERT_EQ(rig.recv(got, 0, next), 0u);
    EXPECT_EQ(next, ~0ull);
    EXPECT_TRUE(rig.net.readable_now(rig.conn, true, rig.clock.cycles()));
    ASSERT_EQ(rig.recv(got, 64, next), 64u);
    EXPECT_EQ(got, fill(64, 3));
}

TEST(NetStream, DrainedOnlyAfterPeerClosesAndBytesAreConsumed)
{
    StreamRig rig;
    rig.advance_to(rig.send(fill(10, 4)));
    uint64_t now = rig.clock.cycles();
    EXPECT_FALSE(rig.net.is_drained(rig.conn, true, now)); // peer open
    rig.net.close(rig.conn, false);
    EXPECT_FALSE(rig.net.is_drained(rig.conn, true, now)); // 10 unread
    Bytes got;
    uint64_t next = 0;
    ASSERT_EQ(rig.recv(got, 4, next), 4u);
    EXPECT_FALSE(rig.net.is_drained(rig.conn, true, now)); // 6 unread
    ASSERT_EQ(rig.recv(got, 100, next), 6u);
    EXPECT_TRUE(rig.net.is_drained(rig.conn, true, now));
    // The other direction has its own peer: still open.
    EXPECT_FALSE(rig.net.is_drained(rig.conn, false, now));
}

TEST(NetStream, DrainedDirectionHoldsNoStorage)
{
    StreamRig rig;
    Bytes got;
    uint64_t next = 0;
    for (int round = 0; round < 50; ++round) {
        rig.advance_to(rig.send(fill(27, 5)));
        ASSERT_EQ(rig.recv(got, 4096, next), 27u);
        rig.net.send(rig.conn, true, got.data(), got.size());
        rig.advance_to(rig.conn->to_client.marks.back().arrival_cycles);
        ASSERT_EQ(rig.net.recv(rig.conn, false, got.data(), 4096,
                               rig.clock.cycles(), next),
                  27u);
    }
    rig.net.close(rig.conn, false);
    rig.net.close(rig.conn, true);
    for (const NetSim::Stream *s :
         {&rig.conn->to_server, &rig.conn->to_client}) {
        EXPECT_EQ(s->data.capacity(), 0u);
        EXPECT_EQ(s->marks.capacity(), 0u);
    }
}

TEST(NetStream, LaggingReaderKeepsTheStreamBounded)
{
    // The reader always trails one send behind, so the direction never
    // drains; read bytes must still be released as the stream moves.
    StreamRig rig;
    Bytes got;
    uint64_t next = 0;
    rig.advance_to(rig.send(fill(1000, 0)));
    for (int i = 1; i <= 500; ++i) {
        rig.advance_to(rig.send(fill(1000, static_cast<uint8_t>(i))));
        ASSERT_EQ(rig.recv(got, 1000, next), 1000u);
        ASSERT_EQ(got, fill(1000, static_cast<uint8_t>(i - 1)));
        ASSERT_LE(rig.conn->to_server.data.size(), 3000u);
        ASSERT_LE(rig.conn->to_server.marks.size(), 3u);
    }
}

TEST(NetStream, ShortReadPlanReturnsPinnedSizes)
{
    // Under an armed plan the sizes recv returns depend on exactly
    // when the short-read stream is drawn (only for a non-empty
    // direction) and on where head-of-line stops fall. kPinned is what
    // the one-chunk-per-send implementation returned for this
    // scenario, zero-length sends included.
    faultsim::FaultPlan plan;
    plan.seed = 7;
    plan.net_short_read = 0.5;
    plan.net_drop = 0.2;
    faultsim::ScopedFaultPlan scoped(plan);
    SimClock clock;
    NetSim net(clock);
    ASSERT_TRUE(net.listen(80, 4));
    NetSim::Connection *conn = net.connect(80).value();

    const size_t kSends[] = {27, 0, 4096, 1, 10240, 0, 0, 333, 65536, 5};
    const uint64_t kGaps[] = {250000, 0,     120000, 30000, 400000,
                              0,      10000, 90000,  300000, 50000};
    const size_t kCaps[] = {3000, 700, 1, 2048, 0};
    Bytes sent;
    Bytes got;
    std::vector<size_t> sizes;
    uint8_t buf[3000];
    uint64_t next = 0;
    size_t call = 0;
    auto recv = [&] {
        size_t n = net.recv(conn, false, buf, kCaps[call++ % 5],
                            clock.cycles(), next);
        sizes.push_back(n);
        got.insert(got.end(), buf, buf + n);
        return n;
    };
    for (size_t i = 0; i < 10; ++i) {
        Bytes part = fill(kSends[i], static_cast<uint8_t>(sent.size()));
        net.send(conn, true, part.data(), part.size());
        sent.insert(sent.end(), part.begin(), part.end());
        for (int r = 0; r < 3; ++r) {
            recv();
        }
        clock.advance(kGaps[i]);
    }
    while (got.size() < sent.size()) {
        if (recv() == 0 && next != ~0ull) {
            clock.advance(next - clock.cycles());
        }
    }
    EXPECT_EQ(got, sent);
    const std::vector<size_t> kPinned = {
        0, 0, 0, 27, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 1500, 350, 1, 2048, 0,
        197, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 1, 0, 2048, 0, 3000, 350, 1, 2048, 0,
        2793, 0, 1, 332, 0, 3000, 350, 1, 2048, 0,
        1500, 350, 1, 1024, 0, 3000, 350, 1, 2048, 0,
        1500, 700, 1, 1024, 0, 1500, 350, 1, 2048, 0,
        1500, 350, 1, 2048, 0, 1500, 350, 1, 2048, 0,
        3000, 700, 1, 1024, 0, 1500, 700, 1, 1024, 0,
        1500, 350, 1, 2048, 0, 3000, 350, 1, 1024, 0,
        3000, 350, 1, 1024, 0, 3000, 700, 1, 2048, 0,
        1500, 350, 1, 1024, 0, 1500, 350, 1, 1024, 0,
        1500, 350, 1, 2048, 0, 944, 0, 1, 4,
    };
    EXPECT_EQ(sizes, kPinned);
}

TEST(HostFileStore, BasicOps)
{
    HostFileStore store;
    EXPECT_FALSE(store.exists("/a"));
    store.put("/a", {1, 2, 3});
    EXPECT_TRUE(store.exists("/a"));
    EXPECT_EQ(store.get("/a").value()->size(), 3u);
    store.remove("/a");
    EXPECT_FALSE(store.get("/a").ok());
}

TEST(HostFileStore, GetMutableLeavesAMissingEntryMissing)
{
    HostFileStore store;
    auto missing = store.get_mutable("/a");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrorCode::kNoEnt);
    EXPECT_FALSE(store.exists("/a"));
    EXPECT_EQ(store.count(), 0u);
}

TEST(HostFileStore, DigestMemoFollowsTheEntryVersion)
{
    HostFileStore store;
    int computed = 0;
    auto digest_of = [&](uint8_t fill) {
        return [&computed, fill] {
            ++computed;
            crypto::Sha256Digest digest{};
            digest.fill(fill);
            return digest;
        };
    };
    store.put("/bin", {1, 2, 3});
    const uint64_t v1 = store.version("/bin");
    EXPECT_NE(v1, HostFileStore::kUnversioned);
    EXPECT_EQ(store.memoized_digest("/bin", v1, digest_of(1))[0], 1);
    EXPECT_EQ(store.memoized_digest("/bin", v1, digest_of(2))[0], 1);
    EXPECT_EQ(computed, 1);

    // put() moves the version on; a stale version is neither served
    // nor memoized.
    store.put("/bin", {4, 5, 6});
    const uint64_t v2 = store.version("/bin");
    EXPECT_NE(v2, v1);
    EXPECT_EQ(store.memoized_digest("/bin", v1, digest_of(3))[0], 3);
    EXPECT_EQ(store.memoized_digest("/bin", v2, digest_of(4))[0], 4);
    EXPECT_EQ(store.memoized_digest("/bin", v2, digest_of(5))[0], 4);
    EXPECT_EQ(computed, 3);

    // remove() then put() never repeats a version.
    store.remove("/bin");
    EXPECT_EQ(store.version("/bin"), HostFileStore::kUnversioned);
    store.put("/bin", {4, 5, 6});
    EXPECT_NE(store.version("/bin"), v2);
    EXPECT_NE(store.version("/bin"), v1);

    // get_mutable() leaves the entry unversioned for good: nothing is
    // memoized, not even after a later put().
    ASSERT_TRUE(store.get_mutable("/bin").ok());
    EXPECT_EQ(store.version("/bin"), HostFileStore::kUnversioned);
    store.put("/bin", {7});
    const uint64_t v3 = store.version("/bin");
    EXPECT_EQ(v3, HostFileStore::kUnversioned);
    EXPECT_EQ(store.memoized_digest("/bin", v3, digest_of(6))[0], 6);
    EXPECT_EQ(store.memoized_digest("/bin", v3, digest_of(7))[0], 7);
    EXPECT_EQ(computed, 5);
}

// ---- base utilities -----------------------------------------------------

TEST(Base, BytesHexRoundTrip)
{
    Bytes data = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
    EXPECT_EQ(to_hex(data), "00deadbeefff");
    EXPECT_EQ(from_hex("00deadbeefff"), data);
    Bytes out;
    put_le<uint32_t>(out, 0x11223344);
    EXPECT_EQ(get_le<uint32_t>(out.data()), 0x11223344u);
    set_le<uint16_t>(out.data(), 0xaabb);
    EXPECT_EQ(out[0], 0xbb);
    EXPECT_EQ(out[1], 0xaa);
}

TEST(Base, RngIsDeterministicAndSpread)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
    EXPECT_NE(Rng(7).next(), c.next());
    // next_below respects the bound.
    Rng r(1);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.next_below(17), 17u);
        double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Base, SimClockConversions)
{
    SimClock clock;
    clock.advance(3'500'000); // 1 ms at 3.5 GHz
    EXPECT_DOUBLE_EQ(clock.millis(), 1.0);
    EXPECT_DOUBLE_EQ(clock.micros(), 1000.0);
    EXPECT_DOUBLE_EQ(SimClock::cycles_to_seconds(7'000'000'000ull), 2.0);
}

TEST(Base, AggregateAndFormat)
{
    Aggregate agg;
    agg.add(1.0);
    agg.add(3.0);
    agg.add(2.0);
    EXPECT_EQ(agg.count(), 3u);
    EXPECT_DOUBLE_EQ(agg.mean(), 2.0);
    EXPECT_DOUBLE_EQ(agg.min(), 1.0);
    EXPECT_DOUBLE_EQ(agg.max(), 3.0);
    EXPECT_EQ(format_time_us(12.3), "12.3us");
    EXPECT_EQ(format_time_us(12345.0), "12.35ms");
    EXPECT_EQ(format_time_us(3.2e6), "3.200s");
    EXPECT_EQ(format_mbps(999.0), "999.0MB/s");
    EXPECT_EQ(format_mbps(1500.0), "1.50GB/s");
}

} // namespace
} // namespace occlum::host
