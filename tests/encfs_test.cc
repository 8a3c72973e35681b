/**
 * @file
 * Encrypted file-system tests: correctness (files, directories,
 * growth through the indirect block, persistence across remount),
 * the security properties — ciphertext on the device, integrity
 * rejection on tamper — and the page cache: pinned hit/miss/eviction
 * counts and device write sequence, slot recycling, first-fit block
 * allocation and remount.
 */
#include <gtest/gtest.h>

#include <set>

#include "base/rng.h"
#include "faultsim/faultsim.h"
#include "libos/encfs.h"

namespace occlum::libos {
namespace {

struct FsHarness {
    SimClock clock;
    host::BlockDevice device;
    EncFs fs;

    explicit FsHarness(uint64_t blocks = 4096)
        : device(clock, blocks), fs(device, clock, make_config())
    {
        EXPECT_TRUE(fs.mkfs().ok());
    }

    static EncFs::Config
    make_config()
    {
        EncFs::Config config;
        for (size_t i = 0; i < config.key.size(); ++i) {
            config.key[i] = static_cast<uint8_t>(i * 7 + 1);
        }
        return config;
    }
};

Bytes
pattern(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Bytes out(n);
    for (auto &b : out) {
        b = static_cast<uint8_t>(rng.next());
    }
    return out;
}

/**
 * Reads the device the way a holder of the FS key can: the write
 * counters from the on-device MAC table, and each payload block's
 * plaintext. Valid after a sync(), when the MAC table is on disk.
 */
struct DeviceView {
    static constexpr uint32_t kRecordsPerBlock = 4096 / 40;

    host::BlockDevice &device;
    /** EncFs geometry: the MAC table covers every payload block. */
    uint32_t mac_blocks;

    explicit DeviceView(host::BlockDevice &d)
        : device(d),
          mac_blocks(static_cast<uint32_t>(
              (d.block_count() + kRecordsPerBlock) /
              (kRecordsPerBlock + 1)))
    {}

    uint64_t
    counter(uint32_t block) const
    {
        uint32_t index = block - mac_blocks;
        const Bytes &raw = device.raw_block(index / kRecordsPerBlock);
        if (raw.empty()) {
            return 0;
        }
        return get_le<uint64_t>(raw.data() +
                                (index % kRecordsPerBlock) * 40 + 32);
    }

    Bytes
    plaintext(uint32_t block) const
    {
        crypto::Aes128 cipher(FsHarness::make_config().key);
        return cipher.ctr_crypt(EncFs::ctr_iv(block, counter(block)), 0,
                                device.raw_block(block));
    }

    /** The payload block holding exactly `content`, or kNoBlock. */
    uint32_t
    find(const Bytes &content) const
    {
        for (uint32_t b = mac_blocks; b < device.block_count(); ++b) {
            if (!device.raw_block(b).empty() && plaintext(b) == content) {
                return b;
            }
        }
        return EncFs::kNoBlock;
    }
};

/**
 * The device write sequence, observed from the OCALL gate (which EncFs
 * takes after every device I/O attempt) by diffing the device against
 * a shadow copy: a successful write always changes its block, since
 * every write carries a fresh counter.
 */
struct WriteLog {
    host::BlockDevice &device;
    std::vector<Bytes> shadow;
    std::vector<uint32_t> blocks;

    explicit WriteLog(host::BlockDevice &d)
        : device(d), shadow(d.block_count())
    {}

    void
    observe()
    {
        for (uint32_t b = 0; b < device.block_count(); ++b) {
            if (device.raw_block(b) != shadow[b]) {
                shadow[b] = device.raw_block(b);
                blocks.push_back(b);
            }
        }
    }
};

TEST(EncFs, WriteReadSmallFile)
{
    FsHarness h;
    Bytes data = pattern(100, 1);
    ASSERT_TRUE(h.fs.write_file("/a.txt", data).ok());
    auto back = h.fs.read_file("/a.txt");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
}

TEST(EncFs, OverwriteAndAppend)
{
    FsHarness h;
    auto inode = h.fs.open_inode("/f", true, false);
    ASSERT_TRUE(inode.ok());
    Bytes first = pattern(5000, 2);
    ASSERT_TRUE(h.fs.write(inode.value(), 0, first.data(), first.size())
                    .ok());
    Bytes patch = pattern(100, 3);
    ASSERT_TRUE(
        h.fs.write(inode.value(), 4000, patch.data(), patch.size())
            .ok());
    Bytes tail = pattern(300, 4);
    ASSERT_TRUE(
        h.fs.write(inode.value(), 5000, tail.data(), tail.size()).ok());

    EXPECT_EQ(h.fs.file_size(inode.value()).value(), 5300u);
    Bytes out(5300);
    ASSERT_TRUE(
        h.fs.read(inode.value(), 0, out.data(), out.size()).ok());
    Bytes expect = first;
    std::copy(patch.begin(), patch.end(), expect.begin() + 4000);
    expect.insert(expect.end(), tail.begin(), tail.end());
    EXPECT_EQ(out, expect);
}

TEST(EncFs, LargeFileThroughIndirectBlock)
{
    FsHarness h(8192);
    // > 120 direct blocks (480 KiB) forces the indirect block.
    Bytes data = pattern(700 * 1024, 5);
    ASSERT_TRUE(h.fs.write_file("/big", data).ok());
    auto back = h.fs.read_file("/big");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
}

TEST(EncFs, SparseHolesReadAsZero)
{
    FsHarness h;
    auto inode = h.fs.open_inode("/sparse", true, false);
    ASSERT_TRUE(inode.ok());
    Bytes one = {0xab};
    ASSERT_TRUE(
        h.fs.write(inode.value(), 100000, one.data(), 1).ok());
    Bytes out(4096);
    ASSERT_TRUE(h.fs.read(inode.value(), 0, out.data(), 4096).ok());
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](uint8_t b) { return b == 0; }));
}

TEST(EncFs, DirectoriesNestAndList)
{
    FsHarness h;
    ASSERT_TRUE(h.fs.mkdir("/etc").ok());
    ASSERT_TRUE(h.fs.mkdir("/etc/app").ok());
    ASSERT_TRUE(h.fs.write_file("/etc/app/conf", pattern(64, 6)).ok());
    EXPECT_TRUE(h.fs.exists("/etc/app/conf").value());
    EXPECT_FALSE(h.fs.exists("/etc/app/nope").value());
    // Cannot create under a missing directory.
    EXPECT_FALSE(h.fs.write_file("/no/such/file", {1, 2}).ok());
    // Cannot remove a non-empty directory.
    EXPECT_FALSE(h.fs.unlink("/etc/app").ok());
    ASSERT_TRUE(h.fs.unlink("/etc/app/conf").ok());
    EXPECT_TRUE(h.fs.unlink("/etc/app").ok());
}

TEST(EncFs, UnlinkFreesSpaceForReuse)
{
    FsHarness h(600); // small device
    Bytes chunk = pattern(800 * 1024 / 2, 7);
    for (int round = 0; round < 4; ++round) {
        std::string path = "/tmp" + std::to_string(round);
        ASSERT_TRUE(h.fs.write_file(path, chunk).ok()) << round;
        ASSERT_TRUE(h.fs.unlink(path).ok());
    }
}

TEST(EncFs, PersistsAcrossRemount)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    Bytes data = pattern(10000, 8);
    {
        EncFs fs(device, clock, FsHarness::make_config());
        ASSERT_TRUE(fs.mkfs().ok());
        ASSERT_TRUE(fs.mkdir("/d").ok());
        ASSERT_TRUE(fs.write_file("/d/file", data).ok());
        ASSERT_TRUE(fs.sync().ok());
    }
    {
        EncFs fs(device, clock, FsHarness::make_config());
        ASSERT_TRUE(fs.mount().ok());
        auto back = fs.read_file("/d/file");
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), data);
    }
}

TEST(EncFs, DeviceHoldsOnlyCiphertext)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs fs(device, clock, FsHarness::make_config());
    ASSERT_TRUE(fs.mkfs().ok());
    std::string secret = "TOP-SECRET-PAYLOAD-TOP-SECRET-PAYLOAD";
    Bytes data(secret.begin(), secret.end());
    // Make the plaintext long enough that a chance miss is unlikely.
    for (int i = 0; i < 100; ++i) {
        data.insert(data.end(), secret.begin(), secret.end());
    }
    ASSERT_TRUE(fs.write_file("/s", data).ok());
    ASSERT_TRUE(fs.sync().ok());
    // Scan every device block for the plaintext.
    for (uint64_t b = 0; b < device.block_count(); ++b) {
        const Bytes &raw = device.raw_block(b);
        if (raw.empty()) {
            continue;
        }
        auto it = std::search(raw.begin(), raw.end(), secret.begin(),
                              secret.end());
        EXPECT_EQ(it, raw.end()) << "plaintext leaked in block " << b;
    }
}

TEST(EncFs, TamperedBlockIsRejected)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    Bytes data = pattern(8192, 9);
    {
        EncFs fs(device, clock, FsHarness::make_config());
        ASSERT_TRUE(fs.mkfs().ok());
        ASSERT_TRUE(fs.write_file("/f", data).ok());
        ASSERT_TRUE(fs.sync().ok());
    }
    // The attacker flips one bit in some non-MAC device block that
    // actually holds data.
    bool flipped = false;
    for (uint64_t b = device.block_count() - 1; b > 0; --b) {
        Bytes &raw = device.raw_block(b);
        if (!raw.empty() &&
            std::any_of(raw.begin(), raw.end(),
                        [](uint8_t v) { return v != 0; })) {
            raw[100] ^= 0x1;
            flipped = true;
            break;
        }
    }
    ASSERT_TRUE(flipped);
    EncFs fs(device, clock, FsHarness::make_config());
    ASSERT_TRUE(fs.mount().ok());
    auto back = fs.read_file("/f");
    // Either the read fails with EIO, or the tampered block belonged
    // to metadata and the path lookup already failed.
    EXPECT_FALSE(back.ok());
}

TEST(EncFs, CacheHitsOnRepeatedReads)
{
    FsHarness h;
    Bytes data = pattern(4096, 10);
    ASSERT_TRUE(h.fs.write_file("/c", data).ok());
    auto inode = h.fs.open_inode("/c", false, false);
    ASSERT_TRUE(inode.ok());
    Bytes out(4096);
    uint64_t misses_before = h.fs.cache_misses();
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(
            h.fs.read(inode.value(), 0, out.data(), 4096).ok());
    }
    EXPECT_EQ(h.fs.cache_misses(), misses_before);
    EXPECT_GT(h.fs.cache_hits(), 49u);
}

TEST(EncFs, EvictionsCountedUnderCachePressure)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs::Config config = FsHarness::make_config();
    config.cache_blocks = 8;
    config.readahead_blocks = 0;
    EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());
    uint64_t after_mkfs = fs.evictions();
    // 64 data blocks through an 8-block cache must evict well over
    // 64 - 8 times, and every evicted dirty block must survive the
    // round trip back through the device.
    Bytes data = pattern(64 * 4096, 21);
    ASSERT_TRUE(fs.write_file("/big", data).ok());
    EXPECT_GE(fs.evictions() - after_mkfs, 56u);
    auto back = fs.read_file("/big");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
}

TEST(EncFs, ReadaheadWarmsCacheForSequentialReads)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs::Config config = FsHarness::make_config();
    config.cache_blocks = 256;
    config.readahead_blocks = 8;
    EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());
    // Exactly 10 blocks: after the stream is established at blocks
    // 0-1, one prefetch (8 blocks, clamped to EOF) covers the whole
    // remainder, so later iterations have nothing left to prefetch
    // and the miss counter must stay flat.
    Bytes data = pattern(10 * 4096, 22);
    ASSERT_TRUE(fs.write_file("/seq", data).ok());
    ASSERT_TRUE(fs.sync().ok());

    // Remount so the cache is cold, then establish a sequential
    // stream: the second read triggers a prefetch of the next 8 file
    // blocks, so reading those blocks must be pure cache hits.
    EncFs cold(device, clock, config);
    ASSERT_TRUE(cold.mount().ok());
    auto inode = cold.open_inode("/seq", false, false);
    ASSERT_TRUE(inode.ok());
    Bytes out(4096);
    ASSERT_TRUE(cold.read(inode.value(), 0, out.data(), 4096).ok());
    ASSERT_TRUE(cold.read(inode.value(), 4096, out.data(), 4096).ok());
    uint64_t misses_before = cold.cache_misses();
    for (uint64_t b = 2; b < 10; ++b) {
        auto n = cold.read(inode.value(), b * 4096, out.data(), 4096);
        ASSERT_TRUE(n.ok());
        EXPECT_EQ(Bytes(data.begin() + b * 4096,
                        data.begin() + (b + 1) * 4096),
                  out);
    }
    EXPECT_EQ(cold.cache_misses(), misses_before);
}

TEST(EncFs, ChargesCryptoAndDiskCosts)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs fs(device, clock, FsHarness::make_config());
    ASSERT_TRUE(fs.mkfs().ok());
    uint64_t before = clock.cycles();
    Bytes data = pattern(64 * 1024, 11);
    ASSERT_TRUE(fs.write_file("/f", data).ok());
    ASSERT_TRUE(fs.sync().ok());
    uint64_t spent = clock.cycles() - before;
    // At least disk write + AES + HMAC per byte.
    uint64_t floor = static_cast<uint64_t>(
        data.size() * (CostModel::kDiskWriteCyclesPerByte +
                       CostModel::kAesCyclesPerByte));
    EXPECT_GT(spent, floor);
}

TEST(EncFs, CtrIvIsUniqueAcrossCounterWrap)
{
    // Regression: the nonce used to be LE64(block) || LE32(counter),
    // with the counter's high 32 bits folded into the in-call counter
    // word. Two writes to the same block whose write counters differ
    // by exactly 2^32 then shared (key, nonce, counter) keystream.
    constexpr uint32_t kBlock = 7;
    constexpr uint64_t kLow = 0xffffffffull;     // just before the wrap
    constexpr uint64_t kHigh = kLow + (1ull << 32);

    auto iv_low = EncFs::ctr_iv(kBlock, kLow);
    auto iv_high = EncFs::ctr_iv(kBlock, kHigh);
    EXPECT_NE(iv_low, iv_high);

    // Adjacent counters around the wrap are all distinct too.
    EXPECT_NE(EncFs::ctr_iv(kBlock, kLow), EncFs::ctr_iv(kBlock, kLow + 1));
    EXPECT_NE(EncFs::ctr_iv(kBlock, kLow + 1),
              EncFs::ctr_iv(kBlock + 1, kLow + 1));

    // No 16-byte keystream block may repeat between the two 4 KiB
    // payload keystreams (the actual exploitable condition).
    crypto::Aes128 cipher(FsHarness::make_config().key);
    Bytes zeros(EncFs::kBlockSize, 0);
    Bytes ks_low = cipher.ctr_crypt(iv_low, 0, zeros);
    Bytes ks_high = cipher.ctr_crypt(iv_high, 0, zeros);
    std::set<Bytes> seen;
    for (size_t off = 0; off < zeros.size(); off += 16) {
        seen.insert(Bytes(ks_low.begin() + off, ks_low.begin() + off + 16));
        seen.insert(
            Bytes(ks_high.begin() + off, ks_high.begin() + off + 16));
    }
    EXPECT_EQ(seen.size(), 2 * zeros.size() / 16);
}

TEST(EncFs, RereadsAcrossCounterWrapBoundary)
{
    // End-to-end: a block rewritten with counters straddling the wrap
    // still round-trips, and its ciphertext changes on every rewrite.
    FsHarness h;
    Bytes a = pattern(EncFs::kBlockSize, 11);
    Bytes b = pattern(EncFs::kBlockSize, 12);
    ASSERT_TRUE(h.fs.write_file("/w", a).ok());
    ASSERT_TRUE(h.fs.sync().ok());
    ASSERT_TRUE(h.fs.write_file("/w", b).ok());
    ASSERT_TRUE(h.fs.sync().ok());
    auto back = h.fs.read_file("/w");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), b);
}

TEST(EncFs, SeededMixPinsCacheAndDeviceTraffic)
{
    // A seeded read/write/sync mix over two files through an 8-block
    // cache. The pinned values are the page cache's observable
    // behaviour: hit/miss/eviction counts, simulated cycles and the
    // exact device write sequence, each write's block and counter.
    // The device must not fail: a retried I/O would add cycles.
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    SimClock clock;
    host::BlockDevice device(clock, 256);
    WriteLog log(device);
    EncFs::Config config = FsHarness::make_config();
    config.inode_count = 16;
    config.cache_blocks = 8;
    config.ocall = [&log] { log.observe(); };
    EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());

    constexpr uint64_t kSpan = 48 * 4096;
    uint32_t inodes[2];
    std::vector<Bytes> model(2);
    for (int f = 0; f < 2; ++f) {
        auto inode = fs.open_inode("/m" + std::to_string(f), true, false);
        ASSERT_TRUE(inode.ok());
        inodes[f] = inode.value();
    }
    Rng rng(2024);
    for (int op = 0; op < 400; ++op) {
        uint64_t kind = rng.next_below(8);
        size_t f = rng.next_below(2);
        uint64_t offset = rng.next_below(kSpan);
        uint64_t len = 1 + rng.next_below(3 * 4096);
        if (kind == 0) {
            ASSERT_TRUE(fs.sync().ok());
        } else if (kind < 4) {
            Bytes data = pattern(len, op);
            ASSERT_TRUE(fs.write(inodes[f], offset, data.data(), len).ok());
            if (model[f].size() < offset + len) {
                model[f].resize(offset + len, 0);
            }
            std::copy(data.begin(), data.end(),
                      model[f].begin() + offset);
        } else {
            Bytes out(len);
            auto n = fs.read(inodes[f], offset, out.data(), len);
            ASSERT_TRUE(n.ok());
            uint64_t expect_n =
                offset >= model[f].size()
                    ? 0
                    : std::min(len, model[f].size() - offset);
            ASSERT_EQ(static_cast<uint64_t>(n.value()), expect_n) << op;
            ASSERT_TRUE(std::equal(out.begin(), out.begin() + expect_n,
                                   model[f].begin() + offset))
                << op;
        }
    }
    ASSERT_TRUE(fs.sync().ok());

    // Each payload write bumps its block's counter by one, so the
    // counter a write carried is its block's write count so far. The
    // final counters on the device must agree with the log.
    DeviceView view(device);
    std::vector<uint64_t> writes(device.block_count(), 0);
    uint64_t digest = 0xcbf29ce484222325ull; // FNV-1a over (block, ctr)
    for (uint32_t block : log.blocks) {
        uint64_t counter = block < view.mac_blocks ? 0 : ++writes[block];
        for (uint64_t word : {uint64_t{block}, counter}) {
            digest = (digest ^ word) * 0x100000001b3ull;
        }
    }
    for (uint32_t b = view.mac_blocks; b < device.block_count(); ++b) {
        EXPECT_EQ(view.counter(b), writes[b]) << "block " << b;
    }

    EXPECT_EQ(fs.cache_hits(), 647u);
    EXPECT_EQ(fs.cache_misses(), 689u);
    EXPECT_EQ(fs.evictions(), 681u);
    EXPECT_EQ(log.blocks.size(), 448u);
    EXPECT_EQ(digest, 16076209498383842208ull);
    EXPECT_EQ(clock.cycles(), 93846246u);
}

TEST(EncFs, IntegrityFailureOnMissCachesNothing)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs::Config config = FsHarness::make_config();
    config.cache_blocks = 4;
    config.readahead_blocks = 0;
    Bytes data = pattern(4 * 4096, 41);
    {
        EncFs fs(device, clock, config);
        ASSERT_TRUE(fs.mkfs().ok());
        ASSERT_TRUE(fs.write_file("/f", data).ok());
        ASSERT_TRUE(fs.sync().ok());
    }
    Bytes third(data.begin() + 2 * 4096, data.begin() + 3 * 4096);
    uint32_t victim = DeviceView(device).find(third);
    ASSERT_NE(victim, EncFs::kNoBlock);
    device.raw_block(victim)[100] ^= 0x1;

    EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mount().ok());
    auto inode = fs.open_inode("/f", false, false);
    ASSERT_TRUE(inode.ok());
    Bytes out(4096);
    EXPECT_FALSE(fs.read(inode.value(), 2 * 4096, out.data(), 4096).ok());
    // The failed block was not left resident: a retry misses again,
    // and fails again, rather than returning unverified plaintext.
    uint64_t misses = fs.cache_misses();
    EXPECT_FALSE(fs.read(inode.value(), 2 * 4096, out.data(), 4096).ok());
    EXPECT_EQ(fs.cache_misses(), misses + 1);

    // Once the device holds the genuine ciphertext again, the same
    // read verifies and returns the right block.
    device.raw_block(victim)[100] ^= 0x1;
    ASSERT_TRUE(fs.read(inode.value(), 2 * 4096, out.data(), 4096).ok());
    EXPECT_EQ(out, third);
}

TEST(EncFs, RecycledCacheSlotsNeverLeakAnotherBlock)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs::Config config = FsHarness::make_config();
    config.cache_blocks = 4;
    config.readahead_blocks = 0;
    Bytes data = pattern(16 * 4096, 42);
    {
        EncFs fs(device, clock, config);
        ASSERT_TRUE(fs.mkfs().ok());
        ASSERT_TRUE(fs.write_file("/f", data).ok());
        ASSERT_TRUE(fs.sync().ok());
    }
    EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mount().ok());
    auto inode = fs.open_inode("/f", false, false);
    ASSERT_TRUE(inode.ok());
    // Every read after the first few misses into a slot that last held
    // some other block.
    Bytes out(4096);
    for (uint64_t b : {15, 0, 7, 3, 12, 1, 9, 14, 2, 8, 4, 11, 6, 13, 5,
                       10, 15, 0}) {
        ASSERT_TRUE(fs.read(inode.value(), b * 4096, out.data(), 4096)
                        .ok());
        EXPECT_TRUE(std::equal(out.begin(), out.end(),
                               data.begin() + b * 4096))
            << "file block " << b;
    }
    EXPECT_GE(fs.evictions(), 12u);

    // A never-written block reads as zeros, even in a recycled slot.
    auto fresh = fs.open_inode("/g", true, false);
    ASSERT_TRUE(fresh.ok());
    uint8_t edge = 0x5a;
    ASSERT_TRUE(fs.write(fresh.value(), 0, &edge, 1).ok());
    ASSERT_TRUE(fs.write(fresh.value(), 4095, &edge, 1).ok());
    ASSERT_TRUE(fs.read(fresh.value(), 0, out.data(), 4096).ok());
    Bytes expect(4096, 0);
    expect.front() = expect.back() = edge;
    EXPECT_EQ(out, expect);
}

TEST(EncFs, IndirectFileReadsBackThroughFourBlockCache)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs::Config config = FsHarness::make_config();
    config.cache_blocks = 4;
    // 130 blocks: past the 120 direct pointers into the indirect block,
    // with the inode, bitmap and indirect blocks competing for 4 slots.
    Bytes data = pattern(130 * 4096 + 123, 43);
    {
        EncFs fs(device, clock, config);
        ASSERT_TRUE(fs.mkfs().ok());
        ASSERT_TRUE(fs.write_file("/big", data).ok());
        auto back = fs.read_file("/big");
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), data);
        ASSERT_TRUE(fs.sync().ok());
    }
    EncFs cold(device, clock, config);
    ASSERT_TRUE(cold.mount().ok());
    auto back = cold.read_file("/big");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
}

TEST(EncFs, FreedLowBlocksAreAllocatedFirst)
{
    FsHarness h;
    // Twelve one-block files take consecutive data blocks.
    std::vector<uint32_t> at;
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(h.fs.write_file("/f" + std::to_string(i),
                                    pattern(4096, 100 + i))
                        .ok());
    }
    ASSERT_TRUE(h.fs.sync().ok());
    DeviceView view(h.device);
    for (int i = 0; i < 12; ++i) {
        at.push_back(view.find(pattern(4096, 100 + i)));
        ASSERT_NE(at.back(), EncFs::kNoBlock);
        if (i > 0) {
            EXPECT_EQ(at[i], at[i - 1] + 1);
        }
    }

    // Free two low blocks: the next allocations fill them lowest
    // first, then continue past the highest block in use.
    ASSERT_TRUE(h.fs.unlink("/f7").ok());
    ASSERT_TRUE(h.fs.unlink("/f2").ok());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(h.fs.write_file("/g" + std::to_string(i),
                                    pattern(4096, 200 + i))
                        .ok());
    }
    ASSERT_TRUE(h.fs.sync().ok());
    EXPECT_EQ(view.find(pattern(4096, 200)), at[2]);
    EXPECT_EQ(view.find(pattern(4096, 201)), at[7]);
    EXPECT_EQ(view.find(pattern(4096, 202)), at[11] + 1);
}

/**
 * Create `path`, write its first and last byte only, and expect the
 * 4094 bytes between them to read back as zeros.
 */
void
expect_partial_block_reads_zero(EncFs &fs, const std::string &path)
{
    auto inode = fs.open_inode(path, true, false);
    ASSERT_TRUE(inode.ok());
    const uint8_t mark = 0xa5;
    ASSERT_TRUE(fs.write(inode.value(), 0, &mark, 1).ok());
    ASSERT_TRUE(fs.write(inode.value(), 4095, &mark, 1).ok());
    Bytes middle(4094, 0xee);
    auto got = fs.read(inode.value(), 1, middle.data(), middle.size());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value(), 4094);
    EXPECT_EQ(middle, Bytes(4094, 0)) << path;
}

TEST(EncFs, FreedBlockReadsAsZerosToItsNextOwner)
{
    // A deleted file's block, reallocated: still cached (dirty, or
    // clean after a sync), or only on the device after a remount. In
    // no case may its old plaintext show through the new owner's
    // partial write.
    for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE(variant);
        FsHarness h;
        ASSERT_TRUE(h.fs.write_file("/secret", pattern(4096, 77)).ok());
        if (variant >= 1) {
            ASSERT_TRUE(h.fs.sync().ok());
        }
        ASSERT_TRUE(h.fs.unlink("/secret").ok());
        if (variant == 2) {
            ASSERT_TRUE(h.fs.sync().ok());
            ASSERT_TRUE(h.fs.mount().ok()); // empties the cache
        }
        expect_partial_block_reads_zero(h.fs, "/new");
    }
}

TEST(EncFs, IndirectBlockFreedByTruncateReadsAsZeros)
{
    // /big takes direct blocks 0..119, then its indirect block (a
    // list of block numbers), then ten more data blocks. Truncated,
    // all are free again; /fill takes back the 120 lowest, so the
    // next allocation — /new's first data block — is the old
    // indirect block.
    for (bool remount : {false, true}) {
        SCOPED_TRACE(remount);
        FsHarness h;
        ASSERT_TRUE(h.fs.write_file("/big", pattern(130 * 4096, 5)).ok());
        ASSERT_TRUE(h.fs.sync().ok());
        ASSERT_TRUE(h.fs.open_inode("/big", false, true).ok());
        if (remount) {
            ASSERT_TRUE(h.fs.sync().ok());
            ASSERT_TRUE(h.fs.mount().ok());
        }
        ASSERT_TRUE(h.fs.write_file("/fill", pattern(120 * 4096, 6)).ok());
        expect_partial_block_reads_zero(h.fs, "/new");
    }
}

TEST(EncFs, RemountResetsTheCache)
{
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    EncFs::Config config = FsHarness::make_config();
    config.readahead_blocks = 0;
    EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());
    Bytes synced = pattern(8 * 4096, 51);
    ASSERT_TRUE(fs.write_file("/f", synced).ok());
    ASSERT_TRUE(fs.sync().ok());
    // Dirty in the cache only: a remount drops it unwritten.
    auto inode = fs.open_inode("/f", false, false);
    ASSERT_TRUE(inode.ok());
    Bytes scribble = pattern(4096, 52);
    ASSERT_TRUE(fs.write(inode.value(), 0, scribble.data(), 4096).ok());

    ASSERT_TRUE(fs.mount().ok());
    uint64_t misses = fs.cache_misses();
    auto back = fs.read_file("/f");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), synced);
    // Every data block came from the device again.
    EXPECT_GE(fs.cache_misses() - misses, 8u);

    // Allocation restarts from the on-device bitmap: a new file after
    // the remount survives another remount next to the old one.
    Bytes more = pattern(3 * 4096, 53);
    ASSERT_TRUE(fs.write_file("/g", more).ok());
    ASSERT_TRUE(fs.sync().ok());
    ASSERT_TRUE(fs.mount().ok());
    EXPECT_EQ(fs.read_file("/f").value(), synced);
    EXPECT_EQ(fs.read_file("/g").value(), more);
}

} // namespace
} // namespace occlum::libos
