#include "libos/encfs.h"

#include <algorithm>
#include <cstring>

#include "base/cost_model.h"
#include "base/log.h"
#include "trace/trace.h"

namespace occlum::libos {

namespace {

constexpr uint32_t kIndirectEntries =
    EncFs::kBlockSize / sizeof(uint32_t);

/**
 * Chunk size for the fused encrypt+MAC / decrypt+verify passes: big
 * enough to amortize call overhead, small enough that a chunk of
 * ciphertext is still hot in L1 when the second primitive touches it.
 * Must be a multiple of both the AES block (16) and SHA-256 block (64).
 */
constexpr size_t kCryptoChunk = 1024;

} // namespace

EncFs::EncFs(host::BlockDevice &device, SimClock &clock, Config config)
    : device_(&device), clock_(&clock), config_(config),
      cipher_(config.key),
      mac_key_(config.key.data(), config.key.size())
{
    // Geometry: MAC table sized to cover every payload block.
    uint64_t total = device.block_count();
    uint32_t records_per_block = kBlockSize / kMacRecordSize;
    // mac_blocks * records_per_block >= total - mac_blocks
    mac_blocks_ = static_cast<uint32_t>(
        (total + records_per_block) / (records_per_block + 1));
    if (mac_blocks_ == 0) {
        mac_blocks_ = 1;
    }
    super_block_ = mac_blocks_;
    inode_table_start_ = super_block_ + 1;
    inode_blocks_ =
        (config_.inode_count * kInodeSize + kBlockSize - 1) / kBlockSize;
    bitmap_start_ = inode_table_start_ + inode_blocks_;
    uint64_t data_candidates = total - bitmap_start_;
    bitmap_blocks_ = static_cast<uint32_t>(
        (data_candidates + kBlockSize * 8 - 1) / (kBlockSize * 8));
    if (bitmap_blocks_ == 0) {
        bitmap_blocks_ = 1;
    }
    data_start_ = bitmap_start_ + bitmap_blocks_;
    OCC_CHECK_MSG(data_start_ < total, "device too small for EncFs");
    OCC_CHECK_MSG(config_.cache_blocks > 0, "EncFs needs a cache slot");

    auto &registry = trace::Registry::instance();
    ctr_cache_hits_ = &registry.counter("encfs.cache_hits");
    ctr_cache_misses_ = &registry.counter("encfs.cache_misses");
    ctr_dev_reads_ = &registry.counter("encfs.dev_reads");
    ctr_dev_writes_ = &registry.counter("encfs.dev_writes");
    ctr_evictions_ = &registry.counter("encfs.evictions");
    ctr_readahead_ = &registry.counter("encfs.readahead_blocks");
    ctr_io_retries_ = &registry.counter("encfs.io_retries");
}

// ---------------------------------------------------------------------
// device layer (bounded retry/backoff, DESIGN.md "Fault model")
// ---------------------------------------------------------------------

Status
EncFs::dev_read(uint32_t block, Bytes &out)
{
    OCC_TRACE_SPAN(kOcall, "encfs.dev_read", block);
    ctr_dev_reads_->add();
    uint64_t backoff = CostModel::kIoRetryBackoffCycles;
    for (uint32_t attempt = 0;; ++attempt) {
        Status status = device_->read_block(block, out);
        if (config_.ocall) {
            config_.ocall();
        }
        if (status.ok() || status.code() != ErrorCode::kAgain) {
            return status;
        }
        if (attempt == CostModel::kIoRetryLimit) {
            return Status(ErrorCode::kIo,
                          "EncFs: device read still failing after " +
                              std::to_string(attempt) + " retries");
        }
        // Transient host fault: back off (charged to the shared
        // clock) and re-issue the OCALL.
        ctr_io_retries_->add();
        clock_->advance(backoff);
        backoff *= 2;
    }
}

Status
EncFs::dev_write(uint32_t block, const Bytes &in)
{
    OCC_TRACE_SPAN(kOcall, "encfs.dev_write", block);
    ctr_dev_writes_->add();
    uint64_t backoff = CostModel::kIoRetryBackoffCycles;
    for (uint32_t attempt = 0;; ++attempt) {
        Status status = device_->write_block(block, in);
        if (config_.ocall) {
            config_.ocall();
        }
        if (status.ok() || status.code() != ErrorCode::kAgain) {
            return status;
        }
        if (attempt == CostModel::kIoRetryLimit) {
            return Status(ErrorCode::kIo,
                          "EncFs: device write still failing after " +
                              std::to_string(attempt) + " retries");
        }
        ctr_io_retries_->add();
        clock_->advance(backoff);
        backoff *= 2;
    }
}

void
EncFs::charge_crypto(uint64_t bytes)
{
    OCC_TRACE_SPAN(kFs, "encfs.crypto", bytes);
    clock_->advance(static_cast<uint64_t>(
        bytes * (CostModel::kAesCyclesPerByte +
                 CostModel::kHmacCyclesPerByte)));
}

std::array<uint8_t, 12>
EncFs::ctr_iv(uint32_t block, uint64_t counter)
{
    // LE32(block) || LE64(counter): every (block, counter) pair gets
    // a unique 96-bit nonce, and the 32-bit in-call counter word
    // (always started at 0) only ever counts the 256 AES blocks of
    // one 4 KiB payload. The previous packing dropped the counter's
    // high 32 bits into the in-call counter word, so counters 2^32
    // apart shared a nonce and produced overlapping keystream.
    std::array<uint8_t, 12> iv{};
    set_le<uint32_t>(iv.data(), block);
    set_le<uint64_t>(iv.data() + 4, counter);
    return iv;
}

crypto::Sha256Digest
EncFs::encrypt_mac(uint32_t block, uint64_t counter, const Bytes &plain,
                   Bytes &ciphertext) const
{
    ciphertext.resize(plain.size());
    auto iv = ctr_iv(block, counter);
    crypto::Sha256 h = mac_key_.begin();
    for (size_t off = 0; off < plain.size(); off += kCryptoChunk) {
        size_t n = std::min(kCryptoChunk, plain.size() - off);
        cipher_.ctr_crypt(iv, static_cast<uint32_t>(off / 16),
                          plain.data() + off, ciphertext.data() + off,
                          n);
        h.update(ciphertext.data() + off, n);
    }
    uint8_t trailer[12];
    set_le<uint32_t>(trailer, block);
    set_le<uint64_t>(trailer + 4, counter);
    h.update(trailer, sizeof(trailer));
    return mac_key_.finish(h);
}

bool
EncFs::decrypt_verify(uint32_t block, const MacRecord &record,
                      const Bytes &ciphertext, Bytes &plain) const
{
    plain.resize(ciphertext.size());
    auto iv = ctr_iv(block, record.counter);
    crypto::Sha256 h = mac_key_.begin();
    for (size_t off = 0; off < ciphertext.size(); off += kCryptoChunk) {
        size_t n = std::min(kCryptoChunk, ciphertext.size() - off);
        h.update(ciphertext.data() + off, n);
        cipher_.ctr_crypt(iv, static_cast<uint32_t>(off / 16),
                          ciphertext.data() + off, plain.data() + off,
                          n);
    }
    uint8_t trailer[12];
    set_le<uint32_t>(trailer, block);
    set_le<uint64_t>(trailer + 4, record.counter);
    h.update(trailer, sizeof(trailer));
    return crypto::digest_equal(mac_key_.finish(h), record.mac);
}

// ---------------------------------------------------------------------
// MAC table
// ---------------------------------------------------------------------

Status
EncFs::load_mac_table()
{
    uint64_t total = device_->block_count();
    mac_table_.assign(total, MacRecord{});
    mac_block_dirty_.assign(mac_blocks_, false);
    uint32_t records_per_block = kBlockSize / kMacRecordSize;
    for (uint32_t mb = 0; mb < mac_blocks_; ++mb) {
        Bytes raw;
        OCC_RETURN_IF_ERROR(dev_read(mb, raw));
        for (uint32_t r = 0; r < records_per_block; ++r) {
            uint64_t index =
                static_cast<uint64_t>(mb) * records_per_block + r +
                mac_blocks_;
            if (index >= total) {
                break;
            }
            const uint8_t *rec = raw.data() + r * kMacRecordSize;
            MacRecord record;
            std::memcpy(record.mac.data(), rec, 32);
            record.counter = get_le<uint64_t>(rec + 32);
            mac_table_[index] = record;
        }
    }
    return Status();
}

Status
EncFs::flush_mac_table()
{
    uint32_t records_per_block = kBlockSize / kMacRecordSize;
    uint64_t total = device_->block_count();
    for (uint32_t mb = 0; mb < mac_blocks_; ++mb) {
        if (!mac_block_dirty_[mb]) {
            continue;
        }
        Bytes raw(kBlockSize, 0);
        for (uint32_t r = 0; r < records_per_block; ++r) {
            uint64_t index =
                static_cast<uint64_t>(mb) * records_per_block + r +
                mac_blocks_;
            if (index >= total) {
                break;
            }
            uint8_t *rec = raw.data() + r * kMacRecordSize;
            std::memcpy(rec, mac_table_[index].mac.data(), 32);
            set_le<uint64_t>(rec + 32, mac_table_[index].counter);
        }
        OCC_RETURN_IF_ERROR(dev_write(mb, raw));
        mac_block_dirty_[mb] = false;
    }
    return Status();
}

// ---------------------------------------------------------------------
// block cache
// ---------------------------------------------------------------------

Result<uint8_t *>
EncFs::get_block(uint32_t block, bool for_write)
{
    OCC_CHECK_MSG(block >= mac_blocks_ &&
                  block < device_->block_count(),
                  "payload block out of range");
    uint32_t slot = slot_of(block);
    if (slot != kNoSlot) {
        ++cache_hits_;
        ctr_cache_hits_->add();
        if (slot != lru_head_) {
            lru_unlink(slot);
            lru_push_front(slot);
        }
        CacheEntry &entry = slots_[slot];
        entry.dirty |= for_write;
        return entry.data.data();
    }
    ++cache_misses_;
    ctr_cache_misses_->add();
    OCC_RETURN_IF_ERROR(evict_if_needed());

    const MacRecord &record = mac_table_[block];
    const bool zeros = record.counter == 0 || record.fresh;
    if (!zeros) {
        OCC_RETURN_IF_ERROR(dev_read(block, ciphertext_));
    }
    slot = take_slot();
    CacheEntry &entry = slots_[slot];
    if (zeros) {
        // Never written, or allocated since its last flush: logically
        // zero, nothing to fetch or verify.
        entry.data.assign(kBlockSize, 0);
    } else {
        bool ok = decrypt_verify(block, record, ciphertext_, entry.data);
        charge_crypto(kBlockSize);
        if (!ok) {
            // The slot holds unverified plaintext: it goes back on the
            // free stack and the block stays non-resident.
            free_slots_.push_back(slot);
            return Error(ErrorCode::kIo,
                         "EncFs: integrity check failed on block " +
                             std::to_string(block));
        }
    }
    entry.block = block;
    entry.dirty = for_write;
    if (block >= slot_of_.size()) {
        slot_of_.resize(block + 1, kNoSlot);
    }
    slot_of_[block] = slot;
    lru_push_front(slot);
    return entry.data.data();
}

uint32_t
EncFs::take_slot()
{
    if (!free_slots_.empty()) {
        uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
}

void
EncFs::lru_unlink(uint32_t slot)
{
    CacheEntry &entry = slots_[slot];
    (entry.prev == kNoSlot ? lru_head_ : slots_[entry.prev].next) =
        entry.next;
    (entry.next == kNoSlot ? lru_tail_ : slots_[entry.next].prev) =
        entry.prev;
}

void
EncFs::lru_push_front(uint32_t slot)
{
    CacheEntry &entry = slots_[slot];
    entry.prev = kNoSlot;
    entry.next = lru_head_;
    (lru_head_ == kNoSlot ? lru_tail_ : slots_[lru_head_].prev) = slot;
    lru_head_ = slot;
}

void
EncFs::reset_cache()
{
    std::fill(slot_of_.begin(), slot_of_.end(), kNoSlot);
    free_slots_.clear();
    // Pushed high to low, so slot 0 is reused first.
    for (auto slot = static_cast<uint32_t>(slots_.size()); slot-- > 0;) {
        slots_[slot].block = kNoBlock;
        slots_[slot].dirty = false;
        free_slots_.push_back(slot);
    }
    lru_head_ = lru_tail_ = kNoSlot;
    alloc_hint_ = 0;
}

Status
EncFs::flush_entry(CacheEntry &entry)
{
    if (!entry.dirty) {
        return Status();
    }
    uint32_t block = entry.block;
    MacRecord &record = mac_table_[block];
    const MacRecord saved = record;
    ++record.counter;
    record.mac = encrypt_mac(block, record.counter, entry.data,
                             ciphertext_);
    charge_crypto(kBlockSize);
    Status wrote = dev_write(block, ciphertext_);
    if (!wrote.ok()) {
        // The device still holds the old ciphertext: roll the MAC
        // record back so an uncached re-read of this block still
        // verifies against what is actually on disk, leave the entry
        // dirty so the data survives for a later sync, and surface
        // the error. (Previously the counter/MAC advanced before the
        // write with no rollback: one failed flush left the in-memory
        // MAC table disagreeing with the device forever.)
        record = saved;
        return wrote;
    }
    uint32_t records_per_block = kBlockSize / kMacRecordSize;
    mac_block_dirty_[(block - mac_blocks_) / records_per_block] = true;
    record.fresh = false;
    entry.dirty = false;
    return Status();
}

Status
EncFs::evict_if_needed()
{
    // O(1) per eviction: the victim is the LRU tail.
    while (slots_.size() - free_slots_.size() >= config_.cache_blocks) {
        uint32_t victim = lru_tail_;
        CacheEntry &entry = slots_[victim];
        OCC_RETURN_IF_ERROR(flush_entry(entry));
        lru_unlink(victim);
        slot_of_[entry.block] = kNoSlot;
        entry.block = kNoBlock;
        free_slots_.push_back(victim);
        ++evictions_;
        ctr_evictions_->add();
    }
    return Status();
}

Status
EncFs::sync()
{
    // Flush in ascending block order, so the device write sequence
    // does not depend on which slot holds which block. Clean blocks
    // write nothing, so only dirty ones are listed.
    dirty_blocks_.clear();
    for (const CacheEntry &entry : slots_) {
        if (entry.block != kNoBlock && entry.dirty) {
            dirty_blocks_.push_back(entry.block);
        }
    }
    std::sort(dirty_blocks_.begin(), dirty_blocks_.end());
    for (uint32_t block : dirty_blocks_) {
        OCC_RETURN_IF_ERROR(flush_entry(slots_[slot_of_[block]]));
    }
    return flush_mac_table();
}

// ---------------------------------------------------------------------
// format / mount
// ---------------------------------------------------------------------

Status
EncFs::mkfs()
{
    mac_table_.assign(device_->block_count(), MacRecord{});
    mac_block_dirty_.assign(mac_blocks_, true);
    reset_cache();
    mounted_ = true;

    // Superblock.
    uint8_t *super = nullptr;
    {
        auto sb = get_block(super_block_, true);
        if (!sb.ok()) return sb.error();
        super = sb.take();
    }
    std::memset(super, 0, kBlockSize);
    set_le<uint32_t>(super, kMagic);
    set_le<uint32_t>(super + 4, config_.inode_count);

    // Root directory: inode 0.
    Inode root;
    root.type = InodeType::kDir;
    root.size = 0;
    for (auto &d : root.direct) {
        d = kNoBlock;
    }
    root.indirect = kNoBlock;
    // Clear the full inode table + bitmap first.
    for (uint32_t b = inode_table_start_; b < data_start_; ++b) {
        auto blk = get_block(b, true);
        if (!blk.ok()) return blk.error();
        std::memset(blk.value(), 0, kBlockSize);
    }
    OCC_RETURN_IF_ERROR(store_inode(0, root));
    root_inode_ = 0;
    return sync();
}

Status
EncFs::mount()
{
    OCC_RETURN_IF_ERROR(load_mac_table());
    reset_cache();
    mounted_ = true;
    auto sb = get_block(super_block_, false);
    if (!sb.ok()) {
        return sb.error();
    }
    if (get_le<uint32_t>(sb.value()) != kMagic) {
        mounted_ = false;
        return Status(ErrorCode::kInval, "EncFs: bad superblock magic");
    }
    root_inode_ = 0;
    return Status();
}

// ---------------------------------------------------------------------
// allocation
// ---------------------------------------------------------------------

Result<uint32_t>
EncFs::alloc_block()
{
    uint64_t data_blocks = device_->block_count() - data_start_;
    for (uint32_t bb = 0; bb < bitmap_blocks_; ++bb) {
        // Every bitmap block up to the one that yields is fetched, as
        // a scan from byte 0 would, so the cache sees the same
        // accesses; only the bytes below the hint are not re-read.
        auto blk = get_block(bitmap_start_ + bb, false);
        if (!blk.ok()) return blk.error();
        const uint8_t *bits = blk.value();
        uint64_t first = static_cast<uint64_t>(bb) * kBlockSize;
        for (uint64_t byte = std::max(first, alloc_hint_) - first;
             byte < kBlockSize; ++byte) {
            if (bits[byte] == 0xff) {
                continue;
            }
            for (int bit = 0; bit < 8; ++bit) {
                uint64_t index = (first + byte) * 8 + bit;
                if (index >= data_blocks) {
                    return Error(ErrorCode::kNoSpc, "EncFs full");
                }
                if (!(bits[byte] & (1 << bit))) {
                    auto wblk = get_block(bitmap_start_ + bb, true);
                    if (!wblk.ok()) return wblk.error();
                    wblk.value()[byte] |=
                        static_cast<uint8_t>(1 << bit);
                    alloc_hint_ = first + byte;
                    const auto block =
                        static_cast<uint32_t>(data_start_ + index);
                    // A freed block still holds its last owner's bytes,
                    // on the device and maybe in the cache: the new
                    // owner must see zeros.
                    mac_table_[block].fresh = true;
                    const uint32_t slot = slot_of(block);
                    if (slot != kNoSlot) {
                        std::fill(slots_[slot].data.begin(),
                                  slots_[slot].data.end(), 0);
                    }
                    return block;
                }
            }
        }
    }
    return Error(ErrorCode::kNoSpc, "EncFs full");
}

Status
EncFs::free_block(uint32_t block)
{
    if (block < data_start_ || block >= device_->block_count()) {
        return Status(ErrorCode::kInval, "free of non-data block");
    }
    uint64_t index = block - data_start_;
    uint32_t bb = static_cast<uint32_t>(index / (kBlockSize * 8));
    auto blk = get_block(bitmap_start_ + bb, true);
    if (!blk.ok()) return blk.error();
    uint64_t in_block = index % (kBlockSize * 8);
    blk.value()[in_block / 8] &=
        static_cast<uint8_t>(~(1 << (in_block % 8)));
    alloc_hint_ = std::min(alloc_hint_, index / 8);
    return Status();
}

Result<uint32_t>
EncFs::alloc_inode(InodeType type)
{
    for (uint32_t i = 0; i < config_.inode_count; ++i) {
        auto inode = load_inode(i);
        if (!inode.ok()) return inode.error();
        if (inode.value().type == InodeType::kFree &&
            (i != root_inode_)) {
            Inode fresh;
            fresh.type = type;
            fresh.size = 0;
            for (auto &d : fresh.direct) {
                d = kNoBlock;
            }
            fresh.indirect = kNoBlock;
            OCC_RETURN_IF_ERROR(store_inode(i, fresh));
            return i;
        }
    }
    return Error(ErrorCode::kNoSpc, "out of inodes");
}

// ---------------------------------------------------------------------
// inodes
// ---------------------------------------------------------------------

EncFs::DirectRange
EncFs::direct_range(uint64_t offset, uint64_t len, uint64_t extra)
{
    const uint64_t first = offset / kBlockSize;
    if (first >= kDirectBlocks) {
        return {kDirectBlocks, 0};
    }
    // Blocks spanned, counted without forming offset + len (a hostile
    // length must not wrap).
    const uint64_t span =
        len == 0 ? 1 : ((offset % kBlockSize) + (len - 1)) / kBlockSize + 1;
    const uint64_t want = std::min<uint64_t>(span, kDirectBlocks) + extra;
    const uint64_t count = std::min<uint64_t>(want, kDirectBlocks - first);
    return {static_cast<uint32_t>(first), static_cast<uint32_t>(count)};
}

Result<EncFs::Inode>
EncFs::load_inode(uint32_t index, DirectRange range)
{
    if (index >= config_.inode_count) {
        return Error(ErrorCode::kInval, "bad inode index");
    }
    uint32_t per_block = kBlockSize / kInodeSize;
    auto blk = get_block(inode_table_start_ + index / per_block, false);
    if (!blk.ok()) return blk.error();
    const uint8_t *raw =
        blk.value() + (index % per_block) * kInodeSize;
    Inode inode;
    inode.type = static_cast<InodeType>(raw[0]);
    inode.size = get_le<uint64_t>(raw + 8);
    for (uint32_t d = range.first; d < range.first + range.count; ++d) {
        inode.direct[d] = get_le<uint32_t>(raw + 16 + 4 * d);
    }
    inode.decoded = range;
    inode.indirect = get_le<uint32_t>(raw + 16 + 4 * kDirectBlocks);
    return inode;
}

Status
EncFs::store_inode(uint32_t index, const Inode &inode, DirectRange range)
{
    if (index >= config_.inode_count) {
        return Status(ErrorCode::kInval, "bad inode index");
    }
    uint32_t per_block = kBlockSize / kInodeSize;
    auto blk = get_block(inode_table_start_ + index / per_block, true);
    if (!blk.ok()) return blk.error();
    uint8_t *raw = blk.value() + (index % per_block) * kInodeSize;
    OCC_CHECK(range.first >= inode.decoded.first &&
              range.first + range.count <=
                  inode.decoded.first + inode.decoded.count);
    if (range.first == 0 && range.count == kDirectBlocks) {
        std::memset(raw, 0, kInodeSize);
    }
    raw[0] = static_cast<uint8_t>(inode.type);
    set_le<uint64_t>(raw + 8, inode.size);
    for (uint32_t d = range.first; d < range.first + range.count; ++d) {
        set_le<uint32_t>(raw + 16 + 4 * d, inode.direct[d]);
    }
    set_le<uint32_t>(raw + 16 + 4 * kDirectBlocks, inode.indirect);
    return Status();
}

Result<uint32_t>
EncFs::map_file_block(Inode &inode, uint64_t file_block, bool allocate,
                      bool &inode_dirty)
{
    if (file_block < kDirectBlocks) {
        // Outside the decoded range the pointer is not the inode's.
        OCC_CHECK(file_block >= inode.decoded.first &&
                  file_block < inode.decoded.first + inode.decoded.count);
        uint32_t block = inode.direct[file_block];
        if (block == kNoBlock) {
            if (!allocate) {
                return kNoBlock;
            }
            auto fresh = alloc_block();
            if (!fresh.ok()) return fresh.error();
            inode.direct[file_block] = fresh.value();
            inode_dirty = true;
            return fresh.value();
        }
        return block;
    }
    uint64_t ind_index = file_block - kDirectBlocks;
    if (ind_index >= kIndirectEntries) {
        return Error(ErrorCode::kNoSpc, "file too large for EncFs");
    }
    if (inode.indirect == kNoBlock) {
        if (!allocate) {
            return kNoBlock;
        }
        auto fresh = alloc_block();
        if (!fresh.ok()) return fresh.error();
        inode.indirect = fresh.value();
        inode_dirty = true;
        auto blk = get_block(inode.indirect, true);
        if (!blk.ok()) return blk.error();
        std::memset(blk.value(), 0xff, kBlockSize); // kNoBlock
    }
    auto ind = get_block(inode.indirect, false);
    if (!ind.ok()) return ind.error();
    uint32_t block =
        get_le<uint32_t>(ind.value() + 4 * ind_index);
    if (block == kNoBlock) {
        if (!allocate) {
            return kNoBlock;
        }
        auto fresh = alloc_block();
        if (!fresh.ok()) return fresh.error();
        auto wind = get_block(inode.indirect, true);
        if (!wind.ok()) return wind.error();
        set_le<uint32_t>(wind.value() + 4 * ind_index,
                         fresh.value());
        return fresh.value();
    }
    return block;
}

// ---------------------------------------------------------------------
// directories
// ---------------------------------------------------------------------

Result<uint32_t>
EncFs::dir_lookup(uint32_t dir_inode, const std::string &name)
{
    auto dir = load_inode(dir_inode);
    if (!dir.ok()) return dir.error();
    if (dir.value().type != InodeType::kDir) {
        return Error(ErrorCode::kNotDir, "not a directory");
    }
    Bytes entry(kDirEntrySize);
    for (uint64_t off = 0; off < dir.value().size;
         off += kDirEntrySize) {
        auto n = read(dir_inode, off, entry.data(), kDirEntrySize);
        if (!n.ok()) return n.error();
        uint32_t inode = get_le<uint32_t>(entry.data());
        uint8_t name_len = entry[4];
        if (inode == kNoBlock || name_len == 0) {
            continue; // deleted slot
        }
        std::string entry_name(
            reinterpret_cast<const char *>(entry.data() + 8), name_len);
        if (entry_name == name) {
            return inode;
        }
    }
    return Error(ErrorCode::kNoEnt, "no such entry: " + name);
}

Status
EncFs::dir_insert(uint32_t dir_inode, const std::string &name,
                  uint32_t inode)
{
    if (name.empty() || name.size() > kNameMax) {
        return Status(ErrorCode::kNameTooLong, "bad name");
    }
    auto dir = load_inode(dir_inode);
    if (!dir.ok()) return dir.error();
    Bytes entry(kDirEntrySize, 0);
    // Reuse a deleted slot if any.
    uint64_t slot = dir.value().size;
    Bytes probe(kDirEntrySize);
    for (uint64_t off = 0; off < dir.value().size;
         off += kDirEntrySize) {
        auto n = read(dir_inode, off, probe.data(), kDirEntrySize);
        if (!n.ok()) return n.error();
        if (get_le<uint32_t>(probe.data()) == kNoBlock ||
            probe[4] == 0) {
            slot = off;
            break;
        }
    }
    set_le<uint32_t>(entry.data(), inode);
    entry[4] = static_cast<uint8_t>(name.size());
    std::memcpy(entry.data() + 8, name.data(), name.size());
    auto written = write(dir_inode, slot, entry.data(), kDirEntrySize);
    if (!written.ok()) return written.error();
    return Status();
}

Status
EncFs::dir_remove(uint32_t dir_inode, const std::string &name)
{
    auto dir = load_inode(dir_inode);
    if (!dir.ok()) return dir.error();
    Bytes entry(kDirEntrySize);
    for (uint64_t off = 0; off < dir.value().size;
         off += kDirEntrySize) {
        auto n = read(dir_inode, off, entry.data(), kDirEntrySize);
        if (!n.ok()) return n.error();
        uint8_t name_len = entry[4];
        uint32_t inode = get_le<uint32_t>(entry.data());
        if (inode == kNoBlock || name_len == 0) {
            continue;
        }
        std::string entry_name(
            reinterpret_cast<const char *>(entry.data() + 8), name_len);
        if (entry_name == name) {
            Bytes dead(kDirEntrySize, 0);
            set_le<uint32_t>(dead.data(), kNoBlock);
            auto w = write(dir_inode, off, dead.data(), kDirEntrySize);
            if (!w.ok()) return w.error();
            return Status();
        }
    }
    return Status(ErrorCode::kNoEnt, "no such entry: " + name);
}

bool
EncFs::dir_empty(uint32_t dir_inode)
{
    auto dir = load_inode(dir_inode);
    if (!dir.ok()) return false;
    Bytes entry(kDirEntrySize);
    for (uint64_t off = 0; off < dir.value().size;
         off += kDirEntrySize) {
        auto n = read(dir_inode, off, entry.data(), kDirEntrySize);
        if (!n.ok()) return false;
        if (get_le<uint32_t>(entry.data()) != kNoBlock && entry[4] != 0) {
            return false;
        }
    }
    return true;
}

Result<std::pair<uint32_t, std::string>>
EncFs::resolve_parent(const std::string &path)
{
    if (path.empty() || path[0] != '/') {
        return Error(ErrorCode::kInval, "paths must be absolute");
    }
    std::vector<std::string> parts;
    std::string current;
    for (char c : path) {
        if (c == '/') {
            if (!current.empty()) {
                parts.push_back(current);
                current.clear();
            }
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty()) {
        parts.push_back(current);
    }
    if (parts.empty()) {
        return Error(ErrorCode::kIsDir, "path is the root");
    }
    uint32_t dir = root_inode_;
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
        auto next = dir_lookup(dir, parts[i]);
        if (!next.ok()) return next.error();
        auto inode = load_inode(next.value());
        if (!inode.ok()) return inode.error();
        if (inode.value().type != InodeType::kDir) {
            return Error(ErrorCode::kNotDir, parts[i]);
        }
        dir = next.value();
    }
    return std::make_pair(dir, parts.back());
}

// ---------------------------------------------------------------------
// public operations
// ---------------------------------------------------------------------

Result<uint32_t>
EncFs::open_inode(const std::string &path, bool create, bool do_truncate)
{
    OCC_CHECK_MSG(mounted_, "EncFs not mounted");
    auto parent = resolve_parent(path);
    if (!parent.ok()) return parent.error();
    auto [dir, name] = parent.value();
    auto found = dir_lookup(dir, name);
    if (found.ok()) {
        auto inode = load_inode(found.value());
        if (!inode.ok()) return inode.error();
        if (inode.value().type != InodeType::kFile) {
            return Error(ErrorCode::kIsDir, path);
        }
        if (do_truncate) {
            OCC_RETURN_IF_ERROR(truncate(found.value()));
        }
        return found.value();
    }
    if (!create) {
        return Error(ErrorCode::kNoEnt, path);
    }
    auto inode = alloc_inode(InodeType::kFile);
    if (!inode.ok()) return inode.error();
    OCC_RETURN_IF_ERROR(dir_insert(dir, name, inode.value()));
    return inode.value();
}

Status
EncFs::mkdir(const std::string &path)
{
    auto parent = resolve_parent(path);
    if (!parent.ok()) return parent.error();
    auto [dir, name] = parent.value();
    if (dir_lookup(dir, name).ok()) {
        return Status(ErrorCode::kExist, path);
    }
    auto inode = alloc_inode(InodeType::kDir);
    if (!inode.ok()) return inode.error();
    return dir_insert(dir, name, inode.value());
}

Status
EncFs::unlink(const std::string &path)
{
    auto parent = resolve_parent(path);
    if (!parent.ok()) return parent.error();
    auto [dir, name] = parent.value();
    auto found = dir_lookup(dir, name);
    if (!found.ok()) return found.error();
    auto inode = load_inode(found.value());
    if (!inode.ok()) return inode.error();
    if (inode.value().type == InodeType::kDir &&
        !dir_empty(found.value())) {
        return Status(ErrorCode::kNotEmpty, path);
    }
    OCC_RETURN_IF_ERROR(truncate(found.value()));
    Inode dead;
    dead.type = InodeType::kFree;
    for (auto &d : dead.direct) {
        d = kNoBlock;
    }
    OCC_RETURN_IF_ERROR(store_inode(found.value(), dead));
    return dir_remove(dir, name);
}

Result<bool>
EncFs::exists(const std::string &path)
{
    auto parent = resolve_parent(path);
    if (!parent.ok()) return parent.error();
    auto [dir, name] = parent.value();
    return dir_lookup(dir, name).ok();
}

Result<int64_t>
EncFs::read(uint32_t inode_index, uint64_t offset, uint8_t *out,
            uint64_t len)
{
    OCC_TRACE_SPAN(kFs, "encfs.read", len);
    clock_->advance(CostModel::kEncFsOpCycles);
    // The blocks read, plus what readahead may map past them.
    auto inode = load_inode(
        inode_index,
        direct_range(offset, len, config_.readahead_blocks + 1));
    if (!inode.ok()) return inode.error();
    Inode node = inode.take();
    if (offset >= node.size) {
        return 0;
    }
    len = std::min(len, node.size - offset);
    uint64_t done = 0;
    bool inode_dirty = false;
    while (done < len) {
        uint64_t pos = offset + done;
        uint64_t file_block = pos / kBlockSize;
        uint64_t in_block = pos % kBlockSize;
        uint64_t n = std::min(kBlockSize - in_block, len - done);
        auto block = map_file_block(node, file_block, false, inode_dirty);
        if (!block.ok()) return block.error();
        if (block.value() == kNoBlock) {
            std::memset(out + done, 0, n); // hole
        } else {
            auto data = get_block(block.value(), false);
            if (!data.ok()) return data.error();
            std::memcpy(out + done, data.value() + in_block, n);
        }
        done += n;
    }
    maybe_readahead(inode_index, node, offset, len);
    clock_->advance(static_cast<uint64_t>(
        done * CostModel::kMemcpyCyclesPerByte));
    return static_cast<int64_t>(done);
}

void
EncFs::maybe_readahead(uint32_t inode_index, Inode &node,
                       uint64_t offset, uint64_t len)
{
    size_t ra = config_.readahead_blocks;
    bool sequential =
        inode_index == ra_inode_ && offset == ra_expect_offset_;
    ra_streak_ = sequential ? ra_streak_ + 1 : 0;
    ra_inode_ = inode_index;
    ra_expect_offset_ = offset + len;
    // Only prefetch for an established stream (second sequential read
    // onward), and never when the cache is so small that prefetched
    // blocks would evict the working set before being consumed.
    if (ra == 0 || ra_streak_ == 0 || config_.cache_blocks < 4 * ra) {
        return;
    }
    uint64_t next_fb = (offset + len + kBlockSize - 1) / kBlockSize;
    uint64_t end_fb = (node.size + kBlockSize - 1) / kBlockSize;
    bool inode_dirty = false;
    for (uint64_t fb = next_fb; fb < next_fb + ra && fb < end_fb; ++fb) {
        auto block = map_file_block(node, fb, false, inode_dirty);
        if (!block.ok()) {
            return;
        }
        if (block.value() == kNoBlock ||
            slot_of(block.value()) != kNoSlot) {
            continue; // hole, or already resident
        }
        ctr_readahead_->add();
        // A failed prefetch (e.g. integrity error) is not reported
        // here; the demand fetch will hit the same error and surface
        // it to the caller.
        if (!get_block(block.value(), false).ok()) {
            return;
        }
    }
}

Result<int64_t>
EncFs::write(uint32_t inode_index, uint64_t offset, const uint8_t *in,
             uint64_t len)
{
    OCC_TRACE_SPAN(kFs, "encfs.write", len);
    clock_->advance(CostModel::kEncFsOpCycles);
    const DirectRange range = direct_range(offset, len, 0);
    auto inode = load_inode(inode_index, range);
    if (!inode.ok()) return inode.error();
    Inode node = inode.take();
    uint64_t done = 0;
    bool inode_dirty = false;
    while (done < len) {
        uint64_t pos = offset + done;
        uint64_t file_block = pos / kBlockSize;
        uint64_t in_block = pos % kBlockSize;
        uint64_t n = std::min(kBlockSize - in_block, len - done);
        auto block = map_file_block(node, file_block, true, inode_dirty);
        if (!block.ok()) return block.error();
        auto data = get_block(block.value(), true);
        if (!data.ok()) return data.error();
        std::memcpy(data.value() + in_block, in + done, n);
        done += n;
    }
    if (offset + len > node.size) {
        node.size = offset + len;
        inode_dirty = true;
    }
    if (inode_dirty) {
        OCC_RETURN_IF_ERROR(store_inode(inode_index, node, range));
    }
    clock_->advance(static_cast<uint64_t>(
        done * CostModel::kMemcpyCyclesPerByte));
    return static_cast<int64_t>(done);
}

Result<uint64_t>
EncFs::file_size(uint32_t inode_index)
{
    auto inode = load_inode(inode_index);
    if (!inode.ok()) return inode.error();
    return inode.value().size;
}

Status
EncFs::truncate(uint32_t inode_index)
{
    auto inode = load_inode(inode_index);
    if (!inode.ok()) return inode.error();
    Inode node = inode.take();
    for (uint32_t d = 0; d < kDirectBlocks; ++d) {
        if (node.direct[d] != kNoBlock) {
            OCC_RETURN_IF_ERROR(free_block(node.direct[d]));
            node.direct[d] = kNoBlock;
        }
    }
    if (node.indirect != kNoBlock) {
        auto ind = get_block(node.indirect, false);
        if (!ind.ok()) return ind.error();
        for (uint32_t e = 0; e < kIndirectEntries; ++e) {
            uint32_t block =
                get_le<uint32_t>(ind.value() + 4 * e);
            if (block != kNoBlock) {
                OCC_RETURN_IF_ERROR(free_block(block));
            }
        }
        OCC_RETURN_IF_ERROR(free_block(node.indirect));
        node.indirect = kNoBlock;
    }
    node.size = 0;
    return store_inode(inode_index, node);
}

Status
EncFs::write_file(const std::string &path, const Bytes &content)
{
    auto inode = open_inode(path, true, true);
    if (!inode.ok()) return inode.error();
    auto written = write(inode.value(), 0, content.data(),
                         content.size());
    if (!written.ok()) return written.error();
    return Status();
}

Result<Bytes>
EncFs::read_file(const std::string &path)
{
    auto inode = open_inode(path, false, false);
    if (!inode.ok()) return inode.error();
    auto size = file_size(inode.value());
    if (!size.ok()) return size.error();
    Bytes out(size.value());
    auto n = read(inode.value(), 0, out.data(), out.size());
    if (!n.ok()) return n.error();
    out.resize(static_cast<size_t>(n.value()));
    return out;
}

} // namespace occlum::libos
