/**
 * @file
 * The Occlum writable encrypted file system (paper §6, "File
 * systems"): every data block, inode, and directory block is
 * transparently AES-128-CTR encrypted and HMAC-SHA-256 authenticated
 * before it reaches the untrusted host block device. One instance —
 * and one shared page cache — serves every SIP in the enclave, which
 * is what makes a *writable* encrypted FS straightforward here and
 * painful for EIP designs (paper §3.2, Table 1).
 *
 * On-device layout (4 KiB blocks):
 *   [0, mac_blocks)        MAC table: 40-byte records (HMAC + write
 *                          counter) for every payload block
 *   mac_blocks             superblock
 *   +1 .. +inode_blocks    inode table (512-byte inodes)
 *   ...                    block allocation bitmap
 *   ...                    data blocks (files, directories, indirect)
 *
 * Inodes hold 120 direct block pointers plus one single-indirect block
 * (max file size ~= 4.4 MiB). Directories are files of fixed 64-byte
 * entries. Like the paper's prototype (which builds on the Intel
 * Protected File System primitives), rollback protection across
 * remounts is out of scope; integrity of every block at rest is not.
 */
#ifndef OCCLUM_LIBOS_ENCFS_H
#define OCCLUM_LIBOS_ENCFS_H

#include <functional>
#include <string>
#include <vector>

#include "base/result.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "host/host.h"
#include "trace/metrics.h"

namespace occlum::libos {

/** The encrypted file system over an untrusted block device. */
class EncFs
{
  public:
    static constexpr uint64_t kBlockSize = host::BlockDevice::kBlockSize;
    static constexpr uint32_t kNoBlock = 0xffffffff;

    /**
     * CTR nonce for (block, write-counter): LE32(block)||LE64(counter).
     * The in-call 32-bit counter word always starts at 0 and only
     * counts the 256 AES blocks inside one 4 KiB payload, so no two
     * (block, counter) pairs share keystream — in particular not when
     * a write counter crosses the 32-bit boundary. Public so tests
     * can audit nonce uniqueness around the wrap.
     */
    static std::array<uint8_t, 12> ctr_iv(uint32_t block,
                                          uint64_t counter);

    struct Config {
        crypto::Key128 key{};      // sealed FS key
        uint32_t inode_count = 512;
        size_t cache_blocks = 2048; // shared page cache capacity
        /** The OCALL gate taken after every device I/O attempt.
         *  Empty when the FS is used outside an enclave (tests). */
        std::function<void()> ocall;
        /**
         * Blocks pulled ahead of a detected sequential read stream
         * (0 disables). Prefetched blocks pay exactly the demand-fetch
         * charges at prefetch time, so a stream that consumes them
         * accrues bit-identical simulated cycles — only wall-clock
         * and device-round-trip batching change.
         */
        size_t readahead_blocks = 8;
    };

    EncFs(host::BlockDevice &device, SimClock &clock, Config config);

    /** Format the device: empty FS with a root directory. */
    Status mkfs();
    /** Mount an existing FS (verifies the superblock). */
    Status mount();

    // ---- whole-file convenience (host-side image tool analog) ------
    Status write_file(const std::string &path, const Bytes &content);
    Result<Bytes> read_file(const std::string &path);

    // ---- POSIX-ish operations --------------------------------------
    /** Resolve a path to an inode; creates the file when asked to. */
    Result<uint32_t> open_inode(const std::string &path, bool create,
                                bool truncate);
    Status mkdir(const std::string &path);
    Status unlink(const std::string &path);
    Result<bool> exists(const std::string &path);

    Result<int64_t> read(uint32_t inode, uint64_t offset, uint8_t *out,
                         uint64_t len);
    Result<int64_t> write(uint32_t inode, uint64_t offset,
                          const uint8_t *in, uint64_t len);
    Result<uint64_t> file_size(uint32_t inode);
    Status truncate(uint32_t inode);

    /** Write every dirty cached block back to the device. */
    Status sync();

    // ---- statistics ---------------------------------------------------
    uint64_t cache_hits() const { return cache_hits_; }
    uint64_t cache_misses() const { return cache_misses_; }
    uint64_t evictions() const { return evictions_; }

  private:
    static constexpr uint32_t kMagic = 0x0ccf5001;
    static constexpr uint32_t kDirectBlocks = 120;
    static constexpr uint32_t kInodeSize = 512;
    static constexpr uint32_t kDirEntrySize = 64;
    static constexpr uint32_t kNameMax = 54;
    static constexpr uint32_t kMacRecordSize = 40; // 32 MAC + 8 counter

    enum class InodeType : uint8_t { kFree = 0, kFile = 1, kDir = 2 };

    /** The direct pointers an inode access decodes (or encodes):
     *  [first, first + count). The default is all of them. */
    struct DirectRange {
        uint32_t first;
        uint32_t count;
    };

    struct Inode {
        InodeType type = InodeType::kFree;
        uint64_t size = 0;
        /** Only the `decoded` pointers hold values (load_inode). */
        uint32_t direct[kDirectBlocks];
        DirectRange decoded{0, kDirectBlocks};
        uint32_t indirect = kNoBlock;
    };

    static constexpr uint32_t kNoSlot = 0xffffffff;

    /**
     * One page-cache slot. Its 4 KiB buffer outlives the blocks it
     * holds: an evicted block leaves the buffer to the slot's next
     * block. A free slot has block == kNoBlock.
     */
    struct CacheEntry {
        Bytes data;
        uint32_t block = kNoBlock;
        bool dirty = false;
        /** LRU neighbours (slot indices, kNoSlot at either end). */
        uint32_t prev = kNoSlot;
        uint32_t next = kNoSlot;
    };

    // ---- device layer --------------------------------------------------
    /**
     * Device I/O with a bounded retry/backoff policy: a transient
     * (kAgain) host fault is retried up to CostModel::kIoRetryLimit
     * times with exponential backoff charged to the clock; exhausted
     * retries surface as kIo. Every attempt is one Config::ocall. All
     * EncFs device traffic goes through these two wrappers.
     */
    Status dev_read(uint32_t block, Bytes &out);
    Status dev_write(uint32_t block, const Bytes &in);

    // ---- block layer ---------------------------------------------------
    /**
     * Fetch a payload block through the page cache (decrypt+verify):
     * its kBlockSize bytes, valid until the block is evicted.
     */
    Result<uint8_t *> get_block(uint32_t block, bool for_write);
    Status flush_entry(CacheEntry &entry);
    Status evict_if_needed();
    /** The slot holding `block`, or kNoSlot. */
    uint32_t
    slot_of(uint32_t block) const
    {
        return block < slot_of_.size() ? slot_of_[block] : kNoSlot;
    }
    /** A free slot: popped off the free stack, else a new one. */
    uint32_t take_slot();
    void lru_unlink(uint32_t slot);
    void lru_push_front(uint32_t slot);
    /** Empty the cache (dirty blocks are dropped), keeping buffers. */
    void reset_cache();
    /** Pull blocks ahead of a detected sequential read stream. */
    void maybe_readahead(uint32_t inode_index, Inode &node,
                         uint64_t offset, uint64_t len);
    void charge_crypto(uint64_t bytes);

    // ---- allocation ------------------------------------------------------
    Result<uint32_t> alloc_block();
    Status free_block(uint32_t block);
    Result<uint32_t> alloc_inode(InodeType type);

    // ---- inode / directory helpers ----------------------------------------
    /** The direct pointers of file bytes [offset, offset + len), plus
     *  `extra` blocks past them (a read's readahead window). */
    static DirectRange direct_range(uint64_t offset, uint64_t len,
                                    uint64_t extra);
    /** Decode type, size, indirect and the `range` direct pointers;
     *  the others are left unset. */
    Result<Inode> load_inode(uint32_t index,
                             DirectRange range = {0, kDirectBlocks});
    /** Encode what load_inode(index, range) decoded; a partial range
     *  leaves the other direct pointers on the table untouched. */
    Status store_inode(uint32_t index, const Inode &inode,
                       DirectRange range = {0, kDirectBlocks});
    /** Logical file block -> device block (optionally allocating). */
    Result<uint32_t> map_file_block(Inode &inode, uint64_t file_block,
                                    bool allocate, bool &inode_dirty);
    Result<uint32_t> dir_lookup(uint32_t dir_inode,
                                const std::string &name);
    Status dir_insert(uint32_t dir_inode, const std::string &name,
                      uint32_t inode);
    Status dir_remove(uint32_t dir_inode, const std::string &name);
    bool dir_empty(uint32_t dir_inode);
    /** Walk a path to (parent inode, leaf name). */
    Result<std::pair<uint32_t, std::string>>
    resolve_parent(const std::string &path);

    host::BlockDevice *device_;
    SimClock *clock_;
    Config config_;
    crypto::Aes128 cipher_;
    /** Cached-midstate HMAC key: one MAC per block, many per second. */
    crypto::HmacKey mac_key_;
    bool mounted_ = false;

    uint32_t mac_blocks_ = 0;
    uint32_t super_block_ = 0;
    uint32_t inode_table_start_ = 0;
    uint32_t inode_blocks_ = 0;
    uint32_t bitmap_start_ = 0;
    uint32_t bitmap_blocks_ = 0;
    uint32_t data_start_ = 0;
    uint32_t root_inode_ = 0;

    /** In-enclave copy of the MAC table, written back on sync(). */
    struct MacRecord {
        crypto::Sha256Digest mac{};
        uint64_t counter = 0;
        /**
         * Allocated since its last flush: the block is logically
         * zero whatever the device still holds (a freed file's
         * ciphertext), so a miss installs zeros without reading it.
         * The counter keeps counting, so no CTR nonce repeats.
         */
        bool fresh = false;
    };
    std::vector<MacRecord> mac_table_;
    std::vector<bool> mac_block_dirty_;

    Status load_mac_table();
    Status flush_mac_table();
    /**
     * Fused encrypt+MAC: CTR-encrypts `plain` into `ciphertext` and
     * authenticates it in one chunked pass (the MAC covers
     * ciphertext || LE32(block) || LE64(counter), as before).
     */
    crypto::Sha256Digest encrypt_mac(uint32_t block, uint64_t counter,
                                     const Bytes &plain,
                                     Bytes &ciphertext) const;
    /**
     * Fused decrypt+verify: one chunked pass that both decrypts
     * `ciphertext` into `plain` and recomputes the MAC. Returns false
     * (leaving `plain` untrusted) when the MAC does not match.
     */
    bool decrypt_verify(uint32_t block, const MacRecord &record,
                        const Bytes &ciphertext, Bytes &plain) const;

    /**
     * Page cache: slot_of_ maps a device block to its slot in O(1),
     * and an intrusive list threaded through the slots orders them by
     * use (head = hottest; eviction takes the tail). Slots, and their
     * buffers, are created on demand up to the high-water mark of
     * resident blocks, and never freed. A buffer stays put when
     * slots_ grows, so the pointer get_block returns stays valid
     * until that block is evicted; after that it points at whatever
     * block the slot holds next.
     */
    std::vector<CacheEntry> slots_;
    /** Per device block, kNoSlot when absent. Grown on demand to the
     *  highest block cached so far: an FS that touches only its
     *  metadata pays for no device-sized index. */
    std::vector<uint32_t> slot_of_;
    std::vector<uint32_t> free_slots_;
    uint32_t lru_head_ = kNoSlot;
    uint32_t lru_tail_ = kNoSlot;
    /** Device-side image of one block: read before decrypt, written
     *  after encrypt. */
    Bytes ciphertext_;
    /** sync()'s list of dirty blocks, kept to reuse its storage. */
    std::vector<uint32_t> dirty_blocks_;
    /** Bitmap byte index below which every byte is 0xff (all used). */
    uint64_t alloc_hint_ = 0;
    uint64_t cache_hits_ = 0;
    uint64_t cache_misses_ = 0;
    uint64_t evictions_ = 0;

    // Sequential-read detection for readahead.
    uint32_t ra_inode_ = 0xffffffff;
    uint64_t ra_expect_offset_ = 0;
    uint64_t ra_streak_ = 0;

    // Registry metrics (registered at construction; see metrics.h).
    trace::Counter *ctr_cache_hits_ = nullptr;
    trace::Counter *ctr_cache_misses_ = nullptr;
    trace::Counter *ctr_dev_reads_ = nullptr;
    trace::Counter *ctr_dev_writes_ = nullptr;
    trace::Counter *ctr_evictions_ = nullptr;
    trace::Counter *ctr_readahead_ = nullptr;
    trace::Counter *ctr_io_retries_ = nullptr;
};

} // namespace occlum::libos

#endif // OCCLUM_LIBOS_ENCFS_H
