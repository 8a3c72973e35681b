/**
 * @file
 * A sparse, paged virtual address space with RWX permissions.
 *
 * One AddressSpace backs one simulated enclave (Occlum: the single
 * enclave shared by all SIPs and the LibOS) or one baseline process.
 * Pages are 4 KiB; unmapped pages fault on any access, which is what
 * makes the MMDSFI guard regions (G1/G2 around each domain's data
 * region) effective.
 */
#ifndef OCCLUM_VM_ADDRESS_SPACE_H
#define OCCLUM_VM_ADDRESS_SPACE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "base/bytes.h"
#include "base/result.h"

namespace occlum::vm {

constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kPageMask = kPageSize - 1;

/** Page permission bits. */
enum Perm : uint8_t {
    kPermNone = 0,
    kPermR = 1,
    kPermW = 2,
    kPermX = 4,
    kPermRW = kPermR | kPermW,
    kPermRX = kPermR | kPermX,
    kPermRWX = kPermR | kPermW | kPermX,
};

/** Why a memory access failed. */
enum class AccessFault {
    kNone,
    kUnmapped,   // page not present (e.g. a guard region)
    kNoRead,
    kNoWrite,
    kNoExec,
};

class AddressSpace;

/**
 * One 4 KiB page. A null `data` means the page is logically all-zeros
 * and has no backing store yet; the first write materializes it.
 * Newly mapped pages start in this state, so mapping a multi-MiB
 * reserve region (enclave slots, heaps) is O(pages) map entries, not
 * O(bytes) of memset.
 *
 * `code` is set by the first fetch() that reads the page and stays
 * set until the page is unmapped: from then on the page may back
 * decoded instructions, so a write to it advances its region's code
 * generation.
 */
struct Page {
    std::unique_ptr<uint8_t[]> data;
    uint8_t perms = kPermNone;
    bool code = false;
};

/**
 * One accessor's private translation caches over an AddressSpace: a
 * direct-mapped Page-pointer cache for the generic paths and a
 * softmmu-style host-pointer TLB (a read and a write entry per slot)
 * for the width-templated fast paths. Each vm::Cpu owns one, so a
 * quantum's lookups touch nothing another Cpu's quantum writes; the
 * AddressSpace keeps one more for its own (trusted, kernel-side)
 * accessors.
 *
 * Coherence: every unmap, protect, materialization and code mark
 * advances the space's atomic epoch. An accessor that made the change
 * drops its own affected entries at once; every other cache empties
 * itself at its next sync(): the space's own cache on entry to each of
 * its accessors, a vm::Cpu's at the start of each quantum. Nothing
 * but the Cpu's own accesses can change what its entries name while
 * its quantum runs: the kernel is not running, and other Cpus only
 * touch pages outside its private range, for which it holds none.
 * (A new mapping needs no bump: no entry names an unmapped page.)
 *
 * Confinement: set_private_range() limits the host entries to one
 * address range (an Occlum SIP's domain slot). An access that leaves
 * it takes the generic path every time; a speculating cache refuses
 * it (see begin_speculation), any other calls the space's
 * foreign-access hook first.
 *
 * Code generation: a confined cache reads its region's, any other
 * the space's clock. Its first fetch outside its range (an unsigned
 * SIP running a sibling's code) switches it to the clock for good: a
 * stamp equal to the clock means nothing changed anywhere since.
 */
class AccessCache
{
  public:
    /** `folded`: pick slots by the folded index (the space's own
     *  cache), see index(). */
    explicit AccessCache(AddressSpace &space, bool folded = false);
    AccessCache(const AccessCache &) = delete;
    AccessCache &operator=(const AccessCache &) = delete;

    /** Keep host entries (and speculative accesses) inside [lo, hi). */
    void set_private_range(uint64_t lo, uint64_t hi);

    /** Empty every entry if the space's epoch moved since last time. */
    void sync();

    // ---- checked accessors (the Cpu's view of memory) ---------------
    AccessFault read(uint64_t addr, void *out, uint64_t len);
    AccessFault write(uint64_t addr, const void *in, uint64_t len);
    AccessFault fetch(uint64_t addr, void *out, uint64_t len);

    /**
     * Width-templated single-access fast paths used by the superblock
     * tier's micro-op loop (a Cpu's cache only: they pick the slot by
     * the low byte, see index()). An entry exists only where the access
     * needs no further check, so a hit is one tag compare plus the
     * host copy, inline at the call site. The tag is compared against
     * the page of the access's *last* byte while the slot is picked by
     * its first, so an access that straddles a page boundary can never
     * hit. A miss takes the generic read()/write(), which faults or
     * fills the entry.
     *
     * A write entry never exists for a page that has supplied decoded
     * bytes, so a write_hit() can never advance the code generation;
     * only a store that misses can, which is why the trace re-checks
     * the generation after a missed store only.
     */
    template <uint64_t N>
    AccessFault
    read_fast(uint64_t addr, void *out)
    {
        static_assert(N >= 1 && N <= kPageSize);
        const HostEntry &entry = read_[slot(addr)];
        if (entry.page_no == (addr + N - 1) / kPageSize) [[likely]] {
            std::memcpy(out, entry.host + (addr & kPageMask), N);
            return AccessFault::kNone;
        }
        // The miss reads into its own buffer: handing `out` to the
        // out-of-line read() would pin the caller's value to memory
        // on the hit path too.
        uint8_t bytes[N] = {};
        AccessFault fault = read(addr, bytes, N);
        std::memcpy(out, bytes, N);
        return fault;
    }

    /** Store on a write-entry hit only; false means nothing was
     *  written and the caller must take write(). */
    template <uint64_t N>
    bool
    write_hit(uint64_t addr, const void *in)
    {
        static_assert(N >= 1 && N <= kPageSize);
        const HostEntry &entry = write_[slot(addr)];
        if (entry.page_no == (addr + N - 1) / kPageSize) [[likely]] {
            std::memcpy(entry.host + (addr & kPageMask), in, N);
            return true;
        }
        return false;
    }

    template <uint64_t N>
    AccessFault
    write_fast(uint64_t addr, const void *in)
    {
        return write_hit<N>(addr, in) ? AccessFault::kNone
                                      : write(addr, in, N);
    }

    /** The code generation this cache's decoded blocks depend on. */
    uint64_t code_generation() const { return *gen_; }

    // ---- speculation ---------------------------------------------------
    /**
     * Journal every change this cache makes until end_speculation():
     * the first store to a page saves its bytes (or that it was lazy),
     * and every code mark is remembered. A speculating cache never
     * advances the code generation and never touches memory outside
     * its private range: such an access fails instead and sets
     * aborted(), so a speculative quantum only ever changes its own
     * pages and can be undone exactly.
     */
    void begin_speculation();
    bool aborted() const { return aborted_; }
    /** Keep the journaled changes, or (keep == false) undo them. */
    void end_speculation(bool keep);

  private:
    friend class AddressSpace;

    static constexpr size_t kEntries = 256;
    struct TlbEntry {
        uint64_t page_no = ~0ull;
        Page *page = nullptr;
    };
    /**
     * One host-pointer TLB entry: `host` is the base of the page's
     * bytes. ~0 is no page number (the top page cannot be mapped), so
     * a default entry never hits. Invariants, kept by fill() and the
     * drops in materialization, code marking and sync():
     *   read entry  — page has R; host is its data, or a shared zero
     *                 page while the page is lazy;
     *   write entry — page has W, is materialized, and has no `code`;
     *                 while speculating, also journaled.
     */
    struct HostEntry {
        uint64_t page_no = ~0ull;
        uint8_t *host = nullptr;
    };
    /** A page's bytes before the speculation's first store to it;
     *  null bytes: the page was lazy. */
    struct PageUndo {
        Page *page = nullptr;
        std::unique_ptr<uint8_t[]> bytes;
    };

    /**
     * The slot of a page. A Cpu's cache uses the page's low byte: one
     * AND on every guest load and store of the trace tier, and
     * consecutive pages never share a slot, which the fast paths'
     * straddle check depends on. The space's own (trusted) cache folds
     * in the bits above, as its low byte plus 129 times them: the
     * syscall path reads an Occlum SIP's code page (the return
     * address's cfi_label) and writes its data page 256 pages up on
     * every call, and with the low byte alone the two evict each other.
     * Pages d apart across n multiples of 256 share a folded slot only
     * if d + 129 * n is a multiple of 256: never for d = 255, 256 or
     * 257, nor for consecutive pages. The fold costs a shift and two
     * adds, which the Cpus' fast paths do not pay.
     */
    size_t
    index(uint64_t page_no) const
    {
        return folded_ ? (page_no + 129 * (page_no >> 8)) % kEntries
                       : page_no % kEntries;
    }

    /** A Cpu cache's slot of an address (the fast paths). */
    static size_t
    slot(uint64_t addr)
    {
        return (addr / kPageSize) % kEntries;
    }

    /** True if [addr, addr+len) lies inside the private range. */
    bool
    owns(uint64_t addr, uint64_t len) const
    {
        return !confined_ ||
               (addr >= lo_ && addr < hi_ && len <= hi_ - addr);
    }

    Page *
    lookup(uint64_t page_no)
    {
        TlbEntry &entry = tlb_[index(page_no)];
        if (entry.page_no == page_no) {
            return entry.page;
        }
        return lookup_slow(page_no);
    }
    Page *lookup_slow(uint64_t page_no);
    /** An in-page read on a read-entry hit only; false: nothing read. */
    bool
    read_hit(uint64_t addr, void *out, uint64_t len) const
    {
        const HostEntry &entry = read_[index(addr / kPageSize)];
        if (entry.page_no != (addr + len - 1) / kPageSize ||
            (addr & kPageMask) + len > kPageSize) {
            return false;
        }
        std::memcpy(out, entry.host + (addr & kPageMask), len);
        return true;
    }
    void flush();
    /** Drop both host entries of one page. */
    void drop(uint64_t page_no);
    /** After an in-page access: install the entries `page` now
     *  qualifies for (the write entry only if `writable`). */
    void fill(uint64_t page_no, const Page &page, bool writable);
    /** Save `page` before the speculation's first store to it. */
    void journal(Page &page);

    AddressSpace *space_;
    /** The space's clock, or this cache's region generation. */
    const std::atomic<uint64_t> *gen_;
    std::array<TlbEntry, kEntries> tlb_{};
    std::array<HostEntry, kEntries> read_{};
    std::array<HostEntry, kEntries> write_{};
    uint64_t epoch_ = 0;
    bool confined_ = false;
    uint64_t lo_ = 0;
    uint64_t hi_ = 0;
    bool speculating_ = false;
    bool aborted_ = false;
    bool folded_;
    /** Lookups that missed the Page-pointer cache (host bookkeeping). */
    uint64_t slow_lookups_ = 0;
    std::vector<PageUndo> undo_;
    std::vector<Page *> marked_;
    /** Recycled undo buffers. */
    std::vector<std::unique_ptr<uint8_t[]>> spare_;
};

/** Sparse paged memory. */
class AddressSpace
{
  public:
    AddressSpace() : kernel_cache_(*this, /*folded=*/true) {}
    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /** Map [addr, addr+len) with `perms`; addr/len must be page-aligned.
     *  Fails with kExist if any page is already mapped, and with
     *  kInval for a range that wraps past the top of memory. */
    Status map(uint64_t addr, uint64_t len, uint8_t perms);

    /** Unmap [addr, addr+len); silently skips unmapped pages. */
    void unmap(uint64_t addr, uint64_t len);

    /** Change permissions on already-mapped pages (kInval for a
     *  wrapping range, like map). */
    Status protect(uint64_t addr, uint64_t len, uint8_t perms);

    /** True if every page of [addr, addr+len) is mapped; false for a
     *  range that wraps past the top of the address space. */
    bool is_mapped(uint64_t addr, uint64_t len) const;

    /** Permissions of the page containing addr (kPermNone if unmapped). */
    uint8_t perms_at(uint64_t addr) const;

    // ---- trusted accessors used by the LibOS / loaders ---------------
    /** Copy bytes ignoring permissions (still faults on unmapped). */
    AccessFault read_raw(uint64_t addr, void *out, uint64_t len) const;
    AccessFault write_raw(uint64_t addr, const void *in, uint64_t len);

    /** Zero-fill a range (trusted; used when zeroing BSS / new pages). */
    AccessFault zero_raw(uint64_t addr, uint64_t len);

    /**
     * A trusted copy's range, resolved once: every page of [addr,
     * addr+len) looked up in one walk, in address order, into `pages`
     * (its storage is reused). False, with `pages` meaningless and
     * nothing touched, if the range wraps or any page is unmapped: the
     * all-or-nothing probe of a syscall buffer. The pointers stay valid
     * until the next unmap.
     */
    bool resolve_raw(uint64_t addr, uint64_t len,
                     std::vector<Page *> &pages) const;
    /** A resolved page's bytes for reading: its data, or zeros while it
     *  is lazy. */
    static const uint8_t *page_bytes(const Page &page);
    /**
     * Trusted store of `n` bytes from `src` at `addr`, which lies in the
     * resolved `page`: what write_raw does to one page (materialize a
     * lazy page; advance the code generation if the page has supplied
     * decoded bytes).
     */
    void store_raw(Page &page, uint64_t addr, const void *src, uint64_t n);

    /** Page-pointer cache misses of the trusted accessors so far. */
    uint64_t kernel_slow_lookups() const
    {
        return kernel_cache_.slow_lookups_;
    }

    /** Number of currently mapped pages. */
    size_t mapped_pages() const { return pages_.size(); }

    /** Give each of `count` consecutive `size`-byte regions from
     *  `base` (Occlum's domain slots) its own code generation. Call
     *  before any cache is confined; until then the space is one. */
    void set_code_regions(uint64_t base, uint64_t size, size_t count);

    /**
     * A code change in [addr, addr+len): each region it touches takes
     * the clock's next value, invalidating the blocks decoded under
     * the old one. Automatic on any write into a page that has
     * supplied decoded bytes (one fetch() has read) and on
     * map/protect/unmap involving X. Stores into executable pages
     * never fetched from (the EIP baseline's RWX data) change nothing.
     */
    void touch_code(uint64_t addr, uint64_t len);
    /** A code change anywhere (out-of-band pokes, e.g. in tests). */
    void touch_code() { touch_code(0, ~0ull); }
    /** The clock: it moves on every code change in any region. */
    uint64_t code_generation() const { return clock_; }

    /**
     * Called before a non-speculating cache with a private range
     * touches memory outside it (an unsigned SIP reaching into another
     * slot), so the owner of speculative state there can undo it
     * first. Unset by default.
     */
    void
    set_foreign_access_hook(std::function<void()> hook)
    {
        foreign_hook_ = std::move(hook);
    }

  private:
    friend class AccessCache;

    /** Generic copy loop; `require` selects the permission bit. */
    template <bool Write>
    AccessFault access(AccessCache &cache, uint64_t addr, void *buf,
                       uint64_t len, uint8_t require);
    /** First write to a lazy zero page: allocate + clear its backing. */
    void materialize(AccessCache &cache, uint64_t page_no, Page &page);
    /** Advance the epoch on `by`'s behalf: `by` keeps its entries if
     *  it was current (it dropped what the change affects itself). */
    void advance_epoch(AccessCache &by);
    /** Index of the code region holding `addr`. */
    size_t region_of(uint64_t addr) const;

    std::unordered_map<uint64_t, Page> pages_;
    /**
     * Guards pages_'s structure against the kernel's thread. Only that
     * thread maps and unmaps, so only its changes take the lock (in
     * write mode) and only a speculating cache's lookups (on a pool
     * thread, maybe while the kernel walks on) take it to read.
     */
    mutable std::shared_mutex pages_mu_;
    /** Advanced by every change a cache entry could depend on. */
    std::atomic<uint64_t> epoch_{0};
    /** Only the kernel's thread advances these (a speculating cache
     *  never does); pool threads read them. region_gen_: the clock at
     *  each region's last change, in address order (see region_of). */
    std::atomic<uint64_t> clock_{0};
    std::unique_ptr<std::atomic<uint64_t>[]> region_gen_ =
        std::make_unique<std::atomic<uint64_t>[]>(2);
    uint64_t region_base_ = 0;
    uint64_t region_size_ = 1;
    size_t region_count_ = 0;
    std::function<void()> foreign_hook_;
    mutable AccessCache kernel_cache_;
};

} // namespace occlum::vm

#endif // OCCLUM_VM_ADDRESS_SPACE_H
