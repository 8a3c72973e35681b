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
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

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

/** Sparse paged memory. */
class AddressSpace
{
  public:
    AddressSpace() = default;
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

    // ---- checked accessors used by the CPU --------------------------
    AccessFault read(uint64_t addr, void *out, uint64_t len) const;
    AccessFault write(uint64_t addr, const void *in, uint64_t len);
    AccessFault fetch(uint64_t addr, void *out, uint64_t len) const;

    /**
     * Width-templated single-access fast paths used by the superblock
     * tier's micro-op loop: a softmmu-style host-pointer TLB. An entry
     * exists only where the access needs no further check, so a hit is
     * one tag compare plus the host copy, inline at the call site. The
     * tag is compared against the page of the access's *last* byte
     * while the slot is picked by its first, so an access that
     * straddles a page boundary can never hit. A miss takes the
     * generic read()/write(), which faults or fills the entry.
     *
     * A write entry never exists for a page that has supplied decoded
     * bytes, so a write_hit() can never advance the code generation;
     * only a store that misses can, which is why the trace re-checks
     * the generation after a missed store only.
     */
    template <uint64_t N>
    AccessFault
    read_fast(uint64_t addr, void *out) const
    {
        static_assert(N >= 1 && N <= kPageSize);
        const HostEntry &entry = read_tlb_[slot(addr)];
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
        const HostEntry &entry = write_tlb_[slot(addr)];
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

    // ---- trusted accessors used by the LibOS / loaders ---------------
    /** Copy bytes ignoring permissions (still faults on unmapped). */
    AccessFault read_raw(uint64_t addr, void *out, uint64_t len) const;
    AccessFault write_raw(uint64_t addr, const void *in, uint64_t len);

    /** Zero-fill a range (trusted; used when zeroing BSS / new pages). */
    AccessFault zero_raw(uint64_t addr, uint64_t len);

    /** Number of currently mapped pages. */
    size_t mapped_pages() const { return pages_.size(); }

    /**
     * Bump the generation counter (invalidates CPU block/decode
     * caches). The counter also advances automatically on any write
     * into a page that has supplied decoded bytes (a page fetch() has
     * read) and on map/protect/unmap operations that add or remove X
     * permission, so callers only need this for out-of-band
     * modifications (e.g. tests poking at raw pages). Stores into an
     * executable page that was never fetched from — the RWX data
     * region of the EIP baseline — leave every code cache valid.
     */
    void touch_code() { ++code_generation_; }
    uint64_t code_generation() const { return code_generation_; }

  private:
    /**
     * A null `data` means the page is logically all-zeros and has no
     * backing store yet; the first write materializes it. Newly
     * mapped pages start in this state, so mapping a multi-MiB
     * reserve region (enclave slots, heaps) is O(pages) map entries,
     * not O(bytes) of memset.
     *
     * `code` is set by the first fetch() that reads the page and
     * stays set until the page is unmapped: from then on the page may
     * back decoded instructions, so a write to it advances the code
     * generation.
     */
    struct Page {
        std::unique_ptr<uint8_t[]> data;
        uint8_t perms = kPermNone;
        bool code = false;
    };

    /**
     * Direct-mapped cache of Page pointers for the generic paths.
     * unordered_map keeps nodes stable across inserts, so only
     * unmap() (node erase) has to flush it; permissions are read
     * through the pointer.
     */
    static constexpr size_t kTlbEntries = 256;
    struct TlbEntry {
        uint64_t page_no = ~0ull;
        Page *page = nullptr;
    };

    /**
     * One host-pointer TLB entry: `host` is the base of the page's
     * bytes. ~0 is no page number (the top page cannot be mapped), so
     * a default entry never hits. Invariants, kept by fill_entries()
     * and the drops in materialize(), access() (fetch), protect() and
     * unmap():
     *   read entry  — page has R; host is its data, or kZeroPage while
     *                 the page is lazy;
     *   write entry — page has W, is materialized, and has no `code`.
     */
    struct HostEntry {
        uint64_t page_no = ~0ull;
        uint8_t *host = nullptr;
    };

    static size_t
    slot(uint64_t addr)
    {
        return (addr / kPageSize) % kTlbEntries;
    }

    /** First write to a lazy zero page: allocate + clear its backing
     *  (and drop its read entry, which points at kZeroPage). */
    void materialize(uint64_t page_no, Page &page);
    /** After an in-page access: install whatever entries `page` now
     *  qualifies for. */
    void fill_entries(uint64_t page_no, const Page &page) const;
    /** Drop both host entries of one page. */
    void drop_entries(uint64_t page_no) const;

    /** Page-pointer probe for the generic paths; the page-table walk
     *  stays out of line. */
    Page *
    lookup_page(uint64_t page_no) const
    {
        TlbEntry &entry = tlb_[page_no % kTlbEntries];
        if (entry.page_no == page_no) {
            return entry.page;
        }
        return lookup_page_slow(page_no);
    }
    Page *lookup_page_slow(uint64_t page_no) const;
    const Page *find_page(uint64_t addr) const;
    Page *find_page(uint64_t addr);
    /** Empty the Page-pointer cache and both host-pointer TLBs. */
    void flush_tlb() const;

    /** Generic copy loop; `require` selects the permission bit. */
    template <bool Write>
    AccessFault access(uint64_t addr, void *buf, uint64_t len,
                       uint8_t require);

    std::unordered_map<uint64_t, Page> pages_;
    mutable std::array<TlbEntry, kTlbEntries> tlb_{};
    mutable std::array<HostEntry, kTlbEntries> read_tlb_{};
    mutable std::array<HostEntry, kTlbEntries> write_tlb_{};
    uint64_t code_generation_ = 0;
};

} // namespace occlum::vm

#endif // OCCLUM_VM_ADDRESS_SPACE_H
