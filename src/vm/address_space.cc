#include "vm/address_space.h"

#include <cstring>

namespace occlum::vm {

namespace {

/** [addr, addr+len) runs past 2^64 - 1, so `addr + len` wraps and a
 *  page walk up to it would visit nothing. */
bool
wraps(uint64_t addr, uint64_t len)
{
    return len > ~addr;
}

/** What a read entry of a lazy page points at: its logical bytes.
 *  Read-only memory, and no write entry ever names it. */
alignas(64) const uint8_t kZeroPage[kPageSize] = {};

} // namespace

Status
AddressSpace::map(uint64_t addr, uint64_t len, uint8_t perms)
{
    if ((addr & kPageMask) || (len & kPageMask) || len == 0) {
        return Status(ErrorCode::kInval, "map: unaligned range");
    }
    if (wraps(addr, len)) {
        return Status(ErrorCode::kInval, "map: range wraps");
    }
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        if (pages_.count(a / kPageSize)) {
            return Status(ErrorCode::kExist, "map: page already mapped");
        }
    }
    pages_.reserve(pages_.size() + len / kPageSize);
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        Page page; // backing store stays lazy until the first write
        page.perms = perms;
        pages_.emplace(a / kPageSize, std::move(page));
    }
    if (perms & kPermX) {
        // New executable pages may complete instructions that cached
        // blocks previously saw as truncated at an unmapped boundary.
        touch_code();
    }
    return Status();
}

void
AddressSpace::unmap(uint64_t addr, uint64_t len)
{
    bool had_exec = false;
    for (uint64_t a = addr & ~kPageMask; a < addr + len; a += kPageSize) {
        auto it = pages_.find(a / kPageSize);
        if (it == pages_.end()) {
            continue;
        }
        had_exec = had_exec || (it->second.perms & kPermX);
        pages_.erase(it);
    }
    flush_tlb(); // erased nodes may be cached in the TLB
    if (had_exec) {
        touch_code();
    }
}

Status
AddressSpace::protect(uint64_t addr, uint64_t len, uint8_t perms)
{
    if ((addr & kPageMask) || (len & kPageMask) || len == 0) {
        return Status(ErrorCode::kInval, "protect: unaligned range");
    }
    if (wraps(addr, len)) {
        return Status(ErrorCode::kInval, "protect: range wraps");
    }
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        if (!pages_.count(a / kPageSize)) {
            return Status(ErrorCode::kNoMem, "protect: page not mapped");
        }
    }
    bool touched_exec = false;
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        Page &page = pages_[a / kPageSize];
        // Permission changes that add or remove X (the SGX EMODPE /
        // runtime_protect paths) invalidate predecoded blocks: what
        // was fetchable may no longer be, and vice versa.
        touched_exec = touched_exec || ((page.perms | perms) & kPermX);
        page.perms = perms;
        drop_entries(a / kPageSize); // refilled under the new perms
    }
    if (touched_exec) {
        touch_code();
    }
    return Status();
}

bool
AddressSpace::is_mapped(uint64_t addr, uint64_t len) const
{
    if (wraps(addr, len)) {
        return false;
    }
    for (uint64_t a = addr & ~kPageMask; a < addr + len; a += kPageSize) {
        if (!pages_.count(a / kPageSize)) {
            return false;
        }
    }
    return true;
}

uint8_t
AddressSpace::perms_at(uint64_t addr) const
{
    const Page *page = find_page(addr);
    return page ? page->perms : static_cast<uint8_t>(kPermNone);
}

void
AddressSpace::flush_tlb() const
{
    tlb_.fill(TlbEntry{});
    read_tlb_.fill(HostEntry{});
    write_tlb_.fill(HostEntry{});
}

void
AddressSpace::fill_entries(uint64_t page_no, const Page &page) const
{
    const size_t s = page_no % kTlbEntries;
    if (page.perms & kPermR) {
        read_tlb_[s] = {page_no, page.data ? page.data.get()
                                           : const_cast<uint8_t *>(kZeroPage)};
    }
    if ((page.perms & kPermW) && page.data && !page.code) {
        write_tlb_[s] = {page_no, page.data.get()};
    }
}

void
AddressSpace::drop_entries(uint64_t page_no) const
{
    const size_t s = page_no % kTlbEntries;
    if (read_tlb_[s].page_no == page_no) {
        read_tlb_[s] = HostEntry{};
    }
    if (write_tlb_[s].page_no == page_no) {
        write_tlb_[s] = HostEntry{};
    }
}

AddressSpace::Page *
AddressSpace::lookup_page_slow(uint64_t page_no) const
{
    TlbEntry &entry = tlb_[page_no % kTlbEntries];
    auto it = pages_.find(page_no);
    if (it == pages_.end()) {
        return nullptr; // misses are not cached (map() must be seen)
    }
    entry.page_no = page_no;
    entry.page = const_cast<Page *>(&it->second);
    return entry.page;
}

const AddressSpace::Page *
AddressSpace::find_page(uint64_t addr) const
{
    return lookup_page(addr / kPageSize);
}

AddressSpace::Page *
AddressSpace::find_page(uint64_t addr)
{
    return lookup_page(addr / kPageSize);
}

void
AddressSpace::materialize(uint64_t page_no, Page &page)
{
    page.data = std::make_unique<uint8_t[]>(kPageSize);
    std::memset(page.data.get(), 0, kPageSize);
    drop_entries(page_no); // its read entry still names kZeroPage
}

template <bool Write>
AccessFault
AddressSpace::access(uint64_t addr, void *buf, uint64_t len, uint8_t require)
{
    // Fast path: the access stays inside one page (nearly every data
    // access the interpreter issues).
    if ((addr & kPageMask) + len <= kPageSize) {
        const uint64_t page_no = addr / kPageSize;
        Page *page = lookup_page(page_no);
        if (!page) {
            return AccessFault::kUnmapped;
        }
        if (require && !(page->perms & require)) {
            if (require & kPermW) return AccessFault::kNoWrite;
            if (require & kPermX) return AccessFault::kNoExec;
            return AccessFault::kNoRead;
        }
        if constexpr (Write) {
            if (!page->data) {
                materialize(page_no, *page);
            }
            std::memcpy(page->data.get() + (addr & kPageMask), buf, len);
            if (page->code) {
                touch_code();
            }
        } else {
            if ((require & kPermX) && !page->code) {
                // fetch: the bytes may get decoded, so stores to the
                // page must take the bumping write() from now on
                page->code = true;
                drop_entries(page_no);
            }
            if (!page->data) {
                std::memset(buf, 0, len); // lazy page: logically zeros
            } else {
                std::memcpy(buf, page->data.get() + (addr & kPageMask),
                            len);
            }
        }
        fill_entries(page_no, *page);
        return AccessFault::kNone;
    }

    uint8_t *out = static_cast<uint8_t *>(buf);
    uint64_t done = 0;
    bool wrote_code = false;
    // Even a faulting multi-page write has already modified the pages
    // before the fault, so the generation bump must happen on every
    // exit path, not only on success.
    auto finish = [&](AccessFault f) {
        if (Write && wrote_code) {
            touch_code();
        }
        return f;
    };
    while (done < len) {
        uint64_t a = addr + done;
        Page *page = find_page(a);
        if (!page) {
            return finish(AccessFault::kUnmapped);
        }
        if (require && !(page->perms & require)) {
            if (require & kPermW) return finish(AccessFault::kNoWrite);
            if (require & kPermX) return finish(AccessFault::kNoExec);
            return finish(AccessFault::kNoRead);
        }
        uint64_t in_page = kPageSize - (a & kPageMask);
        uint64_t n = std::min(in_page, len - done);
        if constexpr (Write) {
            if (!page->data) {
                materialize(a / kPageSize, *page);
            }
            std::memcpy(page->data.get() + (a & kPageMask), out + done, n);
            wrote_code = wrote_code || page->code;
        } else {
            if ((require & kPermX) && !page->code) {
                page->code = true; // an instruction may straddle here
                drop_entries(a / kPageSize);
            }
            if (!page->data) {
                std::memset(out + done, 0, n);
            } else {
                std::memcpy(out + done,
                            page->data.get() + (a & kPageMask), n);
            }
        }
        done += n;
    }
    // Writes into pages that have supplied decoded bytes (guest
    // stores through an RWX mapping, loader/debugger pokes via
    // write_raw) invalidate predecoded blocks covering those bytes.
    return finish(AccessFault::kNone);
}

AccessFault
AddressSpace::read(uint64_t addr, void *out, uint64_t len) const
{
    return const_cast<AddressSpace *>(this)->access<false>(addr, out, len,
                                                           kPermR);
}

AccessFault
AddressSpace::write(uint64_t addr, const void *in, uint64_t len)
{
    return access<true>(addr, const_cast<void *>(in), len, kPermW);
}

AccessFault
AddressSpace::fetch(uint64_t addr, void *out, uint64_t len) const
{
    return const_cast<AddressSpace *>(this)->access<false>(addr, out, len,
                                                           kPermX);
}

AccessFault
AddressSpace::read_raw(uint64_t addr, void *out, uint64_t len) const
{
    return const_cast<AddressSpace *>(this)->access<false>(addr, out, len,
                                                           0);
}

AccessFault
AddressSpace::write_raw(uint64_t addr, const void *in, uint64_t len)
{
    return access<true>(addr, const_cast<void *>(in), len, 0);
}

AccessFault
AddressSpace::zero_raw(uint64_t addr, uint64_t len)
{
    uint64_t done = 0;
    bool wrote_code = false;
    while (done < len) {
        uint64_t a = addr + done;
        Page *page = find_page(a);
        if (!page) {
            if (wrote_code) {
                touch_code();
            }
            return AccessFault::kUnmapped;
        }
        uint64_t in_page = kPageSize - (a & kPageMask);
        uint64_t n = std::min(in_page, len - done);
        if (page->data) {
            // Materialized page: clear just the requested span.
            std::memset(page->data.get() + (a & kPageMask), 0, n);
            wrote_code = wrote_code || page->code;
        }
        // Lazy pages are already logically zero: nothing to do, and
        // crucially no backing store is allocated, so zero-filling a
        // fresh multi-MiB mapping stays O(pages touched).
        done += n;
    }
    if (wrote_code) {
        touch_code();
    }
    return AccessFault::kNone;
}

} // namespace occlum::vm
