#include "vm/address_space.h"

#include <cstring>
#include <mutex>

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
    std::unique_lock<std::shared_mutex> lock(pages_mu_);
    pages_.reserve(pages_.size() + len / kPageSize);
    for (uint64_t a = addr; a < addr + len; a += kPageSize) {
        Page page; // backing store stays lazy until the first write
        page.perms = perms;
        pages_.emplace(a / kPageSize, std::move(page));
    }
    if (perms & kPermX) {
        // New executable pages may complete instructions that cached
        // blocks previously saw as truncated at an unmapped boundary.
        touch_code(addr, len);
    }
    return Status();
}

void
AddressSpace::unmap(uint64_t addr, uint64_t len)
{
    bool had_exec = false;
    {
        std::unique_lock<std::shared_mutex> lock(pages_mu_);
        for (uint64_t a = addr & ~kPageMask; a < addr + len;
             a += kPageSize) {
            auto it = pages_.find(a / kPageSize);
            if (it == pages_.end()) {
                continue;
            }
            had_exec = had_exec || (it->second.perms & kPermX);
            pages_.erase(it);
        }
    }
    // Erased nodes may be cached anywhere: every cache empties itself.
    epoch_.fetch_add(1, std::memory_order_release);
    if (had_exec) {
        touch_code(addr, len);
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
    }
    // Host entries are refilled under the new perms.
    epoch_.fetch_add(1, std::memory_order_release);
    if (touched_exec) {
        touch_code(addr, len);
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
    kernel_cache_.sync();
    const Page *page = kernel_cache_.lookup(addr / kPageSize);
    return page ? page->perms : static_cast<uint8_t>(kPermNone);
}

void
AddressSpace::set_code_regions(uint64_t base, uint64_t size, size_t count)
{
    region_base_ = base;
    region_size_ = size;
    region_count_ = count;
    region_gen_ = std::make_unique<std::atomic<uint64_t>[]>(count + 2);
    touch_code(); // every region starts at the clock
}

size_t
AddressSpace::region_of(uint64_t addr) const
{
    // In address order: below the regions, each region, above them.
    return addr < region_base_
               ? 0
               : 1 + std::min<uint64_t>((addr - region_base_) / region_size_,
                                        region_count_);
}

void
AddressSpace::touch_code(uint64_t addr, uint64_t len)
{
    const uint64_t gen = ++clock_;
    for (size_t r = region_of(addr); r <= region_of(addr + len - 1); ++r) {
        region_gen_[r] = gen;
    }
}

void
AddressSpace::advance_epoch(AccessCache &by)
{
    uint64_t old = epoch_.fetch_add(1, std::memory_order_acq_rel);
    if (by.epoch_ == old) {
        by.epoch_ = old + 1;
    }
}

void
AddressSpace::materialize(AccessCache &cache, uint64_t page_no, Page &page)
{
    page.data = std::make_unique<uint8_t[]>(kPageSize); // zeroed
    // Read entries of the lazy page still name the zero page.
    cache.drop(page_no);
    advance_epoch(cache);
}

// ---------------------------------------------------------------------
// AccessCache
// ---------------------------------------------------------------------

AccessCache::AccessCache(AddressSpace &space, bool folded)
    : space_(&space), gen_(&space.clock_), folded_(folded)
{
}

void
AccessCache::set_private_range(uint64_t lo, uint64_t hi)
{
    confined_ = true;
    lo_ = lo;
    hi_ = hi;
    // A range inside one slot region follows that region only.
    const size_t region = space_->region_of(lo);
    gen_ = region == space_->region_of(hi - 1) ? &space_->region_gen_[region]
                                               : &space_->clock_;
    flush();
}

void
AccessCache::sync()
{
    uint64_t epoch = space_->epoch_.load(std::memory_order_acquire);
    if (epoch != epoch_) {
        flush();
        epoch_ = epoch;
    }
}

void
AccessCache::flush()
{
    tlb_.fill(TlbEntry{});
    read_.fill(HostEntry{});
    write_.fill(HostEntry{});
}

void
AccessCache::fill(uint64_t page_no, const Page &page, bool writable)
{
    const size_t s = index(page_no);
    if (page.perms & kPermR) {
        read_[s] = {page_no, page.data ? page.data.get()
                                       : const_cast<uint8_t *>(kZeroPage)};
    }
    if (writable && (page.perms & kPermW) && page.data && !page.code) {
        write_[s] = {page_no, page.data.get()};
    }
}

void
AccessCache::drop(uint64_t page_no)
{
    const size_t s = index(page_no);
    if (read_[s].page_no == page_no) {
        read_[s] = HostEntry{};
    }
    if (write_[s].page_no == page_no) {
        write_[s] = HostEntry{};
    }
}

Page *
AccessCache::lookup_slow(uint64_t page_no)
{
    std::shared_lock<std::shared_mutex> lock(space_->pages_mu_,
                                             std::defer_lock);
    if (speculating_) {
        lock.lock();
    }
    ++slow_lookups_;
    auto it = space_->pages_.find(page_no);
    if (it == space_->pages_.end()) {
        return nullptr; // misses are not cached (map() must be seen)
    }
    TlbEntry &entry = tlb_[index(page_no)];
    entry.page_no = page_no;
    entry.page = &it->second;
    return entry.page;
}

void
AccessCache::journal(Page &page)
{
    for (const PageUndo &undo : undo_) {
        if (undo.page == &page) {
            return;
        }
    }
    PageUndo undo;
    undo.page = &page;
    if (page.data) {
        if (spare_.empty()) {
            undo.bytes = std::make_unique<uint8_t[]>(kPageSize);
        } else {
            undo.bytes = std::move(spare_.back());
            spare_.pop_back();
        }
        std::memcpy(undo.bytes.get(), page.data.get(), kPageSize);
    }
    undo_.push_back(std::move(undo));
}

void
AccessCache::begin_speculation()
{
    sync();
    // Write entries filled before now skip the journal.
    write_.fill(HostEntry{});
    speculating_ = true;
    aborted_ = false;
}

void
AccessCache::end_speculation(bool keep)
{
    for (PageUndo &undo : undo_) {
        if (keep) {
            // nothing to restore
        } else if (undo.bytes == nullptr) {
            // Was lazy: zeros again, keeping the backing so no cache
            // has to forget it. Lazy and zero-filled differ only to a
            // later wipe of a fetched page; a redone quantum writes
            // this page again, and a killed SIP's written pages are
            // never fetched (Occlum data is not executable; other
            // personalities drop the whole space).
            std::memset(undo.page->data.get(), 0, kPageSize);
        } else {
            std::memcpy(undo.page->data.get(), undo.bytes.get(),
                        kPageSize);
        }
        if (undo.bytes != nullptr) {
            spare_.push_back(std::move(undo.bytes));
        }
    }
    if (!keep) {
        for (Page *page : marked_) {
            page->code = false;
        }
        // Write entries opened by the speculation must not outlive it.
        write_.fill(HostEntry{});
    }
    undo_.clear();
    marked_.clear();
    speculating_ = false;
    aborted_ = false;
}

AccessFault
AccessCache::read(uint64_t addr, void *out, uint64_t len)
{
    return space_->access<false>(*this, addr, out, len, kPermR);
}

AccessFault
AccessCache::write(uint64_t addr, const void *in, uint64_t len)
{
    return space_->access<true>(*this, addr, const_cast<void *>(in), len,
                                kPermW);
}

AccessFault
AccessCache::fetch(uint64_t addr, void *out, uint64_t len)
{
    return space_->access<false>(*this, addr, out, len, kPermX);
}

// ---------------------------------------------------------------------
// the generic access path
// ---------------------------------------------------------------------

template <bool Write>
AccessFault
AddressSpace::access(AccessCache &cache, uint64_t addr, void *buf,
                     uint64_t len, uint8_t require)
{
    const bool own = cache.owns(addr, len);
    if (!own) {
        if (cache.speculating_) {
            // Another SIP's memory: its owner may be running right now.
            cache.aborted_ = true;
            return AccessFault::kUnmapped;
        }
        if (require & kPermX) {
            cache.gen_ = &clock_; // see AccessCache, "code generation"
        }
        if (foreign_hook_) {
            foreign_hook_();
        }
    }
    // Fast path: the access stays inside one page (nearly every data
    // access the interpreter issues).
    if ((addr & kPageMask) + len <= kPageSize) {
        const uint64_t page_no = addr / kPageSize;
        Page *page = cache.lookup(page_no);
        if (!page) {
            return AccessFault::kUnmapped;
        }
        if (require && !(page->perms & require)) {
            if (require & kPermW) return AccessFault::kNoWrite;
            if (require & kPermX) return AccessFault::kNoExec;
            return AccessFault::kNoRead;
        }
        if constexpr (Write) {
            if (cache.speculating_) {
                if (page->code) {
                    // The store would advance the code generation,
                    // which every other Cpu reads.
                    cache.aborted_ = true;
                    return AccessFault::kNoWrite;
                }
                cache.journal(*page);
            }
            if (!page->data) {
                materialize(cache, page_no, *page);
            }
            std::memcpy(page->data.get() + (addr & kPageMask), buf, len);
            if (page->code) {
                touch_code(addr, len);
            }
        } else {
            if ((require & kPermX) && !page->code) {
                // fetch: the bytes may get decoded, so stores to the
                // page must take the bumping write() from now on
                page->code = true;
                if (cache.speculating_) {
                    cache.marked_.push_back(page);
                }
                cache.drop(page_no);
                advance_epoch(cache);
            }
            if (!page->data) {
                std::memset(buf, 0, len); // lazy page: logically zeros
            } else {
                std::memcpy(buf, page->data.get() + (addr & kPageMask),
                            len);
            }
        }
        if (own) {
            // A speculation's write entries name journaled pages only.
            cache.fill(page_no, *page, Write || !cache.speculating_);
        }
        return AccessFault::kNone;
    }

    uint8_t *out = static_cast<uint8_t *>(buf);
    uint64_t done = 0;
    while (done < len) {
        uint64_t a = addr + done;
        Page *page = cache.lookup(a / kPageSize);
        if (!page) {
            return AccessFault::kUnmapped;
        }
        if (require && !(page->perms & require)) {
            if (require & kPermW) return AccessFault::kNoWrite;
            if (require & kPermX) return AccessFault::kNoExec;
            return AccessFault::kNoRead;
        }
        uint64_t in_page = kPageSize - (a & kPageMask);
        uint64_t n = std::min(in_page, len - done);
        if constexpr (Write) {
            if (cache.speculating_) {
                if (page->code) {
                    cache.aborted_ = true;
                    return AccessFault::kNoWrite;
                }
                cache.journal(*page);
            }
            if (!page->data) {
                materialize(cache, a / kPageSize, *page);
            }
            std::memcpy(page->data.get() + (a & kPageMask), out + done, n);
            if (page->code) {
                // Each page as it is written: a write that faults on a
                // later page has still changed this one.
                touch_code(a, n);
            }
        } else {
            if ((require & kPermX) && !page->code) {
                page->code = true; // an instruction may straddle here
                if (cache.speculating_) {
                    cache.marked_.push_back(page);
                }
                cache.drop(a / kPageSize);
                advance_epoch(cache);
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
    return AccessFault::kNone;
}

AccessFault
AddressSpace::read_raw(uint64_t addr, void *out, uint64_t len) const
{
    kernel_cache_.sync();
    // The syscall path's 8-byte reads (the return address, its
    // cfi_label) nearly always hit a read entry.
    if (len != 0 && kernel_cache_.read_hit(addr, out, len)) {
        return AccessFault::kNone;
    }
    return const_cast<AddressSpace *>(this)->access<false>(
        kernel_cache_, addr, out, len, 0);
}

AccessFault
AddressSpace::write_raw(uint64_t addr, const void *in, uint64_t len)
{
    kernel_cache_.sync();
    return access<true>(kernel_cache_, addr, const_cast<void *>(in), len,
                        0);
}

bool
AddressSpace::resolve_raw(uint64_t addr, uint64_t len,
                          std::vector<Page *> &pages) const
{
    pages.clear();
    if (len == 0) {
        return true;
    }
    if (wraps(addr, len)) {
        return false;
    }
    kernel_cache_.sync();
    const uint64_t last = (addr + len - 1) / kPageSize;
    for (uint64_t page_no = addr / kPageSize; page_no <= last; ++page_no) {
        Page *page = kernel_cache_.lookup(page_no);
        if (!page) {
            return false;
        }
        pages.push_back(page);
    }
    return true;
}

const uint8_t *
AddressSpace::page_bytes(const Page &page)
{
    return page.data ? page.data.get() : kZeroPage;
}

void
AddressSpace::store_raw(Page &page, uint64_t addr, const void *src,
                        uint64_t n)
{
    if (!page.data) {
        materialize(kernel_cache_, addr / kPageSize, page);
    }
    std::memcpy(page.data.get() + (addr & kPageMask), src, n);
    if (page.code) {
        touch_code(addr, n);
    }
}

AccessFault
AddressSpace::zero_raw(uint64_t addr, uint64_t len)
{
    kernel_cache_.sync();
    uint64_t done = 0;
    while (done < len) {
        uint64_t a = addr + done;
        Page *page = kernel_cache_.lookup(a / kPageSize);
        if (!page) {
            return AccessFault::kUnmapped;
        }
        uint64_t in_page = kPageSize - (a & kPageMask);
        uint64_t n = std::min(in_page, len - done);
        if (page->data) {
            // Materialized page: clear just the requested span.
            std::memset(page->data.get() + (a & kPageMask), 0, n);
            if (page->code) {
                touch_code(a, n);
            }
        }
        // Lazy pages are already logically zero: nothing to do, and
        // crucially no backing store is allocated, so zero-filling a
        // fresh multi-MiB mapping stays O(pages touched).
        done += n;
    }
    return AccessFault::kNone;
}

} // namespace occlum::vm
