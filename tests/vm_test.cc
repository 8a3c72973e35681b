/**
 * @file
 * Unit tests for the VM: address-space mapping/permissions, CPU
 * arithmetic and control flow, stack ops, bound-register faults, and
 * the guard-region fault behaviour MMDSFI relies on.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <iterator>
#include <random>
#include <string>

#include "base/env.h"
#include "isa/assembler.h"
#include "vm/address_space.h"
#include "vm/cpu.h"

namespace occlum::vm {
namespace {

using isa::Cond;
using isa::mem_abs;
using isa::mem_bd;
using isa::mem_rip;
using isa::mem_sib;

constexpr uint64_t kCode = 0x10000;
constexpr uint64_t kData = 0x20000;
constexpr uint64_t kStackTop = 0x30000;

/** Map code+data+stack and run the assembled program until exit. */
class VmHarness
{
  public:
    VmHarness() : cpu(space)
    {
        EXPECT_TRUE(space.map(kCode, 0x1000, kPermRX).ok());
        EXPECT_TRUE(space.map(kData, 0x1000, kPermRW).ok());
        EXPECT_TRUE(space.map(kStackTop - 0x2000, 0x2000, kPermRW).ok());
        cpu.set_sp(kStackTop - 8);
    }

    CpuExit
    run(isa::Assembler &a, uint64_t budget = 1'000'000)
    {
        Bytes code = a.finish();
        EXPECT_LE(code.size(), 0x1000u);
        EXPECT_EQ(space.write_raw(kCode, code.data(), code.size()),
                  AccessFault::kNone);
        space.touch_code();
        cpu.set_rip(kCode);
        return cpu.run(budget);
    }

    AddressSpace space;
    Cpu cpu;
};

TEST(AddressSpace, MapUnmapProtect)
{
    AddressSpace space;
    EXPECT_TRUE(space.map(0x1000, 0x2000, kPermRW).ok());
    EXPECT_FALSE(space.map(0x2000, 0x1000, kPermRW).ok()); // overlap
    EXPECT_FALSE(space.map(0x1234, 0x1000, kPermRW).ok()); // unaligned
    EXPECT_TRUE(space.is_mapped(0x1000, 0x2000));
    EXPECT_EQ(space.perms_at(0x1fff), kPermRW);
    EXPECT_TRUE(space.protect(0x1000, 0x1000, kPermR).ok());
    EXPECT_EQ(space.perms_at(0x1000), kPermR);
    space.unmap(0x1000, 0x1000);
    EXPECT_FALSE(space.is_mapped(0x1000, 0x1000));
    EXPECT_TRUE(space.is_mapped(0x2000, 0x1000));
}

TEST(AddressSpace, PermissionEnforcement)
{
    AddressSpace space;
    AccessCache mem(space); // a Cpu's view
    ASSERT_TRUE(space.map(0x1000, 0x1000, kPermR).ok());
    uint64_t v = 42;
    EXPECT_EQ(mem.write(0x1000, &v, 8), AccessFault::kNoWrite);
    EXPECT_EQ(mem.read(0x1000, &v, 8), AccessFault::kNone);
    EXPECT_EQ(mem.fetch(0x1000, &v, 1), AccessFault::kNoExec);
    EXPECT_EQ(mem.read(0x5000, &v, 8), AccessFault::kUnmapped);
    // Trusted raw access bypasses permissions but not mapping.
    EXPECT_EQ(space.write_raw(0x1000, &v, 8), AccessFault::kNone);
    EXPECT_EQ(space.write_raw(0x5000, &v, 8), AccessFault::kUnmapped);
}

TEST(AddressSpace, CrossPageAccess)
{
    AddressSpace space;
    AccessCache mem(space); // a Cpu's view
    ASSERT_TRUE(space.map(0x1000, 0x2000, kPermRW).ok());
    uint64_t v = 0x1122334455667788ull;
    EXPECT_EQ(mem.write(0x1ffc, &v, 8), AccessFault::kNone);
    uint64_t back = 0;
    EXPECT_EQ(mem.read(0x1ffc, &back, 8), AccessFault::kNone);
    EXPECT_EQ(back, v);
    // Partially unmapped cross-page access faults.
    EXPECT_EQ(mem.write(0x2ffc, &v, 8), AccessFault::kUnmapped);
}

TEST(AddressSpace, IsMappedRejectsWrappingRanges)
{
    // A range whose end wraps past 2^64 must not read as mapped: the
    // naive page walk from addr to addr+len runs zero times for it.
    AddressSpace space;
    ASSERT_TRUE(space.map(0x1000, 0x2000, kPermRW).ok());
    EXPECT_TRUE(space.is_mapped(0x1000, 0x2000));
    EXPECT_FALSE(space.is_mapped(0x2000, 0ull - 0x1000)); // wraps to 0x1000
    EXPECT_FALSE(space.is_mapped(0x2000, 0ull - 0x2000)); // ends at 2^64
    EXPECT_FALSE(space.is_mapped(0ull - 0x1000, 0x2000)); // wraps to 0x1000
}

TEST(AddressSpace, MapAndProtectRejectWrappingRanges)
{
    // map and protect walk [addr, addr+len) like is_mapped: without
    // its wrap guard a wrapping range would report success having
    // touched no page at all.
    AddressSpace space;
    const uint64_t top = 0ull - kPageSize;
    EXPECT_EQ(space.map(top, 2 * kPageSize, kPermRW).code(),
              ErrorCode::kInval); // wraps to 0x1000
    EXPECT_EQ(space.map(top, kPageSize, kPermRW).code(),
              ErrorCode::kInval); // ends at 2^64
    EXPECT_EQ(space.mapped_pages(), 0u);

    ASSERT_TRUE(space.map(0x1000, 0x1000, kPermRW).ok());
    EXPECT_EQ(space.protect(top, 2 * kPageSize, kPermRWX).code(),
              ErrorCode::kInval);
    EXPECT_EQ(space.protect(0x2000, 0ull - 0x1000, kPermRWX).code(),
              ErrorCode::kInval); // wraps to 0x1000
    EXPECT_EQ(space.perms_at(0x1000), kPermRW);
    EXPECT_EQ(space.mapped_pages(), 1u);
}

TEST(AddressSpace, OnlyPagesThatSuppliedCodeAdvanceTheGeneration)
{
    // The code generation follows pages that fetch() has read, not
    // pages that merely carry X: stores into RWX data leave it alone.
    AddressSpace space;
    AccessCache mem(space); // a Cpu's view
    ASSERT_TRUE(space.map(0x1000, 0x3000, kPermRWX).ok());
    uint64_t gen = space.code_generation();
    uint64_t v = 0x1122334455667788ull;
    ASSERT_EQ(mem.write(0x1000, &v, 8), AccessFault::kNone);
    ASSERT_EQ(mem.write_fast<8>(0x2000, &v), AccessFault::kNone);
    ASSERT_EQ(space.write_raw(0x2ffc, &v, 8), AccessFault::kNone);
    ASSERT_EQ(space.zero_raw(0x1000, 0x2000), AccessFault::kNone);
    EXPECT_EQ(space.code_generation(), gen);

    // A fetch that straddles 0x2000|0x3000 marks both pages; 0x1000
    // still has supplied nothing.
    uint8_t window[8];
    ASSERT_EQ(mem.fetch(0x2ffc, window, sizeof(window)),
              AccessFault::kNone);
    ASSERT_EQ(mem.write(0x1000, &v, 8), AccessFault::kNone);
    EXPECT_EQ(space.code_generation(), gen);

    // Every write path into a marked page bumps it: a write to the
    // second page only, and a multi-page write that starts on the
    // unmarked page.
    ASSERT_EQ(mem.write(0x3000, &v, 1), AccessFault::kNone);
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    ASSERT_EQ(mem.write_fast<8>(0x2008, &v), AccessFault::kNone);
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    ASSERT_EQ(space.write_raw(0x3008, &v, 8), AccessFault::kNone);
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    ASSERT_EQ(space.zero_raw(0x2000, 8), AccessFault::kNone);
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    ASSERT_EQ(mem.write(0x1ffc, &v, 8), AccessFault::kNone);
    EXPECT_GT(space.code_generation(), gen);
}

TEST(AddressSpace, PagesACacheSizeApartKeepTheirOwnSlots)
{
    // An Occlum SIP's first code page and its first data page sit 256
    // pages apart: the syscall-return check reads one, epoll_wait
    // writes the other, on every syscall. The trusted accessors' cache
    // must hold both, so once both are cached a second round of
    // alternating reads takes no slow lookup.
    AddressSpace space;
    const uint64_t code = 0x100002ull * kPageSize;
    const uint64_t data = code + 256 * kPageSize;
    ASSERT_TRUE(space.map(code, kPageSize, kPermRX).ok());
    ASSERT_TRUE(space.map(data, kPageSize, kPermRW).ok());
    uint64_t v = 0;
    for (int round = 0; round < 2; ++round) {
        const uint64_t before = space.kernel_slow_lookups();
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(space.read_raw(code + 8 * i, &v, 8),
                      AccessFault::kNone);
            ASSERT_EQ(space.read_raw(data + 8 * i, &v, 8),
                      AccessFault::kNone);
        }
        EXPECT_EQ(space.kernel_slow_lookups() - before,
                  round == 0 ? 2u : 0u)
            << "round " << round;
    }
}

TEST(AddressSpace, StraddlingFastAccessesMissWhateverTheNextPageCached)
{
    // The fast paths pick a slot by an access's first page and compare
    // the tag with its last, so consecutive pages must never share a
    // slot. 0x7fff and 0x8000 are the pair an XOR fold of the high
    // bits would put in one slot: with the second page's entries warm,
    // an access straddling into it must still take the two-page path.
    AddressSpace space;
    AccessCache mem(space);
    const uint64_t lo = 0x7fffull * kPageSize;
    ASSERT_TRUE(space.map(lo, 2 * kPageSize, kPermRW).ok());
    const uint64_t s = 0xa1a2a3a4b1b2b3b4ull;
    ASSERT_EQ(space.write_raw(lo + kPageSize - 4, &s, 8), AccessFault::kNone);
    uint64_t v = 0;
    uint32_t w = 0;
    ASSERT_EQ(mem.read_fast<4>(lo + kPageSize, &w), AccessFault::kNone);
    ASSERT_EQ(mem.write_fast<4>(lo + kPageSize + 4, &w), AccessFault::kNone);
    ASSERT_EQ(mem.read_fast<8>(lo + kPageSize - 4, &v), AccessFault::kNone);
    EXPECT_EQ(v, s);
    const uint64_t t = 0x0102030405060708ull;
    ASSERT_EQ(mem.write_fast<8>(lo + kPageSize - 4, &t), AccessFault::kNone);
    ASSERT_EQ(space.read_raw(lo + kPageSize - 4, &v, 8), AccessFault::kNone);
    EXPECT_EQ(v, t);
}

TEST(AddressSpace, ResolvedStoresMaterializeAndMarkCodeLikeWriteRaw)
{
    // A syscall buffer is resolved once and stored into page by page.
    // Each store must do what write_raw does to its page: a lazy page
    // is materialized (and a cache holding its zero-page read entry
    // sees the bytes after its next sync), and a page that has supplied
    // decoded bytes advances the code generation; an unmapped page
    // anywhere in the range fails the resolve before anything moves.
    AddressSpace space;
    AccessCache cpu(space);
    ASSERT_TRUE(space.map(0x10000, 3 * kPageSize, kPermRWX).ok());
    std::vector<Page *> pages;
    EXPECT_FALSE(space.resolve_raw(0x10000, 4 * kPageSize, pages));
    EXPECT_FALSE(space.resolve_raw(~0ull - 8, 16, pages));
    ASSERT_TRUE(space.resolve_raw(0x10ff8, 16, pages));
    ASSERT_EQ(pages.size(), 2u);

    uint64_t v = ~0ull;
    ASSERT_EQ(cpu.read_fast<8>(0x11000, &v), AccessFault::kNone);
    EXPECT_EQ(v, 0u); // lazy: the zero page
    EXPECT_EQ(AddressSpace::page_bytes(*pages[1])[0], 0u);
    const uint64_t bytes[2] = {0x1111111111111111ull, 0x2222222222222222ull};
    space.store_raw(*pages[0], 0x10ff8, &bytes[0], 8);
    space.store_raw(*pages[1], 0x11000, &bytes[1], 8);
    cpu.sync();
    ASSERT_EQ(cpu.read_fast<8>(0x11000, &v), AccessFault::kNone);
    EXPECT_EQ(v, bytes[1]);
    ASSERT_EQ(space.read_raw(0x10ff8, &v, 8), AccessFault::kNone);
    EXPECT_EQ(v, bytes[0]);

    // Only a page that has supplied decoded bytes moves the clock.
    const uint64_t gen = space.code_generation();
    space.store_raw(*pages[0], 0x10ff0, &bytes[0], 8);
    EXPECT_EQ(space.code_generation(), gen);
    uint8_t insn[8];
    ASSERT_EQ(cpu.fetch(0x11000, insn, sizeof(insn)), AccessFault::kNone);
    space.store_raw(*pages[1], 0x11008, &bytes[1], 8);
    EXPECT_GT(space.code_generation(), gen);
}

TEST(AddressSpace, HostTlbFollowsPermsLazyZeroAndCodeBit)
{
    // The host-pointer TLB caches a read entry (lazy pages: the shared
    // zero page) and a write entry per page; every state change that
    // makes an entry wrong must drop it before the next fast access.
    AddressSpace space;
    AccessCache mem(space); // a Cpu's view
    ASSERT_TRUE(space.map(0x1000, 0x3000, kPermRW).ok());
    const uint64_t w = 0x1122334455667788ull;
    uint64_t v = ~0ull;

    // Lazy page: the read hits the zero page; the write materializes
    // the page, so the next read must see the written bytes, and a
    // sibling lazy page must still read zeros.
    ASSERT_EQ(mem.read_fast<8>(0x1008, &v), AccessFault::kNone);
    EXPECT_EQ(v, 0u);
    ASSERT_EQ(mem.read_fast<8>(0x1008, &v), AccessFault::kNone);
    ASSERT_EQ(mem.write_fast<8>(0x1008, &w), AccessFault::kNone);
    ASSERT_EQ(mem.read_fast<8>(0x1008, &v), AccessFault::kNone);
    EXPECT_EQ(v, w);
    ASSERT_EQ(mem.read_fast<8>(0x2008, &v), AccessFault::kNone);
    EXPECT_EQ(v, 0u);

    // Straddling 8-byte accesses take the two-page path even with both
    // pages' entries warm. This one also materializes the lazy pages
    // 0x2000 and 0x3000, whose zero-page read entries must go.
    ASSERT_EQ(mem.read_fast<8>(0x3008, &v), AccessFault::kNone);
    const uint64_t s = 0xa1a2a3a4b1b2b3b4ull;
    ASSERT_EQ(mem.write_fast<8>(0x2ffc, &s), AccessFault::kNone);
    ASSERT_EQ(mem.read_fast<8>(0x2ffc, &v), AccessFault::kNone);
    EXPECT_EQ(v, s);
    uint32_t lo = 0, hi = 0;
    ASSERT_EQ(mem.read_fast<4>(0x2ffc, &lo), AccessFault::kNone);
    ASSERT_EQ(mem.read_fast<4>(0x3000, &hi), AccessFault::kNone);
    EXPECT_EQ(lo, static_cast<uint32_t>(s));
    EXPECT_EQ(hi, static_cast<uint32_t>(s >> 32));
    // At the end of the mapping the second page is missing.
    ASSERT_EQ(mem.write_fast<8>(0x3ff0, &w), AccessFault::kNone);
    ASSERT_EQ(mem.read_fast<8>(0x3ff0, &v), AccessFault::kNone);
    EXPECT_EQ(mem.read_fast<8>(0x3ffc, &v), AccessFault::kUnmapped);
    EXPECT_EQ(mem.write_fast<8>(0x3ffc, &s), AccessFault::kUnmapped);

    // A cached write entry dies with W: protect(R) refuses the store.
    ASSERT_TRUE(mem.write_hit<8>(0x1010, &w));
    ASSERT_TRUE(space.protect(0x1000, 0x1000, kPermR).ok());
    mem.sync();
    EXPECT_FALSE(mem.write_hit<8>(0x1010, &w));
    EXPECT_EQ(mem.write_fast<8>(0x1010, &w), AccessFault::kNoWrite);
    ASSERT_EQ(mem.read_fast<8>(0x1010, &v), AccessFault::kNone);
    EXPECT_EQ(v, w);
    ASSERT_TRUE(space.protect(0x1000, 0x1000, kPermNone).ok());
    mem.sync();
    EXPECT_EQ(mem.read_fast<8>(0x1010, &v), AccessFault::kNoRead);

    // unmap + map at the same address: the old entries name freed
    // bytes, and the fresh page reads as zeros.
    ASSERT_EQ(mem.write_fast<8>(0x2010, &w), AccessFault::kNone);
    ASSERT_EQ(mem.read_fast<8>(0x2010, &v), AccessFault::kNone);
    space.unmap(0x2000, 0x1000);
    mem.sync();
    EXPECT_EQ(mem.read_fast<8>(0x2010, &v), AccessFault::kUnmapped);
    EXPECT_EQ(mem.write_fast<8>(0x2010, &w), AccessFault::kUnmapped);
    ASSERT_TRUE(space.map(0x2000, 0x1000, kPermRW).ok());
    ASSERT_EQ(mem.read_fast<8>(0x2010, &v), AccessFault::kNone);
    EXPECT_EQ(v, 0u);

    // fetch() marks a page whose write entry is cached as code: the
    // next store misses and advances the generation.
    ASSERT_TRUE(space.map(0x5000, 0x1000, kPermRWX).ok());
    ASSERT_EQ(mem.write_fast<8>(0x5000, &w), AccessFault::kNone);
    ASSERT_TRUE(mem.write_hit<8>(0x5008, &w));
    uint64_t gen = space.code_generation();
    uint8_t window[8];
    ASSERT_EQ(mem.fetch(0x5000, window, sizeof(window)),
              AccessFault::kNone);
    EXPECT_FALSE(mem.write_hit<8>(0x5010, &w));
    EXPECT_EQ(space.code_generation(), gen);
    ASSERT_EQ(mem.write_fast<8>(0x5010, &w), AccessFault::kNone);
    EXPECT_GT(space.code_generation(), gen);
}

TEST(Cpu, ArithmeticAndMov)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 10);
    a.mov_ri(2, 3);
    a.add_rr(1, 2);   // 13
    a.mul_ri(1, 4);   // 52
    a.sub_ri(1, 2);   // 50
    a.mov_rr(3, 1);
    a.div_rr(3, 2);   // 16 (50/3)
    a.mod_rr(1, 2);   // 2
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(3), 16u);
    EXPECT_EQ(h.cpu.reg(1), 2u);
}

TEST(Cpu, SignedDivision)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, -50);
    a.mov_ri(2, 3);
    a.div_rr(1, 2);
    a.mov_ri(3, -50);
    a.mod_rr(3, 2);
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(static_cast<int64_t>(h.cpu.reg(1)), -16);
    EXPECT_EQ(static_cast<int64_t>(h.cpu.reg(3)), -2);
}

TEST(Cpu, DivideByZeroFaults)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 5);
    a.mov_ri(2, 0);
    a.div_rr(1, 2);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kDivide);
}

TEST(Cpu, ShiftsAndBitwise)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0xf0);
    a.shl_ri(1, 4);       // 0xf00
    a.or_ri(1, 0x0f);     // 0xf0f
    a.and_ri(1, 0xff);    // 0x0f
    a.xor_ri(1, 0xff);    // 0xf0
    a.mov_ri(2, -8);
    a.sar_ri(2, 1);       // -4
    a.mov_ri(3, -8);
    a.shr_ri(3, 60);      // high bits of two's complement
    a.not_(1);
    a.neg(2);
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), ~0xf0ull);
    EXPECT_EQ(static_cast<int64_t>(h.cpu.reg(2)), 4);
    EXPECT_EQ(h.cpu.reg(3), 0xfull);
}

TEST(Cpu, LoadStoreAllWidths)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kData);
    a.mov_ri(2, static_cast<int64_t>(0x1122334455667788ull));
    a.store(mem_bd(1, 0), 2);
    a.load(3, mem_bd(1, 0));
    a.store8(mem_bd(1, 16), 2);
    a.load8(4, mem_bd(1, 16));
    a.store32(mem_bd(1, 32), 2);
    a.load32(5, mem_bd(1, 32));
    // SIB addressing: kData + 2*8 + 0
    a.mov_ri(6, 2);
    a.store(mem_sib(1, 6, 3, 0), 2);
    a.load(7, mem_bd(1, 16)); // overlaps store8 slot; check little endian
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(3), 0x1122334455667788ull);
    EXPECT_EQ(h.cpu.reg(4), 0x88ull);
    EXPECT_EQ(h.cpu.reg(5), 0x55667788ull);
    EXPECT_EQ(h.cpu.reg(7), 0x1122334455667788ull);
}

TEST(Cpu, AbsoluteAndRipRelative)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(2, 777);
    a.store(mem_abs(kData + 8), 2);
    a.load(3, mem_abs(kData + 8));
    a.lea(4, mem_rip(0)); // address after the lea
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(3), 777u);
    // lea rip+0 = end of that instruction = ltrap address.
    EXPECT_EQ(h.cpu.reg(4), exit.rip);
}

TEST(Cpu, ConditionalBranchMatrix)
{
    struct Case {
        int64_t a, b;
        Cond cond;
        bool taken;
    };
    const Case cases[] = {
        {5, 5, Cond::kEq, true},    {5, 6, Cond::kEq, false},
        {5, 6, Cond::kNe, true},    {-1, 1, Cond::kLt, true},
        {1, -1, Cond::kLt, false},  {-1, -1, Cond::kLe, true},
        {2, 1, Cond::kGt, true},    {-5, -4, Cond::kGe, false},
        {-1, 1, Cond::kB, false},   // unsigned: -1 is huge
        {1, 2, Cond::kB, true},     {2, 2, Cond::kBe, true},
        {-1, 1, Cond::kA, true},    {3, 3, Cond::kAe, true},
    };
    for (const auto &c : cases) {
        VmHarness h;
        isa::Assembler a(kCode);
        a.mov_ri(1, c.a);
        a.mov_ri(2, c.b);
        a.mov_ri(3, 0);
        a.cmp_rr(1, 2);
        a.jcc(c.cond, "taken");
        a.mov_ri(3, 1); // fallthrough marker
        a.jmp("out");
        a.bind("taken");
        a.mov_ri(3, 2);
        a.bind("out");
        a.ltrap();
        CpuExit exit = h.run(a);
        ASSERT_EQ(exit.kind, ExitKind::kLtrap);
        EXPECT_EQ(h.cpu.reg(3), c.taken ? 2u : 1u)
            << c.a << " " << c.b << " " << isa::cond_name(c.cond);
    }
}

TEST(Cpu, CallRetAndStack)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 5);
    a.call("double_it");
    a.ltrap();
    a.bind("double_it");
    a.push(2);
    a.mov_ri(2, 2);
    a.mul_rr(1, 2);
    a.pop(2);
    a.ret();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 10u);
    EXPECT_EQ(h.cpu.sp(), kStackTop - 8); // balanced
}

TEST(Cpu, IndirectJumpAndCall)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_rl(4, "target");
    a.call_reg(4);
    a.ltrap();
    a.bind("target");
    a.mov_ri(1, 99);
    a.ret();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 99u);
}

TEST(Cpu, LoopExecutesExactly)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0);
    a.mov_ri(2, 100);
    a.bind("loop");
    a.add_ri(1, 3);
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "loop");
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 300u);
}

// ---- speculative quanta (the kernel's pre-run) --------------------------

/**
 * A loop that reads and rewrites a counter on a data page, touches a
 * second, lazy data page, and calls a function on a second code page
 * (so its first fetch marks that page), then exits through ltrap.
 */
Bytes
speculation_program()
{
    isa::Assembler a(kCode);
    a.mov_ri(1, kData);
    a.mov_ri(2, 400);
    a.bind("loop");
    a.load(3, mem_bd(1, 0));   // read first: a read may not open a
    a.add_ri(3, 5);            // write entry the journal never saw
    a.store(mem_bd(1, 0), 3);
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "loop");
    a.store(mem_bd(1, 0x1008), 3); // first write: a lazy page
    a.load(5, mem_bd(1, 0x2000));  // a materialized page, read first
    a.add_ri(5, 1);
    a.store(mem_bd(1, 0x2000), 5);
    a.mov_ri(4, kCode + 0x1000);
    a.call_reg(4);
    a.ltrap();
    return a.finish();
}

struct SpecHarness {
    AddressSpace space;
    Cpu cpu{space};

    SpecHarness()
    {
        EXPECT_TRUE(space.map(kCode, 0x2000, kPermRX).ok());
        EXPECT_TRUE(space.map(kData, 0x3000, kPermRW).ok());
        EXPECT_TRUE(space.map(kStackTop - 0x2000, 0x2000, kPermRW).ok());
        Bytes code = speculation_program();
        EXPECT_EQ(space.write_raw(kCode, code.data(), code.size()),
                  AccessFault::kNone);
        isa::Assembler callee(kCode + 0x1000);
        callee.add_ri(3, 1);
        callee.ret();
        Bytes tail = callee.finish();
        EXPECT_EQ(space.write_raw(kCode + 0x1000, tail.data(), tail.size()),
                  AccessFault::kNone);
        uint64_t seed = 7;
        EXPECT_EQ(space.write_raw(kData, &seed, 8), AccessFault::kNone);
        EXPECT_EQ(space.write_raw(kData + 0x2000, &seed, 8),
                  AccessFault::kNone);
        cpu.set_sp(kStackTop - 8);
        cpu.set_rip(kCode);
    }
};

TEST(Speculation, RollbackLeavesNoTraceThenRunMatchesInline)
{
    // Reference: the same program run inline in two quanta.
    SpecHarness ref;
    CpuExit ref_first = ref.cpu.run(1500);
    CpuExit ref_exit = ref.cpu.run(1'000'000);
    ASSERT_EQ(ref_exit.kind, ExitKind::kLtrap);

    SpecHarness h;
    ASSERT_EQ(h.cpu.run(1500).kind, ref_first.kind); // warm blocks
    const CpuState state = h.cpu.state();
    const uint64_t cycles = h.cpu.cycles();
    const uint64_t instrs = h.cpu.instructions();
    const uint64_t hits = h.cpu.block_cache_hits();
    const size_t blocks = h.cpu.block_cache_blocks();
    const size_t traces = h.cpu.superblock_count();
    uint64_t counter = 0;
    ASSERT_EQ(h.space.read_raw(kData, &counter, 8), AccessFault::kNone);

    CpuExit spec = h.cpu.speculate(1'000'000);
    EXPECT_EQ(spec.kind, ExitKind::kLtrap);
    EXPECT_FALSE(h.cpu.speculation_aborted());
    h.cpu.rollback_speculation();

    EXPECT_EQ(h.cpu.state().regs, state.regs);
    EXPECT_EQ(h.cpu.rip(), state.rip);
    EXPECT_EQ(h.cpu.cycles(), cycles);
    EXPECT_EQ(h.cpu.instructions(), instrs);
    EXPECT_EQ(h.cpu.block_cache_hits(), hits);
    EXPECT_EQ(h.cpu.block_cache_blocks(), blocks);
    EXPECT_EQ(h.cpu.superblock_count(), traces);
    uint64_t after = ~0ull;
    ASSERT_EQ(h.space.read_raw(kData, &after, 8), AccessFault::kNone);
    EXPECT_EQ(after, counter);
    ASSERT_EQ(h.space.read_raw(kData + 0x1008, &after, 8),
              AccessFault::kNone);
    EXPECT_EQ(after, 0u);
    ASSERT_EQ(h.space.read_raw(kData + 0x2000, &after, 8),
              AccessFault::kNone);
    EXPECT_EQ(after, 7u);
    // The callee page's code mark was undone: storing to it through
    // a trusted write leaves the generation alone again.
    const uint64_t gen = h.space.code_generation();
    uint64_t zero = 0;
    ASSERT_EQ(h.space.write_raw(kCode + 0x1800, &zero, 8),
              AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen);

    // Redone inline, the quantum ends exactly as the reference.
    CpuExit exit = h.cpu.run(1'000'000);
    EXPECT_EQ(exit.kind, ref_exit.kind);
    EXPECT_EQ(exit.rip, ref_exit.rip);
    EXPECT_EQ(h.cpu.state().regs, ref.cpu.state().regs);
    EXPECT_EQ(h.cpu.cycles(), ref.cpu.cycles());
    EXPECT_EQ(h.cpu.block_cache_hits(), ref.cpu.block_cache_hits());
    EXPECT_EQ(h.cpu.block_cache_misses(), ref.cpu.block_cache_misses());
    EXPECT_EQ(h.cpu.superblock_promotions(),
              ref.cpu.superblock_promotions());
}

TEST(Speculation, CommitKeepsTheQuantum)
{
    SpecHarness ref;
    CpuExit ref_exit = ref.cpu.run(1'000'000);
    SpecHarness h;
    CpuExit spec = h.cpu.speculate(1'000'000);
    ASSERT_FALSE(h.cpu.speculation_aborted());
    h.cpu.commit_speculation(spec);
    EXPECT_EQ(spec.kind, ref_exit.kind);
    EXPECT_EQ(h.cpu.state().regs, ref.cpu.state().regs);
    EXPECT_EQ(h.cpu.cycles(), ref.cpu.cycles());
    uint64_t a = 0, b = 1;
    ASSERT_EQ(h.space.read_raw(kData, &a, 8), AccessFault::kNone);
    ASSERT_EQ(ref.space.read_raw(kData, &b, 8), AccessFault::kNone);
    EXPECT_EQ(a, b);
}

TEST(Speculation, ForeignAccessAndCodeStoreAbort)
{
    // Confined to [kCode, kData + 0x3000): the stack is foreign, so
    // the call's push refuses; a store into a fetched RWX page would
    // advance the code generation, so it refuses too. Neither touches
    // memory, and the rollback returns the Cpu to its start.
    {
        SpecHarness h;
        h.cpu.confine_to(kCode, kData + 0x3000);
        uint64_t stack_word = 0x55;
        ASSERT_EQ(h.space.write_raw(kStackTop - 16, &stack_word, 8),
                  AccessFault::kNone);
        h.cpu.speculate(1'000'000);
        EXPECT_TRUE(h.cpu.speculation_aborted());
        h.cpu.rollback_speculation();
        EXPECT_EQ(h.cpu.rip(), kCode);
        EXPECT_EQ(h.cpu.instructions(), 0u);
        uint64_t word = 0;
        ASSERT_EQ(h.space.read_raw(kStackTop - 16, &word, 8),
                  AccessFault::kNone);
        EXPECT_EQ(word, 0x55u);
        // Inline, the same access simply works.
        EXPECT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
    }
    {
        AddressSpace space;
        ASSERT_TRUE(space.map(kCode, 0x1000, kPermRWX).ok());
        isa::Assembler a(kCode);
        a.mov_ri(1, kCode + 0x800);
        a.mov_ri(2, 9);
        a.store(mem_bd(1, 0), 2); // into the page being executed
        a.ltrap();
        Bytes code = a.finish();
        ASSERT_EQ(space.write_raw(kCode, code.data(), code.size()),
                  AccessFault::kNone);
        Cpu cpu(space);
        cpu.set_rip(kCode);
        const uint64_t gen = space.code_generation();
        cpu.speculate(1000);
        EXPECT_TRUE(cpu.speculation_aborted());
        EXPECT_EQ(space.code_generation(), gen);
        cpu.rollback_speculation();
        EXPECT_EQ(cpu.run(1000).kind, ExitKind::kLtrap);
        EXPECT_GT(space.code_generation(), gen);
        uint64_t word = 0;
        ASSERT_EQ(space.read_raw(kCode + 0x800, &word, 8),
                  AccessFault::kNone);
        EXPECT_EQ(word, 9u);
    }
}

TEST(CodeRegions, AStoreMovesItsRegionAndTheClockOnly)
{
    // Two slot-sized code regions, A and B, as in an Occlum enclave. A
    // store into code A has fetched stales A's blocks but not those of
    // a Cpu confined to B; a Cpu of B that has run A's code follows
    // the space-wide clock from then on, so it sees the store too.
    constexpr uint64_t kA = 0x100000;
    constexpr uint64_t kB = kA + 0x10000;
    AddressSpace space;
    space.set_code_regions(kA, 0x10000, 2);
    ASSERT_TRUE(space.map(kA, 0x1000, kPermRX).ok());
    ASSERT_TRUE(space.map(kB, 0x1000, kPermRX).ok());
    auto load = [&space](isa::Assembler &a, uint64_t at) {
        Bytes code = a.finish();
        EXPECT_EQ(space.write_raw(at, code.data(), code.size()),
                  AccessFault::kNone);
    };
    auto load_a = [&load](int32_t step) {
        isa::Assembler a(kA); // A: r1 += step
        a.add_ri(1, step);
        a.ltrap();
        load(a, kA);
    };
    load_a(1);
    isa::Assembler own(kB); // B: r1 += 10
    own.add_ri(1, 10);
    own.ltrap();
    load(own, kB);
    isa::Assembler reach(kB + 0x100); // B: go run A's code
    reach.mov_ri(2, kA);
    reach.jmp_reg(2);
    load(reach, kB + 0x100);

    Cpu cpu_a(space);
    cpu_a.confine_to(kA, kB);
    Cpu cpu_b(space);
    cpu_b.confine_to(kB, kB + 0x10000);
    Cpu cpu_x(space);
    cpu_x.confine_to(kB, kB + 0x10000);
    auto run_from = [](Cpu &cpu, uint64_t rip) {
        cpu.set_rip(rip);
        cpu.set_reg(1, 0);
        EXPECT_EQ(cpu.run(100).kind, ExitKind::kLtrap);
        return cpu.reg(1);
    };
    EXPECT_EQ(run_from(cpu_a, kA), 1u);
    EXPECT_EQ(run_from(cpu_b, kB), 10u);
    EXPECT_EQ(run_from(cpu_x, kB + 0x100), 1u); // fetched outside B
    EXPECT_EQ(cpu_x.code_generation(), space.code_generation());

    const uint64_t gen_a = cpu_a.code_generation();
    const uint64_t gen_b = cpu_b.code_generation();
    const uint64_t clock = space.code_generation();
    load_a(2); // a store into a page of A that has supplied code
    EXPECT_GT(space.code_generation(), clock);
    EXPECT_GT(cpu_a.code_generation(), gen_a);
    EXPECT_EQ(cpu_a.code_generation(), space.code_generation());
    EXPECT_EQ(cpu_b.code_generation(), gen_b);
    EXPECT_EQ(cpu_x.code_generation(), space.code_generation());

    EXPECT_EQ(run_from(cpu_b, kB), 10u);
    EXPECT_EQ(cpu_b.block_cache_invalidations(), 0u);
    EXPECT_EQ(cpu_b.block_cache_hits(), 1u);
    EXPECT_EQ(run_from(cpu_a, kA), 2u);
    EXPECT_EQ(cpu_a.block_cache_invalidations(), 1u);
    EXPECT_EQ(run_from(cpu_x, kB + 0x100), 2u);
    EXPECT_EQ(cpu_x.block_cache_invalidations(), 2u);
}

TEST(Cpu, GuardRegionFaultsLikeMmdsfiExpects)
{
    // Unmapped pages adjacent to data fault on access: the mechanism
    // behind guard regions G1/G2 (paper §4.1).
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kData + 0x1000); // first byte past the data page
    a.store(mem_bd(1, 0), 2);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kPageFault);
    EXPECT_EQ(exit.fault_addr, kData + 0x1000);
}

TEST(Cpu, StorePermissionFault)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kCode); // code is RX
    a.store(mem_bd(1, 0), 2);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kPermFault);
}

TEST(Cpu, ExecuteDataFaults)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kData);
    a.jmp_reg(1);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kExecFault);
    EXPECT_EQ(exit.rip, kData);
}

TEST(Cpu, BoundCheckPassAndFail)
{
    VmHarness h;
    h.cpu.set_bnd(0, {kData, kData + 0xfff});
    isa::Assembler a(kCode);
    a.mov_ri(1, kData + 100);
    a.bndcl_mem(0, mem_bd(1, 0));
    a.bndcu_mem(0, mem_bd(1, 0));
    a.store(mem_bd(1, 0), 2);  // guarded access succeeds
    a.mov_ri(1, kData + 0x1000);
    a.bndcu_mem(0, mem_bd(1, 0)); // out of bounds: #BR
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kBoundRange);
    EXPECT_EQ(exit.fault_addr, kData + 0x1000);
}

TEST(Cpu, BoundCheckRegisterEquality)
{
    // cfi_guard semantics: bnd1 = [v, v] is an equality test.
    VmHarness h;
    uint64_t label = isa::cfi_label_value(7);
    h.cpu.set_bnd(1, {label, label});
    isa::Assembler a(kCode);
    a.mov_ri(1, static_cast<int64_t>(label));
    a.bndcl_reg(1, 1);
    a.bndcu_reg(1, 1);
    a.mov_ri(2, static_cast<int64_t>(label + 1));
    a.bndcu_reg(1, 2); // fails
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kBoundRange);
}

TEST(Cpu, PrivilegedInstructionsExit)
{
    for (auto make : {+[](isa::Assembler &a) { a.hlt(); },
                      +[](isa::Assembler &a) { a.eexit(); },
                      +[](isa::Assembler &a) { a.xrstor(); },
                      +[](isa::Assembler &a) { a.wrfsbase(3); },
                      +[](isa::Assembler &a) { a.bndmk(0, mem_bd(1, 0)); }}) {
        VmHarness h;
        isa::Assembler a(kCode);
        make(a);
        CpuExit exit = h.run(a);
        EXPECT_EQ(exit.kind, ExitKind::kPrivileged);
    }
}

TEST(Cpu, LtrapResumesAfterTrap)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 1);
    a.ltrap();
    a.mov_ri(1, 2);
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    h.space.touch_code();
    h.cpu.set_rip(kCode);
    CpuExit first = h.cpu.run(1000);
    EXPECT_EQ(first.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 1u);
    CpuExit second = h.cpu.run(1000);
    EXPECT_EQ(second.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 2u);
}

TEST(Cpu, InstructionBudgetStopsLoops)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.bind("spin");
    a.jmp("spin");
    CpuExit exit = h.run(a, 1000);
    EXPECT_EQ(exit.kind, ExitKind::kInstrBudget);
}

TEST(Cpu, CyclesAccumulate)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 7);
    a.ltrap();
    h.run(a);
    EXPECT_GT(h.cpu.cycles(), 0u);
    EXPECT_EQ(h.cpu.instructions(), 2u);
}

TEST(Cpu, JumpIntoMiddleOfInstructionDecodesDifferently)
{
    // The variable-length property: a mov_ri whose immediate encodes a
    // valid instruction stream can be entered mid-instruction. Here
    // the middle bytes decode as `nop`s; landing there must NOT be an
    // invalid-opcode fault but execute *different* instructions —
    // exactly the hazard MMDSFI's CFI closes.
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0); // 10 bytes: opcode, reg, 8x 0x00 (nop opcodes)
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    h.space.touch_code();
    h.cpu.set_rip(kCode + 2); // into the immediate: eight nops
    CpuExit exit = h.cpu.run(100);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap); // fell through to ltrap
    EXPECT_EQ(h.cpu.instructions(), 9u);    // 8 nops + ltrap
}

// ---- predecoded basic-block cache -------------------------------------

/** Encoded length of one instruction (encodings are fixed per op). */
template <typename EmitFn>
size_t
encoded_len(EmitFn emit)
{
    isa::Assembler a(0);
    emit(a);
    return a.finish().size();
}

TEST(BlockCache, HitsAccumulateAcrossLoopIterations)
{
    VmHarness h;
    // This test asserts tier-1 dispatch-counter mechanics; with the
    // superblock tier on, the loop would promote at the threshold and
    // bb-hit accumulation would freeze at ~kPromoteThreshold.
    h.cpu.set_tier(Tier::kBlocks);
    isa::Assembler a(kCode);
    a.mov_ri(1, 0);
    a.mov_ri(2, 100);
    a.bind("loop");
    a.add_ri(1, 1);
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "loop");
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 100u);
    // The loop body re-enters the same block ~99 times; only a
    // handful of distinct entry rips ever need decoding.
    EXPECT_GT(h.cpu.block_cache_hits(), 90u);
    EXPECT_LT(h.cpu.block_cache_misses(), 10u);
    EXPECT_EQ(h.cpu.block_cache_invalidations(), 0u);
}

TEST(BlockCache, WriteToCodePageInvalidatesWithoutTouchCode)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 1);
    a.ltrap();
    EXPECT_EQ(h.run(a).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 1u);

    // Rewrite the code bytes *without* calling touch_code: the write
    // into a page that has supplied decoded bytes must advance the
    // generation by itself.
    isa::Assembler b(kCode);
    b.mov_ri(1, 2);
    b.ltrap();
    Bytes code = b.finish();
    uint64_t gen_before = h.space.code_generation();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    EXPECT_GT(h.space.code_generation(), gen_before);

    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(100).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 2u);
    EXPECT_GE(h.cpu.block_cache_invalidations(), 1u);
}

TEST(BlockCache, PermissionChangesInvolvingExecBumpGeneration)
{
    AddressSpace space;
    AccessCache mem(space); // a Cpu's view
    ASSERT_TRUE(space.map(0x1000, 0x1000, kPermRX).ok());
    ASSERT_TRUE(space.map(0x2000, 0x1000, kPermRW).ok());
    uint64_t gen = space.code_generation();

    // RW-only traffic leaves code caches alone.
    ASSERT_TRUE(space.protect(0x2000, 0x1000, kPermR).ok());
    mem.sync();
    uint32_t v = 7;
    ASSERT_TRUE(space.protect(0x2000, 0x1000, kPermRW).ok());
    mem.sync();
    ASSERT_EQ(mem.write(0x2000, &v, sizeof(v)), AccessFault::kNone);
    EXPECT_EQ(space.code_generation(), gen);

    // Dropping X (the SGX runtime_protect path) invalidates.
    ASSERT_TRUE(space.protect(0x1000, 0x1000, kPermR).ok());
    mem.sync();
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();

    // Regaining X invalidates again.
    ASSERT_TRUE(space.protect(0x1000, 0x1000, kPermRX).ok());
    mem.sync();
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();

    // Mapping and unmapping executable pages both invalidate (new
    // pages can complete previously truncated instruction fetches).
    ASSERT_TRUE(space.map(0x3000, 0x1000, kPermRX).ok());
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    space.unmap(0x3000, 0x1000);
    mem.sync();
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    ASSERT_TRUE(space.map(0x4000, 0x1000, kPermRW).ok());
    space.unmap(0x4000, 0x1000);
    mem.sync();
    EXPECT_EQ(space.code_generation(), gen);
}

TEST(BlockCache, SelfModifyingStoreTakesEffectMidBlock)
{
    // A store that patches the immediate of a *later* instruction in
    // the same straight-line run: the interpreter must notice the
    // generation bump mid-block and re-decode instead of replaying
    // the stale predecoded op.
    VmHarness h;
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermRWX).ok());

    size_t mov_len =
        encoded_len([](isa::Assembler &a) { a.mov_ri(2, 0x41); });
    size_t store_len = encoded_len(
        [](isa::Assembler &a) { a.store8(mem_bd(3, 0), 2); });
    // Layout: mov r2 | mov r3 | store8 | mov r1, 0 | ltrap.
    // The patch target is the first immediate byte of `mov r1, 0`.
    uint64_t patch_addr = kCode + 2 * mov_len + store_len + 2;

    isa::Assembler a(kCode);
    a.mov_ri(2, 0x41);
    a.mov_ri(3, static_cast<int64_t>(patch_addr));
    a.store8(mem_bd(3, 0), 2);
    a.mov_ri(1, 0); // immediate patched to 0x41 by the store above
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 0x41u);
}

TEST(BlockCache, OffModeIsBitIdenticalInCyclesAndState)
{
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 50);
        a.bind("loop");
        a.store(mem_abs(kData), 1);
        a.load(3, mem_abs(kData));
        a.add_rr(1, 3);
        a.push(1);
        a.pop(4);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_tier(Tier::kDecode);
    ASSERT_NE(on.cpu.tier(), Tier::kDecode);
    ASSERT_EQ(off.cpu.tier(), Tier::kDecode);

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
    for (int r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(on.cpu.reg(r), off.cpu.reg(r)) << "reg " << r;
    }
    EXPECT_EQ(off.cpu.block_cache_hits(), 0u);
    EXPECT_EQ(off.cpu.block_cache_misses(), 0u);
}

TEST(BlockCache, InstructionBudgetStopsMidBlockAndResumes)
{
    VmHarness h;
    size_t nop_len = encoded_len([](isa::Assembler &a) { a.nop(); });
    isa::Assembler a(kCode);
    for (int i = 0; i < 10; ++i) {
        a.nop();
    }
    a.ltrap();
    CpuExit exit = h.run(a, 4);
    EXPECT_EQ(exit.kind, ExitKind::kInstrBudget);
    EXPECT_EQ(h.cpu.instructions(), 4u);
    EXPECT_EQ(h.cpu.rip(), kCode + 4 * nop_len);
    // Resuming mid-block re-enters at rip and finishes the run.
    exit = h.cpu.run(1000);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.instructions(), 11u);
}

TEST(BlockCache, EntryPointKeyedBlocksPreserveOverlappingDecode)
{
    // Same bytes, two entry points (the JumpIntoMiddle scenario), now
    // exercised repeatedly so both decodings live in the cache at
    // once. Blocks are keyed by entry rip, so neither view clobbers
    // the other.
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0); // bytes 2..9 are eight nops when entered at +2
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);

    auto run_from = [&](uint64_t rip) {
        uint64_t before = h.cpu.instructions();
        h.cpu.set_rip(rip);
        CpuExit exit = h.cpu.run(100);
        EXPECT_EQ(exit.kind, ExitKind::kLtrap);
        return h.cpu.instructions() - before;
    };
    EXPECT_EQ(run_from(kCode), 2u);     // mov + ltrap
    EXPECT_EQ(run_from(kCode + 2), 9u); // 8 nops + ltrap
    EXPECT_EQ(run_from(kCode), 2u);     // cached, still the mov view
    EXPECT_EQ(run_from(kCode + 2), 9u);
    EXPECT_EQ(h.cpu.block_cache_invalidations(), 0u);
    EXPECT_GE(h.cpu.block_cache_hits(), 2u);
}

TEST(BlockCache, CfiLabelStartsANewBlock)
{
    // A cfi_label mid-stream ends the preceding block (it is a
    // potential indirect-entry point); entered directly it simply
    // begins its own block.
    VmHarness h;
    size_t mov_len =
        encoded_len([](isa::Assembler &a) { a.mov_ri(1, 5); });
    isa::Assembler a(kCode);
    a.mov_ri(1, 5);
    a.cfi_label(3);
    a.mov_ri(2, 7);
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 5u);
    EXPECT_EQ(h.cpu.reg(2), 7u);
    // Straight-line execution still crossed a block boundary.
    EXPECT_EQ(h.cpu.block_cache_misses(), 2u);

    // Entering at the label replays only the second block.
    uint64_t before = h.cpu.instructions();
    h.cpu.set_rip(kCode + mov_len);
    EXPECT_EQ(h.cpu.run(100).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.instructions() - before, 3u); // cfi, mov, ltrap
    EXPECT_EQ(h.cpu.block_cache_misses(), 2u);    // no new decode
}

// ---- superblock tier (tier 2) -----------------------------------------

TEST(BlockCache, FlatTableGrowsPastAThousandEntries)
{
    // A chain of 1100 one-block hops, walked three times: the flat
    // table grows from its minimum through several doublings while
    // run_blocks holds a Block* across each insert (ASan checks the
    // pointers stay good). Every entry rip is a distinct block, plus
    // the final ltrap block; the hand count of lookups is exact
    // because three passes stay below the promotion threshold.
    constexpr int kHops = 1100;
    constexpr uint64_t kPasses = 3;
    static_assert(kPasses < kPromoteThreshold);
    constexpr uint64_t kChainCode = 0x100000;
    constexpr uint64_t kChainSize = 0x10000;
    isa::Assembler a(kChainCode);
    a.bind("top");
    for (int k = 0; k < kHops - 1; ++k) {
        a.add_ri(1, 1);
        a.jmp("hop" + std::to_string(k + 1));
        a.bind("hop" + std::to_string(k + 1));
    }
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "top");
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_LE(code.size(), kChainSize);

    for (Tier tier : {Tier::kBlocks, Tier::kTraces}) {
        SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
        AddressSpace space;
        ASSERT_TRUE(space.map(kChainCode, kChainSize, kPermRX).ok());
        ASSERT_EQ(space.write_raw(kChainCode, code.data(), code.size()),
                  AccessFault::kNone);
        Cpu cpu(space);
        cpu.set_tier(tier);
        cpu.set_reg(2, kPasses);
        cpu.set_rip(kChainCode);
        ASSERT_EQ(cpu.run(1'000'000).kind, ExitKind::kLtrap);
        EXPECT_EQ(cpu.reg(1), kPasses * (kHops - 1));
        // kHops chain blocks + the ltrap block, one lookup per block
        // dispatch: the first pass misses, later passes hit.
        EXPECT_EQ(cpu.block_cache_blocks(), static_cast<size_t>(kHops) + 1);
        EXPECT_EQ(cpu.block_cache_misses(), kHops + 1u);
        EXPECT_EQ(cpu.block_cache_hits(), (kPasses - 1) * kHops);
        EXPECT_EQ(cpu.block_cache_invalidations(), 0u);
        EXPECT_EQ(cpu.superblock_promotions(), 0u);

        // Hot now: more passes promote and link traces through the
        // grown table and still count every hop.
        cpu.set_reg(1, 0);
        cpu.set_reg(2, 20);
        cpu.set_rip(kChainCode);
        ASSERT_EQ(cpu.run(10'000'000).kind, ExitKind::kLtrap);
        EXPECT_EQ(cpu.reg(1), 20u * (kHops - 1));
        EXPECT_EQ(cpu.block_cache_blocks(), static_cast<size_t>(kHops) + 1);
        if (tier == Tier::kTraces) {
            EXPECT_GT(cpu.superblock_promotions(), 0u);
        }
    }
}

/**
 * The superblock battery tests the trace tier itself, so it must run
 * at Tier::kTraces even when OCCLUM_VM_SUPERBLOCK=0 pins the process
 * default to kBlocks (CI bisection legs run the whole suite that
 * way). The fixture forces the default and restores the env-derived
 * value afterwards; tier-1 comparisons inside the tests still use the
 * per-cpu set_tier(Tier::kBlocks).
 */
class Superblock : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_default_ = Cpu::default_tier();
        Cpu::set_default_tier(Tier::kTraces);
    }
    void TearDown() override { Cpu::set_default_tier(saved_default_); }

  private:
    Tier saved_default_ = Tier::kTraces;
};

TEST_F(Superblock, OnOffBitIdenticalInCyclesAndState)
{
    // A hot loop well past the promotion threshold, mixing ALU ops,
    // memory traffic, stack ops, and rdcycle. rdcycle snapshots the
    // cycle counter *mid-trace* into an architectural register, so
    // equality of the final registers proves cycle accounting is
    // exact at every instruction boundary, not just at exit.
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 200);
        a.bind("loop");
        a.store(mem_abs(kData), 1);
        a.load(3, mem_abs(kData));
        a.add_rr(1, 3);
        a.shl_ri(3, 1);
        a.push(3);
        a.pop(4);
        a.xor_rr(4, 1);
        a.rdcycle(5);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_tier(Tier::kBlocks);
    ASSERT_EQ(on.cpu.tier(), Tier::kTraces);

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
    for (int r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(on.cpu.reg(r), off.cpu.reg(r)) << "reg " << r;
    }
    // One trace entry replays the whole remaining loop via its back
    // edge, so hits count entries, not iterations.
    EXPECT_GE(on.cpu.superblock_promotions(), 1u);
    EXPECT_GE(on.cpu.superblock_exec_hits(), 1u);
    EXPECT_EQ(off.cpu.superblock_promotions(), 0u);
    EXPECT_EQ(off.cpu.superblock_exec_hits(), 0u);
}

TEST_F(Superblock, SmcInsideStitchedTraceDemotesToTier1)
{
    // A store buried mid-trace patches the immediate of a *later*
    // instruction in the same stitched loop body. The store executes
    // long after promotion; the trace must notice the generation bump
    // at the store uop, exit, and demote, and the patched byte must
    // take effect on the very next instruction — same as tier 1 and
    // the decode loop.
    auto build = [](isa::Assembler &a, uint64_t patch_addr) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(patch_addr));
        a.mov_ri(5, 5);
        a.bind("loop");
        a.cmp_ri(2, 40);
        a.jcc(Cond::kNe, "skip"); // store runs exactly once, at r2==40
        a.store8(mem_bd(3, 0), 5);
        a.bind("skip");
        a.mov_ri(4, 7); // immediate patched 7 -> 5 mid-run
        a.add_rr(1, 4);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    size_t mov_len =
        encoded_len([](isa::Assembler &a) { a.mov_ri(4, 7); });
    size_t cmp_len =
        encoded_len([](isa::Assembler &a) { a.cmp_ri(2, 40); });
    size_t jcc_len = encoded_len([](isa::Assembler &a) {
        a.bind("l");
        a.jcc(Cond::kNe, "l");
    });
    size_t store_len = encoded_len(
        [](isa::Assembler &a) { a.store8(mem_bd(3, 0), 5); });
    // The first immediate byte of `mov r4, 7` sits 2 bytes into it.
    const uint64_t patch_off =
        4 * mov_len + cmp_len + jcc_len + store_len + 2;

    // Two layouts over two RWX pages: the loop at the start of the
    // first page, and the loop placed so that `mov r4, 7` starts on
    // the first page and its patched immediate opens the second —
    // the store rewrites only a page the instruction straddles into.
    for (uint64_t origin : {kCode, kCode + kPageSize - patch_off}) {
        SCOPED_TRACE("origin " + std::to_string(origin));
        uint64_t cycles = 0, instructions = 0;
        for (Tier tier : {Tier::kDecode, Tier::kBlocks, Tier::kTraces}) {
            SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
            VmHarness h;
            ASSERT_TRUE(h.space.protect(kCode, kPageSize, kPermRWX).ok());
            ASSERT_TRUE(
                h.space.map(kCode + kPageSize, kPageSize, kPermRWX).ok());
            h.cpu.set_tier(tier);
            isa::Assembler a(origin);
            build(a, origin + patch_off);
            Bytes code = a.finish();
            ASSERT_EQ(h.space.write_raw(origin, code.data(), code.size()),
                      AccessFault::kNone);
            h.cpu.set_rip(origin);

            EXPECT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
            // 60 iterations at 7, then the patch lands, then 40 at 5.
            EXPECT_EQ(h.cpu.reg(1), 60u * 7 + 40u * 5);
            if (tier == Tier::kDecode) {
                cycles = h.cpu.cycles();
                instructions = h.cpu.instructions();
            }
            EXPECT_EQ(h.cpu.cycles(), cycles);
            EXPECT_EQ(h.cpu.instructions(), instructions);
            if (tier == Tier::kTraces) {
                EXPECT_GE(h.cpu.superblock_promotions(), 1u);
                EXPECT_GE(h.cpu.superblock_invalidations(), 1u);
            }
        }
    }
}

TEST_F(Superblock, MprotectOnExecPagesDemotesAndRepromotes)
{
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.add_ri(1, 2);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness h;
    isa::Assembler a(kCode);
    program(a);
    EXPECT_EQ(h.run(a).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 200u);
    uint64_t promos = h.cpu.superblock_promotions();
    EXPECT_GE(promos, 1u);
    EXPECT_GE(h.cpu.superblock_count(), 1u);

    // An X-permission round trip (the SGX runtime_protect path) must
    // demote every installed trace.
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermR).ok());
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermRX).ok());

    h.cpu.set_reg(1, 0);
    h.cpu.set_reg(2, 100);
    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 200u);
    EXPECT_GE(h.cpu.superblock_invalidations(), 1u);
    // The loop is hot again, so the rebuilt block re-promotes.
    EXPECT_GT(h.cpu.superblock_promotions(), promos);
}

TEST_F(Superblock, TierTogglesResetDispatchCounters)
{
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.add_ri(1, 1);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    auto expect_all_zero = [](const Cpu &cpu, const char *where) {
        EXPECT_EQ(cpu.block_cache_hits(), 0u) << where;
        EXPECT_EQ(cpu.block_cache_misses(), 0u) << where;
        EXPECT_EQ(cpu.block_cache_invalidations(), 0u) << where;
        EXPECT_EQ(cpu.superblock_promotions(), 0u) << where;
        EXPECT_EQ(cpu.superblock_invalidations(), 0u) << where;
        EXPECT_EQ(cpu.superblock_exec_hits(), 0u) << where;
        EXPECT_EQ(cpu.superblock_guards_folded(), 0u) << where;
        EXPECT_EQ(cpu.superblock_count(), 0u) << where;
    };
    VmHarness h;
    isa::Assembler a(kCode);
    program(a);
    EXPECT_EQ(h.run(a).kind, ExitKind::kLtrap);
    EXPECT_GT(h.cpu.block_cache_misses(), 0u);
    EXPECT_GE(h.cpu.superblock_promotions(), 1u);

    // Changing the tier drops all cached state and zeroes every
    // dispatch counter — ablation rows never mix configurations.
    h.cpu.set_tier(Tier::kBlocks);
    expect_all_zero(h.cpu, "after kBlocks");
    EXPECT_EQ(h.cpu.block_cache_blocks(), 0u);

    h.cpu.set_reg(1, 0);
    h.cpu.set_reg(2, 100);
    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
    EXPECT_GT(h.cpu.block_cache_hits(), 90u); // tier-1 counts resume
    EXPECT_EQ(h.cpu.superblock_promotions(), 0u);

    h.cpu.set_tier(Tier::kTraces);
    expect_all_zero(h.cpu, "after kTraces");

    h.cpu.set_tier(Tier::kDecode);
    expect_all_zero(h.cpu, "after kDecode");
}

TEST(EnvFlag, AcceptsExactlyZeroOrOne)
{
    EXPECT_TRUE(parse_env_flag(nullptr, true).value());
    EXPECT_FALSE(parse_env_flag(nullptr, false).value());
    EXPECT_TRUE(parse_env_flag("", true).value());
    EXPECT_FALSE(parse_env_flag("", false).value());
    EXPECT_FALSE(parse_env_flag("0", true).value());
    EXPECT_TRUE(parse_env_flag("1", false).value());
    for (const char *bad : {"off", "on", "false", "true", "yes", "2",
                            "00", "01", " 1", "1 ", "-1", "0x1"}) {
        auto flag = parse_env_flag(bad, true);
        ASSERT_FALSE(flag.ok()) << bad;
        EXPECT_EQ(flag.code(), ErrorCode::kInval) << bad;
        EXPECT_NE(flag.error().message.find(bad), std::string::npos)
            << flag.error().message;
    }
}

TEST(SuperblockDefault, FollowsEnvAndStaticSetter)
{
    // Mirrors the crypto reference-mode pattern: the static default
    // (seeded from OCCLUM_VM_SUPERBLOCK: kTraces unless set to "0",
    // which selects kBlocks) applies at construction. Runs outside
    // the Superblock fixture so the env-derived value is still
    // observable here.
    const Tier saved = Cpu::default_tier();
    EXPECT_EQ(saved,
              parse_env_flag(std::getenv("OCCLUM_VM_SUPERBLOCK"), true)
                      .value()
                  ? Tier::kTraces
                  : Tier::kBlocks);
    for (Tier tier : {Tier::kBlocks, Tier::kTraces, Tier::kDecode}) {
        Cpu::set_default_tier(tier);
        AddressSpace space;
        Cpu cpu(space);
        EXPECT_EQ(cpu.tier(), tier);
    }
    Cpu::set_default_tier(saved);
}

TEST_F(Superblock, GuardFoldingPreservesStateAndCycles)
{
    // Two identical mem_guard pairs per iteration: the translator
    // fuses each bndcl+bndcu pair and the first pair into the load it
    // guards. The duplicate is fused and still checked, never dropped
    // (only the toolchain removes redundant guards). Simulated time
    // must not move by a single cycle.
    auto program = [](isa::Assembler &a) {
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(kData));
        a.bind("loop");
        a.mem_guard(mem_bd(3, 0));
        a.load(4, mem_bd(3, 0));
        a.mem_guard(mem_bd(3, 0)); // exact duplicate -> fused pair
        a.add_ri(4, 1);
        a.store(mem_bd(3, 0), 4);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_tier(Tier::kBlocks);

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, ExitKind::kLtrap);
    EXPECT_EQ(e2.kind, ExitKind::kLtrap);
    EXPECT_EQ(on.cpu.reg(4), 100u);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    // Per promotion: two fused pairs + the first pair fused into the
    // load.
    EXPECT_GE(on.cpu.superblock_guards_folded(), 3u);
    EXPECT_EQ(off.cpu.superblock_guards_folded(), 0u);
}

TEST_F(Superblock, FusedGuardFaultPointsAreExact)
{
    // A pointer walks forward under a mem_guard until it crosses the
    // upper bound — well after promotion, so the #BR is raised from
    // inside the fused bndcl+bndcu uop. Fault rip, fault address,
    // cycles, and instruction count must match tier 1 exactly (the
    // upper fault charges both halves; rip is the bndcu).
    auto forward = [](isa::Assembler &a) {
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(kData));
        a.bind("loop");
        a.mem_guard(mem_bd(3, 0));
        a.load8(4, mem_bd(3, 0));
        a.add_ri(3, 8);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    auto run_pair = [](auto &program, BoundReg bnd) {
        VmHarness on;
        VmHarness off;
        off.cpu.set_tier(Tier::kBlocks);
        on.cpu.set_bnd(isa::kBndData, bnd);
        off.cpu.set_bnd(isa::kBndData, bnd);
        isa::Assembler a1(kCode);
        program(a1);
        CpuExit e1 = on.run(a1);
        isa::Assembler a2(kCode);
        program(a2);
        CpuExit e2 = off.run(a2);
        EXPECT_EQ(e1.kind, ExitKind::kFault);
        EXPECT_EQ(e1.fault, FaultKind::kBoundRange);
        EXPECT_EQ(e1.kind, e2.kind);
        EXPECT_EQ(e1.fault, e2.fault);
        EXPECT_EQ(e1.rip, e2.rip);
        EXPECT_EQ(e1.fault_addr, e2.fault_addr);
        EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
        EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
        EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
        EXPECT_GE(on.cpu.superblock_promotions(), 1u);
    };
    // Upper-bound fault at iteration 51 (addr kData+408 > hi).
    run_pair(forward, BoundReg{0, kData + 50 * 8});

    // Lower-bound fault: walk down through lo at iteration ~51. The
    // #BR comes from the bndcl half, which charges only its own cost.
    auto backward = [](isa::Assembler &a) {
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(kData + 800));
        a.bind("loop");
        a.mem_guard(mem_bd(3, 0));
        a.load8(4, mem_bd(3, 0));
        a.add_ri(3, -8);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    run_pair(backward, BoundReg{kData + 400, ~0ull});
}

TEST_F(Superblock, LoadThenAluFaultPointsAreExact)
{
    // A load feeding a lone ALU op (the ALU destination different from
    // the loaded register) walks a pointer off the end of the mapped
    // data page — well past promotion, so the page fault is raised
    // from inside the trace, mid-segment. Fault rip, fault address,
    // cycles, and state must match tier 1 exactly (the fault charges
    // the uops up to and including the load; the ALU op never ran).
    auto program = [](isa::Assembler &a) {
        a.mov_ri(2, 1000);
        a.mov_ri(3, static_cast<int64_t>(kData));
        a.mov_ri(5, 0);
        a.bind("loop");
        a.load8(4, mem_bd(3, 0));
        a.add_rr(5, 4);
        a.store(mem_abs(kData), 5);
        a.add_ri(3, 8);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_tier(Tier::kBlocks);
    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);
    // The data page is 0x1000 bytes: iteration 513 reads kData+0x1000.
    EXPECT_EQ(e1.kind, ExitKind::kFault);
    EXPECT_EQ(e1.fault, FaultKind::kPageFault);
    EXPECT_EQ(e1.fault_addr, kData + 0x1000);
    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(e1.fault, e2.fault);
    EXPECT_EQ(e1.rip, e2.rip);
    EXPECT_EQ(e1.fault_addr, e2.fault_addr);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
    for (int r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(on.cpu.reg(r), off.cpu.reg(r)) << "reg " << r;
    }
    EXPECT_GE(on.cpu.superblock_promotions(), 1u);
}

TEST_F(Superblock, MidSegmentExitsChargeExactly)
{
    // Trace segments are charged whole at their head, so each exit
    // below sits mid-segment in a promoted loop trace: after four
    // charged uops and a rdcycle, and (but for the terminal hlt) in
    // front of more uops of the same segment. The forward jcc leaves
    // the trace on every pass but r2 == 5, long after promotion, so
    // the exit runs inside the trace and must give back exactly the
    // part of the segment that did not run.
    constexpr uint64_t kReadOnly = kData + 0x1000;
    // Past the program, on the code page the trace was decoded from:
    // a store there moves the code generation (store_left).
    constexpr uint64_t kCodeSpare = kCode + 0xff8;
    struct Case {
        const char *name;
        void (*exit_instr)(isa::Assembler &);
        ExitKind kind;
        FaultKind fault;
    };
    const Case cases[] = {
        {"privileged", [](isa::Assembler &a) { a.hlt(); },
         ExitKind::kPrivileged, FaultKind::kNone},
        {"divide by zero", [](isa::Assembler &a) { a.div_rr(4, 7); },
         ExitKind::kFault, FaultKind::kDivide},
        {"read-only store",
         [](isa::Assembler &a) { a.store(mem_abs(kReadOnly), 2); },
         ExitKind::kFault, FaultKind::kPermFault},
        {"smc store",
         [](isa::Assembler &a) { a.store(mem_abs(kCodeSpare), 2); },
         ExitKind::kLtrap, FaultKind::kNone},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto program = [&c](isa::Assembler &a) {
            a.mov_ri(2, 30);
            a.mov_ri(3, static_cast<int64_t>(kData));
            a.mov_ri(7, 0);
            a.bind("loop");
            a.store(mem_bd(3, 0), 2);
            a.load(4, mem_bd(3, 8));
            a.push(2);
            a.pop(6);
            a.rdcycle(5);
            a.cmp_ri(2, 5);
            a.jcc(Cond::kNe, "skip");
            c.exit_instr(a);
            a.store(mem_bd(3, 16), 2);
            a.load(4, mem_bd(3, 24));
            a.bind("skip");
            a.sub_ri(2, 1);
            a.cmp_ri(2, 0);
            a.jcc(Cond::kNe, "loop");
            a.ltrap();
        };
        VmHarness on;
        VmHarness off;
        off.cpu.set_tier(Tier::kBlocks);
        CpuExit exits[2];
        VmHarness *runs[2] = {&on, &off};
        for (int k = 0; k < 2; ++k) {
            VmHarness &h = *runs[k];
            ASSERT_TRUE(h.space.protect(kCode, kPageSize, kPermRWX).ok());
            ASSERT_TRUE(h.space.map(kReadOnly, kPageSize, kPermR).ok());
            isa::Assembler a(kCode);
            program(a);
            exits[k] = h.run(a);
        }
        EXPECT_EQ(exits[0].kind, c.kind);
        EXPECT_EQ(exits[0].fault, c.fault);
        EXPECT_EQ(exits[0].kind, exits[1].kind);
        EXPECT_EQ(exits[0].fault, exits[1].fault);
        EXPECT_EQ(exits[0].rip, exits[1].rip);
        EXPECT_EQ(exits[0].fault_addr, exits[1].fault_addr);
        EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
        EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
        EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
        EXPECT_EQ(on.cpu.reg(5), off.cpu.reg(5)); // the rdcycle value
        EXPECT_EQ(on.cpu.reg(2), c.kind == ExitKind::kLtrap ? 0u : 5u);
        EXPECT_GE(on.cpu.superblock_promotions(), 1u);
        EXPECT_GT(on.cpu.superblock_exec_hits(), 0u);
        if (c.kind == ExitKind::kLtrap) {
            EXPECT_GE(on.cpu.superblock_invalidations(), 1u);
        }
    }
}

TEST_F(Superblock, StitchedCallRetTracesAreExact)
{
    // The hot loop calls a leaf function; the trace stitches through
    // the call and the guarded return. 100 round trips well past the
    // threshold must be bit-identical to tier 1.
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.call("fn");
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
        a.bind("fn");
        a.add_ri(1, 3);
        a.ret();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_tier(Tier::kBlocks);

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, ExitKind::kLtrap);
    EXPECT_EQ(e2.kind, ExitKind::kLtrap);
    EXPECT_EQ(on.cpu.reg(1), 300u);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.sp(), off.cpu.sp());
    EXPECT_GE(on.cpu.superblock_promotions(), 1u);
    EXPECT_GE(on.cpu.superblock_exec_hits(), 1u);
}

TEST_F(Superblock, OverlappingDecodesPromoteIndependently)
{
    // The two-entry-point scenario, hot enough that *both* views get
    // promoted. Traces are keyed by entry rip like blocks, so the
    // mov-view and the nop-view never clobber each other.
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0); // bytes 2..9 decode as eight nops when entered at +2
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);

    auto run_from = [&](uint64_t rip) {
        uint64_t before = h.cpu.instructions();
        h.cpu.set_rip(rip);
        EXPECT_EQ(h.cpu.run(100).kind, ExitKind::kLtrap);
        return h.cpu.instructions() - before;
    };
    for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(run_from(kCode), 2u) << "iteration " << i;
        ASSERT_EQ(run_from(kCode + 2), 9u) << "iteration " << i;
    }
    EXPECT_GE(h.cpu.superblock_promotions(), 2u);
    EXPECT_GE(h.cpu.superblock_count(), 2u);
    EXPECT_EQ(h.cpu.superblock_invalidations(), 0u);
}

TEST_F(Superblock, RwxDataStoresKeepCodeCachesAtEveryTier)
{
    // The EIP baseline's layout: data mapped RWX but never executed.
    // A hot loop storing into such a page must leave the code
    // generation alone, so no block or trace is ever rebuilt.
    for (Tier tier : {Tier::kDecode, Tier::kBlocks, Tier::kTraces}) {
        SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
        VmHarness h;
        ASSERT_TRUE(h.space.protect(kData, kPageSize, kPermRWX).ok());
        h.cpu.set_tier(tier);
        isa::Assembler a(kCode);
        a.mov_ri(1, 0);
        a.mov_ri(2, 200);
        a.bind("loop");
        a.store(mem_abs(kData), 2);
        a.store8(mem_abs(kData + 0x800), 2);
        a.load(3, mem_abs(kData));
        a.add_rr(1, 3);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
        Bytes code = a.finish();
        ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
                  AccessFault::kNone);
        const uint64_t gen = h.space.code_generation();
        h.cpu.set_rip(kCode);

        ASSERT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
        EXPECT_EQ(h.cpu.reg(1), 200u * 201 / 2);
        EXPECT_EQ(h.space.code_generation(), gen);
        EXPECT_EQ(h.cpu.block_cache_invalidations(), 0u);
        EXPECT_EQ(h.cpu.superblock_invalidations(), 0u);
        if (tier == Tier::kTraces) {
            EXPECT_GE(h.cpu.superblock_promotions(), 1u);
            EXPECT_GE(h.cpu.superblock_exec_hits(), 1u);
        }
    }
}

TEST_F(Superblock, JitRewriteRunsNewBytesAtEveryTier)
{
    // A guest JIT: a hot loop copies one of two stubs into an RWX
    // page, calls it, and switches stubs every iteration. Once the
    // page has supplied decoded bytes, every copy must invalidate the
    // stub decoded before it, so each call runs the bytes just
    // written.
    constexpr uint64_t kJit = 0x40000;
    auto stub = [](int64_t value) {
        isa::Assembler s(kJit);
        s.mov_ri(1, value);
        s.ret();
        Bytes bytes = s.finish();
        EXPECT_LE(bytes.size(), 16u);
        bytes.resize(16, 0);
        return bytes;
    };
    const Bytes stubs[2] = {stub(1), stub(2)};

    uint64_t cycles = 0, instructions = 0;
    for (Tier tier : {Tier::kDecode, Tier::kBlocks, Tier::kTraces}) {
        SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
        VmHarness h;
        ASSERT_TRUE(h.space.map(kJit, kPageSize, kPermRWX).ok());
        for (int k = 0; k < 2; ++k) {
            ASSERT_EQ(h.space.write_raw(kData + 0x100 * (k + 1),
                                        stubs[k].data(), 16),
                      AccessFault::kNone);
        }
        h.cpu.set_tier(tier);
        isa::Assembler a(kCode);
        a.mov_ri(2, 100);
        a.mov_ri(7, 0);
        a.mov_ri(11, static_cast<int64_t>(kJit));
        a.bind("loop");
        // r9 = the stub for this iteration: odd r2 takes stub 2.
        a.mov_rr(10, 2);
        a.and_ri(10, 1);
        a.shl_ri(10, 8);
        a.mov_ri(9, static_cast<int64_t>(kData + 0x100));
        a.add_rr(9, 10);
        a.load(10, mem_bd(9, 0));
        a.store(mem_bd(11, 0), 10);
        a.load(10, mem_bd(9, 8));
        a.store(mem_bd(11, 8), 10);
        a.call_reg(11);
        a.add_rr(7, 1);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();

        ASSERT_EQ(h.run(a).kind, ExitKind::kLtrap);
        EXPECT_EQ(h.cpu.reg(7), 50u * 1 + 50u * 2);
        if (tier == Tier::kDecode) {
            cycles = h.cpu.cycles();
            instructions = h.cpu.instructions();
        } else {
            EXPECT_GE(h.cpu.block_cache_invalidations(), 1u);
        }
        EXPECT_EQ(h.cpu.cycles(), cycles);
        EXPECT_EQ(h.cpu.instructions(), instructions);
    }
}

TEST_F(Superblock, RebuiltBlockDropsItsTrace)
{
    // A trace belongs to the block it was promoted from. After a
    // self-modifying store, the next lookup rebuilds the block and
    // the old trace goes with it: the count drops to zero and stays
    // there until the rebuilt block is hot enough to re-promote.
    size_t mov_len =
        encoded_len([](isa::Assembler &a) { a.mov_ri(1, 0); });
    isa::Assembler a(kCode);
    a.mov_ri(1, 0);
    a.mov_ri(3, static_cast<int64_t>(kCode + 2)); // mov r1's immediate
    a.mov_ri(5, 0);
    a.bind("loop");
    a.add_ri(1, 1);
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "loop");
    a.store8(mem_bd(3, 0), 5); // rewrites code: every block goes stale
    a.ltrap();
    VmHarness h;
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermRWX).ok());
    h.cpu.set_reg(2, 100);
    ASSERT_EQ(h.run(a).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 100u);
    ASSERT_GE(h.cpu.superblock_promotions(), 1u);
    ASSERT_GE(h.cpu.superblock_count(), 1u);

    // A few cold iterations rebuild the loop block without promoting.
    uint64_t loop = kCode + 3 * mov_len;
    h.cpu.set_reg(2, 3);
    h.cpu.set_rip(loop);
    ASSERT_EQ(h.cpu.run(1000).kind, ExitKind::kLtrap);
    EXPECT_GE(h.cpu.superblock_invalidations(), 1u);
    EXPECT_EQ(h.cpu.superblock_count(), 0u);

    // Hot again: the rebuilt block re-promotes.
    uint64_t promos = h.cpu.superblock_promotions();
    h.cpu.set_reg(2, 100);
    h.cpu.set_rip(loop);
    ASSERT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
    EXPECT_GT(h.cpu.superblock_promotions(), promos);
    EXPECT_GE(h.cpu.superblock_count(), 1u);
}

// ---- every uop body, one generated program ----------------------------

/** Emits one pure register-ALU op (no memory, flags or faults). */
using AluEmit = void (*)(isa::Assembler &, uint8_t rd, uint8_t rs,
                         int32_t imm);

/** Every pure register-ALU op, RI and RR forms. */
const AluEmit kAluOps[] = {
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) { a.mov_ri(d, i); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.mov_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) { a.add_ri(d, i); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.add_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) { a.sub_ri(d, i); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.sub_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) { a.mul_ri(d, i); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.mul_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) { a.and_ri(d, i); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.and_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) { a.or_ri(d, i); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.or_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) { a.xor_ri(d, i); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.xor_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) {
        a.shl_ri(d, static_cast<uint8_t>(i & 63));
    },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) {
        a.shr_ri(d, static_cast<uint8_t>(i & 63));
    },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t i) {
        a.sar_ri(d, static_cast<uint8_t>(i & 63));
    },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.shl_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.shr_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t s, int32_t) { a.sar_rr(d, s); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t) { a.neg(d); },
    [](isa::Assembler &a, uint8_t d, uint8_t, int32_t) { a.not_(d); },
};
constexpr size_t kNumAluOps = std::size(kAluOps);

/** Code reservation for the generated program (below kData). */
constexpr uint64_t kGenCodeSize = 0x8000;

/**
 * A seeded program whose hot outer loop reaches every uop body of the
 * trace tier: each pure register-ALU op alone, in runs of three, in
 * each position of a three-op inner loop body closed by a fused
 * compare + back edge, and right behind a load; division and
 * remainder; loads and stores at widths 8/4/1, plain, fused with a
 * bound check or a charge run, and feeding an ALU op, each with a
 * base+displacement, a SIB and a constant (absolute) operand, so both
 * the base+disp bodies and the generic-EA bodies of every memory group
 * run; base, SIB and rip-relative lea;
 * push/pop; register bound checks; stitched calls with guarded
 * returns, a call chain deeper than kMaxStitchDepth (kCallExit, and
 * kRetExit in traces entered mid-chain), an MMDSFI-style pop + jmp-reg
 * return, call-reg/call-mem/jmp-reg/jmp-mem exits; fused and plain
 * branches, both intra-trace and exiting.
 *
 * Fixed register roles: r0 inner-loop limit, r9 inner counter, r10
 * outer counter, r11 data base, r12 SIB index, r13 address temp. The
 * op generators draw registers from r1..r8 only.
 */
Bytes
uop_coverage_program(uint32_t seed)
{
    std::mt19937 rng(seed);
    isa::Assembler a(kCode);
    auto reg = [&] { return static_cast<uint8_t>(1 + rng() % 8); };
    auto imm = [&] { return static_cast<int32_t>(rng()); };
    auto alu = [&](size_t k) {
        kAluOps[k % kNumAluOps](a, reg(), reg(), imm());
    };
    // An 8-aligned offset into the low half of the data page (the
    // call-mem/jmp-mem slots live in the high half).
    auto data = [&] {
        return mem_bd(11, static_cast<int32_t>(rng() % 0x100) * 8);
    };
    // The same low half, addressed by EA mode: 0 base+disp, 1 SIB
    // (r11 + r12 << scale + disp), 2 a constant (absolute) address.
    auto operand = [&](int mode) {
        if (mode == 1) {
            return isa::mem_sib(11, 12, static_cast<uint8_t>(rng() % 4),
                                static_cast<int32_t>(rng() % 0xf0) * 8);
        }
        if (mode == 2) {
            return mem_abs(kData + (rng() % 0x100) * 8);
        }
        return data();
    };
    auto load_w = [&](int w, uint8_t r, isa::MemOperand m) {
        if (w == 0) a.load(r, m);
        if (w == 1) a.load32(r, m);
        if (w == 2) a.load8(r, m);
    };
    auto store_w = [&](int w, isa::MemOperand m, uint8_t r) {
        if (w == 0) a.store(m, r);
        if (w == 1) a.store32(m, r);
        if (w == 2) a.store8(m, r);
    };
    int labels = 0;
    auto fresh = [&] { return "l" + std::to_string(labels++); };

    a.mov_ri(0, 3);
    a.mov_ri(10, 40);
    a.mov_ri(11, static_cast<int64_t>(kData));
    a.mov_ri(12, 5);
    for (uint8_t r = 1; r <= 8; ++r) {
        a.mov_ri(r, imm());
    }
    a.bind("outer");

    // Each op alone, between a rdcycle or a test.
    for (size_t k = 0; k < kNumAluOps; ++k) {
        alu(k);
        if (k % 2 == 0) {
            a.rdcycle(reg());
        } else {
            a.test_rr(reg(), reg());
        }
    }
    // Runs of three: op k sits first, second and third in runs k,
    // k-1, k-2.
    for (size_t k = 0; k < kNumAluOps; ++k) {
        alu(k);
        alu(k + 1);
        alu(k + 2);
        a.test_rr(reg(), reg());
    }
    // Three-op bodies of a three-iteration inner loop closed by a
    // fused compare + back edge; the counter increment rotates
    // through the positions so op k again lands in all three.
    for (size_t k = 0; k < kNumAluOps; ++k) {
        for (size_t slot = 0; slot < 3; ++slot) {
            std::string loop = fresh();
            a.mov_ri(9, 0);
            a.bind(loop);
            for (size_t s = 0; s < 3; ++s) {
                if (s == slot) {
                    a.add_ri(9, 1);
                } else {
                    alu(k + s);
                }
            }
            if (k % 2 == 0) {
                a.cmp_ri(9, 3);
            } else {
                a.cmp_rr(9, 0);
            }
            a.jcc(Cond::kLt, loop);
        }
    }
    // Two- and one-op loop bodies before a fused compare + back edge,
    // and a plain (unfused) back edge behind test.
    {
        std::string two = fresh(), one = fresh(), plain = fresh();
        a.mov_ri(9, 0);
        a.bind(two);
        alu(rng());
        a.add_ri(9, 1);
        a.cmp_ri(9, 3);
        a.jcc(Cond::kLt, two);
        a.mov_ri(9, 0);
        a.bind(one);
        a.add_ri(9, 1);
        a.cmp_rr(9, 0);
        a.jcc(Cond::kLt, one);
        a.mov_ri(9, 3);
        a.bind(plain);
        a.sub_ri(9, 1);
        a.test_rr(9, 9);
        a.jcc(Cond::kNe, plain);
    }
    // A load (width cycling 8/4/1) feeding one lone op, then every
    // width once more with a SIB and a constant operand.
    for (size_t k = 0; k < kNumAluOps; ++k) {
        load_w(static_cast<int>(k % 3), reg(), data());
        alu(k);
        a.test_rr(reg(), reg());
    }
    for (int mode = 1; mode <= 2; ++mode) {
        for (int w = 0; w < 3; ++w) {
            load_w(w, reg(), operand(mode));
            alu(rng());
            a.test_rr(reg(), reg());
        }
    }
    // Loads and stores at every width and EA mode: plain, behind a
    // guard pair, a single lo or hi check, and a charge run (nop).
    for (int mode = 0; mode <= 2; ++mode) {
        for (int w = 0; w < 3; ++w) {
            load_w(w, reg(), operand(mode));
            a.rdcycle(reg());
            store_w(w, operand(mode), reg());
            a.rdcycle(reg());
            isa::MemOperand m = operand(mode);
            a.mem_guard(m);
            load_w(w, reg(), m);
            m = operand(mode);
            a.mem_guard(m);
            store_w(w, m, reg());
            m = operand(mode);
            a.bndcl_mem(isa::kBndData, m);
            load_w(w, reg(), m);
            m = operand(mode);
            a.bndcu_mem(isa::kBndData, m);
            store_w(w, m, reg());
            a.nop();
            load_w(w, reg(), operand(mode));
            a.nop();
            store_w(w, operand(mode), reg());
            a.rdcycle(reg());
        }
    }
    // A guard pair on an address no access follows stays its own uop.
    a.mem_guard(data());
    a.rdcycle(reg());
    // Division (divisor forced odd, never zero, then the wrapping
    // INT64_MIN / -1 case), lea forms, SIB access, stack traffic,
    // register bound checks.
    a.mov_rr(13, reg());
    a.or_ri(13, 1);
    a.div_rr(reg(), 13);
    a.mod_rr(reg(), 13);
    for (bool div : {true, false}) {
        uint8_t r = reg();
        a.mov_ri(13, -1);
        a.mov_ri(r, INT64_MIN);
        if (div) {
            a.div_rr(r, 13);
        } else {
            a.mod_rr(r, 13);
        }
    }
    a.lea(reg(), isa::mem_sib(11, 12, 3, 16));
    a.lea(reg(), mem_bd(11, 24));
    a.lea(reg(), mem_rip(64));
    a.load(reg(), isa::mem_sib(11, 12, 3, 8));
    a.store(isa::mem_sib(11, 12, 2, 64), reg());
    a.push(reg());
    a.push_imm(imm());
    a.pop(reg());
    a.pop(reg());
    a.bndcl_reg(isa::kBndData, reg());
    a.bndcu_reg(isa::kBndData, reg());
    a.bndcu_reg(isa::kBndData, reg());
    // Calls and indirect transfers.
    a.call("chain0");
    a.call("mmdsfi");
    a.call("mmdsfi_skip"); // returns past the nop: a mispredicted guard
    a.nop();
    a.mov_rl(13, "leaf_reg");
    a.call_reg(13);
    a.mov_rl(13, "leaf_mem");
    a.store(mem_bd(11, 0xf00), 13);
    a.call_mem(mem_bd(11, 0xf00));
    a.mov_rl(13, "after_jmp_reg");
    a.jmp_reg(13);
    a.bind("after_jmp_reg");
    a.mov_rl(13, "after_jmp_mem");
    a.store(mem_bd(11, 0xf08), 13);
    a.jmp_mem(mem_bd(11, 0xf08));
    a.bind("after_jmp_mem");
    // Forward branches leave the trace: fused and plain, the second
    // of two jccs reading the first one's deferred compare.
    {
        std::string skip1 = fresh(), skip2 = fresh(), skip3 = fresh();
        a.cmp_ri(reg(), 0);
        a.jcc(Cond::kGe, skip1);
        a.jcc(Cond::kEq, skip1);
        alu(rng());
        a.bind(skip1);
        a.cmp_rr(reg(), reg());
        a.jcc(Cond::kB, skip2);
        alu(rng());
        a.bind(skip2);
        a.test_rr(reg(), reg());
        a.jcc(Cond::kNe, skip3);
        alu(rng());
        a.bind(skip3);
    }
    // Compares on their own (no branch follows), and fused compare +
    // back edges behind a rdcycle; plain jccs behind them read the
    // deferred compare, on an exit and on a back edge.
    a.cmp_ri(reg(), imm());
    a.rdcycle(reg());
    a.cmp_rr(reg(), reg());
    a.rdcycle(reg());
    {
        std::string ri = fresh(), rr = fresh(), deferred = fresh(),
                    out = fresh();
        a.mov_ri(9, 0);
        a.bind(ri);
        a.add_ri(9, 1);
        a.rdcycle(reg());
        a.cmp_ri(9, 3);
        a.jcc(Cond::kLt, ri);
        a.jcc(Cond::kNe, out); // never taken: reads the deferred compare
        a.mov_ri(9, 0);
        a.bind(rr);
        a.add_ri(9, 1);
        a.rdcycle(reg());
        a.cmp_rr(9, 0);
        a.jcc(Cond::kLt, rr);
        a.mov_ri(9, 0);
        a.bind(deferred);
        a.add_ri(9, 1);
        a.rdcycle(reg());
        a.cmp_ri(9, 3);
        a.jcc(Cond::kGt, out); // never taken: fuses, defers the flags
        a.jcc(Cond::kLt, deferred);
        a.bind(out);
    }
    // Outer back edge through a plain jmp (kGoto).
    a.sub_ri(10, 1);
    a.cmp_ri(10, 0);
    a.jcc(Cond::kEq, "done");
    a.jmp("outer");
    a.bind("done");
    a.ltrap();

    // A direct-call chain one deeper than the stitch limit.
    for (int d = 0; d <= kMaxStitchDepth; ++d) {
        a.bind("chain" + std::to_string(d));
        alu(rng());
        if (d < kMaxStitchDepth) {
            a.call("chain" + std::to_string(d + 1));
        }
        a.ret();
    }
    a.bind("mmdsfi");
    alu(rng());
    a.pop(13);
    a.jmp_reg(13);
    a.bind("mmdsfi_skip");
    a.pop(13);
    a.add_ri(13, static_cast<int32_t>(
                     encoded_len([](isa::Assembler &b) { b.nop(); })));
    a.jmp_reg(13);
    a.bind("leaf_reg");
    alu(rng());
    a.ret();
    a.bind("leaf_mem");
    alu(rng());
    a.ret();
    return a.finish();
}

/** Everything architectural one run leaves behind. */
struct TierOutcome {
    CpuExit exit;
    CpuState state;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t memory_digest = 0;
    uint64_t sb_exec_hits = 0;
};

/**
 * Run `code` to its exit at `tier`: in one shot, or with `slice` > 0
 * in budget slices of that many instructions, checking that every run
 * but the last consumes exactly the slice and none overshoots it.
 */
TierOutcome
run_at_tier(const Bytes &code, Tier tier, uint64_t slice = 0)
{
    AddressSpace space;
    EXPECT_TRUE(space.map(kCode, kGenCodeSize, kPermRX).ok());
    EXPECT_TRUE(space.map(kData, 0x1000, kPermRW).ok());
    EXPECT_TRUE(space.map(kStackTop - 0x2000, 0x2000, kPermRW).ok());
    EXPECT_EQ(space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    Cpu cpu(space);
    cpu.set_tier(tier);
    cpu.set_sp(kStackTop - 8);
    cpu.set_rip(kCode);
    TierOutcome out;
    if (slice == 0) {
        out.exit = cpu.run(10'000'000);
    } else {
        for (;;) {
            uint64_t before = cpu.instructions();
            out.exit = cpu.run(slice);
            uint64_t used = cpu.instructions() - before;
            EXPECT_GE(used, 1u);
            EXPECT_LE(used, slice);
            if (out.exit.kind != ExitKind::kInstrBudget || used != slice) {
                break;
            }
        }
        EXPECT_NE(out.exit.kind, ExitKind::kInstrBudget);
    }
    out.state = cpu.state();
    out.cycles = cpu.cycles();
    out.instructions = cpu.instructions();
    out.sb_exec_hits = cpu.superblock_exec_hits();
    // FNV-1a over the data page and the stack.
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t base : {kData, kStackTop - 0x2000, kStackTop - 0x1000}) {
        std::array<uint8_t, 0x1000> page{};
        EXPECT_EQ(space.read_raw(base, page.data(), page.size()),
                  AccessFault::kNone);
        for (uint8_t byte : page) {
            h = (h ^ byte) * 0x100000001b3ull;
        }
    }
    out.memory_digest = h;
    return out;
}

/** Everything architectural of `got` equals `want`. */
void
expect_same_outcome(const TierOutcome &got, const TierOutcome &want)
{
    EXPECT_EQ(got.exit.kind, want.exit.kind);
    EXPECT_EQ(got.exit.rip, want.exit.rip);
    EXPECT_EQ(got.state.regs, want.state.regs);
    for (int b = 0; b < isa::kNumBndRegs; ++b) {
        EXPECT_EQ(got.state.bnds[b].lo, want.state.bnds[b].lo);
        EXPECT_EQ(got.state.bnds[b].hi, want.state.bnds[b].hi);
    }
    EXPECT_EQ(got.state.flags.zf, want.state.flags.zf);
    EXPECT_EQ(got.state.flags.sf, want.state.flags.sf);
    EXPECT_EQ(got.state.flags.cf, want.state.flags.cf);
    EXPECT_EQ(got.state.flags.of, want.state.flags.of);
    EXPECT_EQ(got.state.rip, want.state.rip);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.memory_digest, want.memory_digest);
}

TEST_F(Superblock, BudgetSlicesNeverOvershootAndMatchOneShot)
{
    // AEX/quantum slicing: running a hot program in budget slices of
    // every size from 1 to 24 must consume exactly the slice per run
    // (the last run at most the slice, never nothing) and land on the
    // state of a one-shot run, at tier 1 and at the trace tier. The
    // trace checks the budget per segment, so a slice that cannot
    // cover the next segment leaves at its head and tier 1 finishes
    // the tail.
    auto short_loop = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.add_ri(1, 3);
        a.store(mem_abs(kData), 1);
        a.load(3, mem_abs(kData));
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    // A 4-instruction inner loop, then a 60-instruction straight run
    // of guarded stores and loads before the outer back edge: traces
    // enter on the short segment and stop at the head of the long
    // one, which is longer than any slice.
    auto long_segment = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 20);
        a.mov_ri(3, static_cast<int64_t>(kData));
        a.bind("outer");
        a.mov_ri(6, 3);
        a.bind("inner");
        a.add_ri(1, 1);
        a.sub_ri(6, 1);
        a.cmp_ri(6, 0);
        a.jcc(Cond::kNe, "inner");
        for (int k = 0; k < 12; ++k) {
            a.mem_guard(mem_bd(3, 8 * k));
            a.store(mem_bd(3, 8 * k), 1);
            a.load(4, mem_bd(3, 8 * k));
            a.add_rr(5, 4);
        }
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "outer");
        a.ltrap();
    };
    // A loop closed by an unconditional jmp: its back edge is a kGoto,
    // and the loop leaves through a forward exit at the top.
    auto jmp_loop = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 50);
        a.bind("top");
        a.cmp_ri(2, 0);
        a.jcc(Cond::kEq, "done");
        a.add_ri(1, 5);
        a.store(mem_abs(kData), 1);
        a.load(3, mem_abs(kData));
        a.sub_ri(2, 1);
        a.jmp("top");
        a.bind("done");
        a.ltrap();
    };
    for (auto program : {+short_loop, +long_segment, +jmp_loop}) {
        VmHarness reference;
        reference.cpu.set_tier(Tier::kBlocks);
        isa::Assembler a0(kCode);
        program(a0);
        ASSERT_EQ(reference.run(a0).kind, ExitKind::kLtrap);
        for (Tier tier : {Tier::kBlocks, Tier::kTraces}) {
            for (uint64_t slice = 0; slice <= 24; ++slice) {
                // slice 0 stands for one shot; 1..24 are the slices.
                SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)) +
                             " slice " + std::to_string(slice));
                VmHarness h;
                h.cpu.set_tier(tier);
                isa::Assembler a(kCode);
                program(a);
                const uint64_t budget = slice == 0 ? 1'000'000 : slice;
                CpuExit exit = h.run(a, budget);
                uint64_t used = h.cpu.instructions();
                for (;;) {
                    ASSERT_GE(used, 1u);
                    if (exit.kind != ExitKind::kInstrBudget) {
                        ASSERT_LE(used, budget);
                        break;
                    }
                    ASSERT_EQ(used, budget);
                    uint64_t before = h.cpu.instructions();
                    exit = h.cpu.run(budget);
                    used = h.cpu.instructions() - before;
                }
                EXPECT_EQ(exit.kind, ExitKind::kLtrap);
                EXPECT_EQ(h.cpu.cycles(), reference.cpu.cycles());
                EXPECT_EQ(h.cpu.instructions(),
                          reference.cpu.instructions());
                EXPECT_EQ(h.cpu.rip(), reference.cpu.rip());
                for (int r = 0; r < isa::kNumRegs; ++r) {
                    EXPECT_EQ(h.cpu.reg(r), reference.cpu.reg(r))
                        << "reg " << r;
                }
                if (tier == Tier::kTraces && (slice == 0 || slice == 24)) {
                    EXPECT_GT(h.cpu.superblock_exec_hits(), 0u);
                }
            }
        }
    }
    // The generated program reaches every uop body, so in slices at
    // the trace tier every segment head meets a budget stop and every
    // mid-segment exit gives back inside a sliced run.
    for (uint32_t seed : {1u, 20261016u}) {
        SCOPED_TRACE("generated program, seed " + std::to_string(seed));
        Bytes code = uop_coverage_program(seed);
        TierOutcome want = run_at_tier(code, Tier::kDecode);
        ASSERT_EQ(want.exit.kind, ExitKind::kLtrap);
        for (uint64_t slice : {1u, 2u, 3u, 7u}) {
            SCOPED_TRACE("slice " + std::to_string(slice));
            TierOutcome got = run_at_tier(code, Tier::kTraces, slice);
            expect_same_outcome(got, want);
            if (slice == 7) {
                EXPECT_GT(got.sb_exec_hits, 0u);
            }
        }
    }
}


TEST_F(Superblock, GeneratedProgramRunsEveryUopBodyAlikeInEveryTier)
{
    for (uint32_t seed : {1u, 2u, 20261016u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Bytes code = uop_coverage_program(seed);
        ASSERT_LE(code.size(), kGenCodeSize);
        TierOutcome decode = run_at_tier(code, Tier::kDecode);
        ASSERT_EQ(decode.exit.kind, ExitKind::kLtrap);
        for (Tier tier : {Tier::kBlocks, Tier::kTraces}) {
            TierOutcome got = run_at_tier(code, tier);
            expect_same_outcome(got, decode);
            if (tier == Tier::kTraces) {
                EXPECT_GT(got.sb_exec_hits, 0u);
            }
        }
    }
}

} // namespace
} // namespace occlum::vm
