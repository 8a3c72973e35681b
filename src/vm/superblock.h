/**
 * @file
 * The superblock tier: hot basic blocks are stitched into traces of
 * pre-resolved micro-ops ("uops") and replayed by a straight-line
 * dispatch loop (see Cpu::exec_superblock in superblock.cc).
 *
 * A superblock is a single-entry, multiple-exit trace built by
 * following the static control flow from a hot block's entry rip:
 * direct jumps are collapsed, direct calls are stitched through into
 * the callee (the pushed return address is a translation-time
 * constant), and returns — both plain `ret` and MMDSFI's
 * `pop r14; cfi_guard; jmp *r14` rewrite — continue at the statically
 * paired return site behind a guard that exits the trace if the
 * runtime target disagrees. Conditional branches whose taken target
 * is already in the trace become intra-trace jumps (loop back edges);
 * all other branch directions become guarded exits. Exits are always
 * safe: a mispredicted guard leaves the trace with the correct rip
 * and tier 1 resumes there.
 *
 * Translation follows the translate-then-optimize pipeline: the trace
 * is first lowered 1:1 into uops with operands bound (register slots,
 * immediates, rip-relative addresses folded to constants), then a
 * series of peephole passes runs over the linear buffer —
 * bndcl/bndcu pairs fused, compare+branch fused, nop/label/
 * collapsed-jump runs merged, and a bound check fused into the access
 * it guards — before dead uops are compacted out and intra-trace
 * targets relocated. The passes fuse checks but never drop one:
 * redundant checks are removed by the toolchain before the binary is
 * verified, the one place that policy lives.
 *
 * Cycle accounting is bit-identical to the other tiers, but it is
 * charged per budget segment, not per uop. A segment runs from a
 * segment head (trace entry, either successor of an intra-trace
 * branch, a link into another trace) through the next intra-trace
 * branch. At the head the replay loop checks the instruction budget
 * against `seg_instrs` and charges `seg_cost` cycles and `seg_instrs`
 * instructions at once, so straight-line uop bodies charge nothing.
 * Every uop that leaves the trace before its segment ends — a fault,
 * a guard or branch exit, a store that moved the code generation,
 * ltrap or a privileged instruction — gives back what did not run:
 * the uops after it, and the part of its own group past the fault
 * point. A fused uop that faults in its first component keeps only
 * that component (`cost_head`); `rdcycle` reads the counter minus the
 * rest of its segment.
 */
#ifndef OCCLUM_VM_SUPERBLOCK_H
#define OCCLUM_VM_SUPERBLOCK_H

#include <cstdint>
#include <functional>
#include <vector>

#include "isa/isa.h"

namespace occlum::vm {

/** Execution-count threshold at which a block is promoted to tier 2. */
constexpr uint32_t kPromoteThreshold = 12;
/** Longest trace kept in one superblock, in original instructions.
 *  Bounds both uop indices (`Uop::target`) and segment counts
 *  (`Uop::seg_instrs`), so both fit 16 bits. */
constexpr size_t kMaxTraceInstrs = 512;
static_assert(kMaxTraceInstrs < 0x7fff);
/** Deepest direct-call nesting stitched through. */
constexpr int kMaxStitchDepth = 8;

/** Pre-resolved micro-op kinds. */
enum class UopKind : uint8_t {
    kDead,    // translation-time tombstone (never installed)
    kCharge,  // charge cycles/instructions only (nops, labels,
              // collapsed jumps)

    kMovRI, kMovRR,
    kAddRI, kAddRR, kSubRI, kSubRR, kMulRI, kMulRR,
    kDivRR, kModRR,
    kAndRI, kAndRR, kOrRI, kOrRR, kXorRI, kXorRR,
    kShlRI, kShrRI, kSarRI, kShlRR, kShrRR, kSarRR,
    kNeg, kNot,
    kCmpRI, kCmpRR, kTestRR,
    kLea, kRdcycle,

    kLoad, kStore,           // width in `size`; EA pre-resolved
    kPush, kPushImm, kPop,

    kBndChkMem, kBndChkReg,  // `mask` selects lo/hi; both = fused pair

    kGoto,                   // unconditional intra-trace jump
    kJccGoto,                // conditional intra-trace jump (back edge)
    kJccExit,                // conditional: taken leaves the trace
    kCmpRIJccGoto, kCmpRRJccGoto,  // fused compare + branch
    kCmpRIJccExit, kCmpRRJccExit,

    kCall,                   // stitched direct call: push const, fall through
    kCallExit,               // direct call out of trace: push const, exit
    kCallRegExit, kCallMemExit,
    kJmpRegGuard,            // MMDSFI return: continue if reg == expected
    kRetGuard,               // plain return: continue if [sp] == expected
    kRetExit, kJmpRegExit, kJmpMemExit,
    kExitTo,                 // leave the trace at a constant rip

    kLtrap, kPriv,           // terminal: fill CpuExit

    kLoadChk, kStoreChk,     // bound check(s) + access, one EA, one uop
};

/** Number of UopKind values (size of the dispatch table). */
constexpr size_t kNumUopKinds = static_cast<size_t>(UopKind::kStoreChk) + 1;

/** Pre-resolved effective-address modes (rip-rel/abs fold to kEaConst). */
enum : uint8_t { kEaConst = 0, kEaBaseDisp = 1, kEaSib = 2 };

/**
 * One micro-op. Operands are bound at translation time.
 *
 * kLoadChk/kStoreChk fuse a kBndChkMem on the access operand into the
 * access itself: the EA is computed once and the group dispatches
 * once. `mask` keeps the check selector, `bnd` the bound register,
 * `cost_head` the lo-check cost, `target` the cost of the whole check
 * portion (charged when the hi check fails), and the three fault rips
 * are `address` (lo), `address2` (hi), `exit_rip` (the access).
 */
struct Uop {
    UopKind kind = UopKind::kCharge;
    uint8_t reg1 = 0;      // destination / first register slot
    uint8_t reg2 = 0;      // source / second register slot
    uint8_t base = 0;      // EA base register
    uint8_t index = 0;     // EA index register
    uint8_t scale = 0;     // EA scale (log2)
    uint8_t ea = kEaConst; // EA mode
    uint8_t bnd = 0;       // bound-register slot
    uint8_t mask = 0;      // bound-check mask: 1 = lo, 2 = hi
    uint8_t size = 0;      // memory access width (1/4/8)
    uint8_t n_instrs = 1;  // original instructions covered
    isa::Cond cond = isa::Cond::kEq;
    uint32_t cost = 1;      // total cycles for the covered instructions
    uint32_t cost_head = 0; // cycles of the first component of a fused pair
    int16_t target = -1;    // intra-trace uop index (kGoto family)
    // Instructions from this uop through the next intra-trace branch
    // (or the trace's end), inclusive: the budget a segment entered
    // here needs, and what its head charges.
    uint16_t seg_instrs = 0;
    // Cycles over the same span: what a segment head charges. A uop
    // that leaves mid-segment subtracts the part of this that did not
    // run (see the file comment).
    uint32_t seg_cost = 0;
    int64_t imm = 0;        // ALU immediate / pushed value / ret pop bytes
    int64_t disp = 0;       // EA displacement, or the constant EA itself
    uint64_t exit_rip = 0;  // exit target / expected indirect target
    uint64_t address = 0;   // first covered instruction (fault rip)
    uint64_t address2 = 0;  // second fused component (fault rip)
    uint64_t next_rip = 0;  // rip after the covered instructions
    // Direct-threading slot: the dispatch label for `kind`, bound at
    // install time so the hot loop loads one pointer instead of the
    // dependent kind-then-table pair. Memory uops bind a body cloned
    // per access width, and a base+displacement operand binds a clone
    // that adds `disp` to `regs[base]` instead of switching on `ea`.
    const void *handler = nullptr;
};
static_assert(sizeof(Uop) <= 88, "keep the uop within 88 bytes");

/** True for the uops that branch within the trace; each one ends a
 *  budget segment. */
inline bool
is_intra_trace_branch(UopKind kind)
{
    return kind == UopKind::kGoto || kind == UopKind::kJccGoto ||
           kind == UopKind::kCmpRIJccGoto || kind == UopKind::kCmpRRJccGoto;
}

/** An installed trace, owned by the block it was promoted from. */
struct Superblock {
    std::vector<Uop> uops; // uops[0].seg_instrs: the budget to enter
    uint32_t guards_folded = 0;  // bound checks fused into a pair or an access
};

/** Decode callback: fills `out` at `rip`, false on fetch/decode fault. */
using SbDecodeFn = std::function<bool(uint64_t rip, isa::Instruction *out)>;

/**
 * Build a superblock starting at `entry_rip`. Returns false when no
 * useful trace exists (the entry instruction does not decode). The
 * translator never executes anything and never touches simulated
 * time; it is pure wall-clock work.
 */
bool translate_superblock(const SbDecodeFn &decode, uint64_t entry_rip,
                          Superblock *out);

// ---- peephole passes (superblock_peephole.cc) ---------------------------
// All passes operate on the linear uop buffer between lowering and
// compaction. `is_target[i]` marks uops that are intra-trace jump
// targets; a pass must never merge a target into its predecessor
// (control may enter there from a back edge).
namespace peephole {

/** Fuse adjacent bndcl+bndcu on the same operand into one uop. */
void fuse_bound_pairs(std::vector<Uop> &uops,
                      const std::vector<uint8_t> &is_target,
                      uint32_t *folded);

/**
 * Fuse a kBndChkMem (single or fused pair) into an immediately
 * following kLoad/kStore on the *same* pre-resolved EA, producing
 * kLoadChk/kStoreChk. Adjacency guarantees the operand registers
 * cannot change between check and access, so one EA computation and
 * one dispatch serve the whole guarded access. Fault points and
 * cycle charges stay exactly tiered: lo-check fail charges
 * `cost_head`, hi-check fail charges the check portion (`target`),
 * an access fault charges the full group. A plain kCharge run in
 * front of an access (nops, labels) fuses the same way with
 * `mask` 0 — charge-then-access, no checks. Runs after
 * collapse_charge_runs so a collapsed run is absorbed whole.
 */
void fuse_bound_accesses(std::vector<Uop> &uops,
                         const std::vector<uint8_t> &is_target,
                         uint32_t *folded);

/** Fuse cmp reg,imm / cmp reg,reg followed by a conditional branch. */
void fuse_compare_branches(std::vector<Uop> &uops,
                           const std::vector<uint8_t> &is_target);

/** Merge runs of adjacent kCharge uops (nops, labels, collapsed jumps). */
void collapse_charge_runs(std::vector<Uop> &uops,
                          const std::vector<uint8_t> &is_target);

/** Drop kDead uops and relocate intra-trace targets. */
void compact(std::vector<Uop> &uops);

} // namespace peephole

} // namespace occlum::vm

#endif // OCCLUM_VM_SUPERBLOCK_H
