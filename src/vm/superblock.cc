/**
 * @file
 * Superblock translation (trace stitching + micro-op lowering) and
 * the tier-2 execution loop (Cpu::exec_superblock / promote).
 *
 * The stitcher follows static control flow from the hot entry:
 * collapsed direct jumps, stitched direct calls with a static return
 * stack, guarded returns (plain `ret` and the MMDSFI `jmp *reg`
 * rewrite), intra-trace conditional back edges. Everything it cannot
 * prove becomes a guarded exit carrying the exact architectural rip,
 * so a mispredicted trace is merely slow, never wrong.
 */
#include "vm/superblock.h"

#include <cstring>

#include "base/log.h"
#include "vm/cpu.h"

namespace occlum::vm {

using isa::Instruction;
using isa::Opcode;

namespace {

/**
 * Dispatch-label table published by the first (probe) call into
 * exec_superblock. Label addresses are per-function constants, so one
 * table serves every Cpu instance.
 */
const void *const *g_sb_label_table = nullptr;
/** Memory label slots per EA flavour: 4 groups x widths 8/4/1. */
constexpr size_t kMemSlots = 12;

/**
 * Evaluate `cond` of a compare of (a, b) directly from the operands.
 * Exactly equivalent to eval_cond() over set_cmp_flags(a, b) by the
 * x86 flag identities (sf != of <=> signed a < b, cf <=> unsigned
 * a < b, zf <=> a == b); fused compare-branches use this so the
 * branch decision does not round-trip through the flags store.
 */
inline bool
cond_holds(isa::Cond cond, uint64_t a, uint64_t b)
{
    int64_t sa = static_cast<int64_t>(a);
    int64_t sb = static_cast<int64_t>(b);
    switch (cond) {
      case isa::Cond::kEq: return a == b;
      case isa::Cond::kNe: return a != b;
      case isa::Cond::kLt: return sa < sb;
      case isa::Cond::kLe: return sa <= sb;
      case isa::Cond::kGt: return sa > sb;
      case isa::Cond::kGe: return sa >= sb;
      case isa::Cond::kB: return a < b;
      case isa::Cond::kBe: return a <= b;
      case isa::Cond::kA: return a > b;
      case isa::Cond::kAe: return a >= b;
    }
    OCC_PANIC("bad cond");
}

FaultKind
sb_fault_kind(AccessFault fault)
{
    switch (fault) {
      case AccessFault::kUnmapped: return FaultKind::kPageFault;
      case AccessFault::kNoRead:
      case AccessFault::kNoWrite:
      case AccessFault::kNoExec: return FaultKind::kPermFault;
      case AccessFault::kNone: return FaultKind::kNone;
    }
    return FaultKind::kNone;
}

/** Bind a memory operand: rip-relative/absolute fold to a constant. */
void
bind_ea(Uop *u, const isa::MemOperand &mem, uint64_t instr_end)
{
    switch (mem.mode) {
      case isa::AddrMode::kBaseDisp:
        u->ea = kEaBaseDisp;
        u->base = mem.base;
        u->disp = static_cast<int64_t>(mem.disp);
        break;
      case isa::AddrMode::kSib:
        u->ea = kEaSib;
        u->base = mem.base;
        u->index = mem.index;
        u->scale = mem.scale_log2;
        u->disp = static_cast<int64_t>(mem.disp);
        break;
      case isa::AddrMode::kRipRel:
        u->ea = kEaConst;
        u->disp =
            static_cast<int64_t>(instr_end + static_cast<int64_t>(mem.disp));
        break;
      case isa::AddrMode::kAbs:
        u->ea = kEaConst;
        u->disp = static_cast<int64_t>(mem.abs_addr);
        break;
    }
}

/**
 * rip -> uop index for the trace being built: open-addressed, linear
 * probing, epoch-stamped so reset() is O(1) instead of clearing the
 * arrays. Translation does one allocation-free O(1) probe per
 * instruction where a node-based unordered_map would malloc per
 * insert — the map was the single largest slice of promotion cost.
 * Capacity is 4x kMaxTraceInstrs, so the table never fills.
 */
class RipIndex
{
  public:
    void reset()
    {
        if (++epoch_ == 0) { // stamp wrapped: hard-clear once
            std::memset(stamps_, 0, sizeof(stamps_));
            epoch_ = 1;
        }
    }
    int32_t find(uint64_t rip) const
    {
        for (size_t s = slot(rip);; s = (s + 1) & (kSlots - 1)) {
            if (stamps_[s] != epoch_) {
                return -1;
            }
            if (rips_[s] == rip) {
                return index_[s];
            }
        }
    }
    void insert(uint64_t rip, int32_t index)
    {
        for (size_t s = slot(rip);; s = (s + 1) & (kSlots - 1)) {
            if (stamps_[s] != epoch_ || rips_[s] == rip) {
                stamps_[s] = epoch_;
                rips_[s] = rip;
                index_[s] = index;
                return;
            }
        }
    }

  private:
    static constexpr size_t kSlots = 2048;
    static_assert(kSlots >= 4 * kMaxTraceInstrs, "keep the table sparse");
    static size_t slot(uint64_t rip)
    {
        return (rip * 0x9e3779b97f4a7c15ull >> 32) & (kSlots - 1);
    }
    uint32_t epoch_ = 0;
    uint32_t stamps_[kSlots] = {};
    uint64_t rips_[kSlots] = {};
    int32_t index_[kSlots] = {};
};

} // namespace

bool
translate_superblock(const SbDecodeFn &decode, uint64_t entry_rip,
                     Superblock *out)
{
    std::vector<Uop> uops;
    uops.reserve(32);
    // Instruction rip -> uop index, for intra-trace branch targets and
    // the merge check (control re-entering already-stitched code).
    static thread_local RipIndex index_at;
    index_at.reset();
    // Static return stack: pushed at stitched direct calls, consumed
    // by ret / jmp-reg guards so returns continue at the call site.
    std::vector<uint64_t> ret_stack;

    uint64_t pc = entry_rip;
    size_t instr_count = 0;
    bool done = false;

    auto exit_to = [&](uint64_t rip) {
        Uop u;
        u.kind = UopKind::kExitTo;
        u.exit_rip = rip;
        u.n_instrs = 0;
        u.cost = 0;
        u.address = rip;
        u.next_rip = rip;
        uops.push_back(u);
    };

    while (!done) {
        int32_t seen = index_at.find(pc);
        if (seen >= 0) {
            // Control flowed back into already-stitched code: close
            // the trace with an intra-trace jump (zero instructions —
            // no original instruction corresponds to this uop).
            Uop u;
            u.kind = UopKind::kGoto;
            u.target = seen;
            u.n_instrs = 0;
            u.cost = 0;
            u.address = pc;
            u.next_rip = pc;
            uops.push_back(u);
            break;
        }
        if (instr_count >= kMaxTraceInstrs) {
            exit_to(pc);
            break;
        }
        Instruction in;
        if (!decode(pc, &in)) {
            // Undecodable ahead of execution: if control really gets
            // here, tier 1 raises the architectural fault.
            exit_to(pc);
            break;
        }
        index_at.insert(pc, static_cast<int32_t>(uops.size()));
        ++instr_count;

        Uop u;
        u.address = in.address;
        u.address2 = in.address;
        u.next_rip = in.end();
        u.cost = in.cost;
        u.n_instrs = 1;
        uint64_t next_pc = in.end();

        switch (in.op) {
          case Opcode::kNop:
          case Opcode::kCfiLabel:
            u.kind = UopKind::kCharge;
            break;

          case Opcode::kHlt:
          case Opcode::kEexit:
          case Opcode::kEaccept:
          case Opcode::kXrstor:
          case Opcode::kWrfsbase:
          case Opcode::kBndmk:
          case Opcode::kBndmov:
            u.kind = UopKind::kPriv;
            u.imm = static_cast<int64_t>(in.op);
            done = true;
            break;

          case Opcode::kLtrap:
            u.kind = UopKind::kLtrap;
            done = true;
            break;

          case Opcode::kRdcycle:
            u.kind = UopKind::kRdcycle;
            u.reg1 = in.reg1;
            break;

          case Opcode::kMovRI:
            u.kind = UopKind::kMovRI;
            u.reg1 = in.reg1;
            u.imm = in.imm;
            break;
          case Opcode::kMovRR:
            u.kind = UopKind::kMovRR;
            u.reg1 = in.reg1;
            u.reg2 = in.reg2;
            break;

          case Opcode::kLoad:
          case Opcode::kLoad8:
          case Opcode::kLoad32:
          case Opcode::kVGather: // executes as a plain 64-bit load
            u.kind = UopKind::kLoad;
            u.reg1 = in.reg1;
            u.size = in.op == Opcode::kLoad8 ? 1
                   : in.op == Opcode::kLoad32 ? 4 : 8;
            bind_ea(&u, in.mem, in.end());
            break;
          case Opcode::kStore:
          case Opcode::kStore8:
          case Opcode::kStore32:
            u.kind = UopKind::kStore;
            u.reg1 = in.reg1;
            u.size = in.op == Opcode::kStore8 ? 1
                   : in.op == Opcode::kStore32 ? 4 : 8;
            bind_ea(&u, in.mem, in.end());
            break;
          case Opcode::kLea:
            u.kind = UopKind::kLea;
            u.reg1 = in.reg1;
            bind_ea(&u, in.mem, in.end());
            if (u.ea == kEaConst) {
                // A rip-relative/absolute lea folds to a constant at
                // translation time, so it is just a register move.
                u.kind = UopKind::kMovRI;
                u.imm = u.disp;
            }
            break;

          case Opcode::kAddRR: u.kind = UopKind::kAddRR; goto rr;
          case Opcode::kSubRR: u.kind = UopKind::kSubRR; goto rr;
          case Opcode::kMulRR: u.kind = UopKind::kMulRR; goto rr;
          case Opcode::kDivRR: u.kind = UopKind::kDivRR; goto rr;
          case Opcode::kModRR: u.kind = UopKind::kModRR; goto rr;
          case Opcode::kAndRR: u.kind = UopKind::kAndRR; goto rr;
          case Opcode::kOrRR:  u.kind = UopKind::kOrRR;  goto rr;
          case Opcode::kXorRR: u.kind = UopKind::kXorRR; goto rr;
          case Opcode::kShlRR: u.kind = UopKind::kShlRR; goto rr;
          case Opcode::kShrRR: u.kind = UopKind::kShrRR; goto rr;
          case Opcode::kSarRR: u.kind = UopKind::kSarRR; goto rr;
          case Opcode::kCmpRR: u.kind = UopKind::kCmpRR; goto rr;
          case Opcode::kTestRR: u.kind = UopKind::kTestRR; goto rr;
          rr:
            u.reg1 = in.reg1;
            u.reg2 = in.reg2;
            break;

          case Opcode::kAddRI: u.kind = UopKind::kAddRI; goto ri;
          case Opcode::kSubRI: u.kind = UopKind::kSubRI; goto ri;
          case Opcode::kMulRI: u.kind = UopKind::kMulRI; goto ri;
          case Opcode::kAndRI: u.kind = UopKind::kAndRI; goto ri;
          case Opcode::kOrRI:  u.kind = UopKind::kOrRI;  goto ri;
          case Opcode::kXorRI: u.kind = UopKind::kXorRI; goto ri;
          case Opcode::kShlRI: u.kind = UopKind::kShlRI; goto ri;
          case Opcode::kShrRI: u.kind = UopKind::kShrRI; goto ri;
          case Opcode::kSarRI: u.kind = UopKind::kSarRI; goto ri;
          case Opcode::kCmpRI: u.kind = UopKind::kCmpRI; goto ri;
          ri:
            u.reg1 = in.reg1;
            u.imm = in.imm;
            break;

          case Opcode::kNeg:
            u.kind = UopKind::kNeg;
            u.reg1 = in.reg1;
            break;
          case Opcode::kNot:
            u.kind = UopKind::kNot;
            u.reg1 = in.reg1;
            break;

          case Opcode::kJmp: {
            uint64_t target = in.direct_target();
            int32_t t = index_at.find(target);
            if (t >= 0) {
                u.kind = UopKind::kGoto; // back edge: trace is closed
                u.target = t;
                u.next_rip = target;
                done = true;
            } else {
                // Collapsed: charge the jump, keep stitching at the
                // target — the branch chain disappears from dispatch.
                u.kind = UopKind::kCharge;
                u.next_rip = target;
                next_pc = target;
            }
            break;
          }
          case Opcode::kJcc: {
            uint64_t taken = in.direct_target();
            u.cond = in.cond;
            int32_t t = index_at.find(taken);
            if (t >= 0) {
                u.kind = UopKind::kJccGoto; // loop back edge
                u.target = t;
            } else {
                u.kind = UopKind::kJccExit;
                u.exit_rip = taken;
            }
            break; // fall-through path continues the trace
          }
          case Opcode::kCall: {
            uint64_t target = in.direct_target();
            u.imm = static_cast<int64_t>(in.end()); // pushed return rip
            if (ret_stack.size() >=
                static_cast<size_t>(kMaxStitchDepth)) {
                u.kind = UopKind::kCallExit;
                u.exit_rip = target;
                done = true;
            } else {
                u.kind = UopKind::kCall;
                u.next_rip = target; // control continues in the callee
                ret_stack.push_back(in.end());
                next_pc = target;
            }
            break;
          }
          case Opcode::kCallReg:
            u.kind = UopKind::kCallRegExit;
            u.reg1 = in.reg1;
            u.imm = static_cast<int64_t>(in.end());
            done = true;
            break;
          case Opcode::kCallMem:
            u.kind = UopKind::kCallMemExit;
            u.imm = static_cast<int64_t>(in.end());
            bind_ea(&u, in.mem, in.end());
            done = true;
            break;
          case Opcode::kJmpReg:
            u.reg1 = in.reg1;
            if (!ret_stack.empty()) {
                // The MMDSFI return rewrite (`pop r; cfi_guard; jmp
                // *r`): predict the statically paired return site and
                // guard on it — a mismatch exits with the true rip.
                u.kind = UopKind::kJmpRegGuard;
                u.exit_rip = ret_stack.back();
                ret_stack.pop_back();
                next_pc = u.exit_rip;
            } else {
                u.kind = UopKind::kJmpRegExit;
                done = true;
            }
            break;
          case Opcode::kJmpMem:
            u.kind = UopKind::kJmpMemExit;
            bind_ea(&u, in.mem, in.end());
            done = true;
            break;
          case Opcode::kRet:
          case Opcode::kRetImm:
            u.imm = in.imm; // extra pop bytes (kRetImm)
            u.reg1 = 0;
            if (!ret_stack.empty()) {
                u.kind = UopKind::kRetGuard;
                u.exit_rip = ret_stack.back();
                ret_stack.pop_back();
                next_pc = u.exit_rip;
            } else {
                u.kind = UopKind::kRetExit;
                done = true;
            }
            break;

          case Opcode::kPush:
            u.kind = UopKind::kPush;
            u.reg1 = in.reg1;
            break;
          case Opcode::kPushImm:
            u.kind = UopKind::kPushImm;
            u.imm = in.imm;
            break;
          case Opcode::kPop:
            u.kind = UopKind::kPop;
            u.reg1 = in.reg1;
            break;

          case Opcode::kBndclMem:
          case Opcode::kBndcuMem:
            u.kind = UopKind::kBndChkMem;
            u.mask = in.op == Opcode::kBndclMem ? 1 : 2;
            u.bnd = in.bnd;
            bind_ea(&u, in.mem, in.end());
            break;
          case Opcode::kBndclReg:
          case Opcode::kBndcuReg:
            u.kind = UopKind::kBndChkReg;
            u.mask = in.op == Opcode::kBndclReg ? 1 : 2;
            u.bnd = in.bnd;
            u.reg1 = in.reg1;
            break;
        }

        uops.push_back(u);
        pc = next_pc;
    }

    if (uops.empty() || uops[0].kind == UopKind::kExitTo) {
        return false; // no useful trace at this entry
    }

    std::vector<uint8_t> is_target(uops.size(), 0);
    for (const Uop &u : uops) {
        if (u.target >= 0) {
            is_target[static_cast<size_t>(u.target)] = 1;
        }
    }

    uint32_t folded = 0;
    peephole::fuse_bound_pairs(uops, is_target, &folded);
    peephole::fuse_compare_branches(uops, is_target);
    peephole::collapse_charge_runs(uops, is_target);
    // After charge runs are merged, so a collapsed run in front of an
    // access is absorbed whole.
    peephole::fuse_bound_accesses(uops, is_target, &folded);
    peephole::compact(uops);

    // Budget segments: each uop learns the instruction count and the
    // cycles from it through the next intra-trace branch. The replay
    // loop checks the budget and charges both only where a segment
    // can begin (entry, after a branch, at a link), so everything
    // else dispatches unchecked and uncharged.
    uint32_t seg = 0;
    uint32_t seg_cost = 0;
    for (size_t k = uops.size(); k-- > 0;) {
        if (is_intra_trace_branch(uops[k].kind)) {
            seg = 0;
            seg_cost = 0;
        }
        seg += uops[k].n_instrs;
        seg_cost += uops[k].cost;
        uops[k].seg_instrs = static_cast<uint16_t>(seg);
        uops[k].seg_cost = seg_cost;
    }

    out->uops = std::move(uops);
    out->guards_folded = folded;
    return true;
}

std::unique_ptr<Superblock>
Cpu::promote_superblock(uint64_t entry_rip)
{
    auto sb = std::make_unique<Superblock>();
    // Serve decodes from predecoded tier-1 blocks when possible: the
    // trace mostly walks the promoted block itself (plus its
    // successors), all already decoded under the current generation.
    // Stale-generation blocks are skipped — their bytes may differ.
    const Block *src = nullptr;
    size_t cursor = 0;
    const uint64_t gen = cache_->code_generation();
    auto decode = [&, this](uint64_t rip, Instruction *instr) {
        if (src != nullptr) {
            const std::vector<Instruction> &ins = src->instrs;
            if (cursor < ins.size() && ins[cursor].address == rip) {
                *instr = ins[cursor++];
                return true;
            }
            for (size_t k = 0; k < ins.size(); ++k) {
                if (ins[k].address == rip) {
                    *instr = ins[k];
                    cursor = k + 1;
                    return true;
                }
            }
        }
        const Block *cached = block_cache_.find(rip);
        if (cached != nullptr && cached->generation == gen &&
            !cached->instrs.empty()) {
            src = cached;
            cursor = 1;
            *instr = src->instrs[0];
            return true;
        }
        return decode_at(rip, instr) == FaultKind::kNone;
    };
    if (!translate_superblock(decode, entry_rip, sb.get())) {
        return nullptr;
    }
    // Direct threading: bind each uop to its dispatch label. The
    // first promotion probes exec_superblock (exit == nullptr) to
    // publish the function-local label table.
    // (A function-local static: Cpus on several host threads may
    // promote their first traces at once.)
    static const bool probed = [&] {
        uint64_t none = 0;
        exec_superblock(*sb, 0, &none, nullptr);
        return true;
    }();
    (void)probed;
    for (Uop &u : sb->uops) {
        u.handler = g_sb_label_table[static_cast<size_t>(u.kind)];
        // Memory uops bind the width-constant body variant (the
        // extension slots past kNumUopKinds) so the hot loop never
        // branches on op->size, and a base+displacement operand the
        // clone that never branches on op->ea either.
        int group;
        switch (u.kind) {
          case UopKind::kLoad:     group = 0; break;
          case UopKind::kStore:    group = 1; break;
          case UopKind::kLoadChk:  group = 2; break;
          case UopKind::kStoreChk: group = 3; break;
          default:                 group = -1; break;
        }
        if (group >= 0) {
            size_t w = u.size == 8 ? 0 : u.size == 4 ? 1 : 2;
            size_t slot = (u.ea == kEaBaseDisp ? kMemSlots : 0) +
                          static_cast<size_t>(group) * 3 + w;
            u.handler = g_sb_label_table[kNumUopKinds + slot];
        }
    }
    ++dispatch_.sb_promotions;
    dispatch_.sb_guards_folded += sb->guards_folded;
    return sb;
}

/*
 * Dispatch strategy: with a single switch, every uop funnels through
 * one indirect branch whose target rotates with the kinds inside the
 * trace loop, so the predictor eats a mispredict per uop — which is
 * most of an interpreter's per-op cost. With the GNU labels-as-values
 * extension each op body ends in its *own* dispatch jump, and inside
 * a trace each of those sites has a stable successor, so the replayed
 * loop runs nearly branch-miss-free. The build requires GCC or Clang
 * (the extension, __restrict, and the unconditional -Wall -Wextra).
 */
#if !defined(__GNUC__) && !defined(__clang__)
#error "superblock replay needs GCC/Clang labels-as-values"
#endif
#define SB_OP(name) lbl_##name
/*
 * Budget and charge per segment: SB_NEXT steps the uop pointer and
 * dispatches unchecked and uncharged; SB_SEGMENT, at the uop `op`
 * already points to, checks the remaining budget against the uop's
 * whole segment, then charges the segment's cycles and instructions
 * in one go. Only a segment head dispatches through SB_SEGMENT —
 * trace entry, both successors of an intra-trace branch, and a link
 * into another trace — and a segment runs no further than its
 * closing branch, so no uop in between can overshoot, and every uop
 * that leaves earlier gives back the rest (SB_GIVE_BACK).
 */
#define SB_NEXT()                                                       \
    do {                                                                \
        ++op;                                                           \
        goto *op->handler;                                              \
    } while (0)
#define SB_SEGMENT()                                                    \
    do {                                                                \
        if (left < op->seg_instrs) {                                    \
            goto budget_stop;                                           \
        }                                                               \
        cycles += op->seg_cost;                                         \
        left -= op->seg_instrs;                                         \
        goto *op->handler;                                              \
    } while (0)

Cpu::SbResult
Cpu::exec_superblock(const Superblock &sb, uint64_t max_instructions,
                     uint64_t *executed_io, CpuExit *exit)
{
    // __restrict: uops/regs point into disjoint allocations (the
    // installed trace vs. this Cpu's register file), and installed
    // uops are immutable while executing — without the qualifier
    // every regs/flags/memory store forces the compiler to reload
    // op-> fields, which dominates the straight-line dispatch cost.
    // Not const: trace linking (link_or_leave below) swaps in the
    // uop buffer of a successor trace without leaving this frame.
    const Uop *__restrict uops = sb.uops.data();
    uint64_t *__restrict const regs = state_.regs.data();
    AccessCache &mem = *cache_;
    // Every trace run here, linked ones included, was valid under the
    // generation at entry; a store that moves it leaves the trace.
    const uint64_t gen = mem.code_generation();

    // Counters live in locals for the duration of the trace and are
    // flushed on every exit path; the deltas are exactly what the
    // per-instruction tiers would have produced. `left` counts the
    // budget down, so a segment head compares one register.
    uint64_t cycles = cycles_;
    const uint64_t budget = max_instructions - *executed_io;
    uint64_t left = budget;
    // Deferred compare: fused compare-branches park their operands in
    // locals instead of writing state_.flags inside the hot loop; any
    // trace exit (every path goes through SB_FLUSH) or unfused flag
    // reader materializes the architectural flags first, so exits are
    // bit-identical to the per-instruction tiers.
    uint64_t flag_a = 0, flag_b = 0;
    bool flags_deferred = false;

    // A macro, not a by-reference lambda: capturing the counters by
    // reference keeps them in stack slots, so every segment charge
    // became a load-add-store chain through memory.
#define SB_FLUSH()                                                      \
    do {                                                                \
        if (flags_deferred) {                                           \
            set_cmp_flags(flag_a, flag_b);                              \
        }                                                               \
        cycles_ = cycles;                                               \
        instructions_ += budget - left;                                 \
        *executed_io += budget - left;                                  \
    } while (0)
    auto do_fault = [&](FaultKind kind, uint64_t addr, uint64_t rip) {
        state_.rip = rip;
        exit->kind = ExitKind::kFault;
        exit->fault = kind;
        exit->fault_addr = addr;
        exit->rip = rip;
    };
    // Leaving mid-segment: the head charged every uop through the
    // segment's closing branch, so take back the uops after `op` and
    // all of op's own group but the COST cycles and INSTRS
    // instructions that ran (its full cost and n_instrs when it
    // completed, its partial tier when a fused component faulted).
#define SB_GIVE_BACK(COST, INSTRS)                                      \
    do {                                                                \
        cycles -= op->seg_cost - (COST);                                \
        left += op->seg_instrs - (INSTRS);                              \
    } while (0)
#define SB_FAULT(KIND, ADDR, RIP, COST, INSTRS)                         \
    do {                                                                \
        SB_GIVE_BACK(COST, INSTRS);                                     \
        do_fault(KIND, ADDR, RIP);                                      \
        SB_FLUSH();                                                     \
        return SbResult::kExit;                                         \
    } while (0)
    auto ea = [&regs](const Uop &op) -> uint64_t {
        switch (op.ea) {
          case kEaBaseDisp:
            return regs[op.base] + static_cast<uint64_t>(op.disp);
          case kEaSib:
            return regs[op.base] + (regs[op.index] << op.scale) +
                   static_cast<uint64_t>(op.disp);
          default:
            return static_cast<uint64_t>(op.disp);
        }
    };
    const Uop *__restrict op = uops;
    // One label per UopKind, in enum order (count asserted below;
    // every op body is reached by the full test battery, so an
    // ordering slip cannot survive a test run).
    static const void *const kLabels[] = {
        &&lbl_Dead, &&lbl_Charge,
        &&lbl_MovRI, &&lbl_MovRR,
        &&lbl_AddRI, &&lbl_AddRR, &&lbl_SubRI, &&lbl_SubRR,
        &&lbl_MulRI, &&lbl_MulRR, &&lbl_DivRR, &&lbl_ModRR,
        &&lbl_AndRI, &&lbl_AndRR, &&lbl_OrRI, &&lbl_OrRR,
        &&lbl_XorRI, &&lbl_XorRR,
        &&lbl_ShlRI, &&lbl_ShrRI, &&lbl_SarRI,
        &&lbl_ShlRR, &&lbl_ShrRR, &&lbl_SarRR,
        &&lbl_Neg, &&lbl_Not,
        &&lbl_CmpRI, &&lbl_CmpRR, &&lbl_TestRR,
        &&lbl_Lea, &&lbl_Rdcycle,
        &&lbl_Dead, &&lbl_Dead, // Load, Store
        &&lbl_Push, &&lbl_PushImm, &&lbl_Pop,
        &&lbl_BndChkMem, &&lbl_BndChkReg,
        &&lbl_Goto, &&lbl_JccGoto, &&lbl_JccExit,
        &&lbl_CmpRIJccGoto, &&lbl_CmpRRJccGoto,
        &&lbl_CmpRIJccExit, &&lbl_CmpRRJccExit,
        &&lbl_Call, &&lbl_CallExit, &&lbl_CallRegExit, &&lbl_CallMemExit,
        &&lbl_JmpRegGuard, &&lbl_RetGuard, &&lbl_RetExit,
        &&lbl_JmpRegExit, &&lbl_JmpMemExit, &&lbl_ExitTo,
        &&lbl_Ltrap, &&lbl_Priv,
        &&lbl_Dead, &&lbl_Dead, // LoadChk, StoreChk
        // Width-constant memory bodies, past the UopKind-indexed
        // range. promote_superblock rebinds every memory uop (kLoad,
        // kStore and the two above, whose kind-indexed slots panic)
        // to the variant matching its install-time width and EA mode.
        // Order: generic EA (SIB, constant) then base+displacement;
        // within each, group-major (Load, Store, LoadChk, StoreChk),
        // width 8/4/1.
        &&lbl_Load8, &&lbl_Load4, &&lbl_Load1,
        &&lbl_Store8, &&lbl_Store4, &&lbl_Store1,
        &&lbl_LoadChk8, &&lbl_LoadChk4, &&lbl_LoadChk1,
        &&lbl_StoreChk8, &&lbl_StoreChk4, &&lbl_StoreChk1,
        &&lbl_Load8Bd, &&lbl_Load4Bd, &&lbl_Load1Bd,
        &&lbl_Store8Bd, &&lbl_Store4Bd, &&lbl_Store1Bd,
        &&lbl_LoadChk8Bd, &&lbl_LoadChk4Bd, &&lbl_LoadChk1Bd,
        &&lbl_StoreChk8Bd, &&lbl_StoreChk4Bd, &&lbl_StoreChk1Bd,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      kNumUopKinds + 2 * kMemSlots,
                  "dispatch table must cover every UopKind plus the "
                  "width- and EA-specialized memory slots");
    if (exit == nullptr) {
        g_sb_label_table = kLabels; // probe from promote_superblock
        return SbResult::kLeft;
    }
    SB_SEGMENT();

    SB_OP(Charge):
        SB_NEXT();

    SB_OP(MovRI):
        regs[op->reg1] = static_cast<uint64_t>(op->imm);
        SB_NEXT();
    SB_OP(MovRR):
        regs[op->reg1] = regs[op->reg2];
        SB_NEXT();

    SB_OP(AddRI):
        regs[op->reg1] += static_cast<uint64_t>(op->imm);
        SB_NEXT();
    SB_OP(AddRR):
        regs[op->reg1] += regs[op->reg2];
        SB_NEXT();
    SB_OP(SubRI):
        regs[op->reg1] -= static_cast<uint64_t>(op->imm);
        SB_NEXT();
    SB_OP(SubRR):
        regs[op->reg1] -= regs[op->reg2];
        SB_NEXT();
    SB_OP(MulRI):
        regs[op->reg1] *= static_cast<uint64_t>(op->imm);
        SB_NEXT();
    SB_OP(MulRR):
        regs[op->reg1] *= regs[op->reg2];
        SB_NEXT();
    SB_OP(DivRR):
    SB_OP(ModRR): {
        int64_t divisor = static_cast<int64_t>(regs[op->reg2]);
        if (divisor == 0) {
            SB_FAULT(FaultKind::kDivide, op->address, op->address,
                     op->cost, op->n_instrs);
        }
        int64_t dividend = static_cast<int64_t>(regs[op->reg1]);
        if (dividend == INT64_MIN && divisor == -1) {
            regs[op->reg1] = op->kind == UopKind::kDivRR
                                 ? static_cast<uint64_t>(INT64_MIN) : 0;
        } else if (op->kind == UopKind::kDivRR) {
            regs[op->reg1] = static_cast<uint64_t>(dividend / divisor);
        } else {
            regs[op->reg1] = static_cast<uint64_t>(dividend % divisor);
        }
        SB_NEXT();
    }
    SB_OP(AndRI):
        regs[op->reg1] &= static_cast<uint64_t>(op->imm);
        SB_NEXT();
    SB_OP(AndRR):
        regs[op->reg1] &= regs[op->reg2];
        SB_NEXT();
    SB_OP(OrRI):
        regs[op->reg1] |= static_cast<uint64_t>(op->imm);
        SB_NEXT();
    SB_OP(OrRR):
        regs[op->reg1] |= regs[op->reg2];
        SB_NEXT();
    SB_OP(XorRI):
        regs[op->reg1] ^= static_cast<uint64_t>(op->imm);
        SB_NEXT();
    SB_OP(XorRR):
        regs[op->reg1] ^= regs[op->reg2];
        SB_NEXT();
    SB_OP(ShlRI):
        regs[op->reg1] <<= (op->imm & 63);
        SB_NEXT();
    SB_OP(ShrRI):
        regs[op->reg1] >>= (op->imm & 63);
        SB_NEXT();
    SB_OP(SarRI):
        regs[op->reg1] = static_cast<uint64_t>(
            static_cast<int64_t>(regs[op->reg1]) >> (op->imm & 63));
        SB_NEXT();
    SB_OP(ShlRR):
        regs[op->reg1] <<= (regs[op->reg2] & 63);
        SB_NEXT();
    SB_OP(ShrRR):
        regs[op->reg1] >>= (regs[op->reg2] & 63);
        SB_NEXT();
    SB_OP(SarRR):
        regs[op->reg1] = static_cast<uint64_t>(
            static_cast<int64_t>(regs[op->reg1]) >>
            (regs[op->reg2] & 63));
        SB_NEXT();
    SB_OP(Neg):
        regs[op->reg1] = 0 - regs[op->reg1];
        SB_NEXT();
    SB_OP(Not):
        regs[op->reg1] = ~regs[op->reg1];
        SB_NEXT();

    SB_OP(CmpRI):
        set_cmp_flags(regs[op->reg1], static_cast<uint64_t>(op->imm));
        flags_deferred = false;
        SB_NEXT();
    SB_OP(CmpRR):
        set_cmp_flags(regs[op->reg1], regs[op->reg2]);
        flags_deferred = false;
        SB_NEXT();
    SB_OP(TestRR): {
        flags_deferred = false;
        uint64_t r = regs[op->reg1] & regs[op->reg2];
        state_.flags.zf = (r == 0);
        state_.flags.sf = (static_cast<int64_t>(r) < 0);
        state_.flags.cf = false;
        state_.flags.of = false;
        SB_NEXT();
    }

    SB_OP(Lea):
        regs[op->reg1] = ea(*op);
        SB_NEXT();
    SB_OP(Rdcycle):
        // The head charged the whole segment; the value is the counter
        // after this instruction, like execute().
        regs[op->reg1] = cycles - (op->seg_cost - op->cost);
        SB_NEXT();

    /*
     * Trace stores try the host-pointer write entry first. A hit
     * cannot touch a page that has supplied decoded bytes (no write
     * entry exists for one), so only the miss path — the generic
     * write(), which faults, fills the entry, or advances the code
     * generation — re-checks the generation and leaves on a change.
     * A fault here comes from the access, the last component of the
     * uop's group, so the whole group ran.
     */
#define SB_WRITE_MISS(ADDR, VALUE, SZ, FAULT_RIP)                       \
    do {                                                                \
        uint64_t spill = VALUE; /* keeps VALUE itself in a register */  \
        AccessFault f = mem.write(ADDR, &spill, SZ);                    \
        if (f != AccessFault::kNone) {                                  \
            SB_FAULT(sb_fault_kind(f), ADDR, FAULT_RIP, op->cost,       \
                     op->n_instrs);                                     \
        }                                                               \
    } while (0)

    /*
     * Memory bodies, one clone per access width and EA mode, reached
     * only through the extension slots of kLabels (the kind-indexed
     * slots of the memory kinds panic). A single body picking the
     * width at run time would branch on op->size; since one shared
     * body serves every trace, that branch mispredicts whenever the
     * workload mixes widths, and memory uops are the bulk of hot-loop
     * dispatches. Most of them address a frame or data slot as
     * base+displacement, so those bind the `Bd` clone, whose EA is one
     * add; SIB and constant operands keep the generic ea().
     */
#define SB_EA_ANY ea(*op)
#define SB_EA_BD (regs[op->base] + static_cast<uint64_t>(op->disp))
#define SB_MEM_CLONES(BODY)                                             \
    BODY(8, , SB_EA_ANY)                                                \
    BODY(4, , SB_EA_ANY)                                                \
    BODY(1, , SB_EA_ANY)                                                \
    BODY(8, Bd, SB_EA_BD)                                               \
    BODY(4, Bd, SB_EA_BD)                                               \
    BODY(1, Bd, SB_EA_BD)

#define SB_LOAD_W(SZ, V, EA)                                            \
    lbl_Load##SZ##V: {                                                  \
        uint64_t addr = EA;                                             \
        uint64_t value = 0;                                             \
        AccessFault f = mem.read_fast<SZ>(addr, &value);                \
        if (f != AccessFault::kNone) {                                  \
            SB_FAULT(sb_fault_kind(f), addr, op->address, op->cost,     \
                     op->n_instrs);                                     \
        }                                                               \
        regs[op->reg1] = value;                                         \
        SB_NEXT();                                                      \
    }
    SB_MEM_CLONES(SB_LOAD_W)
#undef SB_LOAD_W

#define SB_STORE_W(SZ, V, EA)                                           \
    lbl_Store##SZ##V: {                                                 \
        uint64_t addr = EA;                                             \
        uint64_t value = regs[op->reg1];                                \
        if (!mem.write_hit<SZ>(addr, &value)) {                         \
            SB_WRITE_MISS(addr, value, SZ, op->address);                \
            if (mem.code_generation() != gen) {                         \
                goto store_left;                                        \
            }                                                           \
        }                                                               \
        SB_NEXT();                                                      \
    }
    SB_MEM_CLONES(SB_STORE_W)
#undef SB_STORE_W

    // Bound check(s) folded into the access: one EA, one dispatch.
    // Fault tiers mirror the unfused sequence exactly — a lo fail
    // keeps only the head check's cycles, a hi fail the whole check
    // portion, an access fault the full group.
#define SB_CHECKS(ADDR)                                                 \
    do {                                                                \
        const BoundReg &bc = state_.bnds[op->bnd];                      \
        if ((op->mask & 1) && ADDR < bc.lo) {                           \
            SB_FAULT(FaultKind::kBoundRange, ADDR, op->address,         \
                     op->cost_head, 1);                                 \
        }                                                               \
        if ((op->mask & 2) && ADDR > bc.hi) {                           \
            SB_FAULT(FaultKind::kBoundRange, ADDR, op->address2,        \
                     static_cast<uint32_t>(op->target),                 \
                     op->n_instrs - 1);                                 \
        }                                                               \
    } while (0)
#define SB_LOADCHK_W(SZ, V, EA)                                         \
    lbl_LoadChk##SZ##V: {                                               \
        uint64_t addr = EA;                                             \
        SB_CHECKS(addr);                                                \
        uint64_t value = 0;                                             \
        AccessFault f = mem.read_fast<SZ>(addr, &value);                \
        if (f != AccessFault::kNone) {                                  \
            SB_FAULT(sb_fault_kind(f), addr, op->exit_rip, op->cost,    \
                     op->n_instrs);                                     \
        }                                                               \
        regs[op->reg1] = value;                                         \
        SB_NEXT();                                                      \
    }
    SB_MEM_CLONES(SB_LOADCHK_W)
#undef SB_LOADCHK_W

#define SB_STORECHK_W(SZ, V, EA)                                        \
    lbl_StoreChk##SZ##V: {                                              \
        uint64_t addr = EA;                                             \
        SB_CHECKS(addr);                                                \
        uint64_t value = regs[op->reg1];                                \
        if (!mem.write_hit<SZ>(addr, &value)) {                         \
            SB_WRITE_MISS(addr, value, SZ, op->exit_rip);               \
            if (mem.code_generation() != gen) {                         \
                goto store_left;                                        \
            }                                                           \
        }                                                               \
        SB_NEXT();                                                      \
    }
    SB_MEM_CLONES(SB_STORECHK_W)
#undef SB_STORECHK_W
#undef SB_CHECKS

#undef SB_MEM_CLONES
#undef SB_EA_BD
#undef SB_EA_ANY

    SB_OP(Push):
    SB_OP(PushImm): {
        uint64_t value = op->kind == UopKind::kPush
                             ? regs[op->reg1]
                             : static_cast<uint64_t>(op->imm);
        uint64_t new_sp = regs[isa::kSp] - 8;
        if (!mem.write_hit<8>(new_sp, &value)) {
            SB_WRITE_MISS(new_sp, value, 8, op->address);
            if (mem.code_generation() != gen) {
                regs[isa::kSp] = new_sp;
                goto store_left;
            }
        }
        regs[isa::kSp] = new_sp;
        SB_NEXT();
    }
    SB_OP(Pop): {
        uint64_t value = 0;
        AccessFault f = mem.read_fast<8>(regs[isa::kSp], &value);
        if (f != AccessFault::kNone) {
            SB_FAULT(sb_fault_kind(f), regs[isa::kSp], op->address,
                     op->cost, op->n_instrs);
        }
        regs[isa::kSp] += 8;
        regs[op->reg1] = value;
        SB_NEXT();
    }

    SB_OP(BndChkMem):
    SB_OP(BndChkReg): {
        uint64_t value = op->kind == UopKind::kBndChkMem
                             ? ea(*op) : regs[op->reg1];
        const BoundReg &b = state_.bnds[op->bnd];
        if ((op->mask & 1) && value < b.lo) {
            // First component of a fused pair: keep only the head —
            // the upper check never executed.
            SB_FAULT(FaultKind::kBoundRange, value, op->address,
                     op->mask == 3 ? op->cost_head : op->cost, 1);
        }
        if ((op->mask & 2) && value > b.hi) {
            SB_FAULT(FaultKind::kBoundRange, value, op->address2,
                     op->cost, op->n_instrs);
        }
        SB_NEXT();
    }

    SB_OP(Goto):
        op = uops + op->target;
        SB_SEGMENT();
    SB_OP(JccGoto):
        if (flags_deferred) {
            set_cmp_flags(flag_a, flag_b);
            flags_deferred = false;
        }
        if (eval_cond(op->cond)) {
            op = uops + op->target;
            SB_SEGMENT();
        }
        ++op;
        SB_SEGMENT();
    SB_OP(JccExit):
        if (flags_deferred) {
            set_cmp_flags(flag_a, flag_b);
            flags_deferred = false;
        }
        if (eval_cond(op->cond)) {
            state_.rip = op->exit_rip;
            goto link_or_leave;
        }
        SB_NEXT();
    // Fused compare-branches decide the branch with cond_holds() on
    // the operands and only park the compared pair; the architectural
    // flags materialize lazily at the next unfused reader or at any
    // trace exit (SB_FLUSH), keeping four dead byte-stores per loop
    // iteration off the hot path.
    // The taken/not-taken split is a real branch, not a select: `op`
    // then comes from op->target (a constant per uop) instead of a
    // data-dependent cmov, which keeps the compared register's
    // store-to-load chain out of the next dispatch's address.
    SB_OP(CmpRIJccGoto): {
        uint64_t a = regs[op->reg1], b = static_cast<uint64_t>(op->imm);
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            op = uops + op->target;
            SB_SEGMENT();
        }
        ++op;
        SB_SEGMENT();
    }
    SB_OP(CmpRRJccGoto): {
        uint64_t a = regs[op->reg1], b = regs[op->reg2];
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            op = uops + op->target;
            SB_SEGMENT();
        }
        ++op;
        SB_SEGMENT();
    }
    SB_OP(CmpRIJccExit): {
        uint64_t a = regs[op->reg1], b = static_cast<uint64_t>(op->imm);
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            goto fused_exit;
        }
        SB_NEXT();
    }
    SB_OP(CmpRRJccExit): {
        uint64_t a = regs[op->reg1], b = regs[op->reg2];
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            goto fused_exit;
        }
        SB_NEXT();
    }
    fused_exit:
        state_.rip = op->exit_rip;
        goto link_or_leave;

    SB_OP(Call):
    SB_OP(CallExit): {
        uint64_t value = static_cast<uint64_t>(op->imm);
        uint64_t new_sp = regs[isa::kSp] - 8;
        if (!mem.write_hit<8>(new_sp, &value)) {
            SB_WRITE_MISS(new_sp, value, 8, op->address);
            // kCallExit needs no check: linking re-validates the
            // generation, so a push that landed in a page that has
            // supplied decoded bytes cannot chain into a stale trace.
            if (op->kind == UopKind::kCall &&
                mem.code_generation() != gen) {
                regs[isa::kSp] = new_sp;
                goto store_left;
            }
        }
        regs[isa::kSp] = new_sp;
        if (op->kind == UopKind::kCallExit) {
            state_.rip = op->exit_rip;
            goto link_or_leave;
        }
        SB_NEXT();
    }
    SB_OP(CallRegExit):
    SB_OP(CallMemExit): {
        uint64_t target;
        if (op->kind == UopKind::kCallRegExit) {
            target = regs[op->reg1];
        } else {
            uint64_t addr = ea(*op);
            AccessFault f = mem.read_fast<8>(addr, &target);
            if (f != AccessFault::kNone) {
                SB_FAULT(sb_fault_kind(f), addr, op->address, op->cost,
                         op->n_instrs);
            }
        }
        uint64_t value = static_cast<uint64_t>(op->imm);
        uint64_t new_sp = regs[isa::kSp] - 8;
        AccessFault f = mem.write_fast<8>(new_sp, &value);
        if (f != AccessFault::kNone) {
            SB_FAULT(sb_fault_kind(f), new_sp, op->address, op->cost,
                     op->n_instrs);
        }
        regs[isa::kSp] = new_sp;
        state_.rip = target;
        goto link_or_leave;
    }
    SB_OP(RetGuard):
    SB_OP(RetExit): {
        uint64_t target;
        AccessFault f = mem.read_fast<8>(regs[isa::kSp], &target);
        if (f != AccessFault::kNone) {
            SB_FAULT(sb_fault_kind(f), regs[isa::kSp], op->address,
                     op->cost, op->n_instrs);
        }
        regs[isa::kSp] += 8 + static_cast<uint64_t>(op->imm);
        if (op->kind == UopKind::kRetGuard && target == op->exit_rip) {
            SB_NEXT(); // predicted return: keep running the trace
        }
        state_.rip = target;
        goto link_or_leave;
    }
    SB_OP(JmpRegGuard):
        if (regs[op->reg1] == op->exit_rip) {
            SB_NEXT(); // predicted (MMDSFI return rewrite)
        }
        state_.rip = regs[op->reg1];
        goto link_or_leave;
    SB_OP(JmpRegExit):
        state_.rip = regs[op->reg1];
        goto link_or_leave;
    SB_OP(JmpMemExit): {
        uint64_t addr = ea(*op);
        uint64_t target;
        AccessFault f = mem.read_fast<8>(addr, &target);
        if (f != AccessFault::kNone) {
            SB_FAULT(sb_fault_kind(f), addr, op->address, op->cost,
                     op->n_instrs);
        }
        state_.rip = target;
        goto link_or_leave;
    }
    SB_OP(ExitTo):
        state_.rip = op->exit_rip;
        goto link_or_leave;

    SB_OP(Ltrap):
        SB_GIVE_BACK(op->cost, op->n_instrs);
        state_.rip = op->next_rip; // resume past the trap
        exit->kind = ExitKind::kLtrap;
        exit->fault = FaultKind::kNone;
        exit->rip = op->address;
        SB_FLUSH();
        return SbResult::kExit;
    SB_OP(Priv):
        SB_GIVE_BACK(op->cost, op->n_instrs);
        state_.rip = op->address;
        exit->kind = ExitKind::kPrivileged;
        exit->fault = FaultKind::kNone;
        exit->priv_op = static_cast<Opcode>(op->imm);
        exit->rip = op->address;
        SB_FLUSH();
        return SbResult::kExit;

    SB_OP(Dead):
        OCC_PANIC("dead uop reached execution");

  link_or_leave:
    // Every uop that gets here ran whole: give back the rest of its
    // segment before linking (which charges the next one) or leaving.
    SB_GIVE_BACK(op->cost, op->n_instrs);
    // Trace linking: a guard or branch exit whose continuation rip is
    // a cached block with a trace chains straight into that trace's
    // uops instead of bouncing through run_blocks (block lookup, tier
    // dispatch, re-entry) — call-heavy guests spend most exits on
    // exactly such trace-to-trace edges. The block's generation is
    // checked against the address space (a call's push may just have
    // invalidated code), and the counter-flush/budget semantics are
    // unchanged: counters stay in locals, and the link is a segment
    // head, so the budget check of the linked trace's first segment
    // refuses entry exactly like run_blocks' entry guard
    // (state_.rip already names the entry).
    {
        const Block *linked = block_cache_.find(state_.rip);
        if (linked != nullptr && linked->sb != nullptr &&
            linked->generation == mem.code_generation()) {
            uops = linked->sb->uops.data();
            op = uops;
            ++dispatch_.sb_exec_hits;
            SB_SEGMENT();
        }
    }
    SB_FLUSH();
    return SbResult::kLeft;

  store_left:
    // A missed store advanced the code generation: the uops after it
    // may replay stale bytes, so leave; the next lookup rebuilds.
    SB_GIVE_BACK(op->cost, op->n_instrs);
    state_.rip = op->next_rip;
    SB_FLUSH();
    return SbResult::kLeft;

  budget_stop:
    // The remaining budget does not cover the segment starting at
    // this uop: leave with rip at its first instruction; tier 1
    // finishes the tail one instruction at a time, so quantum slicing
    // (AEX) sees exactly the same boundaries as the other tiers.
    state_.rip = op->address;
    SB_FLUSH();
    return SbResult::kLeft;
}

} // namespace occlum::vm
