#include "vm/cpu.h"

#include "base/env.h"
#include "base/log.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace occlum::vm {

using isa::Instruction;
using isa::Opcode;

namespace {

/** Longest straight-line run kept in one cached block. */
constexpr size_t kMaxBlockInstrs = 64;

/**
 * Process-wide default tier, read once from the environment (the
 * crypto reference-mode pattern): traces by default,
 * OCCLUM_VM_SUPERBLOCK=0 pins tier 1 for CI legs and bisection.
 */
Tier g_default_tier = env_flag("OCCLUM_VM_SUPERBLOCK", true)
                          ? Tier::kTraces
                          : Tier::kBlocks;

FaultKind
data_fault_kind(AccessFault fault)
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

/**
 * True if `op` must terminate a cached block: every control transfer
 * (the next rip is data-dependent) and every dangerous instruction
 * (ltrap + privileged ops, which make run() return).
 */
bool
ends_block(Opcode op)
{
    return isa::is_dangerous(op) ||
           isa::transfer_kind(op) != isa::TransferKind::kNone;
}

} // namespace

void
Cpu::BlockTable::clear()
{
    slots_.clear();
    slots_.resize(kMinSlots);
    size_ = 0;
}

void
Cpu::BlockTable::place(uint64_t rip, std::unique_ptr<Block> block)
{
    const size_t mask = slots_.size() - 1;
    size_t s = home(rip) & mask;
    while (slots_[s].block != nullptr) {
        s = (s + 1) & mask;
    }
    slots_[s].rip = rip;
    slots_[s].block = std::move(block);
}

Cpu::Block *
Cpu::BlockTable::insert(uint64_t rip)
{
    if (2 * (size_ + 1) > slots_.size()) {
        // Grow before the load factor passes 1/2; the blocks move by
        // pointer, so Block* held elsewhere stays valid.
        std::vector<Slot> old = std::move(slots_);
        slots_.clear();
        slots_.resize(2 * old.size());
        for (Slot &slot : old) {
            if (slot.block != nullptr) {
                place(slot.rip, std::move(slot.block));
            }
        }
    }
    auto block = std::make_unique<Block>();
    Block *raw = block.get();
    place(rip, std::move(block));
    ++size_;
    return raw;
}

void
Cpu::BlockTable::erase(uint64_t rip)
{
    // Backward-shift deletion: pull every later member of the probe
    // run whose home lies at or before the hole into it, so find()
    // still never meets an empty slot inside a run.
    const size_t mask = slots_.size() - 1;
    size_t hole = home(rip) & mask;
    while (slots_[hole].rip != rip || slots_[hole].block == nullptr) {
        OCC_CHECK(slots_[hole].block != nullptr);
        hole = (hole + 1) & mask;
    }
    slots_[hole] = Slot{};
    --size_;
    for (size_t s = (hole + 1) & mask; slots_[s].block != nullptr;
         s = (s + 1) & mask) {
        const size_t want = home(slots_[s].rip) & mask;
        // Leave the entry if its home is cyclically in (hole, s].
        const bool stays = hole <= s ? (want > hole && want <= s)
                                     : (want > hole || want <= s);
        if (!stays) {
            slots_[hole] = std::move(slots_[s]);
            slots_[s] = Slot{};
            hole = s;
        }
    }
}

void
Cpu::set_default_tier(Tier tier)
{
    g_default_tier = tier;
}

Tier
Cpu::default_tier()
{
    return g_default_tier;
}

void
Cpu::set_tier(Tier tier)
{
    tier_ = tier;
    block_cache_.clear(); // drops exec counts and traces together
    reset_dispatch_counters();
}

void
Cpu::release_caches()
{
    OCC_CHECK(!speculating_);
    block_cache_.clear();
    cache_.reset();
}

size_t
Cpu::superblock_count() const
{
    size_t count = 0;
    block_cache_.for_each([&count](const Block &block) {
        count += block.sb != nullptr;
    });
    return count;
}

void
Cpu::reset_dispatch_counters()
{
    dispatch_ = DispatchCounters{};
}

uint64_t
Cpu::effective_address(const isa::MemOperand &mem, uint64_t instr_end) const
{
    switch (mem.mode) {
      case isa::AddrMode::kBaseDisp:
        return state_.regs[mem.base] + static_cast<int64_t>(mem.disp);
      case isa::AddrMode::kSib:
        return state_.regs[mem.base] +
               (state_.regs[mem.index] << mem.scale_log2) +
               static_cast<int64_t>(mem.disp);
      case isa::AddrMode::kRipRel:
        return instr_end + static_cast<int64_t>(mem.disp);
      case isa::AddrMode::kAbs:
        return mem.abs_addr;
    }
    OCC_PANIC("bad addr mode");
}

Cpu::Checkpoint
Cpu::checkpoint() const
{
    return Checkpoint{cycles_, instructions_, dispatch_};
}

CpuExit
Cpu::run_unpublished(uint64_t max_instructions)
{
    cache_->sync(); // the kernel may have changed pages since last time
    return tier_ == Tier::kDecode ? run_decode_loop(max_instructions)
                                  : run_blocks(max_instructions);
}

CpuExit
Cpu::run(uint64_t max_instructions)
{
    const Checkpoint base = checkpoint();
    CpuExit exit = run_unpublished(max_instructions);
    publish(base, exit);
    return exit;
}

CpuExit
Cpu::speculate(uint64_t max_instructions)
{
    OCC_CHECK(!speculating_);
    spec_base_ = checkpoint();
    spec_state_ = state_;
    speculating_ = true;
    ++spec_seq_;
    cache_->begin_speculation();
    return run_unpublished(max_instructions);
}

void
Cpu::commit_speculation(const CpuExit &exit)
{
    OCC_CHECK(speculating_ && !cache_->aborted());
    cache_->end_speculation(true);
    block_undo_.clear();
    speculating_ = false;
    publish(spec_base_, exit);
}

void
Cpu::rollback_speculation()
{
    OCC_CHECK(speculating_);
    cache_->end_speculation(false);
    // Newest first, so a block the speculation inserted is erased
    // only after everything else that names it was restored.
    for (size_t i = block_undo_.size(); i-- > 0;) {
        BlockUndo &undo = block_undo_[i];
        Block *block = undo.block;
        if (undo.inserted) {
            block_cache_.erase(undo.rip);
            continue;
        }
        if (undo.rebuilt) {
            block->instrs = std::move(undo.instrs);
            block->sb = std::move(undo.sb);
        }
        if (!undo.had_sb) {
            block->sb.reset(); // promoted during the speculation
        }
        block->generation = undo.generation;
        block->exec_count = undo.exec_count;
    }
    block_undo_.clear();
    state_ = spec_state_;
    cycles_ = spec_base_.cycles;
    instructions_ = spec_base_.instructions;
    dispatch_ = spec_base_.dispatch;
    speculating_ = false;
}

void
Cpu::publish(const Checkpoint &base, const CpuExit &exit) const
{
    // Dispatch-level metrics: one registry lookup per process (the
    // entries are process-wide), one add per executed quantum.
    static trace::Counter *ctr_instrs =
        &trace::Registry::instance().counter("vm.instructions");
    static trace::Counter *ctr_quanta =
        &trace::Registry::instance().counter("vm.quanta");
    static trace::Counter *ctr_ltraps =
        &trace::Registry::instance().counter("vm.ltraps");
    static trace::Counter *ctr_faults =
        &trace::Registry::instance().counter("vm.faults");
    static trace::Counter *ctr_bb_hits =
        &trace::Registry::instance().counter("vm.block_cache.hits");
    static trace::Counter *ctr_bb_misses =
        &trace::Registry::instance().counter("vm.block_cache.misses");
    static trace::Counter *ctr_bb_inval =
        &trace::Registry::instance().counter("vm.block_cache.invalidations");
    static trace::Counter *ctr_sb_promote =
        &trace::Registry::instance().counter("vm.superblock.promotions");
    static trace::Counter *ctr_sb_inval =
        &trace::Registry::instance().counter("vm.superblock.invalidations");
    static trace::Counter *ctr_sb_hits =
        &trace::Registry::instance().counter("vm.superblock.exec_hits");
    static trace::Counter *ctr_sb_folded =
        &trace::Registry::instance().counter("vm.superblock.guards_folded");
    const DispatchCounters &was = base.dispatch;
    ctr_instrs->add(instructions_ - base.instructions);
    ctr_quanta->add();
    ctr_bb_hits->add(dispatch_.bb_hits - was.bb_hits);
    ctr_bb_misses->add(dispatch_.bb_misses - was.bb_misses);
    ctr_bb_inval->add(dispatch_.bb_invalidations - was.bb_invalidations);
    ctr_sb_promote->add(dispatch_.sb_promotions - was.sb_promotions);
    ctr_sb_inval->add(dispatch_.sb_invalidations - was.sb_invalidations);
    ctr_sb_hits->add(dispatch_.sb_exec_hits - was.sb_exec_hits);
    ctr_sb_folded->add(dispatch_.sb_guards_folded - was.sb_guards_folded);
    switch (exit.kind) {
      case ExitKind::kLtrap:
        ctr_ltraps->add();
        break;
      case ExitKind::kFault:
        ctr_faults->add();
        OCC_TRACE_INSTANT(kVm, "cpu.fault", exit.fault_addr);
        break;
      case ExitKind::kPrivileged:
        OCC_TRACE_INSTANT(kVm, "cpu.priv", exit.rip);
        break;
      case ExitKind::kInstrBudget:
        break;
    }
}

FaultKind
Cpu::decode_at(uint64_t rip, Instruction *out)
{
    uint8_t buf[16];
    uint64_t got = 0;
    // One ranged fetch covers the whole window when it stays on a
    // page; fall back to byte-wise only when the window crosses into
    // an unfetchable page (the tail bytes may simply not exist).
    if (cache_->fetch(rip, buf, sizeof(buf)) == AccessFault::kNone) {
        got = sizeof(buf);
    } else {
        while (got < sizeof(buf)) {
            if (cache_->fetch(rip + got, buf + got, 1) !=
                AccessFault::kNone) {
                break;
            }
            ++got;
        }
        if (got == 0) {
            return FaultKind::kExecFault;
        }
    }
    auto decoded = isa::decode(buf, got, 0, rip);
    if (!decoded.ok()) {
        return FaultKind::kInvalidInstr;
    }
    *out = decoded.take();
    return FaultKind::kNone;
}

Cpu::Block *
Cpu::lookup_block(uint64_t rip, CpuExit *exit)
{
    uint64_t gen = cache_->code_generation();
    Block *cached = block_cache_.find(rip);
    if (cached != nullptr) {
        if (cached->generation == gen) {
            ++dispatch_.bb_hits;
            return cached;
        }
        ++dispatch_.bb_invalidations; // stale block: rebuilt in place below
        if (cached->sb != nullptr) {
            // The trace dies with its block (SMC or an X-perm change
            // demotes this entry back to tier 1; it re-promotes once
            // the rebuilt block gets hot again).
            ++dispatch_.sb_invalidations;
        }
    }
    ++dispatch_.bb_misses;

    Block block;
    block.generation = gen;
    block.instrs.reserve(8);
    uint64_t pc = rip;
    while (block.instrs.size() < kMaxBlockInstrs) {
        Instruction instr;
        FaultKind fk = decode_at(pc, &instr);
        if (fk != FaultKind::kNone) {
            if (block.instrs.empty()) {
                // The entry instruction itself is unfetchable or
                // undecodable: that is an architectural fault.
                exit->kind = ExitKind::kFault;
                exit->fault = fk;
                exit->fault_addr = pc;
                exit->rip = pc;
                state_.rip = pc;
                return nullptr;
            }
            // Decoding failed *ahead* of execution. End the block
            // here; if control really reaches pc, the next lookup
            // starts a block there and raises the fault.
            break;
        }
        if (instr.op == Opcode::kCfiLabel && !block.instrs.empty()) {
            break; // a cfi_label is an entry point: new block
        }
        block.instrs.push_back(instr);
        if (ends_block(instr.op)) {
            break;
        }
        pc = instr.end();
    }
    if (!speculating_) {
        Block *slot = cached != nullptr ? cached : block_cache_.insert(rip);
        *slot = std::move(block);
        return slot;
    }
    Block *slot;
    if (cached != nullptr) {
        BlockUndo &undo = note_block(cached);
        if (!undo.rebuilt && !undo.inserted) {
            undo.rebuilt = true;
            undo.instrs = std::move(cached->instrs);
            undo.sb = std::move(cached->sb);
        }
        slot = cached;
        block.undo_index = slot->undo_index;
    } else {
        slot = block_cache_.insert(rip);
        block.undo_index = block_undo_.size();
        BlockUndo undo;
        undo.block = slot;
        undo.rip = rip;
        undo.inserted = true;
        block_undo_.push_back(std::move(undo));
    }
    block.spec_seq = spec_seq_;
    *slot = std::move(block);
    return slot;
}

CpuExit
Cpu::run_blocks(uint64_t max_instructions)
{
    CpuExit exit;
    uint64_t executed = 0;
    Block *block = nullptr;
    for (;;) {
        if (executed >= max_instructions) {
            exit.kind = ExitKind::kInstrBudget;
            exit.rip = state_.rip;
            return exit;
        }
        if (block == nullptr) {
            block = lookup_block(state_.rip, &exit);
            if (!block) {
                return exit;
            }
        }
        if (tier_ == Tier::kTraces) {
            // Tier-2 dispatch. Every path to this point looked the
            // block up under the current generation, and the block
            // owns its trace, so a trace reached here is runnable.
            if (block->sb == nullptr) {
                if (speculating_) {
                    note_block(block);
                }
                if (++block->exec_count == kPromoteThreshold) {
                    block->sb =
                        promote_superblock(block->instrs[0].address);
                }
            }
            const Superblock *sb = block->sb.get();
            // (The budget guard keeps a trace whose first segment
            // needs more budget than remains from re-entering
            // forever; tier 1 finishes such tails exactly.)
            if (sb != nullptr &&
                max_instructions - executed >= sb->uops[0].seg_instrs) {
                ++dispatch_.sb_exec_hits;
                if (exec_superblock(*sb, max_instructions, &executed,
                                    &exit) == SbResult::kExit) {
                    return exit;
                }
                block = nullptr;
                continue;
            }
        }
        const Instruction *instrs = block->instrs.data();
        const size_t n = block->instrs.size();
        Block *next = nullptr;
        size_t i = 0;
        for (; i < n; ++i) {
            const Instruction &instr = instrs[i];
            if (executed >= max_instructions) {
                state_.rip = instr.address;
                exit.kind = ExitKind::kInstrBudget;
                exit.rip = instr.address;
                return exit;
            }
            ++executed;
            Step step = execute(instr, &exit);
            if (step == Step::kNext) {
                continue;
            }
            if (step == Step::kExit) {
                return exit;
            }
            if (step == Step::kTransfer) {
                // execute stored the new rip; look it up under the
                // *current* generation (a call's push may just have
                // written a page that supplied decoded bytes).
                next = lookup_block(state_.rip, &exit);
                if (!next) {
                    return exit;
                }
                break;
            }
            // Step::kMemWrite: the store may have hit an executable
            // page (self-modifying code under a data_rwx layout). If
            // the generation moved, this block's remaining decoded
            // ops may be stale — resume through a fresh lookup.
            if (cache_->code_generation() != block->generation) {
                state_.rip = instr.end();
                break; // next == nullptr: fresh lookup
            }
        }
        if (i == n) {
            // Fell off the end of a block that was cut short by a
            // cfi_label boundary, the length cap, or a decode failure
            // ahead: continue at the next sequential instruction.
            state_.rip = instrs[n - 1].end();
        }
        block = next;
    }
}

CpuExit
Cpu::run_decode_loop(uint64_t max_instructions)
{
    CpuExit exit;
    for (uint64_t executed = 0; executed < max_instructions; ++executed) {
        uint64_t rip = state_.rip;
        Instruction instr;
        FaultKind fk = decode_at(rip, &instr);
        if (fk != FaultKind::kNone) {
            exit.kind = ExitKind::kFault;
            exit.fault = fk;
            exit.fault_addr = rip;
            exit.rip = rip;
            return exit;
        }
        Step step = execute(instr, &exit);
        if (step == Step::kExit) {
            return exit;
        }
        if (step != Step::kTransfer) {
            state_.rip = instr.end();
        }
    }
    exit.kind = ExitKind::kInstrBudget;
    exit.rip = state_.rip;
    return exit;
}

Cpu::Step
Cpu::execute(const Instruction &instr, CpuExit *exit)
{
    uint64_t next_rip = instr.end();

    cycles_ += instr.cost; // == isa::cycle_cost(instr), stamped at decode
    ++instructions_;

    auto &regs = state_.regs;

    auto fault = [&](FaultKind kind, uint64_t addr) {
        state_.rip = instr.address;
        exit->kind = ExitKind::kFault;
        exit->fault = kind;
        exit->fault_addr = addr;
        exit->rip = instr.address;
        return Step::kExit;
    };

    switch (instr.op) {
      case Opcode::kNop:
      case Opcode::kCfiLabel:
      case Opcode::kLea:
        if (instr.op == Opcode::kLea) {
            regs[instr.reg1] = effective_address(instr.mem, next_rip);
        }
        return Step::kNext;

      case Opcode::kHlt:
      case Opcode::kEexit:
      case Opcode::kEaccept:
      case Opcode::kXrstor:
      case Opcode::kWrfsbase:
      case Opcode::kBndmk:
      case Opcode::kBndmov:
        state_.rip = instr.address;
        exit->kind = ExitKind::kPrivileged;
        exit->priv_op = instr.op;
        exit->rip = instr.address;
        return Step::kExit;

      case Opcode::kLtrap:
        state_.rip = next_rip;
        exit->kind = ExitKind::kLtrap;
        exit->rip = instr.address;
        return Step::kExit;

      case Opcode::kRdcycle:
        regs[instr.reg1] = cycles_;
        return Step::kNext;

      case Opcode::kMovRI:
        regs[instr.reg1] = static_cast<uint64_t>(instr.imm);
        return Step::kNext;
      case Opcode::kMovRR:
        regs[instr.reg1] = regs[instr.reg2];
        return Step::kNext;

      case Opcode::kLoad:
      case Opcode::kLoad8:
      case Opcode::kLoad32:
      case Opcode::kVGather: {
        uint64_t addr = effective_address(instr.mem, next_rip);
        uint64_t size = instr.op == Opcode::kLoad8 ? 1
                      : instr.op == Opcode::kLoad32 ? 4 : 8;
        uint64_t value = 0;
        AccessFault f = cache_->read(addr, &value, size);
        if (f != AccessFault::kNone) {
            return fault(data_fault_kind(f), addr);
        }
        regs[instr.reg1] = value;
        return Step::kNext;
      }
      case Opcode::kStore:
      case Opcode::kStore8:
      case Opcode::kStore32: {
        uint64_t addr = effective_address(instr.mem, next_rip);
        uint64_t size = instr.op == Opcode::kStore8 ? 1
                      : instr.op == Opcode::kStore32 ? 4 : 8;
        uint64_t value = regs[instr.reg1];
        AccessFault f = cache_->write(addr, &value, size);
        if (f != AccessFault::kNone) {
            return fault(data_fault_kind(f), addr);
        }
        return Step::kMemWrite;
      }

      case Opcode::kAddRR:
        regs[instr.reg1] += regs[instr.reg2];
        return Step::kNext;
      case Opcode::kAddRI:
        regs[instr.reg1] += instr.imm;
        return Step::kNext;
      case Opcode::kSubRR:
        regs[instr.reg1] -= regs[instr.reg2];
        return Step::kNext;
      case Opcode::kSubRI:
        regs[instr.reg1] -= instr.imm;
        return Step::kNext;
      case Opcode::kMulRR:
        regs[instr.reg1] *= regs[instr.reg2];
        return Step::kNext;
      case Opcode::kMulRI:
        regs[instr.reg1] *= instr.imm;
        return Step::kNext;
      case Opcode::kDivRR:
      case Opcode::kModRR: {
        int64_t divisor = static_cast<int64_t>(regs[instr.reg2]);
        if (divisor == 0) {
            return fault(FaultKind::kDivide, instr.address);
        }
        int64_t dividend = static_cast<int64_t>(regs[instr.reg1]);
        // INT64_MIN / -1 overflows on the host; define it as
        // wrapping (the quotient is INT64_MIN again).
        if (dividend == INT64_MIN && divisor == -1) {
            regs[instr.reg1] = instr.op == Opcode::kDivRR
                                   ? static_cast<uint64_t>(INT64_MIN) : 0;
        } else if (instr.op == Opcode::kDivRR) {
            regs[instr.reg1] = static_cast<uint64_t>(dividend / divisor);
        } else {
            regs[instr.reg1] = static_cast<uint64_t>(dividend % divisor);
        }
        return Step::kNext;
      }
      case Opcode::kAndRR:
        regs[instr.reg1] &= regs[instr.reg2];
        return Step::kNext;
      case Opcode::kAndRI:
        regs[instr.reg1] &= instr.imm;
        return Step::kNext;
      case Opcode::kOrRR:
        regs[instr.reg1] |= regs[instr.reg2];
        return Step::kNext;
      case Opcode::kOrRI:
        regs[instr.reg1] |= instr.imm;
        return Step::kNext;
      case Opcode::kXorRR:
        regs[instr.reg1] ^= regs[instr.reg2];
        return Step::kNext;
      case Opcode::kXorRI:
        regs[instr.reg1] ^= instr.imm;
        return Step::kNext;
      case Opcode::kShlRI:
        regs[instr.reg1] <<= (instr.imm & 63);
        return Step::kNext;
      case Opcode::kShrRI:
        regs[instr.reg1] >>= (instr.imm & 63);
        return Step::kNext;
      case Opcode::kSarRI:
        regs[instr.reg1] = static_cast<uint64_t>(
            static_cast<int64_t>(regs[instr.reg1]) >> (instr.imm & 63));
        return Step::kNext;
      case Opcode::kShlRR:
        regs[instr.reg1] <<= (regs[instr.reg2] & 63);
        return Step::kNext;
      case Opcode::kShrRR:
        regs[instr.reg1] >>= (regs[instr.reg2] & 63);
        return Step::kNext;
      case Opcode::kSarRR:
        regs[instr.reg1] = static_cast<uint64_t>(
            static_cast<int64_t>(regs[instr.reg1]) >>
            (regs[instr.reg2] & 63));
        return Step::kNext;
      case Opcode::kNeg:
        regs[instr.reg1] = 0 - regs[instr.reg1];
        return Step::kNext;
      case Opcode::kNot:
        regs[instr.reg1] = ~regs[instr.reg1];
        return Step::kNext;

      case Opcode::kCmpRR:
        set_cmp_flags(regs[instr.reg1], regs[instr.reg2]);
        return Step::kNext;
      case Opcode::kCmpRI:
        set_cmp_flags(regs[instr.reg1], static_cast<uint64_t>(instr.imm));
        return Step::kNext;
      case Opcode::kTestRR: {
        uint64_t r = regs[instr.reg1] & regs[instr.reg2];
        state_.flags.zf = (r == 0);
        state_.flags.sf = (static_cast<int64_t>(r) < 0);
        state_.flags.cf = false;
        state_.flags.of = false;
        return Step::kNext;
      }

      case Opcode::kJmp:
        state_.rip = instr.direct_target();
        return Step::kTransfer;
      case Opcode::kJcc:
        state_.rip = eval_cond(instr.cond) ? instr.direct_target()
                                           : next_rip;
        return Step::kTransfer;
      case Opcode::kCall:
      case Opcode::kCallReg:
      case Opcode::kCallMem: {
        uint64_t target;
        if (instr.op == Opcode::kCall) {
            target = instr.direct_target();
        } else if (instr.op == Opcode::kCallReg) {
            target = regs[instr.reg1];
        } else {
            uint64_t addr = effective_address(instr.mem, next_rip);
            AccessFault f = cache_->read(addr, &target, 8);
            if (f != AccessFault::kNone) {
                return fault(data_fault_kind(f), addr);
            }
        }
        uint64_t new_sp = regs[isa::kSp] - 8;
        AccessFault f = cache_->write(new_sp, &next_rip, 8);
        if (f != AccessFault::kNone) {
            return fault(data_fault_kind(f), new_sp);
        }
        regs[isa::kSp] = new_sp;
        state_.rip = target;
        return Step::kTransfer;
      }
      case Opcode::kJmpReg:
        state_.rip = regs[instr.reg1];
        return Step::kTransfer;
      case Opcode::kJmpMem: {
        uint64_t addr = effective_address(instr.mem, next_rip);
        uint64_t target;
        AccessFault f = cache_->read(addr, &target, 8);
        if (f != AccessFault::kNone) {
            return fault(data_fault_kind(f), addr);
        }
        state_.rip = target;
        return Step::kTransfer;
      }
      case Opcode::kRet:
      case Opcode::kRetImm: {
        uint64_t target;
        AccessFault f = cache_->read(regs[isa::kSp], &target, 8);
        if (f != AccessFault::kNone) {
            return fault(data_fault_kind(f), regs[isa::kSp]);
        }
        regs[isa::kSp] += 8 + static_cast<uint64_t>(instr.imm);
        state_.rip = target;
        return Step::kTransfer;
      }

      case Opcode::kPush:
      case Opcode::kPushImm: {
        uint64_t value = instr.op == Opcode::kPush
                             ? regs[instr.reg1]
                             : static_cast<uint64_t>(instr.imm);
        uint64_t new_sp = regs[isa::kSp] - 8;
        AccessFault f = cache_->write(new_sp, &value, 8);
        if (f != AccessFault::kNone) {
            return fault(data_fault_kind(f), new_sp);
        }
        regs[isa::kSp] = new_sp;
        return Step::kMemWrite;
      }
      case Opcode::kPop: {
        uint64_t value;
        AccessFault f = cache_->read(regs[isa::kSp], &value, 8);
        if (f != AccessFault::kNone) {
            return fault(data_fault_kind(f), regs[isa::kSp]);
        }
        regs[isa::kSp] += 8;
        regs[instr.reg1] = value;
        return Step::kNext;
      }

      case Opcode::kBndclMem:
      case Opcode::kBndcuMem: {
        uint64_t addr = effective_address(instr.mem, next_rip);
        const BoundReg &b = state_.bnds[instr.bnd];
        bool violation = instr.op == Opcode::kBndclMem ? (addr < b.lo)
                                                       : (addr > b.hi);
        if (violation) {
            return fault(FaultKind::kBoundRange, addr);
        }
        return Step::kNext;
      }
      case Opcode::kBndclReg:
      case Opcode::kBndcuReg: {
        uint64_t value = regs[instr.reg1];
        const BoundReg &b = state_.bnds[instr.bnd];
        bool violation = instr.op == Opcode::kBndclReg ? (value < b.lo)
                                                       : (value > b.hi);
        if (violation) {
            return fault(FaultKind::kBoundRange, value);
        }
        return Step::kNext;
      }
    }
    OCC_PANIC("unhandled opcode");
}

} // namespace occlum::vm
