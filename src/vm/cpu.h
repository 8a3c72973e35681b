/**
 * @file
 * The OVM CPU: an interpreter for the OVM ISA with MPX-style bound
 * registers and cycle accounting.
 *
 * One Cpu object models one hardware thread (one SGX thread when run
 * under the sgx substrate). Its full register state — including the
 * bound registers, which real SGX saves/restores through the SSA on
 * AEX (paper §2.1/§2.3) — can be snapshotted and restored, which is
 * how the scheduler context-switches SIPs.
 *
 * Dispatch uses a predecoded basic-block cache: the first execution
 * at an entry rip decodes a straight-line run of instructions (ending
 * at a control transfer, a dangerous/ltrap instruction, or the next
 * cfi_label) into a flat array; later executions replay the array in
 * a tight indexed loop. Blocks are keyed by their entry rip, so a
 * jump into the middle of a variable-length instruction builds its
 * own, differently-decoded block — the overlapping-instruction
 * semantics that make the disassembly problem real are preserved.
 * Each block records the code generation it was decoded under (its
 * slot region's in an Occlum enclave, see AccessCache); the
 * generation advances on writes to a page that has supplied decoded
 * bytes and on mapping-permission changes involving X, and a block
 * whose generation is stale is rebuilt on its next lookup. Stores
 * into executable pages nothing was fetched from (an RWX data region)
 * keep every block valid. Cycle accounting is identical in every
 * tier: the same per-instruction isa::cycle_cost is charged by the
 * shared execute step.
 *
 * The block cache is the only code cache. A block that reaches
 * kPromoteThreshold dispatches is stitched into a trace of
 * pre-resolved micro-ops (tier 2, see superblock.h) that the block
 * owns, so the trace is valid exactly while its block is: rebuilding
 * a stale block (self-modifying code, an X-permission change) drops
 * its trace, and the rebuilt block re-promotes once it is hot again.
 * The trace tier is wall-clock-only — simulated cycles, instruction
 * counts, fault points, and quantum-slice boundaries are bit-identical
 * to the other tiers. Tier selects how far up this ladder a Cpu goes.
 */
#ifndef OCCLUM_VM_CPU_H
#define OCCLUM_VM_CPU_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/isa.h"
#include "vm/address_space.h"
#include "vm/superblock.h"

namespace occlum::vm {

/** One MPX-style bound register: [lo, hi], inclusive. */
struct BoundReg {
    uint64_t lo = 0;
    uint64_t hi = ~0ull;
};

/** Comparison flags produced by cmp/test. */
struct Flags {
    bool zf = false;
    bool sf = false;
    bool cf = false;
    bool of = false;
};

/** Why the CPU stopped executing. */
enum class ExitKind {
    kInstrBudget, // executed the requested number of instructions
    kLtrap,       // hit ltrap (LibOS syscall trampoline)
    kPrivileged,  // hit a dangerous instruction (hlt/eexit/bndmk/...)
    kFault,       // memory / bound-range / decode / divide fault
};

/** Fault detail for ExitKind::kFault. */
enum class FaultKind {
    kNone,
    kPageFault,   // unmapped page (e.g. a guard region)
    kPermFault,   // mapped but wrong permission
    kExecFault,   // fetch from non-executable or unmapped page
    kBoundRange,  // #BR from bndcl/bndcu
    kInvalidInstr,// undecodable bytes
    kDivide,      // divide by zero
};

struct CpuExit {
    ExitKind kind = ExitKind::kInstrBudget;
    FaultKind fault = FaultKind::kNone;
    uint64_t fault_addr = 0; // faulting memory address if applicable
    uint64_t rip = 0;        // address of the instruction that exited
    isa::Opcode priv_op = isa::Opcode::kNop; // for kPrivileged
};

/** Full architectural state (the SSA image under SGX). */
struct CpuState {
    std::array<uint64_t, isa::kNumRegs> regs{};
    std::array<BoundReg, isa::kNumBndRegs> bnds{};
    Flags flags;
    uint64_t rip = 0;
};

/** How far up the interpreter ladder a Cpu goes. */
enum class Tier {
    kDecode, // decode every instruction (the ablation baseline)
    kBlocks, // replay predecoded basic blocks (tier 1)
    kTraces, // also promote hot blocks to superblock traces (tier 2)
};

/** The interpreter. */
class Cpu
{
  public:
    explicit Cpu(AddressSpace &mem)
        : mem_(&mem), cache_(std::make_unique<AccessCache>(mem)),
          tier_(default_tier())
    {
    }

    // ---- state access ------------------------------------------------
    uint64_t reg(int i) const { return state_.regs[i]; }
    void set_reg(int i, uint64_t v) { state_.regs[i] = v; }
    uint64_t rip() const { return state_.rip; }
    void set_rip(uint64_t rip) { state_.rip = rip; }
    BoundReg bnd(int i) const { return state_.bnds[i]; }
    void set_bnd(int i, BoundReg b) { state_.bnds[i] = b; }
    uint64_t sp() const { return state_.regs[isa::kSp]; }
    void set_sp(uint64_t v) { state_.regs[isa::kSp] = v; }

    const CpuState &state() const { return state_; }
    void set_state(const CpuState &s) { state_ = s; }

    /** Cycles consumed since construction (monotonic). */
    uint64_t cycles() const { return cycles_; }
    /** Dynamic instruction count since construction. */
    uint64_t instructions() const { return instructions_; }

    AddressSpace &mem() { return *mem_; }

    /**
     * Confine this Cpu's host-pointer TLB to [lo, hi), its process's
     * own memory in a shared address space (an Occlum domain slot),
     * and its blocks to that slot's code generation. Accesses outside
     * still work, through the generic path; only a speculative
     * quantum refuses them (see speculate()).
     */
    void
    confine_to(uint64_t lo, uint64_t hi)
    {
        cache_->set_private_range(lo, hi);
    }

    /** Free the TLBs and the block cache of a CPU that will never run
     *  again (its process died); registers and counters stay. */
    void release_caches();

    // ---- tier control ------------------------------------------------
    /**
     * Select the interpreter tier. Drops all cached blocks (and with
     * them their traces) and zeroes every dispatch counter, so
     * ablation rows never mix counts from two tiers.
     */
    void set_tier(Tier tier);
    Tier tier() const { return tier_; }

    /**
     * Tier for newly constructed Cpus. Seeded from
     * OCCLUM_VM_SUPERBLOCK ("0" selects kBlocks, "1" or unset
     * kTraces, anything else panics); the static setter overrides it
     * for ablation and bisection without threading a flag through
     * every personality.
     */
    static void set_default_tier(Tier tier);
    static Tier default_tier();

    /** Block-cache statistics (per-Cpu; also mirrored in the trace
     *  registry as vm.block_cache.{hits,misses,invalidations}). */
    uint64_t block_cache_hits() const { return dispatch_.bb_hits; }
    uint64_t block_cache_misses() const { return dispatch_.bb_misses; }
    uint64_t
    block_cache_invalidations() const
    {
        return dispatch_.bb_invalidations;
    }
    size_t block_cache_blocks() const { return block_cache_.size(); }
    /** The code generation this Cpu's blocks are checked against. */
    uint64_t code_generation() const { return cache_->code_generation(); }

    /** Superblock statistics (per-Cpu; mirrored in the trace registry
     *  as vm.superblock.{promotions,invalidations,exec_hits,
     *  guards_folded}). */
    uint64_t
    superblock_promotions() const
    {
        return dispatch_.sb_promotions;
    }
    uint64_t
    superblock_invalidations() const
    {
        return dispatch_.sb_invalidations;
    }
    uint64_t superblock_exec_hits() const { return dispatch_.sb_exec_hits; }
    uint64_t
    superblock_guards_folded() const
    {
        return dispatch_.sb_guards_folded;
    }
    /** Traces held by cached blocks (a stale block keeps its trace
     *  until its next lookup rebuilds it). */
    size_t superblock_count() const;

    // ---- execution -----------------------------------------------------
    /**
     * Execute up to `max_instructions`. Returns the reason for
     * stopping. On kLtrap, rip points *past* the ltrap so execution
     * can resume after the LibOS services the call. On faults, rip is
     * the faulting instruction.
     */
    CpuExit run(uint64_t max_instructions);

    // ---- speculative quanta ------------------------------------------
    /**
     * Execute a quantum like run(), but undoably and without
     * publishing anything: the trace-registry counters and the
     * cpu.fault/cpu.priv instants wait for commit_speculation(). The
     * quantum changes only this Cpu and its own pages, journaling
     * both; it never advances the code generation and never touches
     * memory outside the confine_to() range — an instruction that
     * would do either fails the speculation instead (see
     * speculation_aborted()). Safe to run concurrently with the
     * speculative quanta of other Cpus over other ranges, and with a
     * kernel that touches neither this Cpu nor its range and changes
     * the page table only under the space's lock (DESIGN.md §3.4).
     */
    CpuExit speculate(uint64_t max_instructions);
    /** True if the speculation hit an access it must not make; its
     *  result is void and it must be rolled back. */
    bool speculation_aborted() const { return cache_->aborted(); }
    /** Keep the speculative quantum and publish it as run() would
     *  have, with `exit` the exit speculate() returned. */
    void commit_speculation(const CpuExit &exit);
    /** Undo the speculative quantum: registers, counters, block cache,
     *  memory and code marks return to their state before it. */
    void rollback_speculation();

  private:
    /** A predecoded straight-line run, keyed by its entry rip. */
    struct Block {
        std::vector<isa::Instruction> instrs;
        uint64_t generation = ~0ull;
        /** Dispatch count; at kPromoteThreshold the block is stitched
         *  into a superblock (tier 2). */
        uint32_t exec_count = 0;
        /** The promoted trace, or nullptr. Valid while the block is:
         *  rebuilding the block drops it. */
        std::unique_ptr<Superblock> sb;
        /** Speculation that last journaled this block (spec_seq_),
         *  and where in block_undo_. */
        uint64_t spec_seq = 0;
        size_t undo_index = 0;
    };

    /** A block's state before a speculation first changed it. */
    struct BlockUndo {
        Block *block = nullptr;
        uint64_t rip = 0;
        bool inserted = false; // the speculation created the block
        bool rebuilt = false;  // instrs/sb below hold the old ones
        bool had_sb = false;
        uint64_t generation = 0;
        uint32_t exec_count = 0;
        std::vector<isa::Instruction> instrs;
        std::unique_ptr<Superblock> sb;
    };

    /** Block-cache and superblock statistics (per-Cpu). */
    struct DispatchCounters {
        uint64_t bb_hits = 0;
        uint64_t bb_misses = 0;
        uint64_t bb_invalidations = 0;
        uint64_t sb_promotions = 0;
        uint64_t sb_invalidations = 0;
        uint64_t sb_exec_hits = 0;
        uint64_t sb_guards_folded = 0;
    };

    /** The counters a quantum advances: what run() publishes deltas
     *  against (and, with the registers, what a rollback restores). */
    struct Checkpoint {
        uint64_t cycles = 0;
        uint64_t instructions = 0;
        DispatchCounters dispatch;
    };

    /**
     * The block cache: entry rip -> Block, open addressing with linear
     * probing over a power-of-two slot array kept at most half full.
     * Blocks live out of line, so a Block* stays valid while the table
     * grows (run_blocks holds one across lookups). A stale block is
     * rebuilt in place and the whole table is only ever cleared at
     * once, so nothing is erased and probe runs never break.
     */
    class BlockTable
    {
      public:
        BlockTable() { clear(); }

        Block *
        find(uint64_t rip) const
        {
            const size_t mask = slots_.size() - 1;
            for (size_t s = home(rip) & mask;; s = (s + 1) & mask) {
                const Slot &slot = slots_[s];
                if (slot.block == nullptr) {
                    return nullptr;
                }
                if (slot.rip == rip) {
                    return slot.block.get();
                }
            }
        }
        /** Add an empty block for `rip`, which find() just missed. */
        Block *insert(uint64_t rip);
        /** Remove the block keyed `rip` (a rolled-back insert). */
        void erase(uint64_t rip);
        size_t size() const { return size_; }
        void clear();

        template <typename F>
        void
        for_each(F &&visit) const
        {
            for (const Slot &slot : slots_) {
                if (slot.block != nullptr) {
                    visit(*slot.block);
                }
            }
        }

      private:
        struct Slot {
            uint64_t rip = 0;
            std::unique_ptr<Block> block; // null: empty slot
        };
        static constexpr size_t kMinSlots = 16;
        static size_t
        home(uint64_t rip)
        {
            return static_cast<size_t>(rip * 0x9e3779b97f4a7c15ull >> 32);
        }
        /** Put `block` into the first free slot of its probe run. */
        void place(uint64_t rip, std::unique_ptr<Block> block);

        std::vector<Slot> slots_;
        size_t size_ = 0;
    };

    /** What the shared execute step did with control flow. */
    enum class Step {
        kNext,     // fell through; rip not yet advanced by execute
        kMemWrite, // fell through after writing memory (recheck code)
        kTransfer, // control transfer; execute stored the new rip
        kExit,     // run() must return `exit`
    };

    /** How a superblock execution ended. */
    enum class SbResult {
        kLeft, // left the trace; rip is set, the outer loop continues
        kExit, // run() must return `exit`
    };

    /** One quantum in the current tier, publishing nothing. */
    CpuExit run_unpublished(uint64_t max_instructions);
    Checkpoint checkpoint() const;
    /** Add the quantum since `base` to the trace registry. */
    void publish(const Checkpoint &base, const CpuExit &exit) const;
    /** Journal `block` before the speculation first changes it. */
    BlockUndo &
    note_block(Block *block)
    {
        if (block->spec_seq != spec_seq_) {
            block->spec_seq = spec_seq_;
            block->undo_index = block_undo_.size();
            BlockUndo undo;
            undo.block = block;
            undo.generation = block->generation;
            undo.exec_count = block->exec_count;
            undo.had_sb = block->sb != nullptr;
            block_undo_.push_back(std::move(undo));
        }
        return block_undo_[block->undo_index];
    }

    /** Block-cached interpreter loop; run() wraps it with metrics. */
    CpuExit run_blocks(uint64_t max_instructions);
    /** Decode-every-time loop (Tier::kDecode). */
    CpuExit run_decode_loop(uint64_t max_instructions);

    /** Translate a superblock at entry_rip (tier 2); nullptr when no
     *  useful trace exists. In superblock.cc. */
    std::unique_ptr<Superblock> promote_superblock(uint64_t entry_rip);
    /** Replay a trace, chaining into the traces of other cached
     *  blocks, until it exits or the budget lands inside it. Charges
     *  exactly what the per-instruction tiers would. */
    SbResult exec_superblock(const Superblock &sb, uint64_t max_instructions,
                             uint64_t *executed_io, CpuExit *exit);
    /** Zero all bb/sb counters (tier changes must not mix counts). */
    void reset_dispatch_counters();

    /** Fetch + decode one instruction; kNone on success. */
    FaultKind decode_at(uint64_t rip, isa::Instruction *out);
    /** Find or build the block entered at rip; nullptr = fault in
     *  the *first* instruction, with `exit` filled in. */
    Block *lookup_block(uint64_t rip, CpuExit *exit);
    /** Charge cycles and execute one decoded instruction. */
    Step execute(const isa::Instruction &instr, CpuExit *exit);

    /** Effective address of a memory operand (rip-relative uses end). */
    uint64_t effective_address(const isa::MemOperand &mem,
                               uint64_t instr_end) const;

    // Inline: both sit on the per-instruction hot path of every
    // execution tier (tier 2 calls them from another TU).
    bool
    eval_cond(isa::Cond cond) const
    {
        const Flags &f = state_.flags;
        switch (cond) {
          case isa::Cond::kEq: return f.zf;
          case isa::Cond::kNe: return !f.zf;
          case isa::Cond::kLt: return f.sf != f.of;
          case isa::Cond::kLe: return f.zf || (f.sf != f.of);
          case isa::Cond::kGt: return !f.zf && (f.sf == f.of);
          case isa::Cond::kGe: return f.sf == f.of;
          case isa::Cond::kB: return f.cf;
          case isa::Cond::kBe: return f.cf || f.zf;
          case isa::Cond::kA: return !f.cf && !f.zf;
          case isa::Cond::kAe: return !f.cf;
        }
        OCC_PANIC("bad cond");
    }

    void
    set_cmp_flags(uint64_t a, uint64_t b)
    {
        uint64_t diff = a - b;
        int64_t sa = static_cast<int64_t>(a);
        int64_t sb = static_cast<int64_t>(b);
        state_.flags.zf = (a == b);
        state_.flags.sf = (static_cast<int64_t>(diff) < 0);
        state_.flags.cf = (a < b);
        // Signed overflow of a - b.
        state_.flags.of = ((sa < 0) != (sb < 0)) &&
                          ((sa < 0) != (static_cast<int64_t>(diff) < 0));
    }

    AddressSpace *mem_;
    /** This Cpu's private TLBs over *mem_ (and its speculation
     *  journal of memory changes). */
    std::unique_ptr<AccessCache> cache_;
    CpuState state_;
    uint64_t cycles_ = 0;
    uint64_t instructions_ = 0;
    Tier tier_;
    BlockTable block_cache_;
    DispatchCounters dispatch_;

    /** Set between speculate() and its commit or rollback. */
    bool speculating_ = false;
    /** Numbers speculations; a block journaled by the current one
     *  carries it in Block::spec_seq. */
    uint64_t spec_seq_ = 0;
    Checkpoint spec_base_;
    CpuState spec_state_;
    std::vector<BlockUndo> block_undo_;
};

} // namespace occlum::vm

#endif // OCCLUM_VM_CPU_H
