/**
 * @file
 * Programmatic two-pass assembler for the OVM ISA.
 *
 * Used by the toolchain's code generator, by tests, and by the RIPE
 * security benchmark to hand-craft adversarial binaries. Instructions
 * are appended through typed helpers; direct control transfers may
 * reference named labels which are resolved at finish() time (all
 * encodings are fixed-length per opcode, so one layout pass suffices).
 */
#ifndef OCCLUM_ISA_ASSEMBLER_H
#define OCCLUM_ISA_ASSEMBLER_H

#include <map>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace occlum::isa {

/** Builds a code image instruction by instruction. */
class Assembler
{
  public:
    explicit Assembler(uint64_t base_vaddr = 0) : base_(base_vaddr) {}

    // ---- labels ----------------------------------------------------
    /** Bind `name` to the current position. */
    void bind(const std::string &name);
    /** Bind `name` to an arbitrary image offset (e.g. a data symbol). */
    void define_value(const std::string &name, uint64_t offset);
    /** True if a label has been bound. */
    bool is_bound(const std::string &name) const;

    // ---- raw escape hatches (for adversarial tests) -----------------
    /** Append raw bytes verbatim (may form invalid instructions). */
    void raw(const Bytes &bytes);
    /** Append `n` zero bytes without materializing them until finish(). */
    void zeros(size_t n);
    /** Append one already-built instruction. */
    void emit(Instruction instr);
    /**
     * Append an instruction whose rip-relative memory operand should
     * resolve to label `mem_label` (disp patched at finish()).
     */
    void emit_mem_ref(Instruction instr, const std::string &mem_label);
    /** Append a direct transfer (jmp/jcc/call) to a named label. */
    void emit_branch(Instruction instr, const std::string &target);
    /** Append a mov_ri whose immediate is the address of `label`. */
    void emit_addr_of(Instruction instr, const std::string &label);

    // ---- instruction helpers ----------------------------------------
    void nop() { emit_simple(Opcode::kNop); }
    void hlt() { emit_simple(Opcode::kHlt); }
    void ltrap() { emit_simple(Opcode::kLtrap); }
    void eexit() { emit_simple(Opcode::kEexit); }
    void xrstor() { emit_simple(Opcode::kXrstor); }
    void wrfsbase(uint8_t r) { emit_reg(Opcode::kWrfsbase, r); }
    void rdcycle(uint8_t r) { emit_reg(Opcode::kRdcycle, r); }

    void cfi_label(uint32_t id = 0);

    void mov_ri(uint8_t r, int64_t imm);
    /** mov reg, label-address (resolved at finish). */
    void mov_rl(uint8_t r, const std::string &label);
    void mov_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kMovRR, rd, rs); }

    void load(uint8_t r, MemOperand m) { emit_rm(Opcode::kLoad, r, m); }
    void store(MemOperand m, uint8_t r) { emit_rm(Opcode::kStore, r, m); }
    void load8(uint8_t r, MemOperand m) { emit_rm(Opcode::kLoad8, r, m); }
    void store8(MemOperand m, uint8_t r) { emit_rm(Opcode::kStore8, r, m); }
    void load32(uint8_t r, MemOperand m) { emit_rm(Opcode::kLoad32, r, m); }
    void
    store32(MemOperand m, uint8_t r)
    {
        emit_rm(Opcode::kStore32, r, m);
    }
    void lea(uint8_t r, MemOperand m) { emit_rm(Opcode::kLea, r, m); }
    void vgather(uint8_t r, MemOperand m) { emit_rm(Opcode::kVGather, r, m); }

    void add_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kAddRR, rd, rs); }
    void add_ri(uint8_t rd, int32_t i) { emit_ri(Opcode::kAddRI, rd, i); }
    void sub_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kSubRR, rd, rs); }
    void sub_ri(uint8_t rd, int32_t i) { emit_ri(Opcode::kSubRI, rd, i); }
    void mul_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kMulRR, rd, rs); }
    void mul_ri(uint8_t rd, int32_t i) { emit_ri(Opcode::kMulRI, rd, i); }
    void div_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kDivRR, rd, rs); }
    void mod_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kModRR, rd, rs); }
    void and_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kAndRR, rd, rs); }
    void and_ri(uint8_t rd, int32_t i) { emit_ri(Opcode::kAndRI, rd, i); }
    void or_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kOrRR, rd, rs); }
    void or_ri(uint8_t rd, int32_t i) { emit_ri(Opcode::kOrRI, rd, i); }
    void xor_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kXorRR, rd, rs); }
    void xor_ri(uint8_t rd, int32_t i) { emit_ri(Opcode::kXorRI, rd, i); }
    void shl_ri(uint8_t rd, uint8_t i) { emit_ri(Opcode::kShlRI, rd, i); }
    void shr_ri(uint8_t rd, uint8_t i) { emit_ri(Opcode::kShrRI, rd, i); }
    void sar_ri(uint8_t rd, uint8_t i) { emit_ri(Opcode::kSarRI, rd, i); }
    void shl_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kShlRR, rd, rs); }
    void shr_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kShrRR, rd, rs); }
    void sar_rr(uint8_t rd, uint8_t rs) { emit_rr(Opcode::kSarRR, rd, rs); }
    void neg(uint8_t r) { emit_reg(Opcode::kNeg, r); }
    void not_(uint8_t r) { emit_reg(Opcode::kNot, r); }
    void cmp_rr(uint8_t ra, uint8_t rb) { emit_rr(Opcode::kCmpRR, ra, rb); }
    void cmp_ri(uint8_t ra, int32_t i) { emit_ri(Opcode::kCmpRI, ra, i); }
    void test_rr(uint8_t ra, uint8_t rb) { emit_rr(Opcode::kTestRR, ra, rb); }

    void jmp(const std::string &label);
    void jcc(Cond cond, const std::string &label);
    void call(const std::string &label);
    void jmp_reg(uint8_t r) { emit_reg(Opcode::kJmpReg, r); }
    void call_reg(uint8_t r) { emit_reg(Opcode::kCallReg, r); }
    void jmp_mem(MemOperand m);
    void call_mem(MemOperand m);
    void ret() { emit_simple(Opcode::kRet); }

    void push(uint8_t r) { emit_reg(Opcode::kPush, r); }
    void pop(uint8_t r) { emit_reg(Opcode::kPop, r); }
    void push_imm(int32_t imm);

    void bndcl_mem(uint8_t bnd, MemOperand m);
    void bndcu_mem(uint8_t bnd, MemOperand m);
    void bndcl_reg(uint8_t bnd, uint8_t r);
    void bndcu_reg(uint8_t bnd, uint8_t r);
    void bndmk(uint8_t bnd, MemOperand m);

    /** Paper mem_guard pseudo-instruction: bndcl + bndcu on bnd0. */
    void
    mem_guard(MemOperand m)
    {
        bndcl_mem(kBndData, m);
        bndcu_mem(kBndData, m);
    }

    /**
     * Paper cfi_guard pseudo-instruction: load the 8 bytes at the
     * target into the scratch register and equality-check them
     * against bnd1 (set by the LibOS to the domain's label value).
     */
    void
    cfi_guard(uint8_t target_reg)
    {
        MemOperand m;
        m.mode = AddrMode::kBaseDisp;
        m.base = target_reg;
        m.disp = 0;
        load(kScratch, m);
        bndcl_reg(kBndCfi, kScratch);
        bndcu_reg(kBndCfi, kScratch);
    }

    // ---- finalize ----------------------------------------------------
    /** Current offset from the image base (before finish()). */
    size_t size_estimate() const { return cursor_; }

    /** Resolve labels, encode, and return the image. */
    Bytes finish();

    /** Offset of a bound label from the image base. */
    uint64_t label_offset(const std::string &name) const;

    uint64_t base() const { return base_; }

  private:
    struct Item {
        bool is_raw = false;
        Bytes raw_bytes;        // then zeros up to `length`
        Instruction instr;
        std::string label_ref;  // for direct transfers / mov_rl
        bool ref_is_addr = false; // mov_rl: patch imm with absolute addr
        std::string mem_ref;    // rip-relative mem operand target label
        uint64_t offset = 0;    // assigned during layout
        size_t length = 0;
    };

    void emit_simple(Opcode op);
    void emit_reg(Opcode op, uint8_t r);
    void emit_rr(Opcode op, uint8_t rd, uint8_t rs);
    void emit_ri(Opcode op, uint8_t rd, int64_t imm);
    void emit_rm(Opcode op, uint8_t r, MemOperand m);
    void push_item(Item item);

    uint64_t base_;
    size_t cursor_ = 0;
    std::vector<Item> items_;
    std::map<std::string, uint64_t> labels_;
};

/** Convenience MemOperand constructors. */
MemOperand mem_bd(uint8_t base, int32_t disp = 0);
MemOperand mem_sib(uint8_t base, uint8_t index, uint8_t scale_log2,
                   int32_t disp = 0);
MemOperand mem_rip(int32_t disp);
MemOperand mem_abs(uint64_t addr);

} // namespace occlum::isa

#endif // OCCLUM_ISA_ASSEMBLER_H
