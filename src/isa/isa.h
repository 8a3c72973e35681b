/**
 * @file
 * The OVM instruction set: a 64-bit, little-endian, variable-length
 * ISA modeled on the x86-64 subset that matters to MMDSFI.
 *
 * Design requirements inherited from the paper:
 *  - Variable-length encoding, so that jumping into the middle of an
 *    instruction decodes to a *different* instruction stream. This is
 *    what makes complete disassembly (verifier Stage 1) and the
 *    cfi_label discipline meaningful.
 *  - MPX-style bound registers bnd0..bnd3 with lower/upper check
 *    instructions that raise #BR on violation (paper §2.3).
 *  - The four control-transfer categories of paper Fig. 3 (direct,
 *    register-indirect, memory-indirect, return) and the five memory
 *    addressing categories of paper Fig. 4 (SIB, implicit
 *    register-based via push/pop, RIP-relative, direct 64-bit offset,
 *    vector SIB).
 *  - "Dangerous" privileged instructions that verifier Stage 2 must
 *    reject: SGX analogs (eexit/eaccept), MPX mutation (bndmk/bndmov),
 *    and miscellaneous state-smashing ops (xrstor/wrfsbase), plus
 *    ltrap, the LibOS trap reserved for the loader's trampoline.
 *  - An 8-byte cfi_label encoding whose first four bytes are a magic
 *    that the toolchain never emits in any other position and whose
 *    last four bytes hold the domain ID (paper §4.2).
 */
#ifndef OCCLUM_ISA_ISA_H
#define OCCLUM_ISA_ISA_H

#include <cstdint>
#include <optional>
#include <string>

#include "base/bytes.h"
#include "base/result.h"

namespace occlum::isa {

/** Number of general-purpose registers. */
constexpr int kNumRegs = 16;
/** Register 15 is the stack pointer (implicit in push/pop/call). */
constexpr uint8_t kSp = 15;
/** Register 13 is reserved by the toolchain as instrumentation scratch. */
constexpr uint8_t kScratch = 13;
/** Number of MPX-style bound registers. */
constexpr int kNumBndRegs = 4;
/** bnd0 holds [D.begin, D.end-1]; bnd1 holds the cfi_label value. */
constexpr uint8_t kBndData = 0;
constexpr uint8_t kBndCfi = 1;

/**
 * cfi_label magic: the first four encoded bytes. Byte 0 (0xCF) is an
 * opcode reserved exclusively for cfi_label; bytes 1..3 further
 * disambiguate against data embedded in immediates.
 */
constexpr uint8_t kCfiMagic[4] = {0xCF, 0x1A, 0xBE, 0x1D};
/** Total encoded size of a cfi_label. */
constexpr size_t kCfiLabelSize = 8;

/** The 64-bit value read from memory at a cfi_label for `domain_id`. */
constexpr uint64_t
cfi_label_value(uint32_t domain_id)
{
    return 0x1DBE1ACFull | (static_cast<uint64_t>(domain_id) << 32);
}

/**
 * Offset of the first cfi_label magic in code[from, size) with room
 * for a whole label after it (no label starts in the last 7 bytes),
 * or `size` if there is none. Candidates are found with a memchr for
 * the magic's first byte, so label-free runs such as link padding
 * cost memchr speed rather than a compare per byte.
 */
size_t find_cfi_label(const uint8_t *code, size_t size, size_t from);

/** Operation codes. Gaps are reserved. */
enum class Opcode : uint8_t {
    kNop = 0x00,
    kHlt = 0x01,      // privileged: stops the CPU (dangerous)
    kLtrap = 0x02,    // privileged: trap into the LibOS (trampoline only)
    kEexit = 0x03,    // SGX analog: exit the enclave (dangerous)
    kEaccept = 0x04,  // SGX analog: change page perms (dangerous)
    kXrstor = 0x05,   // restores extended state incl. MPX (dangerous)
    kWrfsbase = 0x06, // writes FS segment base (dangerous)
    kRdcycle = 0x07,  // read simulated cycle counter (benign)

    kMovRI = 0x10,  // reg <- imm64
    kMovRR = 0x11,  // reg <- reg
    kLoad = 0x12,   // reg <- [mem], 64-bit
    kStore = 0x13,  // [mem] <- reg, 64-bit
    kLea = 0x14,    // reg <- effective address of mem
    kLoad8 = 0x15,  // reg <- zero-extended byte
    kStore8 = 0x16, // [mem] <- low byte of reg
    kLoad32 = 0x17, // reg <- zero-extended dword
    kStore32 = 0x18,// [mem] <- low dword of reg
    kVGather = 0x19,// vector-SIB analog: multi-address load (rejected)

    kAddRR = 0x20, kAddRI = 0x21,
    kSubRR = 0x22, kSubRI = 0x23,
    kMulRR = 0x24, kMulRI = 0x25,
    kDivRR = 0x26, kModRR = 0x27,
    kAndRR = 0x28, kAndRI = 0x29,
    kOrRR = 0x2a, kOrRI = 0x2b,
    kXorRR = 0x2c, kXorRI = 0x2d,
    kShlRI = 0x2e, kShrRI = 0x2f, kSarRI = 0x30,
    kShlRR = 0x31, kShrRR = 0x32, kSarRR = 0x33,
    kNeg = 0x34, kNot = 0x35,
    kCmpRR = 0x36, kCmpRI = 0x37, kTestRR = 0x38,

    kJmp = 0x40,     // direct: rel32 from end of instruction
    kJcc = 0x41,     // conditional direct: cond byte + rel32
    kCall = 0x42,    // direct call: pushes return address
    kJmpReg = 0x43,  // register-based indirect jump
    kCallReg = 0x44, // register-based indirect call
    kJmpMem = 0x45,  // memory-based indirect jump (rejected)
    kCallMem = 0x46, // memory-based indirect call (rejected)
    kRet = 0x47,     // return (rejected; rewritten by the toolchain)
    kRetImm = 0x48,  // return + pop imm16 (rejected)

    kPush = 0x50,    // [sp-8] <- reg; sp -= 8
    kPop = 0x51,     // reg <- [sp]; sp += 8
    kPushImm = 0x52, // push sign-extended imm32

    kBndclMem = 0x60, // #BR if EA(mem) < bnd.lo
    kBndcuMem = 0x61, // #BR if EA(mem) > bnd.hi
    kBndclReg = 0x62, // #BR if reg < bnd.lo
    kBndcuReg = 0x63, // #BR if reg > bnd.hi
    kBndmk = 0x64,    // make bounds (dangerous)
    kBndmov = 0x65,   // move bounds (dangerous)

    kCfiLabel = 0xCF, // 8-byte no-op label; last 4 bytes = domain ID
};

/** Branch conditions for kJcc, evaluated against the flags register. */
enum class Cond : uint8_t {
    kEq = 0,  // ZF
    kNe = 1,  // !ZF
    kLt = 2,  // signed <
    kLe = 3,  // signed <=
    kGt = 4,  // signed >
    kGe = 5,  // signed >=
    kB = 6,   // unsigned <
    kBe = 7,  // unsigned <=
    kA = 8,   // unsigned >
    kAe = 9,  // unsigned >=
};
constexpr int kNumConds = 10;

/** Memory addressing modes (paper Fig. 4 categories). */
enum class AddrMode : uint8_t {
    kBaseDisp = 0, // [base + disp32]
    kSib = 1,      // [base + index * 2^scale + disp32]
    kRipRel = 2,   // [rip_end + disp32]
    kAbs = 3,      // [imm64]  (direct memory offset; always rejected)
};

/** A decoded memory operand. */
struct MemOperand {
    AddrMode mode = AddrMode::kBaseDisp;
    uint8_t base = 0;
    uint8_t index = 0;
    uint8_t scale_log2 = 0; // 0..3
    int32_t disp = 0;
    uint64_t abs_addr = 0;

    bool
    operator==(const MemOperand &o) const
    {
        if (mode != o.mode) return false;
        switch (mode) {
          case AddrMode::kBaseDisp:
            return base == o.base && disp == o.disp;
          case AddrMode::kSib:
            return base == o.base && index == o.index &&
                   scale_log2 == o.scale_log2 && disp == o.disp;
          case AddrMode::kRipRel:
            return disp == o.disp;
          case AddrMode::kAbs:
            return abs_addr == o.abs_addr;
        }
        return false;
    }
};

/** A decoded instruction. `address`/`length` identify it in the image. */
struct Instruction {
    Opcode op = Opcode::kNop;
    uint8_t reg1 = 0;     // destination / first register operand
    uint8_t reg2 = 0;     // source / second register operand
    uint8_t bnd = 0;      // bound register index for bnd* ops
    Cond cond = Cond::kEq;
    int64_t imm = 0;      // immediate / rel32 (sign-extended)
    MemOperand mem;
    uint32_t label_id = 0; // cfi_label domain ID field

    uint64_t address = 0; // virtual address of the first byte
    uint32_t length = 0;  // encoded length in bytes

    /**
     * cycle_cost(*this), stamped by decode() so the VM's dispatch
     * loop charges a precomputed field instead of re-classifying the
     * opcode on every execution. Identical value, cheaper to read.
     */
    uint32_t cost = 1;

    /** Address of the next sequential instruction. */
    uint64_t end() const { return address + length; }

    /** Target of a direct jmp/jcc/call (rel32 from end). */
    uint64_t
    direct_target() const
    {
        return end() + static_cast<uint64_t>(imm);
    }
};

// ---- Instruction classification used by the verifier -------------------

/** True for instructions verifier Stage 2 must reject (paper §5). */
bool is_dangerous(Opcode op);

/** Control-transfer categories of paper Fig. 3. */
enum class TransferKind {
    kNone,
    kDirect,         // jmp/jcc/call rel32
    kRegisterIndirect,
    kMemoryIndirect,
    kReturn,
};
TransferKind transfer_kind(Opcode op);

/** True if the instruction reads or writes memory through `mem`. */
bool explicit_mem_access(Opcode op);
/** True if the explicit access is a store (write). */
bool is_store(Opcode op);
/** True for push/pop/call-style implicit stack accesses. */
bool implicit_stack_access(Opcode op);

/** Cycle cost charged by the VM per executed instruction. */
uint32_t cycle_cost(const Instruction &instr);

/** Mnemonic, for the disassembler and error messages. */
const char *opcode_name(Opcode op);
const char *cond_name(Cond cond);

// ---- Encoding / decoding ------------------------------------------------

/** Append the encoding of `instr` to `out`; returns encoded length. */
size_t encode(const Instruction &instr, Bytes &out);

/** Encoded length without materializing bytes. */
size_t encoded_length(const Instruction &instr);

/**
 * Decode one instruction at `code + offset`, whose first byte lives at
 * virtual address `vaddr`. Fails on truncated or unknown encodings.
 */
Result<Instruction> decode(const uint8_t *code, size_t size, size_t offset,
                           uint64_t vaddr);

/** Render one instruction as assembly text. */
std::string to_string(const Instruction &instr);

} // namespace occlum::isa

#endif // OCCLUM_ISA_ISA_H
