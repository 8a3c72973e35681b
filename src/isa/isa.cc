#include "isa/isa.h"

#include <cstring>
#include <sstream>

#include "base/log.h"

namespace occlum::isa {

namespace {

/** Operand-layout signatures shared by encode/decode. */
enum class Sig {
    kNone,      // op
    kReg,       // op reg
    kRegImm64,  // op reg imm64
    kRegImm32,  // op reg imm32
    kRegImm8,   // op reg imm8
    kRegReg,    // op reg reg
    kRegMem,    // op reg mem   (also used for store: mem is destination)
    kMem,       // op mem
    kImm32,     // op imm32 (rel32 or pushed imm)
    kCondImm32, // op cond rel32
    kImm16,     // op imm16
    kBndMem,    // op bnd mem
    kBndReg,    // op bnd reg
    kBndBnd,    // op bnd bnd
    kCfi,       // 8-byte cfi_label
};

Sig
signature(Opcode op)
{
    switch (op) {
      case Opcode::kNop:
      case Opcode::kHlt:
      case Opcode::kLtrap:
      case Opcode::kEexit:
      case Opcode::kEaccept:
      case Opcode::kXrstor:
      case Opcode::kRet:
        return Sig::kNone;
      case Opcode::kWrfsbase:
      case Opcode::kRdcycle:
      case Opcode::kNeg:
      case Opcode::kNot:
      case Opcode::kJmpReg:
      case Opcode::kCallReg:
      case Opcode::kPush:
      case Opcode::kPop:
        return Sig::kReg;
      case Opcode::kMovRI:
        return Sig::kRegImm64;
      case Opcode::kAddRI:
      case Opcode::kSubRI:
      case Opcode::kMulRI:
      case Opcode::kAndRI:
      case Opcode::kOrRI:
      case Opcode::kXorRI:
      case Opcode::kCmpRI:
        return Sig::kRegImm32;
      case Opcode::kShlRI:
      case Opcode::kShrRI:
      case Opcode::kSarRI:
        return Sig::kRegImm8;
      case Opcode::kMovRR:
      case Opcode::kAddRR:
      case Opcode::kSubRR:
      case Opcode::kMulRR:
      case Opcode::kDivRR:
      case Opcode::kModRR:
      case Opcode::kAndRR:
      case Opcode::kOrRR:
      case Opcode::kXorRR:
      case Opcode::kShlRR:
      case Opcode::kShrRR:
      case Opcode::kSarRR:
      case Opcode::kCmpRR:
      case Opcode::kTestRR:
        return Sig::kRegReg;
      case Opcode::kLoad:
      case Opcode::kStore:
      case Opcode::kLea:
      case Opcode::kLoad8:
      case Opcode::kStore8:
      case Opcode::kLoad32:
      case Opcode::kStore32:
      case Opcode::kVGather:
        return Sig::kRegMem;
      case Opcode::kJmpMem:
      case Opcode::kCallMem:
        return Sig::kMem;
      case Opcode::kJmp:
      case Opcode::kCall:
      case Opcode::kPushImm:
        return Sig::kImm32;
      case Opcode::kJcc:
        return Sig::kCondImm32;
      case Opcode::kRetImm:
        return Sig::kImm16;
      case Opcode::kBndclMem:
      case Opcode::kBndcuMem:
      case Opcode::kBndmk:
        return Sig::kBndMem;
      case Opcode::kBndclReg:
      case Opcode::kBndcuReg:
        return Sig::kBndReg;
      case Opcode::kBndmov:
        return Sig::kBndBnd;
      case Opcode::kCfiLabel:
        return Sig::kCfi;
    }
    OCC_PANIC("unknown opcode " << static_cast<int>(op));
}

size_t
mem_encoded_length(const MemOperand &mem)
{
    switch (mem.mode) {
      case AddrMode::kBaseDisp: return 6;
      case AddrMode::kSib: return 8;
      case AddrMode::kRipRel: return 5;
      case AddrMode::kAbs: return 9;
    }
    OCC_PANIC("bad addr mode");
}

void
encode_mem(const MemOperand &mem, Bytes &out)
{
    out.push_back(static_cast<uint8_t>(mem.mode));
    switch (mem.mode) {
      case AddrMode::kBaseDisp:
        out.push_back(mem.base);
        put_le<uint32_t>(out, static_cast<uint32_t>(mem.disp));
        break;
      case AddrMode::kSib:
        out.push_back(mem.base);
        out.push_back(mem.index);
        out.push_back(mem.scale_log2);
        put_le<uint32_t>(out, static_cast<uint32_t>(mem.disp));
        break;
      case AddrMode::kRipRel:
        put_le<uint32_t>(out, static_cast<uint32_t>(mem.disp));
        break;
      case AddrMode::kAbs:
        put_le<uint64_t>(out, mem.abs_addr);
        break;
    }
}

/** Returns false on truncation / malformed fields. */
bool
decode_mem(const uint8_t *p, size_t avail, MemOperand &mem, size_t &used)
{
    if (avail < 1) return false;
    uint8_t mode = p[0];
    if (mode > static_cast<uint8_t>(AddrMode::kAbs)) return false;
    mem.mode = static_cast<AddrMode>(mode);
    used = mem_encoded_length(mem);
    if (avail < used) return false;
    switch (mem.mode) {
      case AddrMode::kBaseDisp:
        if (p[1] >= kNumRegs) return false;
        mem.base = p[1];
        mem.disp = static_cast<int32_t>(get_le<uint32_t>(p + 2));
        break;
      case AddrMode::kSib:
        if (p[1] >= kNumRegs || p[2] >= kNumRegs || p[3] > 3) return false;
        mem.base = p[1];
        mem.index = p[2];
        mem.scale_log2 = p[3];
        mem.disp = static_cast<int32_t>(get_le<uint32_t>(p + 4));
        break;
      case AddrMode::kRipRel:
        mem.disp = static_cast<int32_t>(get_le<uint32_t>(p + 1));
        break;
      case AddrMode::kAbs:
        mem.abs_addr = get_le<uint64_t>(p + 1);
        break;
    }
    return true;
}

bool
valid_opcode(uint8_t byte)
{
    switch (static_cast<Opcode>(byte)) {
      case Opcode::kNop: case Opcode::kHlt: case Opcode::kLtrap:
      case Opcode::kEexit: case Opcode::kEaccept: case Opcode::kXrstor:
      case Opcode::kWrfsbase: case Opcode::kRdcycle:
      case Opcode::kMovRI: case Opcode::kMovRR:
      case Opcode::kLoad: case Opcode::kStore: case Opcode::kLea:
      case Opcode::kLoad8: case Opcode::kStore8:
      case Opcode::kLoad32: case Opcode::kStore32: case Opcode::kVGather:
      case Opcode::kAddRR: case Opcode::kAddRI:
      case Opcode::kSubRR: case Opcode::kSubRI:
      case Opcode::kMulRR: case Opcode::kMulRI:
      case Opcode::kDivRR: case Opcode::kModRR:
      case Opcode::kAndRR: case Opcode::kAndRI:
      case Opcode::kOrRR: case Opcode::kOrRI:
      case Opcode::kXorRR: case Opcode::kXorRI:
      case Opcode::kShlRI: case Opcode::kShrRI: case Opcode::kSarRI:
      case Opcode::kShlRR: case Opcode::kShrRR: case Opcode::kSarRR:
      case Opcode::kNeg: case Opcode::kNot:
      case Opcode::kCmpRR: case Opcode::kCmpRI: case Opcode::kTestRR:
      case Opcode::kJmp: case Opcode::kJcc: case Opcode::kCall:
      case Opcode::kJmpReg: case Opcode::kCallReg:
      case Opcode::kJmpMem: case Opcode::kCallMem:
      case Opcode::kRet: case Opcode::kRetImm:
      case Opcode::kPush: case Opcode::kPop: case Opcode::kPushImm:
      case Opcode::kBndclMem: case Opcode::kBndcuMem:
      case Opcode::kBndclReg: case Opcode::kBndcuReg:
      case Opcode::kBndmk: case Opcode::kBndmov:
      case Opcode::kCfiLabel:
        return true;
    }
    return false;
}

std::string
mem_to_string(const MemOperand &mem)
{
    std::ostringstream ss;
    switch (mem.mode) {
      case AddrMode::kBaseDisp:
        ss << "[r" << int(mem.base) << std::showpos << mem.disp
           << std::noshowpos << "]";
        break;
      case AddrMode::kSib:
        ss << "[r" << int(mem.base) << "+r" << int(mem.index) << "*"
           << (1 << mem.scale_log2) << std::showpos << mem.disp
           << std::noshowpos << "]";
        break;
      case AddrMode::kRipRel:
        ss << "[rip" << std::showpos << mem.disp << std::noshowpos << "]";
        break;
      case AddrMode::kAbs:
        ss << "[0x" << std::hex << mem.abs_addr << std::dec << "]";
        break;
    }
    return ss.str();
}

} // namespace

bool
is_dangerous(Opcode op)
{
    switch (op) {
      case Opcode::kHlt:
      case Opcode::kLtrap:
      case Opcode::kEexit:
      case Opcode::kEaccept:
      case Opcode::kXrstor:
      case Opcode::kWrfsbase:
      case Opcode::kBndmk:
      case Opcode::kBndmov:
        return true;
      default:
        return false;
    }
}

TransferKind
transfer_kind(Opcode op)
{
    switch (op) {
      case Opcode::kJmp:
      case Opcode::kJcc:
      case Opcode::kCall:
        return TransferKind::kDirect;
      case Opcode::kJmpReg:
      case Opcode::kCallReg:
        return TransferKind::kRegisterIndirect;
      case Opcode::kJmpMem:
      case Opcode::kCallMem:
        return TransferKind::kMemoryIndirect;
      case Opcode::kRet:
      case Opcode::kRetImm:
        return TransferKind::kReturn;
      default:
        return TransferKind::kNone;
    }
}

bool
explicit_mem_access(Opcode op)
{
    switch (op) {
      case Opcode::kLoad:
      case Opcode::kStore:
      case Opcode::kLoad8:
      case Opcode::kStore8:
      case Opcode::kLoad32:
      case Opcode::kStore32:
      case Opcode::kVGather:
        return true;
      default:
        return false;
    }
}

bool
is_store(Opcode op)
{
    return op == Opcode::kStore || op == Opcode::kStore8 ||
           op == Opcode::kStore32;
}

bool
implicit_stack_access(Opcode op)
{
    switch (op) {
      case Opcode::kPush:
      case Opcode::kPop:
      case Opcode::kPushImm:
      case Opcode::kCall:
      case Opcode::kCallReg:
      case Opcode::kCallMem:
      case Opcode::kRet:
      case Opcode::kRetImm:
        return true;
      default:
        return false;
    }
}

uint32_t
cycle_cost(const Instruction &instr)
{
    switch (instr.op) {
      case Opcode::kNop:
      case Opcode::kCfiLabel:
        return 1;
      case Opcode::kLoad:
      case Opcode::kLoad8:
      case Opcode::kLoad32:
      case Opcode::kPop:
        return 4; // L1-hit latency
      case Opcode::kStore:
      case Opcode::kStore8:
      case Opcode::kStore32:
      case Opcode::kPush:
      case Opcode::kPushImm:
        return 3;
      case Opcode::kVGather:
        return 12;
      case Opcode::kMulRR:
      case Opcode::kMulRI:
        return 3;
      case Opcode::kDivRR:
      case Opcode::kModRR:
        return 22;
      case Opcode::kJmp:
      case Opcode::kJcc:
        return 2; // average with predictor
      case Opcode::kCall:
      case Opcode::kCallReg:
      case Opcode::kCallMem:
      case Opcode::kRet:
      case Opcode::kRetImm:
      case Opcode::kJmpReg:
      case Opcode::kJmpMem:
        return 4;
      case Opcode::kBndclMem:
      case Opcode::kBndcuMem:
      case Opcode::kBndclReg:
      case Opcode::kBndcuReg:
        // An MPX bound check retires in ~1-2 cycles, but against -O2
        // x86-64 code one source-level operation is ~3-4x fewer
        // machine instructions than our naive codegen emits, which
        // would dilute the instrumentation ratio Fig. 7 measures.
        // Charging 7 cycles per check keeps the check-to-work ratio
        // of real MPX-instrumented binaries (see EXPERIMENTS.md).
        return 7;
      default:
        return 1;
    }
}

const char *
opcode_name(Opcode op)
{
    switch (op) {
      case Opcode::kNop: return "nop";
      case Opcode::kHlt: return "hlt";
      case Opcode::kLtrap: return "ltrap";
      case Opcode::kEexit: return "eexit";
      case Opcode::kEaccept: return "eaccept";
      case Opcode::kXrstor: return "xrstor";
      case Opcode::kWrfsbase: return "wrfsbase";
      case Opcode::kRdcycle: return "rdcycle";
      case Opcode::kMovRI: return "mov";
      case Opcode::kMovRR: return "mov";
      case Opcode::kLoad: return "load";
      case Opcode::kStore: return "store";
      case Opcode::kLea: return "lea";
      case Opcode::kLoad8: return "load8";
      case Opcode::kStore8: return "store8";
      case Opcode::kLoad32: return "load32";
      case Opcode::kStore32: return "store32";
      case Opcode::kVGather: return "vgather";
      case Opcode::kAddRR: case Opcode::kAddRI: return "add";
      case Opcode::kSubRR: case Opcode::kSubRI: return "sub";
      case Opcode::kMulRR: case Opcode::kMulRI: return "mul";
      case Opcode::kDivRR: return "div";
      case Opcode::kModRR: return "mod";
      case Opcode::kAndRR: case Opcode::kAndRI: return "and";
      case Opcode::kOrRR: case Opcode::kOrRI: return "or";
      case Opcode::kXorRR: case Opcode::kXorRI: return "xor";
      case Opcode::kShlRI: case Opcode::kShlRR: return "shl";
      case Opcode::kShrRI: case Opcode::kShrRR: return "shr";
      case Opcode::kSarRI: case Opcode::kSarRR: return "sar";
      case Opcode::kNeg: return "neg";
      case Opcode::kNot: return "not";
      case Opcode::kCmpRR: case Opcode::kCmpRI: return "cmp";
      case Opcode::kTestRR: return "test";
      case Opcode::kJmp: return "jmp";
      case Opcode::kJcc: return "jcc";
      case Opcode::kCall: return "call";
      case Opcode::kJmpReg: return "jmp";
      case Opcode::kCallReg: return "call";
      case Opcode::kJmpMem: return "jmp";
      case Opcode::kCallMem: return "call";
      case Opcode::kRet: return "ret";
      case Opcode::kRetImm: return "ret";
      case Opcode::kPush: return "push";
      case Opcode::kPop: return "pop";
      case Opcode::kPushImm: return "push";
      case Opcode::kBndclMem: case Opcode::kBndclReg: return "bndcl";
      case Opcode::kBndcuMem: case Opcode::kBndcuReg: return "bndcu";
      case Opcode::kBndmk: return "bndmk";
      case Opcode::kBndmov: return "bndmov";
      case Opcode::kCfiLabel: return "cfi_label";
    }
    return "?";
}

const char *
cond_name(Cond cond)
{
    switch (cond) {
      case Cond::kEq: return "eq";
      case Cond::kNe: return "ne";
      case Cond::kLt: return "lt";
      case Cond::kLe: return "le";
      case Cond::kGt: return "gt";
      case Cond::kGe: return "ge";
      case Cond::kB: return "b";
      case Cond::kBe: return "be";
      case Cond::kA: return "a";
      case Cond::kAe: return "ae";
    }
    return "?";
}

size_t
find_cfi_label(const uint8_t *code, size_t size, size_t from)
{
    if (size < kCfiLabelSize) {
        return size;
    }
    const size_t starts = size - kCfiLabelSize + 1;
    for (size_t i = from; i < starts; ++i) {
        const void *hit = std::memchr(code + i, kCfiMagic[0], starts - i);
        if (!hit) {
            break;
        }
        i = static_cast<const uint8_t *>(hit) - code;
        if (std::memcmp(code + i, kCfiMagic, 4) == 0) {
            return i;
        }
    }
    return size;
}

size_t
encoded_length(const Instruction &instr)
{
    switch (signature(instr.op)) {
      case Sig::kNone: return 1;
      case Sig::kReg: return 2;
      case Sig::kRegImm64: return 10;
      case Sig::kRegImm32: return 6;
      case Sig::kRegImm8: return 3;
      case Sig::kRegReg: return 3;
      case Sig::kRegMem: return 2 + mem_encoded_length(instr.mem);
      case Sig::kMem: return 1 + mem_encoded_length(instr.mem);
      case Sig::kImm32: return 5;
      case Sig::kCondImm32: return 6;
      case Sig::kImm16: return 3;
      case Sig::kBndMem: return 2 + mem_encoded_length(instr.mem);
      case Sig::kBndReg: return 3;
      case Sig::kBndBnd: return 3;
      case Sig::kCfi: return kCfiLabelSize;
    }
    OCC_PANIC("bad signature");
}

size_t
encode(const Instruction &instr, Bytes &out)
{
    size_t start = out.size();
    if (instr.op == Opcode::kCfiLabel) {
        out.insert(out.end(), std::begin(kCfiMagic), std::end(kCfiMagic));
        put_le<uint32_t>(out, instr.label_id);
        return out.size() - start;
    }
    out.push_back(static_cast<uint8_t>(instr.op));
    switch (signature(instr.op)) {
      case Sig::kNone:
        break;
      case Sig::kReg:
        out.push_back(instr.reg1);
        break;
      case Sig::kRegImm64:
        out.push_back(instr.reg1);
        put_le<uint64_t>(out, static_cast<uint64_t>(instr.imm));
        break;
      case Sig::kRegImm32:
        out.push_back(instr.reg1);
        put_le<uint32_t>(out, static_cast<uint32_t>(instr.imm));
        break;
      case Sig::kRegImm8:
        out.push_back(instr.reg1);
        out.push_back(static_cast<uint8_t>(instr.imm));
        break;
      case Sig::kRegReg:
        out.push_back(instr.reg1);
        out.push_back(instr.reg2);
        break;
      case Sig::kRegMem:
        out.push_back(instr.reg1);
        encode_mem(instr.mem, out);
        break;
      case Sig::kMem:
        encode_mem(instr.mem, out);
        break;
      case Sig::kImm32:
        put_le<uint32_t>(out, static_cast<uint32_t>(instr.imm));
        break;
      case Sig::kCondImm32:
        out.push_back(static_cast<uint8_t>(instr.cond));
        put_le<uint32_t>(out, static_cast<uint32_t>(instr.imm));
        break;
      case Sig::kImm16:
        put_le<uint16_t>(out, static_cast<uint16_t>(instr.imm));
        break;
      case Sig::kBndMem:
        out.push_back(instr.bnd);
        encode_mem(instr.mem, out);
        break;
      case Sig::kBndReg:
        out.push_back(instr.bnd);
        out.push_back(instr.reg1);
        break;
      case Sig::kBndBnd:
        out.push_back(instr.bnd);
        out.push_back(instr.reg1); // second bound register index
        break;
      case Sig::kCfi:
        OCC_PANIC("unreachable");
    }
    return out.size() - start;
}

Result<Instruction>
decode(const uint8_t *code, size_t size, size_t offset, uint64_t vaddr)
{
    auto fail = [&](const std::string &why) -> Result<Instruction> {
        return Error(ErrorCode::kNoExec,
                     "decode @0x" + to_hex(
                         reinterpret_cast<const uint8_t *>(&vaddr), 8) +
                     ": " + why);
    };
    if (offset >= size) {
        return fail("out of range");
    }
    const uint8_t *p = code + offset;
    size_t avail = size - offset;

    Instruction instr;
    instr.address = vaddr;

    // cfi_label: full 4-byte magic required.
    if (p[0] == kCfiMagic[0]) {
        if (avail < kCfiLabelSize) return fail("truncated cfi_label");
        for (int i = 1; i < 4; ++i) {
            if (p[i] != kCfiMagic[i]) return fail("bad cfi_label magic");
        }
        instr.op = Opcode::kCfiLabel;
        instr.label_id = get_le<uint32_t>(p + 4);
        instr.length = kCfiLabelSize;
        instr.cost = cycle_cost(instr);
        return instr;
    }

    if (!valid_opcode(p[0])) {
        return fail("invalid opcode");
    }
    instr.op = static_cast<Opcode>(p[0]);

    auto need = [&](size_t n) { return avail >= n; };
    auto reg_ok = [&](uint8_t r) { return r < kNumRegs; };
    auto bnd_ok = [&](uint8_t b) { return b < kNumBndRegs; };

    switch (signature(instr.op)) {
      case Sig::kNone:
        instr.length = 1;
        break;
      case Sig::kReg:
        if (!need(2) || !reg_ok(p[1])) return fail("bad reg operand");
        instr.reg1 = p[1];
        instr.length = 2;
        break;
      case Sig::kRegImm64:
        if (!need(10) || !reg_ok(p[1])) return fail("bad mov ri");
        instr.reg1 = p[1];
        instr.imm = static_cast<int64_t>(get_le<uint64_t>(p + 2));
        instr.length = 10;
        break;
      case Sig::kRegImm32:
        if (!need(6) || !reg_ok(p[1])) return fail("bad reg imm32");
        instr.reg1 = p[1];
        instr.imm = static_cast<int32_t>(get_le<uint32_t>(p + 2));
        instr.length = 6;
        break;
      case Sig::kRegImm8:
        if (!need(3) || !reg_ok(p[1])) return fail("bad reg imm8");
        instr.reg1 = p[1];
        instr.imm = p[2];
        if (instr.imm > 63) return fail("shift amount > 63");
        instr.length = 3;
        break;
      case Sig::kRegReg:
        if (!need(3) || !reg_ok(p[1]) || !reg_ok(p[2])) {
            return fail("bad reg reg");
        }
        instr.reg1 = p[1];
        instr.reg2 = p[2];
        instr.length = 3;
        break;
      case Sig::kRegMem: {
        if (!need(2) || !reg_ok(p[1])) return fail("bad reg mem");
        instr.reg1 = p[1];
        size_t used = 0;
        if (!decode_mem(p + 2, avail - 2, instr.mem, used)) {
            return fail("bad mem operand");
        }
        instr.length = static_cast<uint32_t>(2 + used);
        break;
      }
      case Sig::kMem: {
        size_t used = 0;
        if (!need(2) || !decode_mem(p + 1, avail - 1, instr.mem, used)) {
            return fail("bad mem operand");
        }
        instr.length = static_cast<uint32_t>(1 + used);
        break;
      }
      case Sig::kImm32:
        if (!need(5)) return fail("truncated imm32");
        instr.imm = static_cast<int32_t>(get_le<uint32_t>(p + 1));
        instr.length = 5;
        break;
      case Sig::kCondImm32:
        if (!need(6) || p[1] >= kNumConds) return fail("bad jcc");
        instr.cond = static_cast<Cond>(p[1]);
        instr.imm = static_cast<int32_t>(get_le<uint32_t>(p + 2));
        instr.length = 6;
        break;
      case Sig::kImm16:
        if (!need(3)) return fail("truncated imm16");
        instr.imm = get_le<uint16_t>(p + 1);
        instr.length = 3;
        break;
      case Sig::kBndMem: {
        if (!need(2) || !bnd_ok(p[1])) return fail("bad bnd mem");
        instr.bnd = p[1];
        size_t used = 0;
        if (!decode_mem(p + 2, avail - 2, instr.mem, used)) {
            return fail("bad mem operand");
        }
        instr.length = static_cast<uint32_t>(2 + used);
        break;
      }
      case Sig::kBndReg:
        if (!need(3) || !bnd_ok(p[1]) || !reg_ok(p[2])) {
            return fail("bad bnd reg");
        }
        instr.bnd = p[1];
        instr.reg1 = p[2];
        instr.length = 3;
        break;
      case Sig::kBndBnd:
        if (!need(3) || !bnd_ok(p[1]) || !bnd_ok(p[2])) {
            return fail("bad bnd bnd");
        }
        instr.bnd = p[1];
        instr.reg1 = p[2];
        instr.length = 3;
        break;
      case Sig::kCfi:
        return fail("unreachable");
    }
    instr.cost = cycle_cost(instr);
    return instr;
}

std::string
to_string(const Instruction &instr)
{
    std::ostringstream ss;
    ss << opcode_name(instr.op);
    switch (signature(instr.op)) {
      case Sig::kNone:
        break;
      case Sig::kReg:
        ss << " r" << int(instr.reg1);
        break;
      case Sig::kRegImm64:
      case Sig::kRegImm32:
      case Sig::kRegImm8:
        ss << " r" << int(instr.reg1) << ", " << instr.imm;
        break;
      case Sig::kRegReg:
        ss << " r" << int(instr.reg1) << ", r" << int(instr.reg2);
        break;
      case Sig::kRegMem:
        if (is_store(instr.op)) {
            ss << " " << mem_to_string(instr.mem) << ", r"
               << int(instr.reg1);
        } else {
            ss << " r" << int(instr.reg1) << ", "
               << mem_to_string(instr.mem);
        }
        break;
      case Sig::kMem:
        ss << " *" << mem_to_string(instr.mem);
        break;
      case Sig::kImm32:
        if (transfer_kind(instr.op) == TransferKind::kDirect) {
            ss << " 0x" << std::hex << instr.direct_target() << std::dec;
        } else {
            ss << " " << instr.imm;
        }
        break;
      case Sig::kCondImm32:
        ss << "." << cond_name(instr.cond) << " 0x" << std::hex
           << instr.direct_target() << std::dec;
        break;
      case Sig::kImm16:
        ss << " " << instr.imm;
        break;
      case Sig::kBndMem:
        ss << " b" << int(instr.bnd) << ", " << mem_to_string(instr.mem);
        break;
      case Sig::kBndReg:
        ss << " b" << int(instr.bnd) << ", r" << int(instr.reg1);
        break;
      case Sig::kBndBnd:
        ss << " b" << int(instr.bnd) << ", b" << int(instr.reg1);
        break;
      case Sig::kCfi:
        ss << " " << instr.label_id;
        break;
    }
    return ss.str();
}

} // namespace occlum::isa
