#include "verifier/verifier.h"

#include <deque>
#include <set>
#include <unordered_map>

#include "base/log.h"
#include "oelf/abi.h"

namespace occlum::verifier {

using isa::Instruction;
using isa::Opcode;
using isa::TransferKind;

namespace {

/** Downward slack assumed for sp at every cfi_label (see oskit). */
constexpr int64_t kSpSlack = 2048;
/** Guard-region size (must match oelf::kGuardSize). */
constexpr int64_t kGuard = 4096;
/** Widest single memory access. */
constexpr int64_t kMaxAccess = 8;
/** Join budget per instruction before widening to Top. */
constexpr int kMaxJoins = 24;
/** Stage 1 byte-map entry for a byte no reachable instruction covers. */
constexpr uint8_t kUncovered = 0xFF;

// ---------------------------------------------------------------------
// Abstract values: intervals in absolute or domain-relative coordinates
// ---------------------------------------------------------------------

struct AbsVal {
    enum class Kind { kTop, kConst, kDomRel };
    Kind kind = Kind::kTop;
    int64_t lo = 0;
    int64_t hi = 0;

    static AbsVal
    top()
    {
        return AbsVal{};
    }

    static AbsVal
    constant(int64_t lo, int64_t hi)
    {
        AbsVal v;
        v.kind = Kind::kConst;
        v.lo = lo;
        v.hi = hi;
        return v;
    }

    static AbsVal
    dom(int64_t lo, int64_t hi)
    {
        AbsVal v;
        v.kind = Kind::kDomRel;
        v.lo = lo;
        v.hi = hi;
        return v;
    }

    bool is_top() const { return kind == Kind::kTop; }

    bool
    operator==(const AbsVal &o) const
    {
        if (kind != o.kind) return false;
        if (kind == Kind::kTop) return true;
        return lo == o.lo && hi == o.hi;
    }
};

constexpr int64_t kWidthCap = 1ll << 40;

AbsVal
normalize(AbsVal v)
{
    if (v.kind != AbsVal::Kind::kTop &&
        (v.hi < v.lo || v.hi - v.lo > kWidthCap)) {
        return AbsVal::top();
    }
    return v;
}

/** Saturating add of a constant interval. */
AbsVal
shift(AbsVal v, int64_t lo_delta, int64_t hi_delta)
{
    if (v.is_top()) return v;
    // Interval endpoints are small in practice (domain offsets);
    // saturate defensively.
    __int128 lo = static_cast<__int128>(v.lo) + lo_delta;
    __int128 hi = static_cast<__int128>(v.hi) + hi_delta;
    if (lo < INT64_MIN / 2 || hi > INT64_MAX / 2) return AbsVal::top();
    v.lo = static_cast<int64_t>(lo);
    v.hi = static_cast<int64_t>(hi);
    return normalize(v);
}

AbsVal
add_vals(const AbsVal &a, const AbsVal &b)
{
    if (a.is_top() || b.is_top()) return AbsVal::top();
    if (a.kind == AbsVal::Kind::kDomRel &&
        b.kind == AbsVal::Kind::kDomRel) {
        return AbsVal::top(); // 2*base has no meaning
    }
    AbsVal out = shift(a, b.lo, b.hi);
    if (out.is_top()) return out;
    out.kind = (a.kind == AbsVal::Kind::kDomRel ||
                b.kind == AbsVal::Kind::kDomRel)
                   ? AbsVal::Kind::kDomRel
                   : AbsVal::Kind::kConst;
    return out;
}

AbsVal
sub_vals(const AbsVal &a, const AbsVal &b)
{
    if (a.is_top() || b.is_top()) return AbsVal::top();
    AbsVal out = shift(a, -b.hi, -b.lo);
    if (out.is_top()) return out;
    if (a.kind == AbsVal::Kind::kDomRel &&
        b.kind == AbsVal::Kind::kDomRel) {
        out.kind = AbsVal::Kind::kConst; // base cancels
    } else if (a.kind == AbsVal::Kind::kConst &&
               b.kind == AbsVal::Kind::kDomRel) {
        return AbsVal::top();
    } else {
        out.kind = a.kind;
    }
    return out;
}

AbsVal
join(const AbsVal &a, const AbsVal &b)
{
    if (a.is_top() || b.is_top() || a.kind != b.kind) {
        if (a == b) return a;
        return AbsVal::top();
    }
    // No width cap here: a half-bounded interval produced by a lone
    // bndcl must survive the join at a loop head so the matching
    // bndcu can still narrow it. Divergence across fixpoint rounds is
    // handled by the per-instruction join-count widening instead.
    AbsVal v;
    v.kind = a.kind;
    v.lo = std::min(a.lo, b.lo);
    v.hi = std::max(a.hi, b.hi);
    return v;
}

AbsVal
intersect(const AbsVal &a, int64_t lo, int64_t hi, AbsVal::Kind kind)
{
    // Note: no width cap here — a lone bndcl legitimately yields a
    // half-bounded interval that the matching bndcu then narrows.
    if (a.is_top()) {
        AbsVal v;
        v.kind = kind;
        v.lo = lo;
        v.hi = hi;
        return v.hi < v.lo ? AbsVal::top() : v;
    }
    if (a.kind != kind) {
        // Representations differ (e.g. a constant address checked
        // against the runtime domain bounds). The check proves the
        // value lies in [lo, hi] on every non-faulting path, which is
        // a true fact on its own; adopt it and drop the old view.
        AbsVal v;
        v.kind = kind;
        v.lo = lo;
        v.hi = hi;
        return v.hi < v.lo ? AbsVal::top() : v;
    }
    AbsVal v = a;
    v.lo = std::max(v.lo, lo);
    v.hi = std::min(v.hi, hi);
    if (v.hi < v.lo) {
        // Contradiction: this path cannot execute past the check at
        // runtime (the check faults). Keep the empty-ish interval
        // pinned to the bound so downstream checks pass vacuously.
        v.lo = lo;
        v.hi = lo;
    }
    return v;
}

/** Per-instruction-entry machine state. */
struct State {
    std::array<AbsVal, isa::kNumRegs> regs;
    bool reachable = false;
};

State
join_states(const State &a, const State &b)
{
    State out;
    out.reachable = true;
    for (int i = 0; i < isa::kNumRegs; ++i) {
        out.regs[i] = join(a.regs[i], b.regs[i]);
    }
    return out;
}

bool
states_equal(const State &a, const State &b)
{
    for (int i = 0; i < isa::kNumRegs; ++i) {
        if (!(a.regs[i] == b.regs[i])) return false;
    }
    return true;
}

/** The whole verification context. */
class Analysis
{
  public:
    Analysis(const oelf::Image &image)
        : image_(image),
          code_(image.code),
          code_base_(oelf::Image::code_offset()),
          d_off_(static_cast<int64_t>(image.data_offset())),
          d_size_(static_cast<int64_t>(image.data_region_size()))
    {}

    VerifyReport run();

  private:
    // Stage implementations.
    VerifyReport stage1_disassemble();
    VerifyReport stage2_instruction_set();
    VerifyReport stage3_control_transfers();
    VerifyReport stage4_memory_accesses();

    const Instruction *instr_at(uint64_t off) const;
    /** Instruction immediately before `off` in address order. */
    const Instruction *prev_instr(uint64_t off) const;

    bool
    is_unconditional_stop(Opcode op) const
    {
        switch (op) {
          case Opcode::kJmp:
          case Opcode::kJmpReg:
          case Opcode::kJmpMem:
          case Opcode::kRet:
          case Opcode::kRetImm:
          case Opcode::kHlt:
          case Opcode::kEexit:
            return true;
          default:
            return false;
        }
    }

    State label_state() const;
    /** Effective address of a memory operand under `state`. */
    AbsVal ea_of(const State &state, const isa::MemOperand &mem,
                 uint64_t instr_end) const;
    /** EA within [D - G, D + G)? */
    bool ea_in_window(const AbsVal &ea, int64_t access_size) const;
    /** sp within the cfi_label entry assumption? */
    bool sp_in_slack(const AbsVal &sp, int64_t push_adjust) const;
    /** Back-propagate `EA in [lo, hi]` into the one free register. */
    void refine_operand(State &state, const isa::MemOperand &mem,
                        uint64_t instr_end, int64_t lo, int64_t hi) const;
    /** Apply one instruction to the state (no policy checks). */
    void transfer(const Instruction &instr, State &state) const;

    const oelf::Image &image_;
    const Bytes &code_;
    uint64_t code_base_;
    int64_t d_off_;
    int64_t d_size_;

    std::map<uint64_t, Instruction> reachable_; // code offset -> instr
    // Per code byte: distance back to the first byte of the reachable
    // instruction covering it, or kUncovered. One byte per code byte.
    std::vector<uint8_t> back_;
    std::set<uint64_t> labels_;                 // cfi_label offsets
    std::set<uint64_t> guard_exempt_loads_;     // cfi_guard member loads
    std::set<uint64_t> guard_interiors_;        // illegal direct targets
    std::unordered_map<uint64_t, State> in_states_;
    std::unordered_map<uint64_t, int> join_counts_;

    VerifyReport report_;
};

const Instruction *
Analysis::instr_at(uint64_t off) const
{
    auto it = reachable_.find(off);
    return it == reachable_.end() ? nullptr : &it->second;
}

const Instruction *
Analysis::prev_instr(uint64_t off) const
{
    if (off == 0 || off > code_.size()) {
        return nullptr;
    }
    uint8_t back = back_[off - 1];
    if (back == kUncovered) {
        return nullptr;
    }
    const Instruction *instr = instr_at(off - 1 - back);
    if (!instr || instr->address - code_base_ + instr->length != off) {
        return nullptr;
    }
    return instr;
}

VerifyReport
Analysis::stage1_disassemble()
{
    if (code_.empty()) {
        return VerifyReport::fail(1, "empty code segment");
    }
    back_.assign(code_.size(), kUncovered);

    // Roots: every cfi_label magic occurrence (paper Algorithm 1,
    // line 2), overlapping ones included — plus the entry point, which
    // must itself be a label.
    std::deque<uint64_t> worklist;
    for (size_t i = isa::find_cfi_label(code_.data(), code_.size(), 0);
         i < code_.size();
         i = isa::find_cfi_label(code_.data(), code_.size(), i + 1)) {
        labels_.insert(labels_.end(), i);
        worklist.push_back(i);
    }
    if (!labels_.count(image_.entry_offset)) {
        return VerifyReport::fail(1, "entry point is not a cfi_label",
                                  image_.entry_offset);
    }

    while (!worklist.empty()) {
        uint64_t addr = worklist.front();
        worklist.pop_front();
        while (true) {
            if (addr >= code_.size()) {
                return VerifyReport::fail(
                    1, "control flows past the end of the code segment",
                    addr);
            }
            if (back_[addr] == 0) {
                break; // already disassembled from here
            }
            auto decoded = isa::decode(code_.data(), code_.size(), addr,
                                       code_base_ + addr);
            if (!decoded.ok()) {
                return VerifyReport::fail(
                    1, "undecodable reachable bytes: " +
                           decoded.error().message,
                    addr);
            }
            Instruction instr = decoded.take();
            OCC_CHECK(instr.length < kUncovered);
            for (uint64_t b = addr; b < addr + instr.length; ++b) {
                if (back_[b] != kUncovered) {
                    return VerifyReport::fail(
                        1, "overlapping reachable instructions", addr);
                }
            }
            for (uint32_t k = 0; k < instr.length; ++k) {
                back_[addr + k] = static_cast<uint8_t>(k);
            }
            Opcode op = instr.op;
            if (isa::transfer_kind(op) == TransferKind::kDirect) {
                uint64_t target = instr.direct_target();
                if (target < code_base_ ||
                    target >= code_base_ + code_.size()) {
                    return VerifyReport::fail(
                        1, "direct transfer outside the code region",
                        addr);
                }
                worklist.push_back(target - code_base_);
            }
            reachable_.emplace(addr, instr);
            if (is_unconditional_stop(op)) {
                break;
            }
            addr += instr.length;
        }
    }
    report_.reachable_instructions = reachable_.size();
    report_.cfi_labels = labels_.size();
    return VerifyReport{};
}

VerifyReport
Analysis::stage2_instruction_set()
{
    for (const auto &[addr, instr] : reachable_) {
        if (isa::is_dangerous(instr.op)) {
            return VerifyReport::fail(
                2, std::string("dangerous instruction: ") +
                       isa::opcode_name(instr.op),
                addr);
        }
    }
    return VerifyReport{};
}

VerifyReport
Analysis::stage3_control_transfers()
{
    // Register-indirect transfers need an immediately preceding
    // cfi_guard; record its members.
    for (const auto &[addr, instr] : reachable_) {
        TransferKind kind = isa::transfer_kind(instr.op);
        if (kind == TransferKind::kMemoryIndirect) {
            return VerifyReport::fail(
                3, "memory-based indirect transfer", addr);
        }
        if (kind == TransferKind::kReturn) {
            return VerifyReport::fail(3, "return instruction", addr);
        }
        if (kind != TransferKind::kRegisterIndirect) {
            continue;
        }
        uint8_t target_reg = instr.reg1;
        const Instruction *cu = prev_instr(addr);
        const Instruction *cl =
            cu ? prev_instr(cu->address - code_base_) : nullptr;
        const Instruction *load =
            cl ? prev_instr(cl->address - code_base_) : nullptr;
        bool ok = cu && cl && load &&
                  cu->op == Opcode::kBndcuReg &&
                  cu->bnd == isa::kBndCfi &&
                  cu->reg1 == isa::kScratch &&
                  cl->op == Opcode::kBndclReg &&
                  cl->bnd == isa::kBndCfi &&
                  cl->reg1 == isa::kScratch &&
                  load->op == Opcode::kLoad &&
                  load->reg1 == isa::kScratch &&
                  load->mem.mode == isa::AddrMode::kBaseDisp &&
                  load->mem.base == target_reg && load->mem.disp == 0;
        if (!ok) {
            return VerifyReport::fail(
                3, "register-indirect transfer without cfi_guard", addr);
        }
        guard_exempt_loads_.insert(load->address - code_base_);
        // Interior members (jumping past the load skips the check).
        guard_interiors_.insert(cl->address - code_base_);
        guard_interiors_.insert(cu->address - code_base_);
        guard_interiors_.insert(addr);
    }

    // Direct transfers.
    for (const auto &[addr, instr] : reachable_) {
        if (isa::transfer_kind(instr.op) != TransferKind::kDirect) {
            continue;
        }
        uint64_t target = instr.direct_target() - code_base_;
        const Instruction *ti = instr_at(target);
        if (!ti) {
            return VerifyReport::fail(
                3, "direct transfer into the middle of an instruction",
                addr);
        }
        if (isa::transfer_kind(ti->op) ==
            TransferKind::kRegisterIndirect) {
            return VerifyReport::fail(
                3, "direct transfer targets an indirect transfer", addr);
        }
        if (guard_interiors_.count(target)) {
            return VerifyReport::fail(
                3, "direct transfer into a cfi_guard sequence", addr);
        }
    }
    return VerifyReport{};
}

State
Analysis::label_state() const
{
    State state;
    state.reachable = true;
    state.regs[isa::kSp] =
        AbsVal::dom(d_off_ - kSpSlack, d_off_ + d_size_ - 1 + kSpSlack);
    return state;
}

AbsVal
Analysis::ea_of(const State &state, const isa::MemOperand &mem,
                uint64_t instr_end) const
{
    switch (mem.mode) {
      case isa::AddrMode::kBaseDisp:
        return shift(state.regs[mem.base], mem.disp, mem.disp);
      case isa::AddrMode::kSib: {
        AbsVal index = state.regs[mem.index];
        if (index.kind != AbsVal::Kind::kConst) {
            return AbsVal::top();
        }
        __int128 ilo = static_cast<__int128>(index.lo)
                       << mem.scale_log2;
        __int128 ihi = static_cast<__int128>(index.hi)
                       << mem.scale_log2;
        if (ilo < INT64_MIN / 2 || ihi > INT64_MAX / 2) {
            return AbsVal::top();
        }
        AbsVal scaled = AbsVal::constant(static_cast<int64_t>(ilo),
                                         static_cast<int64_t>(ihi));
        return shift(add_vals(state.regs[mem.base], scaled), mem.disp,
                     mem.disp);
      }
      case isa::AddrMode::kRipRel:
        // Instruction addresses are already domain-relative.
        return AbsVal::dom(static_cast<int64_t>(instr_end) + mem.disp,
                           static_cast<int64_t>(instr_end) + mem.disp);
      case isa::AddrMode::kAbs:
        return AbsVal::constant(static_cast<int64_t>(mem.abs_addr),
                                static_cast<int64_t>(mem.abs_addr));
    }
    return AbsVal::top();
}

bool
Analysis::ea_in_window(const AbsVal &ea, int64_t access_size) const
{
    if (ea.kind != AbsVal::Kind::kDomRel) {
        return false;
    }
    return ea.lo >= d_off_ - kGuard &&
           ea.hi + access_size - 1 <= d_off_ + d_size_ - 1 + kGuard;
}

bool
Analysis::sp_in_slack(const AbsVal &sp, int64_t push_adjust) const
{
    if (sp.kind != AbsVal::Kind::kDomRel) {
        return false;
    }
    return sp.lo - push_adjust >= d_off_ - kSpSlack &&
           sp.hi <= d_off_ + d_size_ - 1 + kSpSlack;
}

void
Analysis::refine_operand(State &state, const isa::MemOperand &mem,
                         uint64_t instr_end, int64_t lo, int64_t hi) const
{
    switch (mem.mode) {
      case isa::AddrMode::kBaseDisp: {
        AbsVal &base = state.regs[mem.base];
        base = intersect(base, lo - mem.disp, hi - mem.disp,
                         AbsVal::Kind::kDomRel);
        break;
      }
      case isa::AddrMode::kSib: {
        const AbsVal &base = state.regs[mem.base];
        AbsVal &index = state.regs[mem.index];
        if (base.kind == AbsVal::Kind::kDomRel && base.lo == base.hi) {
            // EA = base + index*scale + disp in [lo, hi]
            int64_t scale = 1ll << mem.scale_log2;
            int64_t ilo = lo - base.lo - mem.disp;
            int64_t ihi = hi - base.lo - mem.disp;
            // Round inward toward the representable index range.
            int64_t idx_lo =
                (ilo >= 0 ? ilo + scale - 1 : ilo) / scale;
            int64_t idx_hi = (ihi >= 0 ? ihi : ihi - scale + 1) / scale;
            index = intersect(index, idx_lo, idx_hi,
                              AbsVal::Kind::kConst);
        }
        break;
      }
      case isa::AddrMode::kRipRel:
      case isa::AddrMode::kAbs:
        break;
      default:
        break;
    }
    (void)instr_end;
}

void
Analysis::transfer(const Instruction &instr, State &state) const
{
    auto &regs = state.regs;
    // Domain-relative end address (instr.address is domain-relative).
    uint64_t end_off = instr.address + instr.length;
    int64_t d_lo = d_off_;
    int64_t d_hi = d_off_ + d_size_ - 1;

    switch (instr.op) {
      case Opcode::kMovRI:
        regs[instr.reg1] = AbsVal::constant(instr.imm, instr.imm);
        break;
      case Opcode::kMovRR:
        regs[instr.reg1] = regs[instr.reg2];
        break;
      case Opcode::kAddRI:
        regs[instr.reg1] = shift(regs[instr.reg1], instr.imm, instr.imm);
        break;
      case Opcode::kSubRI:
        regs[instr.reg1] =
            shift(regs[instr.reg1], -instr.imm, -instr.imm);
        break;
      case Opcode::kAddRR:
        regs[instr.reg1] =
            add_vals(regs[instr.reg1], regs[instr.reg2]);
        break;
      case Opcode::kSubRR:
        regs[instr.reg1] =
            sub_vals(regs[instr.reg1], regs[instr.reg2]);
        break;
      case Opcode::kMulRI: {
        AbsVal v = regs[instr.reg1];
        if (v.kind == AbsVal::Kind::kConst && instr.imm >= 0 &&
            instr.imm < (1 << 20)) {
            __int128 lo = static_cast<__int128>(v.lo) * instr.imm;
            __int128 hi = static_cast<__int128>(v.hi) * instr.imm;
            if (lo >= INT64_MIN / 2 && hi <= INT64_MAX / 2) {
                regs[instr.reg1] = normalize(AbsVal::constant(
                    static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
                break;
            }
        }
        regs[instr.reg1] = AbsVal::top();
        break;
      }
      case Opcode::kShlRI: {
        AbsVal v = regs[instr.reg1];
        if (v.kind == AbsVal::Kind::kConst && instr.imm <= 20 &&
            v.lo >= -(1ll << 40) && v.hi <= (1ll << 40)) {
            regs[instr.reg1] = normalize(AbsVal::constant(
                v.lo << instr.imm, v.hi << instr.imm));
        } else {
            regs[instr.reg1] = AbsVal::top();
        }
        break;
      }
      case Opcode::kLea:
        regs[instr.reg1] = ea_of(state, instr.mem, end_off);
        break;

      case Opcode::kLoad:
      case Opcode::kLoad8:
      case Opcode::kLoad32:
      case Opcode::kVGather:
      case Opcode::kRdcycle:
      case Opcode::kMulRR:
      case Opcode::kDivRR:
      case Opcode::kModRR:
      case Opcode::kAndRR:
      case Opcode::kAndRI:
      case Opcode::kOrRR:
      case Opcode::kOrRI:
      case Opcode::kXorRR:
      case Opcode::kXorRI:
      case Opcode::kShrRI:
      case Opcode::kSarRI:
      case Opcode::kShlRR:
      case Opcode::kShrRR:
      case Opcode::kSarRR:
      case Opcode::kNeg:
      case Opcode::kNot:
        regs[instr.reg1] = AbsVal::top();
        break;

      case Opcode::kStore:
      case Opcode::kStore8:
      case Opcode::kStore32: {
        // Post-success refinement: a non-faulting access proved the
        // EA inside D (the window minus D is unmapped guard space).
        refine_operand(state, instr.mem, end_off, d_lo, d_hi);
        break;
      }

      case Opcode::kBndclMem:
        if (instr.bnd == isa::kBndData) {
            refine_operand(state, instr.mem, end_off, d_lo, INT64_MAX / 4);
        }
        break;
      case Opcode::kBndcuMem:
        if (instr.bnd == isa::kBndData) {
            refine_operand(state, instr.mem, end_off, INT64_MIN / 4, d_hi);
        }
        break;
      case Opcode::kBndclReg:
      case Opcode::kBndcuReg:
        break; // cfi_guard equality checks: no address information

      case Opcode::kPush:
      case Opcode::kPushImm: {
        AbsVal &sp = regs[isa::kSp];
        sp = intersect(sp, d_lo + 8, d_hi + 8, AbsVal::Kind::kDomRel);
        sp = shift(sp, -8, -8);
        break;
      }
      case Opcode::kPop: {
        AbsVal &sp = regs[isa::kSp];
        sp = intersect(sp, d_lo, d_hi, AbsVal::Kind::kDomRel);
        sp = shift(sp, 8, 8);
        regs[instr.reg1] = AbsVal::top();
        break;
      }
      case Opcode::kCall: {
        AbsVal &sp = regs[isa::kSp];
        sp = intersect(sp, d_lo + 8, d_hi + 8, AbsVal::Kind::kDomRel);
        sp = shift(sp, -8, -8);
        break;
      }
      default:
        break;
    }

    // Loads with refinement of their own operand (post-success).
    if (instr.op == Opcode::kLoad || instr.op == Opcode::kLoad8 ||
        instr.op == Opcode::kLoad32) {
        refine_operand(state, instr.mem, end_off, d_lo, d_hi);
    }
}

VerifyReport
Analysis::stage4_memory_accesses()
{
    // ---- phase A: fixpoint propagation ------------------------------
    std::deque<uint64_t> worklist;
    auto seed = [&](uint64_t off) {
        in_states_[off] = label_state();
        worklist.push_back(off);
    };
    for (uint64_t label : labels_) {
        if (reachable_.count(label)) {
            seed(label);
        }
    }
    seed(image_.entry_offset);

    auto merge_into = [&](uint64_t target, const State &incoming) {
        if (labels_.count(target)) {
            return; // labels keep their fixed assumption
        }
        auto it = in_states_.find(target);
        if (it == in_states_.end()) {
            in_states_[target] = incoming;
            worklist.push_back(target);
            return;
        }
        State joined = join_states(it->second, incoming);
        if (!states_equal(joined, it->second)) {
            int &joins = join_counts_[target];
            if (++joins > kMaxJoins) {
                // Widen: anything still changing goes to Top (sp too;
                // a Top sp will fail the checks and reject).
                for (int i = 0; i < isa::kNumRegs; ++i) {
                    if (!(joined.regs[i] == it->second.regs[i])) {
                        joined.regs[i] = AbsVal::top();
                    }
                }
            }
            if (!states_equal(joined, it->second)) {
                it->second = joined;
                worklist.push_back(target);
            }
        }
    };

    uint64_t iterations = 0;
    const uint64_t budget = 200ull * std::max<size_t>(
        reachable_.size(), 1) + 10000;
    while (!worklist.empty()) {
        if (++iterations > budget) {
            return VerifyReport::fail(
                4, "range analysis failed to converge");
        }
        uint64_t off = worklist.front();
        worklist.pop_front();
        State state = in_states_.at(off);
        const Instruction *instr = instr_at(off);
        if (!instr) {
            continue;
        }
        transfer(*instr, state);
        uint64_t next = off + instr->length;
        TransferKind kind = isa::transfer_kind(instr->op);
        if (kind == TransferKind::kDirect) {
            uint64_t target = instr->direct_target() - code_base_;
            if (instr->op != Opcode::kCall) {
                merge_into(target, state);
            }
            // call: the callee entry is a label (fixed state); the
            // return site is entered via the ret-rewrite (label too).
            if (instr->op == Opcode::kJcc) {
                merge_into(next, state);
            }
        } else if (kind == TransferKind::kNone &&
                   !is_unconditional_stop(instr->op)) {
            if (reachable_.count(next)) {
                merge_into(next, state);
            }
        }
        // Register-indirect transfers: targets are labels.
    }

    // ---- phase B: policy checks against the fixpoint ------------------
    for (const auto &[off, instr] : reachable_) {
        auto it = in_states_.find(off);
        if (it == in_states_.end() || !it->second.reachable) {
            continue; // dataflow-unreachable (e.g. code after exit)
        }
        const State &state = it->second;
        // Two coordinate systems: EA math is domain-relative
        // (instr.address includes the trampoline page); label lookup
        // and fallthrough use code offsets.
        uint64_t end_off = instr.address + instr.length;
        uint64_t end_code = off + instr.length;

        // Explicit memory accesses (paper Fig. 4).
        if (isa::explicit_mem_access(instr.op)) {
            if (instr.op == Opcode::kVGather) {
                return VerifyReport::fail(4, "vector-SIB access", off);
            }
            if (instr.mem.mode == isa::AddrMode::kAbs) {
                return VerifyReport::fail(
                    4, "direct-memory-offset access", off);
            }
            if (guard_exempt_loads_.count(off)) {
                ++report_.guarded_accesses;
            } else {
                int64_t size = instr.op == Opcode::kLoad8 ||
                                       instr.op == Opcode::kStore8
                                   ? 1
                               : instr.op == Opcode::kLoad32 ||
                                       instr.op == Opcode::kStore32
                                   ? 4
                                   : kMaxAccess;
                AbsVal ea = ea_of(state, instr.mem, end_off);
                if (!ea_in_window(ea, size)) {
                    std::string detail = " [ea kind=" +
                        std::to_string(static_cast<int>(ea.kind)) +
                        " lo=" + std::to_string(ea.lo) +
                        " hi=" + std::to_string(ea.hi) +
                        " base r" + std::to_string(instr.mem.base) +
                        " kind=" + std::to_string(static_cast<int>(
                            state.regs[instr.mem.base].kind)) +
                        " lo=" + std::to_string(
                            state.regs[instr.mem.base].lo) +
                        " hi=" + std::to_string(
                            state.regs[instr.mem.base].hi) + "]";
                    return VerifyReport::fail(
                        4,
                        "unprovable memory access: " +
                            isa::to_string(instr) + detail,
                        off);
                }
                ++report_.checked_accesses;
            }
        }

        // Implicit stack accesses.
        if (instr.op == Opcode::kPush || instr.op == Opcode::kPushImm ||
            instr.op == Opcode::kCall ||
            instr.op == Opcode::kCallReg) {
            AbsVal slot = shift(state.regs[isa::kSp], -8, -8);
            if (!ea_in_window(slot, 8)) {
                return VerifyReport::fail(
                    4, "unprovable stack push", off);
            }
        }
        if (instr.op == Opcode::kPop) {
            if (!ea_in_window(state.regs[isa::kSp], 8)) {
                return VerifyReport::fail(4, "unprovable stack pop", off);
            }
        }

        // Guard checks with a memory operand compute an EA but do not
        // access memory; nothing to verify for them.

        // Edge conditions re-establishing the cfi_label sp invariant.
        TransferKind kind = isa::transfer_kind(instr.op);
        State after = state;
        transfer(instr, after);
        const AbsVal &sp_after = after.regs[isa::kSp];
        if (kind == TransferKind::kRegisterIndirect) {
            if (!sp_in_slack(sp_after, 0)) {
                return VerifyReport::fail(
                    4, "sp unprovable at indirect transfer", off);
            }
        } else if (kind == TransferKind::kDirect) {
            uint64_t target = instr.direct_target() - code_base_;
            if (labels_.count(target) || instr.op == Opcode::kCall) {
                if (!sp_in_slack(sp_after, 0)) {
                    return VerifyReport::fail(
                        4, "sp unprovable at transfer to label", off);
                }
            }
        } else if (kind == TransferKind::kNone &&
                   labels_.count(end_code)) {
            // Fallthrough into a cfi_label.
            if (!sp_in_slack(sp_after, 0)) {
                return VerifyReport::fail(
                    4, "sp unprovable falling into a label", off);
            }
        }
    }
    return VerifyReport{};
}

VerifyReport
Analysis::run()
{
    for (auto stage : {&Analysis::stage1_disassemble,
                       &Analysis::stage2_instruction_set,
                       &Analysis::stage3_control_transfers,
                       &Analysis::stage4_memory_accesses}) {
        VerifyReport result = (this->*stage)();
        if (result.failed_stage != 0) {
            result.reachable_instructions =
                report_.reachable_instructions;
            result.cfi_labels = report_.cfi_labels;
            return result;
        }
    }
    report_.ok = true;
    return report_;
}

} // namespace

VerifyReport
Verifier::verify(const oelf::Image &image) const
{
    if (image.code.size() > (64ull << 20)) {
        return VerifyReport::fail(1, "code segment too large");
    }
    if (image.code_region_size() <
        ((image.code.size() + vm::kPageMask) & ~vm::kPageMask)) {
        return VerifyReport::fail(1, "code exceeds its reservation");
    }
    Analysis analysis(image);
    return analysis.run();
}

Result<oelf::SignedImage>
Verifier::verify_and_sign(oelf::Image image) const
{
    VerifyReport report = verify(image);
    if (!report.ok) {
        return Error(ErrorCode::kNoExec,
                     "verification failed (stage " +
                         std::to_string(report.failed_stage) +
                         "): " + report.reason);
    }
    const crypto::Sha256Digest digest = image.sign(key_);
    return oelf::SignedImage(std::move(image), digest);
}

} // namespace occlum::verifier
