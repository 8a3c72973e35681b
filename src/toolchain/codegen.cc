/**
 * @file
 * MiniC code generation with MMDSFI instrumentation (paper §4).
 *
 * Responsibilities:
 *  - lower the AST to AsmItems (labels + OVM instructions);
 *  - insert mem_guard / cfi_label / cfi_guard pseudo-instructions and
 *    rewrite `ret` per the MMDSFI instrumentation rules (paper §4.2);
 *  - apply the §4.3 optimizations when enabled: static elision of
 *    provably-in-D accesses (sp-relative frame slots, rip-relative
 *    globals), redundant-check elimination within basic blocks, and
 *    loop-check hoisting via induction-variable register promotion;
 *  - lay out the data segment (PCB | globals | string literals) and
 *    produce the final OELF image.
 */
#include "toolchain/codegen.h"

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "base/log.h"
#include "isa/assembler.h"
#include "oelf/abi.h"
#include "toolchain/ast.h"

namespace occlum::toolchain {

namespace isa_ = occlum::isa;
using isa_::Cond;
using isa_::Instruction;
using isa_::MemOperand;
using isa_::Opcode;

namespace {

/** Temp register pool (caller-saved). r13 = scratch, r14 = gate. */
constexpr uint8_t kTempRegs[] = {6, 7, 8, 9, 10, 11, 12};
constexpr uint8_t kGateReg = 14;
constexpr int kNumTemps = 7;
/** Frame layout: one spill slot per temp, then locals. */
constexpr int64_t kSpillBase = 0;
constexpr int64_t kLocalsBase = kNumTemps * 8;
/** Maximum frame size the verifier's stack budget allows. */
constexpr int64_t kMaxFrame = 1976;

struct GlobalInfo {
    uint64_t data_off = 0; // from D.begin (PCB included)
    bool is_byte = false;
    bool is_array = false;
    uint64_t count = 1;

    uint64_t elem_size() const { return is_byte ? 1 : 8; }
    uint64_t byte_size() const { return count * elem_size(); }
};

struct LocalInfo {
    int64_t slot_off = 0; // from sp after prologue
    bool is_array = false;
    uint64_t words = 1;
};

/** How statically safe a memory operand is (for guard elision). */
enum class MemSafety {
    kUnknown,    // arbitrary pointer: needs a guard
    kFrameSlot,  // [sp + small] within the guarded frame
    kStaticData, // rip-relative, provably inside D
    kHoisted,    // covered by a hoisted pre-loop guard (§4.3 opt. 2)
};

/** A loop-promotion plan for one while/for loop (paper §4.3 opt. 2). */
struct Promotion {
    std::string iv;           // induction variable (local scalar)
    int64_t step = 0;         // signed per-iteration delta
    std::vector<std::string> arrays; // promoted global arrays (<= 2)
    uint8_t iv_reg = 0;
    std::map<std::string, uint8_t> base_regs;
    /**
     * Exact AST nodes (Stmt or Expr pointers) whose guards may be
     * skipped: only accesses that execute unconditionally every
     * iteration qualify (the hoisting soundness argument and the
     * verifier's fixpoint both require per-iteration drift to be
     * bounded by an access).
     */
    std::set<const void *> sites;
};

class FnCompiler;

/** Whole-program compiler: data layout, functions, linking. */
class ProgramCompiler
{
  public:
    ProgramCompiler(const Program &prog, const CompileOptions &opts)
        : prog_(prog), opts_(opts)
    {}

    Result<CompileOutput> run();

    // ---- shared emission helpers (used by FnCompiler) ------------------
    void
    bind(const std::string &name)
    {
        AsmItem item;
        item.kind = AsmItem::Kind::kBind;
        item.bind_name = name;
        items_.push_back(std::move(item));
    }

    void
    emit(Instruction instr)
    {
        AsmItem item;
        item.instr = instr;
        items_.push_back(std::move(item));
    }

    void
    emit_branch(Opcode op, const std::string &target,
                Cond cond = Cond::kEq)
    {
        AsmItem item;
        item.instr.op = op;
        item.instr.cond = cond;
        item.branch_ref = target;
        items_.push_back(std::move(item));
    }

    void
    emit_addr_of(uint8_t reg, const std::string &label)
    {
        AsmItem item;
        item.instr.op = Opcode::kMovRI;
        item.instr.reg1 = reg;
        item.addr_ref = label;
        items_.push_back(std::move(item));
    }

    void
    emit_mem_ref(Instruction instr, const std::string &symbol)
    {
        AsmItem item;
        instr.mem.mode = isa_::AddrMode::kRipRel;
        item.instr = instr;
        item.mem_ref = symbol;
        items_.push_back(std::move(item));
    }

    /** Emit a removable mem_guard (bndcl+bndcu pair) on `mem`. */
    void
    emit_mem_guard(const MemOperand &mem)
    {
        int group = guard_group_counter_++;
        for (Opcode op : {Opcode::kBndclMem, Opcode::kBndcuMem}) {
            AsmItem item;
            item.instr.op = op;
            item.instr.bnd = isa_::kBndData;
            item.instr.mem = mem;
            item.guard_group = group;
            items_.push_back(std::move(item));
        }
        ++stats_.mem_guards_emitted;
    }

    /** Guard variant for rip-relative operands (needs symbol fixup). */
    void
    emit_mem_guard_sym(const std::string &symbol)
    {
        int group = guard_group_counter_++;
        for (Opcode op : {Opcode::kBndclMem, Opcode::kBndcuMem}) {
            AsmItem item;
            item.instr.op = op;
            item.instr.bnd = isa_::kBndData;
            item.instr.mem.mode = isa_::AddrMode::kRipRel;
            item.mem_ref = symbol;
            item.guard_group = group;
            items_.push_back(std::move(item));
        }
        ++stats_.mem_guards_emitted;
    }

    void
    emit_cfi_label()
    {
        if (!opts_.instrument.cfi) {
            return;
        }
        Instruction instr;
        instr.op = Opcode::kCfiLabel;
        instr.label_id = 0; // loader rewrites to the domain ID
        emit(instr);
        ++stats_.cfi_labels;
    }

    /** cfi_guard on `reg` (load into scratch + two equality checks). */
    void
    emit_cfi_guard(uint8_t reg)
    {
        if (!opts_.instrument.cfi) {
            return;
        }
        Instruction load;
        load.op = Opcode::kLoad;
        load.reg1 = isa_::kScratch;
        load.mem = isa_::mem_bd(reg, 0);
        emit(load);
        for (Opcode op : {Opcode::kBndclReg, Opcode::kBndcuReg}) {
            Instruction chk;
            chk.op = op;
            chk.bnd = isa_::kBndCfi;
            chk.reg1 = isa_::kScratch;
            emit(chk);
        }
        ++stats_.cfi_guards;
    }

    std::string
    new_label()
    {
        return ".L" + std::to_string(label_counter_++);
    }

    /** Intern a string literal into the data segment; returns symbol. */
    std::string intern_string(const std::string &text);

    const CompileOptions &opts() const { return opts_; }
    InstrumentStats &stats() { return stats_; }
    const std::map<std::string, GlobalInfo> &globals() const
    {
        return globals_;
    }
    const std::set<std::string> &functions() const { return functions_; }

    Error
    err(int line, const std::string &why)
    {
        return Error(ErrorCode::kInval,
                     "codegen error at line " + std::to_string(line) +
                         ": " + why);
    }

  private:
    Status layout_globals();
    Status compile_function(const Func &fn);
    void emit_start();
    Result<oelf::Image> link();

    const Program &prog_;
    const CompileOptions &opts_;
    std::map<std::string, GlobalInfo> globals_;
    std::set<std::string> functions_;
    Bytes data_; // starts at D.begin + kPcbSize
    std::map<std::string, std::string> string_syms_; // text -> symbol
    std::vector<AsmItem> items_;
    int label_counter_ = 0;
    int guard_group_counter_ = 0;
    int string_counter_ = 0;
    InstrumentStats stats_;
};

/** Compiles one function body. */
class FnCompiler
{
  public:
    FnCompiler(ProgramCompiler &pc, const Func &fn) : pc_(pc), fn_(fn) {}

    Status run();

  private:
    struct LoopCtx {
        std::string break_label;
        std::string continue_label;
        const Promotion *promotion = nullptr;
    };

    // ---- register pool ------------------------------------------------
    Result<uint8_t>
    alloc_temp(int line)
    {
        for (int i = 0; i < kNumTemps; ++i) {
            if (!temp_busy_[i] && !temp_pinned_[i]) {
                temp_busy_[i] = true;
                return kTempRegs[i];
            }
        }
        return pc_.err(line, "expression too complex (register pressure); "
                             "split it with intermediate variables");
    }

    void
    free_temp(uint8_t reg)
    {
        for (int i = 0; i < kNumTemps; ++i) {
            if (kTempRegs[i] == reg) {
                OCC_CHECK(temp_busy_[i]);
                temp_busy_[i] = false;
                return;
            }
        }
        OCC_PANIC("free_temp on non-temp r" << int(reg));
    }

    int
    temp_index(uint8_t reg) const
    {
        for (int i = 0; i < kNumTemps; ++i) {
            if (kTempRegs[i] == reg) return i;
        }
        return -1;
    }

    // ---- emission helpers ----------------------------------------------
    void
    mov_ri(uint8_t reg, int64_t imm)
    {
        Instruction i;
        i.op = Opcode::kMovRI;
        i.reg1 = reg;
        i.imm = imm;
        pc_.emit(i);
    }

    void
    mov_rr(uint8_t rd, uint8_t rs)
    {
        Instruction i;
        i.op = Opcode::kMovRR;
        i.reg1 = rd;
        i.reg2 = rs;
        pc_.emit(i);
    }

    void
    rr(Opcode op, uint8_t rd, uint8_t rs)
    {
        Instruction i;
        i.op = op;
        i.reg1 = rd;
        i.reg2 = rs;
        pc_.emit(i);
    }

    void
    ri(Opcode op, uint8_t rd, int64_t imm)
    {
        Instruction i;
        i.op = op;
        i.reg1 = rd;
        i.imm = imm;
        pc_.emit(i);
    }

    /**
     * Emit a load/store with instrumentation. `safety` drives static
     * elision when optimizing; naive mode guards everything.
     */
    void
    emit_access(Opcode op, uint8_t reg, const MemOperand &mem,
                MemSafety safety, const std::string &sym = "")
    {
        const InstrumentOptions &ins = pc_.opts().instrument;
        bool is_store = isa_::is_store(op);
        bool want = is_store ? ins.guard_stores : ins.guard_loads;
        if (want) {
            // Frame-slot traffic corresponds to register accesses in
            // -O2 x86 output (the paper's naive baseline); guarding it
            // would measure our spill-happy codegen, not MMDSFI.
            bool elide = safety == MemSafety::kFrameSlot ||
                         (ins.optimize && safety != MemSafety::kUnknown);
            if (elide) {
                if (safety == MemSafety::kHoisted) {
                    ++pc_.stats().mem_guards_hoisted;
                } else if (ins.optimize &&
                           safety == MemSafety::kStaticData) {
                    // Frame slots are baseline semantics (register
                    // traffic under -O2), not an optimization win.
                    ++pc_.stats().mem_guards_elided_static;
                }
            } else if (!sym.empty()) {
                pc_.emit_mem_guard_sym(sym);
            } else {
                pc_.emit_mem_guard(mem);
            }
        }
        Instruction i;
        i.op = op;
        i.reg1 = reg;
        i.mem = mem;
        if (!sym.empty()) {
            pc_.emit_mem_ref(i, sym);
        } else {
            pc_.emit(i);
        }
    }

    /** Frame-slot access helper. */
    void
    slot_access(Opcode op, uint8_t reg, int64_t slot_off)
    {
        emit_access(op, reg, isa_::mem_bd(isa_::kSp,
                                          static_cast<int32_t>(slot_off)),
                    MemSafety::kFrameSlot);
    }

    // ---- body generation -------------------------------------------------
    Status gen_block(const std::vector<StmtPtr> &stmts);
    Status gen_stmt(const Stmt &stmt);
    Status gen_loop(const Stmt &stmt); // while / for
    Result<uint8_t> gen_expr(const Expr &expr);
    Result<uint8_t> gen_call(const Expr &expr);
    Result<uint8_t> gen_builtin(const Expr &expr);
    Status gen_branch(const Expr &cond, const std::string &true_label,
                      const std::string &false_label);
    Status gen_store_var(const std::string &name, uint8_t value_reg,
                         int line);
    /**
     * Compute the address of name[idx] into a temp. Sets is_byte per
     * the element type and need_guard=false when the address is
     * provably inside the frame (small local arrays with constant
     * index).
     */
    Result<uint8_t> gen_index_addr_for(const std::string &name,
                                       const Expr &idx, int line,
                                       bool &is_byte, bool &need_guard);

    /** Emit the syscall gate sequence; result in r0. */
    void emit_gate_call();

    /** Save busy temps to spill slots around a call; returns mask. */
    uint32_t save_live_temps(const std::vector<uint8_t> &exclude);
    void restore_live_temps(uint32_t mask);

    // ---- loop promotion ---------------------------------------------------
    std::optional<Promotion> analyze_promotion(const Stmt &loop);
    bool expr_has_call(const Expr &expr) const;
    bool stmts_assign_var(const std::vector<StmtPtr> &stmts,
                          const std::string &name, int *count) const;
    void collect_promotable_arrays(const Stmt &loop, const std::string &iv,
                                   Promotion &promo) const;
    /** If `expr` is `iv` or `iv +/- const`, return the const offset. */
    std::optional<int64_t> induction_offset(const Expr &expr,
                                            const std::string &iv) const;
    /** Innermost promotion whose induction variable is `name`. */
    const Promotion *
    find_promoted_var(const std::string &name) const
    {
        for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
            if (it->promotion && it->promotion->iv == name) {
                return it->promotion;
            }
        }
        return nullptr;
    }

    /** Innermost promotion that pinned array `name`'s base register. */
    const Promotion *
    find_promoted_array(const std::string &name) const
    {
        for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
            if (it->promotion && it->promotion->base_regs.count(name)) {
                return it->promotion;
            }
        }
        return nullptr;
    }

    ProgramCompiler &pc_;
    const Func &fn_;
    std::map<std::string, LocalInfo> locals_;
    int64_t frame_size_ = 0;
    bool temp_busy_[kNumTemps] = {};
    bool temp_pinned_[kNumTemps] = {};
    std::vector<LoopCtx> loops_;
    std::string epilogue_label_;
};

// ---------------------------------------------------------------------
// ProgramCompiler
// ---------------------------------------------------------------------

std::string
ProgramCompiler::intern_string(const std::string &text)
{
    auto it = string_syms_.find(text);
    if (it != string_syms_.end()) {
        return it->second;
    }
    std::string sym = "S_" + std::to_string(string_counter_++);
    GlobalInfo info;
    info.data_off = abi::kPcbSize + data_.size();
    info.is_byte = true;
    info.is_array = true;
    info.count = text.size() + 1;
    data_.insert(data_.end(), text.begin(), text.end());
    data_.push_back(0);
    // Align for whatever follows.
    while (data_.size() % 8) {
        data_.push_back(0);
    }
    globals_.emplace(sym, info);
    string_syms_.emplace(text, sym);
    return sym;
}

Status
ProgramCompiler::layout_globals()
{
    for (const auto &g : prog_.globals) {
        if (globals_.count(g.name)) {
            return Status(ErrorCode::kInval,
                          "duplicate global: " + g.name);
        }
        GlobalInfo info;
        info.is_byte = g.is_byte;
        info.is_array = g.is_array;
        info.count = g.is_array ? g.count : 1;
        if (info.count == 0) {
            return Status(ErrorCode::kInval,
                          "zero-sized array: " + g.name);
        }
        // Align words to 8.
        if (!info.is_byte) {
            while (data_.size() % 8) data_.push_back(0);
        }
        info.data_off = abi::kPcbSize + data_.size();
        Bytes init(info.byte_size(), 0);
        if (!g.init_string.empty()) {
            if (g.init_string.size() + 1 > init.size()) {
                return Status(ErrorCode::kInval,
                              "string initializer too long: " + g.name);
            }
            std::copy(g.init_string.begin(), g.init_string.end(),
                      init.begin());
        } else if (!g.init.empty()) {
            if (g.init.size() > info.count) {
                return Status(ErrorCode::kInval,
                              "too many initializers: " + g.name);
            }
            for (size_t i = 0; i < g.init.size(); ++i) {
                if (info.is_byte) {
                    init[i] = static_cast<uint8_t>(g.init[i]);
                } else {
                    set_le<uint64_t>(init.data() + 8 * i,
                                     static_cast<uint64_t>(g.init[i]));
                }
            }
        }
        data_.insert(data_.end(), init.begin(), init.end());
        while (data_.size() % 8) data_.push_back(0);
        globals_.emplace(g.name, info);
    }
    return Status();
}

void
ProgramCompiler::emit_start()
{
    bind("_start");
    emit_cfi_label();
    emit_branch(Opcode::kCall, "F_main");
    emit_cfi_label();
    // exit(main())
    Instruction mov;
    mov.op = Opcode::kMovRR;
    mov.reg1 = 1;
    mov.reg2 = 0;
    emit(mov);
    Instruction num;
    num.op = Opcode::kMovRI;
    num.reg1 = 0;
    num.imm = static_cast<int64_t>(abi::Sys::kExit);
    emit(num);
    // Gate call (no need to save temps: exit does not return).
    Instruction load_gate;
    load_gate.op = Opcode::kLoad;
    load_gate.reg1 = kGateReg;
    emit_mem_ref(load_gate, "__PCB");
    emit_cfi_guard(kGateReg);
    Instruction call;
    call.op = Opcode::kCallReg;
    call.reg1 = kGateReg;
    emit(call);
    emit_cfi_label();
    // Unreachable; loop defensively.
    bind(".Lhang");
    emit_branch(Opcode::kJmp, ".Lhang");
}

Status
ProgramCompiler::compile_function(const Func &fn)
{
    FnCompiler fc(*this, fn);
    return fc.run();
}

Result<CompileOutput>
ProgramCompiler::run()
{
    OCC_RETURN_IF_ERROR(layout_globals());
    for (const auto &fn : prog_.funcs) {
        if (!functions_.insert(fn.name).second) {
            return Error(ErrorCode::kInval,
                         "duplicate function: " + fn.name);
        }
    }
    if (!functions_.count("main")) {
        return Error(ErrorCode::kInval, "missing function: main");
    }
    emit_start();
    for (const auto &fn : prog_.funcs) {
        OCC_RETURN_IF_ERROR(compile_function(fn));
    }

    if (opts_.instrument.optimize &&
        (opts_.instrument.guard_loads || opts_.instrument.guard_stores)) {
        stats_.mem_guards_removed_redundant =
            eliminate_redundant_guards(items_);
    }

    auto image = link();
    if (!image.ok()) {
        return image.error();
    }
    CompileOutput out;
    out.image = image.take();
    out.stats = stats_;
    return out;
}

Result<oelf::Image>
ProgramCompiler::link()
{
    // Pass 1: feed items into the assembler to fix the code layout.
    isa_::Assembler assembler(oelf::Image::code_offset());
    for (const auto &item : items_) {
        if (item.kind == AsmItem::Kind::kBind) {
            assembler.bind(item.bind_name);
            continue;
        }
        if (!item.branch_ref.empty()) {
            assembler.emit_branch(item.instr, item.branch_ref);
        } else if (!item.addr_ref.empty()) {
            assembler.emit_addr_of(item.instr, item.addr_ref);
        } else if (!item.mem_ref.empty()) {
            Instruction instr = item.instr;
            instr.mem.mode = isa_::AddrMode::kRipRel;
            assembler.emit_mem_ref(instr, item.mem_ref);
        } else {
            assembler.emit(item.instr);
        }
    }
    uint64_t code_size = assembler.size_estimate();
    if (opts_.pad_code_to > code_size) {
        // Trailing unreachable nops to synthesize a large binary.
        assembler.zeros(opts_.pad_code_to - code_size);
        code_size = opts_.pad_code_to;
    }

    // Pass 2: now the code size (hence the data offset) is known;
    // define the data symbols and resolve everything.
    uint64_t code_region =
        (code_size + vm::kPageMask) & ~vm::kPageMask;
    if (opts_.code_reserve > code_region) {
        code_region = opts_.code_reserve;
    } else if (opts_.code_reserve != 0 &&
               code_region > opts_.code_reserve) {
        return Error(ErrorCode::kNoMem,
                     "code exceeds the configured code_reserve");
    }
    // Offsets from the assembler base (= start of user code).
    uint64_t data_base_off = code_region + oelf::kGuardSize;
    assembler.define_value("__PCB", data_base_off);
    assembler.define_value("__PCB_HEAP_BEGIN",
                           data_base_off + abi::kPcbHeapBegin);
    assembler.define_value("__PCB_HEAP_END",
                           data_base_off + abi::kPcbHeapEnd);
    assembler.define_value("__PCB_ARGC", data_base_off + abi::kPcbArgc);
    for (const auto &[name, info] : globals_) {
        assembler.define_value("D_" + name,
                               data_base_off + info.data_off);
    }

    oelf::Image image;
    image.code = assembler.finish();
    image.data = data_;
    image.bss_size = 0;
    image.heap_size = opts_.heap_size;
    image.stack_size = opts_.stack_size;
    image.code_reserve = code_region;
    image.entry_offset = assembler.label_offset("_start");
    if (opts_.instrument.any()) {
        image.flags |= oelf::kFlagInstrumented;
    }
    for (const auto &fn : functions_) {
        oelf::Symbol sym;
        sym.name = fn;
        sym.offset = assembler.label_offset("F_" + fn);
        image.symbols.push_back(std::move(sym));
    }
    // The image's data blob excludes the PCB area (loader-owned) but
    // our data_ offsets start at kPcbSize: record data as-is; the
    // loader copies it to D.begin + kPcbSize.
    return image;
}

// ---------------------------------------------------------------------
// FnCompiler
// ---------------------------------------------------------------------

Status
FnCompiler::run()
{
    if (fn_.params.size() > 5) {
        return pc_.err(fn_.line, "more than 5 parameters in " + fn_.name);
    }

    // Collect local declarations (recursively) to size the frame.
    int64_t cursor = kLocalsBase;
    std::function<Status(const std::vector<StmtPtr> &)> collect =
        [&](const std::vector<StmtPtr> &stmts) -> Status {
        for (const auto &stmt : stmts) {
            if (stmt->kind == StmtKind::kVarDecl) {
                if (locals_.count(stmt->name)) {
                    return pc_.err(stmt->line,
                                   "duplicate local: " + stmt->name);
                }
                LocalInfo info;
                info.slot_off = cursor;
                info.is_array = stmt->is_array;
                info.words = stmt->is_array ? stmt->array_size : 1;
                cursor += static_cast<int64_t>(info.words) * 8;
                locals_.emplace(stmt->name, info);
            }
            OCC_RETURN_IF_ERROR(collect(stmt->body));
            OCC_RETURN_IF_ERROR(collect(stmt->else_body));
            if (stmt->init) {
                // `for (i = 0; ...)` implicitly declares i as a local
                // when it is not already a variable in scope.
                if (stmt->init->kind == StmtKind::kVarDecl ||
                    (stmt->init->kind == StmtKind::kAssign &&
                     !locals_.count(stmt->init->name) &&
                     !pc_.globals().count(stmt->init->name))) {
                    if (stmt->init->kind == StmtKind::kVarDecl &&
                        locals_.count(stmt->init->name)) {
                        return pc_.err(stmt->init->line,
                                       "duplicate local: " +
                                           stmt->init->name);
                    }
                    if (!locals_.count(stmt->init->name)) {
                        LocalInfo info;
                        info.slot_off = cursor;
                        cursor += 8;
                        locals_.emplace(stmt->init->name, info);
                    }
                }
            }
        }
        return Status();
    };
    for (const auto &p : fn_.params) {
        if (locals_.count(p)) {
            return pc_.err(fn_.line, "duplicate parameter: " + p);
        }
        LocalInfo info;
        info.slot_off = cursor;
        cursor += 8;
        locals_.emplace(p, info);
    }
    OCC_RETURN_IF_ERROR(collect(fn_.body));
    frame_size_ = (cursor + 15) & ~15ll;
    if (frame_size_ > kMaxFrame) {
        return pc_.err(fn_.line,
                       "frame too large in " + fn_.name +
                           " (use global arrays for big buffers)");
    }

    pc_.bind("F_" + fn_.name);
    pc_.emit_cfi_label();

    // Prologue: allocate + validate the frame (the mem_guard here is
    // the stack-pointer revalidation the verifier's budget requires).
    ri(Opcode::kSubRI, isa_::kSp, frame_size_);
    pc_.emit_mem_guard(isa_::mem_bd(isa_::kSp, 0));

    // Spill incoming arguments to their slots.
    for (size_t i = 0; i < fn_.params.size(); ++i) {
        const LocalInfo &info = locals_.at(fn_.params[i]);
        slot_access(Opcode::kStore, static_cast<uint8_t>(1 + i),
                    info.slot_off);
    }

    epilogue_label_ = pc_.new_label();
    OCC_RETURN_IF_ERROR(gen_block(fn_.body));

    // Implicit `return 0` at the end of the body.
    mov_ri(0, 0);
    pc_.bind(epilogue_label_);
    ri(Opcode::kAddRI, isa_::kSp, frame_size_);
    const InstrumentOptions &ins = pc_.opts().instrument;
    if (ins.cfi) {
        // Revalidate sp, then the paper's ret rewrite:
        //   pop r14; cfi_guard r14; jmp *r14
        pc_.emit_mem_guard(isa_::mem_bd(isa_::kSp, 0));
        Instruction pop;
        pop.op = Opcode::kPop;
        pop.reg1 = kGateReg;
        pc_.emit(pop);
        pc_.emit_cfi_guard(kGateReg);
        Instruction jmp;
        jmp.op = Opcode::kJmpReg;
        jmp.reg1 = kGateReg;
        pc_.emit(jmp);
    } else {
        Instruction ret;
        ret.op = Opcode::kRet;
        pc_.emit(ret);
    }
    return Status();
}

Status
FnCompiler::gen_block(const std::vector<StmtPtr> &stmts)
{
    for (const auto &stmt : stmts) {
        OCC_RETURN_IF_ERROR(gen_stmt(*stmt));
    }
    return Status();
}

Status
FnCompiler::gen_stmt(const Stmt &stmt)
{
    switch (stmt.kind) {
      case StmtKind::kVarDecl: {
        if (stmt.is_array || !stmt.a) {
            return Status(); // storage only; arrays are uninitialized
        }
        auto value = gen_expr(*stmt.a);
        if (!value.ok()) return value.error();
        OCC_RETURN_IF_ERROR(
            gen_store_var(stmt.name, value.value(), stmt.line));
        free_temp(value.value());
        return Status();
      }
      case StmtKind::kAssign: {
        auto value = gen_expr(*stmt.a);
        if (!value.ok()) return value.error();
        OCC_RETURN_IF_ERROR(
            gen_store_var(stmt.name, value.value(), stmt.line));
        free_temp(value.value());
        return Status();
      }
      case StmtKind::kIndexAssign: {
        // name[a] = b : evaluate the value first, then the address.
        auto value = gen_expr(*stmt.b);
        if (!value.ok()) return value.error();

        // Promoted-loop fast path: A[iv + k] with A promoted.
        const Promotion *promo = find_promoted_array(stmt.name);
        if (promo) {
            auto off = induction_offset(*stmt.a, promo->iv);
            if (off) {
                const GlobalInfo &g = pc_.globals().at(stmt.name);
                uint8_t scale = g.is_byte ? 0 : 3;
                MemOperand mem = isa_::mem_sib(
                    promo->base_regs.at(stmt.name), promo->iv_reg,
                    scale, static_cast<int32_t>(*off << scale));
                emit_access(g.is_byte ? Opcode::kStore8 : Opcode::kStore,
                            value.value(), mem,
                            promo->sites.count(&stmt)
                                ? MemSafety::kHoisted
                                : MemSafety::kUnknown);
                free_temp(value.value());
                return Status();
            }
        }

        bool is_byte = false;
        bool need_guard = true;
        auto addr = gen_index_addr_for(stmt.name, *stmt.a, stmt.line,
                                       is_byte, need_guard);
        if (!addr.ok()) return addr.error();
        MemOperand mem = isa_::mem_bd(addr.value(), 0);
        emit_access(is_byte ? Opcode::kStore8 : Opcode::kStore,
                    value.value(), mem,
                    need_guard ? MemSafety::kUnknown
                               : MemSafety::kFrameSlot);
        free_temp(addr.value());
        free_temp(value.value());
        return Status();
      }
      case StmtKind::kIf: {
        std::string then_label = pc_.new_label();
        std::string else_label = pc_.new_label();
        std::string end_label = pc_.new_label();
        OCC_RETURN_IF_ERROR(gen_branch(*stmt.a, then_label, else_label));
        pc_.bind(then_label);
        OCC_RETURN_IF_ERROR(gen_block(stmt.body));
        pc_.emit_branch(Opcode::kJmp, end_label);
        pc_.bind(else_label);
        OCC_RETURN_IF_ERROR(gen_block(stmt.else_body));
        pc_.bind(end_label);
        return Status();
      }
      case StmtKind::kWhile:
      case StmtKind::kFor:
        return gen_loop(stmt);
      case StmtKind::kReturn: {
        if (stmt.a) {
            auto value = gen_expr(*stmt.a);
            if (!value.ok()) return value.error();
            mov_rr(0, value.value());
            free_temp(value.value());
        } else {
            mov_ri(0, 0);
        }
        pc_.emit_branch(Opcode::kJmp, epilogue_label_);
        return Status();
      }
      case StmtKind::kBreak:
        if (loops_.empty()) {
            return pc_.err(stmt.line, "break outside loop");
        }
        pc_.emit_branch(Opcode::kJmp, loops_.back().break_label);
        return Status();
      case StmtKind::kContinue:
        if (loops_.empty()) {
            return pc_.err(stmt.line, "continue outside loop");
        }
        pc_.emit_branch(Opcode::kJmp, loops_.back().continue_label);
        return Status();
      case StmtKind::kExprStmt: {
        auto value = gen_expr(*stmt.a);
        if (!value.ok()) return value.error();
        free_temp(value.value());
        return Status();
      }
    }
    OCC_PANIC("bad stmt kind");
}

Status
FnCompiler::gen_loop(const Stmt &stmt)
{
    const InstrumentOptions &ins = pc_.opts().instrument;
    bool is_for = stmt.kind == StmtKind::kFor;

    if (is_for && stmt.init) {
        OCC_RETURN_IF_ERROR(gen_stmt(*stmt.init));
    }

    // Register promotion is a plain compiler optimization applied to
    // every build (the paper's baselines are clang -O2 output too);
    // only the *guard hoisting* part is instrumentation-specific.
    std::optional<Promotion> promo = analyze_promotion(stmt);
    bool hoist_guards =
        ins.optimize && (ins.guard_loads || ins.guard_stores);

    std::string cond_label = pc_.new_label();
    std::string body_label = pc_.new_label();
    std::string step_label = is_for ? pc_.new_label() : cond_label;
    std::string end_label = pc_.new_label();

    LoopCtx ctx;
    ctx.break_label = end_label;
    ctx.continue_label = step_label;
    if (promo) {
        ctx.promotion = &*promo;
    }
    // Push before generating the condition: once the induction
    // variable is promoted, even the condition must read its register.
    loops_.push_back(ctx);

    if (promo) {
        // Pin registers for the induction variable and array bases;
        // emit a once-per-loop guard for each promoted array (the
        // §4.3 loop-check-hoisting transform). The guard only runs if
        // the loop body will run at least once.
        auto iv_reg = alloc_temp(stmt.line);
        if (!iv_reg.ok()) return iv_reg.error();
        promo->iv_reg = iv_reg.value();
        temp_pinned_[temp_index(promo->iv_reg)] = true;
        for (const auto &arr : promo->arrays) {
            auto base = alloc_temp(stmt.line);
            if (!base.ok()) return base.error();
            promo->base_regs[arr] = base.value();
            temp_pinned_[temp_index(base.value())] = true;
        }
        // Load iv and the array bases.
        slot_access(Opcode::kLoad, promo->iv_reg,
                    locals_.at(promo->iv).slot_off);
        for (const auto &[arr, reg] : promo->base_regs) {
            Instruction lea;
            lea.op = Opcode::kLea;
            lea.reg1 = reg;
            pc_.emit_mem_ref(lea, "D_" + arr);
        }
        // Pre-loop guarded entry: check the condition once; if the
        // loop runs, validate A[iv] for each promoted array.
        if (hoist_guards) {
            std::string pre_label = pc_.new_label();
            if (stmt.a) {
                OCC_RETURN_IF_ERROR(
                    gen_branch(*stmt.a, pre_label, end_label));
            } else {
                pc_.emit_branch(Opcode::kJmp, pre_label);
            }
            pc_.bind(pre_label);
            for (const auto &[arr, reg] : promo->base_regs) {
                const GlobalInfo &g = pc_.globals().at(arr);
                uint8_t scale = g.is_byte ? 0 : 3;
                pc_.emit_mem_guard(
                    isa_::mem_sib(reg, promo->iv_reg, scale, 0));
            }
            pc_.emit_branch(Opcode::kJmp, body_label);
        }
    }

    pc_.bind(cond_label);
    if (stmt.a) {
        OCC_RETURN_IF_ERROR(gen_branch(*stmt.a, body_label, end_label));
    } else {
        pc_.emit_branch(Opcode::kJmp, body_label);
    }
    pc_.bind(body_label);

    OCC_RETURN_IF_ERROR(gen_block(stmt.body));
    if (is_for) {
        pc_.bind(step_label);
        if (stmt.step) {
            OCC_RETURN_IF_ERROR(gen_stmt(*stmt.step));
        }
    }
    loops_.pop_back();
    pc_.emit_branch(Opcode::kJmp, cond_label);
    pc_.bind(end_label);

    if (promo) {
        // Write the induction variable back and unpin.
        slot_access(Opcode::kStore, promo->iv_reg,
                    locals_.at(promo->iv).slot_off);
        for (const auto &[arr, reg] : promo->base_regs) {
            temp_pinned_[temp_index(reg)] = false;
            free_temp(reg);
        }
        temp_pinned_[temp_index(promo->iv_reg)] = false;
        free_temp(promo->iv_reg);
    }
    return Status();
}

Status
FnCompiler::gen_store_var(const std::string &name, uint8_t value_reg,
                          int line)
{
    // Promoted induction variable: alias the pinned register.
    const Promotion *promo = find_promoted_var(name);
    if (promo) {
        mov_rr(promo->iv_reg, value_reg);
        return Status();
    }
    auto it = locals_.find(name);
    if (it != locals_.end()) {
        if (it->second.is_array) {
            return pc_.err(line, "cannot assign to array " + name);
        }
        slot_access(Opcode::kStore, value_reg, it->second.slot_off);
        return Status();
    }
    auto git = pc_.globals().find(name);
    if (git != pc_.globals().end()) {
        if (git->second.is_array) {
            return pc_.err(line, "cannot assign to array " + name);
        }
        Instruction st;
        st.op = git->second.is_byte ? Opcode::kStore8 : Opcode::kStore;
        st.reg1 = value_reg;
        emit_access(st.op, value_reg, st.mem, MemSafety::kStaticData,
                    "D_" + name);
        return Status();
    }
    return pc_.err(line, "undefined variable: " + name);
}

Result<uint8_t>
FnCompiler::gen_index_addr_for(const std::string &name, const Expr &idx,
                               int line, bool &is_byte, bool &need_guard)
{
    need_guard = true;
    auto lit = pc_.globals().find(name);
    auto loc = locals_.find(name);

    // Compute the element address: base + idx*elem_size.
    auto idx_reg = gen_expr(idx);
    if (!idx_reg.ok()) return idx_reg.error();
    auto addr = alloc_temp(line);
    if (!addr.ok()) return addr.error();

    if (lit != pc_.globals().end()) {
        const GlobalInfo &g = lit->second;
        is_byte = g.is_byte;
        Instruction lea;
        lea.op = Opcode::kLea;
        lea.reg1 = addr.value();
        pc_.emit_mem_ref(lea, "D_" + name);
        if (!g.is_byte) {
            ri(Opcode::kShlRI, idx_reg.value(), 3);
        }
        rr(Opcode::kAddRR, addr.value(), idx_reg.value());
        free_temp(idx_reg.value());
        return addr.value();
    }
    if (loc != locals_.end()) {
        is_byte = false;
        if (loc->second.is_array) {
            Instruction lea;
            lea.op = Opcode::kLea;
            lea.reg1 = addr.value();
            lea.mem = isa_::mem_bd(
                isa_::kSp, static_cast<int32_t>(loc->second.slot_off));
            pc_.emit(lea);
        } else {
            // Scalar local used as a pointer: name[i] = *(name + i*8).
            slot_access(Opcode::kLoad, addr.value(),
                        loc->second.slot_off);
        }
        ri(Opcode::kShlRI, idx_reg.value(), 3);
        rr(Opcode::kAddRR, addr.value(), idx_reg.value());
        free_temp(idx_reg.value());
        return addr.value();
    }
    free_temp(idx_reg.value());
    free_temp(addr.value());
    return pc_.err(line, "undefined array: " + name);
}

Status
FnCompiler::gen_branch(const Expr &cond, const std::string &true_label,
                       const std::string &false_label)
{
    if (cond.kind == ExprKind::kNumber) {
        pc_.emit_branch(Opcode::kJmp,
                        cond.num != 0 ? true_label : false_label);
        return Status();
    }
    if (cond.kind == ExprKind::kUnary && cond.op == "!") {
        return gen_branch(*cond.lhs, false_label, true_label);
    }
    if (cond.kind == ExprKind::kBinary &&
        (cond.op == "&&" || cond.op == "||")) {
        std::string mid = pc_.new_label();
        if (cond.op == "&&") {
            OCC_RETURN_IF_ERROR(gen_branch(*cond.lhs, mid, false_label));
        } else {
            OCC_RETURN_IF_ERROR(gen_branch(*cond.lhs, true_label, mid));
        }
        pc_.bind(mid);
        return gen_branch(*cond.rhs, true_label, false_label);
    }
    static const std::map<std::string, Cond> kCmp = {
        {"==", Cond::kEq}, {"!=", Cond::kNe}, {"<", Cond::kLt},
        {"<=", Cond::kLe}, {">", Cond::kGt}, {">=", Cond::kGe},
    };
    if (cond.kind == ExprKind::kBinary && kCmp.count(cond.op)) {
        auto lhs = gen_expr(*cond.lhs);
        if (!lhs.ok()) return lhs.error();
        if (cond.rhs->kind == ExprKind::kNumber &&
            cond.rhs->num >= INT32_MIN && cond.rhs->num <= INT32_MAX) {
            ri(Opcode::kCmpRI, lhs.value(), cond.rhs->num);
        } else {
            auto rhs = gen_expr(*cond.rhs);
            if (!rhs.ok()) return rhs.error();
            rr(Opcode::kCmpRR, lhs.value(), rhs.value());
            free_temp(rhs.value());
        }
        free_temp(lhs.value());
        pc_.emit_branch(Opcode::kJcc, true_label, kCmp.at(cond.op));
        pc_.emit_branch(Opcode::kJmp, false_label);
        return Status();
    }
    // Generic: nonzero => true.
    auto value = gen_expr(cond);
    if (!value.ok()) return value.error();
    ri(Opcode::kCmpRI, value.value(), 0);
    free_temp(value.value());
    pc_.emit_branch(Opcode::kJcc, true_label, Cond::kNe);
    pc_.emit_branch(Opcode::kJmp, false_label);
    return Status();
}

uint32_t
FnCompiler::save_live_temps(const std::vector<uint8_t> &exclude)
{
    uint32_t mask = 0;
    for (int i = 0; i < kNumTemps; ++i) {
        if (!temp_busy_[i] && !temp_pinned_[i]) continue;
        uint8_t reg = kTempRegs[i];
        bool excluded = false;
        for (uint8_t e : exclude) {
            if (e == reg) excluded = true;
        }
        if (excluded) continue;
        slot_access(Opcode::kStore, reg, kSpillBase + 8 * i);
        mask |= 1u << i;
    }
    return mask;
}

void
FnCompiler::restore_live_temps(uint32_t mask)
{
    for (int i = 0; i < kNumTemps; ++i) {
        if (mask & (1u << i)) {
            slot_access(Opcode::kLoad, kTempRegs[i], kSpillBase + 8 * i);
        }
    }
}

void
FnCompiler::emit_gate_call()
{
    // load r14, [rip -> PCB.trampoline]; cfi_guard r14; call *r14
    Instruction load_gate;
    load_gate.op = Opcode::kLoad;
    load_gate.reg1 = kGateReg;
    pc_.emit_mem_ref(load_gate, "__PCB");
    pc_.emit_cfi_guard(kGateReg);
    Instruction call;
    call.op = Opcode::kCallReg;
    call.reg1 = kGateReg;
    pc_.emit(call);
    pc_.emit_cfi_label();
}

Result<uint8_t>
FnCompiler::gen_builtin(const Expr &expr)
{
    const std::string &name = expr.name;
    int line = expr.line;
    auto argc_is = [&](size_t n) { return expr.args.size() == n; };

    if (name == "wload" || name == "bload") {
        if (!argc_is(1)) return pc_.err(line, name + " takes 1 argument");
        auto addr = gen_expr(*expr.args[0]);
        if (!addr.ok()) return addr.error();
        auto dst = alloc_temp(line);
        if (!dst.ok()) return dst.error();
        MemOperand mem = isa_::mem_bd(addr.value(), 0);
        emit_access(name == "wload" ? Opcode::kLoad : Opcode::kLoad8,
                    dst.value(), mem, MemSafety::kUnknown);
        free_temp(addr.value());
        return dst.value();
    }
    if (name == "wstore" || name == "bstore") {
        if (!argc_is(2)) return pc_.err(line, name + " takes 2 arguments");
        auto addr = gen_expr(*expr.args[0]);
        if (!addr.ok()) return addr.error();
        auto value = gen_expr(*expr.args[1]);
        if (!value.ok()) return value.error();
        MemOperand mem = isa_::mem_bd(addr.value(), 0);
        emit_access(name == "wstore" ? Opcode::kStore : Opcode::kStore8,
                    value.value(), mem, MemSafety::kUnknown);
        free_temp(addr.value());
        // Reuse the value register as the result.
        return value.value();
    }
    if (name == "syscall") {
        if (expr.args.empty() || expr.args.size() > 7) {
            return pc_.err(line, "syscall takes 1..7 arguments");
        }
        std::vector<uint8_t> arg_regs;
        for (const auto &arg : expr.args) {
            auto r = gen_expr(*arg);
            if (!r.ok()) return r.error();
            arg_regs.push_back(r.value());
        }
        uint32_t saved = save_live_temps(arg_regs);
        // r0 = number; r1..r6 = args (Linux-style six-argument ABI).
        // Ascending target order is clobber-free: targets r0..r5 are
        // never temporaries, and the r6 write is the final step.
        mov_rr(0, arg_regs[0]);
        for (size_t i = 1; i < arg_regs.size(); ++i) {
            mov_rr(static_cast<uint8_t>(i), arg_regs[i]);
        }
        for (uint8_t r : arg_regs) {
            free_temp(r);
        }
        emit_gate_call();
        restore_live_temps(saved);
        auto dst = alloc_temp(line);
        if (!dst.ok()) return dst.error();
        mov_rr(dst.value(), 0);
        return dst.value();
    }
    if (name == "heap_begin" || name == "heap_end" || name == "argc") {
        if (!argc_is(0)) return pc_.err(line, name + " takes no arguments");
        auto dst = alloc_temp(line);
        if (!dst.ok()) return dst.error();
        Instruction load;
        load.op = Opcode::kLoad;
        load.reg1 = dst.value();
        const char *sym = name == "heap_begin" ? "__PCB_HEAP_BEGIN"
                          : name == "heap_end" ? "__PCB_HEAP_END"
                                               : "__PCB_ARGC";
        pc_.emit_mem_ref(load, sym);
        return dst.value();
    }
    if (name == "rdcycle") {
        if (!argc_is(0)) return pc_.err(line, "rdcycle takes no arguments");
        auto dst = alloc_temp(line);
        if (!dst.ok()) return dst.error();
        Instruction instr;
        instr.op = Opcode::kRdcycle;
        instr.reg1 = dst.value();
        pc_.emit(instr);
        return dst.value();
    }
    return pc_.err(line, "unknown function: " + name);
}

Result<uint8_t>
FnCompiler::gen_call(const Expr &expr)
{
    if (!pc_.functions().count(expr.name)) {
        return gen_builtin(expr);
    }
    if (expr.args.size() > 5) {
        return pc_.err(expr.line, "more than 5 call arguments");
    }
    std::vector<uint8_t> arg_regs;
    for (const auto &arg : expr.args) {
        auto r = gen_expr(*arg);
        if (!r.ok()) return r.error();
        arg_regs.push_back(r.value());
    }
    uint32_t saved = save_live_temps(arg_regs);
    for (size_t i = 0; i < arg_regs.size(); ++i) {
        mov_rr(static_cast<uint8_t>(1 + i), arg_regs[i]);
    }
    for (uint8_t r : arg_regs) {
        free_temp(r);
    }
    pc_.emit_branch(Opcode::kCall, "F_" + expr.name);
    pc_.emit_cfi_label(); // return site must be a valid indirect target
    restore_live_temps(saved);
    auto dst = alloc_temp(expr.line);
    if (!dst.ok()) return dst.error();
    mov_rr(dst.value(), 0);
    return dst.value();
}

Result<uint8_t>
FnCompiler::gen_expr(const Expr &expr)
{
    switch (expr.kind) {
      case ExprKind::kNumber: {
        auto dst = alloc_temp(expr.line);
        if (!dst.ok()) return dst.error();
        mov_ri(dst.value(), expr.num);
        return dst.value();
      }
      case ExprKind::kString: {
        std::string sym = pc_.intern_string(expr.str);
        auto dst = alloc_temp(expr.line);
        if (!dst.ok()) return dst.error();
        Instruction lea;
        lea.op = Opcode::kLea;
        lea.reg1 = dst.value();
        pc_.emit_mem_ref(lea, "D_" + sym);
        return dst.value();
      }
      case ExprKind::kVar: {
        const Promotion *promo = find_promoted_var(expr.name);
        if (promo) {
            auto dst = alloc_temp(expr.line);
            if (!dst.ok()) return dst.error();
            mov_rr(dst.value(), promo->iv_reg);
            return dst.value();
        }
        auto loc = locals_.find(expr.name);
        if (loc != locals_.end()) {
            auto dst = alloc_temp(expr.line);
            if (!dst.ok()) return dst.error();
            if (loc->second.is_array) {
                Instruction lea;
                lea.op = Opcode::kLea;
                lea.reg1 = dst.value();
                lea.mem = isa_::mem_bd(
                    isa_::kSp,
                    static_cast<int32_t>(loc->second.slot_off));
                pc_.emit(lea);
            } else {
                slot_access(Opcode::kLoad, dst.value(),
                            loc->second.slot_off);
            }
            return dst.value();
        }
        auto git = pc_.globals().find(expr.name);
        if (git != pc_.globals().end()) {
            auto dst = alloc_temp(expr.line);
            if (!dst.ok()) return dst.error();
            if (git->second.is_array) {
                Instruction lea;
                lea.op = Opcode::kLea;
                lea.reg1 = dst.value();
                pc_.emit_mem_ref(lea, "D_" + expr.name);
            } else {
                Instruction load;
                load.op = git->second.is_byte ? Opcode::kLoad8
                                              : Opcode::kLoad;
                load.reg1 = dst.value();
                emit_access(load.op, dst.value(), load.mem,
                            MemSafety::kStaticData, "D_" + expr.name);
            }
            return dst.value();
        }
        return pc_.err(expr.line, "undefined variable: " + expr.name);
      }
      case ExprKind::kIndex: {
        // Promoted-loop fast path: A[iv + k].
        const Promotion *promo = find_promoted_array(expr.name);
        if (promo) {
            auto off = induction_offset(*expr.lhs, promo->iv);
            if (off) {
                const GlobalInfo &g = pc_.globals().at(expr.name);
                uint8_t scale = g.is_byte ? 0 : 3;
                auto dst = alloc_temp(expr.line);
                if (!dst.ok()) return dst.error();
                MemOperand mem = isa_::mem_sib(
                    promo->base_regs.at(expr.name), promo->iv_reg,
                    scale, static_cast<int32_t>(*off << scale));
                emit_access(g.is_byte ? Opcode::kLoad8 : Opcode::kLoad,
                            dst.value(), mem,
                            promo->sites.count(&expr)
                                ? MemSafety::kHoisted
                                : MemSafety::kUnknown);
                return dst.value();
            }
        }
        bool is_byte = false;
        bool need_guard = true;
        auto addr = gen_index_addr_for(expr.name, *expr.lhs, expr.line,
                                       is_byte, need_guard);
        if (!addr.ok()) return addr.error();
        auto dst = alloc_temp(expr.line);
        if (!dst.ok()) return dst.error();
        MemOperand mem = isa_::mem_bd(addr.value(), 0);
        emit_access(is_byte ? Opcode::kLoad8 : Opcode::kLoad,
                    dst.value(), mem,
                    need_guard ? MemSafety::kUnknown
                               : MemSafety::kFrameSlot);
        free_temp(addr.value());
        return dst.value();
      }
      case ExprKind::kUnary: {
        if (expr.op == "!") {
            // Materialize via branches.
            std::string t = pc_.new_label(), f = pc_.new_label(),
                        end = pc_.new_label();
            OCC_RETURN_IF_ERROR(gen_branch(*expr.lhs, t, f));
            auto dst = alloc_temp(expr.line);
            if (!dst.ok()) return dst.error();
            pc_.bind(t);
            mov_ri(dst.value(), 0);
            pc_.emit_branch(Opcode::kJmp, end);
            pc_.bind(f);
            mov_ri(dst.value(), 1);
            pc_.bind(end);
            return dst.value();
        }
        auto inner = gen_expr(*expr.lhs);
        if (!inner.ok()) return inner.error();
        if (expr.op == "-") {
            Instruction neg;
            neg.op = Opcode::kNeg;
            neg.reg1 = inner.value();
            pc_.emit(neg);
        } else if (expr.op == "~") {
            Instruction nt;
            nt.op = Opcode::kNot;
            nt.reg1 = inner.value();
            pc_.emit(nt);
        } else {
            return pc_.err(expr.line, "bad unary operator " + expr.op);
        }
        return inner.value();
      }
      case ExprKind::kBinary: {
        // Comparisons and logic materialize through branches.
        static const std::set<std::string> kBranchy = {
            "==", "!=", "<", "<=", ">", ">=", "&&", "||"};
        if (kBranchy.count(expr.op)) {
            std::string t = pc_.new_label(), f = pc_.new_label(),
                        end = pc_.new_label();
            OCC_RETURN_IF_ERROR(gen_branch(expr, t, f));
            auto dst = alloc_temp(expr.line);
            if (!dst.ok()) return dst.error();
            pc_.bind(t);
            mov_ri(dst.value(), 1);
            pc_.emit_branch(Opcode::kJmp, end);
            pc_.bind(f);
            mov_ri(dst.value(), 0);
            pc_.bind(end);
            return dst.value();
        }
        // Constant folding for number op number.
        auto lhs = gen_expr(*expr.lhs);
        if (!lhs.ok()) return lhs.error();
        uint8_t a = lhs.value();
        // reg-imm fast path for small constants.
        if (expr.rhs->kind == ExprKind::kNumber &&
            expr.rhs->num >= INT32_MIN && expr.rhs->num <= INT32_MAX &&
            (expr.op == "+" || expr.op == "-" || expr.op == "*" ||
             expr.op == "&" || expr.op == "|" || expr.op == "^" ||
             expr.op == "<<" || expr.op == ">>")) {
            int64_t c = expr.rhs->num;
            if (expr.op == "+") ri(Opcode::kAddRI, a, c);
            else if (expr.op == "-") ri(Opcode::kSubRI, a, c);
            else if (expr.op == "*") ri(Opcode::kMulRI, a, c);
            else if (expr.op == "&") ri(Opcode::kAndRI, a, c);
            else if (expr.op == "|") ri(Opcode::kOrRI, a, c);
            else if (expr.op == "^") ri(Opcode::kXorRI, a, c);
            else if (expr.op == "<<") ri(Opcode::kShlRI, a, c & 63);
            else ri(Opcode::kSarRI, a, c & 63);
            return a;
        }
        auto rhs = gen_expr(*expr.rhs);
        if (!rhs.ok()) return rhs.error();
        uint8_t b = rhs.value();
        if (expr.op == "+") rr(Opcode::kAddRR, a, b);
        else if (expr.op == "-") rr(Opcode::kSubRR, a, b);
        else if (expr.op == "*") rr(Opcode::kMulRR, a, b);
        else if (expr.op == "/") rr(Opcode::kDivRR, a, b);
        else if (expr.op == "%") rr(Opcode::kModRR, a, b);
        else if (expr.op == "&") rr(Opcode::kAndRR, a, b);
        else if (expr.op == "|") rr(Opcode::kOrRR, a, b);
        else if (expr.op == "^") rr(Opcode::kXorRR, a, b);
        else if (expr.op == "<<") rr(Opcode::kShlRR, a, b);
        else if (expr.op == ">>") rr(Opcode::kSarRR, a, b);
        else return pc_.err(expr.line, "bad operator " + expr.op);
        free_temp(b);
        return a;
      }
      case ExprKind::kCall:
        return gen_call(expr);
    }
    OCC_PANIC("bad expr kind");
}

// ---- loop-promotion analysis -------------------------------------------

bool
FnCompiler::expr_has_call(const Expr &expr) const
{
    if (expr.kind == ExprKind::kCall) {
        // Pure builtins that lower to inline instructions are fine,
        // except syscall (clobbers registers via the gate).
        static const std::set<std::string> kInline = {
            "wload", "bload", "wstore", "bstore", "rdcycle",
            "heap_begin", "heap_end", "argc"};
        if (!kInline.count(expr.name)) {
            return true;
        }
    }
    if (expr.lhs && expr_has_call(*expr.lhs)) return true;
    if (expr.rhs && expr_has_call(*expr.rhs)) return true;
    for (const auto &arg : expr.args) {
        if (expr_has_call(*arg)) return true;
    }
    return false;
}

bool
FnCompiler::stmts_assign_var(const std::vector<StmtPtr> &stmts,
                             const std::string &name, int *count) const
{
    bool found = false;
    for (const auto &stmt : stmts) {
        if ((stmt->kind == StmtKind::kAssign ||
             stmt->kind == StmtKind::kVarDecl) &&
            stmt->name == name) {
            ++*count;
            found = true;
        }
        if (stmts_assign_var(stmt->body, name, count)) found = true;
        if (stmts_assign_var(stmt->else_body, name, count)) found = true;
        if (stmt->init) {
            std::vector<StmtPtr> probe;
            if (stmt->init->name == name &&
                (stmt->init->kind == StmtKind::kAssign ||
                 stmt->init->kind == StmtKind::kVarDecl)) {
                ++*count;
                found = true;
            }
        }
        if (stmt->step && stmt->step->name == name &&
            stmt->step->kind == StmtKind::kAssign) {
            ++*count;
            found = true;
        }
    }
    return found;
}

std::optional<int64_t>
FnCompiler::induction_offset(const Expr &expr,
                             const std::string &iv) const
{
    if (expr.kind == ExprKind::kVar && expr.name == iv) {
        return 0;
    }
    if (expr.kind == ExprKind::kBinary &&
        (expr.op == "+" || expr.op == "-") &&
        expr.lhs->kind == ExprKind::kVar && expr.lhs->name == iv &&
        expr.rhs->kind == ExprKind::kNumber) {
        int64_t k = expr.op == "+" ? expr.rhs->num : -expr.rhs->num;
        if (k >= -64 && k <= 64) {
            return k;
        }
    }
    return std::nullopt;
}

void
FnCompiler::collect_promotable_arrays(const Stmt &loop,
                                      const std::string &iv,
                                      Promotion &promo) const
{
    // Only accesses in *top-level* statements of the body execute
    // unconditionally every iteration, which the hoisting soundness
    // argument (and the verifier's fixpoint) requires.
    auto consider = [&](const void *site, const std::string &name,
                        const Expr &idx) {
        if (!induction_offset(idx, iv)) return;
        auto git = pc_.globals().find(name);
        if (git == pc_.globals().end() || !git->second.is_array) return;
        bool known = false;
        for (const auto &a : promo.arrays) {
            if (a == name) known = true;
        }
        if (!known) {
            if (promo.arrays.size() >= 2) return;
            promo.arrays.push_back(name);
        }
        promo.sites.insert(site);
    };
    std::function<void(const Expr &)> scan_expr = [&](const Expr &e) {
        if (e.kind == ExprKind::kIndex) {
            consider(&e, e.name, *e.lhs);
        }
        // Skip short-circuit right-hand sides: conditionally executed.
        if (e.kind == ExprKind::kBinary &&
            (e.op == "&&" || e.op == "||")) {
            scan_expr(*e.lhs);
            return;
        }
        if (e.lhs) scan_expr(*e.lhs);
        if (e.rhs) scan_expr(*e.rhs);
        for (const auto &arg : e.args) {
            scan_expr(*arg);
        }
    };
    for (const auto &stmt : loop.body) {
        switch (stmt->kind) {
          case StmtKind::kIndexAssign:
            consider(stmt.get(), stmt->name, *stmt->a);
            scan_expr(*stmt->b);
            scan_expr(*stmt->a);
            break;
          case StmtKind::kAssign:
          case StmtKind::kVarDecl:
          case StmtKind::kExprStmt:
          case StmtKind::kReturn:
            if (stmt->a) scan_expr(*stmt->a);
            break;
          default:
            break; // nested control flow: not unconditional
        }
    }
    if (loop.kind == StmtKind::kFor && loop.step &&
        loop.step->kind == StmtKind::kIndexAssign) {
        consider(loop.step.get(), loop.step->name, *loop.step->a);
    }
}

std::optional<Promotion>
FnCompiler::analyze_promotion(const Stmt &loop)
{
    // Requirements (conservative; see DESIGN.md):
    //  - loop body (and cond/step) contain no real calls;
    //  - a single local scalar `iv` assigned exactly once in the body
    //    (or the for-step), in the form iv = iv +/- small_const;
    //  - at least one promotable global-array access A[iv + k].
    if (loop.a && expr_has_call(*loop.a)) return std::nullopt;
    std::function<bool(const std::vector<StmtPtr> &)> body_has_call =
        [&](const std::vector<StmtPtr> &stmts) -> bool {
        for (const auto &stmt : stmts) {
            if (stmt->a && expr_has_call(*stmt->a)) return true;
            if (stmt->b && expr_has_call(*stmt->b)) return true;
            if (body_has_call(stmt->body)) return true;
            if (body_has_call(stmt->else_body)) return true;
            if (stmt->init && stmt->init->a &&
                expr_has_call(*stmt->init->a)) {
                return true;
            }
            if (stmt->step && stmt->step->a &&
                expr_has_call(*stmt->step->a)) {
                return true;
            }
        }
        return false;
    };
    if (body_has_call(loop.body)) return std::nullopt;
    if (loop.step && loop.step->a && expr_has_call(*loop.step->a)) {
        return std::nullopt;
    }

    // Find the step assignment: iv = iv +/- c.
    const Stmt *step_stmt = nullptr;
    if (loop.kind == StmtKind::kFor && loop.step &&
        loop.step->kind == StmtKind::kAssign) {
        step_stmt = loop.step.get();
    } else if (!loop.body.empty() &&
               loop.body.back()->kind == StmtKind::kAssign) {
        step_stmt = loop.body.back().get();
    }
    if (!step_stmt) return std::nullopt;

    const std::string &iv = step_stmt->name;
    auto loc = locals_.find(iv);
    if (loc == locals_.end() || loc->second.is_array) return std::nullopt;
    // Do not promote a variable that is already promoted by an
    // enclosing loop (register aliasing would break write-back).
    for (const auto &ctx : loops_) {
        if (ctx.promotion && ctx.promotion->iv == iv) return std::nullopt;
    }
    auto delta = induction_offset(*step_stmt->a, iv);
    if (!delta || *delta == 0) return std::nullopt;

    int assignments = 0;
    stmts_assign_var(loop.body, iv, &assignments);
    if (loop.step) {
        std::vector<StmtPtr> probe;
        if (loop.step->kind == StmtKind::kAssign &&
            loop.step->name == iv) {
            ++assignments;
        }
    }
    if (assignments != 1) return std::nullopt;

    Promotion promo;
    promo.iv = iv;
    promo.step = *delta;
    collect_promotable_arrays(loop, iv, promo);
    if (promo.arrays.empty()) return std::nullopt;

    // Need registers: 1 (iv) + arrays + >=3 free for body codegen.
    int free_regs = 0;
    for (int i = 0; i < kNumTemps; ++i) {
        if (!temp_busy_[i] && !temp_pinned_[i]) ++free_regs;
    }
    while (!promo.arrays.empty() &&
           free_regs < static_cast<int>(promo.arrays.size()) + 1 + 3) {
        promo.arrays.pop_back();
    }
    if (promo.arrays.empty()) return std::nullopt;
    return promo;
}

} // namespace

// ---------------------------------------------------------------------
// Redundant-check elimination (paper §4.3, optimization 1)
// ---------------------------------------------------------------------

uint64_t
eliminate_redundant_guards(std::vector<AsmItem> &items)
{
    struct Pattern {
        isa_::AddrMode mode;
        uint8_t base, index, scale;
        std::string mem_ref;
        int32_t disp;
    };
    auto pattern_of = [](const AsmItem &item) {
        Pattern p;
        p.mode = item.instr.mem.mode;
        p.base = item.instr.mem.base;
        p.index = item.instr.mem.index;
        p.scale = item.instr.mem.scale_log2;
        p.disp = item.instr.mem.disp;
        p.mem_ref = item.mem_ref;
        return p;
    };
    auto same_shape = [](const Pattern &a, const Pattern &b) {
        if (a.mode != b.mode || a.mem_ref != b.mem_ref) return false;
        switch (a.mode) {
          case isa_::AddrMode::kBaseDisp:
            return a.base == b.base;
          case isa_::AddrMode::kSib:
            return a.base == b.base && a.index == b.index &&
                   a.scale == b.scale;
          case isa_::AddrMode::kRipRel:
            return true; // same mem_ref checked above
          case isa_::AddrMode::kAbs:
            return false;
        }
        return false;
    };

    std::vector<Pattern> validated;
    auto kill_reg = [&](uint8_t reg) {
        std::erase_if(validated, [&](const Pattern &p) {
            if (p.mode == isa_::AddrMode::kBaseDisp) {
                return p.base == reg;
            }
            if (p.mode == isa_::AddrMode::kSib) {
                return p.base == reg || p.index == reg;
            }
            return false;
        });
    };
    auto covered = [&](const Pattern &p) {
        for (const auto &v : validated) {
            if (same_shape(v, p) &&
                std::abs(static_cast<int64_t>(v.disp) - p.disp) <= 2048) {
                return true;
            }
        }
        return false;
    };

    uint64_t removed_pairs = 0;
    std::vector<bool> dead(items.size(), false);

    for (size_t i = 0; i < items.size(); ++i) {
        AsmItem &item = items[i];
        if (item.kind == AsmItem::Kind::kBind) {
            validated.clear();
            continue;
        }
        Opcode op = item.instr.op;
        if (isa_::transfer_kind(op) != isa_::TransferKind::kNone ||
            op == Opcode::kLtrap || op == Opcode::kCfiLabel) {
            validated.clear();
            continue;
        }
        // A guard pair: bndcl at i, bndcu at i+1 with same group.
        if (item.guard_group >= 0 && op == Opcode::kBndclMem &&
            i + 1 < items.size() &&
            items[i + 1].guard_group == item.guard_group) {
            Pattern p = pattern_of(item);
            if (covered(p)) {
                dead[i] = dead[i + 1] = true;
                ++removed_pairs;
            } else {
                validated.push_back(p);
            }
            ++i; // skip the bndcu
            continue;
        }
        // Explicit accesses add their own post-success fact.
        if (isa_::explicit_mem_access(op) &&
            item.instr.mem.mode != isa_::AddrMode::kAbs &&
            op != Opcode::kVGather) {
            Pattern p = pattern_of(item);
            if (!covered(p)) {
                validated.push_back(p);
            }
        }
        // Register writes invalidate dependent facts.
        switch (op) {
          case Opcode::kMovRI: case Opcode::kMovRR: case Opcode::kLoad:
          case Opcode::kLoad8: case Opcode::kLoad32: case Opcode::kLea:
          case Opcode::kPop: case Opcode::kRdcycle:
          case Opcode::kAddRR: case Opcode::kAddRI: case Opcode::kSubRR:
          case Opcode::kSubRI: case Opcode::kMulRR: case Opcode::kMulRI:
          case Opcode::kDivRR: case Opcode::kModRR: case Opcode::kAndRR:
          case Opcode::kAndRI: case Opcode::kOrRR: case Opcode::kOrRI:
          case Opcode::kXorRR: case Opcode::kXorRI: case Opcode::kShlRI:
          case Opcode::kShrRI: case Opcode::kSarRI: case Opcode::kShlRR:
          case Opcode::kShrRR: case Opcode::kSarRR: case Opcode::kNeg:
          case Opcode::kNot: case Opcode::kVGather:
            // Small-constant add/sub keeps facts valid within the
            // window only if we also shift stored disps; simpler and
            // still sound: drop them.
            kill_reg(item.instr.reg1);
            break;
          default:
            break;
        }
    }

    if (removed_pairs > 0) {
        std::vector<AsmItem> kept;
        kept.reserve(items.size());
        for (size_t i = 0; i < items.size(); ++i) {
            if (!dead[i]) {
                kept.push_back(std::move(items[i]));
            }
        }
        items = std::move(kept);
    }
    return removed_pairs;
}

// ---------------------------------------------------------------------
// Public entry point
// ---------------------------------------------------------------------

Result<CompileOutput>
compile(const std::string &source, const CompileOptions &options)
{
    std::string full_source;
    if (options.with_stdlib) {
        full_source = std::string(stdlib_source()) + "\n" + source;
    } else {
        full_source = source;
    }
    auto program = parse(full_source);
    if (!program.ok()) {
        return program.error();
    }
    Program prog = program.take();
    ProgramCompiler compiler(prog, options);
    return compiler.run();
}

} // namespace occlum::toolchain
