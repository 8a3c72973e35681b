/**
 * @file
 * Verifier tests (paper §5): toolchain output must verify; hand-built
 * adversarial binaries must be rejected at the right stage; signing
 * works and tampering is detected.
 */
#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "toolchain/minic.h"
#include "verifier/verifier.h"

namespace occlum::verifier {
namespace {

using isa::Assembler;
using isa::Cond;
using isa::mem_abs;
using isa::mem_bd;
using isa::mem_sib;
using toolchain::CompileOptions;
using toolchain::InstrumentOptions;

crypto::Key128
test_key()
{
    crypto::Key128 key{};
    key[0] = 0x5a;
    return key;
}

VerifyReport
verify_source(const std::string &source,
              InstrumentOptions instrument = InstrumentOptions::full())
{
    CompileOptions options;
    options.instrument = instrument;
    auto out = toolchain::compile(source, options);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    Verifier verifier(test_key());
    return verifier.verify(out.value().image);
}


/** Terminate a hand-built snippet so stage 1's walk cannot fall off
 *  the end of the code segment. */
void
spin(Assembler &a)
{
    static int n = 0;
    std::string label = "__spin" + std::to_string(n++);
    a.bind(label);
    a.jmp(label);
}

/** Wrap hand-written code into a minimal image for the verifier. */
oelf::Image
image_from(Assembler &a, uint64_t entry_off = 0)
{
    oelf::Image image;
    image.code = a.finish();
    image.entry_offset = entry_off;
    image.heap_size = 1 << 16;
    image.stack_size = 1 << 14;
    image.flags = oelf::kFlagInstrumented;
    return image;
}

// ---- toolchain output must pass ----------------------------------------

TEST(Verifier, AcceptsInstrumentedHelloWorld)
{
    VerifyReport r = verify_source(
        "func main() { println(\"hi\"); return 0; }");
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason
                      << " @" << r.fail_address;
    EXPECT_GT(r.reachable_instructions, 0u);
    EXPECT_GT(r.cfi_labels, 0u);
}

TEST(Verifier, AcceptsNaiveInstrumentation)
{
    VerifyReport r = verify_source(
        "global int a[64];\n"
        "func main() { for (i = 0; i < 64; i = i + 1) { a[i] = i; }"
        " return a[63]; }",
        InstrumentOptions::naive());
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason;
}

TEST(Verifier, AcceptsOptimizedLoopsAndPointers)
{
    VerifyReport r = verify_source(R"(
global int a[256];
global byte buf[512];
func touch(p, n) {
    var i = 0;
    while (i < n) { bstore(p + i, i); i = i + 1; }
    return 0;
}
func main() {
    for (i = 0; i < 256; i = i + 1) { a[i] = a[i] + i; }
    touch(buf, 512);
    var m = malloc(64);
    wstore(m, 7);
    return wload(m) + a[255];
}
)");
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason
                      << " @" << r.fail_address;
    // Hoisted loops leave accesses proven by the range analysis.
    EXPECT_GT(r.checked_accesses, 0u);
}

TEST(Verifier, AcceptsRecursionAndSpawnWrappers)
{
    VerifyReport r = verify_source(R"(
func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main() {
    var fds[2];
    pipe(fds);
    write(fds[1], "x", 1);
    return fib(10);
}
)");
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason
                      << " @" << r.fail_address;
}

TEST(Verifier, RejectsUninstrumentedBinaries)
{
    // Plain `ret` and unguarded indirect control flow must fail.
    VerifyReport r = verify_source("func main() { return 0; }",
                                   InstrumentOptions::none());
    EXPECT_FALSE(r.ok);
}

// ---- stage 1: complete disassembly ---------------------------------------

TEST(Verifier, Stage1RejectsEntryNotLabel)
{
    Assembler a;
    a.nop();
    a.cfi_label(0);
    a.ltrap();
    auto image = image_from(a, 0); // entry at the nop
    Verifier v(test_key());
    VerifyReport r = v.verify(image);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

TEST(Verifier, Stage1RejectsUndecodableReachableBytes)
{
    Assembler a;
    a.cfi_label(0);
    a.raw({0xEE, 0xEE}); // invalid opcode reachable by fallthrough
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

TEST(Verifier, Stage1RejectsJumpOutsideCode)
{
    Assembler a;
    a.cfi_label(0);
    a.jmp("far");
    // Bind "far" past the end by appending raw space then the label.
    a.raw(Bytes(16, 0x00));
    a.bind("far");
    // "far" is inside; craft an actually-outside jump manually:
    isa::Instruction j;
    j.op = isa::Opcode::kJmp;
    j.imm = 1 << 20; // far beyond code end
    a.emit(j);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

TEST(Verifier, Stage1RejectsOverlappingInstructions)
{
    // A direct jump into the immediate of a mov creates a second,
    // overlapping decode of the same bytes.
    Assembler b;
    b.cfi_label(0);
    isa::Instruction jcc;
    jcc.op = isa::Opcode::kJcc;
    jcc.cond = Cond::kEq;
    jcc.imm = 3; // skips into the middle of the next mov_ri
    b.emit(jcc);
    b.mov_ri(1, 42);
    b.hlt();
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(b));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

// ---- stage 1 semantics: label scan bounds and the byte map --------------

TEST(Verifier, Stage1LabelMagicAtSizeMinus8IsARoot)
{
    // The last label candidate: an 8-byte cfi_label ending exactly at
    // the end of the code. As a root it decodes and falls through past
    // the end, which only a root can do here (nothing reaches it).
    Assembler a;
    a.cfi_label(0);
    spin(a);
    a.cfi_label(0);
    auto image = image_from(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
    EXPECT_EQ(r.reason, "control flows past the end of the code segment");
    EXPECT_EQ(r.fail_address, image.code.size());
}

TEST(Verifier, Stage1LabelMagicInTheLast7BytesIsNotARoot)
{
    Verifier v(test_key());
    for (size_t tail = 0; tail <= 3; ++tail) {
        Assembler a;
        a.cfi_label(0);
        spin(a);
        Bytes magic(std::begin(isa::kCfiMagic), std::end(isa::kCfiMagic));
        a.raw(magic);
        a.raw(Bytes(tail, 0x00)); // magic at size - 4 - tail
        VerifyReport r = v.verify(image_from(a));
        EXPECT_TRUE(r.ok) << tail << ": " << r.reason;
        EXPECT_EQ(r.cfi_labels, 1u) << tail;
    }
}

TEST(Verifier, Stage1StrayCfBytesChangeNothing)
{
    // Partial magics (including ones cut off by the end of the code)
    // must not create roots or disturb the walk.
    auto build = [](const Bytes &tail) {
        Assembler a;
        a.cfi_label(0);
        a.mov_ri(1, 5);
        a.add_ri(1, 2);
        spin(a);
        a.raw(tail);
        return image_from(a);
    };
    const uint8_t m0 = isa::kCfiMagic[0], m1 = isa::kCfiMagic[1],
                  m2 = isa::kCfiMagic[2];
    Bytes stray = {m0, m0, m1, 0x00, m0, m1, m2, 0x1C, 0x00, m0,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, m0, m1, m2};
    Verifier v(test_key());
    VerifyReport zeros = v.verify(build(Bytes(stray.size(), 0x00)));
    VerifyReport strays = v.verify(build(stray));
    ASSERT_TRUE(zeros.ok) << zeros.reason;
    EXPECT_TRUE(strays.ok) << strays.reason;
    EXPECT_EQ(strays.reachable_instructions, zeros.reachable_instructions);
    EXPECT_EQ(strays.cfi_labels, zeros.cfi_labels);
    EXPECT_EQ(strays.checked_accesses, zeros.checked_accesses);
}

TEST(Verifier, Stage1JumpIntoEveryInteriorByteOfLongestInstruction)
{
    // load r1, [abs 0] has the longest encoding (register + absolute
    // memory operand). Its interior bytes decode as hlt (r1), eexit
    // (the kAbs mode byte) and nops, so each jump reaches the overlap
    // test rather than failing to decode.
    isa::Instruction longest;
    longest.op = isa::Opcode::kLoad;
    longest.reg1 = 1;
    longest.mem = mem_abs(0);
    const size_t len = isa::encoded_length(longest);
    ASSERT_EQ(len, 11u);
    Verifier v(test_key());
    for (size_t k = 1; k < len; ++k) {
        Assembler a;
        a.cfi_label(0);
        isa::Instruction jcc;
        jcc.op = isa::Opcode::kJcc;
        jcc.cond = Cond::kEq;
        jcc.imm = static_cast<int64_t>(k); // into the next instruction
        a.emit(jcc);
        a.emit(longest);
        spin(a);
        VerifyReport r = v.verify(image_from(a));
        EXPECT_FALSE(r.ok) << k;
        EXPECT_EQ(r.failed_stage, 1) << k;
        EXPECT_EQ(r.reason, "overlapping reachable instructions") << k;
    }
}

TEST(Verifier, Stage1GuardLoadRightAfterPaddingIsStillAGuard)
{
    // prev_instr walks back bndcu -> bndcl -> load through the byte
    // map; the load's own predecessor bytes are unreachable padding.
    auto build = [](bool guarded) {
        Assembler a;
        a.cfi_label(0);
        a.mov_ri(2, 0x1000);
        a.jmp("guard");
        a.raw(Bytes(37, 0x00));
        a.bind("guard");
        if (guarded) {
            a.cfi_guard(2);
        } else {
            a.bndcl_reg(isa::kBndCfi, isa::kScratch);
            a.bndcu_reg(isa::kBndCfi, isa::kScratch);
        }
        a.jmp_reg(2);
        return image_from(a);
    };
    Verifier v(test_key());
    VerifyReport with = v.verify(build(true));
    EXPECT_TRUE(with.ok) << with.reason;
    VerifyReport without = v.verify(build(false));
    EXPECT_FALSE(without.ok);
    EXPECT_EQ(without.failed_stage, 3);
    EXPECT_EQ(without.reason,
              "register-indirect transfer without cfi_guard");
}

TEST(Verifier, Stage1PaddingLeavesTheWalkUnchanged)
{
    const char *source = R"(
func main() {
    var i = 0;
    var s = 0;
    while (i < 10) { s = s + i; i = i + 1; }
    return s;
}
)";
    Verifier v(test_key());
    VerifyReport reports[2];
    const uint64_t pads[2] = {0, 4 << 20};
    for (int i = 0; i < 2; ++i) {
        CompileOptions options;
        options.pad_code_to = pads[i];
        options.code_reserve = 8 << 20;
        auto out = toolchain::compile(source, options);
        ASSERT_TRUE(out.ok()) << out.error().message;
        EXPECT_GE(out.value().image.code.size(), pads[i]);
        reports[i] = v.verify(out.value().image);
        EXPECT_TRUE(reports[i].ok) << reports[i].reason;
    }
    EXPECT_EQ(reports[0].reachable_instructions,
              reports[1].reachable_instructions);
    EXPECT_EQ(reports[0].cfi_labels, reports[1].cfi_labels);
}

// ---- stage 2: dangerous instructions ---------------------------------------

TEST(Verifier, Stage2RejectsDangerousInstructions)
{
    auto build = [&](void (*emit)(Assembler &)) {
        Assembler a;
        a.cfi_label(0);
        emit(a);
        spin(a);
        return image_from(a);
    };
    Verifier v(test_key());
    for (auto emit : {+[](Assembler &a) { a.ltrap(); },
                      +[](Assembler &a) { a.eexit(); },
                      +[](Assembler &a) { a.hlt(); },
                      +[](Assembler &a) { a.xrstor(); },
                      +[](Assembler &a) { a.wrfsbase(2); },
                      +[](Assembler &a) { a.bndmk(0, mem_bd(1, 0)); }}) {
        VerifyReport r = v.verify(build(emit));
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.failed_stage, 2) << r.reason;
    }
}

// ---- stage 3: control transfers -------------------------------------------

TEST(Verifier, Stage3RejectsUnguardedIndirectJump)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(2, 0x1000);
    a.jmp_reg(2);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

TEST(Verifier, Stage3RejectsRet)
{
    Assembler a;
    a.cfi_label(0);
    a.ret();
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

TEST(Verifier, Stage3RejectsMemoryIndirectTransfers)
{
    Assembler a;
    a.cfi_label(0);
    a.jmp_mem(mem_bd(1, 0));
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

TEST(Verifier, Stage1RejectsEmbeddedLabelMagic)
{
    // The cfi_label "nonexistence" property (paper §4.2): even an
    // *immediate* containing the 4 magic bytes becomes a disassembly
    // root and produces overlapping instructions — rejected.
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(isa::kScratch,
             static_cast<int64_t>(isa::cfi_label_value(0)));
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1) << r.reason;
}

TEST(Verifier, Stage3RejectsDirectJumpIntoGuardInterior)
{
    // Attacker constructs the label value arithmetically (embedding
    // the magic bytes directly is caught by stage 1), then jumps to
    // the bndcl, skipping the cfi_guard's load.
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(isa::kScratch,
             static_cast<int64_t>(isa::cfi_label_value(0) >> 8));
    a.shl_ri(isa::kScratch, 8);
    a.or_ri(isa::kScratch,
            static_cast<int32_t>(isa::cfi_label_value(0) & 0xff));
    a.mov_ri(2, 0x2000);
    a.jmp("interior");
    // Hand-assembled cfi_guard with a label on its bndcl member.
    a.load(isa::kScratch, mem_bd(2, 0));
    a.bind("interior");
    a.bndcl_reg(isa::kBndCfi, isa::kScratch);
    a.bndcu_reg(isa::kBndCfi, isa::kScratch);
    a.jmp_reg(2);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3) << r.reason;
}

TEST(Verifier, Stage3RejectsJumpTargetingIndirectTransfer)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(2, 0x2000);
    a.jmp("the_jump");
    a.cfi_guard(2);
    a.bind("the_jump");
    a.jmp_reg(2);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

// ---- stage 4: memory accesses ----------------------------------------------

TEST(Verifier, Stage4RejectsUnguardedStore)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.store(mem_bd(1, 0), 2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4AcceptsGuardedStore)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.store(mem_bd(1, 0), 2);
    a.bind("spin");
    a.jmp("spin");
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_TRUE(r.ok) << r.reason << " @" << r.fail_address;
}

TEST(Verifier, Stage4RejectsGuardThenClobberThenStore)
{
    // The guard's refinement dies when the register is rewritten.
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.mov_ri(1, 0x66660000); // clobber after the check
    a.store(mem_bd(1, 0), 2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4RejectsDriftBeyondGuardRegion)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.add_ri(1, 8192); // farther than the 4 KiB guard region
    a.store(mem_bd(1, 0), 2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4AcceptsSmallDriftWithinGuardRegion)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.store(mem_bd(1, 0), 2); // success pins the EA inside D
    a.add_ri(1, 512);
    a.store(mem_bd(1, 0), 2); // within the guard window
    a.bind("spin");
    a.jmp("spin");
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_TRUE(r.ok) << r.reason;
}

TEST(Verifier, Stage4RejectsDirectMemoryOffset)
{
    Assembler a;
    a.cfi_label(0);
    a.load(2, mem_abs(0x7000));
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4RejectsVectorSib)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0);
    a.mov_ri(2, 0);
    a.vgather(3, mem_sib(1, 2, 3, 0));
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4RejectsRunawayStackPointer)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(isa::kSp, 0x40000000); // forge sp
    a.push(2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

// ---- signing -----------------------------------------------------------------

TEST(Verifier, SignsOnlyVerifiedImages)
{
    auto good = toolchain::compile("func main() { return 1; }");
    ASSERT_TRUE(good.ok());
    Verifier v(test_key());
    auto signed_image = v.verify_and_sign(good.value().image);
    ASSERT_TRUE(signed_image.ok());
    EXPECT_TRUE(signed_image.value().image().check_signature(test_key()));

    CompileOptions plain;
    plain.instrument = InstrumentOptions::none();
    auto bad = toolchain::compile("func main() { return 1; }", plain);
    ASSERT_TRUE(bad.ok());
    EXPECT_FALSE(v.verify_and_sign(bad.value().image).ok());
}

} // namespace
} // namespace occlum::verifier
