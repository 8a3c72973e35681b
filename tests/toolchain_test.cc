/**
 * @file
 * End-to-end toolchain tests: MiniC programs are compiled (with and
 * without MMDSFI instrumentation) and executed on the Linux-model
 * kernel; their console output and exit codes are checked.
 */
#include <gtest/gtest.h>

#include "baseline/linux_system.h"
#include "crypto/reference.h"
#include "isa/assembler.h"
#include "toolchain/codegen.h"
#include "toolchain/minic.h"

namespace occlum::toolchain {
namespace {

struct RunResult {
    int64_t exit_code;
    std::string console;
    uint64_t instructions;
};

RunResult
run_minic(const std::string &source, const CompileOptions &options = {},
          const std::vector<std::string> &argv = {"prog"})
{
    auto compiled = compile(source, options);
    EXPECT_TRUE(compiled.ok())
        << (compiled.ok() ? "" : compiled.error().message);
    if (!compiled.ok()) {
        return {-999, "", 0};
    }
    host::HostFileStore files;
    files.put("prog", compiled.value().image.serialize());
    SimClock clock;
    baseline::LinuxSystem sys(clock, files);
    auto pid = sys.spawn("prog", argv);
    EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
    if (!pid.ok()) {
        return {-998, "", 0};
    }
    sys.run();
    auto code = sys.exit_code(pid.value());
    EXPECT_TRUE(code.ok());
    return {code.ok() ? code.value() : -997, sys.console(),
            sys.stats().user_instructions};
}

TEST(MiniC, ReturnsExitCode)
{
    RunResult r = run_minic("func main() { return 42; }");
    EXPECT_EQ(r.exit_code, 42);
}

TEST(MiniC, PrintsHelloWorld)
{
    RunResult r = run_minic(
        "func main() { println(\"Hello, World!\"); return 0; }");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "Hello, World!\n");
}

TEST(MiniC, ArithmeticAndControlFlow)
{
    // Sum of odd squares below 100, computed the long way.
    RunResult r = run_minic(R"(
func square(x) { return x * x; }
func main() {
    var total = 0;
    var i = 0;
    while (i < 100) {
        if ((i % 2) == 1) {
            total = total + square(i);
        }
        i = i + 1;
    }
    print_int(total);
    println("");
    return 0;
}
)");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "166650\n"); // sum of odd i^2, i<100
}

TEST(MiniC, GlobalArraysAndForLoops)
{
    RunResult r = run_minic(R"(
global int fib[30];
func main() {
    fib[0] = 0;
    fib[1] = 1;
    for (i = 2; i < 30; i = i + 1) {
        fib[i] = fib[i - 1] + fib[i - 2];
    }
    return fib[29] % 251;
}
)");
    EXPECT_EQ(r.exit_code, 514229 % 251);
}

TEST(MiniC, ByteArraysAndStrings)
{
    RunResult r = run_minic(R"(
global byte msg[64] = "occlum";
func main() {
    var n = strlen(msg);
    bstore(msg + n, '!');
    bstore(msg + n + 1, 0);
    println(msg);
    return strcmp(msg, "occlum!");
}
)");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "occlum!\n");
}

TEST(MiniC, LocalArraysRecursionMalloc)
{
    RunResult r = run_minic(R"(
func fact(n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
func main() {
    var buf[8];
    buf[0] = fact(10);
    var p = malloc(128);
    if (p == 0) { return 1; }
    wstore(p, buf[0]);
    return wload(p) == 3628800;
}
)");
    EXPECT_EQ(r.exit_code, 1);
}

TEST(MiniC, ArgcArgv)
{
    RunResult r = run_minic(R"(
global byte argbuf[64];
func main() {
    print_int(argc());
    getarg(1, argbuf, 64);
    print(" ");
    println(argbuf);
    return 0;
}
)",
                            CompileOptions{}, {"prog", "banana"});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "2 banana\n");
}

TEST(MiniC, NegativeDivisionAndShifts)
{
    RunResult r = run_minic(R"(
func main() {
    var a = -100;
    var b = a / 7;      // -14
    var c = a % 7;      // -2
    var d = (1 << 40) >> 35; // 32
    var e = (-64) >> 3; // arithmetic: -8
    return (b == -14) + (c == -2) + (d == 32) + (e == -8);
}
)");
    EXPECT_EQ(r.exit_code, 4);
}

TEST(MiniC, LogicalOperatorsShortCircuit)
{
    RunResult r = run_minic(R"(
global int side_effects;
func bump() { side_effects = side_effects + 1; return 1; }
func main() {
    var a = 0;
    if (a && bump()) { return 100; }       // bump not called
    if (!a || bump()) { a = 1; }           // bump not called
    if (a && bump()) { a = 2; }            // bump called
    return side_effects * 10 + a;
}
)");
    EXPECT_EQ(r.exit_code, 12);
}

TEST(MiniC, CompileErrors)
{
    const char *bad_sources[] = {
        "func main() { return undefined_var; }",
        "func main() { nosuchfn(1); }",
        "func main() { return 1; ",              // unterminated block
        "global int x; global int x; func main() { return 0; }",
        "func main(a, b, c, d, e, f) { return 0; }", // too many params
    };
    for (const char *src : bad_sources) {
        auto out = compile(src);
        EXPECT_FALSE(out.ok()) << src;
    }
}

TEST(MiniC, InstrumentationModesAllRun)
{
    const char *src = R"(
global int data[256];
func main() {
    for (i = 0; i < 256; i = i + 1) { data[i] = i * 3; }
    var sum = 0;
    for (i = 0; i < 256; i = i + 1) { sum = sum + data[i]; }
    return sum % 97;
}
)";
    int64_t expect = (255 * 256 / 2 * 3) % 97;
    for (auto instrument :
         {InstrumentOptions::none(), InstrumentOptions::naive(),
          InstrumentOptions::full()}) {
        CompileOptions options;
        options.instrument = instrument;
        RunResult r = run_minic(src, options);
        EXPECT_EQ(r.exit_code, expect);
    }
}

TEST(MiniC, InstrumentationAddsOverhead)
{
    const char *src = R"(
global int data[512];
func main() {
    for (i = 0; i < 512; i = i + 1) { data[i] = i; }
    var sum = 0;
    var round = 0;
    while (round < 50) {
        for (i = 0; i < 512; i = i + 1) { sum = sum + data[i]; }
        round = round + 1;
    }
    return sum % 251;
}
)";
    CompileOptions none;
    none.instrument = InstrumentOptions::none();
    CompileOptions naive;
    naive.instrument = InstrumentOptions::naive();
    CompileOptions full;
    full.instrument = InstrumentOptions::full();

    RunResult r_none = run_minic(src, none);
    RunResult r_naive = run_minic(src, naive);
    RunResult r_full = run_minic(src, full);
    ASSERT_EQ(r_none.exit_code, r_naive.exit_code);
    ASSERT_EQ(r_none.exit_code, r_full.exit_code);
    // Naive instrumentation costs more than optimized, which costs
    // more than none (the Fig. 7b ordering).
    EXPECT_GT(r_naive.instructions, r_full.instructions);
    EXPECT_GT(r_full.instructions, r_none.instructions);
}

TEST(MiniC, OptimizerStatsReported)
{
    const char *src = R"(
global int data[512];
func main() {
    var sum = 0;
    for (i = 0; i < 512; i = i + 1) { sum = sum + data[i]; }
    return sum;
}
)";
    CompileOptions naive;
    naive.instrument = InstrumentOptions::naive();
    auto naive_out = compile(src, naive);
    ASSERT_TRUE(naive_out.ok());
    EXPECT_EQ(naive_out.value().stats.mem_guards_hoisted, 0u);
    EXPECT_EQ(naive_out.value().stats.mem_guards_elided_static, 0u);

    CompileOptions full;
    full.instrument = InstrumentOptions::full();
    auto full_out = compile(src, full);
    ASSERT_TRUE(full_out.ok());
    // The array walk should be hoisted and frame slots elided.
    EXPECT_GT(full_out.value().stats.mem_guards_hoisted, 0u);
    EXPECT_GT(full_out.value().stats.mem_guards_elided_static, 0u);
    EXPECT_GT(full_out.value().stats.cfi_labels, 0u);
    EXPECT_GT(full_out.value().stats.cfi_guards, 0u);
}

TEST(MiniC, ImageRoundTripsAndSigns)
{
    auto out = compile("func main() { return 7; }");
    ASSERT_TRUE(out.ok());
    oelf::Image &image = out.value().image;
    crypto::Key128 key{};
    key[0] = 0x42;
    image.sign(key);
    Bytes raw = image.serialize();
    auto parsed = oelf::Image::parse(raw);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().check_signature(key));
    EXPECT_EQ(parsed.value().entry_offset, image.entry_offset);
    EXPECT_EQ(parsed.value().code, image.code);
    // Tampering breaks the signature.
    parsed.value().code[0] ^= 1;
    EXPECT_FALSE(parsed.value().check_signature(key));
}

/** A hand-built image: `code_len` code bytes, `symbols` symbols. */
oelf::Image
digest_test_image(size_t code_len, size_t data_len, size_t symbols)
{
    oelf::Image image;
    image.entry_offset = code_len / 2;
    image.code.resize(code_len);
    for (size_t i = 0; i < code_len; ++i) {
        image.code[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    image.data.assign(data_len, 0x5A);
    image.bss_size = 123;
    image.flags = oelf::kFlagInstrumented;
    image.code_reserve = 1 << 20;
    for (size_t i = 0; i < symbols; ++i) {
        image.symbols.push_back(
            {"sym_" + std::to_string(i) + std::string(i % 13, 'x'),
             i * 16});
    }
    return image;
}

TEST(Oelf, StreamedDigestMatchesUnsignedSerialization)
{
    crypto::Key128 key{};
    key[5] = 0x3C;
    const bool saved_mode = crypto::reference_mode();
    for (bool reference : {false, true}) {
        crypto::set_reference_mode(reference);
        for (size_t code_len : {4096u, 4097u, 4159u, 64u, 65u}) {
            for (size_t data_len : {0u, 1u, 300u}) {
                for (size_t symbols : {0u, 1u, 250u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "reference " << reference << " code "
                                 << code_len << " data " << data_len
                                 << " symbols " << symbols);
                    oelf::Image image =
                        digest_test_image(code_len, data_len, symbols);
                    // The digest is SHA-256 of the unsigned
                    // serialization, before and after signing.
                    crypto::Sha256Digest expect =
                        crypto::Sha256::digest(image.serialize());
                    EXPECT_EQ(image.content_digest(), expect);
                    image.sign(key);
                    EXPECT_EQ(image.content_digest(), expect);

                    Bytes raw = image.serialize();
                    auto parsed = oelf::Image::parse(raw);
                    ASSERT_TRUE(parsed.ok());
                    EXPECT_TRUE(parsed.value().check_signature(key));

                    // One flipped byte anywhere signed must fail:
                    // heap_size, flags, a symbol name, code, data.
                    std::vector<size_t> flips = {40, 64};
                    if (symbols > 0) {
                        flips.push_back(74); // first name byte
                    }
                    size_t code_at = raw.size() - data_len - code_len;
                    flips.push_back(code_at);
                    flips.push_back(code_at + code_len - 1);
                    if (data_len > 0) {
                        flips.push_back(raw.size() - 1);
                    }
                    for (size_t at : flips) {
                        Bytes tampered = raw;
                        tampered[at] ^= 0x01;
                        auto bad = oelf::Image::parse(tampered);
                        ASSERT_TRUE(bad.ok()) << "flip at " << at;
                        EXPECT_FALSE(bad.value().check_signature(key))
                            << "flip at " << at;
                    }
                }
            }
        }
    }
    crypto::set_reference_mode(saved_mode);
}

// ---- eliminate_redundant_guards on hand-built item lists ----------------
// Every Occlum binary goes through this pass; the trace translator
// fuses checks but never drops one, so this is the only place a
// redundant mem_guard disappears.

/** Append a removable mem_guard pair (bndcl+bndcu, one group) on `mem`. */
void
add_guard(std::vector<AsmItem> &items, const isa::MemOperand &mem)
{
    int group = static_cast<int>(items.size());
    for (isa::Opcode op : {isa::Opcode::kBndclMem, isa::Opcode::kBndcuMem}) {
        AsmItem item;
        item.instr.op = op;
        item.instr.bnd = isa::kBndData;
        item.instr.mem = mem;
        item.guard_group = group;
        items.push_back(item);
    }
}

void
add_instr(std::vector<AsmItem> &items, isa::Opcode op, uint8_t reg1 = 0)
{
    AsmItem item;
    item.instr.op = op;
    item.instr.reg1 = reg1;
    items.push_back(item);
}

/** Guard on `first`, then `between`, then a guard on `second`: the
 *  number of pairs removed and the items left. */
std::pair<uint64_t, size_t>
eliminate_around(const isa::MemOperand &first,
                 const std::vector<AsmItem> &between,
                 const isa::MemOperand &second)
{
    std::vector<AsmItem> items;
    add_guard(items, first);
    items.insert(items.end(), between.begin(), between.end());
    add_guard(items, second);
    uint64_t removed = eliminate_redundant_guards(items);
    return {removed, items.size()};
}

TEST(RedundantGuards, ExactDuplicateInOneBlockIsRemovedAndCounted)
{
    std::vector<AsmItem> load;
    add_instr(load, isa::Opcode::kLoad, 1);
    load.back().instr.mem = isa::mem_bd(3, 16);
    auto [removed, left] =
        eliminate_around(isa::mem_bd(3, 16), load, isa::mem_bd(3, 16));
    EXPECT_EQ(removed, 1u);
    EXPECT_EQ(left, 3u); // first pair + the load

    std::vector<AsmItem> items;
    add_guard(items, isa::mem_sib(3, 4, 3, 8));
    add_guard(items, isa::mem_sib(3, 4, 3, 8));
    add_guard(items, isa::mem_sib(3, 4, 3, 8));
    EXPECT_EQ(eliminate_redundant_guards(items), 2u);
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].instr.op, isa::Opcode::kBndclMem);
    EXPECT_EQ(items[1].instr.op, isa::Opcode::kBndcuMem);
}

TEST(RedundantGuards, DisplacementWindowIsExactly2048Bytes)
{
    EXPECT_EQ(eliminate_around(isa::mem_bd(3, 0), {}, isa::mem_bd(3, 2048))
                  .first,
              1u);
    EXPECT_EQ(eliminate_around(isa::mem_bd(3, 2048), {}, isa::mem_bd(3, 0))
                  .first,
              1u);
    auto [removed, left] =
        eliminate_around(isa::mem_bd(3, 0), {}, isa::mem_bd(3, 2049));
    EXPECT_EQ(removed, 0u);
    EXPECT_EQ(left, 4u);
    EXPECT_EQ(eliminate_around(isa::mem_bd(3, 2049), {}, isa::mem_bd(3, 0))
                  .first,
              0u);
    // The window also holds for SIB operands of one shape...
    EXPECT_EQ(eliminate_around(isa::mem_sib(3, 4, 0, 0), {},
                               isa::mem_sib(3, 4, 0, 2048))
                  .first,
              1u);
    EXPECT_EQ(eliminate_around(isa::mem_sib(3, 4, 0, 0), {},
                               isa::mem_sib(3, 4, 0, 2049))
                  .first,
              0u);
    // ...and never across shapes.
    EXPECT_EQ(eliminate_around(isa::mem_bd(3, 0), {}, isa::mem_bd(5, 0))
                  .first,
              0u);
    EXPECT_EQ(eliminate_around(isa::mem_sib(3, 4, 0, 0), {},
                               isa::mem_sib(3, 4, 3, 0))
                  .first,
              0u);
}

TEST(RedundantGuards, BlockBoundariesForgetValidatedAddresses)
{
    std::vector<AsmItem> bind(1);
    bind[0].kind = AsmItem::Kind::kBind;
    bind[0].bind_name = "L";
    std::vector<AsmItem> jmp;
    add_instr(jmp, isa::Opcode::kJmp);
    jmp.back().branch_ref = "L";
    std::vector<AsmItem> ltrap;
    add_instr(ltrap, isa::Opcode::kLtrap);
    std::vector<AsmItem> label;
    add_instr(label, isa::Opcode::kCfiLabel);
    for (const auto *between : {&bind, &jmp, &ltrap, &label}) {
        auto [removed, left] =
            eliminate_around(isa::mem_bd(3, 8), *between, isa::mem_bd(3, 8));
        EXPECT_EQ(removed, 0u);
        EXPECT_EQ(left, 5u);
    }
}

TEST(RedundantGuards, RegisterWritesForgetDependentAddresses)
{
    std::vector<AsmItem> base_write;
    add_instr(base_write, isa::Opcode::kAddRI, 3);
    base_write.back().instr.imm = 8;
    EXPECT_EQ(eliminate_around(isa::mem_bd(3, 8), base_write,
                               isa::mem_bd(3, 8))
                  .first,
              0u);

    std::vector<AsmItem> index_write;
    add_instr(index_write, isa::Opcode::kMovRI, 4);
    EXPECT_EQ(eliminate_around(isa::mem_sib(3, 4, 3, 0), index_write,
                               isa::mem_sib(3, 4, 3, 0))
                  .first,
              0u);
    std::vector<AsmItem> sib_base_write;
    add_instr(sib_base_write, isa::Opcode::kMovRI, 3);
    EXPECT_EQ(eliminate_around(isa::mem_sib(3, 4, 3, 0), sib_base_write,
                               isa::mem_sib(3, 4, 3, 0))
                  .first,
              0u);

    // A write to a register the address does not use keeps the fact.
    std::vector<AsmItem> other_write;
    add_instr(other_write, isa::Opcode::kMovRI, 5);
    EXPECT_EQ(eliminate_around(isa::mem_bd(3, 8), other_write,
                               isa::mem_bd(3, 8))
                  .first,
              1u);
    EXPECT_EQ(eliminate_around(isa::mem_sib(3, 4, 3, 0), other_write,
                               isa::mem_sib(3, 4, 3, 0))
                  .first,
              1u);
}

} // namespace
} // namespace occlum::toolchain
