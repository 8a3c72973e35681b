/**
 * @file
 * Occlum LibOS integration tests: spawn/wait/IPC with SIPs inside a
 * single enclave, loader signature enforcement, syscall-return
 * validation, the writable encrypted FS seen identically by all SIPs
 * (Table 1), and the EIP baseline's contrasting behaviour.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "base/rng.h"
#include "baseline/eip_system.h"
#include "baseline/linux_system.h"
#include "faultsim/faultsim.h"
#include "isa/assembler.h"
#include "libos/occlum_system.h"
#include "oelf/abi.h"
#include "oskit/quantum_pool.h"
#include "toolchain/minic.h"
#include "trace/metrics.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

namespace occlum::libos {
namespace {

crypto::Key128
vkey()
{
    crypto::Key128 key{};
    key[3] = 0x77;
    return key;
}

/** Compile + verify + sign a MiniC program for Occlum: the build
 *  product, whose put() memoizes the digest the verifier signed. */
oelf::SignedBinary
build_product(const std::string &source)
{
    auto out = toolchain::compile(source);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    verifier::Verifier verifier(vkey());
    auto signed_image = verifier.verify_and_sign(out.value().image);
    EXPECT_TRUE(signed_image.ok())
        << (signed_image.ok() ? "" : signed_image.error().message);
    return signed_image.value().serialize();
}

/** The build product's bytes alone: a put() of them memoizes nothing,
 *  so the first spawn hashes them. */
Bytes
build_signed(const std::string &source)
{
    return build_product(source).bytes();
}

struct OcclumHarness {
    sgx::Platform platform;
    host::HostFileStore binaries;
    std::unique_ptr<OcclumSystem> sys;

    explicit OcclumHarness(int slots = 8)
    {
        OcclumSystem::Config config;
        config.num_slots = slots;
        config.verifier_key = vkey();
        sys = std::make_unique<OcclumSystem>(platform, binaries, config);
    }

    void
    add_program(const std::string &name, const std::string &source)
    {
        binaries.put(name, build_signed(source));
    }

    int64_t
    run_main(const std::string &source,
             const std::vector<std::string> &argv = {"main"})
    {
        add_program("main", source);
        auto pid = sys->spawn("main", argv);
        EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
        if (!pid.ok()) return -999;
        sys->run();
        auto code = sys->exit_code(pid.value());
        return code.ok() ? code.value() : -998;
    }
};

TEST(Occlum, RunsHelloWorld)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(
                  "func main() { println(\"hello from a SIP\");"
                  " return 0; }"),
              0);
    EXPECT_EQ(h.sys->console(), "hello from a SIP\n");
}

TEST(Occlum, RejectsUnsignedBinaries)
{
    OcclumHarness h;
    auto out = toolchain::compile("func main() { return 0; }");
    ASSERT_TRUE(out.ok());
    h.binaries.put("unsigned", out.value().image.serialize());
    EXPECT_FALSE(h.sys->spawn("unsigned", {"unsigned"}).ok());
}

TEST(Occlum, RejectsBinariesSignedWithWrongKey)
{
    OcclumHarness h;
    auto out = toolchain::compile("func main() { return 0; }");
    ASSERT_TRUE(out.ok());
    crypto::Key128 wrong{};
    wrong[0] = 0x99;
    verifier::Verifier impostor(wrong);
    auto badly_signed = impostor.verify_and_sign(out.value().image);
    ASSERT_TRUE(badly_signed.ok());
    h.binaries.put("bad", badly_signed.value().serialize());
    EXPECT_FALSE(h.sys->spawn("bad", {"bad"}).ok());
}

TEST(Occlum, SpawnChildAndWait)
{
    OcclumHarness h;
    h.add_program("child", R"(
func main() {
    print("child ");
    return 33;
}
)");
    EXPECT_EQ(h.run_main(R"(
global byte path[16] = "child";
func main() {
    var argvv[1];
    argvv[0] = path;
    var pid = spawn(path, argvv, 1);
    if (pid < 0) { return 1; }
    var status = waitpid(pid);
    print("parent");
    return status;
}
)"),
              33);
    EXPECT_EQ(h.sys->console(), "child parent");
}

TEST(Occlum, PipeBetweenSips)
{
    OcclumHarness h;
    h.add_program("producer", R"(
func main() {
    var i = 0;
    while (i < 5) {
        print("msg");
        i = i + 1;
    }
    return 0;
}
)");
    EXPECT_EQ(h.run_main(R"(
global byte path[16] = "producer";
global byte buf[256];
func main() {
    var fds[2];
    pipe(fds);
    var io[3];
    io[0] = 0 - 1;       // inherit stdin
    io[1] = fds[1];      // child stdout -> pipe write end
    io[2] = 0 - 1;
    var argvv[1];
    argvv[0] = path;
    var pid = syscall(5, path, strlen(path), argvv, 1, io);
    close(fds[1]);
    var total = 0;
    while (1) {
        var n = read(fds[0], buf, 256);
        if (n <= 0) { break; }
        total = total + n;
    }
    waitpid(pid);
    return total;  // 5 * 3 bytes
}
)"),
              15);
}

TEST(Occlum, SharedWritableEncryptedFs)
{
    // Table 1's headline: SIPs share one *writable* encrypted FS with
    // a unified view. The writer SIP creates a file; the reader SIP
    // (spawned after) sees it immediately.
    OcclumHarness h;
    h.add_program("writer", R"(
global byte p[16] = "/shared.txt";
func main() {
    var fd = open(p, 0x242);   // CREAT|TRUNC|WRONLY
    if (fd < 0) { return 1; }
    write(fd, "occlum-data", 11);
    close(fd);
    return 0;
}
)");
    h.add_program("reader", R"(
global byte p[16] = "/shared.txt";
global byte buf[64];
func main() {
    var fd = open(p, 0);
    if (fd < 0) { return 1; }
    var n = read(fd, buf, 64);
    close(fd);
    print(buf);
    return n;
}
)");
    EXPECT_EQ(h.run_main(R"(
global byte w[16] = "writer";
global byte r[16] = "reader";
func main() {
    var argvv[1];
    argvv[0] = w;
    var pid = spawn(w, argvv, 1);
    if (waitpid(pid) != 0) { return 100; }
    argvv[0] = r;
    pid = spawn(r, argvv, 1);
    return waitpid(pid);
}
)"),
              11);
    EXPECT_EQ(h.sys->console(), "occlum-data");
    // And the data is really encrypted at rest.
    ASSERT_TRUE(h.sys->fs().sync().ok());
    std::string needle = "occlum-data";
    for (uint64_t b = 0; b < h.sys->device().block_count(); ++b) {
        const Bytes &raw = h.sys->device().raw_block(b);
        if (raw.empty()) continue;
        auto it = std::search(raw.begin(), raw.end(), needle.begin(),
                              needle.end());
        EXPECT_EQ(it, raw.end());
    }
}

TEST(Occlum, DevAndProcSpecialFiles)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(R"(
global byte devnull[16] = "/dev/null";
global byte devzero[16] = "/dev/zero";
global byte meminfo[24] = "/proc/meminfo";
global byte buf[64];
func main() {
    var fd = open(devnull, 1);
    var ok = write(fd, "x", 1) == 1;
    close(fd);
    fd = open(devzero, 0);
    buf[0] = 'x';
    read(fd, buf, 8);
    ok = ok + (bload(buf) == 0);
    close(fd);
    fd = open(meminfo, 0);
    var n = read(fd, buf, 64);
    ok = ok + (n > 0);
    close(fd);
    return ok;
}
)"),
              3);
}

TEST(Occlum, MmapGivesZeroedMemory)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(R"(
func main() {
    var p = mmap(8192);
    if (p <= 0) { return 1; }
    var i = 0;
    while (i < 8192) {
        if (bload(p + i) != 0) { return 2; }
        i = i + 512;
    }
    wstore(p, 12345);
    return wload(p) == 12345;
}
)"),
              1);
}

TEST(Occlum, SlotsRecycleAfterExit)
{
    OcclumHarness h(2); // only two slots
    h.add_program("noop", "func main() { return 0; }");
    EXPECT_EQ(h.run_main(R"(
global byte path[8] = "noop";
func main() {
    var argvv[1];
    argvv[0] = path;
    // 5 sequential children through 1 remaining slot: recycling works.
    var i = 0;
    while (i < 5) {
        var pid = spawn(path, argvv, 1);
        if (pid < 0) { return 1; }
        if (waitpid(pid) != 0) { return 2; }
        i = i + 1;
    }
    return 0;
}
)"),
              0);
    EXPECT_EQ(h.sys->free_slots(), 2);
}

/** True if every byte of `bytes[begin, end)` is zero. */
bool
all_zero(const Bytes &bytes, size_t begin, size_t end)
{
    return std::all_of(bytes.begin() + begin, bytes.begin() + end,
                       [](uint8_t b) { return b == 0; });
}

TEST(OcclumSystem, ReusedSlotIsWipedForAShorterImage)
{
    // Paper §3.1: a SIP must not see a predecessor's memory. SIP A
    // (more code, padded) fills its globals, heap, mmap area and stack
    // with a pattern; SIP B (less code) reuses A's slot. The loader
    // only writes what B's image and PCB need, so everything else the
    // slot holds must have been wiped before B's load.
    OcclumHarness h(1);
    OcclumSystem::Config defaults;
    const uint64_t base = defaults.enclave_base;
    const uint64_t code_size = defaults.slot_code_size;
    const uint64_t data_size = defaults.slot_data_size;
    const uint64_t data_base =
        base + oelf::kTrampSize + code_size + oelf::kGuardSize;
    vm::AddressSpace &mem = h.sys->enclave().mem();
    auto read_slot = [&](uint64_t addr, uint64_t len) {
        Bytes out(len);
        EXPECT_EQ(mem.read_raw(addr, out.data(), len), vm::AccessFault::kNone);
        return out;
    };

    // A: bulk code (a long straight-line function), then the fills.
    std::string a_source = "global int g[512];\nfunc bulk(x) {\n";
    for (int i = 0; i < 300; ++i) {
        a_source += "    x = x * 3 + " + std::to_string(i) + ";\n";
    }
    a_source += R"(    return x;
}
func main() {
    var stk[200];
    var i = 0;
    while (i < 512) { g[i] = 1515870810; i = i + 1; }
    i = 0;
    while (i < 200) { stk[i] = 1515870810; i = i + 1; }
    var a = heap_begin();
    var end = stk - 64;
    while (a < end) { wstore(a, 1515870810); a = a + 8; }
    return bulk(0) * 0;
}
)";
    toolchain::CompileOptions padded;
    padded.pad_code_to = 256 << 10;
    auto a_out = toolchain::compile(a_source, padded);
    ASSERT_TRUE(a_out.ok()) << a_out.error().message;
    verifier::Verifier verifier(vkey());
    auto a_signed = verifier.verify_and_sign(a_out.value().image);
    ASSERT_TRUE(a_signed.ok());
    h.binaries.put("a", a_signed.value().serialize());

    // B scans its own heap, mmap area and stack before touching them.
    h.add_program("b", R"(
func main() {
    var stk[200];
    var i = 0;
    while (i < 200) { if (stk[i] != 0) { return 1; } i = i + 1; }
    var a = heap_begin();
    var end = stk - 64;
    while (a < end) { if (wload(a) != 0) { return 2; } a = a + 8; }
    return 0;
}
)");
    auto b_image = oelf::Image::parse(*h.binaries.get("b").value());
    ASSERT_TRUE(b_image.ok());
    const oelf::Image &b = b_image.value();
    const oelf::Image &a = a_signed.value().image();
    // A's real (nonzero) code runs past B's code, so the code check
    // below sees stale bytes unless the tail was wiped.
    ASSERT_FALSE(all_zero(a.code, b.code.size(), a.code.size()));

    auto a_pid = h.sys->spawn("a", {"a"});
    ASSERT_TRUE(a_pid.ok());
    h.sys->run();
    ASSERT_EQ(h.sys->exit_code(a_pid.value()).value(), 0);
    ASSERT_EQ(h.sys->free_slots(), 1);
    Bytes stale = read_slot(data_base, data_size);
    ASSERT_FALSE(all_zero(stale, abi::kPcbSize + b.data.size(), data_size));

    auto b_pid = h.sys->spawn("b", {"b"});
    ASSERT_TRUE(b_pid.ok());
    ASSERT_EQ(h.sys->free_slots(), 0);

    // Code region past B's code: zero.
    Bytes code = read_slot(base + oelf::kTrampSize, code_size);
    EXPECT_TRUE(all_zero(code, b.code.size(), code.size()));
    // Trampoline: exactly B's gate, then zeros.
    Bytes data = read_slot(data_base, data_size);
    uint32_t domain_id =
        get_le<uint32_t>(data.data() + abi::kPcbDomainId);
    isa::Assembler gate(base);
    gate.cfi_label(domain_id);
    gate.ltrap();
    Bytes gate_code = gate.finish();
    Bytes tramp = read_slot(base, oelf::kTrampSize);
    EXPECT_TRUE(std::equal(gate_code.begin(), gate_code.end(),
                           tramp.begin()));
    EXPECT_TRUE(all_zero(tramp, gate_code.size(), tramp.size()));
    // Data region: B's initialized data after the PCB, zeros beyond.
    EXPECT_TRUE(std::equal(b.data.begin(), b.data.end(),
                           data.begin() + abi::kPcbSize));
    EXPECT_TRUE(all_zero(data, abi::kPcbSize + b.data.size(), data_size));

    h.sys->run();
    EXPECT_EQ(h.sys->exit_code(b_pid.value()).value(), 0);
}

TEST(Occlum, SpawnCostScalesWithBinarySizeNotEnclaveCreation)
{
    // Fig. 6a's mechanism: Occlum spawn = fixed + per-page copy.
    OcclumHarness h;
    h.add_program("noop", "func main() { return 0; }");
    uint64_t small_before = h.platform.clock().cycles();
    auto pid = h.sys->spawn("noop", {"noop"});
    ASSERT_TRUE(pid.ok());
    uint64_t small_cost = h.platform.clock().cycles() - small_before;
    h.sys->run();

    // A padded (large) binary in a fresh system.
    toolchain::CompileOptions big;
    big.pad_code_to = 512 << 10;
    auto big_out = toolchain::compile("func main() { return 0; }", big);
    ASSERT_TRUE(big_out.ok());
    verifier::Verifier verifier(vkey());
    auto signed_big = verifier.verify_and_sign(big_out.value().image);
    ASSERT_TRUE(signed_big.ok());

    OcclumHarness h2;
    h2.binaries.put("big", signed_big.value().serialize());
    uint64_t before = h2.platform.clock().cycles();
    auto pid2 = h2.sys->spawn("big", {"big"});
    ASSERT_TRUE(pid2.ok());
    uint64_t big_cost = h2.platform.clock().cycles() - before;
    EXPECT_GT(big_cost, small_cost);
    // Far cheaper than creating a 256 MiB enclave.
    uint64_t eip_floor = CostModel::pages_for(
                             CostModel::kEipMinEnclaveBytes) *
                         CostModel::kEaddEextendCyclesPerPage;
    EXPECT_LT(big_cost, eip_floor / 10);
}

TEST(Occlum, ArgvArrivesViaPcb)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(R"(
global byte buf[64];
func main() {
    if (argc() != 3) { return 1; }
    getarg(2, buf, 64);
    println(buf);
    return 0;
}
)",
                         {"main", "alpha", "beta"}),
              0);
    EXPECT_EQ(h.sys->console(), "beta\n");
}

// ---- the host store's digest memo ----------------------------------------

/** Spawn `path` under `sys` and run to completion: its exit code. */
Result<int64_t>
spawn_and_run(OcclumSystem &sys, const std::string &path)
{
    auto pid = sys.spawn(path, {path});
    if (!pid.ok()) {
        return pid.error();
    }
    sys.run();
    return sys.exit_code(pid.value());
}

/** Offset of the last code byte in a serialized image. */
size_t
last_code_byte(const Bytes &raw)
{
    auto image = oelf::Image::parse(raw);
    EXPECT_TRUE(image.ok());
    return raw.size() - image.value().data.size() - 1;
}

/** Expect `sys` to refuse to spawn `path` as not verifier-signed. */
void
expect_no_exec(OcclumSystem &sys, const std::string &path)
{
    auto pid = sys.spawn(path, {path});
    ASSERT_FALSE(pid.ok());
    EXPECT_EQ(pid.error().code, ErrorCode::kNoExec);
}

const char *const kExit11 = "func main() { return 11; }";
const char *const kExit22 = "func main() { return 22; }";

TEST(DigestMemo, TamperThroughPutAfterSpawnIsNoExec)
{
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    OcclumHarness h;
    h.add_program("p", kExit11);
    ASSERT_EQ(spawn_and_run(*h.sys, "p").value(), 11);
    // The spawn filled the memo.
    h.binaries.memoized_digest("p", h.binaries.version("p"), [] {
        ADD_FAILURE() << "memo missed";
        return crypto::Sha256Digest{};
    });

    Bytes tampered = *h.binaries.get("p").value();
    tampered[last_code_byte(tampered)] ^= 0x01;
    h.binaries.put("p", tampered);
    expect_no_exec(*h.sys, "p");
}

TEST(DigestMemo, TamperThroughGetMutableIsNoExec)
{
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    OcclumHarness h;
    h.add_program("p", kExit11);
    ASSERT_EQ(spawn_and_run(*h.sys, "p").value(), 11);

    Bytes &bytes = *h.binaries.get_mutable("p").value();
    const size_t at = last_code_byte(bytes);
    bytes[at] ^= 0x01;
    expect_no_exec(*h.sys, "p");
    // Unversioned from now on: every spawn hashes what is there.
    bytes[at] ^= 0x01;
    EXPECT_EQ(spawn_and_run(*h.sys, "p").value(), 11);
    bytes[at] ^= 0x01;
    expect_no_exec(*h.sys, "p");
}

TEST(DigestMemo, SystemsSharingAStoreEachCheckTheirOwnKey)
{
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    host::HostFileStore store;
    store.put("p", build_signed(kExit11));
    OcclumSystem::Config config;
    config.num_slots = 2;
    config.verifier_key = vkey();
    sgx::Platform platform_a;
    OcclumSystem a(platform_a, store, config);
    config.verifier_key[0] ^= 0x5A;
    sgx::Platform platform_b;
    OcclumSystem b(platform_b, store, config);

    // A fills the memo; B still refuses a binary its key did not sign.
    ASSERT_EQ(spawn_and_run(a, "p").value(), 11);
    expect_no_exec(b, "p");
    EXPECT_EQ(spawn_and_run(a, "p").value(), 11);
}

TEST(DigestMemo, RemoveThenPutRunsTheNewProgram)
{
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    OcclumHarness h;
    h.add_program("p", kExit11);
    ASSERT_EQ(spawn_and_run(*h.sys, "p").value(), 11);
    const uint64_t old_version = h.binaries.version("p");
    h.binaries.remove("p");
    h.add_program("p", kExit22);
    EXPECT_NE(h.binaries.version("p"), old_version);
    EXPECT_EQ(spawn_and_run(*h.sys, "p").value(), 22);
}

TEST(DigestMemo, PlainPutIsHashedAtTheFirstSpawnOnly)
{
    // A put of plain bytes memoizes nothing: the first spawn hashes
    // them and stores the digest, and the second hashes nothing.
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    OcclumHarness h;
    h.add_program("p", kExit11);
    const uint64_t misses = h.binaries.memo_misses();
    ASSERT_EQ(spawn_and_run(*h.sys, "p").value(), 11);
    EXPECT_EQ(h.binaries.memo_misses(), misses + 1);
    ASSERT_EQ(spawn_and_run(*h.sys, "p").value(), 11);
    EXPECT_EQ(h.binaries.memo_misses(), misses + 1);
}

TEST(DigestMemo, SeededPutThenTamperIsNoExec)
{
    // The put of a build product memoizes the signed digest before any
    // spawn. A bit flipped through get_mutable must still be refused,
    // and flipping it back makes the binary run.
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    OcclumHarness h;
    h.binaries.put("p", build_product(kExit11));
    Bytes &bytes = *h.binaries.get_mutable("p").value();
    const size_t at = last_code_byte(bytes);
    bytes[at] ^= 0x01;
    expect_no_exec(*h.sys, "p");
    bytes[at] ^= 0x01;
    EXPECT_EQ(spawn_and_run(*h.sys, "p").value(), 11);
}

TEST(DigestMemo, PlainPutDropsTheSeed)
{
    // A plain put of other bytes at a seeded path is hashed again, so
    // the seed of the signed bytes cannot vouch for them.
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    OcclumHarness h;
    h.binaries.put("p", build_product(kExit11));
    Bytes tampered = *h.binaries.get("p").value();
    tampered[last_code_byte(tampered)] ^= 0x01;
    h.binaries.put("p", tampered);
    const uint64_t misses = h.binaries.memo_misses();
    expect_no_exec(*h.sys, "p");
    EXPECT_EQ(h.binaries.memo_misses(), misses + 1);
}

TEST(DigestMemo, BuildProductsCarryTheirContentDigest)
{
    // The digest a build product carries is the content digest of the
    // Image its bytes parse to, for every workload program the benches
    // build (unpadded, plus one at sip-storm's 256 KiB pad).
    std::vector<std::string> sources = {
        workloads::gcc_driver_source(),
        workloads::proxy_frontend_source(),
        workloads::proxy_backend_source(),
        workloads::httpd_master_source(),
        workloads::httpd_worker_source(),
        workloads::httpd_poll_source(),
        workloads::httpd_epoll_source(),
        workloads::fish_driver_source(),
        workloads::spawn_noop_source(),
        workloads::pipe_writer_source(),
        workloads::pipe_reader_source(),
        workloads::file_write_bench_source(),
        workloads::file_read_bench_source(),
    };
    for (const char *stage : {"cpp", "cc1", "as", "ld"}) {
        sources.push_back(workloads::gcc_stage_source(stage));
    }
    for (const char *util : {"gen", "sort", "grep", "od", "wc"}) {
        sources.push_back(workloads::fish_utility_source(util));
    }
    for (const std::string &kernel : workloads::spec_kernel_names()) {
        sources.push_back(workloads::spec_kernel_source(kernel));
    }
    for (const std::string &source : sources) {
        const oelf::SignedBinary binary =
            workloads::build_program(source).occlum;
        auto image = oelf::Image::parse(binary.bytes());
        ASSERT_TRUE(image.ok());
        EXPECT_EQ(image.value().content_digest(), binary.digest());
    }
    const oelf::SignedBinary padded =
        workloads::build_program(workloads::spawn_noop_source(), 256 << 10,
                                 64 << 10)
            .occlum;
    auto image = oelf::Image::parse(padded.bytes());
    ASSERT_TRUE(image.ok());
    EXPECT_GE(image.value().code.size(), 256u << 10);
    EXPECT_EQ(image.value().content_digest(), padded.digest());
}

TEST(DigestMemo, SeededGccPassHashesNothingAtSpawn)
{
    // One Occlum pass of the gcc pipeline (driver, cpp, cc1, as, ld):
    // staged from the build products, no spawn misses the memo; staged
    // as plain bytes, each of the five binaries is hashed once.
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    std::map<std::string, workloads::ProgramBuild> builds;
    builds.emplace("gcc",
                   workloads::build_program(workloads::gcc_driver_source()));
    for (const char *stage : {"cpp", "cc1", "as", "ld"}) {
        builds.emplace(stage, workloads::build_program(
                                  workloads::gcc_stage_source(stage)));
    }
    const std::string text(2048, 'x');
    const Bytes source(text.begin(), text.end());
    auto misses_of_one_pass = [&](bool seeded) -> uint64_t {
        sgx::Platform platform;
        host::HostFileStore store;
        for (const auto &[name, build] : builds) {
            if (seeded) {
                store.put(name, build.occlum);
            } else {
                store.put(name, build.occlum.bytes());
            }
        }
        OcclumSystem::Config config;
        config.num_slots = 6;
        config.slot_data_size = 8 << 20;
        config.verifier_key = workloads::bench_verifier_key();
        OcclumSystem sys(platform, store, config);
        EXPECT_TRUE(sys.fs().write_file("/src.c", source).ok());
        auto pid = sys.spawn("gcc", {"gcc", "/src.c"});
        EXPECT_TRUE(pid.ok());
        if (!pid.ok()) {
            return ~0ull;
        }
        sys.run();
        EXPECT_EQ(sys.exit_code(pid.value()).value(), 0);
        EXPECT_EQ(sys.death_order().size(), 5u);
        return store.memo_misses();
    };
    EXPECT_EQ(misses_of_one_pass(true), 0u);
    EXPECT_EQ(misses_of_one_pass(false), 5u);
}

TEST(EipReserveMemo, GccLegHashesOneReservePerPlatform)
{
    // gcc-pipeline's EIP leg: every program is built with the same code
    // reserve, so all five enclaves are one size and their reserves
    // start from one hasher state. The first spawn on a platform
    // hashes its reserve and the other four hit the platform's memo;
    // a second leg on the same platform hits on all five, in the same
    // simulated time.
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    constexpr uint64_t kCodeReserve = 16 << 20;
    host::HostFileStore store;
    store.put("gcc", workloads::build_program(workloads::gcc_driver_source(),
                                              0, 1 << 20, kCodeReserve)
                         .plain);
    for (const char *stage : {"cpp", "cc1", "as", "ld"}) {
        store.put(stage,
                  workloads::build_program(workloads::gcc_stage_source(stage),
                                           0, 1 << 20, kCodeReserve)
                      .plain);
    }
    const std::string text(2048, 'x');
    store.put("/src.c", Bytes(text.begin(), text.end()));
    sgx::Platform platform;
    auto leg = [&]() -> uint64_t {
        const uint64_t before = platform.clock().cycles();
        baseline::EipSystem sys(platform, store);
        sys.set_cores(1);
        auto pid = sys.spawn("gcc", {"gcc", "/src.c"});
        EXPECT_TRUE(pid.ok());
        if (!pid.ok()) {
            return 0;
        }
        sys.run();
        EXPECT_EQ(sys.exit_code(pid.value()).value(), 0);
        EXPECT_EQ(sys.death_order().size(), 5u);
        return platform.clock().cycles() - before;
    };
    const uint64_t first = leg();
    EXPECT_EQ(platform.reserve_memo_hits(), 4u);
    EXPECT_EQ(leg(), first);
    EXPECT_EQ(platform.reserve_memo_hits(), 9u);
}

// ---- hostile syscall arguments ------------------------------------------

/**
 * lseek offsets whose sum with the file size or the current offset
 * passes INT64_MAX must come back EINVAL (22) and leave the offset
 * alone; in-range seeks on either side of them still work.
 */
const char *const kSeekOverflowProgram = R"(
global byte p[16] = "/seek.txt";
global byte buf[8];
func main() {
    var fd = open(p, 0x242);   // CREAT|TRUNC|RDWR
    if (fd < 0) { return 1; }
    if (write(fd, "0123456789", 10) != 10) { return 2; }
    if (lseek(fd, 0, 0) != 0) { return 3; }
    if (read(fd, buf, 4) != 4) { return 4; }
    if (lseek(fd, 0x7fffffffffffffff, 2) != -22) { return 5; } // SEEK_END
    if (lseek(fd, 0x7fffffffffffffff, 1) != -22) { return 6; } // SEEK_CUR
    if (lseek(fd, 0, 1) != 4) { return 7; }     // offset kept
    if (lseek(fd, 0x8000000000000000, 2) != -22) { return 8; }
    if (lseek(fd, 0x7fffffffffffffff, 0) != 0x7fffffffffffffff) {
        return 9;
    }
    if (lseek(fd, 1, 1) != -22) { return 10; }
    if (lseek(fd, 0, 3) != -22) { return 11; }  // bad whence
    if (lseek(fd, -4, 2) != 6) { return 12; }
    if (read(fd, buf, 4) != 4) { return 13; }
    if (bload(buf) != 54) { return 14; }        // '6'
    return 0;
}
)";

TEST(HostileArgs, LseekPastInt64MaxIsEinvalOnOcclum)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(kSeekOverflowProgram), 0);
}

TEST(HostileArgs, LseekPastInt64MaxIsEinvalOnLinux)
{
    SimClock clock;
    host::HostFileStore files;
    baseline::LinuxSystem sys(clock, files);
    auto out = toolchain::compile(kSeekOverflowProgram);
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 0);
}

TEST(LinuxFiles, UnlinkedFileStaysGoneThroughAnOpenFd)
{
    // The host store keeps no orphan inode: I/O on the open fd fails
    // with ENOENT (2) and must not bring the path back.
    SimClock clock;
    host::HostFileStore files;
    baseline::LinuxSystem sys(clock, files);
    auto out = toolchain::compile(R"(
global byte p[16] = "/gone.txt";
global byte buf[8];
func main() {
    var fd = open(p, 0x242);   // CREAT|TRUNC|RDWR
    if (fd < 0) { return 1; }
    if (write(fd, "abc", 3) != 3) { return 2; }
    if (unlink(p) != 0) { return 3; }
    if (read(fd, buf, 4) != -2) { return 4; }
    if (write(fd, "xyz", 3) != -2) { return 5; }
    if (lseek(fd, 0, 0) != -2) { return 6; }
    if (fstat_size(fd) != -22) { return 7; }
    if (open(p, 2) != -2) { return 8; }     // RDWR, no CREAT
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 0);
    EXPECT_FALSE(files.exists("/gone.txt"));
}

TEST(LinuxFiles, RecreatedPathDoesNotReachAnOldFd)
{
    // A file created again at an unlinked path is a new file: the fd
    // opened before the unlink neither reads nor writes it.
    SimClock clock;
    host::HostFileStore files;
    baseline::LinuxSystem sys(clock, files);
    auto out = toolchain::compile(R"(
global byte p[16] = "/f.txt";
global byte buf[8];
func main() {
    var fd = open(p, 0x242);   // CREAT|TRUNC|RDWR
    if (fd < 0) { return 1; }
    if (write(fd, "old", 3) != 3) { return 2; }
    if (unlink(p) != 0) { return 3; }
    var again = open(p, 0x242);
    if (again < 0) { return 4; }
    if (write(again, "7 bytes", 7) != 7) { return 5; }
    if (lseek(fd, 0, 0) != -2) { return 6; }
    if (read(fd, buf, 8) != -2) { return 7; }
    if (write(fd, "x", 1) != -2) { return 8; }
    if (fstat_size(fd) != -22) { return 9; }
    if (lseek(again, 0, 0) != 0) { return 10; }
    if (read(again, buf, 8) != 7) { return 11; }
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 0);
    ASSERT_TRUE(files.exists("/f.txt"));
    const Bytes &now = *files.get("/f.txt").value();
    EXPECT_EQ(std::string(now.begin(), now.end()), "7 bytes");
}

TEST(HostileArgs, KillWithInt64MinCodeLeavesSiblingAlone)
{
    // kill(pid, sig) records -sig as the exit code; sig = 2^63 has no
    // int64_t negation, so the code wraps to INT64_MIN in uint64_t
    // arithmetic. The victim's sibling runs on undisturbed.
    OcclumHarness h;
    h.add_program("spinner", R"(
func main() {
    while (1) { yield(); }
    return 0;
}
)");
    h.add_program("talker", R"(
func main() {
    var i = 0;
    while (i < 20000) { i = i + 1; }
    println("sibling ok");
    return 7;
}
)");
    EXPECT_EQ(h.run_main(R"(
global byte s[16] = "spinner";
global byte t[16] = "talker";
func main() {
    var argvv[1];
    argvv[0] = s;
    var victim = spawn(s, argvv, 1);
    argvv[0] = t;
    var sibling = spawn(t, argvv, 1);
    if (victim < 0) { return 1; }
    if (sibling < 0) { return 2; }
    if (kill(victim, 0x8000000000000000) != 0) { return 3; }
    if (waitpid(victim) != 0x8000000000000000) { return 4; }
    if (waitpid(sibling) != 7) { return 5; }
    return 0;
}
)"),
              0);
    EXPECT_EQ(h.sys->console(), "sibling ok\n");
}

// ---- EIP baseline contrast ------------------------------------------------

Bytes
build_plain(const std::string &source)
{
    toolchain::CompileOptions options;
    options.instrument = toolchain::InstrumentOptions::none();
    auto out = toolchain::compile(source, options);
    EXPECT_TRUE(out.ok());
    return out.value().image.serialize();
}

// ---- pre-run and commit (DESIGN.md §3.4 "host execution") ----------------

/** What a run must reproduce exactly, whatever runs its quanta. */
struct RunPrint {
    uint64_t cycles = 0;
    std::map<std::string, uint64_t> counters; // vm.* and kernel.* deltas
    std::vector<int> death_order;
    std::string console;
    std::vector<int64_t> codes;
    std::vector<std::string> deaths; // cause/fault/address per pid
    uint64_t code_generation = 0;
    oskit::PreRunStats prerun;
};

/** Kernel-side counters a pre-run could disturb (host-side keys such
 *  as per-core quanta are included: they are simulated results too). */
std::map<std::string, uint64_t>
vm_kernel_counters()
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, counter] :
         trace::Registry::instance().counters()) {
        if (name.rfind("vm.", 0) == 0 || name.rfind("kernel.", 0) == 0) {
            out[name] = counter.value();
        }
    }
    return out;
}

/** Compile MiniC sources: signed, or else with cfi labels (the LibOS
 *  checks syscall returns) but no load guards, so a load may leave
 *  the SIP's domain. */
std::vector<std::pair<std::string, Bytes>>
build_sips(const std::vector<std::pair<std::string, std::string>> &sources,
           bool check_signatures)
{
    std::vector<std::pair<std::string, Bytes>> out;
    for (const auto &[name, source] : sources) {
        if (check_signatures) {
            out.emplace_back(name, build_signed(source));
            continue;
        }
        toolchain::CompileOptions options;
        options.instrument = {true, true, false, true};
        auto compiled = toolchain::compile(source, options);
        EXPECT_TRUE(compiled.ok());
        out.emplace_back(name, compiled.value().image.serialize());
    }
    return out;
}

/** Called before each round with the rounds run so far. */
using RoundHook = std::function<void(OcclumSystem &, int)>;

/**
 * Spawn `programs` (name, argv) under one parent-less OcclumSystem at
 * `cores`, run to completion with `pool` pre-running quanta (nullptr:
 * every quantum inline), and fingerprint the run. A `between` hook
 * runs before every round.
 */
RunPrint
run_images(const std::vector<std::pair<std::string, Bytes>> &images,
           const std::vector<std::vector<std::string>> &spawns, int cores,
           oskit::QuantumPool *pool, bool check_signatures,
           const RoundHook &between = nullptr)
{
    // A clean plan whatever OCCLUM_FAULT_PLAN says: the pinned values
    // are those of an undisturbed run, and an AEX storm disables
    // pre-runs.
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    sgx::Platform platform;
    host::HostFileStore binaries;
    OcclumSystem::Config config;
    config.num_slots = 8;
    config.verifier_key = vkey();
    config.cores = cores;
    config.check_signatures = check_signatures;
    for (const auto &[name, image] : images) {
        binaries.put(name, image);
    }
    OcclumSystem sys(platform, binaries, config);
    sys.set_quantum_pool(pool);
    // Short quanta: many rounds, each with several CPU-bound SIPs.
    sys.set_quantum(2000);
    std::map<std::string, uint64_t> before = vm_kernel_counters();
    std::vector<int> pids;
    for (const auto &argv : spawns) {
        auto pid = sys.spawn(argv[0], argv);
        EXPECT_TRUE(pid.ok());
        pids.push_back(pid.ok() ? pid.value() : -1);
    }
    for (int round = 0; between && !sys.all_exited(); ++round) {
        between(sys, round);
        // No timed waits: while anything lives, every round progresses,
        // which is when Kernel::run() steps the next one at once.
        if (!sys.step_round()) {
            ADD_FAILURE() << "round " << round << " made no progress";
            break;
        }
    }
    sys.run();
    RunPrint print;
    print.cycles = sys.clock().cycles();
    for (const auto &[name, value] : vm_kernel_counters()) {
        print.counters[name] = value - before[name];
    }
    print.death_order = sys.death_order();
    print.console = sys.console();
    for (int pid : pids) {
        auto code = sys.exit_code(pid);
        print.codes.push_back(code.ok() ? code.value() : -999);
        auto record = sys.death_record(pid);
        std::string death = "alive";
        if (record.ok()) {
            const oskit::DeathRecord &r = record.value();
            death = std::to_string(static_cast<int>(r.cause)) + "/" +
                    std::to_string(static_cast<int>(r.fault)) + "/" +
                    std::to_string(r.fault_addr);
        }
        print.deaths.push_back(death);
    }
    // A later spawn into every slot shows the code marks left behind.
    for (const auto &argv : spawns) {
        EXPECT_TRUE(sys.spawn(argv[0], argv).ok());
    }
    print.code_generation = sys.enclave().mem().code_generation();
    print.prerun = sys.prerun_stats();
    return print;
}

RunPrint
run_sips(const std::vector<std::pair<std::string, std::string>> &sources,
         const std::vector<std::vector<std::string>> &spawns, int cores,
         oskit::QuantumPool *pool, bool check_signatures = true,
         const RoundHook &between = nullptr)
{
    return run_images(build_sips(sources, check_signatures), spawns, cores,
                      pool, check_signatures, between);
}

void
expect_same_run(const RunPrint &want, const RunPrint &got)
{
    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.counters, got.counters);
    EXPECT_EQ(want.death_order, got.death_order);
    EXPECT_EQ(want.console, got.console);
    EXPECT_EQ(want.codes, got.codes);
}

/** A spawner that starts `n` workers with loop lengths from argv and
 *  a looping compute worker: a sip-storm in miniature. */
const std::vector<std::pair<std::string, std::string>> kStorm = {
    {"worker", R"(
global byte argbuf[24];
global int table[64];
func main() {
    getarg(1, argbuf, 24);
    var n = atoi(argbuf);
    var h = 0;
    var i = 0;
    while (i < n) {
        h = (h * 31 + i + table[(i * 7) & 63]) & 0xffff;
        table[i & 63] = h;
        i = i + 1;
    }
    print_int(h & 0x7f);
    print(" ");
    return h & 0x7f;
}
)"},
    {"storm", R"(
global byte child[8] = "worker";
global byte arg[24];
global int pids[4];
func main() {
    var lens[6];
    lens[0] = 9000; lens[1] = 31000; lens[2] = 4000;
    lens[3] = 22000; lens[4] = 15000; lens[5] = 27000;
    var next = 0;
    var slot = 0;
    var sum = 0;
    var argvv[2];
    argvv[0] = child;
    argvv[1] = arg;
    while (next < 4) {
        itoa(lens[next], arg);
        pids[next] = spawn(child, argvv, 2);
        next = next + 1;
    }
    var reaped = 0;
    while (reaped < 6) {
        sum = sum + waitpid(pids[slot]);
        reaped = reaped + 1;
        if (next < 6) {
            itoa(lens[next], arg);
            pids[slot] = spawn(child, argvv, 2);
            next = next + 1;
        }
        slot = slot + 1;
        if (slot == 4) { slot = 0; }
    }
    print("sum ");
    print_int(sum);
    return 0;
}
)"},
};

/** Every vm.* / kernel.* counter a run moved, as "name=value;". */
std::string
counter_string(const RunPrint &run)
{
    std::string out;
    for (const auto &[name, value] : run.counters) {
        if (value != 0) {
            out += name + "=" + std::to_string(value) + ";";
        }
    }
    return out;
}

TEST(PreRun, StormMatchesInlineAndTheParentAtOneAndFourCores)
{
    // The storm at cores 1 and 4: a spawner reusing slots (every spawn
    // moves its slot's code generation mid-round, and no other's)
    // among CPU-bound workers.
    // Pre-running on 0 workers (the main thread alone) and on 3 must
    // reproduce the inline run exactly — simulated time, every vm.*
    // and kernel.* counter, death order, output and exit codes — and
    // the inline run reproduces the values captured before quanta
    // could run on host threads.
    struct Golden {
        int cores;
        uint64_t cycles;
        const char *counters;
    };
    const Golden golden[] = {
        {1, 536063511,
         "kernel.sched_visits=1822;kernel.spawns=7;"
         "kernel.syscalls=39;kernel.wakeups=3;"
         "vm.block_cache.hits=5543;"
         "vm.block_cache.misses=575;vm.instructions=3571044;"
         "vm.ltraps=39;vm.quanta=1819;"
         "vm.superblock.exec_hits=3402;vm.superblock.guards_folded=774;"
         "vm.superblock.promotions=80;"},
        {4, 531241554,
         "kernel.core0.quanta=72;kernel.core0.steals=2;"
         "kernel.core1.quanta=380;kernel.core1.wakeups=3;"
         "kernel.core2.quanta=403;kernel.core3.quanta=964;"
         "kernel.sched_visits=1822;kernel.spawns=7;"
         "kernel.syscalls=39;kernel.wakeups=3;"
         "vm.block_cache.hits=5543;"
         "vm.block_cache.misses=575;vm.instructions=3571044;"
         "vm.ltraps=39;vm.quanta=1819;"
         "vm.superblock.exec_hits=3402;vm.superblock.guards_folded=774;"
         "vm.superblock.promotions=80;"},
    };
    oskit::QuantumPool none(0);
    oskit::QuantumPool three(3);
    for (const Golden &g : golden) {
        SCOPED_TRACE(g.cores);
        RunPrint inline_run =
            run_sips(kStorm, {{"storm"}}, g.cores, nullptr);
        EXPECT_EQ(inline_run.cycles, g.cycles);
        EXPECT_EQ(counter_string(inline_run), g.counters);
        EXPECT_EQ(inline_run.death_order,
                  (std::vector<int>{4, 2, 5, 6, 3, 7, 1}));
        EXPECT_EQ(inline_run.console, "71 127 31 84 14 47 sum 374");
        EXPECT_EQ(inline_run.codes, std::vector<int64_t>{0});
        EXPECT_EQ(inline_run.prerun.preruns, 0u);
        for (oskit::QuantumPool *pool : {&none, &three}) {
            RunPrint pre = run_sips(kStorm, {{"storm"}}, g.cores, pool);
            expect_same_run(inline_run, pre);
            EXPECT_GT(pre.prerun.posted, 0u);
            EXPECT_EQ(pre.prerun.yields, 0u);
            if (pool == &none) {
                // Every pre-run ran at its post, before the walk.
                EXPECT_EQ(pre.prerun.taken_back, 0u);
                EXPECT_GT(pre.prerun.commits, 0u);
                // Spawns into reused slots move only those slots'
                // code generations: no live SIP's pre-run goes stale.
                EXPECT_EQ(pre.prerun.stale, 0u);
            }
        }
    }
}

// ---- the syscall path: order pinned through its flat tables -------------

/** What a small run of the http-proxy workload must reproduce. */
struct ProxyPrint {
    uint64_t cycles = 0;
    std::string counters; // non-zero kernel.* / vm.* / net.* deltas
    double syscall_p50 = 0;
    double syscall_p99 = 0;
    std::vector<int> death_order;
    std::string accepted; // the fds sock_accept returned, in order
};

/** The frontend's open socket fds (none once it is dead). */
std::set<int>
socket_fds(OcclumSystem &sys, int pid)
{
    std::set<int> fds;
    if (const oskit::Process *proc = sys.find_process(pid)) {
        proc->fds.for_each([&fds](int fd, const oskit::FilePtr &file) {
            if (dynamic_cast<const oskit::SocketFile *>(file.get())) {
                fds.insert(fd);
            }
        });
    }
    return fds;
}

/**
 * perfbench's http-proxy in miniature: the epoll frontend and its 4
 * backends behind NetSim at `cores`, 300 open-loop requests of a 10 KiB
 * page on a Poisson schedule from seed 1 at 8000 requests/s.
 */
ProxyPrint
run_small_proxy(int cores)
{
    constexpr int kRequests = 300;
    constexpr size_t kPage = 10240;
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    sgx::Platform platform;
    host::NetSim net(platform.clock());
    host::HostFileStore binaries;
    binaries.put("proxy_frontend",
                 workloads::build_program(workloads::proxy_frontend_source())
                     .occlum);
    binaries.put("proxy_backend",
                 workloads::build_program(workloads::proxy_backend_source())
                     .occlum);
    OcclumSystem::Config config;
    config.num_slots = 8;
    config.slot_data_size = 8 << 20;
    config.verifier_key = workloads::bench_verifier_key();
    config.cores = cores;
    OcclumSystem sys(platform, binaries, config, &net);

    auto watched = [] {
        std::map<std::string, uint64_t> out;
        for (const auto &[name, counter] :
             trace::Registry::instance().counters()) {
            if (name.rfind("vm.", 0) == 0 || name.rfind("kernel.", 0) == 0 ||
                name.rfind("net.", 0) == 0) {
                out[name] = counter.value();
            }
        }
        return out;
    };
    const std::map<std::string, uint64_t> before = watched();
    trace::Histogram &syscall_cycles =
        trace::Registry::instance().histogram("kernel.syscall_cycles");
    syscall_cycles.reset();

    auto pid = sys.spawn("proxy_frontend",
                         {"proxy_frontend", std::to_string(kRequests), "64"});
    EXPECT_TRUE(pid.ok());
    sys.run(/*allow_idle=*/true); // frontend + backends parked
    Rng rng(1 ^ 0x687474702d707278ull);
    const uint64_t t0 = sys.clock().cycles();
    std::vector<uint64_t> due(kRequests);
    for (uint64_t &d : due) {
        d = t0 + static_cast<uint64_t>(rng.next_double() * kRequests /
                                       8000.0 * SimClock::kFrequencyHz);
    }
    std::sort(due.begin(), due.end());

    ProxyPrint print;
    struct Client {
        host::NetSim::Connection *conn;
        size_t received;
    };
    std::vector<Client> clients;
    static const char kRequest[] = "GET /page.html HTTP/1.1\r\n\r\n";
    uint8_t buf[4096];
    int issued = 0;
    int finished = 0;
    while (finished < kRequests) {
        uint64_t now = sys.clock().cycles();
        for (; issued < kRequests && due[issued] <= now; ++issued) {
            auto conn = net.connect(8080);
            EXPECT_TRUE(conn.ok());
            if (!conn.ok()) {
                return print;
            }
            net.send(conn.value(), false,
                     reinterpret_cast<const uint8_t *>(kRequest),
                     sizeof(kRequest) - 1);
            clients.push_back({conn.value(), 0});
        }
        const std::set<int> open = socket_fds(sys, pid.value());
        bool progress = sys.step_round();
        for (int fd : socket_fds(sys, pid.value())) {
            if (!open.count(fd)) {
                print.accepted += std::to_string(fd) + ",";
            }
        }
        now = sys.clock().cycles();
        for (Client &client : clients) {
            uint64_t next_arrival = ~0ull;
            size_t n = net.recv(client.conn, false, buf, sizeof(buf), now,
                                next_arrival);
            progress = progress || n > 0;
            client.received += n;
            if (n > 0 && client.received == kPage) {
                net.close(client.conn, false);
                client.conn = nullptr;
                ++finished;
            }
        }
        std::erase_if(clients,
                      [](const Client &c) { return c.conn == nullptr; });
        if (progress) {
            continue;
        }
        uint64_t wake = sys.next_wake_time();
        for (Client &client : clients) {
            uint64_t next_arrival = ~0ull;
            net.recv(client.conn, false, buf, 0, now, next_arrival);
            wake = std::min(wake, next_arrival);
        }
        if (issued < kRequests) {
            wake = std::min(wake, due[issued]);
        }
        if (wake == ~0ull || wake <= now) {
            ADD_FAILURE() << "stalled after " << finished << " requests";
            return print;
        }
        sys.clock().advance(wake - now);
    }
    sys.run(/*allow_idle=*/true); // the frontend reaps its backends
    EXPECT_TRUE(sys.all_exited());

    print.cycles = sys.clock().cycles();
    for (const auto &[name, value] : watched()) {
        auto was = before.find(name);
        uint64_t delta = value - (was == before.end() ? 0 : was->second);
        if (delta != 0) {
            print.counters += name + "=" + std::to_string(delta) + ";";
        }
    }
    print.syscall_p50 = syscall_cycles.p50();
    print.syscall_p99 = syscall_cycles.p99();
    print.death_order = sys.death_order();
    return print;
}

TEST(SyscallPath, SmallProxyMatchesTheParentAtOneAndFourCores)
{
    // The syscall path resolves each user buffer once, copies straight
    // between guest pages and pipe rings or network streams, and keeps
    // its descriptors, epoll interest lists, run queues, timers and
    // socket registry in flat tables. None of that may move simulated
    // time or any order the tables used to give: wake order, epoll
    // ready order, walk order and lowest-free fd allocation. Every
    // value below was captured before that rework.
    struct Golden {
        int cores;
        uint64_t cycles;
        const char *counters;
        double p50;
        double p99;
        const char *accepted;
    };
    const Golden golden[] = {
        {1, 799769327,
         "kernel.epoll_waits=784;kernel.sched_visits=4363;"
         "kernel.spawns=5;kernel.syscalls=3530;kernel.wakeups=805;"
         "net.accepts=300;net.bytes_received=3080100;"
         "net.bytes_sent=3080100;net.connects=300;"
         "vm.block_cache.hits=5817;vm.block_cache.misses=328;"
         "vm.instructions=1102563;vm.ltraps=3530;vm.quanta=3558;"
         "vm.superblock.exec_hits=17939;"
         "vm.superblock.guards_folded=252;"
         "vm.superblock.promotions=92;",
         144.14046822742475, 31891.781302170282,
         "5,5,5,5,5,5,5,5,5,5,14,5,5,5,14,5,14,15,5,5,5,5,14,15,5,5,"
         "5,5,5,5,5,5,5,14,15,16,5,5,14,15,16,5,14,5,14,15,5,14,15,"
         "5,5,14,5,5,5,14,5,15,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,14,5,"
         "5,5,14,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,14,5,14,5,5,5,14,"
         "15,5,5,14,5,5,14,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,14,15,5,5,"
         "5,14,15,16,17,5,14,5,15,14,16,17,5,14,15,16,5,5,14,5,5,5,"
         "5,5,5,5,5,5,5,14,15,5,5,14,15,16,17,5,5,14,5,5,5,5,14,15,"
         "16,5,14,15,16,17,5,5,5,14,5,5,5,5,5,5,14,15,5,14,15,16,5,"
         "14,5,5,5,5,5,5,5,5,5,5,5,5,14,5,14,5,5,5,5,5,5,5,14,5,5,5,"
         "14,15,16,5,14,15,16,17,5,5,14,5,5,14,15,5,5,14,15,16,5,17,"
         "18,5,5,14,15,16,17,18,19,5,5,14,15,5,14,15,16,17,18,5,5,"
         "14,5,5,5,5,14,5,5,14,15,5,5,5,14,5,5,5,14,5,5,5,5,5,14,5,"
         "5,5,5,5,5,14,5,"},
        {4, 799199413,
         "kernel.core0.quanta=258;kernel.core0.steals=99;"
         "kernel.core0.wakeups=76;kernel.core1.quanta=2978;"
         "kernel.core1.wakeups=598;kernel.core2.quanta=159;"
         "kernel.core2.wakeups=76;kernel.core3.quanta=159;"
         "kernel.core3.wakeups=76;kernel.epoll_waits=780;"
         "kernel.sched_visits=4380;kernel.spawns=5;"
         "kernel.syscalls=3526;kernel.wakeups=826;"
         "kernel.wasted_retries=34;net.accepts=300;"
         "net.bytes_received=3080100;net.bytes_sent=3080100;"
         "net.connects=300;vm.block_cache.hits=5813;"
         "vm.block_cache.misses=328;vm.instructions=1102299;"
         "vm.ltraps=3526;vm.quanta=3554;"
         "vm.superblock.exec_hits=17923;"
         "vm.superblock.guards_folded=252;"
         "vm.superblock.promotions=92;",
         144.98996655518394, 31891.781302170282,
         "5,5,5,5,5,5,5,5,5,5,14,5,5,5,14,5,14,5,5,5,5,5,14,15,5,5,"
         "5,5,5,5,5,5,5,14,15,16,5,5,14,15,16,5,14,5,14,15,5,14,15,"
         "5,5,14,5,5,5,14,5,15,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,14,5,"
         "5,5,14,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,14,5,14,5,5,5,14,"
         "5,14,5,14,5,5,14,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,14,15,5,5,"
         "14,15,16,17,5,5,14,15,16,17,18,19,5,14,15,16,5,5,14,5,5,5,"
         "5,5,5,5,5,5,5,14,15,5,5,14,15,16,5,5,5,14,5,5,5,5,14,15,"
         "16,5,14,15,16,17,5,5,5,14,5,5,5,5,5,5,14,5,5,14,15,16,5,"
         "14,5,5,5,5,5,5,5,5,5,5,5,5,14,5,14,5,5,5,5,5,5,5,14,5,5,5,"
         "14,15,16,5,14,15,16,17,5,5,14,5,5,14,15,5,14,15,16,5,14,5,"
         "14,15,5,14,15,5,16,17,14,5,15,14,16,5,14,15,16,17,18,5,5,"
         "14,5,5,5,5,14,15,5,14,15,5,14,5,14,5,5,5,5,5,14,5,14,5,14,"
         "5,5,5,5,5,5,14,5,"},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(g.cores);
        ProxyPrint run = run_small_proxy(g.cores);
        EXPECT_EQ(run.cycles, g.cycles);
        EXPECT_EQ(run.counters, g.counters);
        EXPECT_EQ(run.syscall_p50, g.p50);
        EXPECT_EQ(run.syscall_p99, g.p99);
        EXPECT_EQ(run.accepted, g.accepted);
        // The backends die in spawn order as the frontend closes their
        // job pipes; the frontend (pid 1) outlives them.
        EXPECT_EQ(run.death_order, (std::vector<int>{2, 3, 4, 5, 1}));
    }
}

// ---- connection lifetime: host memory follows live connections ----------

/** An Occlum system with a NetSim, for SIPs on both ends of sockets. */
struct NetHarness {
    sgx::Platform platform;
    host::NetSim net{platform.clock()};
    host::HostFileStore binaries;
    std::unique_ptr<OcclumSystem> sys;

    NetHarness()
    {
        OcclumSystem::Config config;
        config.num_slots = 4;
        config.verifier_key = vkey();
        sys = std::make_unique<OcclumSystem>(platform, binaries, config,
                                             &net);
    }

    int64_t
    run_main(const std::string &source)
    {
        binaries.put("main", build_signed(source));
        auto pid = sys->spawn("main", {"main"});
        EXPECT_TRUE(pid.ok());
        if (!pid.ok()) return -999;
        sys->run();
        auto code = sys->exit_code(pid.value());
        return code.ok() ? code.value() : -998;
    }
};

TEST(ConnectionLifetime, SequentialConnectionsKeepTablesAtTheLiveCount)
{
    // 10^5 connect/accept/close cycles, closing either side first. A
    // connection is freed at its second close and its slot reused, so
    // NetSim and the kernel's socket registry never outgrow the one
    // connection live at a time.
    NetHarness h;
    EXPECT_EQ(h.run_main(R"(
func main() {
    var l = sock_listen(7000, 4);
    if (l < 0) { return 1; }
    var i = 0;
    while (i < 100000) {
        var c = sock_connect(7000);
        var a = sock_accept(l);
        if (c < 0 || a < 0) { return 2; }
        if (i & 1) {
            close(a);
            close(c);
        } else {
            close(c);
            close(a);
        }
        i = i + 1;
    }
    return 0;
}
)"),
              0);
    EXPECT_EQ(h.net.live_connections(), 0u);
    EXPECT_EQ(h.net.slot_capacity(), 1u);
    EXPECT_LE(h.sys->socket_registry_size(), 2u);
}

TEST(ConnectionLifetime, PollingPeerSeesHangupAtTheLastClose)
{
    // The client holds its end at two fds. Closing the first leaves
    // the connection up (a byte still goes through the second); the
    // server's blocked poll sees the hangup only at the last close,
    // and the connection is freed once the server closes too.
    NetHarness h;
    h.binaries.put("client", build_signed(R"(
func main() {
    var c = sock_connect(7001);
    if (c < 0) { return 1; }
    if (dup2(c, 9) != 9) { return 2; }
    close(c);
    poll(0, 0, 1000000);  // 1 ms with one fd still open
    if (sock_send(9, "x", 1) != 1) { return 3; }
    poll(0, 0, 1000000);
    close(9);
    return 0;
}
)"));
    EXPECT_EQ(h.run_main(R"(
global byte client[8] = "client";
global byte b[4];
func main() {
    var l = sock_listen(7001, 4);
    var argvv[1];
    argvv[0] = client;
    var pid = spawn(client, argvv, 1);
    if (pid < 0) { return 1; }
    var a = sock_accept(l);
    if (a < 0) { return 2; }
    var pfd[3];
    pfd[0] = a;
    pfd[1] = 0x1;
    pfd[2] = 0;
    if (poll(pfd, 1, 0 - 1) != 1) { return 3; }
    if (pfd[2] & 0x10) { return 4; }   // one client fd is still open
    if (sock_recv(a, b, 4) != 1) { return 5; }
    pfd[2] = 0;
    if (poll(pfd, 1, 0 - 1) != 1) { return 6; }
    if ((pfd[2] & 0x10) == 0) { return 7; }
    if (sock_recv(a, b, 4) != 0) { return 8; }  // EOF
    close(a);
    return waitpid(pid);
}
)"),
              0);
    EXPECT_EQ(h.net.live_connections(), 0u);
}

TEST(ConnectionLifetime, EpollEntryOutlivesTheSocketsLastFd)
{
    // The parent hands its epoll set to a child and drops its own fd
    // of it, then closes both ends of a watched connection: the
    // epoll entry's reference keeps the server SocketFile alive while
    // NetSim frees the connection. The child's epoll_wait must report
    // a hangup without reading the freed record (ASan checks this).
    NetHarness h;
    h.binaries.put("waiter", build_signed(R"(
global byte b[4];
global int evs[8];
func main() {
    if (read(1, b, 1) != 1) { return 1; }  // parent closed everything
    if (epoll_wait(0, evs, 4, 0 - 1) != 1) { return 2; }
    if ((evs[1] & 0x10) == 0) { return 3; }
    return 0;
}
)"));
    EXPECT_EQ(h.run_main(R"(
global byte waiter[8] = "waiter";
func main() {
    var l = sock_listen(7002, 4);
    var c = sock_connect(7002);
    var a = sock_accept(l);
    if (c < 0 || a < 0) { return 1; }
    var ep = epoll_create();
    if (epoll_ctl(ep, 1, a, 0x1) != 0) { return 2; }
    if (sock_send(c, "x", 1) != 1) { return 3; }  // queues the entry
    var fds[2];
    if (pipe(fds) != 0) { return 4; }
    var argvv[1];
    argvv[0] = waiter;
    var io3[3];
    io3[0] = ep;
    io3[1] = fds[0];
    io3[2] = 0 - 1;
    var pid = spawn_io(waiter, argvv, 1, io3);
    if (pid < 0) { return 5; }
    close(ep);
    close(a);
    close(c);
    if (write(fds[1], "g", 1) != 1) { return 6; }
    return waitpid(pid);
}
)"),
              0);
    EXPECT_EQ(h.net.live_connections(), 0u);
}

TEST(ConnectionLifetime, ClosedListenerGivesUpItsPort)
{
    // The last close of a listener gives its port back to NetSim: a
    // connection it never accepted sees a hangup and EOF, the port can
    // be listened on again, a host connect to it is refused, and no
    // connection record is left behind.
    NetHarness h;
    EXPECT_EQ(h.run_main(R"(
global byte b[4];
func main() {
    var l = sock_listen(7003, 4);
    if (l < 0) { return 1; }
    var c = sock_connect(7003);   // queued, never accepted
    if (c < 0) { return 2; }
    close(l);
    var pfd[3];
    pfd[0] = c;
    pfd[1] = 0x1;
    pfd[2] = 0;
    if (poll(pfd, 1, 0 - 1) != 1) { return 3; }
    if ((pfd[2] & 0x10) == 0) { return 4; }
    if (sock_recv(c, b, 4) != 0) { return 5; }  // EOF
    close(c);
    l = sock_listen(7003, 4);
    if (l < 0) { return 6; }
    close(l);
    return 0;
}
)"),
              0);
    EXPECT_FALSE(h.net.connect(7003).ok());
    EXPECT_EQ(h.net.live_connections(), 0u);
}

TEST(ConnectionLifetime, ClosedListenersEpollEntryIgnoresTheNextListener)
{
    // The parent hands an epoll set that watches its listener (queued
    // ready by a pending connect) to a child, closes its own fds of
    // both, and listens on the port again. The old entry outlives the
    // old listener's last fd; it must not report the new listener's
    // pending connection.
    NetHarness h;
    h.binaries.put("waiter", build_signed(R"(
global byte b[4];
global int evs[8];
func main() {
    if (read(1, b, 1) != 1) { return 1; }
    return epoll_wait(0, evs, 4, 0);
}
)"));
    EXPECT_EQ(h.run_main(R"(
global byte waiter[8] = "waiter";
func main() {
    var l = sock_listen(7004, 4);
    var ep = epoll_create();
    if (epoll_ctl(ep, 1, l, 0x1) != 0) { return 11; }
    var c = sock_connect(7004);
    poll(0, 0, 1000000);          // 1 ms: c has arrived
    var fds[2];
    if (pipe(fds) != 0) { return 12; }
    var argvv[1];
    argvv[0] = waiter;
    var io3[3];
    io3[0] = ep;
    io3[1] = fds[0];
    io3[2] = 0 - 1;
    var pid = spawn_io(waiter, argvv, 1, io3);
    if (pid < 0) { return 13; }
    close(ep);
    close(l);
    close(c);
    l = sock_listen(7004, 4);
    if (l < 0) { return 14; }
    c = sock_connect(7004);
    poll(0, 0, 1000000);          // c is on the new listener's queue
    if (write(fds[1], "g", 1) != 1) { return 15; }
    var ready = waitpid(pid);
    close(c);
    close(l);
    return ready;
}
)"),
              0);
    EXPECT_EQ(h.net.live_connections(), 0u);
}

TEST(PreRun, KilledSiblingsPreRunLeavesNoTrace)
{
    // pid 1 computes, then kills pid 3 — runnable and CPU-bound, its
    // quantum already pre-run — at a walk slot before pid 3's. The
    // discarded pre-run must not show in any counter, in pid 2's
    // DeathRecord, or in a code mark a later spawn into its slot could
    // see (the final code generation).
    const std::vector<std::pair<std::string, std::string>> sources = {
        {"killer", R"(
func main() {
    var i = 0;
    var h = 1;
    while (i < 30000) { h = h * 3 + i; i = i + 1; }
    kill(3, 9);
    i = 0;
    while (i < 10000) { h = h * 5 + i; i = i + 1; }
    return h & 0x3f;
}
)"},
        {"victim", R"(
global int cells[512];
func main() {
    var i = 0;
    while (1) { cells[i & 511] = cells[(i * 3) & 511] + i; i = i + 1; }
    return 0;
}
)"},
        {"bystander", R"(
func main() {
    var i = 0;
    var h = 7;
    while (i < 60000) { h = (h * 31 + i) & 0xffff; i = i + 1; }
    return h & 0x7f;
}
)"},
    };
    // Pids 1..3: the victim shares the killer's home core at cores 2.
    const std::vector<std::vector<std::string>> spawns = {
        {"killer"}, {"bystander"}, {"victim"}};
    oskit::QuantumPool none(0);
    oskit::QuantumPool three(3);
    for (int cores : {1, 2}) {
        SCOPED_TRACE(cores);
        RunPrint inline_run = run_sips(sources, spawns, cores, nullptr);
        EXPECT_EQ(inline_run.codes[2], -9);
        for (oskit::QuantumPool *pool : {&none, &three}) {
            RunPrint pre = run_sips(sources, spawns, cores, pool);
            expect_same_run(inline_run, pre);
            EXPECT_EQ(pre.deaths, inline_run.deaths);
            EXPECT_EQ(pre.code_generation, inline_run.code_generation);
            // Posting depends on simulated state only, so the victim's
            // pre-run is outstanding at the kill with either pool
            // (with 0 workers it has run; with 3 it may have or not).
            EXPECT_GT(pre.prerun.discards, 0u);
        }
    }
}

TEST(PreRun, UnsignedForeignLoadYieldsAndMatchesInline)
{
    // Without signatures (or load guards) nothing confines a SIP's
    // loads to its slot: pid 1
    // reads pid 2's data region, which pid 2 keeps rewriting. The
    // reads must see pid 2's memory as of pid 1's walk slot, so pid
    // 1's pre-run yields, and its inline quantum undoes the pre-runs
    // still outstanding before it touches another slot.
    const std::vector<std::pair<std::string, std::string>> sources = {
        {"peek", R"(
global byte argbuf[24];
func main() {
    getarg(1, argbuf, 24);
    var base = atoi(argbuf);
    var sum = 0;
    var round = 0;
    while (round < 40) {
        var k = 0;
        while (k < 256) {
            sum = (sum * 3 + wload(base + k * 8)) & 0xffffff;
            k = k + 1;
        }
        round = round + 1;
    }
    print_int(sum);
    return 0;
}
)"},
        {"busy", R"(
global int cells[512];
func main() {
    var i = 0;
    while (i < 120000) { cells[i & 511] = cells[(i * 7) & 511] + i; i = i + 1; }
    return 0;
}
)"},
    };
    OcclumSystem::Config config;
    const uint64_t span = oelf::kTrampSize + config.slot_code_size +
                          oelf::kGuardSize + config.slot_data_size +
                          oelf::kGuardSize;
    // Slot 1's data region (pid 2 is spawned second).
    const uint64_t target = config.enclave_base + span + oelf::kTrampSize +
                            config.slot_code_size + oelf::kGuardSize;
    const std::vector<std::vector<std::string>> spawns = {
        {"peek", std::to_string(target)}, {"busy"}, {"busy"}};
    oskit::QuantumPool none(0);
    oskit::QuantumPool three(3);
    RunPrint inline_run =
        run_sips(sources, spawns, 1, nullptr, /*check_signatures=*/false);
    EXPECT_EQ(inline_run.codes, (std::vector<int64_t>{0, 0, 0}));
    for (oskit::QuantumPool *pool : {&none, &three}) {
        RunPrint pre =
            run_sips(sources, spawns, 1, pool, /*check_signatures=*/false);
        expect_same_run(inline_run, pre);
        // Peek's quantum runs inline either way (its pre-run yielded
        // or was taken back), and undoes the outstanding ones.
        EXPECT_GT(pre.prerun.discards, 0u);
        if (pool == &none) {
            EXPECT_GT(pre.prerun.yields, 0u);
        }
    }
}

/** An unsigned image of hand-assembled code for the default slots. */
Bytes
asm_image(isa::Assembler &a)
{
    oelf::Image image;
    image.code = a.finish();
    image.code_reserve = OcclumSystem::Config{}.slot_code_size;
    image.heap_size = 1 << 16;
    image.stack_size = 1 << 14;
    return image.serialize();
}

/** Count r11 down from `n` (three instructions a step). */
void
asm_spin(isa::Assembler &a, int64_t n, const std::string &label)
{
    a.mov_ri(11, n);
    a.bind(label);
    a.sub_ri(11, 1);
    a.cmp_ri(11, 0);
    a.jcc(isa::Cond::kNe, label);
}

/** exit(r1) through the gate whose address the PCB at `pcb` holds. */
void
asm_exit(isa::Assembler &a, uint64_t pcb)
{
    a.mov_ri(0, static_cast<int64_t>(abi::Sys::kExit));
    a.mov_ri(14, static_cast<int64_t>(pcb));
    a.load(14, isa::mem_bd(14, 0));
    a.call_reg(14);
    a.cfi_label(); // the syscall's return site
}

TEST(PreRun, UnsignedCallIntoARespawnedSlotRunsTheNewCode)
{
    // An unsigned SIP calls f() in a sibling slot, whose SIP exits and
    // is replaced there by one with other code at the same address.
    // The caller's Cpu follows the space-wide clock once it has run
    // code outside its slot, so the respawn stales its copy of f and
    // it runs the new bytes: its first call returns 11, its last 22.
    // Pre-runs on 0 and 3 workers must match the inline run. The
    // caller's next quantum is posted at its budget exit and settled at
    // its slot in the next round, so the one respawn (lib2 into lib1's
    // slot) lands between a post and its slot whichever pid walks
    // first: exactly that one pre-run is discarded as stale.
    const OcclumSystem::Config config;
    const uint64_t span = oelf::kTrampSize + config.slot_code_size +
                          oelf::kGuardSize + config.slot_data_size +
                          oelf::kGuardSize;
    auto code_of = [&](int slot) {
        return config.enclave_base + slot * span + oelf::kTrampSize;
    };
    auto pcb_of = [&](int slot) {
        return code_of(slot) + config.slot_code_size + oelf::kGuardSize;
    };
    constexpr int kLibSlot = 3; // after caller, spawner and busy
    auto lib_prefix = [&](isa::Assembler &a) {
        a.cfi_label();
        asm_spin(a, 30000, "live");
        a.mov_ri(1, 0);
        asm_exit(a, pcb_of(kLibSlot));
    };
    auto lib = [&](int64_t value) {
        isa::Assembler a(code_of(kLibSlot));
        lib_prefix(a);
        a.mov_ri(0, value); // f: return value
        a.ret();
        return asm_image(a);
    };
    isa::Assembler prefix(code_of(kLibSlot));
    lib_prefix(prefix);
    const uint64_t f_at = code_of(kLibSlot) + prefix.finish().size();
    auto caller = [&](int slot) {
        // r8 = first f(), r9 = last f(); exit(r8 * 1000 + r9).
        isa::Assembler a(code_of(slot));
        a.cfi_label();
        a.mov_ri(8, 0);
        a.mov_ri(10, 16);
        a.bind("loop");
        asm_spin(a, 3000, "gap");
        a.mov_ri(5, static_cast<int64_t>(f_at));
        a.call_reg(5);
        a.cmp_ri(8, 0);
        a.jcc(isa::Cond::kNe, "seen");
        a.mov_rr(8, 0);
        a.bind("seen");
        a.mov_rr(9, 0);
        a.sub_ri(10, 1);
        a.cmp_ri(10, 0);
        a.jcc(isa::Cond::kNe, "loop");
        a.mul_ri(8, 1000);
        a.add_rr(8, 9);
        a.mov_rr(1, 8);
        asm_exit(a, pcb_of(slot));
        return asm_image(a);
    };
    const std::vector<std::pair<std::string, Bytes>> sips = build_sips(
        {{"spawner", R"(
global byte lib1[8] = "lib1";
global byte lib2[8] = "lib2";
func main() {
    var argvv[1];
    argvv[0] = lib1;
    var a = waitpid(spawn(lib1, argvv, 1));
    argvv[0] = lib2;
    return a + waitpid(spawn(lib2, argvv, 1));
}
)"},
         {"busy", R"(
func main() {
    var i = 0;
    var h = 7;
    while (i < 20000) { h = (h * 31 + i) & 0xffff; i = i + 1; }
    return 0;
}
)"}},
        /*check_signatures=*/false);
    oskit::QuantumPool none(0);
    oskit::QuantumPool three(3);
    for (bool caller_first : {true, false}) {
        SCOPED_TRACE(caller_first);
        std::vector<std::pair<std::string, Bytes>> images = sips;
        images.emplace_back("caller", caller(caller_first ? 0 : 1));
        images.emplace_back("lib1", lib(11));
        images.emplace_back("lib2", lib(22));
        std::vector<std::vector<std::string>> spawns = {
            {"caller"}, {"spawner"}, {"busy"}};
        if (!caller_first) {
            std::swap(spawns[0], spawns[1]);
        }
        RunPrint inline_run =
            run_images(images, spawns, 1, nullptr, false);
        EXPECT_EQ(inline_run.codes[caller_first ? 0 : 1], 11022);
        for (oskit::QuantumPool *pool : {&none, &three}) {
            RunPrint pre = run_images(images, spawns, 1, pool, false);
            expect_same_run(inline_run, pre);
            EXPECT_EQ(pre.deaths, inline_run.deaths);
            // Posting and staleness depend on simulated state only.
            EXPECT_EQ(pre.prerun.stale, 1u);
        }
    }
}

/** Pre-runs posted and not yet settled (each settle either finds the
 *  task run or takes it back); a function of simulated state only. */
uint64_t
outstanding(const oskit::PreRunStats &stats)
{
    return stats.posted - stats.preruns - stats.taken_back;
}

/** A CPU-bound SIP that makes no syscall for its first ~300 quanta of
 *  2000 instructions. */
const std::pair<std::string, std::string> kSpin = {"spin", R"(
func main() {
    var i = 0;
    var h = 7;
    while (i < 60000) { h = (h * 31 + i) & 0xffff; i = i + 1; }
    return h & 0x7f;
}
)"};

TEST(PreRun, KilledVictimWalkingFirstLeavesNoTrace)
{
    // KilledSiblingsPreRunLeavesNoTrace turned around: the victim
    // (pid 1) walks before its killer (pid 3), so when the kill lands
    // the victim has already run this round and its next quantum,
    // posted at its budget exit, is outstanding. Undoing it must leave
    // no trace in any counter, DeathRecord or code mark.
    const std::vector<std::pair<std::string, std::string>> sources = {
        {"killer", R"(
func main() {
    var i = 0;
    var h = 1;
    while (i < 30000) { h = h * 3 + i; i = i + 1; }
    kill(1, 9);
    i = 0;
    while (i < 10000) { h = h * 5 + i; i = i + 1; }
    return h & 0x3f;
}
)"},
        {"victim", R"(
global int cells[512];
func main() {
    var i = 0;
    while (1) { cells[i & 511] = cells[(i * 3) & 511] + i; i = i + 1; }
    return 0;
}
)"},
        kSpin,
    };
    // Pids 1..3: the victim shares the killer's home core at cores 2.
    const std::vector<std::vector<std::string>> spawns = {
        {"victim"}, {"spin"}, {"killer"}};
    oskit::QuantumPool none(0);
    oskit::QuantumPool three(3);
    for (int cores : {1, 2}) {
        SCOPED_TRACE(cores);
        RunPrint inline_run = run_sips(sources, spawns, cores, nullptr);
        EXPECT_EQ(inline_run.codes[0], -9);
        EXPECT_EQ(inline_run.death_order.front(), 1);
        for (oskit::QuantumPool *pool : {&none, &three}) {
            RunPrint pre = run_sips(sources, spawns, cores, pool);
            expect_same_run(inline_run, pre);
            EXPECT_EQ(pre.deaths, inline_run.deaths);
            EXPECT_EQ(pre.code_generation, inline_run.code_generation);
            // The victim's next quantum is undone at the kill.
            EXPECT_GT(pre.prerun.discards, 0u);
        }
    }
}

TEST(PreRun, PoolSwapsMidRunSettleAndMatchInline)
{
    // Between rounds the storm's pre-runs for the next round are
    // outstanding. Swapping the pool then (for none, for another, back)
    // settles them with the pool that took them, and the run still
    // matches the inline one.
    oskit::QuantumPool none(0);
    oskit::QuantumPool three(3);
    oskit::QuantumPool other(2);
    uint64_t at_swaps = 0;
    const RoundHook swap = [&](OcclumSystem &sys, int round) {
        oskit::QuantumPool *next = nullptr;
        switch (round) {
          case 40: next = &other; break;
          case 60: next = nullptr; break;
          case 80: next = &none; break;
          case 100: next = &three; break;
          default: return;
        }
        at_swaps += outstanding(sys.prerun_stats());
        sys.set_quantum_pool(next);
        EXPECT_EQ(outstanding(sys.prerun_stats()), 0u);
    };
    RunPrint inline_run = run_sips(kStorm, {{"storm"}}, 4, nullptr);
    for (oskit::QuantumPool *pool : {&none, &three}) {
        at_swaps = 0;
        RunPrint pre =
            run_sips(kStorm, {{"storm"}}, 4, pool, true, swap);
        expect_same_run(inline_run, pre);
        EXPECT_GT(at_swaps, 0u);
        EXPECT_EQ(outstanding(pre.prerun), 0u);
    }
}

TEST(PreRun, TeardownSettlesOutstandingPreRuns)
{
    // Systems destroyed mid-run, with pre-runs outstanding on three
    // threads: each personality settles them before its enclaves go
    // (ASan and TSan see it if not).
    oskit::QuantumPool three(3);
    faultsim::ScopedFaultPlan clean{faultsim::FaultPlan{}};
    auto run_six_rounds = [&](oskit::Kernel &sys) {
        sys.set_quantum_pool(&three);
        sys.set_quantum(2000);
        for (int i = 0; i < 3; ++i) {
            EXPECT_TRUE(sys.spawn("spin", {"spin"}).ok());
        }
        for (int round = 0; round < 6; ++round) {
            sys.step_round();
        }
        EXPECT_GT(outstanding(sys.prerun_stats()), 0u);
    };
    {
        sgx::Platform platform;
        host::HostFileStore binaries;
        binaries.put("spin", build_signed(kSpin.second));
        OcclumSystem::Config config;
        config.num_slots = 4;
        config.verifier_key = vkey();
        config.cores = 2;
        OcclumSystem sys(platform, binaries, config);
        run_six_rounds(sys);
    }
    {
        sgx::Platform platform;
        host::HostFileStore binaries;
        binaries.put("spin", build_plain(kSpin.second));
        baseline::EipSystem sys(platform, binaries);
        run_six_rounds(sys);
    }
}

TEST(PreRun, AexPlanArmedWithPreRunsOutstandingMatchesInline)
{
    // An AEX storm armed between rounds, while next round's pre-runs
    // are outstanding: each is discarded at its slot and the quantum
    // runs inline, sliced, exactly as in the inline run.
    uint64_t at_arm = 0;
    const RoundHook arm = [&](OcclumSystem &sys, int round) {
        if (round != 50) {
            return;
        }
        at_arm = outstanding(sys.prerun_stats());
        faultsim::FaultPlan plan;
        plan.aex_every = 1500;
        faultsim::FaultSim::instance().install(plan);
    };
    oskit::QuantumPool none(0);
    oskit::QuantumPool three(3);
    for (int cores : {1, 4}) {
        SCOPED_TRACE(cores);
        RunPrint inline_run =
            run_sips(kStorm, {{"storm"}}, cores, nullptr, true, arm);
        for (oskit::QuantumPool *pool : {&none, &three}) {
            at_arm = 0;
            RunPrint pre =
                run_sips(kStorm, {{"storm"}}, cores, pool, true, arm);
            expect_same_run(inline_run, pre);
            EXPECT_GT(at_arm, 0u);
            EXPECT_GE(pre.prerun.discards, at_arm);
        }
    }
}

TEST(PreRun, FreshSipsFirstQuantumIsPosted)
{
    // Two spinners keep the pool posting. A third spawned between
    // rounds 6 and 7 has its first quantum posted at round 7's start,
    // so that round posts four quanta (the newcomer's first, then each
    // spinner's and the newcomer's next at their budget exits) and,
    // on the 0-worker pool, commits three pre-runs (the spinners' and
    // the newcomer's first).
    oskit::QuantumPool none(0);
    oskit::PreRunStats before;
    oskit::PreRunStats after;
    const RoundHook spawn_one = [&](OcclumSystem &sys, int round) {
        if (round == 6) {
            before = sys.prerun_stats();
            EXPECT_TRUE(sys.spawn("spin", {"spin"}).ok());
        } else if (round == 7) {
            after = sys.prerun_stats();
        }
    };
    const std::vector<std::vector<std::string>> spawns = {{"spin"},
                                                          {"spin"}};
    RunPrint inline_run =
        run_sips({kSpin}, spawns, 1, nullptr, true, spawn_one);
    RunPrint pre = run_sips({kSpin}, spawns, 1, &none, true, spawn_one);
    expect_same_run(inline_run, pre);
    EXPECT_EQ(after.posted - before.posted, 4u);
    EXPECT_EQ(after.commits - before.commits, 3u);
    EXPECT_EQ(after.taken_back, 0u);
}

TEST(Occlum, SyscallReturnCheckIgnoresTheSipsPcbDomainId)
{
    // The domain id the return check compares against is the one the
    // loader stamped, not the PCB's copy, which the SIP can overwrite:
    // a SIP that scribbles over it still makes syscalls, and a return
    // target that is not its own cfi_label is still refused.
    const OcclumSystem::Config defaults;
    const uint64_t code = defaults.enclave_base + oelf::kTrampSize;
    const uint64_t pcb = code + defaults.slot_code_size + oelf::kGuardSize;
    auto sip = [&](bool forge_return) {
        isa::Assembler a(code);
        a.cfi_label();
        a.mov_ri(14, static_cast<int64_t>(pcb));
        a.mov_ri(13, 0x5eed);
        a.store(isa::mem_bd(14, abi::kPcbDomainId), 13);
        a.load(14, isa::mem_bd(14, abi::kPcbTrampoline));
        a.mov_ri(0, static_cast<int64_t>(abi::Sys::kGetPid));
        if (forge_return) {
            // The gate pops this as the return address.
            a.mov_rl(3, "not_a_label");
            a.push(3);
            a.jmp_reg(14);
            a.bind("not_a_label");
            a.nop();
        } else {
            a.call_reg(14);
            a.cfi_label(); // the syscall's return site
        }
        a.mov_rr(1, 0);
        a.add_ri(1, 40);
        asm_exit(a, pcb);
        return asm_image(a);
    };
    for (bool forge_return : {false, true}) {
        SCOPED_TRACE(forge_return);
        RunPrint run = run_images({{"sip", sip(forge_return)}}, {{"sip"}},
                                  1, nullptr, /*check_signatures=*/false);
        if (!forge_return) {
            EXPECT_EQ(run.codes, std::vector<int64_t>{41}); // getpid() + 40
            EXPECT_EQ(run.deaths[0].substr(0, 2), "1/"); // kExited
        } else {
            EXPECT_EQ(run.codes, std::vector<int64_t>{-1});
            const std::string bound_range =
                "2/" + std::to_string(static_cast<int>(
                           vm::FaultKind::kBoundRange)) + "/";
            EXPECT_EQ(run.deaths[0].substr(0, bound_range.size()),
                      bound_range);
        }
    }
}

/**
 * An image for a personality that loads at `base` (Linux, EIP): it
 * calls a routine in its data region that returns 11, read()s over it
 * through a pipe the bytes of one that returns 22, calls it again and
 * exits with 100 * first + second.
 */
Bytes
asm_rewrite_by_read(uint64_t base)
{
    oelf::Image image;
    image.heap_size = 1 << 16;
    image.stack_size = 1 << 14;
    image.code_reserve = 1 << 16;
    const uint64_t d_begin = base + image.data_offset();
    // Data (after the PCB): the pipe's fds, then the routine alone on
    // the next page, then the replacement's bytes on the one after.
    const uint64_t fds = d_begin + abi::kPcbSize;
    const uint64_t routine = d_begin + vm::kPageSize;
    const uint64_t fresh = d_begin + 2 * vm::kPageSize;
    auto returning = [](uint64_t at, int64_t value) {
        isa::Assembler r(at);
        r.mov_ri(0, value);
        r.ret();
        return r.finish();
    };
    const Bytes old_code = returning(routine, 11);
    const Bytes new_code = returning(routine, 22);
    image.data.assign(3 * vm::kPageSize - abi::kPcbSize, 0);
    std::copy(old_code.begin(), old_code.end(),
              image.data.begin() + (routine - fds));
    std::copy(new_code.begin(), new_code.end(),
              image.data.begin() + (fresh - fds));

    isa::Assembler a(base + oelf::kTrampSize);
    auto syscall = [&](abi::Sys num) {
        a.mov_ri(0, static_cast<int64_t>(num));
        a.mov_ri(14, static_cast<int64_t>(d_begin));
        a.load(14, isa::mem_bd(14, abi::kPcbTrampoline));
        a.call_reg(14);
        a.cfi_label();
    };
    a.cfi_label();
    a.mov_ri(12, static_cast<int64_t>(routine));
    a.call_reg(12); // decodes the page: from now on it supplies code
    a.mov_rr(13, 0);
    a.mov_ri(1, static_cast<int64_t>(fds));
    syscall(abi::Sys::kPipe);
    a.mov_ri(2, static_cast<int64_t>(fds));
    a.load(1, isa::mem_bd(2, 8));
    a.mov_ri(2, static_cast<int64_t>(fresh));
    a.mov_ri(3, static_cast<int64_t>(new_code.size()));
    syscall(abi::Sys::kWrite);
    a.mov_ri(2, static_cast<int64_t>(fds));
    a.load(1, isa::mem_bd(2, 0));
    a.mov_ri(2, static_cast<int64_t>(routine));
    a.mov_ri(3, static_cast<int64_t>(new_code.size()));
    syscall(abi::Sys::kRead);
    a.mov_ri(12, static_cast<int64_t>(routine));
    a.call_reg(12);
    a.mul_ri(13, 100);
    a.add_rr(13, 0);
    a.mov_rr(1, 13);
    syscall(abi::Sys::kExit);
    image.code = a.finish();
    return image.serialize();
}

TEST(Baselines, ReadIntoDecodedRwxPageRunsTheNewCode)
{
    // read() stores into the user's pages directly. A store into a
    // page that has supplied decoded instructions must still advance
    // the code generation, as write_raw did, so the next call decodes
    // the bytes the read delivered. EIP maps its data RWX (the SGX 1.0
    // RWX pool); under Linux the test makes the routine's page RWX.
    {
        sgx::Platform platform;
        host::HostFileStore binaries;
        binaries.put("rewrite", asm_rewrite_by_read(0x100000000ull));
        baseline::EipSystem sys(platform, binaries);
        auto pid = sys.spawn("rewrite", {"rewrite"});
        ASSERT_TRUE(pid.ok());
        sys.run();
        // 1111 if the second call ran the stale decode.
        EXPECT_EQ(sys.exit_code(pid.value()).value(), 1122);
    }
    {
        SimClock clock;
        host::HostFileStore binaries;
        const uint64_t base = 0x10000000;
        const Bytes bytes = asm_rewrite_by_read(base);
        binaries.put("rewrite", bytes);
        baseline::LinuxSystem sys(clock, binaries);
        auto pid = sys.spawn("rewrite", {"rewrite"});
        ASSERT_TRUE(pid.ok());
        vm::AddressSpace &space = *sys.find_process(pid.value())->space;
        const uint64_t routine =
            base + oelf::Image::parse(bytes).value().data_offset() +
            vm::kPageSize;
        ASSERT_TRUE(space.protect(routine, vm::kPageSize, vm::kPermRWX).ok());
        sys.run();
        EXPECT_EQ(sys.exit_code(pid.value()).value(), 1122);
    }
}

TEST(Eip, RunsProgramsInPerProcessEnclaves)
{
    sgx::Platform platform;
    host::HostFileStore binaries;
    binaries.put("hello",
                 build_plain("func main() { println(\"eip\");"
                             " return 5; }"));
    baseline::EipSystem sys(platform, binaries);
    auto pid = sys.spawn("hello", {"hello"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 5);
    EXPECT_EQ(sys.console(), "eip\n");
}

TEST(Eip, SpawnPaysEnclaveCreation)
{
    sgx::Platform platform;
    host::HostFileStore binaries;
    binaries.put("noop", build_plain("func main() { return 0; }"));
    baseline::EipSystem sys(platform, binaries);
    uint64_t before = platform.clock().cycles();
    ASSERT_TRUE(sys.spawn("noop", {"noop"}).ok());
    uint64_t cost = platform.clock().cycles() - before;
    // Must be in the ballpark of measuring a 256 MiB enclave: ~0.6 s.
    EXPECT_GT(SimClock::cycles_to_seconds(cost), 0.3);
}

TEST(Eip, SharedFsIsReadOnly)
{
    sgx::Platform platform;
    host::HostFileStore binaries;
    binaries.put("prog", build_plain(R"(
global byte ro[16] = "/data.bin";
global byte buf[16];
func main() {
    var fd = open(ro, 0);       // read: fine
    if (fd < 0) { return 1; }
    var n = read(fd, buf, 16);
    close(fd);
    fd = open(ro, 0x41);        // write|creat: EROFS
    if (fd >= 0) { return 2; }
    return n;
}
)"));
    Bytes data = {'d', 'a', 't', 'a'};
    binaries.put("/data.bin", data);
    baseline::EipSystem sys(platform, binaries);
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 4);
}

// ---- hostile OELF headers --------------------------------------------------

/** Header offsets of the two u64 segment lengths: magic, version and
 *  entry_offset (4 + 4 + 8 bytes) precede code_size, then data_size. */
constexpr size_t kCodeSizeAt = 16;
constexpr size_t kDataSizeAt = 24;

/**
 * A small well-formed image (no symbols, unsigned) with the u64 at
 * `field_at` overwritten by `len`. A length within 2^64 - pos of the
 * top of the range wraps a `pos + len > size` bounds test.
 */
Bytes
crafted_oelf(size_t field_at, uint64_t len)
{
    oelf::Image image;
    image.code = Bytes(48, 0x00);
    image.data = Bytes(16, 0x5a);
    Bytes raw = image.serialize();
    set_le<uint64_t>(raw.data() + field_at, len);
    return raw;
}

/** Every (field, length) pair the hostile-header tests feed in. */
std::vector<Bytes>
crafted_oelfs()
{
    // 73 and 121 are where the code and data reads start (72-byte
    // header plus the signature flag, then 48 code bytes), so those
    // lengths wrap pos + len to exactly 0.
    std::vector<Bytes> out;
    for (size_t field : {kCodeSizeAt, kDataSizeAt}) {
        for (uint64_t len : {~0ull, ~0ull - 40, 0ull - 73, 0ull - 121,
                             1ull << 63}) {
            out.push_back(crafted_oelf(field, len));
        }
    }
    return out;
}

TEST(HostileImage, SegmentLengthNear2To64IsATruncatedImage)
{
    ASSERT_TRUE(oelf::Image::parse(crafted_oelf(kCodeSizeAt, 48)).ok());
    for (const Bytes &raw : crafted_oelfs()) {
        auto parsed = oelf::Image::parse(raw);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.code(), ErrorCode::kNoExec);
        EXPECT_EQ(parsed.error().message, "OELF parse: truncated segments");
    }
}

const char *const kTalkerSource = R"(
func main() {
    var i = 0;
    while (i < 20000) { i = i + 1; }
    println("sibling ok");
    return 7;
}
)";

/** Spawns the sibling, then "evil" (which must fail with ENOEXEC),
 *  then reaps the sibling. */
const char *const kHostileSpawnParent = R"(
global byte t[16] = "talker";
global byte e[16] = "evil";
func main() {
    var argvv[1];
    argvv[0] = t;
    var sibling = spawn(t, argvv, 1);
    if (sibling < 0) { return 1; }
    argvv[0] = e;
    if (spawn(e, argvv, 1) != -8) { return 2; }
    if (waitpid(sibling) != 7) { return 3; }
    return 0;
}
)";

struct SiblingRun {
    int64_t parent_exit = -1;
    std::string console;
    std::vector<int> death_order;
};

/**
 * Run kHostileSpawnParent on one personality with `evil` installed.
 * `boot` installs the parent and sibling binaries (signed or plain)
 * and returns the system; the host-side spawn of "evil" must fail
 * with kNoExec as well.
 */
template <typename Boot>
SiblingRun
run_beside_hostile(Boot boot, const Bytes &evil)
{
    sgx::Platform platform;
    host::HostFileStore files;
    files.put("evil", evil);
    std::unique_ptr<oskit::Kernel> sys = boot(platform, files);
    EXPECT_EQ(sys->spawn("evil", {"evil"}).code(), ErrorCode::kNoExec);
    auto pid = sys->spawn("main", {"main"});
    EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
    if (!pid.ok()) return {};
    sys->run();
    SiblingRun run;
    run.parent_exit = sys->exit_code(pid.value()).value();
    run.console = sys->console();
    run.death_order = sys->death_order();
    return run;
}

template <typename Boot>
void
expect_hostile_images_refused(Boot boot)
{
    // The reference run installs a file with a bad magic: also ENOEXEC.
    SiblingRun reference =
        run_beside_hostile(boot, Bytes{'j', 'u', 'n', 'k'});
    EXPECT_EQ(reference.parent_exit, 0);
    EXPECT_EQ(reference.console, "sibling ok\n");
    EXPECT_EQ(reference.death_order.size(), 2u);
    for (const Bytes &evil : crafted_oelfs()) {
        SiblingRun run = run_beside_hostile(boot, evil);
        EXPECT_EQ(run.parent_exit, reference.parent_exit);
        EXPECT_EQ(run.console, reference.console);
        EXPECT_EQ(run.death_order, reference.death_order);
    }
}

TEST(HostileImage, SpawnIsNoExecAndSiblingRunsOnOcclum)
{
    expect_hostile_images_refused(
        [](sgx::Platform &platform, host::HostFileStore &files) {
            files.put("talker", build_signed(kTalkerSource));
            files.put("main", build_signed(kHostileSpawnParent));
            OcclumSystem::Config config;
            config.verifier_key = vkey();
            return std::unique_ptr<oskit::Kernel>(
                std::make_unique<OcclumSystem>(platform, files, config));
        });
}

TEST(HostileImage, SpawnIsNoExecAndSiblingRunsOnEip)
{
    expect_hostile_images_refused(
        [](sgx::Platform &platform, host::HostFileStore &files) {
            files.put("talker", build_plain(kTalkerSource));
            files.put("main", build_plain(kHostileSpawnParent));
            return std::unique_ptr<oskit::Kernel>(
                std::make_unique<baseline::EipSystem>(platform, files));
        });
}

TEST(HostileImage, SpawnIsNoExecAndSiblingRunsOnLinux)
{
    expect_hostile_images_refused(
        [](sgx::Platform &platform, host::HostFileStore &files) {
            files.put("talker", build_plain(kTalkerSource));
            files.put("main", build_plain(kHostileSpawnParent));
            return std::unique_ptr<oskit::Kernel>(
                std::make_unique<baseline::LinuxSystem>(platform.clock(),
                                                        files));
        });
}

} // namespace
} // namespace occlum::libos
