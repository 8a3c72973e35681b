/**
 * @file
 * Substrate microbenchmarks (google-benchmark): wall-clock
 * performance of the building blocks the simulation itself runs on —
 * SHA-256 (enclave measurement), AES-CTR (encrypted FS), the OVM
 * interpreter, the MiniC compiler, the verifier, the build path
 * (compile, verify_and_sign, serialize), the Occlum spawn path
 * (parse, signature check, slot wipe, load), the EIP reserve
 * measurement, the byte plane (a pipe round trip, one NetSim
 * request), a whole syscall round trip through an OcclumSystem, and
 * the EncFs block path under cache churn. These
 * measure the *simulator*, not the simulated system;
 * the figure benches report simulated time.
 */
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"

#include "base/rng.h"
#include "baseline/linux_system.h"
#include "crypto/aes.h"
#include "crypto/reference.h"
#include "crypto/sha256.h"
#include "host/host.h"
#include "isa/assembler.h"
#include "libos/encfs.h"
#include "libos/occlum_system.h"
#include "oskit/file_object.h"
#include "oskit/loader.h"
#include "sgx/sgx.h"
#include "toolchain/minic.h"
#include "verifier/verifier.h"
#include "vm/cpu.h"

using namespace occlum;

namespace {

void
BM_Sha256(benchmark::State &state)
{
    Bytes data(static_cast<size_t>(state.range(0)), 0xa5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::digest(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(65536);

/** BM_Sha256 on the scalar reference compression, so the SHA-NI
 *  kernel's gain shows in one report (equal rows on CPUs without
 *  SHA-NI). */
void
BM_Sha256Reference(benchmark::State &state)
{
    bool saved = crypto::reference_mode();
    crypto::set_reference_mode(true);
    BM_Sha256(state);
    crypto::set_reference_mode(saved);
}
BENCHMARK(BM_Sha256Reference)->Arg(4096)->Arg(65536);

void
BM_AesCtr(benchmark::State &state)
{
    crypto::Key128 key{};
    key[0] = 1;
    crypto::Aes128 aes(key);
    Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
    std::array<uint8_t, 12> iv{};
    for (auto _ : state) {
        benchmark::DoNotOptimize(aes.ctr_crypt(iv, 0, data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 1 KiB is the chunk EncFs hands to ctr_crypt (kCryptoChunk).
BENCHMARK(BM_AesCtr)->Arg(1024)->Arg(4096);

/** BM_AesCtr on the byte-wise reference AES, so the AES-NI kernel's
 *  gain shows in one report (equal rows on CPUs without AES-NI). */
void
BM_AesCtrReference(benchmark::State &state)
{
    bool saved = crypto::reference_mode();
    crypto::set_reference_mode(true);
    BM_AesCtr(state);
    crypto::set_reference_mode(saved);
}
BENCHMARK(BM_AesCtrReference)->Arg(1024)->Arg(4096);

/** Which loop vm_interpreter_bench runs. */
enum class VmLoop {
    kRegisters,   // register-only ALU loop
    kRwxData,     // plus one store per iteration into an RWX page
    kStackLocals, // MMDSFI-shaped: every local lives in the frame
    kSibLocals,   // the same, each slot addressed [fp + idx*8 + d]
};

/**
 * Interpreter throughput at one tier, so each tier's wall-clock win
 * is visible in one report; simulated cycles are identical in every
 * tier (asserted by the ablation bench). kRwxData maps the data page
 * RWX, as the EIP baseline maps its data region, and the loop stores
 * into it once per iteration. kStackLocals runs the sip-storm job's
 * loop (`h = (h * 31 + i) & 0xffff` while `i < n`) with h, i and n in
 * stack-frame slots, each load and store behind a mem_guard on a
 * frame-relative operand, the way instrumented code touches locals:
 * its rows price the trace tier's memory uops. kSibLocals runs the
 * same loop with every slot addressed through a SIB operand
 * ([fp + idx*8 + d], idx = 1), so its row prices the generic-EA
 * memory bodies beside the base+displacement ones.
 */
void
vm_interpreter_bench(benchmark::State &state, vm::Tier tier,
                     VmLoop loop = VmLoop::kRegisters)
{
    constexpr uint64_t kPage = 0x10000;
    vm::AddressSpace space;
    OCC_CHECK(space.map(0x1000, 0x1000, vm::kPermRX).ok());
    OCC_CHECK(space.map(kPage, 0x1000,
                        loop == VmLoop::kRwxData ? vm::kPermRWX
                                                 : vm::kPermRW)
                  .ok());
    isa::Assembler a(0x1000);
    if (loop == VmLoop::kStackLocals || loop == VmLoop::kSibLocals) {
        constexpr uint8_t kFp = 5;
        constexpr uint8_t kIdx = 6;
        auto slot = [loop](int32_t k) {
            return loop == VmLoop::kSibLocals
                       ? isa::mem_sib(kFp, kIdx, 3, 8 * k - 8)
                       : isa::mem_bd(kFp, 8 * k);
        };
        auto guarded_store = [&](int32_t k, uint8_t r) {
            a.mem_guard(slot(k));
            a.store(slot(k), r);
        };
        auto guarded_load = [&](uint8_t r, int32_t k) {
            a.mem_guard(slot(k));
            a.load(r, slot(k));
        };
        a.mov_ri(kFp, static_cast<int64_t>(kPage + 0x800));
        a.mov_ri(kIdx, 1);
        a.mov_ri(1, 0);
        guarded_store(0, 1); // h
        guarded_store(1, 1); // i
        a.mov_ri(1, 1000);
        guarded_store(2, 1); // n
        a.bind("loop");
        guarded_load(1, 0);
        a.mul_ri(1, 31);
        guarded_load(2, 1);
        a.add_rr(1, 2);
        a.and_ri(1, 0xffff);
        guarded_store(0, 1);
        a.add_ri(2, 1);
        guarded_store(1, 2);
        guarded_load(3, 2);
        a.cmp_rr(2, 3);
        a.jcc(isa::Cond::kLt, "loop");
    } else {
        a.mov_ri(1, 0);
        a.mov_ri(2, 1000);
        a.bind("loop");
        if (loop == VmLoop::kRwxData) {
            a.store(isa::mem_abs(kPage), 1);
        }
        a.add_ri(1, 3);
        a.xor_rr(3, 1);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(isa::Cond::kNe, "loop");
    }
    a.ltrap();
    Bytes code = a.finish();
    OCC_CHECK(space.write_raw(0x1000, code.data(), code.size()) ==
              vm::AccessFault::kNone);
    uint64_t hits = 0, misses = 0, invalidations = 0;
    uint64_t promotions = 0, sb_entries = 0;
    for (auto _ : state) {
        vm::Cpu cpu(space);
        cpu.set_tier(tier);
        cpu.set_rip(0x1000);
        cpu.set_sp(kPage + 0x1000 - 16);
        cpu.set_bnd(0, {kPage, kPage + 0xfff}); // the guards' domain
        benchmark::DoNotOptimize(cpu.run(100000));
        hits = cpu.block_cache_hits();
        misses = cpu.block_cache_misses();
        invalidations = cpu.block_cache_invalidations();
        promotions = cpu.superblock_promotions();
        sb_entries = cpu.superblock_exec_hits();
        state.counters["instr/s"] = benchmark::Counter(
            static_cast<double>(cpu.instructions()),
            benchmark::Counter::kIsIterationInvariantRate);
    }
    state.counters["bb_hits"] = static_cast<double>(hits);
    state.counters["bb_misses"] = static_cast<double>(misses);
    if (loop == VmLoop::kRwxData) {
        // Stores into an RWX page that never supplied decoded bytes
        // must leave every block valid: this reads 0.
        state.counters["bb_invalidations"] =
            static_cast<double>(invalidations);
    }
    if (tier == vm::Tier::kTraces) {
        state.counters["sb_promotions"] = static_cast<double>(promotions);
        state.counters["sb_entries"] = static_cast<double>(sb_entries);
    }
}

/** The PR 2 tier-1 baseline: block cache on, superblock tier off. */
void
BM_VmInterpreter(benchmark::State &state)
{
    vm_interpreter_bench(state, vm::Tier::kBlocks);
}
BENCHMARK(BM_VmInterpreter);

void
BM_VmInterpreterNoCache(benchmark::State &state)
{
    vm_interpreter_bench(state, vm::Tier::kDecode);
}
BENCHMARK(BM_VmInterpreterNoCache);

void
BM_VmInterpreterSuperblock(benchmark::State &state)
{
    vm_interpreter_bench(state, vm::Tier::kTraces);
}
BENCHMARK(BM_VmInterpreterSuperblock);

/** The trace tier over the EIP baseline's RWX-data layout. */
void
BM_VmInterpreterRwxData(benchmark::State &state)
{
    vm_interpreter_bench(state, vm::Tier::kTraces, VmLoop::kRwxData);
}
BENCHMARK(BM_VmInterpreterRwxData);

/** The trace tier over bound-checked stack-frame locals. */
void
BM_VmInterpreterStackLocals(benchmark::State &state)
{
    vm_interpreter_bench(state, vm::Tier::kTraces, VmLoop::kStackLocals);
}
BENCHMARK(BM_VmInterpreterStackLocals);

/** The same locals through SIB operands: the generic-EA bodies. */
void
BM_VmInterpreterSibLocals(benchmark::State &state)
{
    vm_interpreter_bench(state, vm::Tier::kTraces, VmLoop::kSibLocals);
}
BENCHMARK(BM_VmInterpreterSibLocals);

void
BM_CompileMiniC(benchmark::State &state)
{
    const char *src =
        "global int a[64];\n"
        "func main() { for (i = 0; i < 64; i = i + 1) { a[i] = i * i; }"
        " return a[63]; }";
    for (auto _ : state) {
        benchmark::DoNotOptimize(toolchain::compile(src));
    }
}
BENCHMARK(BM_CompileMiniC);

/**
 * Verify one small program whose code is padded to range(0) bytes:
 * 0, and 14 MiB like cc1 in Fig. 6a. The padded row prices Stage 1's
 * per-code-byte work (owner map, label scan) over unreachable padding.
 */
void
BM_VerifyBinary(benchmark::State &state)
{
    toolchain::CompileOptions options;
    options.pad_code_to = static_cast<uint64_t>(state.range(0));
    options.code_reserve = 16 << 20;
    auto out = toolchain::compile(
        "global int a[256];\n"
        "func main() { for (i = 0; i < 256; i = i + 1) { a[i] = i; }"
        " return 0; }",
        options);
    OCC_CHECK(out.ok());
    crypto::Key128 key{};
    verifier::Verifier verifier(key);
    for (auto _ : state) {
        benchmark::DoNotOptimize(verifier.verify(out.value().image));
    }
    verifier::VerifyReport report = verifier.verify(out.value().image);
    OCC_CHECK_MSG(report.ok, report.reason);
    state.counters["instrs"] =
        static_cast<double>(report.reachable_instructions);
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(out.value().image.code.size()));
}
BENCHMARK(BM_VerifyBinary)->Arg(0)->Arg(14 << 20)
    ->Unit(benchmark::kMicrosecond);

/**
 * The whole host build of one Occlum binary, as workloads'
 * build_program does it: compile with full instrumentation and a
 * 1 MiB pad, verify_and_sign (the image moved in), serialize.
 */
void
BM_BuildProgram(benchmark::State &state)
{
    toolchain::CompileOptions options;
    options.pad_code_to = 1 << 20;
    options.code_reserve = 2 << 20;
    crypto::Key128 key{};
    verifier::Verifier verifier(key);
    size_t bytes = 0;
    for (auto _ : state) {
        auto out = toolchain::compile("func main() { return 0; }", options);
        OCC_CHECK(out.ok());
        auto signed_image =
            verifier.verify_and_sign(std::move(out.value().image));
        OCC_CHECK(signed_image.ok());
        oelf::SignedBinary raw = signed_image.value().serialize();
        bytes = raw.size();
        benchmark::DoNotOptimize(raw.bytes().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_BuildProgram)->Unit(benchmark::kMicrosecond);

/**
 * The host work of one Occlum spawn, without the kernel: read the
 * signed bytes from the host store, parse them into the enclave-side
 * Image, check its signature with the digest taken through the
 * store's memo, wipe the reused slot as the loader's contract asks
 * (trampoline, code tail, data region) and load the 256 KiB-padded
 * image into it. `cold` re-puts the bytes before each iteration
 * (untimed), so every spawn hashes; `warm` spawns hit the memo the
 * first one filled; `seeded` re-puts the build product (untimed),
 * whose put memoizes the digest the verifier signed, so no spawn
 * hashes.
 */
enum class SpawnMemo { kCold, kWarm, kSeeded };

void
BM_OcclumSpawn(benchmark::State &state, SpawnMemo memo)
{
    toolchain::CompileOptions options;
    options.pad_code_to = 256 << 10;
    auto out = toolchain::compile("func main() { return 0; }", options);
    OCC_CHECK(out.ok());
    crypto::Key128 key{};
    key[0] = 0x5E;
    verifier::Verifier verifier(key);
    auto signed_image = verifier.verify_and_sign(out.value().image);
    OCC_CHECK(signed_image.ok());
    const oelf::SignedBinary binary = signed_image.value().serialize();
    const std::string path = "job";
    host::HostFileStore store;
    store.put(path, binary.bytes());

    constexpr uint64_t kBase = 0x100000000ull;
    const oelf::Image &shape = signed_image.value().image();
    const uint64_t d_begin = kBase + shape.data_offset();
    vm::AddressSpace slot;
    OCC_CHECK(slot.map(kBase, oelf::kTrampSize + shape.code_region_size(),
                       vm::kPermRX)
                  .ok());
    OCC_CHECK(slot.map(d_begin, shape.data_region_size(), vm::kPermRW).ok());
    uint32_t domain_id = 0;
    for (auto _ : state) {
        if (memo == SpawnMemo::kCold) {
            state.PauseTiming();
            store.put(path, binary.bytes());
            state.ResumeTiming();
        } else if (memo == SpawnMemo::kSeeded) {
            state.PauseTiming();
            store.put(path, binary);
            state.ResumeTiming();
        }
        const uint64_t version = store.version(path);
        auto parsed = oelf::Image::parse(*store.get(path).value());
        OCC_CHECK(parsed.ok());
        const oelf::Image &image = parsed.value();
        OCC_CHECK(image.check_signature(
            key, store.memoized_digest(path, version, [&image] {
                return image.content_digest();
            })));
        slot.zero_raw(kBase, oelf::kTrampSize);
        slot.zero_raw(kBase + oelf::kTrampSize + image.code.size(),
                      image.code_region_size() - image.code.size());
        slot.zero_raw(d_begin, image.data_region_size());
        oskit::LoadOptions load;
        load.domain_id = ++domain_id;
        load.map_pages = false;
        auto domain = oskit::load_image(slot, image, kBase, {"p"}, load);
        OCC_CHECK(domain.ok());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(binary.size()));
}
BENCHMARK_CAPTURE(BM_OcclumSpawn, cold, SpawnMemo::kCold)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OcclumSpawn, warm, SpawnMemo::kWarm)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OcclumSpawn, seeded, SpawnMemo::kSeeded)
    ->Unit(benchmark::kMicrosecond);

/** EADD+EEXTEND accounting of an EIP-sized zero reserve (pages). */
void
BM_MeasureReserved(benchmark::State &state)
{
    const uint64_t pages = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        sgx::Platform platform;
        sgx::Enclave enclave(platform, 0x100000000ull,
                             pages * vm::kPageSize);
        OCC_CHECK(enclave.measure_reserved(pages * vm::kPageSize).ok());
        benchmark::DoNotOptimize(enclave);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(pages));
}
BENCHMARK(BM_MeasureReserved)->Arg(64)->Arg(79 << 10)
    ->Unit(benchmark::kMicrosecond);

/**
 * Two same-sized reserves on one platform, as in gcc-pipeline's EIP
 * leg: the first hashes (`cold_us`), the second is served from the
 * platform's reserve memo (`hit_us`).
 */
void
BM_MeasureReservedTwice(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const uint64_t pages = static_cast<uint64_t>(state.range(0));
    double cold_us = 0;
    double hit_us = 0;
    for (auto _ : state) {
        sgx::Platform platform;
        for (double *total : {&cold_us, &hit_us}) {
            const Clock::time_point start = Clock::now();
            sgx::Enclave enclave(platform, 0x100000000ull,
                                 pages * vm::kPageSize);
            OCC_CHECK(enclave.measure_reserved(pages * vm::kPageSize).ok());
            benchmark::DoNotOptimize(enclave);
            *total += std::chrono::duration<double, std::micro>(
                          Clock::now() - start)
                          .count();
        }
        OCC_CHECK(platform.reserve_memo_hits() == 1);
    }
    state.counters["cold_us"] =
        benchmark::Counter(cold_us, benchmark::Counter::kAvgIterations);
    state.counters["hit_us"] =
        benchmark::Counter(hit_us, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MeasureReservedTwice)->Arg(79 << 10)
    ->Unit(benchmark::kMicrosecond);

/**
 * One 10 KiB message through a pipe: written into the write end and
 * read back out of the read end, the byte movement of a SIP-to-SIP
 * pipe transfer without the syscall path around it.
 */
void
BM_PipeRoundTrip(benchmark::State &state)
{
    SimClock clock;
    host::HostFileStore files;
    baseline::LinuxSystem kernel(clock, files);
    auto pipe = std::make_shared<oskit::Pipe>();
    oskit::PipeEnd rd(pipe, true);
    oskit::PipeEnd wr(pipe, false);
    rd.on_fd_acquire();
    wr.on_fd_acquire();
    const Bytes message(10 << 10, 0x5A);
    Bytes back(message.size());
    const auto len = static_cast<int64_t>(message.size());
    for (auto _ : state) {
        OCC_CHECK(wr.write(kernel, message.data(), message.size()).value ==
                  len);
        OCC_CHECK(rd.read(kernel, back.data(), back.size()).value == len);
        benchmark::DoNotOptimize(back.data());
    }
    state.SetBytesProcessed(state.iterations() * len);
}
BENCHMARK(BM_PipeRoundTrip);

/**
 * One proxied page's trip over NetSim: connect, a 27-byte request, a
 * 10 KiB response drained in 4 KiB recvs, then close, with the clock
 * advanced to each arrival. `live_connections` is what NetSim still
 * holds after the run: 0, unless a closed connection leaks.
 */
void
BM_NetSimRequest(benchmark::State &state)
{
    SimClock clock;
    host::NetSim net(clock);
    OCC_CHECK(net.listen(80, 16));
    const Bytes request(27, 'G');
    const Bytes response(10 << 10, 0x3C);
    uint8_t buf[4096];
    auto advance_to = [&](uint64_t cycle) {
        OCC_CHECK(cycle != ~0ull);
        if (cycle > clock.cycles()) {
            clock.advance(cycle - clock.cycles());
        }
    };
    for (auto _ : state) {
        auto connected = net.connect(80);
        OCC_CHECK(connected.ok());
        host::NetSim::Connection *conn = connected.value();
        advance_to(net.next_accept_time(80));
        OCC_CHECK(net.try_accept(80, clock.cycles()) == conn);
        uint64_t next = 0;
        net.send(conn, false, request.data(), request.size());
        advance_to(net.next_arrival_time(conn, true));
        OCC_CHECK(net.recv(conn, true, buf, sizeof(buf), clock.cycles(),
                           next) == request.size());
        net.send(conn, true, response.data(), response.size());
        advance_to(net.next_arrival_time(conn, false));
        size_t got = 0;
        while (got < response.size()) {
            got += net.recv(conn, false, buf, sizeof(buf), clock.cycles(),
                            next);
        }
        net.close(conn, false);
        net.close(conn, true);
        benchmark::DoNotOptimize(buf);
    }
    state.counters["live_connections"] =
        static_cast<double>(net.live_connections());
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(request.size() + response.size()));
}
BENCHMARK(BM_NetSimRequest);

/** The SIPs of BM_SyscallRoundTrip: a server that relays each
 *  request through a worker, and the worker. */
const char *const kRelayServer = R"(
global int evs[8];
global byte req[512];
global byte job[8];
global byte reply[10240];
global byte child[8] = "worker";
func main() {
    var l = sock_listen(8080, 16);
    var ep = epoll_create();
    if (epoll_ctl(ep, 1, l, 0x1) != 0) { return 1; }
    var jp[2];
    var rp[2];
    if (pipe(jp) != 0) { return 2; }
    if (pipe(rp) != 0) { return 2; }
    var io3[3];
    io3[0] = jp[0];
    io3[1] = rp[1];
    io3[2] = 0 - 1;
    var argvv[1];
    argvv[0] = child;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 3; }
    close(jp[0]);
    close(rp[1]);
    while (1) {
        var n = epoll_wait(ep, evs, 4, 0 - 1);
        var i = 0;
        while (i < n) {
            var fd = evs[i * 2];
            if (fd == l) {
                var c = sock_accept(l);
                if (c >= 0) { epoll_ctl(ep, 1, c, 0x1); }
            } else {
                if (sock_recv(fd, req, 512) > 0) {
                    write(jp[1], job, 8);
                    var got = 0;
                    while (got < 10240) {
                        got = got + read(rp[0], reply + got, 10240 - got);
                    }
                    sock_send(fd, reply, 10240);
                }
                close(fd);
            }
            i = i + 1;
        }
    }
    return 0;
}
)";

const char *const kRelayWorker = R"(
global byte job[8];
global byte out[10240];
func main() {
    while (1) {
        var got = 0;
        while (got < 8) {
            var n = read(0, job + got, 8 - got);
            if (n <= 0) { return 0; }
            got = got + n;
        }
        var sent = 0;
        while (sent < 10240) {
            sent = sent + write(1, out + sent, 10240 - sent);
        }
    }
    return 0;
}
)";

/**
 * The syscall round trip as the http-proxy workload makes it, whole:
 * guest code, the ltrap, the first dispatch, blocked retries and the
 * scheduler walk, on an OcclumSystem at 1 core. Each iteration is one
 * request: a NetSim client connects and sends 27 bytes; the server SIP
 * takes it through epoll_wait, sock_accept, epoll_ctl and sock_recv,
 * hands an 8-byte job to the worker SIP over a pipe, reads its 10 KiB
 * reply from another, sock_sends it and closes. The client's
 * drain is host work too. Reports host time per syscall.
 */
void
BM_SyscallRoundTrip(benchmark::State &state)
{
    crypto::Key128 key{};
    key[0] = 0x5E;
    verifier::Verifier verifier(key);
    host::HostFileStore binaries;
    for (auto [name, source] :
         {std::pair{"server", kRelayServer}, {"worker", kRelayWorker}}) {
        auto out = toolchain::compile(source);
        OCC_CHECK(out.ok());
        auto signed_image = verifier.verify_and_sign(out.value().image);
        OCC_CHECK(signed_image.ok());
        binaries.put(name, signed_image.value().serialize());
    }
    sgx::Platform platform;
    host::NetSim net(platform.clock());
    libos::OcclumSystem::Config config;
    config.num_slots = 2;
    config.verifier_key = key;
    config.cores = 1;
    libos::OcclumSystem sys(platform, binaries, config, &net);
    OCC_CHECK(sys.spawn("server", {"server"}).ok());
    sys.run(/*allow_idle=*/true); // both SIPs park

    const Bytes request(27, 'G');
    uint8_t buf[4096];
    const uint64_t syscalls = sys.stats().syscalls;
    for (auto _ : state) {
        auto connected = net.connect(8080);
        OCC_CHECK(connected.ok());
        host::NetSim::Connection *conn = connected.value();
        net.send(conn, false, request.data(), request.size());
        size_t got = 0;
        while (got < 10240) {
            bool progress = sys.step_round();
            uint64_t next = ~0ull;
            size_t n = net.recv(conn, false, buf, sizeof(buf),
                                sys.clock().cycles(), next);
            got += n;
            if (progress || n > 0) {
                continue;
            }
            uint64_t wake = std::min(sys.next_wake_time(), next);
            OCC_CHECK(wake != ~0ull);
            if (wake > sys.clock().cycles()) {
                sys.clock().advance(wake - sys.clock().cycles());
            }
        }
        net.close(conn, false);
    }
    state.counters["syscalls_per_request"] = benchmark::Counter(
        static_cast<double>(sys.stats().syscalls - syscalls),
        benchmark::Counter::kAvgIterations);
    state.counters["host_per_syscall"] = benchmark::Counter(
        static_cast<double>(sys.stats().syscalls - syscalls),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SyscallRoundTrip)->Unit(benchmark::kMicrosecond);

/**
 * The EncFs block path under cache pressure, with no SIP or syscall
 * around it: a fresh 256-block cache writes a file of 3x its size
 * sequentially 4 KiB at a time, syncs, reads it back, then does 512
 * seeded random 4 KiB reads. Every block access is a cache hit, a
 * miss that evicts (encrypting a dirty victim), or a decrypting miss:
 * encfs-io's access mix at a twelfth of its size. The format and the
 * empty device are built outside the timed region.
 */
void
BM_EncFsChurn(benchmark::State &state)
{
    constexpr uint64_t kCacheBlocks = 256;
    constexpr uint64_t kFileBlocks = 3 * kCacheBlocks;
    constexpr uint64_t kBlock = libos::EncFs::kBlockSize;
    constexpr int kRandomReads = 512;
    libos::EncFs::Config config;
    config.key.fill(0x2b);
    config.cache_blocks = kCacheBlocks;
    Bytes block(kBlock, 0xC3);
    Rng rng(7);
    std::vector<uint64_t> random(kRandomReads);
    for (uint64_t &b : random) {
        b = rng.next_below(kFileBlocks);
    }
    for (auto _ : state) {
        state.PauseTiming();
        SimClock clock;
        host::BlockDevice device(clock, 2 * kFileBlocks);
        libos::EncFs fs(device, clock, config);
        OCC_CHECK(fs.mkfs().ok());
        state.ResumeTiming();

        auto inode = fs.open_inode("/churn", true, false);
        OCC_CHECK(inode.ok());
        for (uint64_t b = 0; b < kFileBlocks; ++b) {
            OCC_CHECK(fs.write(inode.value(), b * kBlock, block.data(),
                               kBlock)
                          .ok());
        }
        OCC_CHECK(fs.sync().ok());
        for (uint64_t b = 0; b < kFileBlocks; ++b) {
            OCC_CHECK(fs.read(inode.value(), b * kBlock, block.data(),
                              kBlock)
                          .ok());
        }
        for (uint64_t b : random) {
            OCC_CHECK(fs.read(inode.value(), b * kBlock, block.data(),
                              kBlock)
                          .ok());
        }
        benchmark::DoNotOptimize(block.data());
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>((2 * kFileBlocks + kRandomReads) * kBlock));
}
BENCHMARK(BM_EncFsChurn)->Unit(benchmark::kMillisecond);

/**
 * Console output as usual, plus every iteration-level run collected
 * into the shared BENCH_<name>.json schema.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    explicit CollectingReporter(bench::JsonReport &report)
        : report_(&report)
    {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred) {
                continue;
            }
            report_->add(run.benchmark_name(), "real_time_ns",
                         run.GetAdjustedRealTime());
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    bench::JsonReport *report_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    bench::JsonReport report("substrate");
    CollectingReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    report.write();
    return 0;
}
