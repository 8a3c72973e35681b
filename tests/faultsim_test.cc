/**
 * @file
 * Fault-injection harness tests: plan parsing, seeded determinism of
 * the injection sequence, EPC-exhaustion degradation, AEX-storm
 * transparency, transient-fault retry absorption, EncFs flush/torn
 * write recovery regressions, and the randomized crash-monkey that
 * injects a fault at every op ordinal and checks the survivors'
 * invariants after remount/restart.
 */
#include <gtest/gtest.h>

#include <map>

#include "faultsim/faultsim.h"
#include "host/host.h"
#include "libos/encfs.h"
#include "libos/occlum_system.h"
#include "toolchain/minic.h"
#include "trace/metrics.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

namespace occlum {
namespace {

using faultsim::DevFault;
using faultsim::FaultPlan;
using faultsim::FaultSim;
using faultsim::ScopedFaultPlan;
using faultsim::Site;

// ---------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------

TEST(FaultPlanParse, ParsesKeysWithEitherSeparator)
{
    auto plan = FaultPlan::parse(
        "seed=7;dev_write_fail_at=23,torn_write=0.25;aex_every=512");
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan.value().seed, 7u);
    EXPECT_EQ(plan.value().dev_write_fail_at, 23u);
    EXPECT_DOUBLE_EQ(plan.value().torn_write, 0.25);
    EXPECT_EQ(plan.value().aex_every, 512u);
    EXPECT_TRUE(plan.value().any());

    auto empty = FaultPlan::parse("");
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(empty.value().any());
}

TEST(FaultPlanParse, RejectsTyposAndBadValues)
{
    // A typo'd key silently ignored would make a CI fault run vacuous.
    EXPECT_FALSE(FaultPlan::parse("sed=7").ok());
    EXPECT_FALSE(FaultPlan::parse("torn_write=1.5").ok());
    EXPECT_FALSE(FaultPlan::parse("torn_write=-0.1").ok());
    EXPECT_FALSE(FaultPlan::parse("aex_every=abc").ok());
    EXPECT_FALSE(FaultPlan::parse("aex_every=12x").ok());
    EXPECT_FALSE(FaultPlan::parse("noequals").ok());
}

// ---------------------------------------------------------------------
// Seeded determinism
// ---------------------------------------------------------------------

std::vector<DevFault>
draw_write_sequence(const FaultPlan &plan, size_t n)
{
    ScopedFaultPlan scoped(plan);
    std::vector<DevFault> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        out.push_back(FaultSim::instance().dev_write_fault());
    }
    return out;
}

TEST(FaultSimDeterminism, SameSeedReproducesTheInjectionSequence)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.dev_write_transient = 0.10;
    plan.dev_write_fail = 0.05;
    plan.torn_write = 0.05;
    plan.corrupt_write = 0.05;

    auto first = draw_write_sequence(plan, 500);
    auto second = draw_write_sequence(plan, 500);
    EXPECT_EQ(first, second);

    // The plan is hot enough that something actually fired.
    size_t fired = 0;
    for (DevFault f : first) {
        if (f != DevFault::kNone) {
            ++fired;
        }
    }
    EXPECT_GT(fired, 0u);

    // A different seed yields a different schedule.
    plan.seed = 43;
    EXPECT_NE(draw_write_sequence(plan, 500), first);
}

TEST(FaultSimDeterminism, OneShotOrdinalOverridesAndCountersTrack)
{
    FaultPlan plan;
    plan.seed = 5;
    plan.dev_write_fail_at = 3; // exactly the 3rd write check fails
    ScopedFaultPlan scoped(plan);

    FaultSim &sim = FaultSim::instance();
    for (int i = 1; i <= 6; ++i) {
        DevFault f = sim.dev_write_fault();
        if (i == 3) {
            EXPECT_EQ(f, DevFault::kHard) << "ordinal " << i;
        } else {
            EXPECT_EQ(f, DevFault::kNone) << "ordinal " << i;
        }
    }
    EXPECT_EQ(sim.checks(Site::kDevWrite), 6u);
    EXPECT_EQ(sim.fires(Site::kDevWrite), 1u);
}

TEST(FaultSimDeterminism, ScopedPlanRestoresPreviousState)
{
    FaultSim &sim = FaultSim::instance();
    bool outer_active = sim.active();
    {
        FaultPlan plan;
        plan.torn_write = 1.0;
        ScopedFaultPlan scoped(plan);
        EXPECT_TRUE(sim.active());
        EXPECT_EQ(sim.dev_write_fault(), DevFault::kTorn);
    }
    EXPECT_EQ(sim.active(), outer_active);
    EXPECT_EQ(sim.dev_write_fault(), DevFault::kNone);
}

// ---------------------------------------------------------------------
// EncFs under device faults
// ---------------------------------------------------------------------

struct FsHarness {
    SimClock clock;
    host::BlockDevice device{clock, 256};
    libos::EncFs::Config config;
    std::unique_ptr<libos::EncFs> fs;

    FsHarness()
    {
        config.inode_count = 64;
        config.cache_blocks = 64;
        fs = std::make_unique<libos::EncFs>(device, clock, config);
    }

    /** A fresh EncFs over the same device (the "remount"). */
    std::unique_ptr<libos::EncFs>
    remount()
    {
        return std::make_unique<libos::EncFs>(device, clock, config);
    }
};

TEST(FaultSimEncFs, TransientFaultsAreAbsorbedByRetryWithBackoff)
{
    FsHarness h;
    ASSERT_TRUE(h.fs->mkfs().ok());

    trace::Counter &retries =
        trace::Registry::instance().counter("encfs.io_retries");
    uint64_t retries_before = retries.value();
    uint64_t cycles_before = h.clock.cycles();

    FaultPlan plan;
    plan.seed = 11;
    plan.dev_read_transient = 0.2;
    plan.dev_write_transient = 0.2;
    ScopedFaultPlan scoped(plan);

    Bytes content(6000, 0x5a);
    ASSERT_TRUE(h.fs->write_file("/t", content).ok());
    ASSERT_TRUE(h.fs->sync().ok());
    auto back = h.fs->read_file("/t");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), content);

    // The faults really happened and the retries really paid for
    // themselves: the retry counter moved and backoff burned cycles.
    EXPECT_GT(retries.value(), retries_before);
    EXPECT_GT(h.clock.cycles(), cycles_before);
}

TEST(FaultSimEncFs, ExhaustedTransientRetriesSurfaceAsIo)
{
    FsHarness h;
    ASSERT_TRUE(h.fs->mkfs().ok());
    ASSERT_TRUE(h.fs->write_file("/t", Bytes(100, 1)).ok());
    ASSERT_TRUE(h.fs->sync().ok());

    // Every attempt transient: the bounded retry gives up with kIo
    // instead of spinning forever.
    FaultPlan plan;
    plan.dev_write_transient = 1.0;
    ScopedFaultPlan scoped(plan);
    ASSERT_TRUE(h.fs->write_file("/t", Bytes(200, 2)).ok()); // cached
    Status synced = h.fs->sync();
    ASSERT_FALSE(synced.ok());
    EXPECT_EQ(synced.code(), ErrorCode::kIo);
}

TEST(Regression, FlushFailureLeavesEntryDirtyAndRollsBackMac)
{
    FsHarness h;
    ASSERT_TRUE(h.fs->mkfs().ok());
    Bytes v1(5000, 0x11);
    Bytes v2(5200, 0x22);
    ASSERT_TRUE(h.fs->write_file("/f", v1).ok());
    ASSERT_TRUE(h.fs->sync().ok());

    ASSERT_TRUE(h.fs->write_file("/f", v2).ok());
    {
        FaultPlan plan;
        plan.dev_write_fail = 1.0; // every device write fails hard
        ScopedFaultPlan scoped(plan);
        EXPECT_FALSE(h.fs->sync().ok());
        // The failed flush must not have dropped the data: the entry
        // stays dirty in cache and reads still see v2.
        auto cached = h.fs->read_file("/f");
        ASSERT_TRUE(cached.ok());
        EXPECT_EQ(cached.value(), v2);
    }

    // With the fault gone the same dirty state flushes cleanly, and a
    // fresh mount of the device agrees — i.e. the failed flush neither
    // marked entries clean nor left the MAC table pointing at
    // ciphertext that never reached the device.
    ASSERT_TRUE(h.fs->sync().ok());
    auto fs2 = h.remount();
    ASSERT_TRUE(fs2->mount().ok());
    auto after = fs2->read_file("/f");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), v2);
}

TEST(Regression, TornWriteDetectedOnRemount)
{
    FsHarness h;
    ASSERT_TRUE(h.fs->mkfs().ok());
    Bytes v1(5000, 0x33);
    Bytes v2(5000, 0x44);
    ASSERT_TRUE(h.fs->write_file("/f", v1).ok());
    ASSERT_TRUE(h.fs->sync().ok());

    // Every write of the second sync is torn: only the first half of
    // each block lands, while the device reports success.
    ASSERT_TRUE(h.fs->write_file("/f", v2).ok());
    {
        FaultPlan plan;
        plan.torn_write = 1.0;
        ScopedFaultPlan scoped(plan);
        (void)h.fs->sync(); // "succeeds" — the tear is silent
    }

    // Crash here (drop the FS without another sync), then remount.
    // The torn blocks must be *detected* — a read either fails the
    // integrity check cleanly or returns an intact version in full;
    // it never panics and never returns stitched half-and-half data.
    auto fs2 = h.remount();
    Status mounted = fs2->mount();
    if (mounted.ok()) {
        auto got = fs2->read_file("/f");
        if (got.ok()) {
            EXPECT_TRUE(got.value() == v1 || got.value() == v2);
        }
    } else {
        EXPECT_FALSE(mounted.error().message.empty());
    }
}

TEST(FaultSimEncFs, CorruptWritesAreCaughtByTheMac)
{
    FsHarness h;
    ASSERT_TRUE(h.fs->mkfs().ok());
    Bytes v1(4096, 0x77);
    {
        FaultPlan plan;
        plan.seed = 3;
        plan.corrupt_write = 1.0; // every block scrambled in flight
        ScopedFaultPlan scoped(plan);
        ASSERT_TRUE(h.fs->write_file("/f", v1).ok());
        (void)h.fs->sync(); // reports success; the corruption is silent
    }
    // The remount sees flipped bits somewhere on the path from MAC
    // table to data block and must refuse rather than return garbage.
    auto fs2 = h.remount();
    Status mounted = fs2->mount();
    if (mounted.ok()) {
        auto got = fs2->read_file("/f");
        if (got.ok()) {
            EXPECT_EQ(got.value(), v1); // only an intact copy is ok
        }
    }
}

// ---------------------------------------------------------------------
// Occlum system: EPC exhaustion and AEX storms
// ---------------------------------------------------------------------

crypto::Key128
vkey()
{
    crypto::Key128 key{};
    key[5] = 0x31;
    return key;
}

Bytes
build_signed(const std::string &source)
{
    auto out = toolchain::compile(source);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    verifier::Verifier verifier(vkey());
    auto signed_image = verifier.verify_and_sign(out.value().image);
    EXPECT_TRUE(signed_image.ok());
    return signed_image.value().image().serialize();
}

struct OcclumHarness {
    sgx::Platform platform;
    host::HostFileStore binaries;
    std::unique_ptr<libos::OcclumSystem> sys;

    explicit OcclumHarness(libos::OcclumSystem::Config config = {})
    {
        config.verifier_key = vkey();
        sys = std::make_unique<libos::OcclumSystem>(platform, binaries,
                                                    config);
    }
};

TEST(FaultSimEpc, InjectedExhaustionDegradesSlotsNotTheSystem)
{
    FaultPlan plan;
    plan.epc_fail_at = 5; // the 3rd slot's code EADD fails
    ScopedFaultPlan scoped(plan);

    libos::OcclumSystem::Config config;
    config.num_slots = 8;
    config.fs_blocks = 1 << 10;
    OcclumHarness h(config);

    // Two add_pages checks per slot: checks 1..4 built slots 1-2,
    // check 5 stopped slot 3. The system must come up with what fits.
    EXPECT_EQ(h.sys->free_slots(), 2);
    ASSERT_TRUE(h.sys->fs_status().ok());

    // Both surviving slots are genuinely usable...
    h.binaries.put("ok", build_signed("func main() { return 7; }"));
    auto p1 = h.sys->spawn("ok", {"ok"});
    auto p2 = h.sys->spawn("ok", {"ok"});
    ASSERT_TRUE(p1.ok());
    ASSERT_TRUE(p2.ok());
    // ...and the 3rd spawn fails softly with EAGAIN, not a crash.
    auto p3 = h.sys->spawn("ok", {"ok"});
    ASSERT_FALSE(p3.ok());
    EXPECT_EQ(p3.error().code, ErrorCode::kAgain);

    h.sys->run();
    EXPECT_EQ(h.sys->exit_code(p1.value()).value(), 7);
    EXPECT_EQ(h.sys->exit_code(p2.value()).value(), 7);
}

/** Console + exit code + instruction count of one Occlum run. */
struct RunResult {
    std::string console;
    int64_t exit_code = 0;
    uint64_t user_instructions = 0;
    uint64_t cycles = 0;
    uint64_t injected_aexes = 0;
};

RunResult
run_occlum_program(const Bytes &binary, uint64_t aex_every,
                   uint64_t seed)
{
    std::unique_ptr<ScopedFaultPlan> scoped;
    if (aex_every != 0) {
        FaultPlan plan;
        plan.seed = seed;
        plan.aex_every = aex_every;
        scoped = std::make_unique<ScopedFaultPlan>(plan);
    }
    libos::OcclumSystem::Config config;
    config.num_slots = 2;
    config.fs_blocks = 1 << 10;
    OcclumHarness h(config);
    h.binaries.put("prog", binary);
    auto pid = h.sys->spawn("prog", {"prog"});
    EXPECT_TRUE(pid.ok());
    h.sys->run();
    RunResult r;
    r.console = h.sys->console();
    r.exit_code = h.sys->exit_code(pid.value()).value();
    r.user_instructions = h.sys->stats().user_instructions;
    r.cycles = h.sys->clock().cycles();
    r.injected_aexes = FaultSim::instance().fires(Site::kAex);
    return r;
}

TEST(FaultSimAex, StormIsTransparentToTheWorkload)
{
    // A compute loop with stores and calls: its output and instruction
    // count must be identical under an AEX storm — if the SSA
    // save/restore dropped a register, a bound register, flags, or
    // the rip, the program would diverge or die.
    Bytes binary = build_signed(R"(
global byte buf[256];
func mix(x) { return x * 31 + 7; }
func main() {
    var acc = 1;
    var i = 0;
    while (i < 30000) {
        acc = mix(acc) + (acc / 3);
        buf[i & 255] = acc & 255;
        i = i + 1;
    }
    print_int(acc & 65535);
    return 0;
}
)");
    RunResult clean = run_occlum_program(binary, 0, 0);
    ASSERT_EQ(clean.exit_code, 0);

    RunResult storm = run_occlum_program(binary, 512, 9);
    EXPECT_EQ(storm.console, clean.console);
    EXPECT_EQ(storm.exit_code, clean.exit_code);
    EXPECT_EQ(storm.user_instructions, clean.user_instructions);
    // The storm really ran and really cost something: each injected
    // AEX pays the exit/resume transitions.
    EXPECT_GT(storm.injected_aexes, 0u);
    EXPECT_GT(storm.cycles, clean.cycles);
}

TEST(FaultSimAex, StormOverPollDrivenServerServesEveryRequest)
{
    // The poll()-driven event loop rides entirely on wait-queue
    // wakeups: an AEX storm perturbs when quanta end and when the
    // server reaches poll(), but every wakeup must still land and
    // every request must still complete with a full response. A lost
    // or misdirected wakeup shows up as a stall (the drive loop
    // panics) or a short byte count.
    constexpr int kRequests = 24;
    constexpr int kConcurrency = 4;
    constexpr size_t kResponseBytes = 10240;

    // Injected-AEX count of the most recent serve() run, read while
    // its ScopedFaultPlan is still installed (restoring the ambient
    // plan clears the fire counters).
    uint64_t last_aexes = 0;
    auto serve = [&](uint64_t aex_every, uint64_t seed) {
        std::unique_ptr<ScopedFaultPlan> scoped;
        if (aex_every != 0) {
            FaultPlan plan;
            plan.seed = seed;
            plan.aex_every = aex_every;
            scoped = std::make_unique<ScopedFaultPlan>(plan);
        }
        sgx::Platform platform;
        host::HostFileStore binaries;
        host::NetSim net(platform.clock());
        libos::OcclumSystem::Config config;
        config.num_slots = 2;
        config.fs_blocks = 1 << 10;
        config.verifier_key = vkey();
        libos::OcclumSystem sys(platform, binaries, config, &net);
        binaries.put("httpd_poll",
                     build_signed(workloads::httpd_poll_source()));
        auto pid = sys.spawn(
            "httpd_poll", {"httpd_poll", std::to_string(kRequests),
                           std::to_string(kConcurrency + 16)});
        EXPECT_TRUE(pid.ok());
        sys.run(/*allow_idle=*/true); // parks in poll()

        struct Client {
            host::NetSim::Connection *conn = nullptr;
            size_t received = 0;
        };
        std::vector<Client> clients(kConcurrency);
        const char *request = "GET / HTTP/1.1\r\n\r\n";
        int issued = 0;
        int completed = 0;
        auto start = [&](Client &client) {
            if (issued >= kRequests) {
                client.conn = nullptr;
                return;
            }
            auto conn = net.connect(8080);
            EXPECT_TRUE(conn.ok());
            client.conn = conn.value();
            client.received = 0;
            net.send(client.conn, false,
                     reinterpret_cast<const uint8_t *>(request),
                     strlen(request));
            ++issued;
        };
        for (auto &client : clients) {
            start(client);
        }
        uint8_t buf[4096];
        size_t total_bytes = 0;
        int guard = 0;
        while (completed < kRequests) {
            if (++guard >= (1 << 20)) {
                ADD_FAILURE() << "server stalled under storm";
                return total_bytes;
            }
            bool progress = sys.step_round();
            for (auto &client : clients) {
                if (!client.conn) {
                    continue;
                }
                uint64_t next_arrival = ~0ull;
                size_t n =
                    net.recv(client.conn, false, buf, sizeof(buf),
                             sys.clock().cycles(), next_arrival);
                if (n > 0) {
                    client.received += n;
                    total_bytes += n;
                    progress = true;
                    if (client.received >= kResponseBytes) {
                        net.close(client.conn, false);
                        ++completed;
                        start(client);
                    }
                }
            }
            if (!progress) {
                uint64_t wake = sys.next_wake_time();
                for (auto &client : clients) {
                    if (!client.conn) {
                        continue;
                    }
                    uint64_t next_arrival = ~0ull;
                    net.recv(client.conn, false, buf, 0,
                             sys.clock().cycles(), next_arrival);
                    wake = std::min(wake, next_arrival);
                }
                if (wake == ~0ull || wake <= sys.clock().cycles()) {
                    ADD_FAILURE() << "no wakeup pending: lost edge";
                    return total_bytes;
                }
                sys.clock().advance(wake - sys.clock().cycles());
            }
        }
        sys.run(); // the server exits after serving kRequests
        auto code = sys.exit_code(pid.value());
        EXPECT_TRUE(code.ok());
        EXPECT_EQ(code.value(), kRequests & 0x7f);
        last_aexes = FaultSim::instance().fires(Site::kAex);
        return total_bytes;
    };

    size_t clean = serve(0, 0);
    EXPECT_EQ(clean, kRequests * kResponseBytes);
    size_t storm = serve(768, 11);
    EXPECT_EQ(storm, clean);
    EXPECT_GT(last_aexes, 0u);
}

// ---------------------------------------------------------------------
// Crash monkey: inject at every op ordinal, remount, check invariants
// ---------------------------------------------------------------------

/** Every content version ever handed to write_file, per path. */
using Shadow = std::map<std::string, std::vector<Bytes>>;

/**
 * The scripted workload: 3 files x 4 rounds of rewrite+sync, each
 * version a distinct length and fill byte. Faults may abort it at any
 * point; the shadow model records every version that *could* be on
 * the device.
 */
void
monkey_workload(libos::EncFs &fs, Shadow &shadow)
{
    for (int round = 0; round < 4; ++round) {
        for (int f = 0; f < 3; ++f) {
            std::string path = "/file" + std::to_string(f);
            Bytes content(1000 + 257 * f + 613 * round,
                          static_cast<uint8_t>(16 * f + round + 1));
            shadow[path].push_back(content);
            if (!fs.write_file(path, content).ok()) {
                return;
            }
            if (!fs.sync().ok()) {
                return;
            }
        }
    }
}

/**
 * After a crash at op k and a clean remount: every readable file must
 * contain exactly one of the versions ever written to it — in full.
 * Unreadable files (detected corruption, lost directory entries) are
 * acceptable outcomes; stitched or invented content is not, and
 * nothing may panic.
 */
void
check_invariants(host::BlockDevice &device, SimClock &clock,
                 const libos::EncFs::Config &config,
                 const Shadow &shadow, const std::string &label)
{
    libos::EncFs fs(device, clock, config);
    Status mounted = fs.mount();
    if (!mounted.ok()) {
        return; // clean mount failure is a legal crash outcome
    }
    for (const auto &[path, versions] : shadow) {
        auto got = fs.read_file(path);
        if (!got.ok()) {
            continue; // detected loss is legal; silent damage is not
        }
        bool known = got.value().empty();
        for (const Bytes &v : versions) {
            known = known || got.value() == v;
        }
        EXPECT_TRUE(known)
            << label << ": " << path << " holds "
            << got.value().size()
            << " bytes matching no version ever written";
    }
}

TEST(CrashMonkey, HardWriteFailureAtEveryOrdinal)
{
    // 96 injection points: the k-th device write (counting from mkfs
    // onwards) fails hard, the FS object is dropped mid-flight (the
    // crash), and the survivor is remounted and audited.
    for (uint64_t k = 1; k <= 96; ++k) {
        SimClock clock;
        host::BlockDevice device(clock, 256);
        libos::EncFs::Config config;
        config.inode_count = 64;
        config.cache_blocks = 64;
        Shadow shadow;
        {
            FaultPlan plan;
            plan.seed = 1000 + k;
            plan.dev_write_fail_at = k;
            ScopedFaultPlan scoped(plan);
            libos::EncFs fs(device, clock, config);
            if (fs.mkfs().ok()) {
                monkey_workload(fs, shadow);
            }
        } // crash: dirty cache and in-memory MAC table vanish
        check_invariants(device, clock, config, shadow,
                         "hard@" + std::to_string(k));
    }
}

TEST(CrashMonkey, TornWriteAtEveryOrdinal)
{
    // 64 injection points: the k-th device write silently persists
    // only its first half.
    for (uint64_t k = 1; k <= 64; ++k) {
        SimClock clock;
        host::BlockDevice device(clock, 256);
        libos::EncFs::Config config;
        config.inode_count = 64;
        config.cache_blocks = 64;
        Shadow shadow;
        {
            FaultPlan plan;
            plan.seed = 2000 + k;
            plan.torn_write_at = k;
            ScopedFaultPlan scoped(plan);
            libos::EncFs fs(device, clock, config);
            if (fs.mkfs().ok()) {
                monkey_workload(fs, shadow);
            }
        }
        check_invariants(device, clock, config, shadow,
                         "torn@" + std::to_string(k));
    }
}

TEST(CrashMonkey, AexStormAtManyPeriods)
{
    // 48 storm periods: the workload's observable behaviour must be
    // byte-identical to the clean run at every one of them.
    Bytes binary = build_signed(R"(
global byte buf[64];
func main() {
    var acc = 7;
    var i = 0;
    while (i < 8000) {
        acc = acc * 13 + 5;
        buf[i & 63] = acc & 255;
        i = i + 1;
    }
    print_int(acc & 65535);
    return 0;
}
)");
    RunResult clean = run_occlum_program(binary, 0, 0);
    ASSERT_EQ(clean.exit_code, 0);
    for (int i = 0; i < 48; ++i) {
        uint64_t period = 61 + 97 * static_cast<uint64_t>(i);
        RunResult storm = run_occlum_program(binary, period, 3000 + i);
        EXPECT_EQ(storm.console, clean.console) << "period " << period;
        EXPECT_EQ(storm.exit_code, clean.exit_code)
            << "period " << period;
        EXPECT_EQ(storm.user_instructions, clean.user_instructions)
            << "period " << period;
    }
}

TEST(CrashMonkey, KernelRestartAfterWriteFaults)
{
    // 16 injection points at the whole-system level: a SIP writes a
    // file through the syscall path while the k-th device write
    // fails; the system is destroyed (restart) and a second system
    // mounts the same device. Both phases must fail softly at worst.
    Bytes binary = build_signed(R"(
global byte path[8] = "/f";
global byte data[16] = "hello-restart";
func main() {
    var fd = open(path, 0x42);     // CREAT|WRONLY
    if (fd < 0) { return 1; }
    if (write(fd, data, 13) != 13) { return 2; }
    if (fsync(fd) != 0) { return 3; }
    close(fd);
    return 0;
}
)");
    Bytes expected(13);
    std::copy_n("hello-restart", 13, expected.begin());

    for (uint64_t k = 1; k <= 16; ++k) {
        sgx::Platform platform;
        host::HostFileStore binaries;
        binaries.put("writer", binary);
        host::BlockDevice device(platform.clock(), 1 << 10);

        libos::OcclumSystem::Config config;
        config.num_slots = 2;
        config.verifier_key = vkey();
        config.external_device = &device;
        {
            FaultPlan plan;
            plan.seed = 4000 + k;
            plan.dev_write_fail_at = 7 * k; // spread into the workload
            ScopedFaultPlan scoped(plan);
            libos::OcclumSystem sys1(platform, binaries, config);
            if (sys1.fs_status().ok()) {
                auto pid = sys1.spawn("writer", {"writer"});
                if (pid.ok()) {
                    sys1.run();
                }
            }
        } // restart: sys1 is gone, the device persists

        config.format_device = false; // mount what the crash left
        libos::OcclumSystem sys2(platform, binaries, config);
        if (!sys2.fs_status().ok()) {
            continue; // clean mount failure is a legal outcome
        }
        auto got = sys2.fs().read_file("/f");
        if (got.ok() && !got.value().empty()) {
            EXPECT_EQ(got.value(), expected) << "restart@" << k;
        }
    }
}

} // namespace
} // namespace occlum
