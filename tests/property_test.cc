/**
 * @file
 * Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
 *  - pipeline property: every MiniC program compiled with *any*
 *    instrumentation level computes the same result on the Linux
 *    model, and the fully-instrumented build verifies and runs to the
 *    same result under Occlum;
 *  - EncFs round-trip property across file sizes and chunk sizes;
 *  - verifier robustness: random byte mutations of a signed image are
 *    never loadable by the Occlum loader (signature), and mutated
 *    *unsigned* images never crash the verifier.
 */
#include <gtest/gtest.h>

#include "base/rng.h"
#include "baseline/linux_system.h"
#include "libos/occlum_system.h"
#include "toolchain/minic.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

namespace occlum {
namespace {

// ---------------------------------------------------------------------
// Equivalence across instrumentation levels and systems
// ---------------------------------------------------------------------

struct ProgramCase {
    const char *name;
    const char *source;
};

// Print the case by name: gtest's default dumps the object's bytes, i.e.
// two pointers, which put an ASLR-dependent address into every test name
// that gtest_discover_tests registers with ctest.
void
PrintTo(const ProgramCase &c, std::ostream *os)
{
    *os << c.name;
}

class InstrumentEquivalence
    : public ::testing::TestWithParam<ProgramCase>
{
};

int64_t
run_linux(const Bytes &image)
{
    SimClock clock;
    host::HostFileStore files;
    files.put("p", image);
    baseline::LinuxSystem sys(clock, files);
    auto pid = sys.spawn("p", {"p"});
    EXPECT_TRUE(pid.ok());
    sys.run();
    auto code = sys.exit_code(pid.value());
    return code.ok() ? code.value() : -999;
}

int64_t
run_occlum(const oelf::SignedBinary &image)
{
    sgx::Platform platform;
    host::HostFileStore files;
    files.put("p", image);
    libos::OcclumSystem::Config config;
    config.verifier_key = workloads::bench_verifier_key();
    libos::OcclumSystem sys(platform, files, config);
    auto pid = sys.spawn("p", {"p"});
    EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
    if (!pid.ok()) return -998;
    sys.run();
    auto code = sys.exit_code(pid.value());
    return code.ok() ? code.value() : -997;
}

TEST_P(InstrumentEquivalence, SameResultEverywhere)
{
    const ProgramCase &c = GetParam();
    toolchain::CompileOptions plain;
    plain.instrument = toolchain::InstrumentOptions::none();
    auto base = toolchain::compile(c.source, plain);
    ASSERT_TRUE(base.ok()) << base.error().message;
    int64_t expect = run_linux(base.value().image.serialize());

    // Every instrumentation level agrees on the Linux model.
    for (auto instrument :
         {toolchain::InstrumentOptions{true, false, false, false},
          toolchain::InstrumentOptions{true, true, false, false},
          toolchain::InstrumentOptions::naive(),
          toolchain::InstrumentOptions{true, true, true, true}}) {
        toolchain::CompileOptions options;
        options.instrument = instrument;
        auto out = toolchain::compile(c.source, options);
        ASSERT_TRUE(out.ok()) << out.error().message;
        EXPECT_EQ(run_linux(out.value().image.serialize()), expect)
            << c.name;
    }

    // The full build verifies and produces the same result as a SIP.
    workloads::ProgramBuild build = workloads::build_program(c.source);
    EXPECT_EQ(run_occlum(build.occlum), expect) << c.name;
}

const ProgramCase kPrograms[] = {
    {"collatz", R"(
func main() {
    var n = 27;
    var steps = 0;
    while (n != 1) {
        if ((n % 2) == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
    }
    return steps;  // 111
}
)"},
    {"sieve", R"(
global byte comp[1000];
func main() {
    var count = 0;
    for (i = 2; i < 1000; i = i + 1) {
        if (comp[i] == 0) {
            count = count + 1;
            var j = i + i;
            while (j < 1000) {
                comp[j] = 1;
                j = j + i;
            }
        }
    }
    return count % 256;  // 168 primes below 1000
}
)"},
    {"strings", R"(
global byte buf[128];
func main() {
    strcpy(buf, "alpha");
    strcat(buf, "-beta");
    if (strcmp(buf, "alpha-beta") != 0) { return 1; }
    if (strlen(buf) != 10) { return 2; }
    if (memcmp(buf, "alpha", 5) != 0) { return 3; }
    return atoi("123") - 23;  // 100
}
)"},
    {"heapsort", R"(
global int a[128];
func main() {
    var seed = 7;
    for (i = 0; i < 128; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        a[i] = seed % 1000;
    }
    // insertion sort
    for (i = 1; i < 128; i = i + 1) {
        var key = a[i];
        var j = i - 1;
        while (j >= 0) {
            if (a[j] <= key) { break; }
            a[j + 1] = a[j];
            j = j - 1;
        }
        a[j + 1] = key;
    }
    for (i = 1; i < 128; i = i + 1) {
        if (a[i - 1] > a[i]) { return 255; }
    }
    return a[64] % 251;
}
)"},
    {"pointers", R"(
func main() {
    var p = malloc(256);
    if (p == 0) { return 1; }
    for (i = 0; i < 32; i = i + 1) { wstore(p + i * 8, i * i); }
    var sum = 0;
    for (i = 0; i < 32; i = i + 1) { sum = sum + wload(p + i * 8); }
    return sum % 256;  // 9920 % 256 = 192
}
)"},
    {"recursion", R"(
func ack(m, n) {
    if (m == 0) { return n + 1; }
    if (n == 0) { return ack(m - 1, 1); }
    return ack(m - 1, ack(m, n - 1));
}
func main() { return ack(2, 3); }  // 9
)"},
};

INSTANTIATE_TEST_SUITE_P(
    Programs, InstrumentEquivalence, ::testing::ValuesIn(kPrograms),
    [](const ::testing::TestParamInfo<ProgramCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// EncFs round trips across (file size, chunk size)
// ---------------------------------------------------------------------

class EncFsRoundTrip
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(EncFsRoundTrip, WriteInChunksReadBack)
{
    auto [file_size, chunk] = GetParam();
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    libos::EncFs::Config config;
    config.key[0] = 9;
    libos::EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());

    Rng rng(file_size * 31 + chunk);
    Bytes data(file_size);
    for (auto &b : data) {
        b = static_cast<uint8_t>(rng.next());
    }
    auto inode = fs.open_inode("/f", true, false);
    ASSERT_TRUE(inode.ok());
    for (size_t off = 0; off < data.size(); off += chunk) {
        size_t n = std::min(chunk, data.size() - off);
        ASSERT_TRUE(
            fs.write(inode.value(), off, data.data() + off, n).ok());
    }
    ASSERT_TRUE(fs.sync().ok());
    auto back = fs.read_file("/f");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EncFsRoundTrip,
    ::testing::Combine(::testing::Values(1, 100, 4096, 5000, 200000),
                       ::testing::Values(7, 512, 4096)));

// ---------------------------------------------------------------------
// EncFs random-operation equivalence with a shadow file
// ---------------------------------------------------------------------

/** (cache_blocks, readahead_blocks) — stresses the eviction path with
 *  a 1-block cache and the prefetch path with readahead on. */
class EncFsRandomOps
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(EncFsRandomOps, MatchesShadowFile)
{
    auto [cache_blocks, readahead] = GetParam();
    constexpr uint64_t kMaxSize = 256 * 1024;
    constexpr uint64_t kMaxIo = 10000; // spans multiple blocks
    constexpr int kOps = 300;

    SimClock clock;
    host::BlockDevice device(clock, 4096);
    libos::EncFs::Config config;
    config.key[0] = 77;
    config.cache_blocks = cache_blocks;
    config.readahead_blocks = readahead;
    libos::EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());
    auto inode = fs.open_inode("/rand", true, false);
    ASSERT_TRUE(inode.ok());

    Bytes shadow; // what the file must logically contain
    Rng rng(cache_blocks * 1000003 + readahead * 131 + 5);
    for (int op = 0; op < kOps; ++op) {
        uint64_t kind = rng.next() % 10;
        uint64_t off = rng.next() % kMaxSize;
        uint64_t len = 1 + rng.next() % kMaxIo;
        if (kind < 4) { // write random bytes (may extend, may hole-fill)
            Bytes data(len);
            for (auto &b : data) {
                b = static_cast<uint8_t>(rng.next());
            }
            auto n = fs.write(inode.value(), off, data.data(), len);
            ASSERT_TRUE(n.ok());
            ASSERT_EQ(n.value(), static_cast<int64_t>(len));
            if (off + len > shadow.size()) {
                shadow.resize(off + len, 0); // implicit hole = zeros
            }
            std::copy(data.begin(), data.end(), shadow.begin() + off);
        } else if (kind < 9) { // read, pread-style short at EOF
            Bytes out(len);
            auto n = fs.read(inode.value(), off, out.data(), len);
            ASSERT_TRUE(n.ok());
            uint64_t expect =
                off >= shadow.size()
                    ? 0
                    : std::min<uint64_t>(len, shadow.size() - off);
            ASSERT_EQ(n.value(), static_cast<int64_t>(expect));
            for (uint64_t i = 0; i < expect; ++i) {
                ASSERT_EQ(out[i], shadow[off + i]) << "op " << op;
            }
        } else { // flush everything to the device
            ASSERT_TRUE(fs.sync().ok());
        }
    }

    auto size = fs.file_size(inode.value());
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(size.value(), shadow.size());
    ASSERT_TRUE(fs.sync().ok());

    // Remount from the device: everything must have hit persistent
    // storage with valid MACs and still equal the shadow.
    libos::EncFs fs2(device, clock, config);
    ASSERT_TRUE(fs2.mount().ok());
    auto back = fs2.read_file("/rand");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), shadow);
}

INSTANTIATE_TEST_SUITE_P(
    CacheShapes, EncFsRandomOps,
    ::testing::Combine(::testing::Values(1, 2, 2048),
                       ::testing::Values(0, 8)));

// ---------------------------------------------------------------------
// Mutation robustness
// ---------------------------------------------------------------------

class MutationRobustness : public ::testing::TestWithParam<int>
{
};

TEST_P(MutationRobustness, MutatedImagesNeverLoadOrCrash)
{
    workloads::ProgramBuild build = workloads::build_program(
        "func main() { return 5; }");
    Rng rng(GetParam());

    // (a) one-byte mutations of the *signed* image: the Occlum loader
    //     must reject every one of them (HMAC signature).
    sgx::Platform platform;
    host::HostFileStore files;
    libos::OcclumSystem::Config config;
    config.verifier_key = workloads::bench_verifier_key();
    libos::OcclumSystem sys(platform, files, config);
    for (int trial = 0; trial < 20; ++trial) {
        Bytes mutated = build.occlum.bytes();
        mutated[rng.next_below(mutated.size())] ^=
            static_cast<uint8_t>(1 + rng.next_below(255));
        files.put("m", mutated);
        auto pid = sys.spawn("m", {"m"});
        EXPECT_FALSE(pid.ok());
    }

    // (b) random mutations fed straight to the verifier: must never
    //     crash, and (since the image content changed) must reject or
    //     accept deterministically twice in a row.
    verifier::Verifier verifier(workloads::bench_verifier_key());
    for (int trial = 0; trial < 10; ++trial) {
        Bytes mutated = build.occlum.bytes();
        for (int i = 0; i < 8; ++i) {
            mutated[rng.next_below(mutated.size())] =
                static_cast<uint8_t>(rng.next());
        }
        auto parsed = oelf::Image::parse(mutated);
        if (!parsed.ok()) {
            continue;
        }
        auto first = verifier.verify(parsed.value());
        auto second = verifier.verify(parsed.value());
        EXPECT_EQ(first.ok, second.ok);
        EXPECT_EQ(first.failed_stage, second.failed_stage);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationRobustness,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Verifier verdicts pinned over seeded mutants
// ---------------------------------------------------------------------

/** Fold every VerifyReport field into `hasher`. */
void
hash_report(crypto::Sha256 &hasher, const verifier::VerifyReport &r)
{
    Bytes fields;
    put_le<uint8_t>(fields, r.ok ? 1 : 0);
    put_le<uint32_t>(fields, static_cast<uint32_t>(r.failed_stage));
    put_le<uint64_t>(fields, r.reason.size());
    fields.insert(fields.end(), r.reason.begin(), r.reason.end());
    put_le<uint64_t>(fields, r.fail_address);
    put_le<uint64_t>(fields, r.reachable_instructions);
    put_le<uint64_t>(fields, r.cfi_labels);
    put_le<uint64_t>(fields, r.checked_accesses);
    put_le<uint64_t>(fields, r.guarded_accesses);
    hasher.update(fields);
}

TEST(VerifierDigest, SeededMutantsOfWorkloadProgramsKeepTheirVerdicts)
{
    // Two workload programs, one padded so planted magics land in
    // padding too. Each mutant overwrites random code bytes, plants a
    // cfi_label magic, or scatters stray 0xCF bytes; the digest over
    // every report field pins Stage 1-4 verdicts, reasons, addresses
    // and diagnostics bit for bit.
    struct Subject {
        std::string source;
        uint64_t pad_to;
    };
    const Subject subjects[] = {
        {workloads::gcc_stage_source("cc1"), 0},
        {workloads::proxy_frontend_source(), 64 << 10},
    };
    verifier::Verifier verifier(workloads::bench_verifier_key());
    crypto::Sha256 hasher;
    int accepted = 0;
    for (const Subject &subject : subjects) {
        toolchain::CompileOptions options;
        options.pad_code_to = subject.pad_to;
        auto out = toolchain::compile(subject.source, options);
        ASSERT_TRUE(out.ok()) << out.error().message;
        const oelf::Image &base = out.value().image;
        hash_report(hasher, verifier.verify(base));
        Rng rng(20261017);
        for (int trial = 0; trial < 96; ++trial) {
            oelf::Image mutant = base;
            Bytes &code = mutant.code;
            switch (rng.next_below(3)) {
              case 0:
                for (int i = 0, n = 1 + rng.next_below(4); i < n; ++i) {
                    code[rng.next_below(code.size())] =
                        static_cast<uint8_t>(rng.next());
                }
                break;
              case 1: {
                size_t at = rng.next_below(code.size() - 3);
                std::copy(std::begin(isa::kCfiMagic),
                          std::end(isa::kCfiMagic), code.begin() + at);
                break;
              }
              default:
                for (int i = 0, n = 1 + rng.next_below(8); i < n; ++i) {
                    code[rng.next_below(code.size())] = isa::kCfiMagic[0];
                }
                break;
            }
            verifier::VerifyReport report = verifier.verify(mutant);
            accepted += report.ok ? 1 : 0;
            hash_report(hasher, report);
        }
    }
    // Pinned with the verifier whose Stage 1 kept an 8-byte owner per
    // code byte and compared 4 bytes at every offset; the 1-byte map
    // and the memchr label scan must leave it unchanged.
    crypto::Sha256Digest digest = hasher.finish();
    EXPECT_EQ(to_hex(digest.data(), digest.size()),
              "2d24e84851ac76483c32704c3139fa78"
              "e96d6f9d8681ab3ebee9b5014b302533")
        << accepted << " of 192 mutants accepted";
}

} // namespace
} // namespace occlum
