/**
 * @file
 * Kernel-core and loader tests: domain layout invariants, PCB
 * contents, syscall edge cases (bad fds, EFAULT pointers, fd
 * inheritance, dup2), pipe semantics (EOF, EPIPE, backpressure, the
 * byte ring against a deque model), and scheduler behaviour under
 * blocking.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "base/rng.h"
#include "baseline/linux_system.h"
#include "faultsim/faultsim.h"
#include "oskit/epoll.h"
#include "oskit/loader.h"
#include "toolchain/minic.h"
#include "trace/metrics.h"

namespace occlum::oskit {
namespace {

oelf::Image
small_image()
{
    auto out = toolchain::compile("func main() { return 0; }");
    EXPECT_TRUE(out.ok());
    return out.value().image;
}

TEST(Loader, DomainLayoutInvariants)
{
    oelf::Image image = small_image();
    vm::AddressSpace space;
    LoadOptions options;
    options.domain_id = 9;
    auto domain =
        load_image(space, image, 0x40000000, {"prog", "a1"}, options);
    ASSERT_TRUE(domain.ok());
    const LoadedDomain &d = domain.value();

    // Geometry: T | C | G1 | D | G2 with unmapped guards.
    EXPECT_EQ(d.c_begin, d.base + oelf::kTrampSize);
    EXPECT_EQ(d.d_begin,
              d.c_begin + image.code_region_size() + oelf::kGuardSize);
    EXPECT_FALSE(space.is_mapped(d.d_begin - oelf::kGuardSize,
                                 oelf::kGuardSize)); // G1
    EXPECT_FALSE(space.is_mapped(d.d_end, oelf::kGuardSize)); // G2
    EXPECT_TRUE(space.is_mapped(d.base,
                                oelf::kTrampSize +
                                    image.code_region_size()));
    EXPECT_TRUE(space.is_mapped(d.d_begin, d.d_end - d.d_begin));
    // Permissions: code RX (no W), data RW (no X).
    EXPECT_EQ(space.perms_at(d.c_begin), vm::kPermRX);
    EXPECT_EQ(space.perms_at(d.d_begin), vm::kPermRW);
    // Heap and stack live inside D.
    EXPECT_GE(d.heap_begin, d.d_begin);
    EXPECT_LE(d.mmap_end, d.d_end);
    EXPECT_LT(d.stack_top, d.d_end);

    // PCB fields.
    auto read64 = [&](uint64_t off) {
        uint64_t v = 0;
        EXPECT_EQ(space.read_raw(d.d_begin + off, &v, 8),
                  vm::AccessFault::kNone);
        return v;
    };
    EXPECT_EQ(read64(abi::kPcbTrampoline), d.base);
    EXPECT_EQ(read64(abi::kPcbDomainId), 9u);
    EXPECT_EQ(read64(abi::kPcbHeapBegin), d.heap_begin);
    EXPECT_EQ(read64(abi::kPcbHeapEnd), d.heap_end);
    EXPECT_EQ(read64(abi::kPcbArgc), 2u);

    // The trampoline starts with this domain's cfi_label.
    uint64_t gate = 0;
    EXPECT_EQ(space.read_raw(d.base, &gate, 8), vm::AccessFault::kNone);
    EXPECT_EQ(gate, isa::cfi_label_value(9));
}

TEST(Loader, CfiLabelsRewrittenToDomainId)
{
    oelf::Image image = small_image();
    vm::AddressSpace space;
    LoadOptions options;
    options.domain_id = 0x1234;
    auto domain = load_image(space, image, 0x40000000, {"p"}, options);
    ASSERT_TRUE(domain.ok());
    // Every cfi_label in loaded code carries the new domain ID.
    Bytes code(image.code.size());
    ASSERT_EQ(space.read_raw(domain.value().c_begin, code.data(),
                             code.size()),
              vm::AccessFault::kNone);
    int found = 0;
    for (size_t i = 0; i + 8 <= code.size(); ++i) {
        if (std::equal(std::begin(isa::kCfiMagic),
                       std::end(isa::kCfiMagic), code.begin() + i)) {
            EXPECT_EQ(get_le<uint32_t>(code.data() + i + 4), 0x1234u);
            ++found;
            i += 7;
        }
    }
    EXPECT_GT(found, 0);
}

/**
 * The per-byte cfi_label rewrite the loader used to run over a copy
 * of the code, kept as the reference its in-slot stamping must match:
 * a match is stamped and the scan resumes 8 bytes on; no label starts
 * in the last 7 bytes.
 */
void
reference_cfi_rewrite(Bytes &code, uint32_t domain_id)
{
    if (code.size() < isa::kCfiLabelSize) {
        return;
    }
    for (size_t i = 0; i + isa::kCfiLabelSize <= code.size(); ++i) {
        if (std::memcmp(code.data() + i, isa::kCfiMagic, 4) == 0) {
            set_le<uint32_t>(code.data() + i + 4, domain_id);
            i += isa::kCfiLabelSize - 1;
        }
    }
}

/** Code blobs built to trip up a label scan. */
std::vector<Bytes>
adversarial_code_blobs()
{
    const Bytes magic(std::begin(isa::kCfiMagic), std::end(isa::kCfiMagic));
    auto put = [](Bytes &blob, size_t at, const Bytes &bytes) {
        std::copy(bytes.begin(), bytes.end(), blob.begin() + at);
    };
    std::vector<Bytes> blobs;

    Bytes blob(3 * vm::kPageSize + 123, 0x90);
    // Overlapping magic: CF CF 1A BE 1D — the label starts one byte in.
    put(blob, 0, {0xCF});
    put(blob, 1, magic);
    // Back-to-back labels, then a label whose ID would read as magic.
    put(blob, 64, magic);
    put(blob, 72, magic);
    put(blob, 80, magic);
    put(blob, 84, magic);
    // A magic inside a label's ID field is consumed, not stamped.
    put(blob, 128, magic);
    put(blob, 132, magic);
    put(blob, 136, magic);
    // Labels straddling the slot's first code page boundary: the ID
    // field, then the magic itself.
    put(blob, vm::kPageSize - 6, magic);
    put(blob, 2 * vm::kPageSize - 2, magic);
    // The last label that fits, then a magic in the last 7 bytes
    // (unstamped) and a lone trailing 0xCF.
    put(blob, blob.size() - 15, magic);
    put(blob, blob.size() - 7, magic);
    blob.back() = 0xCF;
    blobs.push_back(blob);

    // Dense seeded noise over the magic's bytes and zeros.
    Rng rng(0xCF1ABE1D);
    const uint8_t alphabet[] = {0xCF, 0x1A, 0xBE, 0x1D, 0x00};
    Bytes noise(2 * vm::kPageSize + 7);
    for (auto &b : noise) {
        b = alphabet[rng.next_below(sizeof(alphabet))];
    }
    for (size_t at = 5; at + 4 <= noise.size(); at += 37) {
        put(noise, at, magic);
    }
    blobs.push_back(noise);

    // Shorter than a label, and exactly one label long.
    Bytes tiny = magic;
    tiny.push_back(0xCF);
    blobs.push_back(tiny);
    Bytes one = magic;
    one.insert(one.end(), {1, 2, 3, 4});
    blobs.push_back(one);
    return blobs;
}

TEST(Loader, CfiStampingMatchesReferenceScan)
{
    constexpr uint64_t kBase = 0x40000000;
    for (const Bytes &blob : adversarial_code_blobs()) {
        oelf::Image image;
        image.code = blob;
        image.heap_size = 64 << 10;
        image.stack_size = 16 << 10;
        uint64_t code_pages = oelf::kTrampSize + image.code_region_size();
        for (uint32_t id : {0u, 0x1234u, 0xffffffffu}) {
            for (bool map_pages : {true, false}) {
                SCOPED_TRACE(::testing::Message()
                             << "size " << blob.size() << " id " << id
                             << " map_pages " << map_pages);
                vm::AddressSpace space;
                uint64_t d_begin = kBase + image.data_offset();
                if (!map_pages) {
                    // A reused slot, wiped per the contract except for
                    // the code bytes the load overwrites.
                    ASSERT_TRUE(
                        space.map(kBase, code_pages, vm::kPermRX).ok());
                    ASSERT_TRUE(space
                                    .map(d_begin, image.data_region_size(),
                                         vm::kPermRW)
                                    .ok());
                    Bytes stale(blob.size(), 0xCF);
                    ASSERT_EQ(space.write_raw(kBase + oelf::kTrampSize,
                                              stale.data(), stale.size()),
                              vm::AccessFault::kNone);
                }
                LoadOptions options;
                options.domain_id = id;
                options.map_pages = map_pages;
                auto domain = load_image(space, image, kBase, {"p"}, options);
                ASSERT_TRUE(domain.ok());

                Bytes expect = blob;
                reference_cfi_rewrite(expect, id);
                Bytes region(image.code_region_size());
                ASSERT_EQ(space.read_raw(domain.value().c_begin,
                                         region.data(), region.size()),
                          vm::AccessFault::kNone);
                EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                       region.begin()));
                EXPECT_TRUE(std::all_of(region.begin() + blob.size(),
                                        region.end(),
                                        [](uint8_t b) { return b == 0; }));
            }
        }
    }
}

TEST(Loader, RejectsOversizedArgv)
{
    oelf::Image image = small_image();
    vm::AddressSpace space;
    std::vector<std::string> argv = {"p", std::string(2000, 'x')};
    EXPECT_FALSE(
        load_image(space, image, 0x40000000, argv, {}).ok());
}

// ---- syscall edge cases through the Linux personality -----------------

struct KernelHarness {
    SimClock clock;
    host::HostFileStore files;
    baseline::LinuxSystem sys{clock, files};

    int64_t
    run(const std::string &source,
        const std::vector<std::string> &argv = {"prog"})
    {
        auto out = toolchain::compile(source);
        EXPECT_TRUE(out.ok())
            << (out.ok() ? "" : out.error().message);
        files.put("prog", out.value().image.serialize());
        auto pid = sys.spawn("prog", argv);
        EXPECT_TRUE(pid.ok());
        sys.run();
        auto code = sys.exit_code(pid.value());
        return code.ok() ? code.value() : -999;
    }
};

TEST(Syscalls, BadFdsReturnEbadf)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte b[8];
func main() {
    var e = 0;
    if (read(99, b, 8) != -9) { e = 1; }      // EBADF = 9
    if (write(42, b, 8) != -9) { e = e + 2; }
    if (close(7) != -9) { e = e + 4; }
    if (syscall(10, 88, 0, 0) != -9) { e = e + 8; } // lseek
    return e;
}
)"),
              0);
}

TEST(Syscalls, BadPointersReturnEfault)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    // Address far outside the process image.
    if (write(1, 0x7777777000, 8) != -14) { return 1; } // EFAULT
    var fds[2];
    if (syscall(8, 0x7777777000) != -14) { return 2; }  // pipe
    return 0;
}
)"),
              0);
}

TEST(Syscalls, PipeEofAndEpipe)
{
    KernelHarness h;
    // Writing to a pipe whose read end is gone kills the writer (the
    // SIGPIPE default action) — the write never returns -EPIPE into a
    // program that could spin on it forever against run(allow_idle).
    EXPECT_EQ(h.run(R"(
global byte b[16];
func main() {
    var fds[2];
    pipe(fds);
    write(fds[1], "xy", 2);
    close(fds[1]);                 // no more writers
    if (read(fds[0], b, 16) != 2) { return 1; }
    if (read(fds[0], b, 16) != 0) { return 2; }   // EOF
    var fds2[2];
    pipe(fds2);
    close(fds2[0]);                // no readers
    write(fds2[1], "z", 1);        // killed here
    return 3;                      // unreachable
}
)"),
              -32);
}

TEST(Regression, EpipeKillLeavesPipeShapedDeathRecord)
{
    // Reader closed *before* the write: the EPIPE kill must be
    // recorded as DeathCause::kPipe (not kFault) with -EPIPE as the
    // code, so wait()ers and post-mortems can tell SIGPIPE from a
    // crash.
    KernelHarness h;
    auto out = toolchain::compile(R"(
func main() {
    var fds[2];
    pipe(fds);
    close(fds[0]);
    write(fds[1], "z", 1);
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    auto record = h.sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kPipe);
    EXPECT_EQ(record.value().code,
              -static_cast<int64_t>(ErrorCode::kPipe));
    EXPECT_EQ(record.value().fault, vm::FaultKind::kNone);
}

TEST(Regression, EpipeKillsBlockedWriterWhenReaderCloses)
{
    // The other close order: the writer blocks on a full pipe first,
    // *then* the last reader goes away. The blocked write's retry
    // must turn into the EPIPE kill — before the fix the writer
    // stayed blocked forever and run() only ended via allow_idle.
    KernelHarness h;
    auto child = toolchain::compile(R"(
func main() {
    // Spin long past the parent's fill loop (the sim is
    // deterministic: the parent is blocked well before this ends),
    // then drop the only read end.
    var i = 0;
    while (i < 200000) { i = i + 1; }
    close(0);
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("closer", child.value().image.serialize());
    auto out = toolchain::compile(R"(
global byte child[12] = "closer";
global byte buf[4096];
func main() {
    var fds[2];
    pipe(fds);
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = fds[0];   // child inherits the read end as stdin
    io3[1] = 1;
    io3[2] = 2;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 1; }
    close(fds[0]);     // the child holds the only read end now
    var i = 0;
    while (i < 16) {   // 16 * 4096 = the pipe's 64 KiB capacity
        if (write(fds[1], buf, 4096) != 4096) { return 2; }
        i = i + 1;
    }
    write(fds[1], buf, 1);  // blocks full; killed when the child closes
    return 3;               // unreachable
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    ASSERT_TRUE(h.sys.all_exited());
    auto record = h.sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kPipe);
    EXPECT_EQ(record.value().code,
              -static_cast<int64_t>(ErrorCode::kPipe));
}

// ---- copy_from_user / copy_to_user hardening --------------------------

/**
 * A bare kernel with a permissive validate_user_range, standing in
 * for a personality (like Occlum's) whose override only checks region
 * *bounds* — so the copy helpers' own all-or-nothing mapping probe is
 * what is under test.
 */
struct RawKernel : Kernel {
    RawKernel(SimClock &clock, host::HostFileStore &files)
        : Kernel(clock, files)
    {}
    Result<std::unique_ptr<Process>>
    create_process(const std::string &,
                   const std::vector<std::string> &) override
    {
        return Error(ErrorCode::kNoSys, "raw kernel");
    }
    void destroy_process(Process &) override {}
    uint64_t syscall_cost() const override { return 0; }
    Result<FilePtr> fs_open(Process &, const std::string &,
                            uint64_t) override
    {
        return Error(ErrorCode::kNoSys, "raw kernel");
    }
    Status fs_unlink(const std::string &) override
    {
        return Status(ErrorCode::kNoSys, "raw kernel");
    }
    Status fs_mkdir(const std::string &) override
    {
        return Status(ErrorCode::kNoSys, "raw kernel");
    }
    Status validate_user_range(Process &, uint64_t, uint64_t) override
    {
        return Status(); // bounds-only personality: accept everything
    }
    /** Expose the protected dispatcher for direct syscall tests. */
    std::optional<int64_t>
    sys(Process &proc, abi::Sys num,
        const uint64_t args[abi::kSyscallArgs])
    {
        return dispatch(proc, static_cast<uint64_t>(num), args);
    }
};

struct HoleyHarness {
    SimClock clock;
    host::HostFileStore files;
    RawKernel kernel{clock, files};
    vm::AddressSpace space;
    Process proc;

    HoleyHarness()
    {
        // Two mapped pages around an unmapped hole:
        //   [0x1000,0x2000) mapped | [0x2000,0x3000) hole |
        //   [0x3000,0x4000) mapped
        EXPECT_TRUE(space.map(0x1000, 0x1000, vm::kPermRW).ok());
        EXPECT_TRUE(space.map(0x3000, 0x1000, vm::kPermRW).ok());
        proc.space = &space;
    }
};

TEST(Regression, PartialCopyAcrossUnmappedHole)
{
    HoleyHarness h;
    // Seed the first page with a sentinel pattern.
    Bytes sentinel(0x800, 0xcd);
    ASSERT_EQ(h.space.write_raw(0x1800, sentinel.data(),
                                sentinel.size()),
              vm::AccessFault::kNone);

    // copy_to_user spanning the hole must fail...
    Bytes payload(0x1000, 0x11);
    EXPECT_FALSE(h.kernel
                     .copy_to_user(h.proc, 0x1800, payload.data(),
                                   payload.size())
                     .ok());
    // ...and must not have scribbled the mapped prefix: before the
    // fix, write_raw modified [0x1800,0x2000) and then faulted,
    // leaving user memory half-updated behind an EFAULT.
    Bytes check(sentinel.size());
    ASSERT_EQ(h.space.read_raw(0x1800, check.data(), check.size()),
              vm::AccessFault::kNone);
    EXPECT_EQ(check, sentinel);

    // copy_from_user across the same hole also fails up front.
    Bytes out(0x1000, 0x00);
    EXPECT_FALSE(h.kernel
                     .copy_from_user(h.proc, 0x1800, out.data(),
                                     out.size())
                     .ok());

    // Fully-mapped ranges on both sides still work.
    EXPECT_TRUE(h.kernel
                    .copy_to_user(h.proc, 0x1000, payload.data(), 0x800)
                    .ok());
    EXPECT_TRUE(h.kernel
                    .copy_from_user(h.proc, 0x3000, out.data(), 0x800)
                    .ok());
}

TEST(Regression, CstringMaxLenClamped)
{
    SimClock clock;
    host::HostFileStore files;
    RawKernel kernel(clock, files);
    vm::AddressSpace space;
    Process proc;
    proc.space = &space;
    // 32 pages of 'a' with no terminator anywhere.
    ASSERT_TRUE(space.map(0x10000, 32 * vm::kPageSize,
                          vm::kPermRW).ok());
    Bytes fill(32 * vm::kPageSize, 'a');
    ASSERT_EQ(space.write_raw(0x10000, fill.data(), fill.size()),
              vm::AccessFault::kNone);

    // A hostile max_len is clamped to the 64 KiB ceiling instead of
    // walking (and allocating) until the first unmapped byte.
    auto res = kernel.read_user_cstring(proc, 0x10000, ~0ull);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, ErrorCode::kNameTooLong);

    // A terminated string whose NUL is the last byte of the mapped
    // range (the page-chunked reader must not probe past it).
    uint64_t tail = 0x10000 + 32 * vm::kPageSize - 4;
    ASSERT_EQ(space.write_raw(tail, "hey", 4), vm::AccessFault::kNone);
    auto hey = kernel.read_user_cstring(proc, tail, 4096);
    ASSERT_TRUE(hey.ok());
    EXPECT_EQ(hey.value(), "hey");

    // An unterminated string running into unmapped memory faults.
    uint64_t edge = 0x10000 + 32 * vm::kPageSize - 8;
    ASSERT_EQ(space.write_raw(edge, "aaaaaaaa", 8),
              vm::AccessFault::kNone);
    auto bad = kernel.read_user_cstring(proc, edge, 4096);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::kFault);
}

// ---- the pipe byte ring ------------------------------------------------

/** Both ends of one pipe, driven directly against a bare kernel. */
struct PipeRig {
    SimClock clock;
    host::HostFileStore files;
    RawKernel kernel{clock, files};
    std::shared_ptr<Pipe> pipe = std::make_shared<Pipe>();
    PipeEnd rd{pipe, true};
    PipeEnd wr{pipe, false};

    PipeRig()
    {
        rd.on_fd_acquire();
        wr.on_fd_acquire();
    }

    IoResult
    write(const Bytes &bytes)
    {
        return wr.write(kernel, bytes.data(), bytes.size());
    }

    IoResult
    read(Bytes &out, size_t len)
    {
        out.assign(len, 0);
        IoResult r = rd.read(kernel, out.data(), len);
        out.resize(r.value > 0 ? static_cast<size_t>(r.value) : 0);
        return r;
    }
};

/** `len` bytes counting up from `first`, so every offset is visible. */
Bytes
pattern(size_t len, uint8_t first)
{
    Bytes out(len);
    for (size_t i = 0; i < len; ++i) {
        out[i] = static_cast<uint8_t>(first + i);
    }
    return out;
}

constexpr uint64_t kPollIn = static_cast<uint64_t>(abi::kPollIn);
constexpr uint64_t kPollOut = static_cast<uint64_t>(abi::kPollOut);
constexpr uint64_t kPollHup = static_cast<uint64_t>(abi::kPollHup);
constexpr uint64_t kPollErr = static_cast<uint64_t>(abi::kPollErr);

TEST(PipeRing, FillsToCapacityThenBlocks)
{
    PipeRig rig;
    ASSERT_EQ(rig.write(Bytes(65000, 1)).value, 65000);
    // A partial write takes exactly the room left.
    IoResult partial = rig.write(Bytes(1000, 2));
    EXPECT_FALSE(partial.would_block);
    EXPECT_EQ(partial.value, 536);
    EXPECT_EQ(rig.pipe->size(), Pipe::kCapacity);
    EXPECT_FALSE(rig.pipe->can_write());
    // Full: the next write blocks and moves nothing.
    uint64_t before = rig.clock.cycles();
    IoResult full = rig.write(Bytes(1, 3));
    EXPECT_TRUE(full.would_block);
    EXPECT_EQ(rig.clock.cycles(), before); // a blocked write is free
    EXPECT_EQ(rig.pipe->size(), Pipe::kCapacity);
    // Reading frees exactly that much room.
    Bytes got;
    ASSERT_EQ(rig.read(got, 10).value, 10);
    EXPECT_EQ(got, Bytes(10, 1));
    EXPECT_EQ(rig.write(Bytes(20, 4)).value, 10);
    EXPECT_TRUE(rig.write(Bytes(1, 5)).would_block);
}

TEST(PipeRing, ReadsAndWritesStraddleTheWrap)
{
    PipeRig rig;
    Bytes got;
    // Park the ring's head 536 bytes before its end.
    ASSERT_EQ(rig.write(Bytes(65000, 9)).value, 65000);
    ASSERT_EQ(rig.read(got, 65000).value, 65000);
    ASSERT_TRUE(rig.pipe->empty());
    // This write wraps: 536 bytes at the end, 9464 at the start.
    Bytes sent = pattern(10000, 17);
    ASSERT_EQ(rig.write(sent).value, 10000);
    EXPECT_EQ(rig.pipe->size(), 10000u);
    // So does this read; the bytes come back in order.
    ASSERT_EQ(rig.read(got, 7000).value, 7000);
    EXPECT_EQ(got, Bytes(sent.begin(), sent.begin() + 7000));
    // Fill the wrapped ring to the brim, then drain it in one read.
    Bytes more = pattern(Pipe::kCapacity, 101);
    ASSERT_EQ(rig.write(more).value,
              static_cast<int64_t>(Pipe::kCapacity - 3000));
    ASSERT_EQ(rig.read(got, Pipe::kCapacity).value,
              static_cast<int64_t>(Pipe::kCapacity));
    Bytes want(sent.begin() + 7000, sent.end());
    want.insert(want.end(), more.begin(),
                more.begin() + (Pipe::kCapacity - 3000));
    EXPECT_EQ(got, want);
    EXPECT_TRUE(rig.pipe->empty());
}

TEST(PipeRing, BufferedBytesOutliveTheLastWriter)
{
    PipeRig rig;
    Bytes got;
    // Buffered bytes straddle the wrap when the writer goes away.
    ASSERT_EQ(rig.write(Bytes(Pipe::kCapacity - 4, 0)).value,
              static_cast<int64_t>(Pipe::kCapacity - 4));
    ASSERT_EQ(rig.read(got, Pipe::kCapacity - 4).value,
              static_cast<int64_t>(Pipe::kCapacity - 4));
    Bytes sent = pattern(10, 40);
    ASSERT_EQ(rig.write(sent).value, 10);
    rig.wr.on_fd_release(rig.kernel);
    // The bytes come first, then a clean EOF (0, not a block).
    ASSERT_EQ(rig.read(got, 6).value, 6);
    EXPECT_EQ(got, Bytes(sent.begin(), sent.begin() + 6));
    ASSERT_EQ(rig.read(got, 100).value, 4);
    EXPECT_EQ(got, Bytes(sent.begin() + 6, sent.end()));
    IoResult eof = rig.read(got, 100);
    EXPECT_FALSE(eof.would_block);
    EXPECT_EQ(eof.value, 0);
}

TEST(PipeRing, PollBitsWhenEmptyFullAndWrapped)
{
    PipeRig rig;
    Bytes got;
    // Empty.
    EXPECT_EQ(rig.rd.poll_ready(rig.kernel), 0u);
    EXPECT_EQ(rig.wr.poll_ready(rig.kernel), kPollOut);
    // Full.
    ASSERT_EQ(rig.write(Bytes(Pipe::kCapacity, 1)).value,
              static_cast<int64_t>(Pipe::kCapacity));
    EXPECT_EQ(rig.rd.poll_ready(rig.kernel), kPollIn);
    EXPECT_EQ(rig.wr.poll_ready(rig.kernel), 0u);
    // Wrapped: the head past the middle, the tail before it.
    ASSERT_EQ(rig.read(got, 40000).value, 40000);
    ASSERT_EQ(rig.write(Bytes(30000, 2)).value, 30000);
    EXPECT_EQ(rig.rd.poll_ready(rig.kernel), kPollIn);
    EXPECT_EQ(rig.wr.poll_ready(rig.kernel), kPollOut);
    // Wrapped and full.
    ASSERT_EQ(rig.write(Bytes(20000, 3)).value, 10000);
    EXPECT_EQ(rig.rd.poll_ready(rig.kernel), kPollIn);
    EXPECT_EQ(rig.wr.poll_ready(rig.kernel), 0u);
    // Writer gone with bytes buffered, then drained.
    rig.wr.on_fd_release(rig.kernel);
    EXPECT_EQ(rig.rd.poll_ready(rig.kernel), kPollIn | kPollHup);
    ASSERT_EQ(rig.read(got, Pipe::kCapacity).value,
              static_cast<int64_t>(Pipe::kCapacity));
    EXPECT_EQ(rig.rd.poll_ready(rig.kernel), kPollHup);
    // Reader gone: the write end reports an error.
    rig.rd.on_fd_release(rig.kernel);
    EXPECT_EQ(rig.wr.poll_ready(rig.kernel), kPollErr);
}

TEST(PipeRing, MatchesDequeModelOverRandomSizes)
{
    // A seeded differential against the obvious std::deque pipe:
    // every return value, every byte, every poll bit and every charge
    // must agree over reads and writes of 0..70000 bytes.
    PipeRig rig;
    std::deque<uint8_t> model;
    Rng rng(20261017);
    uint64_t accepted = 0; // stream position of the next byte written
    Bytes got;
    for (int step = 0; step < 3000; ++step) {
        SCOPED_TRACE(step);
        size_t len = rng.next_below(70001);
        bool is_write = rng.next_below(2) == 0;
        uint64_t before = rig.clock.cycles();
        IoResult r;
        size_t n = 0;
        if (is_write) {
            Bytes sent(len);
            for (size_t i = 0; i < len; ++i) {
                sent[i] = static_cast<uint8_t>((accepted + i) * 7 + 3);
            }
            size_t room = Pipe::kCapacity - model.size();
            r = rig.write(sent);
            ASSERT_EQ(r.would_block, room == 0);
            n = std::min(len, room);
            model.insert(model.end(), sent.begin(),
                         sent.begin() + static_cast<std::ptrdiff_t>(n));
            accepted += n;
        } else {
            r = rig.read(got, len);
            ASSERT_EQ(r.would_block, model.empty());
            n = std::min(len, model.size());
            ASSERT_EQ(got.size(), n);
            ASSERT_TRUE(std::equal(got.begin(), got.end(), model.begin()));
            model.erase(model.begin(),
                        model.begin() + static_cast<std::ptrdiff_t>(n));
        }
        if (!r.would_block) {
            ASSERT_EQ(r.value, static_cast<int64_t>(n));
            EXPECT_EQ(rig.clock.cycles() - before,
                      rig.kernel.pipe_op_cost() +
                          static_cast<uint64_t>(
                              n * rig.kernel.pipe_byte_cost()));
        } else {
            EXPECT_EQ(rig.clock.cycles(), before);
        }
        ASSERT_EQ(rig.pipe->size(), model.size());
        ASSERT_EQ(rig.rd.poll_ready(rig.kernel),
                  model.empty() ? 0u : kPollIn);
        ASSERT_EQ(rig.wr.poll_ready(rig.kernel),
                  model.size() < Pipe::kCapacity ? kPollOut : 0u);
    }
    // Hang up and drain: the model's bytes, then EOF.
    rig.wr.on_fd_release(rig.kernel);
    Bytes rest(model.begin(), model.end());
    if (!rest.empty()) {
        ASSERT_EQ(rig.read(got, Pipe::kCapacity).value,
                  static_cast<int64_t>(rest.size()));
        EXPECT_EQ(got, rest);
    }
    EXPECT_EQ(rig.read(got, 1).value, 0);
}

TEST(Syscalls, Dup2RedirectsAndSharesOffset)
{
    KernelHarness h;
    h.files.put("/f.txt", Bytes{});
    EXPECT_EQ(h.run(R"(
global byte p[12] = "/f.txt";
global byte b[32];
func main() {
    var fd = open(p, 0x42);   // CREAT|WRONLY
    dup2(fd, 1);              // stdout -> file
    print("to-file");
    close(fd);
    close(1);
    fd = open(p, 0);
    var n = read(fd, b, 32);
    return n;
}
)"),
              7);
}

TEST(Syscalls, WaitpidUnknownChildReturnsEchild)
{
    KernelHarness h;
    EXPECT_EQ(h.run("func main() { return waitpid(777); }"),
              -static_cast<int64_t>(ErrorCode::kChild));
}

TEST(Syscalls, GetPidAndTimeAdvance)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    if (getpid() < 1) { return 1; }
    var t0 = time_ns();
    var i = 0;
    while (i < 10000) { i = i + 1; }
    var t1 = time_ns();
    if (t1 <= t0) { return 2; }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, KillTerminatesTarget)
{
    KernelHarness h;
    auto out = toolchain::compile(R"(
func main() {
    while (1) { yield(); }
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("spinner", out.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte s[12] = "spinner";
func main() {
    var argvv[1];
    argvv[0] = s;
    var pid = spawn(s, argvv, 1);
    kill(pid, 15);
    var status = waitpid(pid);
    return status == -15;
}
)"),
              1);
}

TEST(Syscalls, MmapExhaustionReturnsEnomem)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    var total = 0;
    while (1) {
        var p = mmap(65536);
        if (p < 0) { return p == -12; }  // ENOMEM
        total = total + 1;
        if (total > 1000) { return 0; }  // should exhaust first
    }
    return 0;
}
)"),
              1);
}

TEST(Syscalls, FaultingProcessIsReapedWithFaultCause)
{
    KernelHarness h;
    auto out = toolchain::compile(
        "func main() { wstore(0x12345, 1); return 0; }");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    auto record = h.sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kFault);
    EXPECT_EQ(record.value().fault_addr, 0x12345u);
}

TEST(Syscalls, ClosedFdsAreReusedLowestFirst)
{
    KernelHarness h;
    h.files.put("/f.txt", Bytes{});
    EXPECT_EQ(h.run(R"(
global byte p[12] = "/f.txt";
func main() {
    var first = open(p, 0);
    if (first < 0) { return 1; }
    close(first);
    var i = 0;
    while (i < 10000) {
        var fd = open(p, 0);
        if (fd != first) { return 2; }  // must reuse the lowest free fd
        if (close(fd) != 0) { return 3; }
        i = i + 1;
    }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, PipeFillsLowestFreeDescriptors)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    close(0);                       // free stdin; 1 and 2 stay busy
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    if (fds[0] != 0) { return 2; }  // lowest hole first...
    if (fds[1] != 3) { return 3; }  // ...then the next one up
    return 0;
}
)"),
              0);
}

TEST(Syscalls, SixthSyscallArgumentArrivesIntact)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    // mmap(addr, len, prot, flags, fd, off): off rides in the sixth
    // argument register. A misaligned offset must reach the kernel
    // and be rejected; if arg 6 were dropped it would read as 0.
    if (syscall(12, 0, 4096, 3, 34, 0 - 1, 4097) != -22) { return 1; }
    // Aligned-but-nonzero offsets on anonymous maps are unsupported.
    if (syscall(12, 0, 4096, 3, 34, 0 - 1, 4096) != -38) { return 2; }
    // File-backed requests are routed on the fd in arg 5.
    if (syscall(12, 0, 4096, 3, 34, 7, 0) != -38) { return 3; }
    // The same call with fd = -1, off = 0 succeeds and is usable.
    var p = syscall(12, 0, 4096, 3, 34, 0 - 1, 0);
    if (p < 0) { return 4; }
    wstore(p, 4242);
    if (wload(p) != 4242) { return 5; }
    // Executable requests violate W^X.
    if (syscall(12, 0, 4096, 7, 34, 0 - 1, 0) != -1) { return 6; }
    return 0;
}
)"),
              0);
}

// ---- idle and wake-up accounting --------------------------------------

TEST(Kernel, AllowIdleReturnsWhenEveryProcessSleepsForever)
{
    KernelHarness h;
    auto out = toolchain::compile(R"(
func main() {
    var fds[2];
    pipe(fds);
    var b[8];
    read(fds[0], b, 1);   // we hold the write end: blocks forever
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    // Every process is asleep with no wake-up time: run(allow_idle)
    // must return instead of spinning or panicking on deadlock.
    h.sys.run(/*allow_idle=*/true);
    EXPECT_FALSE(h.sys.all_exited());
    const Process *proc = h.sys.find_process(pid.value());
    ASSERT_NE(proc, nullptr);
    EXPECT_EQ(proc->state, ProcState::kBlocked);
    EXPECT_EQ(h.sys.next_wake_time(), ~0ull);
}

TEST(Kernel, NextWakeTimeIsInfiniteWithZeroRunnableProcesses)
{
    KernelHarness h;
    // No processes at all.
    EXPECT_EQ(h.sys.next_wake_time(), ~0ull);
    h.sys.run(/*allow_idle=*/true); // returns immediately, no panic
    EXPECT_TRUE(h.sys.all_exited());
    // After every process has exited there is nothing to wake either.
    EXPECT_EQ(h.run("func main() { return 0; }"), 0);
    EXPECT_TRUE(h.sys.all_exited());
    EXPECT_EQ(h.sys.next_wake_time(), ~0ull);
}

TEST(Kernel, RunAdvancesClockPastFiniteSleeps)
{
    // One process that must wait on simulated network latency twice:
    // once for its own connection to arrive at the listener, once for
    // the payload. With nothing else runnable the kernel has to jump
    // the clock to next_wake_time() for the program to finish at all.
    SimClock clock;
    host::HostFileStore files;
    host::NetSim net(clock);
    baseline::LinuxSystem sys(clock, files, &net);
    auto out = toolchain::compile(R"(
global byte msg[8] = "hello";
global byte buf[16];
func main() {
    var l = sock_listen(9, 4);
    if (l < 0) { return 1; }
    var c = sock_connect(9);
    if (c < 0) { return 2; }
    var s = sock_accept(l);         // sleeps until the SYN arrives
    if (s < 0) { return 3; }
    if (sock_send(c, msg, 5) != 5) { return 4; }
    var n = sock_recv(s, buf, 16);  // sleeps until the payload lands
    if (n != 5) { return 5; }
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    uint64_t before = clock.cycles();
    sys.run();
    auto code = sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    EXPECT_GT(clock.cycles(), before);
}

// ---- fd-lifecycle / EFAULT regression sweep ---------------------------

TEST(Regression, FailedPipeCopyRollsBackBothFds)
{
    // pipe() installed both descriptors before copying the fd pair
    // out; when the copy faulted the table kept two orphaned ends.
    // After a failed pipe() the next pipe() must land on the same
    // lowest slots — a leak shows up as higher numbers.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }          // learns slots 3,4
    close(fds[0]);
    close(fds[1]);
    if (syscall(8, 0x7777777000) != -14) { return 2; } // EFAULT
    var fds2[2];
    if (pipe(fds2) != 0) { return 3; }
    if (fds2[0] != fds[0]) { return 4; }       // leaked descriptor
    if (fds2[1] != fds[1]) { return 5; }
    return 0;
}
)"),
              0);
}

TEST(Regression, Dup2SelfDupIsNoOpWithBlockedPeer)
{
    // dup2(fd, fd) used to release-then-reacquire the file object.
    // The release edge is observable now that close notifies wait
    // queues: with a child blocked reading the pipe, the transient
    // "last writer gone" would wake it for nothing (or worse, close
    // a socket's connection half). POSIX says dup2(fd, fd) does
    // nothing and returns fd.
    KernelHarness h;
    auto child = toolchain::compile(R"(
global byte buf[8];
func main() {
    if (read(0, buf, 8) != 2) { return 9; }    // blocks, then "hi"
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("blocked_reader", child.value().image.serialize());
    auto &wasted =
        trace::Registry::instance().counter("kernel.wasted_retries");
    uint64_t wasted0 = wasted.value();
    EXPECT_EQ(h.run(R"(
global byte child[16] = "blocked_reader";
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = fds[0];
    io3[1] = 1;
    io3[2] = 2;
    var pid = spawn_io(child, argvv, 1, io3);
    if (pid < 0) { return 2; }
    close(fds[0]);     // the child holds the only read end
    // Spin until the child is parked in read().
    var i = 0;
    while (i < 200000) { i = i + 1; }
    if (dup2(fds[1], fds[1]) != fds[1]) { return 3; }
    if (write(fds[1], "hi", 2) != 2) { return 4; }
    return waitpid(pid);
}
)"),
              0);
    // The self-dup must not have woken the blocked reader for nothing.
    EXPECT_EQ(wasted.value(), wasted0);
}

TEST(Regression, EfaultReadLeavesStreamIntact)
{
    // The kernel read data into its bounce buffer *before* checking
    // that the destination was writable; a faulting read() therefore
    // consumed the bytes. Destructive reads must probe first: after
    // -EFAULT the stream still holds the data. Reads now copy straight
    // from the pipe ring or network stream into the user's pages, so
    // the probe is the resolve of the whole destination: one that
    // starts mapped and ends on an unmapped page (above the stack, at
    // the end of the data region) must leave bytes that wrap round the
    // pipe ring, and a socket's arrived bytes, exactly where they were.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte b[8];
global byte big[65536];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    if (write(fds[1], "ab", 2) != 2) { return 2; }
    if (read(fds[0], 0x7777777000, 2) != -14) { return 3; } // EFAULT
    if (read(fds[0], b, 8) != 2) { return 4; }  // data survived
    if (bload(b) != 'a') { return 5; }
    if (bload(b + 1) != 'b') { return 6; }
    // Park the ring's head 4 bytes before its end, then queue 10
    // bytes that wrap round it.
    if (write(fds[1], big, 65530) != 65530) { return 7; }
    if (read(fds[0], big, 65530) != 65530) { return 8; }
    if (write(fds[1], "0123456789", 10) != 10) { return 9; }
    var probe[2];
    var edge = (probe + 4095) & (0 - 4096); // the unmapped page above
    if (read(fds[0], edge - 4, 10) != -14) { return 10; }
    if (read(fds[0], edge - 8, 8) != 8) { return 11; } // in bounds
    if (bload(edge - 8) != '0') { return 12; }
    if (bload(edge - 1) != '7') { return 13; }
    if (read(fds[0], b, 8) != 2) { return 14; }
    if (bload(b) != '8') { return 15; }
    if (bload(b + 1) != '9') { return 16; }
    return 0;
}
)"),
              0);

    SimClock clock;
    host::HostFileStore files;
    host::NetSim net(clock);
    baseline::LinuxSystem sys(clock, files, &net);
    auto out = toolchain::compile(R"(
global byte b[8];
global int evs[2];
func main() {
    var l = sock_listen(9, 4);
    var c = sock_connect(9);
    var s = sock_accept(l);
    if (s < 0) { return 1; }
    if (sock_send(c, "hello", 5) != 5) { return 2; }
    var ep = epoll_create();
    if (epoll_ctl(ep, 1, s, 0x1) != 0) { return 3; }
    if (epoll_wait(ep, evs, 1, 0 - 1) != 1) { return 4; } // arrived
    var probe[2];
    var edge = (probe + 4095) & (0 - 4096);
    if (sock_recv(s, edge - 2, 5) != -14) { return 5; }
    var got = 0;
    while (got < 5) { // short reads under a fault plan
        var n = sock_recv(s, b + got, 8 - got);
        if (n <= 0) { return 6; }
        got = got + n;
    }
    if (bload(b) != 'h') { return 7; }
    if (bload(b + 4) != 'o') { return 8; }
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 0);
}

TEST(Syscalls, DirectCopiesSpanPagesAndTheRingWrap)
{
    // write() copies straight from the user's pages into the pipe
    // ring and read() straight back out. A 3-page source (12000 bytes
    // from an unaligned start) pushed into a ring whose tail sits 5536
    // bytes before its end splits at the wrap and at every page
    // boundary, in a different place on each side; the bytes must come
    // back intact. The destination is a never-touched global: its lazy
    // pages are materialized as the bytes land.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte src[12288];
global byte filler[60000];
global byte dst[12288];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var i = 0;
    while (i < 12288) { bstore(src + i, (i * 7 + 3) & 0xff); i = i + 1; }
    if (write(fds[1], filler, 60000) != 60000) { return 2; }
    if (read(fds[0], filler, 60000) != 60000) { return 3; }
    if (write(fds[1], src + 100, 12000) != 12000) { return 4; }
    var got = 0;
    while (got < 12000) {
        var n = read(fds[0], dst + 37 + got, 12000 - got);
        if (n <= 0) { return 5; }
        got = got + n;
    }
    i = 0;
    while (i < 12000) {
        if (bload(dst + 37 + i) != bload(src + 100 + i)) { return 6; }
        i = i + 1;
    }
    if (bload(dst + 36) != 0) { return 7; }
    if (bload(dst + 12037) != 0) { return 8; }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, WaitpidSelfReturnsEchild)
{
    // waitpid(getpid()) parked the caller on its own death: an
    // unwakeable deadlock. A process is not its own child — ECHILD.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    if (waitpid(getpid()) != -10) { return 1; } // ECHILD = 10
    return 0;
}
)"),
              0);
}

TEST(Regression, SendAfterPeerCloseIsPipeShapedDeath)
{
    // A send into a connection whose peer has closed used to succeed
    // silently; it now takes the same default-fatal SIGPIPE path as
    // pipes, recorded as DeathCause::kPipe.
    SimClock clock;
    host::HostFileStore files;
    host::NetSim net(clock);
    baseline::LinuxSystem sys(clock, files, &net);
    auto out = toolchain::compile(R"(
global byte msg[8] = "hello";
func main() {
    var l = sock_listen(9, 4);
    if (l < 0) { return 1; }
    var c = sock_connect(9);
    if (c < 0) { return 2; }
    var s = sock_accept(l);
    if (s < 0) { return 3; }
    close(c);                  // peer goes away
    sock_send(s, msg, 5);      // killed here
    return 7;                  // unreachable
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    auto code = sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(),
              -static_cast<int64_t>(ErrorCode::kPipe));
    auto record = sys.death_record(pid.value());
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().cause, DeathCause::kPipe);
}

// ---- poll() semantics -------------------------------------------------

TEST(Poll, TimeoutExpiresWithNothingReady)
{
    // One pollfd on an empty pipe's read end, finite timeout: poll
    // must come back 0 after the deadline, and simulated time must
    // actually have passed.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global int pfds[3];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    pfds[0] = fds[0];
    pfds[1] = 0x1;             // POLLIN
    pfds[2] = 0x7;             // stale garbage the kernel must clear
    var t0 = time_ns();
    var r = poll(pfds, 1, 1000000);   // 1 ms
    if (r != 0) { return 2; }
    if (pfds[2] != 0) { return 3; }
    if (time_ns() - t0 < 1000000) { return 4; }
    return 0;
}
)"),
              0);
}

TEST(Poll, ReadinessEdgeWhenPeerCloses)
{
    // The parent blocks in poll() on the read end; the child exits
    // (dropping the inherited last write end) long after the parent
    // is parked. The close edge must wake the poller with POLLHUP —
    // and *only* POLLHUP: the pipe is drained, so POLLIN here would
    // send the caller into a 0-byte read loop instead of announcing
    // the hangup. The read then sees a clean EOF.
    KernelHarness h;
    auto child = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 200000) { i = i + 1; }
    return 0;                  // exit drops the write end
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("closer", child.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte child[8] = "closer";
global byte buf[8];
global int pfds[3];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = 0;
    io3[1] = fds[1];           // child stdout = the write end
    io3[2] = 2;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 2; }
    close(fds[1]);             // the child holds the only writer
    pfds[0] = fds[0];
    pfds[1] = 0x1;             // POLLIN
    pfds[2] = 0;
    var r = poll(pfds, 1, 0 - 1);     // block until the edge
    if (r != 1) { return 3; }
    if (pfds[2] != 0x10) { return 4; }  // POLLHUP alone: no data left
    if (read(fds[0], buf, 8) != 0) { return 5; } // EOF
    return 0;
}
)"),
              0);
}

TEST(Poll, DeadFdReportsNvalAndNegativeFdIsSkipped)
{
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global int pfds[6];
func main() {
    pfds[0] = 99;              // never-opened descriptor
    pfds[1] = 0x1;
    pfds[2] = 0;
    pfds[3] = 0 - 1;           // negative: skipped per POSIX
    pfds[4] = 0x1;
    pfds[5] = 0x7;
    var r = poll(pfds, 2, 0 - 1);
    if (r != 1) { return 1; }         // NVAL counts as ready
    if (pfds[2] != 0x20) { return 2; }  // POLLNVAL
    if (pfds[5] != 0) { return 3; }     // skipped fd: revents cleared
    return 0;
}
)"),
              0);
}

TEST(Poll, PipeHupWithBufferedDataStillReadable)
{
    // Writer-gone with bytes still buffered: the read end must show
    // POLLIN|POLLHUP while data remains, then POLLHUP alone once
    // drained. Before the fix the read end reported POLLIN forever
    // after the writer closed, even on an empty pipe.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte buf[8];
global int pfds[3];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    if (write(fds[1], "hi", 2) != 2) { return 2; }
    close(fds[1]);
    pfds[0] = fds[0];
    pfds[1] = 0x1;
    pfds[2] = 0;
    if (poll(pfds, 1, 0) != 1) { return 3; }
    if (pfds[2] != 0x11) { return 4; }   // data AND hangup
    if (read(fds[0], buf, 8) != 2) { return 5; }
    if (poll(pfds, 1, 0) != 1) { return 6; }
    if (pfds[2] != 0x10) { return 7; }   // drained: hangup only
    if (read(fds[0], buf, 8) != 0) { return 8; } // clean EOF
    return 0;
}
)"),
              0);
}

/**
 * Parent half of the huge-timeout tests: an idle pipe whose only
 * writer is a child that spins for a while before writing one byte.
 * WAIT is the blocking call; it must sleep until the byte arrives.
 */
std::string
wait_for_late_writer(const std::string &wait)
{
    return R"(
global byte child[8] = "writer";
global byte buf[8];
global int pfds[3];
global int evs[8];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = 0;
    io3[1] = fds[1];           // child stdout = the write end
    io3[2] = 2;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 2; }
    var t0 = time_ns();
    var r = 0;
)" + wait + R"(
    if (r != 1) { return 3; }
    if (read(fds[0], buf, 8) != 1) { return 4; }
    if (time_ns() - t0 < 100000) { return 5; } // it really blocked
    return 0;
}
)";
}

void
put_late_writer(KernelHarness &h)
{
    auto child = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 200000) { i = i + 1; }
    write(1, "x", 1);
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("writer", child.value().image.serialize());
}

TEST(Poll, Int64MaxTimeoutBlocksUntilData)
{
    // INT64_MAX ns is past 2^64 cycles at 3.5 GHz: the deadline must
    // saturate to "no deadline", not convert out of range.
    KernelHarness h;
    put_late_writer(h);
    EXPECT_EQ(h.run(wait_for_late_writer(R"(
    pfds[0] = fds[0];
    pfds[1] = 0x1;             // POLLIN
    pfds[2] = 0;
    r = poll(pfds, 1, 0x7fffffffffffffff);
    if (pfds[2] != 0x1) { return 6; }
)")),
              0);
}

TEST(Poll, EpollWaitTimeoutNearCycleWrapBlocksUntilData)
{
    // 5270498306774156000 ns is 2^64 - 4096 cycles: it fits, but
    // adding it to the current cycle count wraps. The deadline must
    // saturate, not land in the past and time out at once.
    KernelHarness h;
    put_late_writer(h);
    EXPECT_EQ(h.run(wait_for_late_writer(R"(
    var ep = epoll_create();
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 6; }
    r = epoll_wait(ep, evs, 4, 5270498306774156000);
    if (evs[0] != fds[0]) { return 7; }
)")),
              0);
}

TEST(Regression, SharedSocketSurvivesCloseByOneSip)
{
    // A connection's server/client half is shared between two SIPs
    // (spawn fd inheritance). One SIP closing its descriptor used to
    // tear the NetSim connection down immediately — the other SIP,
    // possibly *blocked in poll() on that very fd*, saw a spurious
    // hangup (or a dangling wakeup registration). The connection must
    // only close when the last descriptor goes, and the close edge
    // must fire exactly once.
    SimClock clock;
    host::HostFileStore files;
    host::NetSim net(clock);
    baseline::LinuxSystem sys(clock, files, &net);
    auto child = toolchain::compile(R"(
global byte msg[4] = "hi";
func main() {
    var i = 0;
    while (i < 200000) { i = i + 1; } // let the parent park in poll()
    if (sock_send(0, msg, 2) != 2) { return 9; }
    i = 0;
    while (i < 200000) { i = i + 1; }
    return 0;  // exit drops the LAST client ref: the real close edge
}
)");
    ASSERT_TRUE(child.ok());
    files.put("sender", child.value().image.serialize());
    auto out = toolchain::compile(R"(
global byte child[8] = "sender";
global byte buf[8];
global int pfds[3];
func main() {
    var l = sock_listen(9, 4);
    if (l < 0) { return 1; }
    var c = sock_connect(9);
    if (c < 0) { return 2; }
    var s = sock_accept(l);
    if (s < 0) { return 3; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = c;                // the child shares the client end
    io3[1] = 0 - 1;
    io3[2] = 0 - 1;
    if (spawn_io(child, argvv, 1, io3) < 0) { return 4; }
    close(c);                  // seed bug: this killed the connection
    pfds[0] = s;
    pfds[1] = 0x1;
    pfds[2] = 0;
    // Blocked here when the child's payload lands. With the seed bug
    // this returned instantly with HUP and an EOF read.
    if (poll(pfds, 1, 0 - 1) != 1) { return 5; }
    if ((pfds[2] & 0x1) == 0) { return 6; }
    if ((pfds[2] & 0x10) != 0) { return 7; }  // no phantom hangup
    if (sock_recv(s, buf, 8) != 2) { return 8; }
    // The child's exit drops the last client descriptor: one hangup.
    if (poll(pfds, 1, 0 - 1) != 1) { return 10; }
    if ((pfds[2] & 0x10) == 0) { return 11; }
    if (sock_recv(s, buf, 8) != 0) { return 12; } // EOF after HUP
    return 0;
}
)");
    ASSERT_TRUE(out.ok());
    files.put("prog", out.value().image.serialize());
    auto &wasted =
        trace::Registry::instance().counter("kernel.wasted_retries");
    uint64_t wasted0 = wasted.value();
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    auto code = sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    // Exactly-once close delivery: no wakeup ever found nothing to do.
    // (Injected network faults legitimately perturb wakeup timing, so
    // the counter check only holds on a clean run.)
    if (!faultsim::FaultSim::instance().active()) {
        EXPECT_EQ(wasted.value(), wasted0);
    }
}

TEST(Regression, PollEventsArrayAcrossPageHoleIsAllOrNothing)
{
    // A pollfd array whose tail record straddles an unmapped page:
    // the whole call must fail with EFAULT *before* any revents are
    // written back — a partial writeback would leave the caller
    // acting on half-reported readiness it was told failed.
    HoleyHarness h;
    h.proc.pid = 1;

    // A pipe with one readable byte (fds 0 and 1 in the empty table).
    uint64_t pipe_args[abi::kSyscallArgs] = {0x1000};
    auto r = h.kernel.sys(h.proc, abi::Sys::kPipe, pipe_args);
    ASSERT_TRUE(r && *r == 0);
    ASSERT_EQ(h.space.write_raw(0x1100, "x", 1), vm::AccessFault::kNone);
    uint64_t write_args[abi::kSyscallArgs] = {1, 0x1100, 1};
    r = h.kernel.sys(h.proc, abi::Sys::kWrite, write_args);
    ASSERT_TRUE(r && *r == 1);

    // Record 0 sits in the last 24 bytes of the mapped page; record 1
    // begins exactly at the hole. revents carries a sentinel.
    uint64_t base = 0x2000 - abi::kPollRecordBytes;
    int64_t rec0[3] = {0, 0x1, 0x7};
    ASSERT_EQ(h.space.write_raw(base, rec0, sizeof(rec0)),
              vm::AccessFault::kNone);

    uint64_t poll_args[abi::kSyscallArgs] = {base, 2, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kPoll, poll_args);
    ASSERT_TRUE(r);
    EXPECT_EQ(*r, -static_cast<int64_t>(ErrorCode::kFault));

    // All-or-nothing: the mapped record's revents is untouched even
    // though its fd was genuinely ready.
    int64_t check[3] = {0, 0, 0};
    ASSERT_EQ(h.space.read_raw(base, check, sizeof(check)),
              vm::AccessFault::kNone);
    EXPECT_EQ(check[2], 0x7);

    // The same single record, fully mapped, reports POLLIN.
    uint64_t good_args[abi::kSyscallArgs] = {base, 1, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kPoll, good_args);
    ASSERT_TRUE(r && *r == 1);
    ASSERT_EQ(h.space.read_raw(base, check, sizeof(check)),
              vm::AccessFault::kNone);
    EXPECT_EQ(check[2], 0x1);
}

TEST(Regression, EpollWaitAcrossPageHoleKeepsEdgeState)
{
    // epoll_wait's collect is destructive for edge-triggered entries
    // (a reported fd leaves the ready list), so the output buffer
    // must be probed *before* collecting: an EFAULT buffer must not
    // consume the edge.
    HoleyHarness h;
    h.proc.pid = 1;

    uint64_t pipe_args[abi::kSyscallArgs] = {0x1000};
    auto r = h.kernel.sys(h.proc, abi::Sys::kPipe, pipe_args);
    ASSERT_TRUE(r && *r == 0);
    uint64_t create_args[abi::kSyscallArgs] = {};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollCreate, create_args);
    ASSERT_TRUE(r && *r >= 0);
    uint64_t epfd = static_cast<uint64_t>(*r);
    uint64_t ctl_args[abi::kSyscallArgs] = {
        epfd, abi::kEpollCtlAdd, 0,
        static_cast<uint64_t>(abi::kPollIn) |
            static_cast<uint64_t>(abi::kEpollEt)};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollCtl, ctl_args);
    ASSERT_TRUE(r && *r == 0);

    // One readable byte arms the edge.
    ASSERT_EQ(h.space.write_raw(0x1100, "x", 1), vm::AccessFault::kNone);
    uint64_t write_args[abi::kSyscallArgs] = {1, 0x1100, 1};
    r = h.kernel.sys(h.proc, abi::Sys::kWrite, write_args);
    ASSERT_TRUE(r && *r == 1);

    // Two 16-byte event records starting 16 bytes before the hole:
    // the second straddles unmapped memory.
    uint64_t base = 0x2000 - abi::kEpollRecordBytes;
    uint64_t bad_args[abi::kSyscallArgs] = {epfd, base, 2, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollWait, bad_args);
    ASSERT_TRUE(r);
    EXPECT_EQ(*r, -static_cast<int64_t>(ErrorCode::kFault));

    // The edge survived the failed call: a fully-mapped buffer still
    // reports it (before the fix the EFAULT call dequeued the entry
    // and this returned 0 — a lost event).
    uint64_t good_args[abi::kSyscallArgs] = {epfd, 0x1200, 4, 0};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollWait, good_args);
    ASSERT_TRUE(r && *r == 1);
    int64_t ev[2] = {0, 0};
    ASSERT_EQ(h.space.read_raw(0x1200, ev, sizeof(ev)),
              vm::AccessFault::kNone);
    EXPECT_EQ(ev[0], 0);
    EXPECT_EQ(ev[1] & abi::kPollIn, abi::kPollIn);

    // And the edge is now consumed: nothing further to report.
    r = h.kernel.sys(h.proc, abi::Sys::kEpollWait, good_args);
    ASSERT_TRUE(r && *r == 0);
}

TEST(Regression, FarDescriptorCostsOneLeafPerTable)
{
    // dup2 may name any fd below FdTable::kLimit. The fd table and an
    // epoll interest list must pay for the descriptors in use, not for
    // the span below the highest one: fd 2^20-1 costs each table at
    // most one more leaf, and closing it gives the leaf back.
    HoleyHarness h;
    h.proc.pid = 1;
    uint64_t pipe_args[abi::kSyscallArgs] = {0x1000};
    auto r = h.kernel.sys(h.proc, abi::Sys::kPipe, pipe_args); // 0, 1
    ASSERT_TRUE(r && *r == 0);
    uint64_t create_args[abi::kSyscallArgs] = {};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollCreate, create_args);
    ASSERT_TRUE(r && *r == 2);
    auto *ep = static_cast<EpollObject *>(h.proc.fds.get(2));
    const uint64_t in = static_cast<uint64_t>(abi::kPollIn);
    uint64_t add_low[abi::kSyscallArgs] = {2, abi::kEpollCtlAdd, 0, in};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollCtl, add_low);
    ASSERT_TRUE(r && *r == 0);
    const size_t fd_leaves = h.proc.fds.leaves();
    const size_t interest_leaves = ep->interest_leaves();
    EXPECT_EQ(fd_leaves, 1u);
    EXPECT_EQ(interest_leaves, 1u);

    const uint64_t far = FdTable::kLimit - 1;
    uint64_t dup_args[abi::kSyscallArgs] = {0, far};
    r = h.kernel.sys(h.proc, abi::Sys::kDup2, dup_args);
    ASSERT_TRUE(r && *r == static_cast<int64_t>(far));
    uint64_t add_far[abi::kSyscallArgs] = {2, abi::kEpollCtlAdd, far, in};
    r = h.kernel.sys(h.proc, abi::Sys::kEpollCtl, add_far);
    ASSERT_TRUE(r && *r == 0);
    EXPECT_LE(h.proc.fds.leaves(), fd_leaves + 1);
    EXPECT_LE(ep->interest_leaves(), interest_leaves + 1);
    EXPECT_TRUE(ep->contains(static_cast<int>(far)));
    EXPECT_EQ(h.proc.alloc_fd(), 3); // lowest-free is unchanged

    uint64_t close_args[abi::kSyscallArgs] = {far};
    r = h.kernel.sys(h.proc, abi::Sys::kClose, close_args);
    ASSERT_TRUE(r && *r == 0);
    EXPECT_EQ(h.proc.fds.leaves(), fd_leaves);
    EXPECT_EQ(ep->interest_leaves(), interest_leaves);
    EXPECT_FALSE(ep->contains(static_cast<int>(far)));
}

TEST(LeafTableTest, FirstLeafShortcutFollowsItsLeaf)
{
    // find() below kLeafSize skips the directory; the shortcut must
    // go when leaf 0 is freed and come back when it is reclaimed.
    LeafTable<int> table;
    EXPECT_EQ(table.find(3), nullptr);
    table.claim(3) = 7;
    table.claim(600) = 8;
    ASSERT_NE(table.find(3), nullptr);
    EXPECT_EQ(*table.find(3), 7);
    EXPECT_EQ(*table.find(600), 8);
    EXPECT_EQ(table.leaves(), 2u);

    table.release(3);
    EXPECT_EQ(table.leaves(), 1u);
    EXPECT_EQ(table.find(3), nullptr);
    table.claim(5) = 9;
    EXPECT_EQ(*table.find(5), 9);
    EXPECT_EQ(*table.find(3), 0); // a fresh leaf, not the freed one

    table.clear();
    EXPECT_EQ(table.leaves(), 0u);
    EXPECT_EQ(table.find(5), nullptr);
    EXPECT_EQ(table.find(600), nullptr);
}

// ---- fd lifecycle under dup2 (PR 9 bugfix sweep) ----------------------

TEST(Regression, Dup2ImplicitCloseDropsEpollInterest)
{
    // dup2 over a watched descriptor is an implicit close: the old
    // registration must leave the interest list, exactly as kClose's
    // auto-removal would. Before the fix the stale entry (a) kept
    // reporting events for the *old* file and (b) made re-ADDing the
    // descriptor fail with a phantom EEXIST.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
global byte b[4];
func main() {
    var fds[2];
    var fds2[2];
    var evs[8];
    if (pipe(fds) != 0) { return 1; }     // 3, 4
    if (pipe(fds2) != 0) { return 2; }    // 5, 6
    var ep = epoll_create();              // 7
    if (ep != 7) { return 3; }
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 4; }
    // Keep the first pipe's read end alive elsewhere so writing to
    // it stays legal after fd 3 is clobbered.
    if (dup2(fds[0], 8) != 8) { return 9; }
    // Replace the watched descriptor with the other pipe's read end.
    if (dup2(fds2[0], fds[0]) != fds[0]) { return 5; }
    // Data on the *old* pipe object must no longer reach the epoll.
    if (write(fds[1], b, 1) != 1) { return 6; }
    if (epoll_wait(ep, evs, 4, 0) != 0) { return 7; }
    // And the slot must be re-addable (no phantom EEXIST).
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 8; }
    return 0;
}
)"),
              0);
}

TEST(Regression, Dup2OverLastEpollFdDropsRosterEntry)
{
    // dup2 over the *only* descriptor of an epoll object destroys the
    // object; the process's epoll roster must drop it too. Before the
    // fix the roster kept a dangling pointer and the next close()
    // walked it — a use-after-free the ASan tier-1 leg catches.
    KernelHarness h;
    EXPECT_EQ(h.run(R"(
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }     // 3, 4
    var ep = epoll_create();              // 5
    if (epoll_ctl(ep, 1, fds[0], 0x1) != 0) { return 2; }
    if (dup2(fds[0], ep) != ep) { return 3; }
    // Any close now walks the epoll roster.
    if (close(fds[0]) != 0) { return 4; }
    if (close(ep) != 0) { return 5; }
    return 0;
}
)"),
              0);
}

TEST(Syscalls, LowestFreeFdSurvivesChurn)
{
    // POSIX lowest-free allocation across every lifecycle path that
    // can open a hole: close-in-the-middle, close-at-the-bottom,
    // dup2 (which must NOT open a hole — the slot is reoccupied
    // atomically), and pipe's double allocation.
    KernelHarness h;
    h.files.put("/f.txt", Bytes{});
    EXPECT_EQ(h.run(R"(
global byte p[12] = "/f.txt";
func main() {
    var a = open(p, 0);
    var b2 = open(p, 0);
    var c = open(p, 0);
    var d = open(p, 0);
    if (a != 3) { return 1; }
    if (d != 6) { return 2; }
    close(c);                            // hole at 5
    close(a);                            // hole at 3: hint rewinds
    if (open(p, 0) != 3) { return 3; }   // lowest hole first
    if (open(p, 0) != 5) { return 4; }   // then the next one up
    if (dup2(b2, 9) != 9) { return 5; }  // no hole: 9 becomes busy
    close(b2);                           // hole at 4
    if (open(p, 0) != 4) { return 6; }
    var fds[2];
    if (pipe(fds) != 0) { return 7; }
    if (fds[0] != 7) { return 8; }       // dense run continues
    if (fds[1] != 8) { return 9; }
    close(9);
    if (open(p, 0) != 9) { return 10; }
    return 0;
}
)"),
              0);
}

// ---- timed waits: eager cancellation ---------------------------------

TEST(Timers, PollRearmCancelLoopLeavesNoEntries)
{
    // A poll() with a far deadline that is woken early by data cancels
    // its timed wait. Re-armed in a loop, a lazily deleted timer
    // structure grows by one stale entry per iteration (~1500 here);
    // with eager cancellation every entry is erased as its wait ends,
    // so nothing is left once all processes are gone.
    KernelHarness h;
    auto child = toolchain::compile(R"(
global byte b[4];
func main() {
    var i = 0;
    while (i < 1500) {
        if (read(0, b, 1) != 1) { return 1; }
        if (write(1, b, 1) != 1) { return 2; }
        i = i + 1;
    }
    return 0;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("echo", child.value().image.serialize());
    auto out = toolchain::compile(R"(
global byte child[8] = "echo";
global byte b[4];
func main() {
    var req[2];
    var resp[2];
    if (pipe(req) != 0) { return 1; }    // 3, 4
    if (pipe(resp) != 0) { return 2; }   // 5, 6
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = req[0];    // child stdin: request pipe read end
    io3[1] = resp[1];   // child stdout: response pipe write end
    io3[2] = 2;
    var cpid = spawn_io(child, argvv, 1, io3);
    if (cpid < 0) { return 3; }
    close(req[0]);
    close(resp[1]);
    var pfd[3];
    var t = 1000000000;
    t = t * 1000;       // 1000 s: the deadline never comes due
    var i = 0;
    while (i < 1500) {
        if (write(req[1], b, 1) != 1) { return 4; }
        pfd[0] = resp[0];
        pfd[1] = 0x1;
        pfd[2] = 0;
        if (poll(pfd, 1, t) != 1) { return 5; }
        if (read(resp[0], b, 1) != 1) { return 6; }
        i = i + 1;
    }
    close(req[1]);
    return waitpid(cpid);
}
)");
    ASSERT_TRUE(out.ok());
    h.files.put("prog", out.value().image.serialize());
    auto pid = h.sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    h.sys.run();
    auto code = h.sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
    EXPECT_EQ(h.sys.timer_entries(), 0u);
}

// ---- SMP scheduling (PR 9 tentpole) -----------------------------------

namespace smp {

/** Counter snapshot helper (the registry is process-global). */
uint64_t
ctr(const std::string &name)
{
    return trace::Registry::instance().counter(name).value();
}

constexpr const char *kStormParent = R"(
global byte child[8] = "kid";
func main() {
    var argvv[1];
    var pids[24];
    argvv[0] = child;
    var i = 0;
    while (i < 24) {
        pids[i] = spawn(child, argvv, 1);
        if (pids[i] < 0) { return 1; }
        i = i + 1;
    }
    i = 0;
    while (i < 24) {
        if (waitpid(pids[i]) != 7) { return 2; }
        i = i + 1;
    }
    return 0;
}
)";

constexpr const char *kStormChild = R"(
func main() {
    var i = 0;
    while (i < 3000) { i = i + 1; }
    return 7;
}
)";

/** Run the spawn storm at `cores`; returns (death order, cycles). */
std::pair<std::vector<int>, uint64_t>
run_storm(int cores)
{
    KernelHarness h;
    h.sys.set_cores(cores);
    auto kid = toolchain::compile(kStormChild);
    EXPECT_TRUE(kid.ok());
    h.files.put("kid", kid.value().image.serialize());
    EXPECT_EQ(h.run(kStormParent), 0);
    EXPECT_TRUE(h.sys.all_exited());
    return {h.sys.death_order(), h.clock.cycles()};
}

} // namespace smp

TEST(Smp, SpawnStormCompletesDeterministicallyAcrossCores)
{
    // 24 children spawned back-to-back (a spawn storm: many pids
    // enter the walk mid-round) must all run, complete, and be
    // reaped at every core count — and the completion order must be
    // a pure function of the core count: two identical runs agree
    // exactly, including total simulated cycles.
    for (int cores : {1, 2, 4}) {
        auto first = smp::run_storm(cores);
        auto second = smp::run_storm(cores);
        EXPECT_EQ(first.first, second.first) << "cores=" << cores;
        EXPECT_EQ(first.second, second.second) << "cores=" << cores;
        EXPECT_EQ(first.first.size(), 25u) << "cores=" << cores;
    }
    // More cores must not be slower on a 24-wide parallel workload.
    EXPECT_LT(smp::run_storm(4).second, smp::run_storm(1).second);
}

TEST(Smp, OneCoreStormMatchesTheUnicoreGolden)
{
    // cores=1 is the degenerate case of the per-core walk: one queue,
    // nothing to steal, a no-op barrier. It must reproduce the
    // unicore kernel exactly — these are the death order and total
    // cycles of the dedicated single-queue walk the SMP walk replaced.
    auto [order, cycles] = smp::run_storm(1);
    std::vector<int> want;
    for (int pid = 2; pid <= 25; ++pid) {
        want.push_back(pid);
    }
    want.push_back(1);
    EXPECT_EQ(order, want);
    EXPECT_EQ(cycles, 16152733u);
}

TEST(Smp, CoreCountParsingIsStrict)
{
    EXPECT_EQ(parse_core_count("1").value(), 1);
    EXPECT_EQ(parse_core_count("4").value(), 4);
    EXPECT_EQ(parse_core_count("64").value(), kMaxCores);
    // No silent fallback to one core and no silent clamp to the max.
    for (const char *bad : {"four", "0", "65", "128", "-2", "4x", " 4",
                            "", "+4", "999999999999"}) {
        auto cores = parse_core_count(bad);
        ASSERT_FALSE(cores.ok()) << "'" << bad << "'";
        EXPECT_NE(cores.error().message.find(std::string("'") + bad + "'"),
                  std::string::npos)
            << cores.error().message;
    }
}

TEST(Smp, IdleCoresStealFromLoadedCoreAndFinishSooner)
{
    // Two long jobs whose pids collide on one home core (2 and 6,
    // both pid % 4 == 2) with three instant-exit spacers between
    // them. Once the spacers die, core 2 owns both long jobs: an
    // idle core must steal the lowest pid from it (the most-loaded
    // queue) and the pair must finish in roughly half the unicore
    // time.
    auto run_once = [](int cores, uint64_t &cycles) {
        KernelHarness h;
        h.sys.set_cores(cores);
        auto lng = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 300000) { i = i + 1; }
    return 5;
}
)");
        auto quick = toolchain::compile("func main() { return 6; }");
        ASSERT_TRUE(lng.ok());
        ASSERT_TRUE(quick.ok());
        h.files.put("long", lng.value().image.serialize());
        h.files.put("quick", quick.value().image.serialize());
        EXPECT_EQ(h.run(R"(
global byte lng[8] = "long";
global byte qck[8] = "quick";
func main() {
    var argvv[1];
    argvv[0] = lng;
    var a = spawn(lng, argvv, 1);     // pid 2 (home 2 at 4 cores)
    argvv[0] = qck;
    var s1 = spawn(qck, argvv, 1);    // pid 3
    var s2 = spawn(qck, argvv, 1);    // pid 4
    var s3 = spawn(qck, argvv, 1);    // pid 5
    argvv[0] = lng;
    var b2 = spawn(lng, argvv, 1);    // pid 6 (home 2 at 4 cores)
    if (waitpid(a) != 5) { return 1; }
    if (waitpid(b2) != 5) { return 2; }
    if (waitpid(s1) != 6) { return 3; }
    if (waitpid(s2) != 6) { return 4; }
    if (waitpid(s3) != 6) { return 5; }
    return 0;
}
)"),
                  0);
        cycles = h.clock.cycles();
    };
    uint64_t steals_before = smp::ctr("kernel.core0.steals");
    uint64_t uni_cycles = 0;
    uint64_t smp_cycles = 0;
    run_once(1, uni_cycles);
    run_once(4, smp_cycles);
    // The idle core 0 stole pid 2 from core 2's two-deep queue.
    EXPECT_GT(smp::ctr("kernel.core0.steals"), steals_before);
    // Both long jobs overlap in simulated time: real speedup.
    EXPECT_LT(smp_cycles, uni_cycles * 3 / 4);
}

TEST(Smp, CrossCoreWakeupLandsOnHomeCoreQueue)
{
    // A SIP homed on core 0 (pid 2 at 2 cores) blocks reading a
    // pipe; the writer is homed on core 1 (pid 1). The wake must
    // land on the *reader's* home queue — counted by the per-core
    // wakeup metric — and the reader must complete.
    uint64_t wakeups_before = smp::ctr("kernel.core0.wakeups");
    KernelHarness h;
    h.sys.set_cores(2);
    auto child = toolchain::compile(R"(
global byte b[4];
func main() {
    if (read(0, b, 1) != 1) { return 1; }
    return 9;
}
)");
    ASSERT_TRUE(child.ok());
    h.files.put("rdr", child.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte child[8] = "rdr";
global byte b[4];
func main() {
    var fds[2];
    if (pipe(fds) != 0) { return 1; }
    var argvv[1];
    argvv[0] = child;
    var io3[3];
    io3[0] = fds[0];
    io3[1] = 1;
    io3[2] = 2;
    var cpid = spawn_io(child, argvv, 1, io3);
    if (cpid < 0) { return 2; }
    close(fds[0]);
    // Let the reader park first (it blocks on the empty pipe), then
    // wake it from the other core.
    var i = 0;
    while (i < 60000) { i = i + 1; }
    if (write(fds[1], b, 1) != 1) { return 3; }
    if (waitpid(cpid) != 9) { return 4; }
    return 0;
}
)"),
              0);
    EXPECT_GT(smp::ctr("kernel.core0.wakeups"), wakeups_before);
}

namespace smp {

/**
 * The stolen-then-woken double-run shape, at `cores`. Returns
 * (death order, cycles); the caller diffs kernel.deferred_retries.
 *
 * The choreography (4 cores): pid 3 ("rdr", home core 3) spins long
 * enough for the spacer pids 2/4/5/6 to die, leaving core 0 with an
 * empty walk while queue 3 stays two-deep (pid 7 keeps spinning) — so
 * core 0 steals pid 3 every round. When its spin drains, pid 3 writes
 * one byte to the signal pipe (stdout), waking the orchestrator pid 1
 * (home core 1), whose retry completes the read in core 1's walk of
 * that round. Next round pid 3's *stolen* quantum on core 0 blocks
 * reading the empty data pipe (stdin), and core 1's walk then gives
 * pid 1 the quantum that writes the data pipe. Core 3 walks last and
 * finds pid 3 wake-pending with ran_round equal to the current round:
 * retrying would make it run twice in one round, so the retry must be
 * deferred.
 */
std::pair<std::vector<int>, uint64_t>
run_stolen_then_woken(int cores)
{
    KernelHarness h;
    h.sys.set_cores(cores);
    auto spacer = toolchain::compile("func main() { return 5; }");
    auto reader = toolchain::compile(R"(
global byte b[4];
func main() {
    var i = 0;
    while (i < 120000) { i = i + 1; }
    if (write(1, b, 1) != 1) { return 1; }
    if (read(0, b, 1) != 1) { return 2; }
    return 9;
}
)");
    auto spinner = toolchain::compile(R"(
func main() {
    var i = 0;
    while (i < 400000) { i = i + 1; }
    return 7;
}
)");
    EXPECT_TRUE(spacer.ok() && reader.ok() && spinner.ok());
    h.files.put("spc", spacer.value().image.serialize());
    h.files.put("rdr", reader.value().image.serialize());
    h.files.put("spin", spinner.value().image.serialize());
    EXPECT_EQ(h.run(R"(
global byte spacer[8] = "spc";
global byte reader[8] = "rdr";
global byte spinner[8] = "spin";
global byte b[4];
func main() {
    var sig[2];
    var dat[2];
    if (pipe(sig) != 0) { return 1; }
    if (pipe(dat) != 0) { return 1; }
    var argvv[1];
    argvv[0] = spacer;
    var p2 = spawn(spacer, argvv, 1);
    var io3[3];
    io3[0] = dat[0];
    io3[1] = sig[1];
    io3[2] = 2;
    argvv[0] = reader;
    var p3 = spawn_io(reader, argvv, 1, io3);
    argvv[0] = spacer;
    var p4 = spawn(spacer, argvv, 1);
    var p5 = spawn(spacer, argvv, 1);
    var p6 = spawn(spacer, argvv, 1);
    argvv[0] = spinner;
    var p7 = spawn(spinner, argvv, 1);
    if (p2 < 0) { return 2; }
    if (p3 < 0) { return 2; }
    if (p4 < 0) { return 2; }
    if (p5 < 0) { return 2; }
    if (p6 < 0) { return 2; }
    if (p7 < 0) { return 2; }
    close(dat[0]);
    close(sig[1]);
    if (read(sig[0], b, 1) != 1) { return 3; }
    if (write(dat[1], b, 1) != 1) { return 4; }
    if (waitpid(p3) != 9) { return 5; }
    if (waitpid(p2) != 5) { return 6; }
    if (waitpid(p4) != 5) { return 6; }
    if (waitpid(p5) != 5) { return 6; }
    if (waitpid(p6) != 5) { return 6; }
    if (waitpid(p7) != 7) { return 7; }
    return 0;
}
)"),
              0);
    EXPECT_TRUE(h.sys.all_exited());
    return {h.sys.death_order(), h.clock.cycles()};
}

} // namespace smp

TEST(Smp, StolenThenWokenSipRunsOnceAndRetryIsDeferred)
{
    // Regression for the stolen-then-woken double-run hazard: the
    // scheduler used to retry a SIP's blocked syscall on its home
    // core even when the SIP had already run a stolen quantum this
    // round — completing the syscall on a timeline that rewound to
    // the round start, i.e. overlapping the SIP's own quantum in
    // simulated time. The home walk must defer such retries to the next
    // round (counted by kernel.deferred_retries, which this scenario
    // is engineered to hit), and the schedule must stay deterministic
    // run to run at every swept core count.
    for (int cores : {2, 4}) {
        uint64_t deferred0 = smp::ctr("kernel.deferred_retries");
        auto first = smp::run_stolen_then_woken(cores);
        auto second = smp::run_stolen_then_woken(cores);
        EXPECT_EQ(first.first, second.first)
            << "death order must be deterministic at cores=" << cores;
        EXPECT_EQ(first.second, second.second)
            << "cycles must be deterministic at cores=" << cores;
        if (cores == 4) {
            // The 4-core choreography reaches the hazard (steal core
            // 0 < waker core 1 < home core 3) once per run.
            EXPECT_EQ(smp::ctr("kernel.deferred_retries") - deferred0, 2u);
        }
    }
}

} // namespace
} // namespace occlum::oskit
