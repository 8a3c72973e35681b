#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "base/rng.h"
#include "base/stats.h"
#include "baseline/eip_system.h"
#include "libos/occlum_system.h"
#include "workloads/workloads.h"

using namespace occlum;

namespace perfbench {

namespace {

libos::OcclumSystem::Config
occlum_config(int slots, uint64_t slot_code, uint64_t slot_data, int cores)
{
    libos::OcclumSystem::Config config;
    config.num_slots = slots;
    config.slot_code_size = slot_code;
    config.slot_data_size = slot_data;
    config.verifier_key = workloads::bench_verifier_key();
    // Pinned, so OCCLUM_CORES in the environment changes nothing.
    config.cores = cores;
    return config;
}

workloads::ProgramBuild
build(PassOutput &out, const std::string &source, uint64_t pad_to,
      uint64_t heap_size = 1 << 20, uint64_t code_reserve = 1 << 20)
{
    HostSpan span(out.build_host_s);
    return workloads::build_program(source, pad_to, heap_size, code_reserve);
}

/** `text` with every "@KEY@" replaced by its value. */
std::string
subst(std::string text,
      const std::vector<std::pair<std::string, long long>> &values)
{
    for (const auto &[key, value] : values) {
        std::string token = "@" + key + "@";
        for (size_t at = text.find(token); at != std::string::npos;
             at = text.find(token, at)) {
            text.replace(at, token.size(), std::to_string(value));
        }
    }
    return text;
}

double
cycles_to_ms(uint64_t cycles)
{
    return SimClock::cycles_to_seconds(cycles) * 1e3;
}

/** Exit code of `pid` if it exited normally, else -1. */
int64_t
clean_exit(const oskit::Kernel &sys, int pid)
{
    auto record = sys.death_record(pid);
    if (!record.ok() || record.value().cause != oskit::DeathCause::kExited) {
        return -1;
    }
    return record.value().code;
}

// ---------------------------------------------------------------------
// gcc-pipeline: Fig. 5b's cpp | cc1 | as | ld on EIP and on Occlum
// ---------------------------------------------------------------------

constexpr uint64_t kGccReserve = 16 << 20;
constexpr uint64_t kGccSourceBytes = 48 << 10;

struct GccBuilds {
    std::map<std::string, workloads::ProgramBuild> programs;
};

GccBuilds
build_gcc(PassOutput &out)
{
    GccBuilds b;
    b.programs.emplace("gcc", build(out, workloads::gcc_driver_source(),
                                    512 << 10, 1 << 20, kGccReserve));
    for (const char *stage : {"cpp", "as", "ld"}) {
        b.programs.emplace(stage,
                           build(out, workloads::gcc_stage_source(stage),
                                 1 << 20, 1 << 20, kGccReserve));
    }
    // cc1 is the paper's 14 MiB front end.
    b.programs.emplace("cc1", build(out, workloads::gcc_stage_source("cc1"),
                                    14 << 20, 1 << 20, kGccReserve));
    return b;
}

/** A seeded C-like translation unit of about 48 KiB. */
std::string
gcc_source(uint64_t seed)
{
    Rng rng(seed ^ 0x6763632d736f7572ull);
    // A few dozen bytes of seeded slack keep the simulated times from
    // reading identically on every seed.
    uint64_t bytes = kGccSourceBytes + rng.next_below(64);
    std::string text;
    while (text.size() < bytes) {
        text += format("int f%llu(int a, int b) { return a * %llu + b; }\n",
                       static_cast<unsigned long long>(rng.next_below(1000)),
                       static_cast<unsigned long long>(rng.next_below(97)));
    }
    text.resize(bytes);
    return text;
}

/** The stage programs' 32-bit djb2 over a byte stream (1 pass). */
uint32_t
stage_hash(const std::string &bytes, uint8_t shift)
{
    uint64_t acc = 0;
    for (uint64_t warm = 0; warm < 500000; ++warm) {
        acc += warm;
    }
    uint32_t hash = 5381 + static_cast<uint32_t>(acc & 1);
    for (char c : bytes) {
        hash = hash * 33 + static_cast<uint8_t>(c + shift);
    }
    return hash;
}

/**
 * Run the pipeline once on `sys`. The oracle: gcc and all four
 * stages exit cleanly, cpp's and ld's exit codes are the low 7 bits of
 * their single-pass hashes over the source (+0 and +21 per byte after
 * three +7 transforms), and ld reports the full length.
 */
uint64_t
gcc_leg(PassOutput &out, oskit::Kernel &sys, const char *name,
        const std::string &source, bool traced)
{
    LegMeter meter(name, sys, traced);
    auto pid = meter.spawn("gcc", {"gcc", "/src.c"});
    out.check(pid.ok(), std::string(name) + ": spawn gcc");
    bool ran = pid.ok() && meter.run();
    out.check(ran, std::string(name) + ": pipeline ran to completion");
    LegRecord leg = meter.finish();
    uint64_t cycles = leg.sim_cycles;
    out.legs.push_back(std::move(leg));
    if (!ran) {
        return cycles;
    }
    int gcc_pid = pid.value();
    out.check(clean_exit(sys, gcc_pid) == 0, std::string(name) + ": gcc exit");
    for (int stage = 1; stage <= 4; ++stage) {
        int64_t code = clean_exit(sys, gcc_pid + stage);
        out.check(code >= 0, format("%s: stage %d exit", name, stage));
    }
    int64_t cpp_digest = stage_hash(source, 0) & 0x7f;
    int64_t ld_digest = stage_hash(source, 21) & 0x7f;
    out.check(clean_exit(sys, gcc_pid + 1) == cpp_digest,
              std::string(name) + ": cpp digest");
    out.check(clean_exit(sys, gcc_pid + 4) == ld_digest,
              std::string(name) + ": ld digest");
    std::string linked = format("linked %zu bytes", source.size());
    out.check(sys.console().find(linked) != std::string::npos,
              std::string(name) + ": ld output length");
    return cycles;
}

/** Both legs over `source`; returns {eip cycles, occlum cycles}. */
std::pair<uint64_t, uint64_t>
gcc_legs(PassOutput &out, const GccBuilds &b, const std::string &source,
         bool traced)
{
    Bytes source_bytes(source.begin(), source.end());

    // Graphene-like EIP: every process an enclave, data mapped RWX.
    sgx::Platform eip_platform;
    host::HostFileStore eip_files;
    {
        HostSpan span(out.stage_host_s);
        for (const auto &[name, p] : b.programs) {
            eip_files.put(name, p.plain);
        }
        eip_files.put("/src.c", source_bytes);
    }
    std::unique_ptr<baseline::EipSystem> eip;
    {
        HostSpan span(out.init_host_s);
        eip = std::make_unique<baseline::EipSystem>(eip_platform, eip_files);
        eip->set_cores(1);
    }
    uint64_t eip_cycles = gcc_leg(out, *eip, "eip", source, traced);
    eip.reset();

    // Occlum: one enclave, the source on the encrypted FS.
    sgx::Platform occ_platform;
    host::HostFileStore occ_files;
    {
        HostSpan span(out.stage_host_s);
        for (const auto &[name, p] : b.programs) {
            occ_files.put(name, p.occlum);
        }
    }
    std::unique_ptr<libos::OcclumSystem> occ;
    {
        HostSpan span(out.init_host_s);
        occ = std::make_unique<libos::OcclumSystem>(
            occ_platform, occ_files,
            occlum_config(6, kGccReserve, 8 << 20, 1));
    }
    {
        HostSpan span(out.stage_host_s);
        out.check(occ->fs().write_file("/src.c", source_bytes).ok(),
                  "occlum: stage /src.c");
    }
    uint64_t occ_cycles = gcc_leg(out, *occ, "occlum", source, traced);
    return {eip_cycles, occ_cycles};
}

PassOutput
gcc_pipeline(uint64_t seed, bool traced)
{
    PassOutput out;
    GccBuilds b = build_gcc(out);
    std::string source = gcc_source(seed);
    auto [eip, occ] = gcc_legs(out, b, source, traced);
    out.sim = {{"occlum_sim_ms", cycles_to_ms(occ)},
               {"eip_sim_ms", cycles_to_ms(eip)}};
    out.sim_latency_ms = cycles_to_ms(occ);
    out.sim_ops_per_s = source.size() / 1024.0 /
                        SimClock::cycles_to_seconds(occ);
    return out;
}

// ---------------------------------------------------------------------
// sip-storm: a parent keeps a window of compute SIPs alive on 4 cores
// ---------------------------------------------------------------------

constexpr int kStormCores = 4;
constexpr int kStormWindow = 64;
constexpr int kStormJobs = 384;

std::string
storm_job_source()
{
    return R"(
global byte argbuf[24];
func main() {
    if (argc() < 2) { return 255; }
    getarg(1, argbuf, 24);
    var n = atoi(argbuf);
    var h = 0;
    var i = 0;
    while (i < n) {
        h = (h * 31 + i) & 0xffff;
        i = i + 1;
    }
    return h & 0x7f;
}
)";
}

std::string
storm_parent_source()
{
    // Reads the job file (one little-endian loop length per job), keeps
    // the window full, and reaps in spawn order. Prints the sum of the
    // children's exit codes.
    return subst(R"(
global byte child[8] = "job";
global byte jobs[8] = "/jobs";
global byte raw[@JOBS8@];
global int pids[@WINDOW@];
global byte arg[24];
func spawn_job(j) {
    itoa(wload(raw + j * 8), arg);
    var argvv[2];
    argvv[0] = child;
    argvv[1] = arg;
    return spawn(child, argvv, 2);
}
func main() {
    var n = 0;
    var got = 0;
    var next = 0;
    var slot = 0;
    var reaped = 0;
    var sum = 0;
    var code = 0;
    var fd = open(jobs, 0);
    if (fd < 0) { return 1; }
    while (got < @JOBS8@) {
        n = read(fd, raw + got, @JOBS8@ - got);
        if (n <= 0) { return 2; }
        got = got + n;
    }
    close(fd);
    while (next < @WINDOW@ && next < @JOBS@) {
        pids[next] = spawn_job(next);
        if (pids[next] < 0) { return 3; }
        next = next + 1;
    }
    while (reaped < @JOBS@) {
        code = waitpid(pids[slot]);
        if (code < 0) { return 4; }
        sum = sum + code;
        reaped = reaped + 1;
        if (next < @JOBS@) {
            pids[slot] = spawn_job(next);
            if (pids[slot] < 0) { return 3; }
            next = next + 1;
        }
        slot = slot + 1;
        if (slot == @WINDOW@) { slot = 0; }
    }
    print("RESULT ");
    print_int(sum);
    println("");
    return 0;
}
)",
                 {{"JOBS", kStormJobs},
                  {"JOBS8", kStormJobs * 8},
                  {"WINDOW", kStormWindow}});
}

/** The job program's exit code for a loop of `n` iterations. */
int64_t
storm_expected(uint64_t n)
{
    uint64_t h = 0;
    for (uint64_t i = 0; i < n; ++i) {
        h = (h * 31 + i) & 0xffff;
    }
    return static_cast<int64_t>(h & 0x7f);
}

PassOutput
sip_storm(uint64_t seed, bool traced)
{
    PassOutput out;
    // Children are padded so spawn pays a visible loader cost (image
    // signature check plus cfi_label rewrite over 256 KiB).
    workloads::ProgramBuild job =
        build(out, storm_job_source(), 256 << 10, 64 << 10);
    workloads::ProgramBuild parent =
        build(out, storm_parent_source(), 0, 64 << 10);

    // A fixed multiset of loop lengths (2k..65k iterations) in seeded
    // order: total work is the same for every seed, the schedule not.
    std::vector<uint64_t> lengths(kStormJobs);
    for (int j = 0; j < kStormJobs; ++j) {
        lengths[j] = 2000 + static_cast<uint64_t>((j * 37) % 64) * 1000;
    }
    Rng rng(seed ^ 0x73746f726d6a6f62ull);
    for (size_t j = lengths.size() - 1; j > 0; --j) {
        std::swap(lengths[j], lengths[rng.next_below(j + 1)]);
    }
    Bytes job_file(lengths.size() * 8);
    for (size_t j = 0; j < lengths.size(); ++j) {
        std::memcpy(job_file.data() + j * 8, &lengths[j], 8);
    }

    sgx::Platform platform;
    host::HostFileStore files;
    {
        HostSpan span(out.stage_host_s);
        files.put("job", job.occlum);
        files.put("storm", parent.occlum);
    }
    std::unique_ptr<libos::OcclumSystem> sys;
    {
        HostSpan span(out.init_host_s);
        sys = std::make_unique<libos::OcclumSystem>(
            platform, files,
            occlum_config(kStormWindow + 2, 1 << 20, 1 << 20, kStormCores));
    }
    {
        HostSpan span(out.stage_host_s);
        out.check(sys->fs().write_file("/jobs", job_file).ok(),
                  "stage /jobs");
    }

    LegMeter meter("occlum", *sys, traced);
    auto pid = meter.spawn("storm", {"storm"});
    out.check(pid.ok(), "spawn storm");
    bool ran = pid.ok() && meter.run();
    out.check(ran, "storm ran to completion");
    LegRecord leg = meter.finish();
    uint64_t cycles = leg.sim_cycles;
    out.legs.push_back(std::move(leg));

    if (ran) {
        int64_t sum = 0;
        for (int j = 0; j < kStormJobs; ++j) {
            int64_t want = storm_expected(lengths[j]);
            sum += want;
            out.check(clean_exit(*sys, pid.value() + 1 + j) == want,
                      format("job %d exit code", j));
        }
        out.check(clean_exit(*sys, pid.value()) == 0, "storm exit");
        out.check(sys->console().find(format("RESULT %lld\n",
                                             static_cast<long long>(sum))) !=
                      std::string::npos,
                  "storm exit-code sum");
    }
    double seconds = SimClock::cycles_to_seconds(cycles);
    out.sim = {{"jobs_per_sim_s", kStormJobs / seconds}};
    out.sim_latency_ms = seconds * 1e3;
    out.sim_ops_per_s = kStormJobs / seconds;
    return out;
}

// ---------------------------------------------------------------------
// http-proxy: the epoll reverse proxy behind NetSim
// ---------------------------------------------------------------------

constexpr uint16_t kProxyPort = 8080;
constexpr size_t kPageBytes = 10240;
constexpr int kProxyRequests = 60000;
constexpr double kProxyRate = 8000.0;

/** The page every backend serves (see proxy_backend_source). */
const Bytes &
expected_page()
{
    static const Bytes page = [] {
        Bytes p(kPageBytes, 'x');
        const char *head = "HTTP/1.1 200 OK\r\n\r\n";
        std::memcpy(p.data(), head, std::strlen(head));
        return p;
    }();
    return page;
}

struct ClientResult {
    Aggregate latency_us; // due time to last byte (open loop)
    Aggregate lag_us;     // how late each request was sent
    int completed = 0;
    uint64_t first_cycle = 0;
    uint64_t last_cycle = 0;
};

/**
 * Simulated HTTP clients, one connection per request. With `due` set
 * they are open-loop (request i is sent at due[i]); otherwise they
 * are `concurrency` closed-loop clients issuing `total` requests, with
 * exactly the call sequence of bench_smp's drive_clients.
 */
ClientResult
drive_clients(PassOutput &out, LegMeter &meter, oskit::Kernel &sys,
              host::NetSim &net, const std::vector<uint64_t> *due,
              int concurrency, int total)
{
    struct Client {
        host::NetSim::Connection *conn = nullptr;
        size_t received = 0;
        uint64_t due = 0;
        bool bad = false;
    };
    static const char request[] = "GET /page.html HTTP/1.1\r\n\r\n";
    const Bytes &page = expected_page();
    ClientResult result;
    std::vector<Client> clients(due ? 0 : concurrency);
    int issued = 0;
    int finished = 0; // completed or failed

    auto start_request = [&](Client &client, uint64_t when) {
        client = Client{};
        if (issued >= total) {
            return;
        }
        ++issued;
        auto conn = net.connect(kProxyPort);
        if (!conn.ok()) {
            out.check(false, "connect refused: " + conn.error().message);
            ++finished;
            return;
        }
        client.conn = conn.value();
        client.due = when;
        net.send(client.conn, false,
                 reinterpret_cast<const uint8_t *>(request),
                 sizeof(request) - 1);
    };

    result.first_cycle = due ? due->front() : sys.clock().cycles();
    for (Client &client : clients) {
        start_request(client, sys.clock().cycles());
    }
    uint8_t buf[4096];
    while (finished < total) {
        uint64_t now = sys.clock().cycles();
        if (due) {
            while (issued < total && (*due)[issued] <= now) {
                result.lag_us.add(
                    SimClock::cycles_to_seconds(now - (*due)[issued]) * 1e6);
                clients.emplace_back();
                start_request(clients.back(), (*due)[issued]);
            }
        }
        bool progress = meter.step_round();
        now = sys.clock().cycles();
        for (Client &client : clients) {
            if (!client.conn) {
                continue;
            }
            uint64_t next_arrival = ~0ull;
            size_t n = net.recv(client.conn, false, buf, sizeof(buf), now,
                                next_arrival);
            if (n == 0) {
                continue;
            }
            progress = true;
            if (client.received + n > kPageBytes ||
                std::memcmp(buf, page.data() + client.received, n) != 0) {
                client.bad = true;
            }
            client.received += n;
            if (client.received < kPageBytes) {
                continue;
            }
            net.close(client.conn, false);
            out.check(!client.bad, "response bytes");
            ++finished;
            ++result.completed;
            result.last_cycle = now;
            if (due) {
                result.latency_us.add(
                    SimClock::cycles_to_seconds(now - client.due) * 1e6);
                client.conn = nullptr;
            } else {
                start_request(client, now);
            }
        }
        if (due) {
            std::erase_if(clients,
                          [](const Client &c) { return c.conn == nullptr; });
        }
        if (progress) {
            continue;
        }
        uint64_t wake = sys.next_wake_time();
        for (Client &client : clients) {
            if (!client.conn) {
                continue;
            }
            uint64_t next_arrival = ~0ull;
            net.recv(client.conn, false, buf, 0, now, next_arrival);
            wake = std::min(wake, next_arrival);
        }
        if (due && issued < total) {
            wake = std::min(wake, (*due)[issued]);
        }
        if (wake == ~0ull || wake <= now) {
            // Stalled: nothing will ever complete the rest.
            for (; finished < total; ++finished) {
                out.check(false, "request stalled");
            }
            break;
        }
        meter.idle_until(wake);
    }
    return result;
}

/** One proxy system at 1 core; open-loop when `due` is set. */
ClientResult
proxy_leg(PassOutput &out, const workloads::ProgramBuild &frontend,
          const workloads::ProgramBuild &backend,
          const std::vector<uint64_t> *due, int concurrency, int total,
          int backlog, bool traced)
{
    sgx::Platform platform;
    host::NetSim net(platform.clock());
    host::HostFileStore files;
    {
        HostSpan span(out.stage_host_s);
        files.put("proxy_frontend", frontend.occlum);
        files.put("proxy_backend", backend.occlum);
    }
    std::unique_ptr<libos::OcclumSystem> sys;
    {
        HostSpan span(out.init_host_s);
        sys = std::make_unique<libos::OcclumSystem>(
            platform, files, occlum_config(8, 1 << 20, 8 << 20, 1), &net);
    }
    LegMeter meter("occlum", *sys, traced);
    auto pid = meter.spawn("proxy_frontend",
                           {"proxy_frontend", std::to_string(total),
                            std::to_string(backlog)});
    out.check(pid.ok(), "spawn proxy_frontend");
    ClientResult result;
    if (pid.ok()) {
        meter.run(/*allow_idle=*/true); // frontend + backends parked
        std::vector<uint64_t> shifted;
        if (due) {
            uint64_t t0 = sys->clock().cycles();
            for (uint64_t d : *due) {
                shifted.push_back(t0 + d);
            }
        }
        result = drive_clients(out, meter, *sys, net,
                               due ? &shifted : nullptr, concurrency, total);
        meter.run(/*allow_idle=*/true); // frontend reaps its backends
        out.check(clean_exit(*sys, pid.value()) == 0, "proxy exit");
        for (int b = 1; b <= 4; ++b) {
            out.check(clean_exit(*sys, pid.value() + b) == 0,
                      format("backend %d exit", b));
        }
    }
    out.legs.push_back(meter.finish());
    return result;
}

struct ProxyBuilds {
    workloads::ProgramBuild frontend;
    workloads::ProgramBuild backend;
};

ProxyBuilds
build_proxy(PassOutput &out)
{
    return {build(out, workloads::proxy_frontend_source(), 768 << 10),
            build(out, workloads::proxy_backend_source(), 768 << 10)};
}

PassOutput
http_proxy(uint64_t seed, bool traced)
{
    PassOutput out;
    ProxyBuilds b = build_proxy(out);
    // A Poisson schedule conditioned on its count: kProxyRequests
    // arrival times uniform over the window, sorted. The offered rate
    // is exactly kProxyRate for every seed.
    Rng rng(seed ^ 0x687474702d707278ull);
    double window_s = kProxyRequests / kProxyRate;
    std::vector<uint64_t> due(kProxyRequests);
    for (uint64_t &d : due) {
        d = static_cast<uint64_t>(rng.next_double() * window_s *
                                  SimClock::kFrequencyHz);
    }
    std::sort(due.begin(), due.end());
    ClientResult r = proxy_leg(out, b.frontend, b.backend, &due, 0,
                               kProxyRequests, 256, traced);
    double span_s = SimClock::cycles_to_seconds(
        r.last_cycle > r.first_cycle ? r.last_cycle - r.first_cycle : 1);
    out.sim = {{"sim_p50_us", r.latency_us.p50()},
               {"sim_p99_us", r.latency_us.p99()},
               {"sim_rps", r.completed / span_s},
               {"gen.lag_p99_us", r.lag_us.p99()}};
    out.sim_latency_ms = r.latency_us.p99() / 1e3;
    out.sim_ops_per_s = r.completed / span_s;
    return out;
}

// ---------------------------------------------------------------------
// encfs-io: write, sequential read and random read of 3x the cache
// ---------------------------------------------------------------------

constexpr int kIoFiles = 6;
constexpr int kIoBlocksPerFile = 1024; // the inode maps at most 1144
constexpr int kIoRandomReads = 2048;
constexpr uint64_t kBlock = 4096;

std::string
fsio_source()
{
    // Files /d0../d5. Each block is the staged pattern with a 16-byte
    // header {id, id ^ tag}; id = file * 65536 + block, tag = the
    // pattern's first word. Readers check the header and 7 sampled
    // pattern words per block, and count mismatches.
    return subst(R"(
global byte pat[4096];
global byte buf[4096];
global byte rnd[@RND8@];
global byte path[8] = "/d0";
global int fds[@FILES@];
global int bad;
func set_path(f) { bstore(path + 2, '0' + f); return path; }
func stamp(id) {
    wstore(buf, id);
    wstore(buf + 8, id ^ wload(pat));
    return 0;
}
func check(id) {
    if (wload(buf) != id) { bad = bad + 1; return 0; }
    if (wload(buf + 8) != (id ^ wload(pat))) { bad = bad + 1; return 0; }
    var k = 1;
    while (k < 8) {
        if (wload(buf + k * 512) != wload(pat + k * 512)) {
            bad = bad + 1;
            return 0;
        }
        k = k + 1;
    }
    return 0;
}
func read_all(fd, dst, len) {
    var got = 0;
    var n = 0;
    while (got < len) {
        n = read(fd, dst + got, len - got);
        if (n <= 0) { return got; }
        got = got + n;
    }
    return got;
}
func main() {
    var f = 0;
    var b = 0;
    var i = 0;
    var id = 0;
    var t0 = 0;
    var t1 = 0;
    var t2 = 0;
    var t3 = 0;
    var fd = open("/pattern", 0);
    if (read_all(fd, pat, 4096) != 4096) { return 1; }
    close(fd);
    fd = open("/random", 0);
    if (read_all(fd, rnd, @RND8@) != @RND8@) { return 2; }
    close(fd);
    memcpy(buf, pat, 4096);

    t0 = time_ns();
    while (f < @FILES@) {
        fd = open(set_path(f), 0x242);
        if (fd < 0) { return 3; }
        b = 0;
        while (b < @BLOCKS@) {
            stamp(f * 65536 + b);
            if (write(fd, buf, 4096) != 4096) { return 4; }
            b = b + 1;
        }
        fsync(fd);
        close(fd);
        f = f + 1;
    }
    t1 = time_ns();
    f = 0;
    while (f < @FILES@) {
        fd = open(set_path(f), 0);
        if (fd < 0) { return 5; }
        b = 0;
        while (read_all(fd, buf, 4096) == 4096) {
            check(f * 65536 + b);
            b = b + 1;
        }
        if (b != @BLOCKS@) { bad = bad + 1; }
        close(fd);
        f = f + 1;
    }
    t2 = time_ns();
    f = 0;
    while (f < @FILES@) {
        fds[f] = open(set_path(f), 0);
        if (fds[f] < 0) { return 6; }
        f = f + 1;
    }
    while (i < @RND@) {
        id = wload(rnd + i * 8);
        fd = fds[id >> 16];
        lseek(fd, (id & 0xffff) * 4096, 0);
        if (read_all(fd, buf, 4096) != 4096) { bad = bad + 1; }
        check(id);
        i = i + 1;
    }
    t3 = time_ns();
    print("RESULT ");
    print_int(t1 - t0);
    print(" ");
    print_int(t2 - t1);
    print(" ");
    print_int(t3 - t2);
    print(" ");
    print_int(bad);
    println("");
    return 0;
}
)",
                 {{"RND", kIoRandomReads},
                  {"RND8", kIoRandomReads * 8},
                  {"FILES", kIoFiles},
                  {"BLOCKS", kIoBlocksPerFile}});
}

/** The content block `b` of file `f` must hold. */
void
expected_block(const Bytes &pattern, uint64_t f, uint64_t b, uint8_t *out)
{
    uint64_t id = f * 65536 + b;
    uint64_t tag = 0;
    std::memcpy(&tag, pattern.data(), 8);
    uint64_t mixed = id ^ tag;
    std::memcpy(out, pattern.data(), kBlock);
    std::memcpy(out, &id, 8);
    std::memcpy(out + 8, &mixed, 8);
}

PassOutput
encfs_io(uint64_t seed, bool traced)
{
    PassOutput out;
    workloads::ProgramBuild prog = build(out, fsio_source(), 0);

    Rng rng(seed ^ 0x656e6366732d696full);
    Bytes pattern(kBlock);
    for (uint8_t &byte : pattern) {
        byte = static_cast<uint8_t>(rng.next());
    }
    Bytes random(kIoRandomReads * 8);
    for (int i = 0; i < kIoRandomReads; ++i) {
        uint64_t id = rng.next_below(kIoFiles) * 65536 +
                      rng.next_below(kIoBlocksPerFile);
        std::memcpy(random.data() + i * 8, &id, 8);
    }

    sgx::Platform platform;
    host::HostFileStore files;
    {
        HostSpan span(out.stage_host_s);
        files.put("fsio", prog.occlum);
    }
    std::unique_ptr<libos::OcclumSystem> sys;
    {
        HostSpan span(out.init_host_s);
        sys = std::make_unique<libos::OcclumSystem>(
            platform, files, occlum_config(2, 1 << 20, 8 << 20, 1));
    }
    {
        HostSpan span(out.stage_host_s);
        out.check(sys->fs().write_file("/pattern", pattern).ok(),
                  "stage /pattern");
        out.check(sys->fs().write_file("/random", random).ok(),
                  "stage /random");
    }

    LegMeter meter("occlum", *sys, traced);
    auto pid = meter.spawn("fsio", {"fsio"});
    out.check(pid.ok(), "spawn fsio");
    bool ran = pid.ok() && meter.run();
    out.check(ran, "fsio ran to completion");
    LegRecord leg = meter.finish();
    uint64_t cycles = leg.sim_cycles;
    out.legs.push_back(std::move(leg));

    unsigned long long write_ns = 0, read_ns = 0, rand_ns = 0;
    long long bad = -1;
    if (ran) {
        out.check(clean_exit(*sys, pid.value()) == 0, "fsio exit");
        size_t at = sys->console().rfind("RESULT ");
        bool parsed = at != std::string::npos &&
                      std::sscanf(sys->console().c_str() + at,
                                  "RESULT %llu %llu %llu %lld", &write_ns,
                                  &read_ns, &rand_ns, &bad) == 4;
        out.check(parsed && write_ns > 0 && read_ns > 0 && rand_ns > 0,
                  "fsio RESULT line");
        out.check(bad == 0, "fsio in-SIP block checks");
        // Host-side digest, block by block, of what landed on EncFs.
        Bytes want(kBlock);
        for (int f = 0; f < kIoFiles; ++f) {
            auto content = sys->fs().read_file(format("/d%d", f));
            bool ok = content.ok() &&
                      content.value().size() == kIoBlocksPerFile * kBlock;
            for (int b = 0; ok && b < kIoBlocksPerFile; ++b) {
                expected_block(pattern, f, b, want.data());
                ok = std::memcmp(content.value().data() + b * kBlock,
                                 want.data(), kBlock) == 0;
            }
            out.check(ok, format("/d%d content", f));
        }
    }
    auto mbps = [](double bytes, unsigned long long ns) {
        return ns ? bytes / (ns / 1e9) / 1e6 : 0.0;
    };
    double file_bytes = double(kIoFiles) * kIoBlocksPerFile * kBlock;
    out.sim = {{"sim_write_mbps", mbps(file_bytes, write_ns)},
               {"sim_read_mbps", mbps(file_bytes, read_ns)},
               {"sim_randread_mbps",
                mbps(double(kIoRandomReads) * kBlock, rand_ns)}};
    double seconds = SimClock::cycles_to_seconds(cycles);
    out.sim_latency_ms = seconds * 1e3;
    out.sim_ops_per_s =
        (2.0 * kIoFiles * kIoBlocksPerFile + kIoRandomReads) / seconds;
    return out;
}

/** True when `got` matches a committed row printed with %.6g. */
bool
matches_row(const char *what, double got, double want)
{
    bool ok = std::fabs(got - want) <= std::fabs(want) * 5e-6;
    std::printf("self-check %-44s want %-12.6g got %-12.6g %s\n", what, want,
                got, ok ? "ok" : "MISMATCH");
    return ok;
}

} // namespace

const std::vector<Workload> &
all_workloads()
{
    static const std::vector<Workload> list = {
        {"gcc-pipeline", gcc_pipeline},
        {"sip-storm", sip_storm},
        {"http-proxy", http_proxy},
        {"encfs-io", encfs_io},
    };
    return list;
}

bool
self_check()
{
    bool ok = true;
    PassOutput out;

    // bench_fig5b_gcc's gzip.c row: its fixed 48 KiB text, same builds
    // and configurations (bench/results/2026-08-07-pr8-superblock).
    GccBuilds b = build_gcc(out);
    std::string text;
    while (text.size() < kGccSourceBytes) {
        text += "int f(int a, int b) { return a * 31 + b; }\n";
    }
    text.resize(kGccSourceBytes);
    auto [eip, occ] = gcc_legs(out, b, text, false);
    ok &= matches_row("fig5b gzip.c (5K LoC) occlum_us",
                      SimClock::cycles_to_seconds(occ) * 1e6, 107182);
    ok &= matches_row("fig5b gzip.c (5K LoC) eip_us",
                      SimClock::cycles_to_seconds(eip) * 1e6, 4.06194e+06);

    // bench_smp's proxy-c1 row: 8 closed-loop clients, 256 requests
    // (bench/results/2026-08-07-pr9-smp).
    ProxyBuilds p = build_proxy(out);
    ClientResult r = proxy_leg(out, p.frontend, p.backend, nullptr, 8, 256,
                               8 + 16, false);
    double rps =
        256 / SimClock::cycles_to_seconds(r.last_cycle - r.first_cycle);
    ok &= matches_row("smp proxy-c1 rps", rps, 10392.5);

    std::printf("self-check oracles: %llu checks, %llu failed\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    return ok && out.failed == 0;
}

} // namespace perfbench
