/**
 * @file
 * Figure 7b: where the cycles go.
 *
 * Part 1 — enclave-wide cycle attribution, derived from trace spans:
 * the tracer is bound to the platform clock and enabled around an
 * Occlum encrypted-FS workload (sequential write + cold read); the
 * recorded span tree is replayed with self_cycles_by_category() to
 * split the run into user / transition / LibOS / FS / OCALL / sched
 * components. This replaces hand-maintained counters: any hot path
 * with an OCC_TRACE_SPAN shows up automatically. The paper's headline
 * (§9.2) is visible directly: syscalls never cross the enclave
 * boundary, so every transition is an OCALL's EEXIT + EENTER at the
 * EncFs device edge, and the OCALL row is the host's device time.
 *
 * Part 2 — decomposing the MMDSFI overhead into its three sources —
 * confining control transfers, memory stores, and memory loads — for
 * the naive instrumentation and the §4.3 range-analysis-optimized
 * instrumentation.
 *
 * Paper: optimizations cut the store-confinement overhead from 10.1%
 * to 4.3% and the load-confinement overhead from 39.6% to 25.5%;
 * control-transfer confinement is unaffected.
 */
#include "bench/bench_util.h"

#include "trace/export.h"
#include "trace/metrics.h"
#include "trace/trace.h"

using namespace occlum;

namespace {

// ---------------------------------------------------------------------
// Part 1: trace-span cycle attribution on the encrypted-FS workload
// ---------------------------------------------------------------------

void
run_fs_phase(oskit::Kernel &sys, const std::string &prog, uint64_t chunk,
             uint64_t total)
{
    sys.clear_console();
    std::vector<std::string> argv = {prog, std::to_string(chunk)};
    if (total != 0) {
        argv.push_back(std::to_string(total));
    }
    auto pid = sys.spawn(prog, argv);
    OCC_CHECK_MSG(pid.ok(), pid.error().message);
    sys.run();
    OCC_CHECK_MSG(bench::parse_result(sys.console()).has_value(),
                  "no RESULT from " + prog);
}

void
trace_breakdown(bench::JsonReport &report)
{
    workloads::ProgramBuild writer =
        workloads::build_program(workloads::file_write_bench_source());
    workloads::ProgramBuild reader =
        workloads::build_program(workloads::file_read_bench_source());

    sgx::Platform platform;
    host::HostFileStore files;
    files.put("fwrite", writer.occlum);
    files.put("fread", reader.occlum);
    auto config = bench::occlum_config();
    config.fs_blocks = 1 << 15;
    config.fs_cache_blocks = 64; // cold reads: every block pays an OCALL
    libos::OcclumSystem sys(platform, files, config);

    // Trace only the workload, not enclave construction: the span
    // stream starts after EINIT so the breakdown reflects steady
    // state, like the paper's measurements.
    auto &tracer = trace::Tracer::instance();
    auto &registry = trace::Registry::instance();
    registry.reset();
    tracer.bind_clock(&platform.clock());
    tracer.enable(1 << 18);
    uint64_t t0 = platform.clock().cycles();

    run_fs_phase(sys, "fwrite", 4096, 1 << 20);
    run_fs_phase(sys, "fread", 4096, 0);

    uint64_t total = platform.clock().cycles() - t0;
    tracer.disable();
    // A wrapped ring has lost the begins of its oldest spans, and the
    // replay below would silently under-count them.
    OCC_CHECK_MSG(tracer.dropped() == 0,
                  "trace ring dropped " << tracer.dropped()
                                        << " events; enlarge it");
    std::vector<trace::Event> events = tracer.events();
    auto self = trace::self_cycles_by_category(events);
    tracer.bind_clock(nullptr);

    struct Component {
        const char *label;
        trace::Category cat;
    };
    const Component components[] = {
        {"user code (OVM)", trace::Category::kVm},
        {"enclave transitions", trace::Category::kSgx},
        {"LibOS syscalls", trace::Category::kLibos},
        {"FS + crypto", trace::Category::kFs},
        {"OCALLs (device I/O)", trace::Category::kOcall},
        {"scheduler", trace::Category::kSched},
    };

    Table table("Fig 7b (part 1): cycle attribution from trace spans, "
                "encrypted-FS workload");
    table.set_header({"component", "Mcycles", "share"});
    uint64_t attributed = 0;
    for (const Component &c : components) {
        uint64_t cycles = self[static_cast<size_t>(c.cat)];
        attributed += cycles;
        table.add_row({c.label, format("%.2f", cycles / 1e6),
                       format("%.1f%%", 100.0 * cycles / total)});
        report.add(c.label, "mcycles", cycles / 1e6);
        report.add(c.label, "share_pct", 100.0 * cycles / total);
    }
    uint64_t other = total > attributed ? total - attributed : 0;
    table.add_row({"untracked (harness)", format("%.2f", other / 1e6),
                   format("%.1f%%", 100.0 * other / total)});
    table.add_row({"TOTAL", format("%.2f", total / 1e6), "100%"});
    table.print();

    std::printf("trace: %llu events recorded, %llu dropped\n",
                (unsigned long long)tracer.recorded(),
                (unsigned long long)tracer.dropped());

    // Syscall latency distribution, from the kernel's histogram.
    auto &hist = registry.histogram("kernel.syscall_cycles");
    std::printf("syscalls: %llu dispatched; latency cycles p50=%.0f "
                "p95=%.0f p99=%.0f max=%llu\n",
                (unsigned long long)hist.count(), hist.p50(),
                hist.p95(), hist.p99(),
                (unsigned long long)hist.max());
    std::printf("sgx transitions: eenter=%llu eexit=%llu aex=%llu "
                "(syscalls are function calls — no transition per "
                "syscall)\n",
                (unsigned long long)registry.counter("sgx.eenter")
                    .value(),
                (unsigned long long)registry.counter("sgx.eexit")
                    .value(),
                (unsigned long long)registry.counter("sgx.aex").value());
    std::printf("encfs: cache hits=%llu misses=%llu dev reads=%llu "
                "writes=%llu\n",
                (unsigned long long)registry.counter("encfs.cache_hits")
                    .value(),
                (unsigned long long)registry
                    .counter("encfs.cache_misses")
                    .value(),
                (unsigned long long)registry.counter("encfs.dev_reads")
                    .value(),
                (unsigned long long)registry.counter("encfs.dev_writes")
                    .value());
    report.add("syscalls", "p50_cycles", hist.p50());
    report.add("syscalls", "p95_cycles", hist.p95());
    report.add("syscalls", "p99_cycles", hist.p99());

    Status written =
        trace::write_chrome_trace("fig7b.trace.json",
                                  trace::Tracer::instance());
    if (written.ok()) {
        std::printf("chrome trace written to fig7b.trace.json "
                    "(load in chrome://tracing or Perfetto)\n");
    }
}

// ---------------------------------------------------------------------
// Part 2: MMDSFI overhead decomposition (differential runs)
// ---------------------------------------------------------------------

double
run_variant(const std::string &source,
            toolchain::InstrumentOptions instrument)
{
    toolchain::CompileOptions options;
    options.instrument = instrument;
    options.heap_size = 2 << 20;
    auto out = toolchain::compile(source, options);
    OCC_CHECK_MSG(out.ok(), out.error().message);
    SimClock clock;
    host::HostFileStore files;
    files.put("kern", out.value().image.serialize());
    baseline::LinuxSystem sys(clock, files);
    auto pid = sys.spawn("kern", {"kern"});
    OCC_CHECK(pid.ok());
    uint64_t after_spawn = clock.cycles();
    sys.run();
    OCC_CHECK(sys.exit_code(pid.value()).ok());
    return static_cast<double>(clock.cycles() - after_spawn);
}

} // namespace

int
main()
{
    bench::JsonReport report("fig7b_breakdown");
    trace_breakdown(report);

    // Accumulate overhead components across all kernels.
    Aggregate ctrl_naive, store_naive, load_naive;
    Aggregate ctrl_opt, store_opt, load_opt;

    for (const std::string &name : workloads::spec_kernel_names()) {
        std::string src = workloads::spec_kernel_source(name);
        double base = run_variant(src, {false, false, false, false});

        auto pct = [&](double v) { return v / base - 1.0; };

        // Naive: no range-analysis optimizations.
        double n_cfi = run_variant(src, {true, false, false, false});
        double n_st = run_variant(src, {true, true, false, false});
        double n_all = run_variant(src, {true, true, true, false});
        ctrl_naive.add(pct(n_cfi));
        store_naive.add(pct(n_st) - pct(n_cfi));
        load_naive.add(pct(n_all) - pct(n_st));

        // Optimized: redundant-check elimination + loop hoisting.
        double o_cfi = run_variant(src, {true, false, false, true});
        double o_st = run_variant(src, {true, true, false, true});
        double o_all = run_variant(src, {true, true, true, true});
        ctrl_opt.add(pct(o_cfi));
        store_opt.add(pct(o_st) - pct(o_cfi));
        load_opt.add(pct(o_all) - pct(o_st));
    }

    Table table("Fig 7b (part 2): MMDSFI overhead breakdown (mean over"
                " SPEC-like kernels)");
    table.set_header({"component", "naive", "+ optimizations",
                      "paper naive", "paper optimized"});
    table.add_row({"control transfers",
                   format("%.1f%%", 100 * ctrl_naive.mean()),
                   format("%.1f%%", 100 * ctrl_opt.mean()), "~5%",
                   "~5%"});
    table.add_row({"memory stores",
                   format("%.1f%%", 100 * store_naive.mean()),
                   format("%.1f%%", 100 * store_opt.mean()), "10.1%",
                   "4.3%"});
    table.add_row({"memory loads",
                   format("%.1f%%", 100 * load_naive.mean()),
                   format("%.1f%%", 100 * load_opt.mean()), "39.6%",
                   "25.5%"});
    table.add_row(
        {"TOTAL",
         format("%.1f%%", 100 * (ctrl_naive.mean() + store_naive.mean() +
                                 load_naive.mean())),
         format("%.1f%%", 100 * (ctrl_opt.mean() + store_opt.mean() +
                                 load_opt.mean())),
         "~55%", "~36%"});
    table.print();

    report.add("mmdsfi_ctrl", "naive_pct", 100 * ctrl_naive.mean());
    report.add("mmdsfi_ctrl", "optimized_pct", 100 * ctrl_opt.mean());
    report.add("mmdsfi_store", "naive_pct", 100 * store_naive.mean());
    report.add("mmdsfi_store", "optimized_pct", 100 * store_opt.mean());
    report.add("mmdsfi_load", "naive_pct", 100 * load_naive.mean());
    report.add("mmdsfi_load", "optimized_pct", 100 * load_opt.mean());
    report.write();
    return 0;
}
