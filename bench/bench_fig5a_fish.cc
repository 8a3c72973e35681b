/**
 * @file
 * Figure 5a: the fish-shell (UnixBench-style) workload — a process-
 * intensive script where every command runs in its own process,
 * connected by pipes.
 *
 * Paper: Linux 1.4 ms | Occlum 19.5 ms (13.9x slower than Linux, no
 * on-demand loading) | Graphene 9.5 s (~500x slower than Occlum).
 *
 * The utilities are padded to ~768 KiB, the footprint of a static
 * musl-linked coreutil, which is what makes Occlum's eager in-enclave
 * loading visible against Linux's demand paging.
 */
#include "bench/bench_util.h"

using namespace occlum;

namespace {

constexpr uint64_t kUtilPad = 768 << 10;

const char *kUtilities[] = {"gen", "sort", "grep", "od", "wc"};

template <typename Store>
void
install_all(Store &files, bool occlum_flavor,
            const std::map<std::string, workloads::ProgramBuild> &builds)
{
    for (const auto &[name, build] : builds) {
        if (occlum_flavor) {
            files.put(name, build.occlum);
        } else {
            files.put(name, build.plain);
        }
    }
}

} // namespace

int
main()
{
    std::map<std::string, workloads::ProgramBuild> builds;
    builds.emplace("fish",
                   workloads::build_program(
                       workloads::fish_driver_source(), kUtilPad));
    for (const char *util : kUtilities) {
        builds.emplace(util, workloads::build_program(
                                 workloads::fish_utility_source(util),
                                 kUtilPad));
    }

    Table table("Fig 5a: fish shell script (per-iteration time)");
    table.set_header({"system", "time / iteration", "vs Linux",
                      "vs Occlum"});

    const std::vector<std::string> argv = {"fish", "1"};

    SimClock linux_clock;
    host::HostFileStore linux_files;
    install_all(linux_files, false, builds);
    baseline::LinuxSystem linux_sys(linux_clock, linux_files);
    double linux_s = bench::timed_run(linux_sys, "fish", argv);

    sgx::Platform occ_platform;
    host::HostFileStore occ_files;
    install_all(occ_files, true, builds);
    libos::OcclumSystem occ_sys(occ_platform, occ_files,
                                bench::occlum_config(10));
    double occ_s = bench::timed_run(occ_sys, "fish", argv);

    sgx::Platform eip_platform;
    host::HostFileStore eip_files;
    install_all(eip_files, false, builds);
    baseline::EipSystem eip_sys(eip_platform, eip_files, {});
    double eip_s = bench::timed_run(eip_sys, "fish", argv);

    table.add_row({"Linux", format_time_us(linux_s * 1e6), "1.0x", ""});
    table.add_row({"Occlum", format_time_us(occ_s * 1e6),
                   format("%.1fx slower", occ_s / linux_s), "1.0x"});
    table.add_row({"Graphene-like (EIP)", format_time_us(eip_s * 1e6),
                   format("%.0fx slower", eip_s / linux_s),
                   format("%.0fx slower", eip_s / occ_s)});
    table.print();
    std::printf("\nPaper: Linux 1.4ms, Occlum 19.5ms (13.9x), "
                "Graphene 9.5s (~490x Occlum)\n");
    bench::JsonReport report("fig5a_fish");
    report.add("linux", "iteration_us", linux_s * 1e6);
    report.add("occlum", "iteration_us", occ_s * 1e6);
    report.add("eip", "iteration_us", eip_s * 1e6);
    report.write();
    return 0;
}
