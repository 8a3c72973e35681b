/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   perfbench --self-check
 *
 * Runs passes of one workload until --seconds of host time have gone
 * (at least three), each on freshly built systems, and prints
 * human-readable tables followed by one JSON line:
 *   --trace 0: the end-to-end metrics, host times as medians;
 *   --trace 1: the per-layer metrics, from traced passes interleaved
 *              with untraced ones (the difference is trace overhead).
 * Every pass of one invocation must reproduce the first pass's
 * simulated metrics and counter deltas exactly, or perfbench exits 3.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/stats.h"
#include "harness.h"
#include "workloads.h"

extern char **environ;

using namespace occlum;
using namespace perfbench;

namespace {

constexpr size_t kMinPasses = 3;
constexpr int kMaxPasses = 128;

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Everything a pass must reproduce exactly, one fact per line. */
std::string
fingerprint(const PassOutput &p)
{
    std::string out;
    for (const auto &[name, value] : p.sim) {
        out += format("sim %s %.17g\n", name.c_str(), value);
    }
    out += format("latency %.17g\nops %.17g\nchecks %llu %llu\n",
                  p.sim_latency_ms, p.sim_ops_per_s,
                  static_cast<unsigned long long>(p.attempted),
                  static_cast<unsigned long long>(p.failed));
    for (const LegRecord &leg : p.legs) {
        out += format("leg %s cycles %llu syscalls %llu %.17g %.17g\n",
                      leg.name.c_str(),
                      static_cast<unsigned long long>(leg.sim_cycles),
                      static_cast<unsigned long long>(leg.syscall_count),
                      leg.syscall_p50, leg.syscall_p99);
        for (const auto &[name, value] : leg.counters) {
            out += leg.name + " " + name + " " + std::to_string(value) + "\n";
        }
    }
    return out;
}

/** First line where two fingerprints differ. */
std::string
first_difference(const std::string &a, const std::string &b)
{
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) {
        ++i;
    }
    size_t start = a.rfind('\n', i == 0 ? 0 : i - 1);
    start = start == std::string::npos ? 0 : start + 1;
    auto line = [&](const std::string &s) {
        size_t end = s.find('\n', start);
        return s.substr(start, end == std::string::npos ? end : end - start);
    };
    return "'" + line(a) + "' vs '" + line(b) + "'";
}

/**
 * Per-layer metrics over `legs` (one leg for a per-leg table, all of
 * a pass's legs for the JSON line). Counts and simulated self cycles
 * come from a traced pass; host times are medians over untraced ones.
 */
std::vector<Metric>
layer_metrics(const std::vector<const LegRecord *> &legs, double run_host_s,
              double harness_host_s)
{
    auto sum = [&](const std::string &name) {
        double total = 0;
        for (const LegRecord *leg : legs) {
            total += static_cast<double>(leg->counter(name));
        }
        return total;
    };
    auto steals = [&] {
        double total = 0;
        for (const LegRecord *leg : legs) {
            for (const auto &[name, value] : leg->counters) {
                if (name.starts_with("kernel.core") &&
                    name.ends_with(".steals")) {
                    total += static_cast<double>(value);
                }
            }
        }
        return total;
    };
    auto self = [&](trace::Category cat) {
        double total = 0;
        for (const LegRecord *leg : legs) {
            total += static_cast<double>(
                leg->self_cycles[static_cast<size_t>(cat)]);
        }
        return total;
    };
    // Syscall percentiles are not additive: take the system under test,
    // which every workload runs last.
    const LegRecord &last = *legs.back();
    double bc_hits = sum("vm.block_cache.hits");
    double fs_hits = sum("encfs.cache_hits");
    return {
        {"sgx.eenter", "count", sum("sgx.eenter")},
        {"sgx.eexit", "count", sum("sgx.eexit")},
        {"sgx.sim_self_cycles", "cycles", self(trace::Category::kSgx)},
        {"vm.block_cache.hit_ratio", "ratio",
         ratio(bc_hits, bc_hits + sum("vm.block_cache.misses"))},
        {"vm.block_cache.invalidations", "count",
         sum("vm.block_cache.invalidations")},
        {"vm.instructions", "count", sum("vm.instructions")},
        {"vm.quanta", "count", sum("vm.quanta")},
        {"vm.superblock.exec_hits", "count", sum("vm.superblock.exec_hits")},
        {"vm.superblock.promotions", "count",
         sum("vm.superblock.promotions")},
        {"vm.superblock.invalidations", "count",
         sum("vm.superblock.invalidations")},
        {"vm.sim_self_cycles", "cycles", self(trace::Category::kVm)},
        {"oskit.run_host_s", "s", run_host_s},
        {"oskit.run_host_ns_per_instr", "ns",
         ratio(run_host_s * 1e9, sum("vm.instructions"))},
        {"kernel.sched_visits", "count", sum("kernel.sched_visits")},
        {"kernel.steals", "count", steals()},
        {"kernel.deferred_retries", "count", sum("kernel.deferred_retries")},
        {"kernel.spawns", "count", sum("kernel.spawns")},
        {"oskit.sched_sim_self_cycles", "cycles",
         self(trace::Category::kSched)},
        {"kernel.syscalls", "count", sum("kernel.syscalls")},
        {"kernel.wakeups", "count", sum("kernel.wakeups")},
        {"kernel.wasted_retries", "count", sum("kernel.wasted_retries")},
        {"kernel.epoll_waits", "count", sum("kernel.epoll_waits")},
        {"kernel.syscall_cycles.p50", "cycles", last.syscall_p50},
        {"kernel.syscall_cycles.p99", "cycles", last.syscall_p99},
        {"libos.sim_self_cycles", "cycles", self(trace::Category::kLibos)},
        {"encfs.cache_hit_ratio", "ratio",
         ratio(fs_hits, fs_hits + sum("encfs.cache_misses"))},
        {"encfs.dev_reads", "count", sum("encfs.dev_reads")},
        {"encfs.dev_writes", "count", sum("encfs.dev_writes")},
        {"encfs.readahead_blocks", "count", sum("encfs.readahead_blocks")},
        {"encfs.evictions", "count", sum("encfs.evictions")},
        {"encfs.sim_self_cycles", "cycles", self(trace::Category::kFs)},
        {"net.bytes_sent", "bytes", sum("net.bytes_sent")},
        {"net.connects", "count", sum("net.connects")},
        {"host.ocall_sim_self_cycles", "cycles",
         self(trace::Category::kOcall)},
        {"host.client_host_s", "s", harness_host_s},
    };
}

std::string
json_metrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (const Metric &m : metrics) {
        // A failed leg can leave a rate at inf, which JSON cannot hold;
        // such a run already reports correct: false.
        double value = std::isfinite(m.value) ? m.value : 0;
        out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      out.size() > 1 ? ", " : "", m.name.c_str(), value,
                      m.unit.c_str());
    }
    return out + "}";
}

void
print_metrics(const char *title, const std::vector<Metric> &metrics)
{
    Table table(title);
    table.set_header({"metric", "value", "unit"});
    for (const Metric &m : metrics) {
        table.add_row({m.name, format("%.6g", m.value), m.unit});
    }
    table.print();
}

/** Names of the OCCLUM_* variables that would change what is measured. */
constexpr const char *kRefusedEnv[] = {
    "OCCLUM_VM_SUPERBLOCK",
    "OCCLUM_CRYPTO_REFERENCE",
    "OCCLUM_FAULT_PLAN",
    "OCCLUM_ORDERLINESS",
};

/**
 * Print where a result comes from; returns an error message when host
 * metrics from this build or environment would not be comparable.
 */
std::string
provenance(const std::string &source_id)
{
    std::string flags = PERFBENCH_CXX_FLAGS;
    std::string sanitizers;
    for (size_t at = flags.find("-fsanitize="); at != std::string::npos;
         at = flags.find("-fsanitize=", at + 1)) {
        size_t end = flags.find(' ', at);
        sanitizers += (sanitizers.empty() ? "" : ",") +
                      flags.substr(at + 11, end == std::string::npos
                                                ? end
                                                : end - at - 11);
    }
#ifdef OCCLUM_TRACE_DISABLED
    const bool tracing = false;
#else
    const bool tracing = true;
#endif
    std::string env;
    std::string refused;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "OCCLUM_", 7) != 0) {
            continue;
        }
        env += (env.empty() ? "" : " ") + std::string(*e);
        for (const char *name : kRefusedEnv) {
            size_t len = std::strlen(name);
            if (std::strncmp(*e, name, len) == 0 && (*e)[len] == '=') {
                refused += std::string(name) + " ";
            }
        }
    }
    std::printf("provenance: source %s, build %s, sanitizers [%s], tracing "
                "%s, nproc %u, env [%s]\n",
                source_id.c_str(), PERFBENCH_BUILD_TYPE, sanitizers.c_str(),
                tracing ? "compiled in" : "compiled out",
                std::thread::hardware_concurrency(), env.c_str());
    if (!sanitizers.empty()) {
        return "refusing to report host metrics from a sanitizer build";
    }
    if (!refused.empty()) {
        return "refusing to run with " + refused +
               "set: it changes what is measured";
    }
    if (!tracing) {
        return "perfbench needs the trace hooks compiled in";
    }
    return "";
}

double
peak_rss_mb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--source-id <id>]\n"
                 "       perfbench --self-check\n"
                 "workloads:");
    for (const Workload &w : all_workloads()) {
        std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string source_id = "unknown";
    uint64_t seed = 1;
    double seconds = 10;
    int trace_mode = 0;
    bool check_only = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--self-check") {
            check_only = true;
        } else if (arg == "--workload" && has_value) {
            workload_name = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            trace_mode = std::atoi(argv[++i]);
        } else if (arg == "--source-id" && has_value) {
            source_id = argv[++i];
        } else {
            return usage();
        }
    }

    std::string refusal = provenance(source_id);
    if (!refusal.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", refusal.c_str());
        return 2;
    }
    if (check_only) {
        return self_check() ? 0 : 1;
    }
    const Workload *workload = nullptr;
    for (const Workload &w : all_workloads()) {
        if (workload_name == w.name) {
            workload = &w;
        }
    }
    if (!workload || (trace_mode != 0 && trace_mode != 1)) {
        return usage();
    }
    const bool traced_run = trace_mode == 1;

    // Passes until the time is used (a traced run alternates untraced
    // and traced passes); every one must reproduce the first exactly.
    std::vector<PassOutput> plain;
    std::vector<PassOutput> traced;
    std::string reference;
    HostClock::time_point start = HostClock::now();
    // A traced run needs two passes of each kind for its medians.
    const size_t min_passes = traced_run ? 4 : kMinPasses;
    for (int pass = 0; pass < kMaxPasses; ++pass) {
        bool enough = plain.size() + traced.size() >= min_passes &&
                      since(start) >= seconds;
        if (enough) {
            break;
        }
        bool trace_this = traced_run && pass % 2 == 1;
        PassOutput out = workload->pass(seed, trace_this);
        std::string print = fingerprint(out);
        if (reference.empty()) {
            reference = print;
        } else if (print != reference) {
            std::fprintf(stderr,
                         "perfbench: nondeterminism on seed %llu, pass %d: "
                         "%s\n",
                         static_cast<unsigned long long>(seed), pass,
                         first_difference(reference, print).c_str());
            return 3;
        }
        (trace_this ? traced : plain).push_back(std::move(out));
    }

    const PassOutput &first = plain.front();
    auto median_of = [](const std::vector<PassOutput> &passes, auto get) {
        std::vector<double> values;
        for (const PassOutput &p : passes) {
            values.push_back(get(p));
        }
        return median(values);
    };
    std::vector<PassOutput> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    double host_s = median_of(plain, [](auto &p) { return p.host_s(); });
    double setup_s = median_of(all, [](auto &p) { return p.setup_s(); });

    uint64_t violations = 0;
    for (const LegRecord &leg : first.legs) {
        violations += leg.violations;
    }
    uint64_t failed = first.failed + violations;
    uint64_t attempted = first.attempted + first.legs.size();

    std::printf("\nworkload %s, seed %llu: %zu passes (%zu traced) in "
                "%.1f s; every pass reproduced pass 0 exactly\n",
                workload->name, static_cast<unsigned long long>(seed),
                all.size(), traced.size(), since(start));
    std::vector<Metric> e2e = {
        {"host_s", "s", host_s},
        {"setup_s", "s", setup_s},
        {"host_rss_mb", "MB", peak_rss_mb()},
        {"sim_latency_ms", "ms", first.sim_latency_ms},
        {"sim_ops_per_s", "1/s", first.sim_ops_per_s},
    };
    std::vector<Metric> shown = e2e;
    for (const auto &[name, value] : first.sim) {
        shown.push_back({name, "sim", value});
    }
    shown.push_back({"error_rate", "ratio", ratio(failed, attempted)});
    shown.push_back({"sgx.orderliness.violations", "count",
                     static_cast<double>(violations)});
    print_metrics("end to end (host times: median over untraced passes)",
                  shown);
    for (const std::string &f : first.failures) {
        std::printf("FAILED: %s\n", f.c_str());
    }

    std::vector<Metric> result = e2e;
    if (traced_run) {
        // Host seconds of leg `i` (all legs when i < 0), median over
        // untraced passes: inside the kernel's calls, and the rest of
        // the timed phase, which is the harness's own loop and clients.
        auto leg_median = [&](int i, bool in_kernel) {
            return median_of(plain, [&](auto &p) {
                double s = 0;
                for (size_t k = 0; k < p.legs.size(); ++k) {
                    const LegRecord &leg = p.legs[k];
                    if (i < 0 || k == static_cast<size_t>(i)) {
                        s += in_kernel ? leg.run_host_s
                                       : leg.host_s - leg.run_host_s;
                    }
                }
                return s;
            });
        };
        const PassOutput &t = traced.front();
        std::vector<const LegRecord *> legs;
        uint64_t dropped = 0;
        for (size_t i = 0; i < t.legs.size(); ++i) {
            const LegRecord &leg = t.legs[i];
            legs.push_back(&leg);
            dropped += leg.trace_dropped;
            print_metrics(
                format("per layer, %s leg%s", leg.name.c_str(),
                       leg.trace_dropped ? " (category split PARTIAL)" : "")
                    .c_str(),
                layer_metrics({&leg}, leg_median(i, true),
                              leg_median(i, false)));
        }
        double traced_host = median_of(traced, [](auto &p) {
            return p.host_s();
        });
        result = {
            {"toolchain.build_host_s", "s",
             median_of(plain, [](auto &p) { return p.build_host_s; })},
            {"sgx.system_init_host_s", "s",
             median_of(plain, [](auto &p) { return p.init_host_s; })},
            {"host.stage_host_s", "s",
             median_of(plain, [](auto &p) { return p.stage_host_s; })},
        };
        for (Metric &m :
             layer_metrics(legs, leg_median(-1, true), leg_median(-1, false))) {
            result.push_back(std::move(m));
        }
        result.push_back({"trace.overhead_pct", "%",
                          (ratio(traced_host, host_s) - 1) * 100});
        result.push_back({"trace.dropped_events", "count",
                          static_cast<double>(dropped)});
        print_metrics("per layer, whole pass (JSON below)", result);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                json_metrics(result).c_str());
    return 0;
}
