/**
 * @file
 * Measurement plumbing shared by the perfbench workloads.
 *
 * Layers are measured from outside the simulator: the harness times
 * the calls it makes into each module's public interface (toolchain
 * builds, system constructors, EncFs staging, Kernel::spawn and
 * Kernel::step_round, its own network clients) with a steady host
 * clock, and reads the counters and histograms trace::Registry keeps.
 * A traced pass also enables trace::Tracer and drains its ring after
 * every scheduler round into streaming per-category self cycles, so
 * the category split cannot silently truncate when the ring wraps.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "oskit/kernel.h"
#include "trace/trace.h"

namespace perfbench {

using HostClock = std::chrono::steady_clock;

/** Host seconds elapsed since `start`. */
inline double
since(HostClock::time_point start)
{
    return std::chrono::duration<double>(HostClock::now() - start).count();
}

/** Adds the host seconds of its own lifetime to `*sink`. */
class HostSpan
{
  public:
    explicit HostSpan(double &sink) : sink_(&sink), start_(HostClock::now())
    {}
    ~HostSpan() { *sink_ += since(start_); }

    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    double *sink_;
    HostClock::time_point start_;
};

/** What one system's timed phase produced. */
struct LegRecord {
    std::string name;
    /** Simulated cycles from the first spawn to the last exit. */
    uint64_t sim_cycles = 0;
    /** Host seconds of the whole timed phase. */
    double host_s = 0;
    /** Host seconds inside Kernel::spawn / Kernel::step_round. */
    double run_host_s = 0;
    /** Nonzero trace::Registry counters, zeroed when the leg began. */
    std::map<std::string, uint64_t> counters;
    /** kernel.syscall_cycles over the leg. */
    uint64_t syscall_count = 0;
    double syscall_p50 = 0;
    double syscall_p99 = 0;
    /** Simulated self cycles per trace category (traced passes). */
    std::array<uint64_t, occlum::trace::kNumCategories> self_cycles{};
    /** Trace events lost to ring wraparound (split is then partial). */
    uint64_t trace_dropped = 0;
    /** Orderliness-monitor violations during the leg. */
    uint64_t violations = 0;

    uint64_t
    counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
};

/**
 * Drives one system's timed phase. Construction zeroes the metrics
 * registry (so every counter reads as this leg's delta) and, for a
 * traced pass, starts the tracer on the system's clock. Every call
 * into the kernel goes through spawn()/step_round()/run(), which time
 * it and drain the trace ring.
 */
class LegMeter
{
  public:
    LegMeter(std::string name, occlum::oskit::Kernel &sys, bool traced);
    ~LegMeter();

    LegMeter(const LegMeter &) = delete;
    LegMeter &operator=(const LegMeter &) = delete;

    occlum::Result<int> spawn(const std::string &path,
                              const std::vector<std::string> &argv);

    /** One Kernel::step_round(). */
    bool step_round();

    /**
     * Kernel::run(allow_idle) as a sequence of public calls: rounds
     * until every process exits, advancing the clock over blocking
     * waits. Returns false (instead of panicking like Kernel::run)
     * when processes stay blocked with nothing left to wake them and
     * `allow_idle` is not set.
     */
    bool run(bool allow_idle = false);

    /** Advance the simulated clock to `when` (an idle wait). */
    void idle_until(uint64_t when);

    /** Stop the clocks and snapshot the registry. */
    LegRecord finish();

  private:
    void drain_trace();

    occlum::oskit::Kernel *sys_;
    bool traced_;
    LegRecord record_;
    HostClock::time_point host_start_;
    uint64_t sim_start_ = 0;
    uint64_t violations_start_ = 0;
    /** Open spans (category, cycle of the last attributed event). */
    std::vector<std::pair<occlum::trace::Category, uint64_t>> open_;
    size_t ring_capacity_ = 0;
    bool finished_ = false;
};

/** Everything one pass of a workload reports. */
struct PassOutput {
    /**
     * Host seconds: toolchain builds, system constructors, and staging
     * (program images into the host store, inputs onto EncFs).
     */
    double build_host_s = 0;
    double init_host_s = 0;
    double stage_host_s = 0;
    std::vector<LegRecord> legs;
    /** The workload's own simulated metrics, by name, in print order. */
    std::vector<std::pair<std::string, double>> sim;
    /** Uniform end-to-end figures (see README.md for each workload). */
    double sim_latency_ms = 0;
    double sim_ops_per_s = 0;
    /** Oracle checks made and failed; messages of the first failures. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    double setup_s() const
    {
        return build_host_s + init_host_s + stage_host_s;
    }
    double host_s() const;

    /** Record one oracle check. */
    void check(bool ok, const std::string &what);
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
