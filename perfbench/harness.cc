#include "harness.h"

#include "sgx/monitor.h"
#include "trace/metrics.h"

using namespace occlum;

namespace perfbench {

namespace {

/** Ring size per drain; one scheduler round records far fewer. */
constexpr size_t kInitialRing = 1 << 16;
constexpr size_t kMaxRing = 1 << 22;

} // namespace

LegMeter::LegMeter(std::string name, oskit::Kernel &sys, bool traced)
    : sys_(&sys), traced_(traced)
{
    record_.name = std::move(name);
    trace::Registry::instance().reset();
    violations_start_ = sgx::TransitionMonitor::instance().violations();
    if (traced_) {
        ring_capacity_ = kInitialRing;
        trace::Tracer &tracer = trace::Tracer::instance();
        tracer.bind_clock(&sys.clock());
        tracer.enable(ring_capacity_);
    }
    sim_start_ = sys.clock().cycles();
    host_start_ = HostClock::now();
}

LegMeter::~LegMeter()
{
    if (traced_) {
        trace::Tracer::instance().disable();
        trace::Tracer::instance().bind_clock(nullptr);
    }
}

Result<int>
LegMeter::spawn(const std::string &path, const std::vector<std::string> &argv)
{
    Result<int> pid = [&] {
        HostSpan span(record_.run_host_s);
        return sys_->spawn(path, argv);
    }();
    drain_trace();
    return pid;
}

bool
LegMeter::step_round()
{
    bool progress;
    {
        HostSpan span(record_.run_host_s);
        progress = sys_->step_round();
    }
    drain_trace();
    return progress;
}

void
LegMeter::idle_until(uint64_t when)
{
    {
        OCC_TRACE_SPAN(kSched, "sched.idle");
        sys_->clock().advance(when - sys_->clock().cycles());
    }
    drain_trace();
}

bool
LegMeter::run(bool allow_idle)
{
    // The same call sequence as Kernel::run, so simulated results are
    // identical to the figure benches that call it directly.
    while (!sys_->all_exited()) {
        if (step_round()) {
            continue;
        }
        uint64_t wake = sys_->next_wake_time();
        if (wake != ~0ull && wake > sys_->clock().cycles()) {
            idle_until(wake);
            continue;
        }
        if (wake == ~0ull || !step_round()) {
            return allow_idle;
        }
    }
    return true;
}

void
LegMeter::drain_trace()
{
    if (!traced_) {
        return;
    }
    trace::Tracer &tracer = trace::Tracer::instance();
    if (tracer.dropped() > 0) {
        // The round outgrew the ring: none of its events reach the
        // split (which is then marked partial), spans whose ends may be
        // gone are forgotten, and the ring grows so later rounds fit.
        record_.trace_dropped += tracer.recorded();
        open_.clear();
        ring_capacity_ = std::min(ring_capacity_ * 4, kMaxRing);
        tracer.enable(ring_capacity_);
        return;
    }
    // Streaming form of trace::self_cycles_by_category: the time
    // between consecutive events belongs to the innermost open span.
    // With cores > 1 each core replays the round from its start time,
    // so the clock steps back between cores; those gaps count as 0 and
    // the split is in core-cycles.
    for (const trace::Event &e : tracer.events()) {
        if (!open_.empty()) {
            auto &[cat, last] = open_.back();
            record_.self_cycles[static_cast<size_t>(cat)] +=
                e.ts > last ? e.ts - last : 0;
            last = e.ts;
        }
        if (e.type == trace::EventType::kBegin) {
            open_.emplace_back(e.cat, e.ts);
        } else if (e.type == trace::EventType::kEnd && !open_.empty()) {
            open_.pop_back();
            if (!open_.empty()) {
                open_.back().second = e.ts;
            }
        }
    }
    tracer.clear();
}

LegRecord
LegMeter::finish()
{
    OCC_CHECK(!finished_);
    finished_ = true;
    drain_trace();
    record_.host_s = since(host_start_);
    record_.sim_cycles = sys_->clock().cycles() - sim_start_;
    const trace::Registry &registry = trace::Registry::instance();
    for (const auto &[name, counter] : registry.counters()) {
        // Entries registered by an earlier leg read 0 here; leaving them
        // out keeps the snapshot independent of what ran before.
        if (counter.value() != 0) {
            record_.counters[name] = counter.value();
        }
    }
    auto hist = registry.histograms().find("kernel.syscall_cycles");
    if (hist != registry.histograms().end()) {
        record_.syscall_count = hist->second.count();
        record_.syscall_p50 = hist->second.p50();
        record_.syscall_p99 = hist->second.p99();
    }
    record_.violations =
        sgx::TransitionMonitor::instance().violations() - violations_start_;
    return record_;
}

double
PassOutput::host_s() const
{
    double total = 0;
    for (const LegRecord &leg : legs) {
        total += leg.host_s;
    }
    return total;
}

void
PassOutput::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 8) {
            failures.push_back(what);
        }
    }
}

} // namespace perfbench
