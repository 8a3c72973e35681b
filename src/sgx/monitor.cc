#include "sgx/monitor.h"

#include <cstdlib>

#include "base/log.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace occlum::sgx {

const char *
tcs_phase_name(TcsPhase phase)
{
    switch (phase) {
    case TcsPhase::kOutside: return "outside";
    case TcsPhase::kInside: return "inside";
    case TcsPhase::kAexed: return "aexed";
    }
    return "?";
}

const char *
transition_name(Transition event)
{
    switch (event) {
    case Transition::kEenter: return "EENTER";
    case Transition::kEexit: return "EEXIT";
    case Transition::kAex: return "AEX";
    case Transition::kEresume: return "ERESUME";
    case Transition::kBind: return "BIND";
    case Transition::kEenterRefused: return "EENTER-refused";
    case Transition::kEexitRefused: return "EEXIT-refused";
    case Transition::kAexRefused: return "AEX-refused";
    case Transition::kEresumeRefused: return "ERESUME-refused";
    case Transition::kBindRefused: return "BIND-refused";
    }
    return "?";
}

namespace {

bool
is_refusal(Transition event)
{
    switch (event) {
    case Transition::kEenterRefused:
    case Transition::kEexitRefused:
    case Transition::kAexRefused:
    case Transition::kEresumeRefused:
    case Transition::kBindRefused:
        return true;
    default:
        return false;
    }
}

/** The legal automaton: may `event` be *serviced* from `from`? */
bool
is_legal(Transition event, TcsPhase from)
{
    switch (event) {
    case Transition::kEenter:
        // EENTER needs a free SSA frame and an idle TCS. From kAexed
        // this is the SmashEx shape (NSSA=1, frame occupied); from
        // kInside the TCS is busy. Both must be refused, so a
        // *serviced* EENTER from either phase is a violation.
        return from == TcsPhase::kOutside;
    case Transition::kEexit:
        return from == TcsPhase::kInside;
    case Transition::kAex:
        // Nested AEX has nowhere to save state (single SSA frame).
        return from == TcsPhase::kInside;
    case Transition::kEresume:
        return from == TcsPhase::kAexed;
    case Transition::kBind:
        // Rebinding while the SSA frame holds an interrupted context
        // would orphan that context.
        return from != TcsPhase::kAexed;
    default:
        // Refusals are the defense working: legal from any phase.
        return true;
    }
}

/** Where a legal serviced transition lands. */
TcsPhase
next_phase(Transition event, TcsPhase from)
{
    switch (event) {
    case Transition::kEenter: return TcsPhase::kInside;
    case Transition::kEexit: return TcsPhase::kOutside;
    case Transition::kAex: return TcsPhase::kAexed;
    case Transition::kEresume: return TcsPhase::kInside;
    default: return from; // kBind and refusals keep the phase
    }
}

} // namespace

Result<OrderlinessMode>
parse_orderliness_mode(const std::string &text)
{
    if (text == "0") {
        return OrderlinessMode::kOff;
    }
    if (text == "1") {
        return OrderlinessMode::kRecord;
    }
    if (text == "strict" || text == "2") {
        return OrderlinessMode::kStrict;
    }
    return Error(ErrorCode::kInval,
                 "expected 0, 1, 2 or strict, got '" + text + "'");
}

TransitionMonitor::TransitionMonitor()
{
    const char *env = std::getenv("OCCLUM_ORDERLINESS");
    if (env != nullptr && *env != '\0') {
        auto mode = parse_orderliness_mode(env);
        // A typo read as the default mode would let a strict CI leg
        // pass without checking anything; fail loudly instead.
        OCC_CHECK_MSG(mode.ok(),
                      "OCCLUM_ORDERLINESS: " << mode.error().message);
        enabled_ = mode.value() != OrderlinessMode::kOff;
        strict_ = mode.value() == OrderlinessMode::kStrict;
    }
}

TransitionMonitor &
TransitionMonitor::instance()
{
    static TransitionMonitor monitor;
    return monitor;
}

int
TransitionMonitor::register_tcs(TcsPhase initial)
{
    int id = static_cast<int>(phases_.size());
    phases_.push_back(initial);
    return id;
}

TcsPhase
TransitionMonitor::phase(int tcs) const
{
    OCC_CHECK(tcs >= 0 && static_cast<size_t>(tcs) < phases_.size());
    return phases_[static_cast<size_t>(tcs)];
}

std::vector<TransitionRecord>
TransitionMonitor::recent() const
{
    std::vector<TransitionRecord> out;
    out.reserve(ring_count_);
    for (size_t i = 0; i < ring_count_; ++i) {
        size_t idx = (ring_head_ + kRingSize - ring_count_ + i) % kRingSize;
        out.push_back(ring_[idx]);
    }
    return out;
}

bool
TransitionMonitor::record(int tcs, Transition event, uint64_t cycles)
{
    if (!enabled_) {
        return true;
    }
    OCC_CHECK(tcs >= 0 && static_cast<size_t>(tcs) < phases_.size());
    TcsPhase &phase = phases_[static_cast<size_t>(tcs)];
    bool legal = is_legal(event, phase);

    if (ctr_events_ == nullptr) {
        auto &reg = trace::Registry::instance();
        ctr_events_ = &reg.counter("sgx.orderliness.events");
        ctr_violations_ = &reg.counter("sgx.orderliness.violations");
        ctr_refusals_ = &reg.counter("sgx.orderliness.refusals");
    }

    TransitionRecord rec;
    rec.cycles = cycles;
    rec.tcs = tcs;
    rec.pid = ctx_pid_;
    rec.core = ctx_core_;
    rec.event = event;
    rec.from = phase;
    rec.illegal = !legal;

    ring_[ring_head_] = rec;
    ring_head_ = (ring_head_ + 1) % kRingSize;
    if (ring_count_ < kRingSize) {
        ++ring_count_;
    }

    ++events_;
    ctr_events_->add();
    if (is_refusal(event)) {
        ++refusals_;
        ctr_refusals_->add();
    }
    if (legal) {
        phase = next_phase(event, phase);
        return true;
    }

    ++violations_;
    ctr_violations_->add();
    if (violation_log_.size() < kMaxViolationLog) {
        violation_log_.push_back(rec);
    }
    OCC_TRACE_INSTANT(kSgx, "sgx.orderliness.violation",
                      static_cast<uint64_t>(rec.pid));
    if (strict_) {
        OCC_PANIC("orderliness violation: "
                  << transition_name(event) << " from "
                  << tcs_phase_name(rec.from) << " on tcs " << tcs
                  << " (pid " << rec.pid << ", core " << rec.core
                  << ", cycle " << cycles << ")");
    }
    return false;
}

} // namespace occlum::sgx
