/**
 * @file
 * Guardian-style transition-orderliness monitor (DESIGN.md §9).
 *
 * Every SgxThread reports its enclave transitions — EENTER, EEXIT,
 * AEX, ERESUME, plus the SMP kernel's TCS bind/rebind events — to a
 * process-wide recorder that checks the sequence online against the
 * legal per-TCS automaton:
 *
 *       EENTER                AEX
 *   kOutside ──────▶ kInside ──────▶ kAexed
 *       ◀────── EEXIT   ◀────── ERESUME
 *
 * BIND (re-pointing a TCS at another core's CPU) is legal from
 * kInside or kOutside but never from kAexed: the single SSA frame
 * (NSSA=1) holds the interrupted context until ERESUME, so a rebind
 * would orphan it. Likewise EENTER from kAexed is the SmashEx attack
 * shape — re-entering during exception handling with no free SSA
 * frame — and must surface as a *refused* transition, never a
 * serviced one.
 *
 * Refused transitions (k*Refused) are legal to record from any phase
 * and never advance it: they are the defense working. A violation is
 * a *serviced* transition taken from the wrong phase — something the
 * SgxThread state machine should make impossible — so the monitor is
 * cheap enough to stay on in every test and bench run, and the
 * counters it keeps (sgx.orderliness.*) are registered lazily on the
 * first recorded event so fault-free benches publish no new rows.
 *
 * Env toggle OCCLUM_ORDERLINESS: "0" disables recording, "1" (and
 * unset) means record-and-count, "strict" (or "2") panics on the
 * first violation; any other value stops the process with an error
 * naming it, so a typo cannot quietly drop a CI leg back to the
 * default. Violations always emit a kSgx trace
 * instant carrying the pid, and the record ring keeps the cycle,
 * tcs, pid, and core context for post-mortem inspection.
 */
#ifndef OCCLUM_SGX_MONITOR_H
#define OCCLUM_SGX_MONITOR_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"

namespace occlum::trace {
class Counter;
}

namespace occlum::sgx {

/** Where a TCS sits in the entry/exit automaton. */
enum class TcsPhase : uint8_t {
    kOutside, // host side: no enclave context on this TCS
    kInside,  // executing enclave code
    kAexed,   // SSA frame occupied, waiting for ERESUME
};

/** One reported transition. The k*Refused kinds record a rejected
 *  request (the caller got an error); the plain kinds record a
 *  serviced one. */
enum class Transition : uint8_t {
    kEenter,
    kEexit,
    kAex,
    kEresume,
    kBind,
    kEenterRefused,
    kEexitRefused,
    kAexRefused,
    kEresumeRefused,
    kBindRefused,
};

/** How the monitor responds to transitions (OCCLUM_ORDERLINESS). */
enum class OrderlinessMode : uint8_t {
    kOff,    // "0": record nothing
    kRecord, // "1": record and count violations
    kStrict, // "strict" or "2": panic on the first violation
};

/** Parse an OCCLUM_ORDERLINESS value; unknown text is an error. */
Result<OrderlinessMode> parse_orderliness_mode(const std::string &text);

const char *tcs_phase_name(TcsPhase phase);
const char *transition_name(Transition event);

/** One ring entry: the transition plus its scheduling context. */
struct TransitionRecord {
    uint64_t cycles = 0;
    int32_t tcs = -1;
    int32_t pid = -1;
    int32_t core = -1;
    Transition event = Transition::kEenter;
    TcsPhase from = TcsPhase::kOutside;
    bool illegal = false;
};

class TransitionMonitor
{
  public:
    static TransitionMonitor &instance();

    bool enabled() const { return enabled_; }
    bool strict() const { return strict_; }
    void set_enabled(bool on) { enabled_ = on; }
    void set_strict(bool on) { strict_ = on; }

    /** Register a TCS; returns its id. SgxThread calls this at
     *  construction with the phase it starts in. */
    int register_tcs(TcsPhase initial);

    /**
     * Record one transition on `tcs` at `cycles` (the platform clock;
     * the monitor itself is clock-free so it can observe threads on
     * any platform). Returns false iff the transition was illegal
     * from the TCS's current phase. Legal serviced transitions
     * advance the phase; refused ones never do.
     */
    bool record(int tcs, Transition event, uint64_t cycles);

    /** Scheduling context stamped into subsequent records. The kernel
     *  sets this around its injected-AEX round trips. */
    void
    set_context(int32_t pid, int32_t core)
    {
        ctx_pid_ = pid;
        ctx_core_ = core;
    }
    void
    clear_context()
    {
        ctx_pid_ = -1;
        ctx_core_ = -1;
    }

    uint64_t events() const { return events_; }
    uint64_t violations() const { return violations_; }
    uint64_t refusals() const { return refusals_; }

    TcsPhase phase(int tcs) const;

    /** The most recent records, oldest first (bounded ring). */
    std::vector<TransitionRecord> recent() const;
    /** The first violations seen, in order (bounded). */
    const std::vector<TransitionRecord> &violation_log() const
    {
        return violation_log_;
    }

  private:
    TransitionMonitor();

    static constexpr size_t kRingSize = 256;
    static constexpr size_t kMaxViolationLog = 64;

    bool enabled_ = true;
    bool strict_ = false;
    uint64_t events_ = 0;
    uint64_t violations_ = 0;
    uint64_t refusals_ = 0;
    int32_t ctx_pid_ = -1;
    int32_t ctx_core_ = -1;
    std::vector<TcsPhase> phases_;
    std::array<TransitionRecord, kRingSize> ring_{};
    size_t ring_head_ = 0;
    size_t ring_count_ = 0;
    std::vector<TransitionRecord> violation_log_;
    // Lazily fetched on the first event so fault-free benches don't
    // grow new registry rows.
    trace::Counter *ctr_events_ = nullptr;
    trace::Counter *ctr_violations_ = nullptr;
    trace::Counter *ctr_refusals_ = nullptr;
};

/** RAII pid/core context for the monitor's records. */
class ScopedMonitorContext
{
  public:
    ScopedMonitorContext(int32_t pid, int32_t core)
    {
        TransitionMonitor::instance().set_context(pid, core);
    }
    ~ScopedMonitorContext() { TransitionMonitor::instance().clear_context(); }
    ScopedMonitorContext(const ScopedMonitorContext &) = delete;
    ScopedMonitorContext &operator=(const ScopedMonitorContext &) = delete;
};

} // namespace occlum::sgx

#endif // OCCLUM_SGX_MONITOR_H
