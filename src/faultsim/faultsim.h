/**
 * @file
 * Deterministic, seeded fault injection for the whole simulation
 * (DESIGN.md "Fault model"). One process-wide FaultSim singleton is
 * consulted at a fixed set of injection sites:
 *
 *  - sgx:    Platform::reserve_epc (EPC exhaustion on EADD) and the
 *            kernel scheduler's AEX storm (an asynchronous exit every
 *            N user instructions, exercising the SSA save/restore of
 *            the full register file including bound registers),
 *  - host:   BlockDevice::read_block / write_block (transient
 *            EAGAIN-shaped faults, hard EIO faults, torn writes that
 *            persist only a prefix, silent bit corruption) and
 *            NetSim::send / recv (segment loss with a retransmission
 *            delay, duplicate segments that burn link bandwidth,
 *            short reads),
 *  - libos:  nothing directly — EncFs sees the device faults through
 *            its bounded retry/backoff wrappers.
 *
 * Determinism invariant: every site draws from its own SplitMix64
 * stream derived from FaultPlan::seed, so a given (plan, workload)
 * pair produces the same injection sequence on every run — a failing
 * crash-monkey case replays from its seed alone. When no plan is
 * installed every check is a single predicted branch, draws nothing,
 * and never touches the simulated clock: simulated cycle counts are
 * bit-identical with faultsim compiled in but idle (asserted by the
 * faultsim ablation row in bench_ablation_optimizations).
 *
 * Plans come from the OCCLUM_FAULT_PLAN environment variable (parsed
 * on first use) or programmatically via install()/ScopedFaultPlan.
 * Per-site check/fire counters are exported through the src/trace
 * metrics registry as "faultsim.<site>.checks" / ".fires".
 */
#ifndef OCCLUM_FAULTSIM_FAULTSIM_H
#define OCCLUM_FAULTSIM_FAULTSIM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "base/result.h"
#include "base/rng.h"

namespace occlum::trace {
class Counter;
}

namespace occlum::faultsim {

/** Injection sites. Each has its own RNG stream and counters. */
enum class Site : size_t {
    kEpcReserve = 0,
    kAex,
    kDevRead,
    kDevWrite,
    kNetSend,
    kNetRecv,
};
constexpr size_t kSiteCount = 6;

const char *site_name(Site site);

/**
 * A fault plan: which sites misbehave, how often, and from which
 * seed. Probabilities are per check in [0, 1]; *_at fields are
 * one-shot 1-based check ordinals ("the k-th check fires"), the
 * crash-monkey's bisection knob. Zero everywhere means "armed but
 * quiet" (checks are counted, nothing fires, cycles unchanged).
 */
struct FaultPlan {
    uint64_t seed = 1;

    // ---- SGX ----------------------------------------------------------
    /** P(reserve_epc fails with kNoMem). */
    double epc_fail = 0.0;
    /** One-shot: the k-th reserve_epc check fails. */
    uint64_t epc_fail_at = 0;
    /** Inject an AEX every N user instructions (0 = off). */
    uint64_t aex_every = 0;
    /**
     * One-shot: inject a single AEX after N user instructions (0 =
     * off), the bisection knob for "an AEX at exactly this ordinal
     * breaks the run". Composable with aex_every: once the one-shot
     * fires the periodic storm (if any) takes over.
     */
    uint64_t aex_at = 0;

    // ---- Block device -------------------------------------------------
    double dev_read_transient = 0.0;  // EAGAIN-shaped, retryable
    double dev_read_fail = 0.0;       // hard EIO
    double dev_write_transient = 0.0;
    double dev_write_fail = 0.0;
    /** One-shot: the k-th write check fails hard. */
    uint64_t dev_write_fail_at = 0;
    /** Torn write: reports success, only the first half persists. */
    double torn_write = 0.0;
    /** One-shot: the k-th write check is torn. */
    uint64_t torn_write_at = 0;
    /** Silent corruption: reports success, bits flip on the way. */
    double corrupt_write = 0.0;

    // ---- Network ------------------------------------------------------
    /** Segment loss: delivery delayed by a retransmission timeout. */
    double net_drop = 0.0;
    /** Duplicate segment: extra link occupancy, receiver discards. */
    double net_dup = 0.0;
    /** Short read: recv capacity halved for this call. */
    double net_short_read = 0.0;

    /** True if any fault can ever fire. */
    bool any() const;

    /**
     * Parse "key=value" pairs separated by ';' or ',' (the
     * OCCLUM_FAULT_PLAN format), e.g.
     *   "seed=7;dev_write_fail_at=23;torn_write=0.01"
     * Unknown keys and malformed values are errors — a typo must not
     * silently disable a CI fault run.
     */
    static Result<FaultPlan> parse(const std::string &spec);
};

/** Outcome of a device-level fault check. */
enum class DevFault {
    kNone,
    kTransient, // EAGAIN-shaped: the caller may retry
    kHard,      // EIO: the caller must give up
    kTorn,      // write "succeeds" but only a prefix lands
    kCorrupt,   // write "succeeds" but bits flip
};

/** The process-wide injector. */
class FaultSim
{
  public:
    /** The singleton; loads OCCLUM_FAULT_PLAN on first use. Inline:
     *  the scheduler and the network ask for it on every quantum and
     *  every receive. */
    static FaultSim &
    instance()
    {
        static FaultSim sim;
        return sim;
    }

    /** Arm `plan`: reseeds every site stream and zeroes counters. */
    void install(const FaultPlan &plan);
    /** Disarm: checks become no-ops again (counters keep values). */
    void clear();

    /**
     * Re-arm the installed plan from its seed: every site stream and
     * counter restarts exactly as if the plan had just been
     * installed. Tests that assert run-to-run determinism under an
     * ambient OCCLUM_FAULT_PLAN call this before each run so both
     * runs replay the identical fault schedule instead of consuming
     * one shared stream. No-op when no plan is active.
     */
    void
    reseed()
    {
        if (active_) {
            install(plan_);
        }
    }

    bool active() const { return active_; }
    const FaultPlan &plan() const { return plan_; }

    // ---- site checks ---------------------------------------------------
    /** EADD path: true = this EPC reservation fails with kNoMem. */
    bool epc_reserve_fails();

    /** Scheduler: instructions until the next injected AEX (0 = off).
     *  While the aex_at one-shot is pending it takes precedence; after
     *  it fires the period falls back to aex_every. */
    uint64_t
    aex_period() const
    {
        if (!active_) {
            return 0;
        }
        if (plan_.aex_at > 0 && !aex_at_consumed_) {
            return plan_.aex_at;
        }
        return plan_.aex_every;
    }
    /** Scheduler: an injection point was reached — consume a pending
     *  aex_at one-shot (called whether or not the system serviced the
     *  AEX; the Linux baseline's hook is a no-op but the ordinal has
     *  still passed). */
    void
    mark_injected_aex()
    {
        if (active_ && plan_.aex_at > 0) {
            aex_at_consumed_ = true;
        }
    }
    /** Bump the AEX fire counter (the scheduler injects, we count). */
    void count_injected_aex();

    DevFault dev_read_fault();
    DevFault dev_write_fault();
    /** Deterministically flip bits of a corrupted write. */
    void scramble(uint8_t *data, size_t len);

    bool net_drop_fires();
    bool net_dup_fires();
    /** Possibly-shortened recv capacity (>= 1 when cap >= 1). */
    size_t net_recv_cap(size_t cap);

    // ---- observability -------------------------------------------------
    uint64_t
    checks(Site site) const
    {
        return checks_[static_cast<size_t>(site)];
    }
    uint64_t
    fires(Site site) const
    {
        return fires_[static_cast<size_t>(site)];
    }

  private:
    FaultSim();
    FaultSim(const FaultSim &) = delete;
    FaultSim &operator=(const FaultSim &) = delete;

    /** Count a check at `site`; true if probability `p` fires. */
    bool roll(Site site, double p);
    /** True (and counted) if this check is the one-shot ordinal. */
    bool at_hits(Site site, uint64_t at) const;
    void fire(Site site);

    FaultPlan plan_;
    bool active_ = false;
    /** The aex_at one-shot already fired this plan. */
    bool aex_at_consumed_ = false;
    std::array<Rng, kSiteCount> rngs_;
    std::array<uint64_t, kSiteCount> checks_{};
    std::array<uint64_t, kSiteCount> fires_{};
    std::array<trace::Counter *, kSiteCount> ctr_checks_{};
    std::array<trace::Counter *, kSiteCount> ctr_fires_{};
};

/**
 * RAII plan for tests: installs on construction, restores the
 * previous state (including "no plan") on destruction.
 */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const FaultPlan &plan)
        : prev_plan_(FaultSim::instance().plan()),
          prev_active_(FaultSim::instance().active())
    {
        FaultSim::instance().install(plan);
    }

    ~ScopedFaultPlan()
    {
        if (prev_active_) {
            FaultSim::instance().install(prev_plan_);
        } else {
            FaultSim::instance().clear();
        }
    }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;

  private:
    FaultPlan prev_plan_;
    bool prev_active_;
};

} // namespace occlum::faultsim

#endif // OCCLUM_FAULTSIM_FAULTSIM_H
