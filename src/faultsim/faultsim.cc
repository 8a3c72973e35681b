#include "faultsim/faultsim.h"

#include <cstdlib>

#include "base/log.h"
#include "trace/metrics.h"

namespace occlum::faultsim {

const char *
site_name(Site site)
{
    switch (site) {
      case Site::kEpcReserve: return "epc_reserve";
      case Site::kAex: return "aex";
      case Site::kDevRead: return "dev_read";
      case Site::kDevWrite: return "dev_write";
      case Site::kNetSend: return "net_send";
      case Site::kNetRecv: return "net_recv";
    }
    return "?";
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

bool
FaultPlan::any() const
{
    return epc_fail > 0 || epc_fail_at > 0 || aex_every > 0 ||
           aex_at > 0 ||
           dev_read_transient > 0 || dev_read_fail > 0 ||
           dev_write_transient > 0 || dev_write_fail > 0 ||
           dev_write_fail_at > 0 || torn_write > 0 || torn_write_at > 0 ||
           corrupt_write > 0 || net_drop > 0 || net_dup > 0 ||
           net_short_read > 0;
}

namespace {

Status
set_field(FaultPlan &plan, const std::string &key,
          const std::string &value)
{
    auto as_u64 = [&](uint64_t &out) -> Status {
        size_t used = 0;
        unsigned long long v = 0;
        try {
            v = std::stoull(value, &used);
        } catch (...) {
            return Status(ErrorCode::kInval,
                          "fault plan: bad integer for " + key);
        }
        if (used != value.size()) {
            return Status(ErrorCode::kInval,
                          "fault plan: bad integer for " + key);
        }
        out = v;
        return Status();
    };
    auto as_prob = [&](double &out) -> Status {
        size_t used = 0;
        double v = 0;
        try {
            v = std::stod(value, &used);
        } catch (...) {
            return Status(ErrorCode::kInval,
                          "fault plan: bad number for " + key);
        }
        if (used != value.size() || v < 0.0 || v > 1.0) {
            return Status(ErrorCode::kInval,
                          "fault plan: " + key +
                              " must be a probability in [0,1]");
        }
        out = v;
        return Status();
    };

    if (key == "seed") return as_u64(plan.seed);
    if (key == "epc_fail") return as_prob(plan.epc_fail);
    if (key == "epc_fail_at") return as_u64(plan.epc_fail_at);
    if (key == "aex_every") return as_u64(plan.aex_every);
    if (key == "aex_at") return as_u64(plan.aex_at);
    if (key == "dev_read_transient")
        return as_prob(plan.dev_read_transient);
    if (key == "dev_read_fail") return as_prob(plan.dev_read_fail);
    if (key == "dev_write_transient")
        return as_prob(plan.dev_write_transient);
    if (key == "dev_write_fail") return as_prob(plan.dev_write_fail);
    if (key == "dev_write_fail_at") return as_u64(plan.dev_write_fail_at);
    if (key == "torn_write") return as_prob(plan.torn_write);
    if (key == "torn_write_at") return as_u64(plan.torn_write_at);
    if (key == "corrupt_write") return as_prob(plan.corrupt_write);
    if (key == "net_drop") return as_prob(plan.net_drop);
    if (key == "net_dup") return as_prob(plan.net_dup);
    if (key == "net_short_read") return as_prob(plan.net_short_read);
    return Status(ErrorCode::kInval, "fault plan: unknown key " + key);
}

} // namespace

Result<FaultPlan>
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find_first_of(";,", pos);
        if (end == std::string::npos) {
            end = spec.size();
        }
        std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty()) {
            continue;
        }
        size_t eq = item.find('=');
        if (eq == std::string::npos) {
            return Error(ErrorCode::kInval,
                         "fault plan: expected key=value, got " + item);
        }
        OCC_RETURN_IF_ERROR(
            set_field(plan, item.substr(0, eq), item.substr(eq + 1)));
    }
    return plan;
}

// ---------------------------------------------------------------------
// FaultSim
// ---------------------------------------------------------------------

FaultSim::FaultSim()
{
    auto &registry = trace::Registry::instance();
    for (size_t s = 0; s < kSiteCount; ++s) {
        std::string base =
            std::string("faultsim.") + site_name(static_cast<Site>(s));
        ctr_checks_[s] = &registry.counter(base + ".checks");
        ctr_fires_[s] = &registry.counter(base + ".fires");
    }
    const char *env = std::getenv("OCCLUM_FAULT_PLAN");
    if (env != nullptr && *env != '\0') {
        auto plan = FaultPlan::parse(env);
        // A typo'd plan silently ignored would make a CI fault run
        // vacuous; fail loudly instead.
        OCC_CHECK_MSG(plan.ok(), "OCCLUM_FAULT_PLAN: "
                                     << plan.error().message);
        install(plan.value());
    }
}

void
FaultSim::install(const FaultPlan &plan)
{
    plan_ = plan;
    active_ = true;
    aex_at_consumed_ = false;
    // Independent per-site streams: injections at one site never
    // perturb another site's sequence, so e.g. adding disk faults to
    // a plan leaves its network fault schedule unchanged.
    for (size_t s = 0; s < kSiteCount; ++s) {
        rngs_[s] = Rng(plan.seed ^ (0x9e3779b97f4a7c15ull * (s + 1)));
    }
    checks_.fill(0);
    fires_.fill(0);
}

void
FaultSim::clear()
{
    active_ = false;
    aex_at_consumed_ = false;
}

bool
FaultSim::roll(Site site, double p)
{
    size_t s = static_cast<size_t>(site);
    ++checks_[s];
    ctr_checks_[s]->add();
    if (p <= 0.0) {
        // Still burn one draw so a site's sequence depends only on
        // its check ordinal, not on which probabilities are zero.
        rngs_[s].next();
        return false;
    }
    return rngs_[s].next_double() < p;
}

bool
FaultSim::at_hits(Site site, uint64_t at) const
{
    // Called after roll() bumped the counter: ordinal is 1-based.
    return at != 0 && checks_[static_cast<size_t>(site)] == at;
}

void
FaultSim::fire(Site site)
{
    size_t s = static_cast<size_t>(site);
    ++fires_[s];
    ctr_fires_[s]->add();
}

bool
FaultSim::epc_reserve_fails()
{
    if (!active_) {
        return false;
    }
    bool fires = roll(Site::kEpcReserve, plan_.epc_fail) ||
                 at_hits(Site::kEpcReserve, plan_.epc_fail_at);
    if (fires) {
        fire(Site::kEpcReserve);
    }
    return fires;
}

void
FaultSim::count_injected_aex()
{
    size_t s = static_cast<size_t>(Site::kAex);
    ++checks_[s];
    ctr_checks_[s]->add();
    fire(Site::kAex);
}

DevFault
FaultSim::dev_read_fault()
{
    if (!active_) {
        return DevFault::kNone;
    }
    // One draw per check classifies the outcome: the probabilities
    // partition [0,1), so a site's sequence depends only on its seed
    // and check ordinal, never on which knobs are set.
    size_t s = static_cast<size_t>(Site::kDevRead);
    ++checks_[s];
    ctr_checks_[s]->add();
    double draw = rngs_[s].next_double();
    DevFault result = DevFault::kNone;
    if (draw < plan_.dev_read_transient) {
        result = DevFault::kTransient;
    } else if (draw < plan_.dev_read_transient + plan_.dev_read_fail) {
        result = DevFault::kHard;
    }
    if (result != DevFault::kNone) {
        fire(Site::kDevRead);
    }
    return result;
}

DevFault
FaultSim::dev_write_fault()
{
    if (!active_) {
        return DevFault::kNone;
    }
    size_t s = static_cast<size_t>(Site::kDevWrite);
    ++checks_[s];
    ctr_checks_[s]->add();
    double draw = rngs_[s].next_double();
    DevFault result = DevFault::kNone;
    // One-shot ordinals override the probabilistic classification
    // (the crash-monkey's "fail exactly the k-th write" knob).
    if (at_hits(Site::kDevWrite, plan_.dev_write_fail_at)) {
        result = DevFault::kHard;
    } else if (at_hits(Site::kDevWrite, plan_.torn_write_at)) {
        result = DevFault::kTorn;
    } else {
        double p0 = plan_.dev_write_transient;
        double p1 = p0 + plan_.dev_write_fail;
        double p2 = p1 + plan_.torn_write;
        double p3 = p2 + plan_.corrupt_write;
        if (draw < p0) {
            result = DevFault::kTransient;
        } else if (draw < p1) {
            result = DevFault::kHard;
        } else if (draw < p2) {
            result = DevFault::kTorn;
        } else if (draw < p3) {
            result = DevFault::kCorrupt;
        }
    }
    if (result != DevFault::kNone) {
        fire(Site::kDevWrite);
    }
    return result;
}

void
FaultSim::scramble(uint8_t *data, size_t len)
{
    // Deterministic corruption: flip one bit in each of a handful of
    // bytes chosen by the dev-write stream. Guaranteed to change the
    // content (a corrupt write that lands intact would be a no-op).
    if (len == 0) {
        return;
    }
    Rng &rng = rngs_[static_cast<size_t>(Site::kDevWrite)];
    size_t flips = 1 + rng.next_below(15);
    for (size_t i = 0; i < flips; ++i) {
        size_t byte = rng.next_below(len);
        data[byte] ^= static_cast<uint8_t>(1u << rng.next_below(8));
    }
}

bool
FaultSim::net_drop_fires()
{
    if (!active_) {
        return false;
    }
    bool fires = roll(Site::kNetSend, plan_.net_drop);
    if (fires) {
        fire(Site::kNetSend);
    }
    return fires;
}

bool
FaultSim::net_dup_fires()
{
    if (!active_) {
        return false;
    }
    // Reuses the send-site stream: drop and dup are alternatives for
    // the same segment, checked back to back.
    bool fires = roll(Site::kNetSend, plan_.net_dup);
    if (fires) {
        fire(Site::kNetSend);
    }
    return fires;
}

size_t
FaultSim::net_recv_cap(size_t cap)
{
    if (!active_ || cap <= 1) {
        return cap;
    }
    if (roll(Site::kNetRecv, plan_.net_short_read)) {
        fire(Site::kNetRecv);
        return cap / 2; // >= 1 because cap > 1: progress guaranteed
    }
    return cap;
}

} // namespace occlum::faultsim
