/**
 * @file
 * Enclave-wide event tracer: a bounded ring buffer of begin/end spans
 * and instant events, timestamped in simulated cycles.
 *
 * The simulation charges every cost — interpreted instructions, SGX
 * transitions, LibOS syscalls, FS crypto, OCALLs, disk, network — to
 * one SimClock. This tracer records *where* those cycles go: hot
 * paths open RAII spans (OCC_TRACE_SPAN) around the code that charges
 * the clock, and the resulting span tree attributes every cycle to a
 * subsystem category. The paper's Fig. 7b-style breakdowns fall out
 * of self_cycles_by_category() instead of hand-maintained counters.
 *
 * Design constraints:
 *  - Bounded memory: a power-of-two ring; when it wraps, the oldest
 *    events are overwritten and counted in dropped().
 *  - Near-zero overhead when off: the record path is one relaxed
 *    load + branch per site, and OCCLUM_TRACE_DISABLED compiles the
 *    hook macros out entirely (the ablation bench measures this).
 *  - Lock-free-style writes: the simulation is single-threaded, but
 *    the cursor is a relaxed atomic so the write path is plain
 *    wait-free index arithmetic — no allocation, no locking.
 */
#ifndef OCCLUM_TRACE_TRACE_H
#define OCCLUM_TRACE_TRACE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "base/sim_clock.h"

namespace occlum::trace {

/** Subsystem that a span or instant event belongs to. */
enum class Category : uint8_t {
    kVm = 0, // user instruction execution (SIP code under the OVM)
    kSgx,    // enclave transitions: EENTER / EEXIT / AEX
    kLibos,  // LibOS syscall dispatch (entry to return)
    kFs,     // EncFs logic including AES-CTR + HMAC per block
    kOcall,  // delegations to the untrusted host (disk, net)
    kSched,  // scheduler rounds, quanta bookkeeping, idle waits
    kNet,    // simulated network operations
    kHost,   // other host-side work (loader, bench harness)
    kCount,
};

constexpr size_t kNumCategories = static_cast<size_t>(Category::kCount);

const char *category_name(Category cat);

enum class EventType : uint8_t { kBegin, kEnd, kInstant };

/** One trace record. `name` must have static storage duration. */
struct Event {
    uint64_t ts = 0;  // simulated cycles at record time
    uint64_t arg = 0; // site-defined payload (pid, bytes, ...)
    const char *name = nullptr;
    Category cat = Category::kHost;
    EventType type = EventType::kInstant;
};

/**
 * The process-wide tracer. Disabled by default; benches and tests
 * enable it with a capacity and bind the SimClock under test so
 * events carry that clock's cycle timestamps.
 */
class Tracer
{
  public:
    static constexpr size_t kDefaultCapacity = 1 << 16;

    static Tracer &instance();

    /** Start recording into a fresh ring (capacity rounded up to a
     *  power of two). Resets the cursor and drop count. */
    void enable(size_t capacity = kDefaultCapacity);
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    /** Clock whose cycles() stamps every event (may be null: ts=0). */
    void bind_clock(const SimClock *clock) { clock_ = clock; }
    uint64_t now() const { return clock_ ? clock_->cycles() : 0; }

    void
    record(Category cat, EventType type, const char *name,
           uint64_t arg = 0)
    {
        if (!enabled_) {
            return;
        }
        uint64_t slot =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        Event &e = ring_[slot & mask_];
        e.ts = now();
        e.arg = arg;
        e.name = name;
        e.cat = cat;
        e.type = type;
    }

    /** Total events accepted since enable(). */
    uint64_t
    recorded() const
    {
        return cursor_.load(std::memory_order_relaxed);
    }

    /** Oldest events overwritten by ring wraparound. */
    uint64_t
    dropped() const
    {
        uint64_t total = recorded();
        return total > ring_.size() ? total - ring_.size() : 0;
    }

    size_t capacity() const { return ring_.size(); }

    /** Chronological copy of the retained events (oldest first). */
    std::vector<Event> events() const;

    /** Drop all retained events, keep the ring and enabled state. */
    void clear();

  private:
    bool enabled_ = false;
    const SimClock *clock_ = nullptr;
    std::vector<Event> ring_;
    uint64_t mask_ = 0;
    std::atomic<uint64_t> cursor_{0};
};

/**
 * Exclusive (self) cycles per category, computed by replaying the
 * span stream with a stack: time between two consecutive events is
 * attributed to the innermost open span. Instants do not open spans;
 * unmatched ends (their begins were overwritten) are skipped.
 *
 * Precondition for exact totals: the ring dropped nothing
 * (Tracer::dropped() == 0). Once it has wrapped, the cycles of spans
 * whose begins were overwritten are silently under-counted, so
 * callers that report a breakdown must check dropped() first.
 */
std::array<uint64_t, kNumCategories>
self_cycles_by_category(const std::vector<Event> &events);

/**
 * The single tracer instance. An inline variable (not a function-local
 * static) so the disabled-tracer check on hot paths inlines to one
 * flag load with no initialization guard.
 */
inline Tracer g_tracer_instance;

inline Tracer &
Tracer::instance()
{
    return g_tracer_instance;
}

/** RAII begin/end span; no-op when the tracer is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Category cat, const char *name, uint64_t arg = 0)
    {
        Tracer &t = Tracer::instance();
        if (!t.enabled()) {
            return;
        }
        tracer_ = &t;
        cat_ = cat;
        name_ = name;
        t.record(cat, EventType::kBegin, name, arg);
    }

    ~ScopedSpan()
    {
        if (tracer_) {
            tracer_->record(cat_, EventType::kEnd, name_);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_ = nullptr;
    const char *name_ = nullptr;
    Category cat_ = Category::kHost;
};

} // namespace occlum::trace

// ---------------------------------------------------------------------
// Hook macros. Compile to nothing under OCCLUM_TRACE_DISABLED (the
// CMake option OCCLUM_DISABLE_TRACING); otherwise cost one enabled_
// branch per site when tracing is off at runtime.
// ---------------------------------------------------------------------

#define OCC_TRACE_CONCAT2(a, b) a##b
#define OCC_TRACE_CONCAT(a, b) OCC_TRACE_CONCAT2(a, b)

#ifndef OCCLUM_TRACE_DISABLED

/** Open a span for the rest of the enclosing scope. */
#define OCC_TRACE_SPAN(cat, name, ...)                                 \
    occlum::trace::ScopedSpan OCC_TRACE_CONCAT(occ_trace_span_,       \
                                               __COUNTER__)(          \
        occlum::trace::Category::cat, name, ##__VA_ARGS__)

/** Record a point event. */
#define OCC_TRACE_INSTANT(cat, name, ...)                              \
    occlum::trace::Tracer::instance().record(                          \
        occlum::trace::Category::cat,                                  \
        occlum::trace::EventType::kInstant, name, ##__VA_ARGS__)

#else

#define OCC_TRACE_SPAN(cat, name, ...)                                 \
    do {                                                               \
    } while (0)
#define OCC_TRACE_INSTANT(cat, name, ...)                              \
    do {                                                               \
    } while (0)

#endif // OCCLUM_TRACE_DISABLED

#endif // OCCLUM_TRACE_TRACE_H
