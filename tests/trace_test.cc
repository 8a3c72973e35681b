/**
 * @file
 * Tests for the src/trace subsystem: ring-buffer wraparound and drop
 * accounting, histogram bucket/percentile math, Chrome trace JSON
 * well-formedness, cycle attribution by stack replay, and real LibOS
 * syscall span nesting recorded from an Occlum run. Also covers the
 * occlum::Aggregate percentile extension the benches use.
 */
#include <gtest/gtest.h>

#include "base/stats.h"
#include "libos/occlum_system.h"
#include "toolchain/minic.h"
#include "trace/export.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "verifier/verifier.h"

namespace occlum::trace {
namespace {

/** Fresh tracer state per test; the instance is process-wide. */
struct TracerGuard {
    TracerGuard(const SimClock *clock, size_t capacity)
    {
        Tracer::instance().bind_clock(clock);
        Tracer::instance().enable(capacity);
    }
    ~TracerGuard()
    {
        Tracer::instance().disable();
        Tracer::instance().bind_clock(nullptr);
    }
};

TEST(TraceRing, WraparoundKeepsNewestAndCountsDrops)
{
    SimClock clock;
    TracerGuard guard(&clock, 8);
    Tracer &tracer = Tracer::instance();
    EXPECT_EQ(tracer.capacity(), 8u);

    static const char *kNames[] = {"e0", "e1", "e2",  "e3", "e4", "e5",
                                   "e6", "e7", "e8",  "e9", "e10"};
    for (int i = 0; i < 11; ++i) {
        clock.advance(10);
        tracer.record(Category::kHost, EventType::kInstant, kNames[i],
                      static_cast<uint64_t>(i));
    }

    EXPECT_EQ(tracer.recorded(), 11u);
    EXPECT_EQ(tracer.dropped(), 3u);

    std::vector<Event> events = tracer.events();
    ASSERT_EQ(events.size(), 8u);
    // Oldest retained is the 4th record; order is chronological.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].arg, i + 3);
        EXPECT_STREQ(events[i].name, kNames[i + 3]);
        if (i > 0) {
            EXPECT_GE(events[i].ts, events[i - 1].ts);
        }
    }
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo)
{
    SimClock clock;
    TracerGuard guard(&clock, 5);
    EXPECT_EQ(Tracer::instance().capacity(), 8u);
    TracerGuard regrow(&clock, 9);
    EXPECT_EQ(Tracer::instance().capacity(), 16u);
}

TEST(TraceRing, DisabledRecordsNothing)
{
    SimClock clock;
    Tracer &tracer = Tracer::instance();
    {
        TracerGuard guard(&clock, 8);
    }
    uint64_t before = tracer.recorded();
    tracer.record(Category::kHost, EventType::kInstant, "ignored");
    { OCC_TRACE_SPAN(kHost, "also-ignored"); }
    EXPECT_EQ(tracer.recorded(), before);
}

TEST(TraceRing, ClearKeepsRingAndEnabledState)
{
    SimClock clock;
    TracerGuard guard(&clock, 8);
    Tracer &tracer = Tracer::instance();
    tracer.record(Category::kHost, EventType::kInstant, "x");
    tracer.clear();
    EXPECT_TRUE(tracer.enabled());
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(Histogram, BucketBoundaries)
{
    EXPECT_EQ(Histogram::bucket_index(0), 0u);
    EXPECT_EQ(Histogram::bucket_index(1), 1u);
    EXPECT_EQ(Histogram::bucket_index(2), 2u);
    EXPECT_EQ(Histogram::bucket_index(3), 2u);
    EXPECT_EQ(Histogram::bucket_index(4), 3u);
    EXPECT_EQ(Histogram::bucket_index(1023), 10u);
    EXPECT_EQ(Histogram::bucket_index(1024), 11u);
    EXPECT_EQ(Histogram::bucket_lo(3), 4u);
    EXPECT_EQ(Histogram::bucket_hi(3), 7u);
    // Every value lands inside its bucket's [lo, hi] range.
    for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 100ull, 65536ull}) {
        size_t i = Histogram::bucket_index(v);
        EXPECT_GE(v, Histogram::bucket_lo(i));
        EXPECT_LE(v, Histogram::bucket_hi(i));
    }
}

TEST(Histogram, SingleRepeatedValueIsExact)
{
    Histogram hist;
    for (int i = 0; i < 100; ++i) {
        hist.record(777);
    }
    EXPECT_EQ(hist.count(), 100u);
    EXPECT_EQ(hist.min(), 777u);
    EXPECT_EQ(hist.max(), 777u);
    EXPECT_DOUBLE_EQ(hist.mean(), 777.0);
    // Percentiles clamp to the observed [min, max] — exact here.
    EXPECT_DOUBLE_EQ(hist.p50(), 777.0);
    EXPECT_DOUBLE_EQ(hist.p99(), 777.0);
}

TEST(Histogram, PercentilesAreMonotonicAndBracketed)
{
    Histogram hist;
    for (uint64_t v = 1; v <= 1000; ++v) {
        hist.record(v);
    }
    double p50 = hist.p50(), p95 = hist.p95(), p99 = hist.p99();
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 1000.0);
    // Log-bucketed: p50 of uniform 1..1000 lies in the right half.
    EXPECT_GT(p50, 250.0);
    EXPECT_LT(p50, 1000.0);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.p50(), 0.0);
}

TEST(Registry, PointersStableAcrossReset)
{
    Registry &registry = Registry::instance();
    Counter *counter = &registry.counter("test.stable_counter");
    Histogram *hist = &registry.histogram("test.stable_hist");
    counter->add(41);
    hist->record(9);
    registry.reset();
    EXPECT_EQ(counter, &registry.counter("test.stable_counter"));
    EXPECT_EQ(hist, &registry.histogram("test.stable_hist"));
    EXPECT_EQ(counter->value(), 0u);
    EXPECT_EQ(hist->count(), 0u);
    counter->add();
    EXPECT_EQ(registry.counter("test.stable_counter").value(), 1u);
}

TEST(Attribution, SelfCyclesNestedSpans)
{
    // parent [0, 100): child kFs occupies [20, 60); parent self = 60.
    std::vector<Event> events;
    auto push = [&](uint64_t ts, Category cat, EventType type) {
        Event e;
        e.ts = ts;
        e.cat = cat;
        e.type = type;
        e.name = "synthetic";
        events.push_back(e);
    };
    push(0, Category::kLibos, EventType::kBegin);
    push(20, Category::kFs, EventType::kBegin);
    push(60, Category::kFs, EventType::kEnd);
    push(100, Category::kLibos, EventType::kEnd);

    auto self = self_cycles_by_category(events);
    EXPECT_EQ(self[static_cast<size_t>(Category::kLibos)], 60u);
    EXPECT_EQ(self[static_cast<size_t>(Category::kFs)], 40u);
    EXPECT_EQ(self[static_cast<size_t>(Category::kVm)], 0u);
}

/** Structural checker: quotes-aware brace/bracket balance. */
void
expect_balanced_json(const std::string &json)
{
    int braces = 0, brackets = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': ++braces; break;
          case '}': --braces; break;
          case '[': ++brackets; break;
          case ']': --brackets; break;
          default: break;
        }
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(ChromeTrace, JsonIsWellFormed)
{
    SimClock clock;
    TracerGuard guard(&clock, 64);
    Tracer &tracer = Tracer::instance();
    // Direct record() calls so this test also passes under
    // OCCLUM_TRACE_DISABLED (which compiles the macros out).
    tracer.record(Category::kLibos, EventType::kBegin, "sys.write", 42);
    clock.advance(3500); // 1 us at 3.5 GHz
    tracer.record(Category::kSched, EventType::kInstant, "proc.spawn",
                  7);
    clock.advance(3500);
    tracer.record(Category::kLibos, EventType::kEnd, "sys.write");
    tracer.record(Category::kHost, EventType::kInstant,
                  "quote\"and\\slash");

    std::string json = chrome_trace_json(tracer.events(), 5);
    expect_balanced_json(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("sys.write"), std::string::npos);
    EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":\"5\""), std::string::npos);
    // Escaping: the raw quote/backslash never appear unescaped.
    EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
}

TEST(MetricsExport, JsonAndTextContainRegisteredMetrics)
{
    Registry &registry = Registry::instance();
    registry.reset();
    registry.counter("test.export_counter").add(3);
    registry.histogram("test.export_hist").record(100);

    std::string json = metrics_json(registry);
    expect_balanced_json(json);
    EXPECT_NE(json.find("test.export_counter"), std::string::npos);
    EXPECT_NE(json.find("test.export_hist"), std::string::npos);

    std::string text = metrics_text(registry);
    EXPECT_NE(text.find("test.export_counter"), std::string::npos);
    EXPECT_NE(text.find("3"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end: spans recorded from a real Occlum run nest correctly.
// ---------------------------------------------------------------------

crypto::Key128
vkey()
{
    crypto::Key128 key{};
    key[3] = 0x77;
    return key;
}

Bytes
build_signed(const std::string &source)
{
    auto out = toolchain::compile(source);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    verifier::Verifier verifier(vkey());
    auto signed_image = verifier.verify_and_sign(out.value().image);
    EXPECT_TRUE(signed_image.ok())
        << (signed_image.ok() ? "" : signed_image.error().message);
    return signed_image.value().image().serialize();
}

// Depends on the hook macros being compiled in.
#ifndef OCCLUM_TRACE_DISABLED
TEST(LibosSpans, SyscallSpansNestAndBalance)
{
    sgx::Platform platform;
    host::HostFileStore binaries;
    libos::OcclumSystem::Config config;
    config.verifier_key = vkey();
    libos::OcclumSystem sys(platform, binaries, config);

    binaries.put("main", build_signed(
                             "func main() {"
                             " println(\"one\"); println(\"two\");"
                             " return 0; }"));

    TracerGuard guard(&platform.clock(), 1 << 14);
    auto pid = sys.spawn("main", {"main"});
    ASSERT_TRUE(pid.ok()) << pid.error().message;
    sys.run();
    auto code = sys.exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    ASSERT_EQ(code.value(), 0);

    std::vector<Event> events = Tracer::instance().events();
    ASSERT_EQ(Tracer::instance().dropped(), 0u);
    ASSERT_FALSE(events.empty());

    // Replay: every end matches the innermost open begin, timestamps
    // are monotonic, and nothing is left open at the end of the run.
    std::vector<const Event *> stack;
    int libos_spans = 0;
    int sys_write_spans = 0;
    uint64_t last_ts = 0;
    for (const Event &e : events) {
        EXPECT_GE(e.ts, last_ts);
        last_ts = e.ts;
        switch (e.type) {
          case EventType::kBegin:
            stack.push_back(&e);
            break;
          case EventType::kEnd:
            ASSERT_FALSE(stack.empty())
                << "unmatched end for " << e.name;
            EXPECT_STREQ(stack.back()->name, e.name);
            EXPECT_EQ(stack.back()->cat, e.cat);
            if (e.cat == Category::kLibos) {
                ++libos_spans;
                if (std::string(e.name) == "sys.write") {
                    ++sys_write_spans;
                }
            }
            stack.pop_back();
            break;
          case EventType::kInstant:
            break;
        }
    }
    EXPECT_TRUE(stack.empty());
    // println drives sys.write through the kernel dispatch hook.
    EXPECT_GE(libos_spans, 2);
    EXPECT_GE(sys_write_spans, 2);

    // Attribution accounts at most the traced wall time and gives the
    // LibOS a nonzero share (syscall costs are charged inside spans).
    auto self = self_cycles_by_category(events);
    uint64_t sum = 0;
    for (uint64_t cycles : self) {
        sum += cycles;
    }
    EXPECT_LE(sum, platform.clock().cycles());
    EXPECT_GT(self[static_cast<size_t>(Category::kLibos)], 0u);
    EXPECT_GT(self[static_cast<size_t>(Category::kVm)], 0u);
}
#endif // OCCLUM_TRACE_DISABLED

TEST(Aggregate, PercentilesNearestRank)
{
    Aggregate agg;
    for (int v = 1; v <= 100; ++v) {
        agg.add(v);
    }
    EXPECT_DOUBLE_EQ(agg.p50(), 50.0);
    EXPECT_DOUBLE_EQ(agg.p95(), 95.0);
    EXPECT_DOUBLE_EQ(agg.p99(), 99.0);
    EXPECT_DOUBLE_EQ(agg.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(agg.percentile(0.0), 1.0);

    Aggregate one;
    one.add(42.0);
    EXPECT_DOUBLE_EQ(one.p50(), 42.0);
    EXPECT_DOUBLE_EQ(one.p99(), 42.0);

    Aggregate empty;
    EXPECT_DOUBLE_EQ(empty.p50(), 0.0);

    // Percentiles interleave correctly with further adds.
    Aggregate mixed;
    mixed.add(10.0);
    EXPECT_DOUBLE_EQ(mixed.p50(), 10.0);
    mixed.add(20.0);
    mixed.add(30.0);
    EXPECT_DOUBLE_EQ(mixed.p50(), 20.0);
    EXPECT_DOUBLE_EQ(mixed.p99(), 30.0);
}

} // namespace
} // namespace occlum::trace
