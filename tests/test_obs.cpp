#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "obs/observability.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/window.hpp"
#include "ucx/context.hpp"

// --------------------------------------------------------------------------
// Global allocation counter (same technique as test_matcher.cpp): the
// zero-allocation tests sample it around hot-path regions; everything else
// ignores it.
// --------------------------------------------------------------------------

static std::uint64_t g_heap_allocs = 0;

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cux;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, CounterGaugeHistogramRoundTrip) {
  obs::Registry reg;
  const auto c = reg.counter("ucx.sends");
  const auto g = reg.gauge("pool.occupancy");
  const auto h = reg.histogram("send.bytes");

  reg.add(c);
  reg.add(c, 4);
  reg.set(g, 10);
  reg.setMax(g, 7);   // lower: ignored
  reg.setMax(g, 12);  // higher: taken
  reg.observe(h, 0);
  reg.observe(h, 1);
  reg.observe(h, 1024);

  EXPECT_EQ(reg.counterValue("ucx.sends"), 5u);
  EXPECT_EQ(reg.gaugeValue("pool.occupancy"), 12u);
  EXPECT_EQ(reg.counterValue("no.such"), 0u);
  ASSERT_EQ(reg.histograms().size(), 1u);
  const auto& hist = reg.histograms()[0];
  EXPECT_EQ(hist.count, 3u);
  EXPECT_EQ(hist.sum, 1025u);
  EXPECT_EQ(hist.buckets[obs::Registry::bucketOf(0)], 1u);
  EXPECT_EQ(hist.buckets[obs::Registry::bucketOf(1)], 1u);
  EXPECT_EQ(hist.buckets[obs::Registry::bucketOf(1024)], 1u);
}

TEST(Registry, Log2BucketEdges) {
  // Bucket 0 is exactly {0}; bucket b covers [2^(b-1), 2^b).
  EXPECT_EQ(obs::Registry::bucketOf(0), 0u);
  EXPECT_EQ(obs::Registry::bucketOf(1), 1u);
  EXPECT_EQ(obs::Registry::bucketOf(2), 2u);
  EXPECT_EQ(obs::Registry::bucketOf(3), 2u);
  EXPECT_EQ(obs::Registry::bucketOf(4), 3u);
  EXPECT_EQ(obs::Registry::bucketOf(~std::uint64_t{0}), 64u);
}

TEST(Registry, FindOrCreateIsIdempotent) {
  obs::Registry reg;
  const auto a = reg.counter("x");
  const auto b = reg.counter("x");
  EXPECT_EQ(a, b);
  reg.add(a, 2);
  reg.add(b, 3);
  EXPECT_EQ(reg.counterValue("x"), 5u);
  // Same name, different kind: independent slot, no cross-talk.
  EXPECT_FALSE(reg.has("y"));
  EXPECT_TRUE(reg.has("x"));
}

TEST(Registry, DumpsContainNamesAndValues) {
  obs::Registry reg;
  reg.add(reg.counter("alpha"), 42);
  reg.set(reg.gauge("beta"), 7);
  reg.observe(reg.histogram("gamma"), 512);

  std::ostringstream text;
  reg.dumpText(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("42"), std::string::npos);
  EXPECT_NE(text.str().find("beta"), std::string::npos);

  std::ostringstream json;
  reg.dumpJson(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"alpha\":42"), std::string::npos);
  EXPECT_NE(j.find("\"beta\":7"), std::string::npos);
  EXPECT_NE(j.find("\"gamma\""), std::string::npos);
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
}

TEST(Registry, HotPathMutatorsNeverAllocate) {
  obs::Registry reg;
  const auto c = reg.counter("hot.counter");
  const auto g = reg.gauge("hot.gauge");
  const auto h = reg.histogram("hot.hist");

  const std::uint64_t before = g_heap_allocs;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    reg.add(c);
    reg.set(g, i);
    reg.setMax(g, i / 2);
    reg.observe(h, i * 37);
  }
  EXPECT_EQ(g_heap_allocs - before, 0u)
      << "registry hot-path mutators touched the heap";
  EXPECT_EQ(reg.counterValue("hot.counter"), 10000u);
}

// ---------------------------------------------------------------------------
// SpanCollector
// ---------------------------------------------------------------------------

TEST(Spans, DisabledHooksNeverAllocate) {
  obs::SpanCollector sc;  // never enabled: every hook must be a cheap no-op
  const std::uint64_t before = g_heap_allocs;
  for (int i = 0; i < 10000; ++i) {
    const auto id = sc.begin(i, 0, 1, 64, "charm");
    sc.phase(id, i, obs::Phase::MetaArrived, 1);
    sc.bindTag(id, static_cast<std::uint64_t>(i));
    (void)sc.spanForTag(static_cast<std::uint64_t>(i));
    sc.end(id, i, obs::Phase::Completed, 1);
  }
  EXPECT_EQ(g_heap_allocs - before, 0u) << "disabled span hooks touched the heap";
  EXPECT_EQ(sc.begun(), 0u);
}

TEST(Spans, DisabledCollectorIsInert) {
  obs::SpanCollector sc;
  EXPECT_FALSE(sc.enabled());
  EXPECT_EQ(sc.begin(10, 0, 1, 64, "charm"), 0u);
  sc.phase(0, 20, obs::Phase::MetaArrived, 1);
  sc.end(0, 30, obs::Phase::Completed, 1);
  sc.bindTag(0, 99);
  EXPECT_EQ(sc.spanForTag(99), 0u);
  EXPECT_EQ(sc.begun(), 0u);
  EXPECT_EQ(sc.closed(), 0u);
  EXPECT_EQ(sc.droppedEvents(), 0u);
}

TEST(Spans, LifecycleAccounting) {
  obs::RetainSink retain;
  obs::SpanCollector sc;
  sc.enableStreaming({}, &retain);
  const auto s1 = sc.begin(100, 0, 1, 4096, "ampi");
  const auto s2 = sc.begin(110, 2, 3, 64, "charm");
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(sc.openCount(), 2u);

  sc.phase(s1, 150, obs::Phase::MetaArrived, 1, 4096);
  sc.phase(s1, 160, obs::Phase::RecvPosted, 1, 4096);
  sc.end(s1, 200, obs::Phase::Completed, 1);
  EXPECT_EQ(sc.openCount(), 1u);
  EXPECT_EQ(sc.closed(), 1u);
  EXPECT_EQ(sc.terminalCount(obs::Phase::Completed), 1u);

  // Double close is counted, not fatal.
  sc.end(s1, 210, obs::Phase::Errored, 1);
  EXPECT_EQ(sc.doubleCloses(), 1u);
  EXPECT_EQ(sc.terminalCount(obs::Phase::Completed), 1u);

  sc.end(s2, 220, obs::Phase::Errored, 3);
  EXPECT_EQ(sc.openCount(), 0u);
  EXPECT_EQ(sc.terminalCount(obs::Phase::Errored), 1u);

  const obs::SpanExemplar* retired = retain.find(s1);
  ASSERT_NE(retired, nullptr);
  const obs::SpanInfo& info = retired->info;
  EXPECT_EQ(info.begin, 100u);
  EXPECT_EQ(info.end, 200u);  // the double close was rejected before touching end
  EXPECT_EQ(info.bytes, 4096u);
  EXPECT_STREQ(info.kind, "ampi");
  EXPECT_EQ(info.terminal, obs::Phase::Completed);
  ASSERT_EQ(retired->events.size(), 4u);  // api-send, meta, posted, completed
  EXPECT_EQ(retired->events[1].phase, obs::Phase::MetaArrived);
  EXPECT_EQ(retain.retained().size(), 2u);
}

TEST(Spans, TagBindingAndUnbindOnClose) {
  obs::SpanCollector sc;
  sc.enableStreaming();
  const auto s = sc.begin(0, 0, 1, 64, "raw");
  sc.bindTag(s, 777);
  EXPECT_EQ(sc.spanForTag(777), s);
  EXPECT_EQ(sc.spanForTag(778), 0u);
  sc.end(s, 50, obs::Phase::Completed, 1);
  // Close unbinds so a recycled tag can be rebound by the next transfer.
  EXPECT_EQ(sc.spanForTag(777), 0u);

  const auto s2 = sc.begin(60, 0, 1, 64, "raw");
  sc.bindTag(s2, 777);
  EXPECT_EQ(sc.spanForTag(777), s2);
}

TEST(Spans, OutOfRangeSpanIdsAreIgnored) {
  obs::RetainSink retain;
  obs::SpanCollector sc;
  sc.enableStreaming({}, &retain);
  sc.phase(12345, 10, obs::Phase::MetaArrived, 0);
  sc.end(12345, 20, obs::Phase::Completed, 0);
  EXPECT_TRUE(retain.retained().empty());
  EXPECT_EQ(sc.droppedEvents(), 0u) << "an id never minted is not a late record";
  EXPECT_EQ(sc.doubleCloses(), 0u);
  EXPECT_EQ(sc.closed(), 0u);
}

// ---------------------------------------------------------------------------
// Retirement: windowed aggregation, sinks, packed-aux decode
// ---------------------------------------------------------------------------

TEST(PackedAux, RouteBytesRoundTripAndMask) {
  const std::uint64_t aux = obs::packRouteBytes(3, 4096);
  EXPECT_EQ(obs::unpackRoute(aux), 3u);
  EXPECT_EQ(obs::unpackRouteBytes(aux), 4096u);
  // Bytes beyond 48 bits truncate instead of bleeding into the route field.
  const std::uint64_t big = obs::packRouteBytes(7, ~std::uint64_t{0});
  EXPECT_EQ(obs::unpackRoute(big), 7u);
  EXPECT_EQ(obs::unpackRouteBytes(big), obs::kAuxBytesMask);
  EXPECT_TRUE(obs::routedPhase(obs::Phase::MultiPath));
  EXPECT_TRUE(obs::routedPhase(obs::Phase::RailChunk));
  EXPECT_FALSE(obs::routedPhase(obs::Phase::PayloadSent));
}

TEST(Spans, StreamingRetiresIntoWindowsAndSink) {
  obs::NullSink sink;
  obs::WindowAggregator windows({}, &sink);
  obs::FanoutSink fan;
  fan.add(&sink);
  fan.add(&windows);
  obs::SpanCollector sc;
  sc.enableStreaming({}, &fan);
  EXPECT_TRUE(sc.enabled());

  const auto s1 = sc.begin(1000, 0, 1, 4096, "charm");
  sc.phase(s1, 1500, obs::Phase::MetaArrived, 1);
  const auto s2 = sc.begin(1100, 2, 3, 4096, "charm");
  EXPECT_EQ(sc.openCount(), 2u);
  EXPECT_EQ(sc.openHighWatermark(), 2u);
  sc.end(s1, 2000, obs::Phase::Completed, 1);
  sc.end(s2, 2100, obs::Phase::Completed, 3);

  EXPECT_EQ(sc.begun(), 2u);
  EXPECT_EQ(sc.closed(), 2u);
  EXPECT_EQ(sc.openCount(), 0u);
  EXPECT_EQ(sink.spans(), 2u);
  EXPECT_EQ(sc.span(s1), nullptr) << "the collector must not retain retired spans";
  // Both spans end inside the same 100 us window of the same kind/size class.
  ASSERT_EQ(windows.size(), 1u);
  const auto& [key, stats] = *windows.windows().begin();
  EXPECT_STREQ(key.kind, "charm");
  EXPECT_EQ(key.size_class, 13u);  // bit_width(4096)
  EXPECT_EQ(stats.spans, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.bytes, 8192u);
  EXPECT_EQ(stats.total.count, 2u);

  windows.finish();
  EXPECT_EQ(sink.windows(), 1u);
}

TEST(Spans, StreamingTagBindingWorksWhileOpen) {
  obs::SpanCollector sc;
  sc.enableStreaming({}, nullptr);
  const auto s = sc.begin(0, 0, 1, 64, "raw");
  sc.bindTag(s, 4242);
  EXPECT_EQ(sc.spanForTag(4242), s);
  const obs::SpanInfo* info = sc.span(s);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->tag, 4242u);
  sc.end(s, 50, obs::Phase::Completed, 1);
  EXPECT_EQ(sc.spanForTag(4242), 0u) << "retirement must unbind the tag";
  EXPECT_EQ(sc.span(s), nullptr) << "retired spans are gone by design";
}

TEST(Windows, ExemplarsKeepTheSmallestSpans) {
  obs::WindowAggregator agg({100'000, /*exemplars_per_window=*/2});
  for (const sim::TimePoint begin : {3000u, 1000u, 2000u, 4000u}) {
    obs::SpanInfo info;
    info.begin = begin;
    info.end = begin + 10;
    info.bytes = 64;
    info.kind = "charm";
    info.terminal = obs::Phase::Completed;
    const obs::SpanEvent ev{1, begin, obs::Phase::ApiSend, 0, 64};
    agg.fold(info, &ev, 1);
  }
  ASSERT_EQ(agg.size(), 1u);
  const auto& stats = agg.windows().begin()->second;
  ASSERT_EQ(stats.exemplars.size(), 2u);
  EXPECT_EQ(stats.exemplars[0].info.begin, 1000u);
  EXPECT_EQ(stats.exemplars[1].info.begin, 2000u);
}

TEST(Sinks, JsonlSinkDecodesRoutedAuxAndTypesEveryLine) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  obs::WindowAggregator windows({}, &sink);
  obs::FanoutSink fan;
  fan.add(&sink);
  fan.add(&windows);
  obs::SpanCollector sc;
  sc.enableStreaming({}, &fan);

  const auto s = sc.begin(1000, 0, 6, 1 << 20, "charm");
  sc.phase(s, 1500, obs::Phase::MultiPath, 0, obs::packRouteBytes(3, 4096));
  sc.phase(s, 1600, obs::Phase::RailChunk, 0, obs::packRouteBytes(1, 65536));
  sc.end(s, 2000, obs::Phase::Completed, 6);
  windows.finish();
  sink.utilLine("nvlink", 0, 100'000, 40'000, 600'000);

  const std::string j = os.str();
  EXPECT_NE(j.find("\"type\":\"span\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"window\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"util\""), std::string::npos);
  // Satellite invariant: packed aux words always reach the stream decoded.
  // Check inside each routed event object — other phases (e.g. ApiSend,
  // whose aux carries the byte count) may legitimately emit a raw aux.
  const auto routedEvent = [&j](const char* phase) {
    const auto at = j.find(phase);
    EXPECT_NE(at, std::string::npos) << phase;
    return j.substr(at, j.find('}', at) - at);
  };
  const std::string mp = routedEvent("\"phase\":\"multi-path\"");
  EXPECT_NE(mp.find("\"route\":3"), std::string::npos);
  EXPECT_NE(mp.find("\"route_bytes\":4096"), std::string::npos);
  EXPECT_EQ(mp.find("\"aux\""), std::string::npos)
      << "routed events must never leak the raw packed word";
  const std::string rail = routedEvent("\"phase\":\"rail-chunk\"");
  EXPECT_NE(rail.find("\"route\":1"), std::string::npos);
  EXPECT_NE(rail.find("\"route_bytes\":65536"), std::string::npos);
  EXPECT_EQ(rail.find("\"aux\""), std::string::npos);
  EXPECT_GE(sink.lines(), 3u);
  // Every line is one JSON object: balanced braces, one per newline.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
}

// ---------------------------------------------------------------------------
// Breakdown / percentile
// ---------------------------------------------------------------------------

TEST(Breakdown, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(obs::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(obs::percentile(v, 50), 2.5);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(obs::percentile(empty, 50), 0.0);
}

TEST(Breakdown, IntervalsFromKnownTimeline) {
  obs::RetainSink retain;
  obs::SpanCollector sc;
  sc.enableStreaming({}, &retain);
  // One span with the full paper timeline, in nanoseconds of virtual time:
  // api-send @0, payload early @1000, metadata @3000, receive posted @4000,
  // matched @4000, completed @6000.
  const auto s = sc.begin(0, 0, 1, 1 << 20, "charm");
  sc.phase(s, 1000, obs::Phase::EarlyArrival, 1);
  sc.phase(s, 3000, obs::Phase::MetaArrived, 1);
  sc.phase(s, 4000, obs::Phase::RecvPosted, 1);
  sc.phase(s, 4000, obs::Phase::MatchedUnexpected, 1);
  sc.end(s, 6000, obs::Phase::Completed, 1);

  const obs::SpanExemplar* span = retain.find(s);
  ASSERT_NE(span, nullptr);
  obs::Breakdown b;
  b.accumulateSpan(span->info, span->events.data(), span->events.size());
  EXPECT_EQ(b.spans, 1u);
  EXPECT_EQ(b.completed, 1u);
  EXPECT_EQ(b.matched_unexpected, 1u);
  ASSERT_EQ(b.total.size(), 1u);
  EXPECT_DOUBLE_EQ(b.total[0], sim::toUs(6000));
  ASSERT_EQ(b.meta.size(), 1u);
  EXPECT_DOUBLE_EQ(b.meta[0], sim::toUs(3000));
  ASSERT_EQ(b.post_delay.size(), 1u);
  EXPECT_DOUBLE_EQ(b.post_delay[0], sim::toUs(1000));
  ASSERT_EQ(b.early_wait.size(), 1u);
  EXPECT_DOUBLE_EQ(b.early_wait[0], sim::toUs(3000));
  ASSERT_EQ(b.data.size(), 1u);
  EXPECT_DOUBLE_EQ(b.data[0], sim::toUs(2000));
}

TEST(Breakdown, OpenSpansContributeNoTotal) {
  obs::SpanInfo info;  // never closed
  info.bytes = 64;
  info.kind = "ampi";
  info.open = true;
  const obs::SpanEvent ev{1, 0, obs::Phase::ApiSend, 0, 64};
  obs::Breakdown b;
  b.accumulateSpan(info, &ev, 1);
  EXPECT_EQ(b.spans, 1u);
  EXPECT_EQ(b.completed, 0u);
  EXPECT_TRUE(b.total.empty());
}

// ---------------------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------------------

TEST(Perfetto, ExportContainsTracksSpansAndCounters) {
  obs::RetainSink retain;
  obs::SpanCollector sc;
  sc.enableStreaming({}, &retain);
  const auto s = sc.begin(1000, 0, 1, 4096, "charm");
  sc.phase(s, 2000, obs::Phase::MetaArrived, 1, 4096);
  sc.phase(s, 2500, obs::Phase::RecvPosted, 1, 4096);
  sc.end(s, 4000, obs::Phase::Completed, 1);

  sim::Tracer tracer;
  tracer.enable();
  tracer.record(1500, sim::TraceCat::UcxSend, 0, 1, 4096, 7, "eager-host");

  std::ostringstream os;
  obs::writePerfetto(os, retain, &tracer);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"PE 0\""), std::string::npos);
  EXPECT_NE(j.find("\"PE 1\""), std::string::npos);
  EXPECT_NE(j.find("\"charm 4096 B\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"b\""), std::string::npos);  // async span begin
  EXPECT_NE(j.find("\"ph\":\"e\""), std::string::npos);  // async span end
  EXPECT_NE(j.find("inflight-spans"), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"post-delay\""), std::string::npos);  // receiver interval
  EXPECT_NE(j.find("\"name\":\"recv-posted\""), std::string::npos);   // phase instant
  EXPECT_NE(j.find("ucx.send"), std::string::npos);  // tracer instant
  // Structurally balanced (cheap well-formedness check; CI runs a real JSON
  // parser over the exported file).
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['), std::count(j.begin(), j.end(), ']'));
}

TEST(Perfetto, EscapesDetailStrings) {
  const obs::RetainSink no_spans;
  sim::Tracer tracer;
  tracer.enable();
  tracer.record(0, sim::TraceCat::User, 0, -1, 0, 0, "quote\"back\\slash");
  std::ostringstream os;
  obs::writePerfetto(os, no_spans, &tracer);
  EXPECT_NE(os.str().find("quote\\\"back\\\\slash"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer ring buffer + interning (satellites 1 and 2)
// ---------------------------------------------------------------------------

TEST(TracerRing, OverflowKeepsNewestAndCountsDropped) {
  sim::Tracer t;
  t.enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    t.record(static_cast<sim::TimePoint>(i), sim::TraceCat::User, i, -1, 0, 0, "");
  }
  EXPECT_EQ(t.records().size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // forEachOrdered yields the surviving records oldest-to-newest: 6,7,8,9.
  std::vector<int> pes;
  t.forEachOrdered([&pes](const sim::TraceRecord& r) { pes.push_back(r.pe); });
  EXPECT_EQ(pes, (std::vector<int>{6, 7, 8, 9}));
}

TEST(TracerRing, DumpCsvReportsDropCount) {
  sim::Tracer t;
  t.enable(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    t.record(static_cast<sim::TimePoint>(i), sim::TraceCat::User, i, -1, 0, 0, "x");
  }
  std::ostringstream os;
  t.dumpCsv(os);
  EXPECT_NE(os.str().find("# dropped 3 oldest records"), std::string::npos);
}

TEST(TracerRing, NoOverflowMeansNoDropLine) {
  sim::Tracer t;
  t.enable(/*capacity=*/8);
  t.record(0, sim::TraceCat::User, 0, -1, 0, 0, "x");
  std::ostringstream os;
  t.dumpCsv(os);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(os.str().find("# dropped"), std::string::npos);
}

TEST(TracerRing, ClearResetsRingStateAndDropCount) {
  sim::Tracer t;
  t.enable(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    t.record(static_cast<sim::TimePoint>(i), sim::TraceCat::User, i, -1, 0, 0, "");
  }
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
  t.record(100, sim::TraceCat::User, 42, -1, 0, 0, "");
  std::vector<int> pes;
  t.forEachOrdered([&pes](const sim::TraceRecord& r) { pes.push_back(r.pe); });
  EXPECT_EQ(pes, (std::vector<int>{42}));
}

// The TraceRecord::detail footgun (satellite 2): before interning, passing a
// temporary string left a dangling pointer that dumpCsv/hash would read long
// after the buffer died. ASan in CI turns a regression here into a hard
// failure; without ASan the EXPECT still catches a changed value.
TEST(TracerRing, DetailStringsOutliveTheirCaller) {
  sim::Tracer t;
  t.enable();
  {
    std::string scoped = "short-lived-detail-";
    scoped += std::to_string(12345);  // defeat SSO-in-static storage
    t.record(0, sim::TraceCat::User, 0, -1, 0, 0, scoped.c_str());
    scoped.assign(scoped.size(), 'X');  // scribble before destruction too
  }
  std::ostringstream os;
  t.dumpCsv(os);
  EXPECT_NE(os.str().find("short-lived-detail-12345"), std::string::npos);
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_STREQ(t.records()[0].detail, "short-lived-detail-12345");
}

TEST(TracerRing, InterningDeduplicatesEqualDetails) {
  sim::Tracer t;
  t.enable();
  std::string a = "same-detail-string";
  std::string b = "same-detail-string";
  t.record(0, sim::TraceCat::User, 0, -1, 0, 0, a.c_str());
  t.record(1, sim::TraceCat::User, 1, -1, 0, 0, b.c_str());
  ASSERT_EQ(t.records().size(), 2u);
  // Equal contents intern to the very same storage.
  EXPECT_EQ(t.records()[0].detail, t.records()[1].detail);
}

// ---------------------------------------------------------------------------
// End-to-end: spans + registry on a live system
// ---------------------------------------------------------------------------

TEST(ObsSystem, DeviceTransferProducesClosedSpanWithPhases) {
  auto m = model::summit(1);
  obs::RetainSink retain;
  hw::System sys(m.machine);
  sys.obs.spans.enableStreaming({}, &retain);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs);
  core::DeviceComm dev(cmi);
  cuda::DeviceBuffer src(sys, 0, 1 << 20), dst(sys, 1, 1 << 20);

  cmi.runOn(0, [&] {
    core::CmiDeviceBuffer buf{src.get(), 1 << 20, 0};
    dev.lrtsSendDevice(0, 1, buf, {}, core::DeviceRecvType::Charm);
    const auto tag = buf.tag;
    cmi.runOn(1, [&dev, &dst, tag] {
      dev.lrtsRecvDevice(1, core::DeviceRdmaOp{dst.get(), 1 << 20, tag},
                         core::DeviceRecvType::Charm, {});
    });
  });
  sys.engine.run();

  const obs::SpanCollector& sc = sys.obs.spans;
  EXPECT_EQ(sc.begun(), 1u);
  EXPECT_EQ(sc.openCount(), 0u);
  EXPECT_EQ(sc.doubleCloses(), 0u);
  EXPECT_EQ(sc.terminalCount(obs::Phase::Completed), 1u);
  const obs::SpanExemplar* span = retain.find(1);
  ASSERT_NE(span, nullptr);
  bool saw_payload = false, saw_posted = false;
  for (const auto& e : span->events) {
    saw_payload |= e.phase == obs::Phase::PayloadSent;
    saw_posted |= e.phase == obs::Phase::RecvPosted;
  }
  EXPECT_TRUE(saw_payload);
  EXPECT_TRUE(saw_posted);
  EXPECT_EQ(span->info.src_pe, 0);
  EXPECT_EQ(span->info.dst_pe, 1);
  EXPECT_STREQ(span->info.kind, "charm");
}

TEST(ObsSystem, RegistrySnapshotRehomesLayerStats) {
  auto m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs);
  core::DeviceComm dev(cmi);
  cuda::DeviceBuffer src(sys, 0, 4096), dst(sys, 1, 4096);
  cmi.runOn(0, [&] {
    core::CmiDeviceBuffer buf{src.get(), 4096, 0};
    dev.lrtsSendDevice(0, 1, buf, {}, core::DeviceRecvType::Ampi);
    const auto tag = buf.tag;
    cmi.runOn(1, [&dev, &dst, tag] {
      dev.lrtsRecvDevice(1, core::DeviceRdmaOp{dst.get(), 4096, tag},
                         core::DeviceRecvType::Ampi, {});
    });
  });
  sys.engine.run();

  sys.obs.refresh();
  const obs::Registry& reg = sys.obs.registry;
  EXPECT_EQ(reg.gaugeValue("lrts.device_sends"), 1u);
  EXPECT_EQ(reg.gaugeValue("lrts.sends.ampi"), 1u);
  EXPECT_EQ(reg.gaugeValue("ucx.sends_started"), ctx.sendsStarted());
  EXPECT_GE(reg.gaugeValue("engine.events_processed"), 1u);
  // The machine layer's send-size histogram sampled the transfer.
  bool found = false;
  for (const auto& h : reg.histograms()) {
    if (h.name == "lrts.send_bytes") {
      found = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.sum, 4096u);
    }
  }
  EXPECT_TRUE(found);

  std::ostringstream os;
  sys.dumpStatsJson(os);
  EXPECT_NE(os.str().find("lrts.device_sends"), std::string::npos);
}

TEST(ObsSystem, ProviderDeregistrationSurvivesLayerTeardown) {
  auto m = model::summit(1);
  hw::System sys(m.machine);
  {
    ucx::Context ctx(sys, m.ucx);
    cmi::Converse cmi(sys, ctx, m.costs);
    core::DeviceComm dev(cmi);
    sys.obs.refresh();  // providers alive
  }
  // Context and DeviceComm are gone; their providers must be too.
  std::ostringstream os;
  sys.dumpStats(os);  // must not touch dead objects
  EXPECT_NE(os.str().find("engine.events_processed"), std::string::npos);
}

}  // namespace
