// simtrace: ring-buffer semantics, instrumentation coverage across the five
// layers, Chrome trace_event export, and serial==parallel determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/trace/chrome_export.h"
#include "src/trace/ring_buffer.h"
#include "src/trace/summary.h"
#include "src/trace/trace.h"
#include "src/trace/tracer.h"

namespace ice {
namespace {

TraceEvent Ev(SimTime ts) {
  TraceEvent e;
  e.ts = ts;
  e.type = TraceEventType::kSchedSwitch;
  return e;
}

TEST(TraceRingBuffer, RetainsEverythingBelowCapacity) {
  TraceRingBuffer ring(8);
  for (SimTime t = 0; t < 5; ++t) {
    ring.Push(Ev(t));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, i);
  }
}

TEST(TraceRingBuffer, OverflowDropsOldestAndCounts) {
  TraceRingBuffer ring(4);
  for (SimTime t = 0; t < 10; ++t) {
    ring.Push(Ev(t));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // The newest four events survive, oldest first.
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].ts, 6 + i);
  }
}

TEST(TraceRingBuffer, ZeroCapacityIsClampedToOne) {
  TraceRingBuffer ring(0);
  ring.Push(Ev(1));
  ring.Push(Ev(2));
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_EQ(ring.Snapshot()[0].ts, 2u);
}

TEST(Tracer, CountsPerTypeAndRingAccounting) {
  Tracer tracer(/*buffer_pages=*/1);
  size_t cap = tracer.capacity_events();
  ASSERT_EQ(cap, TraceEventsPerPage());
  uint64_t n = static_cast<uint64_t>(cap) + 50;
  for (uint64_t i = 0; i < n; ++i) {
    tracer.Emit(i, TraceEventType::kPageEvict, {.uid = 7, .arg0 = i});
  }
  tracer.Emit(n, TraceEventType::kRefault);
  EXPECT_EQ(tracer.emitted(), n + 1);
  EXPECT_EQ(tracer.count(TraceEventType::kPageEvict), n);
  EXPECT_EQ(tracer.count(TraceEventType::kRefault), 1u);
  EXPECT_EQ(tracer.retained(), cap);
  EXPECT_EQ(tracer.dropped(), n + 1 - cap);
  // Oldest retained event is the (dropped)'th emission.
  EXPECT_EQ(tracer.Events().front().ts, tracer.dropped());
}

TEST(Tracer, TaskNameTable) {
  Tracer tracer(1);
  tracer.RegisterTaskName(3, "render");
  EXPECT_EQ(tracer.TaskName(0), "idle");
  EXPECT_EQ(tracer.TaskName(3), "render");
  EXPECT_EQ(tracer.TaskName(99), "task");
}

// Task names come from app packages and feed the exported JSON verbatim, so
// the exporter must escape them: a raw newline would make the file invalid.
TEST(ChromeExport, EscapesQuoteAndNewlineInTaskNames) {
  Tracer tracer(1);
  tracer.RegisterTaskName(5, "bad\"name\nhere");
  tracer.Emit(10, TraceEventType::kSchedSwitch, {.core = 0, .arg0 = 5});
  tracer.Emit(20, TraceEventType::kSchedSwitch, {.core = 0, .arg0 = 0});
  const std::string json = ChromeTraceJson(tracer);
  EXPECT_NE(json.find("\"name\": \"bad\\\"name\\nhere\""), std::string::npos) << json;
  EXPECT_EQ(json.find("name\nhere"), std::string::npos);
}

TEST(Tracer, SerializeIsOnePerLinePlusFooter) {
  Tracer tracer(1);
  tracer.Emit(10, TraceEventType::kFreeze, {.uid = 10007});
  std::string text = tracer.Serialize();
  EXPECT_NE(text.find("10 freeze flags=0 core=0 pid=-1 uid=10007 arg0=0 arg1=0\n"),
            std::string::npos);
  EXPECT_NE(text.find("emitted=1 dropped=0\n"), std::string::npos);
}

TEST(TraceMacro, NullTracerEmitsNothing) {
  Engine engine(1);
  ASSERT_EQ(engine.tracer(), nullptr);
  // Must compile and be a no-op without a tracer installed.
  ICE_TRACE(engine, TraceEventType::kRefault, {.pid = 1, .uid = 2});
  Tracer tracer(1);
  engine.set_tracer(&tracer);
  ICE_TRACE(engine, TraceEventType::kRefault, {.pid = 1, .uid = 2});
  EXPECT_EQ(tracer.emitted(), 1u);
  EXPECT_EQ(tracer.Events()[0].pid, 1);
  EXPECT_EQ(tracer.Events()[0].uid, 2);
}

// One short pressured run must light up all five instrumented layers: mem
// (reclaim/evict/refault), proc (sched_switch, freeze), storage (bios),
// android (frames) and ice (rpf/mdt under the ice scheme).
TEST(TraceIntegration, TracedRunCoversAllLayers) {
  ExperimentConfig config;
  config.seed = 3;
  config.scheme = "ice";
  config.trace = true;
  Experiment exp(config);
  ASSERT_NE(exp.tracer(), nullptr);
  Uid fg = exp.UidOf(ScenarioPackage(ScenarioKind::kVideoCall));
  exp.CacheBackgroundApps(8, {fg});
  ScenarioResult r = exp.RunScenario(ScenarioKind::kVideoCall, Sec(10), Sec(5));

  const Tracer& t = *exp.tracer();
  EXPECT_GT(t.count(TraceEventType::kSchedSwitch), 0u);
  EXPECT_GT(t.count(TraceEventType::kReclaimBegin), 0u);
  EXPECT_GT(t.count(TraceEventType::kReclaimEnd), 0u);
  EXPECT_GT(t.count(TraceEventType::kPageEvict), 0u);
  EXPECT_GT(t.count(TraceEventType::kRefault), 0u);
  EXPECT_GT(t.count(TraceEventType::kBioSubmit), 0u);
  EXPECT_GT(t.count(TraceEventType::kBioComplete), 0u);
  EXPECT_GT(t.count(TraceEventType::kFrameBegin), 0u);
  EXPECT_GT(t.count(TraceEventType::kFrameEnd), 0u);
  EXPECT_GT(t.count(TraceEventType::kFreeze), 0u);
  EXPECT_GT(t.count(TraceEventType::kMdtEpoch), 0u);

  // The summary folded into the result reconciles with the tracer.
  EXPECT_TRUE(r.trace.enabled);
  EXPECT_EQ(r.trace.emitted, t.emitted());
  EXPECT_EQ(r.trace.dropped, t.dropped());
  uint64_t sum = 0;
  for (size_t i = 0; i < kTraceEventTypeCount; ++i) {
    sum += r.trace.counts[i];
  }
  EXPECT_EQ(sum, t.emitted());

  // Every event carries a SimTime stamp inside the run.
  for (const TraceEvent& e : t.Events()) {
    EXPECT_LE(e.ts, exp.engine().now());
  }

  std::string json = ChromeTraceJson(t);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');

  std::string path = WriteChromeTrace("results/test_trace/trace.json", t);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), json);
  std::remove(path.c_str());
}

TEST(TraceIntegration, UntracedRunHasNoTracerAndEmptySummary) {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(config);
  EXPECT_EQ(exp.tracer(), nullptr);
  EXPECT_EQ(exp.engine().tracer(), nullptr);
  ScenarioResult r = exp.RunScenario(ScenarioKind::kShortVideo, Sec(2), Sec(1));
  EXPECT_FALSE(r.trace.enabled);
  EXPECT_EQ(r.trace.emitted, 0u);
}

TEST(TraceIntegration, SmallBufferDropsOldestNotNewest) {
  ExperimentConfig config;
  config.seed = 3;
  config.trace = true;
  config.trace_buffer_pages = 1;  // ~a hundred events: guaranteed overflow.
  Experiment exp(config);
  exp.CacheBackgroundApps(4);
  exp.RunScenario(ScenarioKind::kShortVideo, Sec(5), Sec(2));
  const Tracer& t = *exp.tracer();
  EXPECT_GT(t.dropped(), 0u);
  EXPECT_EQ(t.retained(), t.capacity_events());
  EXPECT_EQ(t.emitted(), t.dropped() + t.retained());
  // The retained window is the newest events: it ends at (or near) now.
  std::vector<TraceEvent> events = t.Events();
  ASSERT_FALSE(events.empty());
  EXPECT_GT(events.back().ts, events.front().ts);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts);  // Monotonic SimTime stamps.
  }
}

// The determinism contract: a cell's trace is a pure function of its config
// and seed — byte-identical whether the sweep ran on 1 worker or 8.
TEST(TraceDeterminism, SerialAndParallelSweepsProduceIdenticalTraces) {
  auto traced_cell = [](size_t i) -> std::string {
    ExperimentConfig config;
    config.seed = 100 + (i % 2);  // Cells 0/2 and 1/3 are seed twins.
    config.trace = true;
    Experiment exp(config);
    Uid fg = exp.UidOf(ScenarioPackage(ScenarioKind::kShortVideo));
    exp.CacheBackgroundApps(2, {fg});
    exp.RunScenario(ScenarioKind::kShortVideo, Sec(3), Sec(1));
    return exp.tracer()->Serialize();
  };

  SweepRunner serial(1);
  SweepRunner parallel(8);
  auto s = serial.Map<std::string>(4, traced_cell);
  auto p = parallel.Map<std::string>(4, traced_cell);
  ASSERT_EQ(s.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(s[i].ok) << s[i].error;
    ASSERT_TRUE(p[i].ok) << p[i].error;
    EXPECT_EQ(s[i].value, p[i].value) << "cell " << i << " diverged across jobs";
    EXPECT_FALSE(s[i].value.empty());
  }
  EXPECT_EQ(s[0].value, s[2].value);  // Same seed, same bytes.
  EXPECT_NE(s[0].value, s[1].value);  // Different seed, different trace.
}

TEST(TraceSummaryJsonTest, ShapesAsExpected) {
  Tracer tracer(1);
  tracer.Emit(5, TraceEventType::kFreeze, {.uid = 10001});
  tracer.Emit(9, TraceEventType::kThaw, {.uid = 10001});
  TraceSummary summary = SummarizeTrace(tracer);
  EXPECT_TRUE(summary.enabled);
  EXPECT_EQ(summary.emitted, 2u);
  std::string json = TraceSummaryJson(summary);
  EXPECT_NE(json.find("\"emitted\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"freeze\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"thaw\": 1"), std::string::npos);
}

}  // namespace
}  // namespace ice
