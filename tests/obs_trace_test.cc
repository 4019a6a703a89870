// Observability layer (DESIGN.md §9): span tracer, metrics registry,
// exporter determinism (golden traces), and the invariants tying trace
// annotations to the DOL engine's retry/re-probe counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "dol/engine.h"
#include "netsim/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msql::core {
namespace {

using dol::RetryPolicy;
using netsim::FaultAction;
using netsim::FaultPlan;
using netsim::FaultRule;
using netsim::LamRequestType;
using obs::Span;

constexpr const char* kMultipleQuery =
    "USE avis national\n"
    "LET car.type.status BE cars.cartype.carst vehicle.vty.vstat\n"
    "SELECT %code, type, ~rate\n"
    "FROM car\n"
    "WHERE status = 'available'";

constexpr const char* kFareRaise =
    "USE continental VITAL delta united VITAL\n"
    "UPDATE flight% SET rate% = rate% * 1.1\n"
    "WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

std::unique_ptr<MultidatabaseSystem> TracedFederation() {
  auto sys = BuildPaperFederation();
  EXPECT_TRUE(sys.ok()) << sys.status();
  (*sys)->environment().tracer().set_enabled(true);
  (*sys)->environment().metrics().set_enabled(true);
  return std::move(*sys);
}

int CountSpans(MultidatabaseSystem& sys, const std::string& name) {
  int n = 0;
  for (const Span& span : sys.environment().tracer().spans()) {
    if (span.name == name) ++n;
  }
  return n;
}

int CountCategory(MultidatabaseSystem& sys, const std::string& cat) {
  int n = 0;
  for (const Span& span : sys.environment().tracer().spans()) {
    if (span.category == cat) ++n;
  }
  return n;
}

// The acceptance bar of the tracing layer: one traced execution covers
// every pipeline stage — frontend phases, the DOL run, every task,
// every RPC (attempt-annotated), every message.
TEST(ObsTraceTest, PipelinePhasesTasksAndRpcsAreAllSpanned) {
  auto sys = TracedFederation();
  auto report = sys->Execute(kMultipleQuery);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->outcome, GlobalOutcome::kSuccess);

  for (const char* phase :
       {"msql.execute", "msql.parse", "msql.check", "msql.expand",
        "msql.translate", "msql.verify", "dol.run"}) {
    EXPECT_EQ(CountSpans(*sys, phase), 1) << phase;
  }
  // One task span per task the run reports, lying inside the dol.run
  // interval and carrying its final state.
  EXPECT_EQ(CountCategory(*sys, "dol.task"),
            static_cast<int>(report->run.tasks.size()));
  for (const auto& [name, outcome] : report->run.tasks) {
    EXPECT_EQ(CountSpans(*sys, "task:" + name), 1) << name;
  }
  // Channel lifecycle spans for both rental databases.
  EXPECT_GE(CountCategory(*sys, "channel"), 2);
  // Every RPC span carries an attempt number; a clean run is all 1s.
  int rpc_spans = 0;
  for (const Span& span : sys->environment().tracer().spans()) {
    if (span.category != "rpc") continue;
    ++rpc_spans;
    EXPECT_EQ(span.Find("attempt"), "1") << span.name;
  }
  EXPECT_GT(rpc_spans, 0);
  // One net.send span per accounted message.
  EXPECT_EQ(CountSpans(*sys, "net.send"),
            static_cast<int>(report->run.messages));
  // The report carries the per-input text tree.
  EXPECT_NE(report->trace_text.find("msql.execute"), std::string::npos);
  EXPECT_NE(report->trace_text.find("dol.run"), std::string::npos);
}

// Golden trace: under a fixed seed, two fresh federations executing the
// same input emit byte-identical Chrome trace JSON (host time excluded
// by default — it is the only nondeterministic field).
TEST(ObsTraceTest, ChromeTraceIsByteIdenticalUnderFixedSeed) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    auto sys = TracedFederation();
    auto report = sys->Execute(kFareRaise);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->outcome, GlobalOutcome::kSuccess);
    *out = obs::ExportChromeTrace(sys->environment().tracer());
  }
  EXPECT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
  // Structural smoke check of the trace-event format.
  EXPECT_EQ(first.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(first.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(first.find("\"thread_name\""), std::string::npos);
  EXPECT_EQ(first.find("host_us"), std::string::npos);
}

// Chaos spot check: the rpc spans' attempt annotations are the ground
// truth the retry counter summarizes — retries == spans re-sent
// (attempt > 1), reprobes == "reprobe" spans.
TEST(ObsTraceTest, RetryAndReprobeCountersMatchTheirSpans) {
  auto sys = TracedFederation();
  sys->set_retry_policy(RetryPolicy::WithAttempts(3));
  FaultPlan plan;
  plan.rules.push_back(FaultRule::Transient("united_svc",
                                            LamRequestType::kExecute,
                                            /*k=*/2));
  plan.rules.push_back(FaultRule::NthCall("continental_svc",
                                          LamRequestType::kCommit, 1,
                                          FaultAction::kLostResponse));
  sys->environment().fault_injector().SetPlan(plan);
  auto report = sys->Execute(kFareRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kSuccess);
  ASSERT_GE(report->run.retries, 2);
  ASSERT_GE(report->run.reprobes, 1);

  int resent = 0;
  int faulted = 0;
  for (const Span& span : sys->environment().tracer().spans()) {
    if (span.category != "rpc") continue;
    if (!span.Find("attempt").empty() && span.Find("attempt") != "1") {
      ++resent;
    }
    if (!span.Find("fault").empty()) ++faulted;
  }
  EXPECT_EQ(resent, report->run.retries);
  EXPECT_EQ(CountSpans(*sys, "reprobe"), report->run.reprobes);
  // Both injected faults are visible on their rpc spans.
  EXPECT_GE(faulted, 3);  // two rejects + one lost response
  // The metrics registry agrees with the engine's counters.
  const auto& metrics = sys->environment().metrics();
  EXPECT_EQ(metrics.Get("dol.retries"), report->run.retries);
  EXPECT_EQ(metrics.Get("dol.reprobes"), report->run.reprobes);
}

// Consecutive inputs of one session lay out sequentially on the
// simulated timeline instead of piling up at t=0.
TEST(ObsTraceTest, ConsecutiveInputsAdvanceTheSimOffset) {
  auto sys = TracedFederation();
  auto first = sys->Execute(kMultipleQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->run.makespan_micros, 0);
  auto second = sys->Execute(kMultipleQuery);
  ASSERT_TRUE(second.ok()) << second.status();

  int64_t second_run_start = -1;
  int runs = 0;
  for (const Span& span : sys->environment().tracer().spans()) {
    if (span.name != "dol.run") continue;
    if (++runs == 2) second_run_start = span.sim_start_micros;
  }
  ASSERT_EQ(runs, 2);
  EXPECT_EQ(second_run_start, first->run.makespan_micros);
  // Each report's text tree covers its own input only.
  EXPECT_EQ(first->trace_text.find("msql.execute"),
            first->trace_text.rfind("msql.execute"));
}

// Off by default: no spans, no metrics, no trace text, no offsets.
TEST(ObsTraceTest, DisabledTracerIsANullSink) {
  auto sys_or = BuildPaperFederation();
  ASSERT_TRUE(sys_or.ok()) << sys_or.status();
  auto sys = std::move(*sys_or);
  auto report = sys->Execute(kMultipleQuery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kSuccess);
  EXPECT_TRUE(sys->environment().tracer().spans().empty());
  EXPECT_TRUE(report->trace_text.empty());
  EXPECT_TRUE(sys->environment().metrics().Dump().empty());
}

// Per-run traffic accounting feeds the metrics: with nothing else on
// the environment, the global counters equal the run's own.
TEST(ObsTraceTest, MetricsMirrorTheRunAccounting) {
  auto sys = TracedFederation();
  auto report = sys->Execute(kMultipleQuery);
  ASSERT_TRUE(report.ok()) << report.status();
  const auto& metrics = sys->environment().metrics();
  EXPECT_EQ(metrics.Get("dol.runs"), 1);
  EXPECT_EQ(metrics.Get("net.messages"), report->run.messages);
  EXPECT_EQ(metrics.Get("net.bytes"), report->run.bytes);
  EXPECT_EQ(metrics.Get("dol.tasks"),
            static_cast<int64_t>(report->run.tasks.size()));
  const obs::Histogram* rpc = metrics.GetHistogram("rpc.sim_micros");
  ASSERT_NE(rpc, nullptr);
  EXPECT_GT(rpc->count(), 0);
  EXPECT_GT(rpc->Quantile(0.5), 0);
  // The dump is deterministic and names every family we rely on.
  std::string dump = metrics.Dump();
  for (const char* key : {"dol.runs", "net.messages", "rpc.calls",
                          "rpc.sim_micros", "lam.service_micros"}) {
    EXPECT_NE(dump.find(key), std::string::npos) << key;
  }
}

// The parent stack works across module boundaries: every task span
// descends from the run (directly or via a dol.parbegin fork), and
// every rpc span nests under some other span, never as a root.
TEST(ObsTraceTest, SpansNestTasksUnderRunAndRpcsUnderTasks) {
  auto sys = TracedFederation();
  auto report = sys->Execute(kMultipleQuery);
  ASSERT_TRUE(report.ok()) << report.status();
  const auto& tracer = sys->environment().tracer();
  uint64_t run_id = 0;
  for (const Span& span : tracer.spans()) {
    if (span.name == "dol.run") run_id = span.id;
  }
  ASSERT_NE(run_id, 0u);
  auto descends_from_run = [&](const Span& span) {
    for (uint64_t id = span.parent; id != 0;) {
      if (id == run_id) return true;
      const Span* parent = tracer.FindSpan(id);
      if (parent == nullptr) return false;
      id = parent->parent;
    }
    return false;
  };
  for (const Span& span : tracer.spans()) {
    if (span.category == "dol.task" || span.category == "rpc") {
      EXPECT_TRUE(descends_from_run(span)) << span.name;
    }
    if (span.category == "rpc") {
      EXPECT_NE(span.parent, 0u) << span.name;
    }
  }
}

}  // namespace
}  // namespace msql::core
