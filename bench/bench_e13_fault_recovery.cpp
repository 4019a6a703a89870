// E13: makespan and outcome distribution of the §3.2 fare touch under a
// transient-fault rate, with the retry/backoff policy on vs off. Each
// iteration reseeds the injector so the sweep averages over schedules
// while staying fully reproducible. Expected shape: without retries the
// success fraction decays quickly with the fault rate; with retries it
// stays near 1 while the paid backoff shows up as extra simulated time.
#include <benchmark/benchmark.h>

#include <string>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "dol/engine.h"
#include "netsim/fault_injector.h"

namespace {

using msql::core::BuildPaperFederation;
using msql::core::GlobalOutcome;
using msql::core::PaperFederationOptions;
using msql::dol::RetryPolicy;
using msql::netsim::FaultAction;
using msql::netsim::FaultPlan;
using msql::netsim::FaultRule;

/// *1.0 keeps the data numerically stable across iterations.
constexpr const char* kFareTouch =
    "USE continental VITAL delta united VITAL\n"
    "UPDATE flight% SET rate% = rate% * 1.0\n"
    "WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

/// Every call to every service is rejected with probability `p`.
FaultPlan TransientNoise(double p, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule rule =
      FaultRule::Random("", std::nullopt, p, FaultAction::kReject);
  plan.rules.push_back(rule);
  return plan;
}

/// Arg(0): fault probability in percent. Arg(1): retry on/off.
void BM_FaultRecovery(benchmark::State& state) {
  double fault_pct = static_cast<double>(state.range(0));
  bool retry = state.range(1) != 0;

  PaperFederationOptions options;
  options.flights_per_airline = 32;
  auto sys = BuildPaperFederation(options);
  if (!sys.ok()) {
    state.SkipWithError(sys.status().ToString().c_str());
    return;
  }
  (*sys)->set_retry_policy(retry ? RetryPolicy::WithAttempts(4)
                                 : RetryPolicy::None());

  int64_t sim_micros = 0;
  int64_t retries = 0;
  int64_t reprobes = 0;
  int64_t success = 0, aborted = 0, incorrect = 0;
  int64_t iterations = 0;
  uint64_t seed = 0x5EED;
  for (auto _ : state) {
    (*sys)->environment().fault_injector().SetPlan(
        TransientNoise(fault_pct / 100.0, ++seed));
    auto report = (*sys)->Execute(kFareTouch);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    sim_micros += report->run.makespan_micros;
    retries += report->run.retries;
    reprobes += report->run.reprobes;
    switch (report->outcome) {
      case GlobalOutcome::kSuccess: ++success; break;
      case GlobalOutcome::kAborted: ++aborted; break;
      case GlobalOutcome::kIncorrect: ++incorrect; break;
      case GlobalOutcome::kRefused: break;
    }
    ++iterations;
  }
  double n = static_cast<double>(iterations);
  state.counters["sim_ms"] =
      benchmark::Counter(static_cast<double>(sim_micros) / 1000.0 / n);
  state.counters["retries"] =
      benchmark::Counter(static_cast<double>(retries) / n);
  state.counters["reprobes"] =
      benchmark::Counter(static_cast<double>(reprobes) / n);
  state.counters["success_frac"] =
      benchmark::Counter(static_cast<double>(success) / n);
  state.counters["aborted_frac"] =
      benchmark::Counter(static_cast<double>(aborted) / n);
  state.counters["incorrect_frac"] =
      benchmark::Counter(static_cast<double>(incorrect) / n);
}
BENCHMARK(BM_FaultRecovery)
    ->ArgsProduct({{0, 1, 2, 5, 10}, {0, 1}})
    ->ArgNames({"fault_pct", "retry"});

/// The in-doubt resolution path in isolation: every first commit ACK to
/// united vanishes; the reprobe either rescues the run (retry on) or
/// the run ends kIncorrect (retry off).
void BM_LostCommitAck(benchmark::State& state) {
  bool retry = state.range(0) != 0;
  PaperFederationOptions options;
  options.flights_per_airline = 32;
  auto sys = BuildPaperFederation(options);
  if (!sys.ok()) {
    state.SkipWithError(sys.status().ToString().c_str());
    return;
  }
  (*sys)->set_retry_policy(retry ? RetryPolicy::WithAttempts(4)
                                 : RetryPolicy::None());

  int64_t sim_micros = 0;
  int64_t success = 0;
  int64_t iterations = 0;
  for (auto _ : state) {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule::NthCall("united_svc", msql::netsim::LamRequestType::kCommit,
                           1, FaultAction::kLostResponse));
    (*sys)->environment().fault_injector().SetPlan(plan);
    auto report = (*sys)->Execute(kFareTouch);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    sim_micros += report->run.makespan_micros;
    success += report->outcome == GlobalOutcome::kSuccess ? 1 : 0;
    ++iterations;
  }
  double n = static_cast<double>(iterations);
  state.counters["sim_ms"] =
      benchmark::Counter(static_cast<double>(sim_micros) / 1000.0 / n);
  state.counters["success_frac"] =
      benchmark::Counter(static_cast<double>(success) / n);
}
BENCHMARK(BM_LostCommitAck)->Arg(0)->Arg(1)->ArgName("retry");

}  // namespace

BENCHMARK_MAIN();
