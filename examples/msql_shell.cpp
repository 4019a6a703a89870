// Interactive MSQL shell over the paper's example federation.
//
//   $ msql_shell            — REPL on stdin
//   $ msql_shell script.msql — run a file of ';'-separated MSQL inputs
//
// Inputs end at a ';' on its own or at end of line; multitransactions
// end at END MULTITRANSACTION. Meta commands: \gdd (dump dictionary),
// \dol (toggle printing generated DOL programs), \plan (toggle printing
// each SELECT, UPDATE and DELETE task's local physical plan — pushdown,
// index probes, join order), \trace (toggle span tracing; each input then prints its span
// tree), \trace FILE (write the accumulated trace as Chrome trace-event
// JSON, loadable in Perfetto), \metrics (dump federation
// counters/histograms), \metrics on|off (toggle counter collection
// independently of tracing), \profile (toggle per-input EXPLAIN ANALYZE
// profiles — phase breakdown, per-site attribution, critical path),
// \health (per-site health table; \health --json for the same snapshot
// as JSON), \watch (federation monitor dashboard — SLO budgets, shed
// state, recent windows, alert tail; \watch --json for JSON), \slo
// (SLO budget table), \alerts (alert stream as JSON Lines), \qlog FILE
// (append a JSONL audit record per executed input to FILE; \qlog off
// stops), \cost (toggle
// printing the distributed optimizer's cost breakdown — movement
// strategy and estimated transfer micros per subquery), \cost on|off
// (switch between the cost-based optimizer and the paper-heuristic
// fallback), \quit.
// Prefixing an input with \check statically analyzes it instead of
// executing it; \explain additionally prints the DOL program it would
// run; \conflicts additionally prints the plan's predicted access
// summary (per-site read/write sets, lock modes, acquisition order,
// 2PC holds — the DL3xx conflict analyzer's view).
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "obs/monitor.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace {

using msql::core::ExecutionReport;
using msql::core::GlobalOutcome;
using msql::core::GlobalOutcomeName;
using msql::core::MultidatabaseSystem;

void PrintReport(const ExecutionReport& report, bool show_dol,
                 bool show_cost) {
  std::printf("-- %s (DOLSTATUS=%d",
              std::string(GlobalOutcomeName(report.outcome)).c_str(),
              report.dol_status);
  if (!report.detail.ok()) {
    std::printf("; %s", report.detail.ToString().c_str());
  }
  std::printf(")\n");
  if (report.is_join) {
    std::printf("%s", report.join_result.ToString().c_str());
  } else if (!report.multitable.empty()) {
    std::printf("%s", report.multitable.ToString().c_str());
  }
  if (report.rows_transferred > 0) {
    std::printf("(%lld rows transferred)\n",
                static_cast<long long>(report.rows_transferred));
  }
  for (const auto& name : report.fired_triggers) {
    std::printf("(trigger %s fired)\n", name.c_str());
  }
  if (!report.non_pertinent.empty()) {
    std::printf("(non-pertinent:");
    for (const auto& db : report.non_pertinent) {
      std::printf(" %s", db.c_str());
    }
    std::printf(")\n");
  }
  if (show_dol && !report.dol_text.empty()) {
    std::printf("%s", report.dol_text.c_str());
  }
  if (!report.plan_text.empty()) {
    std::printf("-- local plans --\n%s", report.plan_text.c_str());
  }
  if (show_cost && !report.cost_text.empty()) {
    std::printf("-- distributed cost --\n%s", report.cost_text.c_str());
  }
  if (!report.trace_text.empty()) {
    std::printf("-- trace --\n%s", report.trace_text.c_str());
  }
  if (!report.profile_text.empty()) {
    std::printf("-- profile --\n%s", report.profile_text.c_str());
  }
}

void PrintAnalysis(const msql::core::AnalysisReport& report,
                   const std::string& source, bool show_dol,
                   bool show_conflicts) {
  for (const auto& d : report.diagnostics.items()) {
    std::printf("%s\n", d.RenderPretty(source).c_str());
  }
  if (report.refused && report.diagnostics.empty()) {
    std::printf("-- would be REFUSED: %s\n",
                report.refusal.ToString().c_str());
  } else if (report.refused) {
    std::printf("-- would be REFUSED\n");
  } else if (!report.error.ok()) {
    std::printf("-- would fail: %s\n", report.error.ToString().c_str());
  } else if (report.diagnostics.has_errors()) {
    std::printf("-- does not check (%zu error(s))\n",
                report.diagnostics.error_count());
  } else {
    std::printf("-- checks out (%s; %zu warning(s))\n",
                report.kind.c_str(),
                report.diagnostics.warning_count());
  }
  if (show_dol && report.translated) {
    std::printf("%s", report.dol_text.c_str());
  }
  if (show_conflicts && report.summary.has_value()) {
    std::printf("%s", report.summary->Render().c_str());
  }
}

/// True when `buffer` holds a complete input (a ';' outside a pending
/// BEGIN MULTITRANSACTION, or the END MULTITRANSACTION keyword pair).
bool InputComplete(const std::string& buffer) {
  std::string lower = msql::ToLower(buffer);
  bool in_mt = lower.find("begin multitransaction") != std::string::npos;
  if (in_mt) {
    return lower.find("end multitransaction") != std::string::npos;
  }
  return buffer.find(';') != std::string::npos;
}

int RunStream(MultidatabaseSystem* sys, std::istream& in, bool echo) {
  bool show_dol = false;
  bool show_cost = false;
  std::string qlog_file;  // "" = query log not writing to a file
  // Always-on federation monitor behind \watch/\slo/\alerts. The shell
  // is serial, so each executed input is one "session"; inputs advance
  // a cumulative simulated cursor (the shell has no batch clock of its
  // own) and land in 1s monitor windows.
  msql::obs::MonitorConfig mon_config;
  mon_config.slo_max_error_rate = 0.5;
  msql::obs::Monitor monitor(mon_config, &sys->environment().metrics(),
                             &sys->environment().health());
  monitor.set_query_log(&sys->query_log());
  int64_t sim_cursor = 0;
  std::string buffer;
  std::string line;
  // "" — execute; "check" — analyze only; "explain" — analyze + DOL;
  // "conflicts" — analyze + access summary.
  std::string analyze_mode;
  if (echo) std::printf("msql> ");
  while (std::getline(in, line)) {
    std::string trimmed(msql::Trim(line));
    if (trimmed == "\\quit" || trimmed == "\\q") break;
    if (trimmed == "\\gdd") {
      std::printf("%s", sys->gdd().ToString().c_str());
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\dol") {
      show_dol = !show_dol;
      std::printf("(DOL printing %s)\n", show_dol ? "on" : "off");
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\plan") {
      bool on = !sys->collect_plans();
      sys->set_collect_plans(on);
      std::printf("(local plan printing %s)\n", on ? "on" : "off");
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\cost" || trimmed.rfind("\\cost ", 0) == 0) {
      std::string arg(msql::Trim(trimmed.substr(std::strlen("\\cost"))));
      if (arg == "on" || arg == "off") {
        sys->set_cost_based_optimizer(arg == "on");
        std::printf("(optimizer: %s)\n",
                    arg == "on" ? "cost-based (run ANALYZE for stats)"
                                : "paper heuristics");
      } else {
        show_cost = !show_cost;
        std::printf("(cost breakdown printing %s)\n",
                    show_cost ? "on" : "off");
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\trace" || trimmed.rfind("\\trace ", 0) == 0) {
      auto& tracer = sys->environment().tracer();
      std::string arg(msql::Trim(trimmed.substr(std::strlen("\\trace"))));
      if (!arg.empty()) {
        std::ofstream out(arg);
        if (!out) {
          std::printf("cannot open %s\n", arg.c_str());
        } else {
          msql::obs::ChromeTraceOptions options;
          options.counter_tracks = monitor.CounterTracks();
          out << msql::obs::ExportChromeTrace(tracer, options);
          std::printf("(%zu spans written to %s — load in Perfetto)\n",
                      tracer.spans().size(), arg.c_str());
        }
      } else {
        // Tracing no longer drags the metrics registry along: counters
        // have their own \metrics on|off toggle.
        bool on = !tracer.enabled();
        if (on) tracer.Clear();  // fresh session timeline
        tracer.set_enabled(on);
        std::printf("(tracing %s)\n", on ? "on" : "off");
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\metrics" || trimmed.rfind("\\metrics ", 0) == 0) {
      auto& metrics = sys->environment().metrics();
      std::string arg(msql::Trim(trimmed.substr(std::strlen("\\metrics"))));
      if (arg == "on" || arg == "off") {
        metrics.set_enabled(arg == "on");
        std::printf("(metrics collection %s)\n", arg.c_str());
      } else {
        std::string dump = metrics.Dump();
        if (dump.empty()) {
          std::printf("(no metrics collected%s)\n",
                      metrics.enabled() ? "" : "; enable with \\metrics on");
        } else {
          std::printf("%s", dump.c_str());
        }
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\profile") {
      bool on = !sys->collect_profiles();
      sys->set_collect_profiles(on);
      if (on) {
        // The profiler reads the input's span subtree and diffs counter
        // snapshots, so it needs both collectors live.
        auto& tracer = sys->environment().tracer();
        if (!tracer.enabled()) {
          tracer.Clear();
          tracer.set_enabled(true);
        }
        sys->environment().metrics().set_enabled(true);
      }
      std::printf("(profiling %s)\n", on ? "on" : "off");
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\health" || trimmed.rfind("\\health ", 0) == 0) {
      std::string arg(msql::Trim(trimmed.substr(std::strlen("\\health"))));
      if (arg == "--json" || arg == "json") {
        std::printf("%s\n", sys->environment().health().RenderJson().c_str());
      } else {
        std::printf("%s", sys->environment().health().RenderText().c_str());
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\watch" || trimmed.rfind("\\watch ", 0) == 0) {
      std::string arg(msql::Trim(trimmed.substr(std::strlen("\\watch"))));
      monitor.Flush(sim_cursor);
      if (arg == "--json" || arg == "json") {
        std::printf("%s\n", monitor.RenderDashboardJson().c_str());
      } else {
        std::printf("%s", monitor.RenderDashboardText().c_str());
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\slo") {
      monitor.Flush(sim_cursor);
      for (const auto& slo : monitor.SloStatuses()) {
        if (!slo.enabled) continue;
        std::printf("%-16s limit=%g last=%g budget=%d/%d state=%s\n",
                    slo.name.c_str(), slo.limit, slo.last_value,
                    slo.violations_in_horizon, slo.allowed_in_horizon,
                    slo.state.c_str());
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\alerts") {
      monitor.Flush(sim_cursor);
      std::string jsonl = monitor.AlertsJsonl();
      if (jsonl.empty()) {
        std::printf("(no alerts)\n");
      } else {
        std::printf("%s", jsonl.c_str());
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    if (trimmed == "\\qlog" || trimmed.rfind("\\qlog ", 0) == 0) {
      auto& qlog = sys->query_log();
      std::string arg(msql::Trim(trimmed.substr(std::strlen("\\qlog"))));
      if (arg.empty()) {
        std::printf("(query log %s; %zu record(s)%s%s)\n",
                    qlog.enabled() ? "on" : "off", qlog.records().size(),
                    qlog_file.empty() ? "" : " -> ",
                    qlog_file.c_str());
      } else if (arg == "off") {
        qlog.set_enabled(false);
        qlog_file.clear();
        std::printf("(query log off)\n");
      } else {
        std::ofstream out(arg, std::ios::trunc);
        if (!out) {
          std::printf("cannot open %s\n", arg.c_str());
        } else {
          qlog_file = arg;
          qlog.set_enabled(true);
          qlog.Clear();
          std::printf("(query log -> %s)\n", arg.c_str());
        }
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    // \check / \explain / \conflicts prefix an input: strip the command
    // and keep accumulating the MSQL text as usual; on completion the
    // input is analyzed instead of executed.
    if (buffer.empty()) {
      for (const char* cmd : {"\\check", "\\explain", "\\conflicts"}) {
        if (trimmed.rfind(cmd, 0) == 0 &&
            (trimmed.size() == std::strlen(cmd) ||
             std::isspace(static_cast<unsigned char>(
                 trimmed[std::strlen(cmd)])))) {
          analyze_mode = cmd + 1;
          line = trimmed.substr(std::strlen(cmd));
          break;
        }
      }
    }
    buffer += line;
    buffer += "\n";
    if (!InputComplete(buffer)) {
      if (echo) std::printf("  ... ");
      continue;
    }
    std::string input = buffer;
    std::string mode = analyze_mode;
    buffer.clear();
    analyze_mode.clear();
    if (msql::Trim(input).empty() || msql::Trim(input) == ";") {
      if (echo) std::printf("msql> ");
      continue;
    }
    if (!mode.empty()) {
      auto analysis = sys->Analyze(input);
      if (!analysis.ok()) {
        std::printf("error: %s\n", analysis.status().ToString().c_str());
      } else {
        PrintAnalysis(*analysis, input, show_dol || mode == "explain",
                      mode == "conflicts");
      }
      if (echo) std::printf("msql> ");
      continue;
    }
    auto report = sys->Execute(input);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
    } else {
      PrintReport(*report, show_dol, show_cost);
      // Feed the monitor: one input = one session on the cumulative
      // simulated cursor (each input's run starts its own sim timeline,
      // so the shell strings them end to end).
      sim_cursor += std::max<int64_t>(report->run.makespan_micros, 1);
      msql::obs::Monitor::SessionSample sample;
      sample.finish_micros = sim_cursor;
      sample.makespan_micros = report->run.makespan_micros;
      sample.ok = report->outcome == GlobalOutcome::kSuccess;
      monitor.RecordSession(sample);
      if (monitor.NeedsSample(sim_cursor)) monitor.AdvanceTo(sim_cursor);
    }
    if (!qlog_file.empty() && sys->query_log().enabled()) {
      // Rewrite the whole JSONL file: records are small and the final
      // content is then always the complete session log.
      std::ofstream out(qlog_file, std::ios::trunc);
      if (out) out << sys->query_log().ToJsonl();
    }
    if (echo) std::printf("msql> ");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto sys_or = msql::core::BuildPaperFederation();
  if (!sys_or.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n",
                 sys_or.status().ToString().c_str());
    return 1;
  }
  auto sys = std::move(sys_or).value();
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    return RunStream(sys.get(), file, /*echo=*/false);
  }
  std::printf(
      "Extended MSQL shell — federation: continental delta united avis "
      "national\nmeta: \\gdd \\dol \\plan \\cost [on|off] \\trace [file] "
      "\\metrics [on|off] \\profile \\health [--json] \\watch [--json] "
      "\\slo \\alerts \\qlog [file|off] \\check "
      "\\explain \\conflicts \\quit; end inputs with ';'\n");
  return RunStream(sys.get(), std::cin, /*echo=*/true);
}
