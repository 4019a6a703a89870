// Static analysis (DESIGN.md §8): one failing-input golden test per
// MS1xx checker code and DL2xx verifier code, the Analyze API contract
// (no execution, no scope drift), and the verifier-accepts-translator
// property over randomized valid scopes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/conflict_analyzer.h"
#include "analysis/diagnostics.h"
#include "analysis/dol_verifier.h"
#include "analysis/msql_checker.h"
#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "dol/parser.h"
#include "msql/parser.h"

namespace msql::analysis {
namespace {

using core::BuildPaperFederation;
using core::BuildSyntheticFederation;
using core::MultidatabaseSystem;
using core::PaperFederationOptions;
using core::SyntheticFederationOptions;

// ---------------------------------------------------------------------------
// Diagnostics framework
// ---------------------------------------------------------------------------

TEST(DiagnosticsTest, RenderForms) {
  Diagnostic d;
  d.code = "MS103";
  d.severity = Severity::kError;
  d.span = SourceSpan::At(2, 8, 9);
  d.message = "column 'nosuchcol' resolves in no scope database";
  d.fix_hint = "check the spelling";
  EXPECT_EQ(d.Render(),
            "error[MS103] line 2 col 8: column 'nosuchcol' resolves in no "
            "scope database");
  std::string pretty =
      d.RenderPretty("USE avis\nSELECT nosuchcol FROM cars;\n");
  EXPECT_NE(pretty.find("2 | SELECT nosuchcol FROM cars;"),
            std::string::npos)
      << pretty;
  EXPECT_NE(pretty.find("^~~~~~~~~"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("help: check the spelling"), std::string::npos)
      << pretty;
}

TEST(DiagnosticsTest, RenderPrettyExpandsTabs) {
  // The excerpt expands tabs to 4-column stops and the caret column is
  // remapped accordingly: raw column 9 ('nosuchcol' after a leading
  // tab) lands on expanded column 12, not under the wrong character.
  Diagnostic d;
  d.code = "MS103";
  d.severity = Severity::kError;
  d.span = SourceSpan::At(2, 9, 9);
  d.message = "column 'nosuchcol' resolves in no scope database";
  std::string pretty =
      d.RenderPretty("USE avis\n\tSELECT nosuchcol FROM cars;\n");
  EXPECT_NE(pretty.find("2 |     SELECT nosuchcol FROM cars;"),
            std::string::npos)
      << pretty;
  std::string caret_line = "| " + std::string(11, ' ') + "^~~~~~~~";
  EXPECT_NE(pretty.find(caret_line), std::string::npos) << pretty;
}

TEST(DiagnosticsTest, ListAccountingAndStatus) {
  DiagnosticList list;
  EXPECT_TRUE(list.ToStatus().ok());
  list.Add("MS106", Severity::kWarning, SourceSpan{}, "w");
  EXPECT_TRUE(list.ToStatus().ok());
  list.Add("MS102", Severity::kError, SourceSpan::At(1, 1), "e");
  EXPECT_EQ(list.error_count(), 1u);
  EXPECT_EQ(list.warning_count(), 1u);
  Status status = list.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("error[MS102]"), std::string::npos);
  // Warnings do not leak into the error status.
  EXPECT_EQ(status.message().find("MS106"), std::string::npos);
  ASSERT_NE(list.Find("MS106"), nullptr);
  EXPECT_EQ(list.Find("MS199"), nullptr);
}

// ---------------------------------------------------------------------------
// MSQL checker (MS1xx) — one golden test per code
// ---------------------------------------------------------------------------

class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sys = BuildPaperFederation();
    ASSERT_TRUE(sys.ok()) << sys.status();
    sys_ = std::move(*sys);
  }

  DiagnosticList Check(const std::string& text) {
    auto input = lang::MsqlParser::ParseOne(text);
    EXPECT_TRUE(input.ok()) << input.status();
    if (!input.ok()) return DiagnosticList{};
    EXPECT_EQ(input->kind, lang::MsqlInput::Kind::kQuery);
    return CheckQuery(*input->query, sys_->gdd(),
                      sys_->auxiliary_directory());
  }

  /// The single diagnostic carrying `code`, with severity asserted.
  const Diagnostic* Expect(const DiagnosticList& list, std::string_view code,
                           Severity severity) {
    const Diagnostic* d = list.Find(code);
    EXPECT_NE(d, nullptr) << "no " << code << " in:\n" << list.RenderAll();
    if (d != nullptr) EXPECT_EQ(d->severity, severity) << d->Render();
    return d;
  }

  std::unique_ptr<MultidatabaseSystem> sys_;
};

TEST_F(CheckerTest, Ms101UnknownDatabase) {
  auto diags = Check("USE ghostdb\nSELECT code FROM cars;");
  const Diagnostic* d = Expect(diags, diag::kUnknownDatabase,
                               Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Render(),
            "error[MS101] line 1 col 5: database 'ghostdb' is not in the "
            "GDD (IMPORT it first)");
  EXPECT_EQ(d->span.length, 7);
}

TEST_F(CheckerTest, Ms102UnknownTable) {
  auto diags = Check("USE avis\nSELECT code FROM nosuchtab;");
  const Diagnostic* d = Expect(diags, diag::kUnknownTable, Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Render(),
            "error[MS102] line 2 col 18: table 'nosuchtab' resolves in no "
            "scope database");
}

TEST_F(CheckerTest, Ms103UnknownColumn) {
  auto diags = Check("USE avis\nSELECT nosuchcol FROM cars;");
  const Diagnostic* d = Expect(diags, diag::kUnknownColumn, Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Render(),
            "error[MS103] line 2 col 8: column 'nosuchcol' resolves in no "
            "scope database");
}

TEST_F(CheckerTest, Ms104LetTypeMismatch) {
  // avis cars.rate is REAL, national vehicle.vstat is TEXT.
  auto diags = Check(
      "USE avis national\n"
      "LET car.fare BE cars.rate vehicle.vstat\n"
      "SELECT fare FROM car;");
  const Diagnostic* d = Expect(diags, diag::kLetTypeMismatch,
                               Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 2);
  EXPECT_NE(d->message.find("'fare' binds columns of incompatible types"),
            std::string::npos)
      << d->Render();
  EXPECT_FALSE(diags.has_errors()) << diags.RenderAll();
}

TEST_F(CheckerTest, Ms105EmptyWildcard) {
  auto diags = Check("USE avis\nSELECT code FROM zz%;");
  const Diagnostic* d = Expect(diags, diag::kEmptyWildcard, Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Render(),
            "error[MS105] line 2 col 18: implicit variable 'zz%' matches "
            "no table in any scope database");
}

TEST_F(CheckerTest, Ms106OptionalColumnNowhere) {
  auto diags = Check("USE avis\nSELECT code, ~nosuch FROM cars;");
  const Diagnostic* d = Expect(diags, diag::kOptionalNowhere,
                               Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 2);
  EXPECT_EQ(d->span.column, 15);
  EXPECT_NE(d->message.find("'~nosuch' exists in no scope database"),
            std::string::npos)
      << d->Render();
  EXPECT_FALSE(diags.has_errors()) << diags.RenderAll();
}

TEST_F(CheckerTest, Ms107OptionalColumnEverywhere) {
  // cfrom exists in both avis.cars and national.vehicle, so '~' is
  // redundant.
  auto diags = Check(
      "USE avis national\n"
      "LET car BE cars vehicle\n"
      "SELECT ~cfrom FROM car;");
  const Diagnostic* d = Expect(diags, diag::kOptionalEverywhere,
                               Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'~cfrom' exists in every scope database"),
            std::string::npos)
      << d->Render();
  EXPECT_FALSE(diags.has_errors()) << diags.RenderAll();
}

TEST_F(CheckerTest, Ms108DuplicateEffectiveNameInParser) {
  // The parser rejects the duplicate before the checker ever runs.
  auto input =
      lang::MsqlParser::ParseOne("USE avis avis SELECT code FROM cars;");
  ASSERT_FALSE(input.ok());
  EXPECT_EQ(input.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(input.status().message().find("error[MS108] line 1 col 10"),
            std::string::npos)
      << input.status().message();
  // An alias makes the scope legal again.
  EXPECT_TRUE(lang::MsqlParser::ParseOne(
                  "USE avis (avis a2) SELECT code FROM cars;")
                  .ok());
}

TEST_F(CheckerTest, Ms109CompOnNonVital) {
  auto diags = Check(
      "USE avis VITAL national\n"
      "LET cartab.cstat BE cars.carst vehicle.vstat\n"
      "UPDATE cartab SET cstat = 'TAKEN'\n"
      "COMP national DELETE FROM vehicle WHERE vstat = 'TAKEN';");
  const Diagnostic* d = Expect(diags, diag::kCompOnNonVital,
                               Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 4);
  EXPECT_EQ(d->span.column, 6);
  EXPECT_FALSE(diags.has_errors()) << diags.RenderAll();
}

TEST_F(CheckerTest, Ms110CompUnknownDatabase) {
  auto diags = Check(
      "USE avis\n"
      "UPDATE cars SET carst = 'TAKEN'\n"
      "COMP hertz DELETE FROM cars WHERE carst = 'TAKEN';");
  const Diagnostic* d = Expect(diags, diag::kCompUnknownDatabase,
                               Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Render(),
            "error[MS110] line 3 col 6: COMP clause names 'hertz', which "
            "is not in the USE scope");
}

TEST_F(CheckerTest, Ms111VitalSetUnenforceable) {
  // §3.3 downgrade: both airlines autocommit-only, both VITAL, no COMP.
  PaperFederationOptions options;
  options.continental_autocommit_only = true;
  auto sys = BuildPaperFederation(options);
  ASSERT_TRUE(sys.ok()) << sys.status();
  sys_ = std::move(*sys);
  ASSERT_TRUE(sys_->Execute(
                      "INCORPORATE SERVICE united_svc SITE site_united "
                      "CONNECTMODE CONNECT COMMITMODE COMMIT CREATE COMMIT "
                      "INSERT COMMIT DROP COMMIT")
                  .ok());
  auto diags = Check(
      "USE continental VITAL united VITAL\n"
      "UPDATE flight% SET rate% = rate% * 1.1;");
  const Diagnostic* d = Expect(diags, diag::kVitalSetUnenforceable,
                               Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 1);
  EXPECT_EQ(d->span.column, 23);  // points at 'united'
  EXPECT_NE(d->message.find(
                "databases {continental, united} neither support 2PC nor "
                "provide COMP clauses"),
            std::string::npos)
      << d->Render();

  // End to end the same program is *refused*, not errored (§3.3).
  auto report = sys_->Execute(
      "USE continental VITAL united VITAL\n"
      "UPDATE flight% SET rate% = rate% * 1.1");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, core::GlobalOutcome::kRefused);
  EXPECT_EQ(report->detail.code(), StatusCode::kRefused);
  EXPECT_NE(report->detail.message().find("MS111"), std::string::npos);
}

TEST_F(CheckerTest, Ms112LetTargetMissing) {
  auto diags = Check(
      "USE avis national\n"
      "LET car BE cars nosuchtab\n"
      "SELECT code FROM car;");
  const Diagnostic* d = Expect(diags, diag::kLetTargetMissing,
                               Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'nosuchtab' does not exist in 'national'"),
            std::string::npos)
      << d->Render();
  EXPECT_FALSE(diags.has_errors()) << diags.RenderAll();
  // When the table is missing *everywhere* the variable dangles: MS102.
  auto dangling = Check(
      "USE avis national\n"
      "LET car BE nosuch1 nosuch2\n"
      "SELECT code FROM car;");
  EXPECT_NE(dangling.Find(diag::kUnknownTable), nullptr)
      << dangling.RenderAll();
}

TEST_F(CheckerTest, Ms113LetArityMismatch) {
  auto diags = Check(
      "USE avis\n"
      "LET car BE cars vehicle\n"
      "SELECT code FROM car;");
  const Diagnostic* d = Expect(diags, diag::kLetArityMismatch,
                               Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Render(),
            "error[MS113] line 2 col 5: LET car provides 2 targets for 1 "
            "scope databases");
}

TEST_F(CheckerTest, Ms114ServiceNotIncorporated) {
  // A database can be in the GDD while its service has dropped out of
  // the AD (e.g. the INCORPORATE was revoked).
  ASSERT_TRUE(sys_->gdd().RegisterDatabase("orphan", "orphan_svc").ok());
  auto diags = Check("USE orphan\nSELECT x FROM t;");
  const Diagnostic* d = Expect(diags, diag::kServiceNotIncorporated,
                               Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->Render(),
            "error[MS114] line 1 col 5: database 'orphan' is served by "
            "'orphan_svc', which is not incorporated in the AD");
}

// ---------------------------------------------------------------------------
// DOL verifier (DL2xx) — one golden test per code
// ---------------------------------------------------------------------------

DiagnosticList Verify(const std::string& text) {
  auto program = dol::ParseDol(text);
  EXPECT_TRUE(program.ok()) << program.status();
  if (!program.ok()) return DiagnosticList{};
  return VerifyProgram(*program);
}

TEST(VerifierTest, CleanProgramHasNoFindings) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  IF (t=P) THEN
  BEGIN
    COMMIT t;
    DOLSTATUS = 0;
  END;
  ELSE
  BEGIN
    ABORT t;
    DOLSTATUS = 1;
  END;
  CLOSE a;
DOLEND
)");
  EXPECT_TRUE(diags.empty()) << diags.RenderAll();
}

TEST(VerifierTest, Dl201StateTestOnUndefinedTask) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t FOR a { SELECT code FROM cars }
  ENDTASK;
  IF (ghost=C) THEN
  BEGIN
    DOLSTATUS = 0;
  END;
  CLOSE a;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kStateTestUndefinedTask);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("tests task 'ghost'"), std::string::npos);
  EXPECT_EQ(diags.Find(diag::kUnsatisfiableStateTest), nullptr)
      << diags.RenderAll();
}

TEST(VerifierTest, Dl202UnsatisfiableStateTest) {
  // t runs in autocommit: it can never sit in the prepared state.
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  IF (t=P) THEN
  BEGIN
    DOLSTATUS = 0;
  END;
  CLOSE a;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kUnsatisfiableStateTest);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("(t=P)"), std::string::npos) << d->Render();
  // DL203 is suppressed when DL202 already explains the dead branch.
  EXPECT_EQ(diags.Find(diag::kUnreachableBranch), nullptr)
      << diags.RenderAll();
}

TEST(VerifierTest, Dl203UnreachableBranch) {
  // (t=C) is satisfiable (a COMMIT exists), but not before the COMMIT
  // ran: at the test point the flow state is {P, A}.
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  IF (t=C) THEN
  BEGIN
    DOLSTATUS = 0;
  END;
  COMMIT t;
  CLOSE a;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kUnreachableBranch);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("the THEN branch is unreachable"),
            std::string::npos)
      << d->Render();
  EXPECT_EQ(diags.Find(diag::kUnsatisfiableStateTest), nullptr)
      << diags.RenderAll();
}

TEST(VerifierTest, Dl204ChannelOpenedNeverUsed) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  OPEN national AT national_svc AS n;
  TASK t FOR a { SELECT code FROM cars }
  ENDTASK;
  CLOSE a n;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kChannelNeverUsed);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("channel 'n'"), std::string::npos)
      << d->Render();
}

TEST(VerifierTest, Dl205ChannelNeverClosed) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t FOR a { SELECT code FROM cars }
  ENDTASK;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kChannelNeverClosed);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("channel 'a' is never closed"),
            std::string::npos)
      << d->Render();
}

TEST(VerifierTest, Dl206UndefinedChannel) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t FOR ghost { SELECT code FROM cars }
  ENDTASK;
  CLOSE a;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kUndefinedChannel);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("TASK t FOR ghost references channel 'ghost'"),
            std::string::npos)
      << d->Render();
  // The opened-but-unused 'a' is flagged alongside.
  EXPECT_NE(diags.Find(diag::kChannelNeverUsed), nullptr)
      << diags.RenderAll();
}

TEST(VerifierTest, Dl207CommitOfAutocommitTask) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  COMMIT t;
  CLOSE a;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kDecisionOnUnpreparedTask);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find(
                "COMMIT names task 't', which runs in autocommit"),
            std::string::npos)
      << d->Render();
}

TEST(VerifierTest, Dl208CompensateWithoutBlock) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  COMPENSATE t;
  CLOSE a;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kCompensateWithoutBlock);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("no COMPENSATION block"), std::string::npos)
      << d->Render();
}

TEST(VerifierTest, Dl209VitalTaskUncovered) {
  // A hand-made "plan" whose vital 2PC task has no decisions at all:
  // this is exactly the translator bug VerifyPlan exists to catch.
  auto program = dol::ParseDol(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t_a NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  CLOSE a;
DOLEND
)");
  ASSERT_TRUE(program.ok()) << program.status();
  translator::Plan plan;
  plan.program = std::move(*program);
  translator::PlanTask task;
  task.task = "t_a";
  task.vital = true;
  task.retrieval = false;
  task.mode = translator::TaskMode::kTwoPhase;
  plan.tasks.push_back(task);
  auto diags = VerifyPlan(plan);
  const Diagnostic* d = diags.Find(diag::kVitalTaskUncovered);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("vital 2PC task 't_a'"), std::string::npos)
      << d->Render();
}

TEST(VerifierTest, Dl210DuplicateTaskName) {
  auto diags = Verify(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t FOR a { SELECT code FROM cars }
  ENDTASK;
  TASK t FOR a { SELECT code FROM cars }
  ENDTASK;
  CLOSE a;
DOLEND
)");
  const Diagnostic* d = diags.Find(diag::kDuplicateTaskName);
  ASSERT_NE(d, nullptr) << diags.RenderAll();
  EXPECT_NE(d->message.find("task 't' is defined twice"), std::string::npos)
      << d->Render();
}

// ---------------------------------------------------------------------------
// Conflict analyzer (DL3xx) — one golden test per code
// ---------------------------------------------------------------------------

translator::Plan PlanOf(const std::string& text) {
  auto program = dol::ParseDol(text);
  EXPECT_TRUE(program.ok()) << program.status();
  translator::Plan plan;
  if (program.ok()) plan.program = std::move(*program);
  return plan;
}

DiagnosticList ConflictDiags(const translator::Plan& plan) {
  return AnalyzeConflicts(plan, SummarizePlan(plan));
}

const Diagnostic* ExpectDiag(const DiagnosticList& list,
                             std::string_view code, Severity severity) {
  const Diagnostic* d = list.Find(code);
  EXPECT_NE(d, nullptr) << "no " << code << " in:\n" << list.RenderAll();
  if (d != nullptr) EXPECT_EQ(d->severity, severity) << d->Render();
  return d;
}

TEST(ConflictAnalyzerTest, SummaryPredictsSitesModesAndOrder) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  OPEN national AT national_svc AS n;
  TASK t1 NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN'
                           WHERE code = (SELECT MIN(code) FROM cars) }
  ENDTASK;
  TASK t2 FOR n { SELECT vnum FROM vehicle }
  ENDTASK;
  CLOSE a n;
DOLEND
)");
  AccessSummary summary = SummarizePlan(plan);
  const TaskAccess* cars = summary.Find("avis_svc", "avis.cars");
  ASSERT_NE(cars, nullptr);
  EXPECT_EQ(cars->mode, PredictedMode::kExclusive);
  EXPECT_EQ(cars->step, 1);
  EXPECT_TRUE(cars->held_across_2pc);
  const TaskAccess* vehicle = summary.Find("national_svc",
                                           "national.vehicle");
  ASSERT_NE(vehicle, nullptr);
  EXPECT_EQ(vehicle->mode, PredictedMode::kShared);
  EXPECT_EQ(vehicle->step, 2);
  EXPECT_FALSE(vehicle->held_across_2pc);
  EXPECT_EQ(summary.two_pc_sites, 1);
  std::string render = summary.Render();
  EXPECT_NE(render.find("X avis.cars  step 1  [held across 2PC]"),
            std::string::npos)
      << render;
  EXPECT_NE(render.find("acquisition order: avis_svc -> national_svc"),
            std::string::npos)
      << render;

  // A table read only by a subquery inside BETWEEN is still read.
  auto nested = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t3 FOR a { UPDATE cars SET carst = 'TAKEN'
                  WHERE code BETWEEN 0 AND (SELECT MAX(rnu) FROM rentals) }
  ENDTASK;
  CLOSE a;
DOLEND
)");
  AccessSummary nested_summary = SummarizePlan(nested);
  const TaskAccess* rentals =
      nested_summary.Find("avis_svc", "avis.rentals");
  ASSERT_NE(rentals, nullptr) << nested_summary.Render();
  EXPECT_EQ(rentals->mode, PredictedMode::kShared);
}

TEST(ConflictAnalyzerTest, Dl301LockOrderInversionAcrossInputs) {
  auto first = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  OPEN national AT national_svc AS n;
  TASK ta NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  TASK tb NOCOMMIT FOR n { UPDATE vehicle SET vstat = 'TAKEN' }
  ENDTASK;
  CLOSE a n;
DOLEND
)");
  auto second = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  OPEN national AT national_svc AS n;
  TASK tb NOCOMMIT FOR n { UPDATE vehicle SET vstat = 'TAKEN' }
  ENDTASK;
  TASK ta NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  CLOSE a n;
DOLEND
)");
  AccessSummary sa = SummarizePlan(first);
  AccessSummary sb = SummarizePlan(second);
  PairwiseConflict conflict = Classify(sa, sb);
  EXPECT_EQ(conflict.kind, ConflictKind::kWriteWrite);
  EXPECT_TRUE(conflict.deadlock_risk);
  auto diags = CheckPlanPair(sa, sb, 1, 2);
  const Diagnostic* d = ExpectDiag(diags, diag::kLockOrderInversion,
                                   Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("inputs 1 and 2 may first-acquire contended "
                            "resources in opposite orders"),
            std::string::npos)
      << d->Render();
  // Same acquisition order on both sides: contention but no inversion.
  EXPECT_FALSE(Classify(sa, sa).deadlock_risk);
  EXPECT_TRUE(CheckPlanPair(sa, sa, 1, 2).empty());
  std::string matrix = RenderConflictMatrix({&sa, &sb});
  EXPECT_NE(matrix.find("!W"), std::string::npos) << matrix;
}

TEST(ConflictAnalyzerTest, Dl302SelfDeadlockViaAliasedSessions) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a1;
  OPEN avis AT avis_svc AS a2;
  TASK t1 NOCOMMIT FOR a1 { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  TASK t2 FOR a2 { SELECT code FROM cars }
  ENDTASK;
  COMMIT t1;
  CLOSE a1 a2;
DOLEND
)");
  auto diags = ConflictDiags(plan);
  const Diagnostic* d = ExpectDiag(diags, diag::kSelfDeadlock,
                                   Severity::kError);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("task 't2' needs avis.cars"),
            std::string::npos)
      << d->Render();
  EXPECT_NE(d->message.find("holds it in X across the 2PC bracket"),
            std::string::npos)
      << d->Render();
  EXPECT_TRUE(diags.has_errors());
}

TEST(ConflictAnalyzerTest, Dl303ExclusiveHeldAcrossRetryableVital) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  OPEN national AT national_svc AS n;
  TASK t1 NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  TASK t2 NOCOMMIT FOR n { UPDATE vehicle SET vstat = 'TAKEN' }
  ENDTASK;
  CLOSE a n;
DOLEND
)");
  translator::PlanTask vital_task;
  vital_task.task = "t2";
  vital_task.database = "national";
  vital_task.service = "national_svc";
  vital_task.vital = true;
  vital_task.retrieval = false;
  vital_task.mode = translator::TaskMode::kTwoPhase;
  plan.tasks.push_back(vital_task);
  auto diags = ConflictDiags(plan);
  const Diagnostic* d = ExpectDiag(diags, diag::kExclusiveHeldAcrossRetry,
                                   Severity::kNote);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("task 't1' holds avis.cars exclusively"),
            std::string::npos)
      << d->Render();
  EXPECT_NE(d->message.find("vital task 't2' at national_svc"),
            std::string::npos)
      << d->Render();
}

TEST(ConflictAnalyzerTest, Dl304UncommittedIntraMtRead) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t1 FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  TASK t2 FOR a { SELECT code FROM cars }
  ENDTASK;
  CLOSE a;
DOLEND
)");
  auto diags = ConflictDiags(plan);
  const Diagnostic* d = ExpectDiag(diags, diag::kUncommittedIntraRead,
                                   Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("task 't2' reads avis.cars after sibling "
                            "task 't1' wrote it in autocommit"),
            std::string::npos)
      << d->Render();
  EXPECT_NE(d->fix_hint.find("make 't1' NOCOMMIT"), std::string::npos)
      << d->Render();
  EXPECT_FALSE(diags.has_errors()) << diags.RenderAll();
}

TEST(ConflictAnalyzerTest, Dl305WideTwoPcBracket) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  OPEN national AT national_svc AS n;
  TASK t1 NOCOMMIT FOR a { UPDATE cars SET carst = 'TAKEN' }
  ENDTASK;
  TASK t2 NOCOMMIT FOR n { UPDATE vehicle SET vstat = 'TAKEN' }
  ENDTASK;
  CLOSE a n;
DOLEND
)");
  AccessSummary summary = SummarizePlan(plan);
  EXPECT_EQ(summary.two_pc_sites, 2);
  auto diags = AnalyzeConflicts(plan, summary);
  const Diagnostic* d = ExpectDiag(diags, diag::kWideTwoPcBracket,
                                   Severity::kNote);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("2PC bracket holds locks at 2 sites"),
            std::string::npos)
      << d->Render();
  // No vital tasks registered, so the retry-window note stays silent.
  EXPECT_EQ(diags.Find(diag::kExclusiveHeldAcrossRetry), nullptr)
      << diags.RenderAll();
}

TEST(ConflictAnalyzerTest, Dl306OpaqueTaskSqlWidensToWildcard) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t1 FOR a { FROB THE KNOB }
  ENDTASK;
  CLOSE a;
DOLEND
)");
  AccessSummary summary = SummarizePlan(plan);
  EXPECT_EQ(summary.opaque_services.count("avis_svc"), 1u);
  const TaskAccess* wildcard = summary.Find("avis_svc", "avis.*");
  ASSERT_NE(wildcard, nullptr);
  EXPECT_EQ(wildcard->mode, PredictedMode::kExclusive);
  auto diags = AnalyzeConflicts(plan, summary);
  const Diagnostic* d = ExpectDiag(diags, diag::kOpaqueTaskSql,
                                   Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("task 't1' has SQL the analyzer cannot parse"),
            std::string::npos)
      << d->Render();
  // The wildcard overlaps every table of avis, and nothing elsewhere.
  EXPECT_TRUE(ResourcesOverlap("avis.*", "avis.cars"));
  EXPECT_FALSE(ResourcesOverlap("avis.*", "national.vehicle"));
}

TEST(ConflictAnalyzerTest, Dl307ParallelSiblingWrites) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  PARBEGIN
    TASK p1 FOR a { UPDATE cars SET carst = 'A' }
    ENDTASK;
    TASK p2 FOR a { UPDATE cars SET carst = 'B' }
    ENDTASK;
  PAREND;
  CLOSE a;
DOLEND
)");
  auto diags = ConflictDiags(plan);
  const Diagnostic* d = ExpectDiag(diags, diag::kParallelSiblingWrites,
                                   Severity::kWarning);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("parallel tasks 'p1' and 'p2' both write "
                            "avis.cars"),
            std::string::npos)
      << d->Render();
}

TEST(ConflictAnalyzerTest, Dl308DdlOnSharedTable) {
  auto plan = PlanOf(R"(
DOLBEGIN
  OPEN avis AT avis_svc AS a;
  TASK t1 FOR a { DROP TABLE cars }
  ENDTASK;
  TASK t2 FOR a { SELECT code FROM cars }
  ENDTASK;
  CLOSE a;
DOLEND
)");
  auto diags = ConflictDiags(plan);
  const Diagnostic* d = ExpectDiag(diags, diag::kDdlOnSharedTable,
                                   Severity::kNote);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("task 't1' runs DDL on avis.cars"),
            std::string::npos)
      << d->Render();
}

// ---------------------------------------------------------------------------
// Analyze API contract
// ---------------------------------------------------------------------------

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sys = BuildPaperFederation();
    ASSERT_TRUE(sys.ok()) << sys.status();
    sys_ = std::move(*sys);
  }

  std::unique_ptr<MultidatabaseSystem> sys_;
};

TEST_F(AnalyzeTest, AnalyzeDoesNotExecute) {
  auto report = sys_->Analyze(
      "USE avis\nUPDATE cars SET carst = 'VAPOR' WHERE code >= 0;");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->translated);
  EXPECT_FALSE(report->diagnostics.has_errors())
      << report->diagnostics.RenderAll();
  EXPECT_NE(report->dol_text.find("DOLBEGIN"), std::string::npos);
  // No row was touched.
  auto check = sys_->Execute(
      "USE avis\nSELECT code FROM cars WHERE carst = 'VAPOR';");
  ASSERT_TRUE(check.ok()) << check.status();
  ASSERT_EQ(check->multitable.elements.size(), 1u);
  EXPECT_TRUE(check->multitable.elements[0].table.rows.empty());
}

TEST_F(AnalyzeTest, AnalyzeLeavesSessionScopeUntouched) {
  ASSERT_TRUE(sys_->Execute("USE avis\nSELECT code FROM cars;").ok());
  ASSERT_EQ(sys_->current_scope().entries.size(), 1u);
  ASSERT_TRUE(
      sys_->Analyze("USE continental delta\nSELECT day FROM flight%;")
          .ok());
  ASSERT_EQ(sys_->current_scope().entries.size(), 1u);
  EXPECT_EQ(sys_->current_scope().entries[0].database, "avis");
}

TEST_F(AnalyzeTest, AnalyzeReportsRefusalWithoutExecuting) {
  // fn% misses continental's flnu column: the VITAL database has no
  // pertinent subquery, so execution would refuse — and analysis says so.
  auto report = sys_->Analyze(
      "USE continental VITAL delta\nSELECT fn%, day FROM flight%;");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->refused);
  EXPECT_EQ(report->refusal.code(), StatusCode::kRefused);
  EXPECT_FALSE(report->translated);
}

TEST_F(AnalyzeTest, AnalyzeScriptThreadsCatalogChanges) {
  auto reports = sys_->AnalyzeScript(
      "CREATE MULTIDATABASE airlines (continental, delta, united);\n"
      "USE airlines\nSELECT day FROM flight%;");
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ((*reports)[0].kind, "create multidatabase");
  EXPECT_TRUE((*reports)[1].translated)
      << (*reports)[1].diagnostics.RenderAll();
  EXPECT_FALSE((*reports)[1].diagnostics.has_errors());
}

TEST_F(AnalyzeTest, AnalyzeMultiTransaction) {
  auto report = sys_->Analyze(
      "BEGIN MULTITRANSACTION\n"
      "USE continental delta\n"
      "LET fitab.snu.sstat.clname BE\n"
      "  f838.seatnu.seatstatus.clientname\n"
      "  fnu747.snu.sstat.passname\n"
      "UPDATE fitab SET sstat = 'TAKEN', clname = 'wenders'\n"
      "WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');\n"
      "COMMIT\n"
      "  continental\n"
      "  delta\n"
      "END MULTITRANSACTION");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->kind, "multitransaction");
  EXPECT_TRUE(report->translated) << report->diagnostics.RenderAll();
  EXPECT_FALSE(report->diagnostics.has_errors())
      << report->diagnostics.RenderAll();
  EXPECT_NE(report->dol_text.find("PARBEGIN"), std::string::npos);
}

TEST_F(AnalyzeTest, AnalyzeAttachesAccessSummary) {
  auto report = sys_->Analyze(
      "BEGIN MULTITRANSACTION\n"
      "USE continental delta\n"
      "LET fitab.snu.sstat.clname BE\n"
      "  f838.seatnu.seatstatus.clientname\n"
      "  fnu747.snu.sstat.passname\n"
      "UPDATE fitab SET sstat = 'TAKEN', clname = 'wenders'\n"
      "WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');\n"
      "COMMIT\n"
      "  continental\n"
      "  delta\n"
      "END MULTITRANSACTION");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->summary.has_value());
  // Both airline updates run NOCOMMIT inside the commit bracket, so the
  // predicted 2PC footprint spans both sites and DL305 says so.
  EXPECT_EQ(report->summary->two_pc_sites, 2);
  EXPECT_NE(report->diagnostics.Find(diag::kWideTwoPcBracket), nullptr)
      << report->diagnostics.RenderAll();
  EXPECT_FALSE(report->diagnostics.has_errors())
      << report->diagnostics.RenderAll();
}

TEST_F(AnalyzeTest, AnalyzeScriptFlagsCrossInputInversion) {
  auto mt = [](bool continental_first) {
    std::string continental =
        "USE continental\n"
        "UPDATE f838 SET seatstatus = 'TAKEN', clientname = 'w'\n"
        "WHERE seatnu = (SELECT MIN(seatnu) FROM f838 "
        "WHERE seatstatus = 'FREE');\n";
    std::string delta =
        "USE delta\n"
        "UPDATE fnu747 SET sstat = 'TAKEN', passname = 'w'\n"
        "WHERE snu = (SELECT MIN(snu) FROM fnu747 WHERE sstat = 'FREE');\n";
    return "BEGIN MULTITRANSACTION\n" +
           (continental_first ? continental + delta
                              : delta + continental) +
           "COMMIT\n  continental AND delta\nEND MULTITRANSACTION";
  };
  auto reports =
      sys_->AnalyzeScript(mt(true) + "\n" + mt(false) + "\n");
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), 2u);
  ASSERT_TRUE((*reports)[0].summary.has_value());
  ASSERT_TRUE((*reports)[1].summary.has_value());
  // Opposite site orders across the two inputs: the second report
  // carries the cross-input DL301.
  EXPECT_EQ((*reports)[0].diagnostics.Find(diag::kLockOrderInversion),
            nullptr)
      << (*reports)[0].diagnostics.RenderAll();
  const Diagnostic* d =
      (*reports)[1].diagnostics.Find(diag::kLockOrderInversion);
  ASSERT_NE(d, nullptr) << (*reports)[1].diagnostics.RenderAll();
  EXPECT_EQ(d->severity, Severity::kWarning) << d->Render();
}

// ---------------------------------------------------------------------------
// Property: the verifier accepts every translator-emitted plan
// ---------------------------------------------------------------------------

TEST(VerifierPropertyTest, AcceptsTranslatorPlansOverRandomPaperScopes) {
  auto sys_or = BuildPaperFederation();
  ASSERT_TRUE(sys_or.ok()) << sys_or.status();
  auto sys = std::move(*sys_or);
  // Bodies whose identifiers resolve in every airline database.
  const std::vector<std::string> bodies = {
      "SELECT day, rate% FROM flight% WHERE sour% = 'Houston'",
      "SELECT day FROM flight%",
      "UPDATE flight% SET rate% = rate% * 1.01 WHERE day = 'MO'",
      "DELETE FROM flight% WHERE rate% < 0",
  };
  const std::vector<std::string> airlines = {"continental", "delta",
                                             "united"};
  Rng rng(0xA11A11);
  for (int iter = 0; iter < 80; ++iter) {
    std::string use = "USE";
    int members = 0;
    for (const auto& db : airlines) {
      if (rng.NextBelow(2) == 0) continue;
      use += " " + db;
      if (rng.NextBelow(2) == 0) use += " VITAL";
      ++members;
    }
    if (members == 0) use += " delta";
    std::string text =
        use + "\n" + bodies[rng.NextBelow(bodies.size())] + ";";
    auto report = sys->Analyze(text);
    ASSERT_TRUE(report.ok()) << text << "\n" << report.status();
    EXPECT_TRUE(report->error.ok())
        << text << "\n" << report->error.ToString();
    ASSERT_TRUE(report->translated) << text << "\n"
                                    << report->diagnostics.RenderAll();
    for (const auto& d : report->diagnostics.items()) {
      // DL3xx conflict notes are legitimate on translator plans; the
      // property is that the *verifier* (DL2xx) accepts them.
      EXPECT_NE(d.code.substr(0, 3), "DL2")
          << text << "\nverifier rejected a translator plan:\n"
          << d.Render() << "\n"
          << report->dol_text;
    }
    EXPECT_FALSE(report->diagnostics.has_errors())
        << text << "\n" << report->diagnostics.RenderAll();
  }
}

TEST(VerifierPropertyTest, AcceptsTranslatorPlansOverMixedCommitModes) {
  // Half the synthetic services are autocommit-only, so random vital
  // sets exercise two-phase, compensable, and last-resource plan
  // shapes; scopes the checker refuses (MS111) are accepted as refusals.
  SyntheticFederationOptions options;
  options.n_databases = 4;
  options.rows_per_table = 8;
  options.autocommit_fraction = 0.5;
  auto sys_or = BuildSyntheticFederation(options);
  ASSERT_TRUE(sys_or.ok()) << sys_or.status();
  auto sys = std::move(*sys_or);
  Rng rng(0xD01D01);
  for (int iter = 0; iter < 80; ++iter) {
    std::vector<std::string> chosen;
    std::string use = "USE";
    for (int i = 0; i < options.n_databases; ++i) {
      if (rng.NextBelow(2) == 0) continue;
      std::string db = "db" + std::to_string(i);
      use += " " + db;
      if (rng.NextBelow(2) == 0) use += " VITAL";
      chosen.push_back(db);
    }
    if (chosen.empty()) {
      use += " db0";
      chosen.push_back("db0");
    }
    std::string text =
        use + "\nUPDATE flight% SET rate = rate * 1.01 WHERE fno >= 0";
    if (rng.NextBelow(3) == 0) {
      const std::string& db = chosen[rng.NextBelow(chosen.size())];
      std::string table = "flight" + db.substr(2);
      text += "\nCOMP " + db + " UPDATE " + table +
              " SET rate = rate / 1.01 WHERE fno >= 0";
    }
    text += ";";
    auto report = sys->Analyze(text);
    ASSERT_TRUE(report.ok()) << text << "\n" << report.status();
    EXPECT_TRUE(report->error.ok())
        << text << "\n" << report->error.ToString();
    if (report->refused) {
      // Unenforceable vital set: a correct refusal, not a plan.
      EXPECT_EQ(report->refusal.code(), StatusCode::kRefused) << text;
      continue;
    }
    ASSERT_TRUE(report->translated) << text << "\n"
                                    << report->diagnostics.RenderAll();
    for (const auto& d : report->diagnostics.items()) {
      // DL3xx conflict notes are legitimate on translator plans; the
      // property is that the *verifier* (DL2xx) accepts them.
      EXPECT_NE(d.code.substr(0, 3), "DL2")
          << text << "\nverifier rejected a translator plan:\n"
          << d.Render() << "\n"
          << report->dol_text;
    }
    EXPECT_FALSE(report->diagnostics.has_errors())
        << text << "\n" << report->diagnostics.RenderAll();
  }
}

}  // namespace
}  // namespace msql::analysis
