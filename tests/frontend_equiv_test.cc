// Front-end equivalence: the static analysis entry point (Analyze, the
// msql_lint / \check path) must predict exactly what the execution front
// end (Prepare, the path Execute and the federation server compile
// through) does with the same input: the same DOL program, the same cost
// breakdown, the same refusals and the same failures — and analysis must
// leave the session scope where it found it.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "msql/parser.h"

namespace msql::core {
namespace {

/// Reads a checked-in example program.
std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(MSQL_EXAMPLES_DIR) + "/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Splits a shell/lint program into one text per MSQL input. Shell meta
/// lines are dropped, except that `\check` / `\explain` prefix an input
/// whose text is kept (the same convention msql_lint applies). An input
/// ends at a ';'-terminated line, or at END MULTITRANSACTION.
std::vector<std::string> SplitInputs(const std::string& program) {
  std::vector<std::string> inputs;
  std::istringstream in(program);
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '\\') {
      size_t space = line.find(' ');
      if (space == std::string::npos) continue;
      line = line.substr(space + 1);
    }
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    current += line + "\n";
    const bool in_mt =
        current.find("BEGIN MULTITRANSACTION") != std::string::npos;
    const bool ends = in_mt ? line.find("END MULTITRANSACTION") !=
                                  std::string::npos
                            : line.back() == ';';
    if (ends) {
      inputs.push_back(current);
      current.clear();
    }
  }
  EXPECT_TRUE(current.empty()) << "unterminated input: " << current;
  return inputs;
}

lang::MsqlInput::Kind KindOf(const std::string& text) {
  auto parsed = lang::MsqlParser::ParseOne(text);
  EXPECT_TRUE(parsed.ok()) << text << "\n" << parsed.status();
  return parsed.ok() ? parsed->kind : lang::MsqlInput::Kind::kQuery;
}

bool Preparable(lang::MsqlInput::Kind kind) {
  return kind == lang::MsqlInput::Kind::kQuery ||
         kind == lang::MsqlInput::Kind::kMultiTransaction;
}

/// Analyzes `text`, then prepares it, and checks the two front ends
/// agree. Analysis runs first: it must not move the session scope, while
/// Prepare moves it exactly as execution would.
void ExpectFrontEndsAgree(MultidatabaseSystem* sys, const std::string& text) {
  SCOPED_TRACE(text);
  const lang::MsqlInput::Kind kind = KindOf(text);
  ASSERT_TRUE(Preparable(kind));
  const std::string scope_before = sys->current_scope().ToMsql();
  auto analysis = sys->Analyze(text);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_EQ(sys->current_scope().ToMsql(), scope_before);

  auto prepared = sys->Prepare(text);
  // A refusal is reported by both, with MS111 as an error diagnostic of
  // the analysis; every other error fails Prepare.
  const bool analysis_failed =
      !analysis->error.ok() ||
      (analysis->diagnostics.has_errors() && !analysis->refused);
  ASSERT_EQ(!prepared.ok(), analysis_failed)
      << "prepare: " << prepared.status() << "\nanalysis error: "
      << analysis->error << "\n"
      << analysis->diagnostics.RenderAll();
  if (!prepared.ok()) {
    EXPECT_FALSE(analysis->translated);
    return;
  }
  ASSERT_EQ(analysis->refused, prepared->immediate.has_value())
      << analysis->diagnostics.RenderAll();
  if (prepared->immediate.has_value()) {
    EXPECT_EQ(prepared->immediate->outcome, GlobalOutcome::kRefused);
    EXPECT_FALSE(analysis->translated);
    if (kind == lang::MsqlInput::Kind::kQuery) {
      EXPECT_EQ(analysis->refusal.ToString(),
                prepared->immediate->detail.ToString());
    }
    return;
  }
  EXPECT_TRUE(analysis->translated);
  EXPECT_EQ(analysis->dol_text, prepared->plan.program.ToDol());
  EXPECT_EQ(analysis->cost_text, prepared->cost_text);
}

/// Walks a program input by input: queries and multitransactions are
/// compared, catalog-shaping inputs are executed so later inputs see the
/// catalogs they would see in the shell.
void ExpectProgramAgrees(MultidatabaseSystem* sys, const std::string& program,
                         size_t expected_inputs) {
  std::vector<std::string> inputs = SplitInputs(program);
  ASSERT_EQ(inputs.size(), expected_inputs);
  for (const std::string& text : inputs) {
    if (Preparable(KindOf(text))) {
      ExpectFrontEndsAgree(sys, text);
    } else {
      auto report = sys->Execute(text);
      ASSERT_TRUE(report.ok()) << text << "\n" << report.status();
    }
  }
}

std::unique_ptr<MultidatabaseSystem> PaperFederation(
    const PaperFederationOptions& options = {}) {
  auto sys = BuildPaperFederation(options);
  EXPECT_TRUE(sys.ok()) << sys.status();
  return sys.ok() ? std::move(*sys) : nullptr;
}

/// §3.3 premise plus united re-incorporated as automatic-commit only:
/// two VITAL no-2PC airlines without COMP make the vital set
/// unenforceable (MS111).
std::unique_ptr<MultidatabaseSystem> NoTwoPcAirlines() {
  PaperFederationOptions options;
  options.continental_autocommit_only = true;
  auto sys = PaperFederation(options);
  if (sys == nullptr) return nullptr;
  auto incorporated = sys->Execute(
      "INCORPORATE SERVICE united_svc SITE site_united "
      "CONNECTMODE CONNECT COMMITMODE COMMIT CREATE COMMIT "
      "INSERT COMMIT DROP COMMIT");
  EXPECT_TRUE(incorporated.ok()) << incorporated.status();
  return sys;
}

TEST(FrontendEquivTest, LintTourProgram) {
  auto sys = PaperFederation();
  ASSERT_NE(sys, nullptr);
  ExpectProgramAgrees(sys.get(), ReadExample("lint_tour.msql"), 3);
}

TEST(FrontendEquivTest, ShellSmokeProgram) {
  auto sys = PaperFederation();
  ASSERT_NE(sys, nullptr);
  ExpectProgramAgrees(sys.get(), ReadExample("shell_smoke.msql"), 8);
}

TEST(FrontendEquivTest, Section33Fixtures) {
  PaperFederationOptions options;
  options.continental_autocommit_only = true;
  auto sys = PaperFederation(options);
  ASSERT_NE(sys, nullptr);
  for (const char* text : {
           // Compensated fare raise: continental runs NOCOMMIT-less with
           // a COMP block.
           "USE continental VITAL delta united VITAL\n"
           "UPDATE flight% SET rate% = rate% * 1.1\n"
           "WHERE sour% = 'Houston' AND dest% = 'San Antonio'\n"
           "COMP continental\n"
           "UPDATE flights SET rate = rate / 1.1\n"
           "WHERE source = 'Houston' AND destination = 'San Antonio';",
           // No COMP: continental becomes the last resource.
           "USE continental VITAL delta united VITAL\n"
           "UPDATE flight% SET rate% = rate% * 1.1\n"
           "WHERE sour% = 'Houston' AND dest% = 'San Antonio';",
           // VITAL database without a pertinent subquery: refused.
           "USE avis VITAL continental\nSELECT rate FROM flight%;",
           // Checker error (MS103).
           "USE avis\nSELECT nosuchcolumn FROM cars;",
           // Seat reservation multitransaction (§3.4).
           "BEGIN MULTITRANSACTION\n"
           "USE continental delta\n"
           "LET fitab.snu.sstat.clname BE\n"
           "  f838.seatnu.seatstatus.clientname\n"
           "  fnu747.snu.sstat.passname\n"
           "UPDATE fitab SET sstat = 'TAKEN', clname = 'wenders'\n"
           "WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');\n"
           "COMMIT\n  continental\n  delta\nEND MULTITRANSACTION",
       }) {
    ExpectFrontEndsAgree(sys.get(), text);
  }
}

TEST(FrontendEquivTest, UnenforceableVitalSetQuery) {
  auto sys = NoTwoPcAirlines();
  ASSERT_NE(sys, nullptr);
  ExpectFrontEndsAgree(sys.get(),
                       "USE continental VITAL united VITAL\n"
                       "UPDATE flight% SET rate% = rate% * 1.1;");
}

// A multitransaction whose second member has an unenforceable vital set
// (MS111) while the first carries a warning (MS109, COMP on a NON-VITAL
// database). Both front ends refuse. The execution report's detail
// renders only the failing member's diagnostics; the analysis refusal
// renders every diagnostic accumulated up to the refusal.
TEST(FrontendEquivTest, MultiTransactionRefusal) {
  auto sys = NoTwoPcAirlines();
  ASSERT_NE(sys, nullptr);
  const std::string mt =
      "BEGIN MULTITRANSACTION\n"
      "USE avis\n"
      "UPDATE cars SET carst = 'TAKEN' WHERE code = 3\n"
      "COMP avis UPDATE cars SET carst = 'available' WHERE code = 3;\n"
      "USE continental VITAL united VITAL\n"
      "UPDATE flight% SET rate% = rate% * 1.1;\n"
      "COMMIT\n  avis AND continental AND united\n"
      "END MULTITRANSACTION";
  ExpectFrontEndsAgree(sys.get(), mt);

  auto analysis = sys->Analyze(mt);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  ASSERT_TRUE(analysis->refused);
  EXPECT_NE(analysis->refusal.message().find("MS109"), std::string::npos)
      << analysis->refusal;
  EXPECT_NE(analysis->refusal.message().find("MS111"), std::string::npos)
      << analysis->refusal;

  auto report = sys->Execute(mt);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->outcome, GlobalOutcome::kRefused);
  EXPECT_EQ(report->detail.code(), StatusCode::kRefused);
  EXPECT_NE(report->detail.message().find("MS111"), std::string::npos)
      << report->detail;
  EXPECT_EQ(report->detail.message().find("MS109"), std::string::npos)
      << report->detail;
}

/// Skewed two-database federation: alpha.small has 3 keys, beta.big has
/// `big_rows` — after ANALYZE the optimizer ships a semi-join key filter.
std::unique_ptr<MultidatabaseSystem> SkewedPair(int big_rows) {
  auto sys = std::make_unique<MultidatabaseSystem>();
  for (const char* svc : {"alpha_svc", "beta_svc"}) {
    EXPECT_TRUE(sys->AddService(svc, std::string("site_") + svc,
                                relational::CapabilityProfile::IngresLike())
                    .ok());
  }
  EXPECT_TRUE((*sys->GetEngine("alpha_svc"))->CreateDatabase("alpha").ok());
  EXPECT_TRUE(sys->RunLocalSql("alpha_svc", "alpha",
                               "CREATE TABLE small (k INTEGER, tag TEXT);"
                               "INSERT INTO small VALUES (1, 'a'), "
                               "(2, 'b'), (3, 'c')")
                  .ok());
  EXPECT_TRUE((*sys->GetEngine("beta_svc"))->CreateDatabase("beta").ok());
  std::string big = "CREATE TABLE big (k INTEGER, v REAL);";
  big += "INSERT INTO big VALUES ";
  for (int i = 0; i < big_rows; ++i) {
    if (i > 0) big += ", ";
    big += "(" + std::to_string(i) + ", " + std::to_string(i) + ".5)";
  }
  EXPECT_TRUE(sys->RunLocalSql("beta_svc", "beta", big).ok());
  for (const std::string db : {"alpha", "beta"}) {
    EXPECT_TRUE(sys->Execute("INCORPORATE SERVICE " + db + "_svc SITE site_" +
                             db +
                             "_svc CONNECTMODE CONNECT COMMITMODE NOCOMMIT "
                             "CREATE NOCOMMIT INSERT NOCOMMIT DROP NOCOMMIT")
                    .ok());
    EXPECT_TRUE(
        sys->Execute("IMPORT DATABASE " + db + " FROM SERVICE " + db + "_svc")
            .ok());
  }
  return sys;
}

TEST(FrontendEquivTest, SemiJoinAfterAnalyze) {
  auto sys = SkewedPair(5000);
  const std::string join =
      "USE alpha beta\n"
      "SELECT small.tag, big.v FROM alpha.small, beta.big "
      "WHERE small.k = big.k;";
  // Before ANALYZE: the heuristic fallback, with its reason.
  ExpectFrontEndsAgree(sys.get(), join);
  ASSERT_TRUE(sys->Execute("ANALYZE DATABASE alpha").ok());
  ASSERT_TRUE(sys->Execute("ANALYZE DATABASE beta").ok());
  ExpectFrontEndsAgree(sys.get(), join);
  auto prepared = sys->Prepare(join);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_NE(prepared->cost_text.find("semi-join keys"), std::string::npos)
      << prepared->cost_text;
}

TEST(FrontendEquivTest, DataTransfer) {
  auto sys = PaperFederation();
  ASSERT_NE(sys, nullptr);
  ASSERT_TRUE(sys->Execute("USE national CREATE TABLE fares "
                           "(orig TEXT, dst TEXT, amount REAL)")
                  .ok());
  ExpectFrontEndsAgree(sys.get(),
                       "USE national continental\n"
                       "INSERT INTO national.fares "
                       "SELECT source, destination, rate "
                       "FROM continental.flights WHERE rate > 150;");
  // Unknown target table: both fail.
  ExpectFrontEndsAgree(sys.get(),
                       "USE national continental\n"
                       "INSERT INTO national.ghost "
                       "SELECT source FROM continental.flights;");
}

// Known divergence: view queries execute serially, so Prepare rejects
// them while analysis labels them and stops.
TEST(FrontendEquivTest, ViewQueryDivergence) {
  auto sys = PaperFederation();
  ASSERT_NE(sys, nullptr);
  ASSERT_TRUE(sys->Execute("CREATE MULTIVIEW all_cars AS\n"
                           "USE avis national\n"
                           "LET car.code BE cars.code vehicle.vcode\n"
                           "SELECT code FROM car")
                  .ok());
  const std::string text = "USE avis SELECT COUNT(*) FROM all_cars;";
  auto analysis = sys->Analyze(text);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_EQ(analysis->kind, "view query");
  EXPECT_TRUE(analysis->error.ok());
  EXPECT_FALSE(analysis->translated);
  auto prepared = sys->Prepare(text);
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
}

// Known divergence: checker errors fail Prepare with kInvalidArgument but
// are data (error diagnostics, no hard error) in an analysis report.
TEST(FrontendEquivTest, CheckerErrorsAreStatusVersusData) {
  auto sys = PaperFederation();
  ASSERT_NE(sys, nullptr);
  const std::string text = "USE avis\nSELECT nosuchcolumn FROM cars;";
  auto analysis = sys->Analyze(text);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_TRUE(analysis->error.ok()) << analysis->error;
  EXPECT_TRUE(analysis->diagnostics.has_errors());
  auto prepared = sys->Prepare(text);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(prepared.status().ToString(),
            analysis->diagnostics.ToStatus().ToString());
}

// Analysis restores the session scope on every error path, including a
// multitransaction whose first member already resolved a new scope.
TEST(FrontendEquivTest, AnalysisRestoresScopeOnErrors) {
  auto sys = PaperFederation();
  ASSERT_NE(sys, nullptr);
  ASSERT_TRUE(sys->Execute("CREATE MULTIDATABASE airlines "
                           "(continental, delta, united)")
                  .ok());
  ASSERT_TRUE(sys->Execute("USE avis\nSELECT code FROM cars").ok());
  const std::string scope = sys->current_scope().ToMsql();
  for (const char* text : {
           // Scope resolution fails: a multidatabase cannot be aliased.
           "USE (airlines a)\nSELECT day FROM flight%;",
           // Checker error after scope resolution.
           "USE continental\nSELECT nosuchcolumn FROM flights;",
           // Second member fails after the first moved the scope.
           "BEGIN MULTITRANSACTION\n"
           "USE delta\nUPDATE fnu747 SET sstat = 'TAKEN' WHERE snu = 1;\n"
           "USE (airlines a)\nUPDATE flight% SET rate% = rate%;\n"
           "COMMIT\n  delta\nEND MULTITRANSACTION",
           "BEGIN MULTITRANSACTION\n"
           "USE delta\nUPDATE fnu747 SET sstat = 'TAKEN' WHERE snu = 1;\n"
           "USE continental\nUPDATE flights SET nosuch = 1;\n"
           "COMMIT\n  delta\nEND MULTITRANSACTION",
       }) {
    SCOPED_TRACE(text);
    auto analysis = sys->Analyze(text);
    ASSERT_TRUE(analysis.ok()) << analysis.status();
    EXPECT_TRUE(!analysis->error.ok() || analysis->diagnostics.has_errors());
    EXPECT_EQ(sys->current_scope().ToMsql(), scope);
  }
}

// The randomized scopes of the verifier property tests: paper airlines
// and a synthetic federation with mixed commit modes.
TEST(FrontendEquivTest, RandomPaperScopes) {
  auto sys = PaperFederation();
  ASSERT_NE(sys, nullptr);
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
    ExpectFrontEndsAgree(
        sys.get(), use + "\n" + bodies[rng.NextBelow(bodies.size())] + ";");
  }
}

TEST(FrontendEquivTest, RandomSyntheticScopes) {
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
    ExpectFrontEndsAgree(sys.get(), text + ";");
  }
}

}  // namespace
}  // namespace msql::core
