// Decomposed answers held to one engine. Seeded data over three
// databases, and two-database joins with filters over it, run through
// the federation, where TRANSFER ships every partial result to the
// coordinator, and on one LocalEngine that holds a copy of every table.
// The two answers must be the same multiset of rows (the bag semantics
// of Angles & Gutierrez), value for value and type for type. The data
// carries what a TRANSFER has to move exactly: NULLs, duplicate rows,
// full-mantissa and subnormal REALs, -0.0, INT64_MIN/MAX, +-inf, TEXT
// with quotes, and filters that leave a partial empty. Each query runs
// under both movement strategies (the paper heuristics ship whole
// partials; the cost model, after ANALYZE, reduces some by a semi-join
// key transfer), once with every engine in memory and once with the
// coordinator's engine paged.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mdbs_system.h"

namespace msql::core {
namespace {

constexpr int kDatabases = 3;
constexpr int kQueriesPerSeed = 12;

/// One generated table: t<i>(k<i> INTEGER, r<i> REAL, s<i> TEXT) in
/// database d<i>, as the SQL that creates and fills it.
struct GeneratedTable {
  std::string create;
  std::string insert;  // empty for an empty table
};

/// An INTEGER as SQL: small keys that join, NULL, and both ends of the
/// range (INT64_MIN has no literal, so it is an expression).
std::string IntegerSql(Rng* rng) {
  switch (rng->NextBelow(12)) {
    case 0: return "NULL";
    case 1: return "(-9223372036854775807 - 1)";
    case 2: return "9223372036854775807";
    default: return std::to_string(rng->NextInRange(-3, 6));
  }
}

/// A REAL as SQL. Finite values print in shortest round-trip form, which
/// reads back as the same double; the infinities have no literal.
std::string RealSql(Rng* rng) {
  auto finite = [](double d) {
    return relational::Value::Real(d).ToSqlLiteral();
  };
  switch (rng->NextBelow(12)) {
    case 0: return "NULL";
    case 1: return "(1e300 * 1e300)";
    case 2: return "(-1e300 * 1e300)";
    case 3: return "-0.0";
    case 4: {
      // A subnormal with a random mantissa.
      const uint64_t bits = rng->Next() & ((uint64_t{1} << 52) - 1);
      return finite(std::bit_cast<double>(bits | 1));
    }
    case 5: {
      // A full 53-bit mantissa of random sign and magnitude.
      const uint64_t mantissa = rng->Next() & ((uint64_t{1} << 52) - 1);
      const uint64_t exponent = static_cast<uint64_t>(
          rng->NextInRange(1023 - 40, 1023 + 40));
      const uint64_t sign = rng->NextBool(0.5) ? uint64_t{1} << 63 : 0;
      return finite(std::bit_cast<double>(sign | (exponent << 52) | mantissa));
    }
    case 6: return "-9.223372036854775808e18";  // INT64_MIN as a REAL
    default:
      // Halves and whole numbers that equal INTEGER keys.
      return finite(static_cast<double>(rng->NextInRange(-6, 12)) / 2.0);
  }
}

std::string TextSql(Rng* rng) {
  switch (rng->NextBelow(8)) {
    case 0: return "NULL";
    case 1: return "'it''s'";
    case 2: return "''";
    case 3: return "'''quoted'''";
    default: return "'" + std::string(1, static_cast<char>(
                              'a' + rng->NextBelow(3))) + "'";
  }
}

/// Table t<i>: the first is small (it provides semi-join keys), the
/// others larger; any of them may come out empty.
GeneratedTable GenerateTable(Rng* rng, int i) {
  const std::string n = std::to_string(i);
  GeneratedTable table;
  table.create = "CREATE TABLE t" + n + " (k" + n + " INTEGER, r" + n +
                 " REAL, s" + n + " TEXT)";
  const int rows = rng->NextBool(0.15)
                       ? 0
                       : static_cast<int>(i == 0 ? rng->NextInRange(2, 8)
                                                 : rng->NextInRange(20, 60));
  std::string previous;
  for (int r = 0; r < rows; ++r) {
    std::string row = previous.empty() || !rng->NextBool(0.2)
                          ? "(" + IntegerSql(rng) + ", " + RealSql(rng) +
                                ", " + TextSql(rng) + ")"
                          : previous;  // a duplicate row
    table.insert += (r == 0 ? "INSERT INTO t" + n + " VALUES " : ", ") + row;
    previous = std::move(row);
  }
  return table;
}

/// One two-database join with filters: the MSQL text for the federation
/// and the same query over unqualified tables for the single engine.
struct Query {
  std::string msql;
  std::string local;
};

Query RandomQuery(Rng* rng) {
  int a = static_cast<int>(rng->NextBelow(kDatabases));
  int b = static_cast<int>(rng->NextBelow(kDatabases - 1));
  if (b >= a) ++b;
  const std::string ta = "t" + std::to_string(a);
  const std::string tb = "t" + std::to_string(b);
  auto col = [](const std::string& t, char c) {
    return t + "." + std::string(1, c) + t.substr(1);
  };
  std::string where;
  switch (rng->NextBelow(6)) {
    case 0: where = col(ta, 'k') + " = " + col(tb, 'k'); break;
    case 1: where = col(ta, 'r') + " = " + col(tb, 'r'); break;
    case 2: where = col(ta, 'k') + " = " + col(tb, 'r'); break;
    case 3: where = col(ta, 's') + " = " + col(tb, 's'); break;
    case 4: where = col(ta, 'r') + " < " + col(tb, 'r'); break;
    default: where = col(ta, 'k') + " < " + col(tb, 'k'); break;
  }
  for (int f = static_cast<int>(rng->NextInRange(0, 2)); f > 0; --f) {
    const std::string& t = rng->NextBool(0.5) ? ta : tb;
    switch (rng->NextBelow(8)) {
      case 0: where += " AND " + col(t, 'k') + " > 0"; break;
      case 1: where += " AND " + col(t, 'r') + " < 2.5"; break;
      case 2: where += " AND " + col(t, 'r') + " > 1e308"; break;
      case 3:
        where += " AND " + col(t, 'k') + " < -9223372036854775806";
        break;
      case 4: where += " AND " + col(t, 's') + " = 'it''s'"; break;
      case 5: where += " AND " + col(t, 'r') + " IS NOT NULL"; break;
      case 6: where += " AND " + col(t, 'k') + " IS NULL"; break;
      default:
        where += " AND " + col(t, 'k') + " = 42424242";  // empty partial
        break;
    }
  }
  // A random non-empty selection of the six columns, in random order.
  std::vector<std::string> columns;
  for (const std::string& t : {ta, tb}) {
    for (char c : {'k', 'r', 's'}) columns.push_back(col(t, c));
  }
  for (size_t i = columns.size() - 1; i > 0; --i) {
    std::swap(columns[i], columns[rng->NextBelow(i + 1)]);
  }
  columns.resize(rng->NextInRange(2, 6));
  std::string select = "SELECT ";
  for (size_t i = 0; i < columns.size(); ++i) {
    select += (i > 0 ? ", " : "") + columns[i];
  }
  const std::string da = "d" + std::to_string(a);
  const std::string db = "d" + std::to_string(b);
  Query q;
  q.msql = "USE " + da + " " + db + "\n" + select + " FROM " + da + "." + ta +
           ", " + db + "." + tb + " WHERE " + where;
  q.local = select + " FROM " + ta + ", " + tb + " WHERE " + where;
  return q;
}

/// A result as a sorted multiset of type-tagged literals: 2 and 2.0,
/// and -0.0 and 0.0, stay apart.
std::vector<std::string> Multiset(const relational::ResultSet& rs) {
  std::vector<std::string> out;
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& v : row) {
      line += std::string(relational::TypeName(v.type())) + ":" +
              v.ToSqlLiteral() + "|";
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A federation of d0..d2, one service and site each, over links slow
/// enough per byte that the cost model reduces large partials by a
/// semi-join. With `paged_root`, d0's engine (the coordinator of every
/// query that reads d0: it comes first by name) is paged there.
Result<std::unique_ptr<MultidatabaseSystem>> BuildFederation(
    const std::vector<GeneratedTable>& tables, bool cost_based,
    const std::string& paged_root) {
  auto sys = std::make_unique<MultidatabaseSystem>();
  netsim::LinkParams link;
  link.micros_per_kb = 20000;
  sys->environment().network().set_default_link(link);
  for (int i = 0; i < kDatabases; ++i) {
    const std::string db = "d" + std::to_string(i);
    MSQL_RETURN_IF_ERROR(sys->AddService(
        db + "_svc", "site_" + db,
        relational::CapabilityProfile::IngresLike()));
    MSQL_ASSIGN_OR_RETURN(auto* engine, sys->GetEngine(db + "_svc"));
    if (i == 0 && !paged_root.empty()) {
      relational::StorageConfig storage;
      storage.root_dir = paged_root;
      MSQL_RETURN_IF_ERROR(engine->AttachStorage(storage));
    }
    MSQL_RETURN_IF_ERROR(engine->CreateDatabase(db));
    MSQL_RETURN_IF_ERROR(sys->RunLocalSql(db + "_svc", db, tables[i].create));
    if (!tables[i].insert.empty()) {
      MSQL_RETURN_IF_ERROR(
          sys->RunLocalSql(db + "_svc", db, tables[i].insert));
    }
    MSQL_RETURN_IF_ERROR(
        sys->Execute("INCORPORATE SERVICE " + db + "_svc SITE site_" + db +
                     " CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE "
                     "NOCOMMIT INSERT NOCOMMIT DROP NOCOMMIT")
            .status());
    MSQL_RETURN_IF_ERROR(
        sys->Execute("IMPORT DATABASE " + db + " FROM SERVICE " + db + "_svc")
            .status());
  }
  sys->set_cost_based_optimizer(cost_based);
  if (cost_based) {
    for (int i = 0; i < kDatabases; ++i) {
      MSQL_RETURN_IF_ERROR(
          sys->Execute("ANALYZE DATABASE d" + std::to_string(i)).status());
    }
  }
  return sys;
}

TEST(DistOptOracleTest, DecomposedJoinsMatchOneEngineAcrossSeeds) {
  int semi_joins = 0;
  int paged_coordinator_runs = 0;
  for (uint64_t seed : {7u, 21u, 1993u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<GeneratedTable> tables;
    for (int i = 0; i < kDatabases; ++i) {
      tables.push_back(GenerateTable(&rng, i));
    }

    // The oracle: one engine, one database, every table.
    relational::LocalEngine oracle("oracle",
                                   relational::CapabilityProfile::IngresLike());
    ASSERT_TRUE(oracle.CreateDatabase("all").ok());
    auto session = oracle.OpenSession("all");
    ASSERT_TRUE(session.ok());
    for (const auto& table : tables) {
      ASSERT_TRUE(oracle.Execute(*session, table.create).ok());
      if (!table.insert.empty()) {
        auto loaded = oracle.Execute(*session, table.insert);
        ASSERT_TRUE(loaded.ok()) << loaded.status();
      }
    }
    std::vector<Query> queries;
    for (int q = 0; q < kQueriesPerSeed; ++q) {
      queries.push_back(RandomQuery(&rng));
    }

    for (bool paged : {false, true}) {
      for (bool cost_based : {false, true}) {
        SCOPED_TRACE(std::string(paged ? "paged d0" : "in memory") +
                     (cost_based ? ", cost-based" : ", heuristic"));
        const std::filesystem::path root =
            paged ? std::filesystem::temp_directory_path() /
                        ("msql_distopt_oracle_" + std::to_string(::getpid()) +
                         "_" + std::to_string(seed) +
                         (cost_based ? "_cost" : "_heur"))
                  : std::filesystem::path();
        if (paged) std::filesystem::remove_all(root);
        {
          auto sys = BuildFederation(tables, cost_based, root.string());
          ASSERT_TRUE(sys.ok()) << sys.status();
          for (const Query& q : queries) {
            auto want = oracle.Execute(*session, q.local);
            auto got = (*sys)->Execute(q.msql);
            ASSERT_TRUE(want.ok()) << q.local << " -> " << want.status();
            ASSERT_TRUE(got.ok()) << q.msql << " -> " << got.status();
            EXPECT_EQ(got->outcome, GlobalOutcome::kSuccess)
                << q.msql << "\n" << got->detail;
            EXPECT_EQ(Multiset(got->join_result), Multiset(*want)) << q.msql;
            if (got->cost_text.find("semi-join keys") != std::string::npos) {
              ++semi_joins;
            }
            if (paged && q.msql.find(" d0") != std::string::npos) {
              ++paged_coordinator_runs;
            }
          }
          // No partial result outlives its query at the coordinator.
          for (int i = 0; i < kDatabases; ++i) {
            const std::string db = "d" + std::to_string(i);
            auto engine = (*sys)->GetEngine(db + "_svc");
            ASSERT_TRUE(engine.ok());
            auto database = (*engine)->GetDatabaseConst(db);
            ASSERT_TRUE(database.ok());
            for (const std::string& name : (*database)->TableNames()) {
              EXPECT_EQ(name.rfind("mdbs_", 0), std::string::npos)
                  << db << "." << name;
            }
          }
        }
        if (paged) std::filesystem::remove_all(root);
      }
    }
  }
  // Both movement strategies and the paged coordinator really ran.
  EXPECT_GT(semi_joins, 0);
  EXPECT_GT(paged_coordinator_runs, 0);
}

}  // namespace
}  // namespace msql::core
