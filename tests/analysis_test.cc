// Static RW-summary inference, soundness checking, conflict matrix, lint
// and the planner/scheduler pre-filters (DESIGN.md §10).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/conflict_matrix.h"
#include "analysis/lint.h"
#include "analysis/soundness.h"
#include "analysis/static_rw.h"
#include "core/dep_graph.h"
#include "core/rw_sets.h"
#include "core/txn_scheduler.h"
#include "core/ultraverse.h"
#include "oracle/fuzzer.h"
#include "oracle/oracle.h"
#include "sqldb/parser.h"
#include "util/sha256.h"
#include "workloads/workload.h"

namespace ultraverse::analysis {
namespace {

using core::QueryRW;
using oracle::GenerateCase;
using oracle::Universe;
using oracle::WhatIfCase;
using sql::Parser;
using sql::StatementPtr;

StatementPtr Parse(const std::string& sql) {
  auto r = Parser::ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return *r;
}

/// Feeds `history` through an owned static analyzer, returning the last
/// statement's summary (the registry evolves through the prefix).
StaticSummary SummarizeAfter(const std::vector<std::string>& history) {
  StaticAnalyzer analyzer;
  StaticSummary last;
  for (const auto& sql : history) {
    auto sum = analyzer.AnalyzeNext(*Parse(sql));
    EXPECT_TRUE(sum.ok()) << sql << ": " << sum.status().ToString();
    last = *sum;
  }
  return last;
}

const std::vector<std::string> kSchema = {
    "CREATE TABLE users (uid INT PRIMARY KEY, name VARCHAR, karma INT)",
    "CREATE TABLE posts (pid INT PRIMARY KEY AUTO_INCREMENT, uid INT, "
    "body VARCHAR, FOREIGN KEY (uid) REFERENCES users(uid))",
};

// --- per-statement inference ----------------------------------------------

TEST(StaticRwTest, SelectReadsColumnsAndRiValues) {
  auto history = kSchema;
  history.push_back("SELECT name FROM users WHERE uid = 7");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.rc.Contains("users.name"));
  EXPECT_TRUE(sum.rw.rc.Contains("users.uid"));
  EXPECT_TRUE(sum.rw.wc.empty());
  const auto& rr = sum.rw.rr.cols.at("users.uid");
  EXPECT_FALSE(rr.wildcard);
  EXPECT_EQ(rr.values.size(), 1u);
  EXPECT_TRUE(sum.rw.read_tables.count("users"));
  EXPECT_FALSE(sum.rw.is_ddl);
}

TEST(StaticRwTest, InsertWritesAllColumnsWithLiteralRi) {
  auto history = kSchema;
  history.push_back("INSERT INTO users (uid, name, karma) "
                    "VALUES (3, 'ada', 10)");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.wc.Contains("users.uid"));
  EXPECT_TRUE(sum.rw.wc.Contains("users.name"));
  EXPECT_TRUE(sum.rw.wc.Contains("users.karma"));
  const auto& wr = sum.rw.wr.cols.at("users.uid");
  EXPECT_FALSE(wr.wildcard);
  EXPECT_EQ(wr.values.size(), 1u);
  EXPECT_FALSE(sum.rw.overwrites);
}

TEST(StaticRwTest, AutoIncrementInsertIsRowWildcard) {
  auto history = kSchema;
  history.push_back("INSERT INTO posts (uid, body) VALUES (3, 'hi')");
  StaticSummary sum = SummarizeAfter(history);
  // The assigned id is runtime state: statically any row.
  EXPECT_TRUE(sum.rw.wr.cols.at("posts.pid").wildcard);
  // FK read of the referenced column.
  EXPECT_TRUE(sum.rw.rc.Contains("users.uid"));
  EXPECT_TRUE(sum.rw.read_tables.count("users"));
}

TEST(StaticRwTest, UpdateIsOverwriteWithRiFromWhere) {
  auto history = kSchema;
  history.push_back("UPDATE users SET karma = karma + 1 WHERE uid = 5");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.overwrites);
  EXPECT_TRUE(sum.rw.wc.Contains("users.karma"));
  EXPECT_TRUE(sum.rw.rc.Contains("users.karma"));  // read in the SET expr
  const auto& wr = sum.rw.wr.cols.at("users.uid");
  EXPECT_FALSE(wr.wildcard);
  EXPECT_EQ(wr.values.size(), 1u);
}

TEST(StaticRwTest, DeleteWithoutWhereIsRowWildcard) {
  auto history = kSchema;
  history.push_back("DELETE FROM users");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.overwrites);
  EXPECT_TRUE(sum.rw.wr.cols.at("users.uid").wildcard);
  // posts references users: its rows may be affected.
  EXPECT_TRUE(sum.rw.write_tables.count("posts"));
}

TEST(StaticRwTest, DdlMarksSchemaCells) {
  auto history = kSchema;
  history.push_back("ALTER TABLE users ADD COLUMN bio VARCHAR");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.is_ddl);
  EXPECT_TRUE(sum.has_ddl);
  EXPECT_TRUE(sum.rw.wc.Contains("_S.users"));
  // The owned registry evolved: the new column resolves afterwards.
  StaticAnalyzer analyzer;
  for (const auto& sql : history) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  auto after = analyzer.AnalyzeNext(
      *Parse("UPDATE users SET bio = 'x' WHERE uid = 1"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->rw.wc.Contains("users.bio"));
  EXPECT_TRUE(after->dead_column_writes.empty());
}

TEST(StaticRwTest, SubqueryAndViewReadsPropagate) {
  auto history = kSchema;
  history.push_back("CREATE VIEW loud AS SELECT uid, karma FROM users");
  history.push_back("SELECT body FROM posts WHERE uid = "
                    "(SELECT uid FROM loud)");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.rc.Contains("posts.body"));
  EXPECT_TRUE(sum.rw.rc.Contains("users.uid"));   // through the view
  EXPECT_TRUE(sum.rw.rc.Contains("_S.loud"));     // view schema read
}

TEST(StaticRwTest, JoinRiExtractionConstrainsOnlyTheBoundSource) {
  const std::vector<std::string> schema = {
      "CREATE TABLE a (id INT PRIMARY KEY, v INT)",
      "CREATE TABLE b (id INT PRIMARY KEY, w INT)",
  };
  auto in_list = schema;
  in_list.push_back(
      "SELECT a.id FROM a JOIN b ON a.v = b.w WHERE b.id IN (1, 2)");
  StaticSummary sum = SummarizeAfter(in_list);
  EXPECT_TRUE(sum.rw.rr.cols.at("a.id").wildcard);
  EXPECT_TRUE(sum.rw.rr.cols.at("a.id").region.IsTop());
  EXPECT_EQ(sum.rw.rr.cols.at("b.id").values.size(), 2u);

  auto bare = schema;
  bare.push_back("SELECT a.id FROM a JOIN b ON a.v = b.w WHERE id = 1");
  sum = SummarizeAfter(bare);
  for (const char* key : {"a.id", "b.id"}) {
    EXPECT_TRUE(sum.rw.rr.cols.at(key).wildcard) << key;
    EXPECT_TRUE(sum.rw.rr.cols.at(key).region.IsTop()) << key;
  }
}

// --- procedures: all-paths merge and parameter wildcards --------------------

TEST(StaticProcedureTest, AllBranchesMerge) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE branchy(p INT) BEGIN "
                      "IF p > 0 THEN UPDATE users SET karma = 1 WHERE "
                      "uid = p; "
                      "ELSE INSERT INTO posts (uid, body) VALUES (p, 'x'); "
                      "END IF; END"))
                  .ok());
  auto sum = analyzer.ProcedureSummary("branchy");
  ASSERT_TRUE(sum.ok());
  // Both paths contribute, regardless of which branch runs dynamically.
  EXPECT_TRUE((*sum)->rw.wc.Contains("users.karma"));
  EXPECT_TRUE((*sum)->rw.wc.Contains("posts.body"));
  // Parameter-dependent RI degrades to wildcard.
  EXPECT_TRUE((*sum)->rw.wr.cols.at("users.uid").wildcard);
  EXPECT_TRUE((*sum)->rw.overwrites);  // the UPDATE path may run
}

TEST(StaticProcedureTest, WhileBodyAndUnknownProcedure) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE drip(n INT) BEGIN "
                      "DECLARE i INT DEFAULT 0; "
                      "WHILE i < n DO "
                      "INSERT INTO users (uid, name, karma) VALUES "
                      "(i, 'bot', 0); SET i = i + 1; "
                      "END WHILE; END"))
                  .ok());
  auto sum = analyzer.ProcedureSummary("drip");
  ASSERT_TRUE(sum.ok());
  // Loop-carried variable: statically any row.
  EXPECT_TRUE((*sum)->rw.wr.cols.at("users.uid").wildcard);
  EXPECT_FALSE(analyzer.ProcedureSummary("nope").ok());
}

TEST(StaticProcedureTest, CacheInvalidatedByDdl) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(
      analyzer
          .AnalyzeNext(*Parse("CREATE PROCEDURE bump(p INT) BEGIN "
                              "UPDATE users SET karma = 9 WHERE uid = p; "
                              "END"))
          .ok());
  auto first = analyzer.ProcedureSummary("bump");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE((*first)->rw.wc.Contains("users.bio"));
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse("ALTER TABLE users ADD COLUMN bio "
                                      "VARCHAR"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE bump(p INT) BEGIN "
                      "UPDATE users SET bio = 'hi' WHERE uid = p; END"))
                  .ok());
  auto second = analyzer.ProcedureSummary("bump");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)->rw.wc.Contains("users.bio"));
}

TEST(StaticProcedureTest, NestedDdlSetsHasDdl) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse("CREATE PROCEDURE wipe() BEGIN "
                                      "TRUNCATE TABLE posts; END"))
                  .ok());
  auto sum = analyzer.ProcedureSummary("wipe");
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE((*sum)->has_ddl);
  // A CALL of it is statically DDL-tainted too.
  auto call = analyzer.AnalyzeNext(*Parse("CALL wipe()"));
  ASSERT_TRUE(call.ok());
  EXPECT_TRUE(call->has_ddl);
  EXPECT_TRUE(call->rw.is_ddl);
}

// --- containment unit tests -------------------------------------------------

TEST(ContainmentTest, EqualSetsContained) {
  QueryRW a;
  a.rc.Add("t.x");
  a.wc.Add("t.y");
  a.rr.AddValue("t.x", "v1");
  a.wr.AddWildcard("t.y");
  a.read_tables.insert("t");
  a.write_tables.insert("t");
  EXPECT_EQ(ContainmentBreach(a, a), "");
}

TEST(ContainmentTest, StaticWildcardCoversValues) {
  QueryRW dyn, stat;
  dyn.rr.AddValue("t.x", "v1");
  stat.rr.AddWildcard("t.x");
  EXPECT_EQ(ContainmentBreach(dyn, stat), "");
  // ...but static values never cover a dynamic wildcard.
  EXPECT_NE(ContainmentBreach(stat, dyn), "");
}

TEST(ContainmentTest, ReportsFirstBreach) {
  QueryRW dyn, stat;
  dyn.rc.Add("t.hidden");
  std::string breach = ContainmentBreach(dyn, stat);
  EXPECT_NE(breach.find("t.hidden"), std::string::npos) << breach;

  QueryRW dyn2, stat2;
  dyn2.wr.AddValue("t.x", "7");
  stat2.wr.AddValue("t.x", "8");
  EXPECT_NE(ContainmentBreach(dyn2, stat2), "");

  QueryRW dyn3, stat3;
  dyn3.is_ddl = true;
  EXPECT_NE(ContainmentBreach(dyn3, stat3), "");
  stat3.is_ddl = true;
  stat3.overwrites = true;  // static may over-approximate flags freely
  EXPECT_EQ(ContainmentBreach(dyn3, stat3), "");
}

// --- soundness checker over real histories ----------------------------------

/// Replays a raw SQL history through a fresh analyzer wearing the
/// soundness checker; any violation fails the test with its repro detail.
void ExpectContained(const std::vector<std::string>& history) {
  auto universe = Universe::Build(history);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  core::QueryAnalyzer analyzer;
  SoundnessChecker checker(&analyzer);
  auto analysis = analyzer.AnalyzeLog((*universe)->log());
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  std::string details;
  for (const auto& v : checker.violations()) {
    details += "#" + std::to_string(v.statement_ordinal) + " `" + v.sql +
               "`: " + v.detail + "\n";
  }
  EXPECT_TRUE(checker.violations().empty()) << details;
  EXPECT_GT(checker.statements_checked(), 0u);
}

TEST(SoundnessTest, HandwrittenMixedHistoryContained) {
  ExpectContained({
      "CREATE TABLE users (uid INT PRIMARY KEY, name VARCHAR, karma INT)",
      "CREATE TABLE posts (pid INT PRIMARY KEY AUTO_INCREMENT, uid INT, "
      "body VARCHAR, FOREIGN KEY (uid) REFERENCES users(uid))",
      "INSERT INTO users (uid, name, karma) VALUES (1, 'ada', 5)",
      "INSERT INTO posts (uid, body) VALUES (1, 'hello')",
      "CREATE PROCEDURE hot(p INT) BEGIN "
      "UPDATE users SET karma = karma + 1 WHERE uid = p; "
      "IF p > 10 THEN DELETE FROM posts WHERE uid = p; END IF; END",
      "CALL hot(1)",
      "CALL hot(99)",
      "CREATE TRIGGER tag AFTER INSERT ON posts FOR EACH ROW "
      "BEGIN UPDATE users SET karma = 0 WHERE uid = NEW.uid; END",
      "INSERT INTO posts (uid, body) VALUES (1, 'again')",
      "ALTER TABLE users ADD COLUMN bio VARCHAR",
      "UPDATE users SET bio = 'x' WHERE uid = 1",
      "SELECT name FROM users WHERE uid = (SELECT uid FROM posts)",
      "DELETE FROM users WHERE uid = 1",
  });
}

TEST(SoundnessTest, FuzzHistoriesContained) {
  // A slice of generated fuzz histories beyond the oracle smoke (which
  // covers seed 0xC0FFEE): different seed, direct checker attachment.
  for (uint64_t n = 0; n < 25; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/424242, n);
    auto violations = oracle::CheckStaticContainment(c.history);
    ASSERT_TRUE(violations.ok()) << violations.status().ToString();
    std::string details;
    for (const auto& v : *violations) details += v + "\n";
    EXPECT_TRUE(violations->empty()) << "case " << n << ":\n" << details;
  }
}

TEST(SoundnessTest, WorkloadHistoriesContained) {
  // Every bundled workload: schema + population + transactions replayed
  // through a fresh analyzer wearing the checker, with the workload's RI
  // configuration mirrored (alias RI columns are the hard case: the
  // static side must wildcard where the dynamic side uses alias maps).
  for (const auto& name : workload::AllWorkloadNames()) {
    core::Ultraverse uv;
    auto workload = workload::MakeWorkload(name, /*scale=*/1);
    ASSERT_NE(workload, nullptr) << name;
    workload::Driver driver(std::move(workload), &uv, {});
    ASSERT_TRUE(driver.Setup().ok()) << name;
    ASSERT_TRUE(driver.RunHistory(12).ok()) << name;

    core::QueryAnalyzer analyzer;
    for (const auto& [table, cfg] : uv.analyzer()->ri_configs()) {
      analyzer.ConfigureRi(table, cfg.ri_column, cfg.aliases);
    }
    SoundnessChecker checker(&analyzer);
    auto analysis = analyzer.AnalyzeLog(*uv.log());
    ASSERT_TRUE(analysis.ok()) << name << ": "
                               << analysis.status().ToString();
    std::string details;
    for (const auto& v : checker.violations()) {
      details += "#" + std::to_string(v.statement_ordinal) + " `" + v.sql +
                 "`: " + v.detail + "\n";
    }
    EXPECT_TRUE(checker.violations().empty()) << name << ":\n" << details;
    EXPECT_GT(checker.statements_checked(), 0u) << name;
  }
}

TEST(SoundnessTest, DetachesOnDestruction) {
  core::QueryAnalyzer analyzer;
  {
    SoundnessChecker checker(&analyzer);
    EXPECT_EQ(analyzer.observer(), &checker);
  }
  EXPECT_EQ(analyzer.observer(), nullptr);
}

// --- conflict matrix ---------------------------------------------------------

TEST(ConflictMatrixTest, SymmetricReflexiveAndDisjoint) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE w_users(p INT) BEGIN UPDATE users "
                      "SET karma = 1 WHERE uid = p; END"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE w_posts(p INT) BEGIN UPDATE posts "
                      "SET body = 'x' WHERE pid = p; END"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE r_users(p INT) BEGIN SELECT karma "
                      "FROM users WHERE uid = p; END"))
                  .ok());
  auto matrix = BuildConflictMatrix(&analyzer);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  ASSERT_EQ(matrix->procedures.size(), 3u);
  // Symmetry, always.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(matrix->conflicts[i][j], matrix->conflicts[j][i]);
    }
  }
  // Writers self-conflict (reflexive for writers).
  EXPECT_TRUE(matrix->At("w_users", "w_users"));
  EXPECT_TRUE(matrix->At("w_posts", "w_posts"));
  // Cross-table writers are provably disjoint... almost: w_posts reads
  // users.uid through the posts FK, but w_users only writes users.karma,
  // so the pair stays disjoint.
  EXPECT_FALSE(matrix->At("w_users", "w_posts"));
  // Read-write overlap on users.karma conflicts.
  EXPECT_TRUE(matrix->At("w_users", "r_users"));
  // Pure reader vs unrelated writer: disjoint.
  EXPECT_FALSE(matrix->At("r_users", "w_posts"));
  // Unknown procedures assume conflict (sound).
  EXPECT_TRUE(matrix->At("w_users", "mystery"));
  EXPECT_FALSE(matrix->ToString().empty());
}

// --- planner pre-filter ------------------------------------------------------

TEST(PrefilterTest, PlanIdenticalWithAndWithoutFootprints) {
  // The static-footprint pre-filter must be invisible in the result: for
  // a spread of generated histories and retro targets, the replay plan
  // with footprints equals the plan without.
  for (uint64_t n = 0; n < 12; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/777, n);
    auto universe = Universe::Build(c.history);
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    auto analysis = (*universe)->Analysis();
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    std::vector<core::TableFootprint> footprints =
        StaticLogFootprints((*universe)->log());
    ASSERT_EQ(footprints.size(), (*analysis)->size());

    uint64_t target =
        c.index >= 1 && c.index <= (*analysis)->size() ? c.index : 1;
    const QueryRW& target_rw = (**analysis)[target - 1];

    core::DependencyOptions with, without;
    with.static_footprints = footprints;
    core::ReplayPlan a = core::ComputeReplayPlan(
        **analysis, target, target_rw, /*target_occupies_slot=*/true, with);
    core::ReplayPlan b =
        core::ComputeReplayPlan(**analysis, target, target_rw,
                                /*target_occupies_slot=*/true, without);
    EXPECT_EQ(a.replay_indices, b.replay_indices) << "case " << n;
    EXPECT_EQ(a.mutated_tables, b.mutated_tables) << "case " << n;
    EXPECT_EQ(a.needs_schema_rebuild, b.needs_schema_rebuild) << "case " << n;
  }
}

TEST(PrefilterTest, FootprintsAlignWithLogAndFailuresAreUniversal) {
  auto universe = Universe::Build({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 10)",
      "UPDATE t SET v = 11 WHERE id = 1",
  });
  ASSERT_TRUE(universe.ok());
  std::vector<core::TableFootprint> footprints =
      StaticLogFootprints((*universe)->log());
  ASSERT_EQ(footprints.size(), 3u);
  for (const auto& fp : footprints) {
    EXPECT_TRUE(fp.universal || fp.tables.count("t"));
  }
  core::TableFootprint unrelated;
  unrelated.tables.insert("other");
  EXPECT_FALSE(footprints[1].Intersects(unrelated));
  core::TableFootprint universal;
  universal.universal = true;
  EXPECT_TRUE(footprints[1].Intersects(universal));
}

// --- scheduler pre-filter ----------------------------------------------------

TEST(SchedulerPrefilterTest, DisjointBatchPrefiltersAndStatesMatch) {
  auto run = [](bool with_static, core::TxnScheduler::Stats* stats_out)
      -> std::string {
    sql::Database db;
    core::QueryAnalyzer analyzer;
    std::vector<std::string> schema = {
        "CREATE TABLE a (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE b (id INT PRIMARY KEY, v INT)",
    };
    uint64_t commit = 1;
    for (const auto& sql : schema) {
      StatementPtr stmt = *Parser::ParseStatement(sql);
      sql::ExecContext ctx;
      EXPECT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
      sql::LogEntry ddl;
      ddl.index = commit++;
      ddl.stmt = stmt;
      EXPECT_TRUE(analyzer.AnalyzeEntry(ddl).ok());
    }
    StaticAnalyzer statics(analyzer.registry());
    core::TxnScheduler::Options options;
    options.num_threads = 2;
    if (with_static) {
      options.static_summary =
          [&statics](const sql::Statement& stmt) -> std::optional<QueryRW> {
        auto sum = statics.Summarize(stmt);
        if (!sum.ok()) return std::nullopt;
        return sum->rw;
      };
    }
    core::TxnScheduler scheduler(&db, &analyzer, options);
    std::vector<StatementPtr> batch = {
        *Parser::ParseStatement("INSERT INTO a (id, v) VALUES (1, 10)"),
        *Parser::ParseStatement("INSERT INTO b (id, v) VALUES (1, 20)"),
        *Parser::ParseStatement("UPDATE a SET v = 11 WHERE id = 1"),
        *Parser::ParseStatement("UPDATE b SET v = 21 WHERE id = 1"),
    };
    auto stats = scheduler.ExecuteBatch(batch, commit);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok() && stats_out) *stats_out = *stats;
    std::string state;
    for (const char* q :
         {"SELECT v FROM a WHERE id = 1", "SELECT v FROM b WHERE id = 1"}) {
      sql::ExecContext ctx;
      auto r = db.Execute(**Parser::ParseStatement(q), commit + 100, &ctx);
      EXPECT_TRUE(r.ok());
      if (r.ok() && !r->rows.empty() && !r->rows[0].empty()) {
        state += r->rows[0][0].ToDisplayString() + ";";
      }
    }
    return state;
  };
  core::TxnScheduler::Stats with_stats, without_stats;
  std::string with_state = run(true, &with_stats);
  std::string without_state = run(false, &without_stats);
  EXPECT_EQ(with_state, without_state);
  EXPECT_EQ(with_state, "11;21;");
  // a-statements conflict with each other (INSERT then UPDATE on table a),
  // so nothing prefilters in this batch... unless truly disjoint. Check
  // the counter is consistent: without static summaries it must be zero.
  EXPECT_EQ(without_stats.prefiltered, 0u);
}

TEST(SchedulerPrefilterTest, FullyDisjointBatchSkipsAnalysis) {
  sql::Database db;
  core::QueryAnalyzer analyzer;
  uint64_t commit = 1;
  for (const char* sql :
       {"CREATE TABLE a (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE b (id INT PRIMARY KEY, v INT)"}) {
    StatementPtr stmt = *Parser::ParseStatement(sql);
    sql::ExecContext ctx;
    ASSERT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
    sql::LogEntry ddl;
    ddl.index = commit++;
    ddl.stmt = stmt;
    ASSERT_TRUE(analyzer.AnalyzeEntry(ddl).ok());
  }
  StaticAnalyzer statics(analyzer.registry());
  core::TxnScheduler::Options options;
  options.num_threads = 2;
  options.static_summary =
      [&statics](const sql::Statement& stmt) -> std::optional<QueryRW> {
    auto sum = statics.Summarize(stmt);
    if (!sum.ok()) return std::nullopt;
    return sum->rw;
  };
  core::TxnScheduler scheduler(&db, &analyzer, options);
  std::vector<StatementPtr> batch = {
      *Parser::ParseStatement("INSERT INTO a (id, v) VALUES (1, 10)"),
      *Parser::ParseStatement("INSERT INTO b (id, v) VALUES (1, 20)"),
  };
  auto stats = scheduler.ExecuteBatch(batch, commit);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Two INSERTs into different tables: column-wise disjoint, both skip
  // dynamic analysis.
  EXPECT_EQ(stats->prefiltered, 2u);
  EXPECT_EQ(stats->executed, 2u);
}

// --- lint --------------------------------------------------------------------

std::vector<StatementPtr> ParseAll(const std::vector<std::string>& sqls) {
  std::vector<StatementPtr> out;
  for (const auto& s : sqls) out.push_back(Parse(s));
  return out;
}

bool HasFinding(const LintReport& report, const std::string& category,
                const std::string& subject) {
  for (const auto& f : report.findings) {
    if (f.category == category && f.subject == subject) return true;
  }
  return false;
}

TEST(LintTest, FindsAllCategories) {
  auto report = LintStatements(ParseAll({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT, legacy INT)",
      "CREATE TABLE audit (id INT PRIMARY KEY, note VARCHAR)",
      "INSERT INTO t (id, v, legacy) VALUES (1, 2, 3)",
      "CREATE PROCEDURE churn(p INT) BEGIN "
      "UPDATE t SET v = RAND() WHERE id = p; END",
      "CREATE PROCEDURE reset_all() BEGIN TRUNCATE TABLE t; END",
      "ALTER TABLE t DROP COLUMN legacy",
      "UPDATE t SET legacy = 9 WHERE id = 1",
      "INSERT INTO audit (id, note) VALUES (1, 'by hand')",
  }));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(HasFinding(*report, "nondet-builtin", "RAND"));
  EXPECT_TRUE(HasFinding(*report, "ddl-in-procedure", "reset_all"));
  EXPECT_TRUE(HasFinding(*report, "dead-column-write", "t.legacy"));
  EXPECT_TRUE(HasFinding(*report, "unowned-write", "audit"));
  EXPECT_EQ(report->matrix.procedures.size(), 2u);
  EXPECT_FALSE(report->ToString().empty());
}

TEST(LintTest, CleanScriptHasNoFindings) {
  auto report = LintStatements(ParseAll({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "CREATE PROCEDURE set_v(p INT, x INT) BEGIN "
      "UPDATE t SET v = x WHERE id = p; END",
      "CALL set_v(1, 2)",
  }));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->findings.empty()) << report->ToString();
}

TEST(LintTest, NoProceduresMeansNoUnownedWrites) {
  auto report = LintStatements(ParseAll({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 2)",
  }));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->findings.empty()) << report->ToString();
}

/// Logged statements of a bundled workload after setup and `txns`
/// transactions (the history `uvlint --workload` and the identity digests
/// read). `uv` keeps the workload's RI configuration.
std::vector<StatementPtr> WorkloadStatements(const std::string& name,
                                             size_t txns,
                                             core::Ultraverse* uv) {
  auto workload = workload::MakeWorkload(name, /*scale=*/1);
  EXPECT_NE(workload, nullptr) << name;
  if (!workload) return {};
  workload::Driver driver(std::move(workload), uv, {});
  EXPECT_TRUE(driver.Setup().ok()) << name;
  EXPECT_TRUE(driver.RunHistory(txns).ok()) << name;
  std::vector<StatementPtr> out;
  for (const auto& entry : uv->log()->entries()) out.push_back(entry.stmt);
  return out;
}

// `uvlint --workload all` (10 transactions per workload): the findings come
// from the static walk's lint facts and the matrices from ProcedureSummary.
TEST(LintTest, BundledWorkloadReportsArePinned) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"epinions",
       "no findings\n"
       "static conflict matrix (5 procedures; '#' = may conflict, '~' = "
       "predicate-refuted, '.' = provably disjoint)\n"
       "  AddReview          #.#..\n"
       "  UpdateItemTitle    .#...\n"
       "  UpdateReviewRating #.#..\n"
       "  UpdateTrustRating  ...#.\n"
       "  UpdateUserName     ....#\n"},
      {"tatp",
       "no findings\n"
       "static conflict matrix (4 procedures; '#' = may conflict, '~' = "
       "predicate-refuted, '.' = provably disjoint)\n"
       "  DeleteCallForwarding ##..\n"
       "  InsertCallForwarding ##..\n"
       "  UpdateLocation       ..#.\n"
       "  UpdateSubscriberData ...#\n"},
      {"seats",
       "no findings\n"
       "static conflict matrix (4 procedures; '#' = may conflict, '~' = "
       "predicate-refuted, '.' = provably disjoint)\n"
       "  DeleteReservation ####\n"
       "  NewReservation    ####\n"
       "  UpdateCustomer    ###.\n"
       "  UpdateReservation ##.#\n"},
      {"tpcc",
       "#15 [unowned-write] item: raw DML writes a table no stored procedure "
       "writes: traffic bypassing the transpiled application templates\n"
       "static conflict matrix (4 procedures; '#' = may conflict, '~' = "
       "predicate-refuted, '.' = provably disjoint)\n"
       "  Delivery   ###.\n"
       "  NewOrder   ##.#\n"
       "  Payment    #.#.\n"
       "  order_item .#.#\n"},
      {"astore",
       "#22 [unowned-write] Categories: raw DML writes a table no stored "
       "procedure writes: traffic bypassing the transpiled application "
       "templates\n"
       "static conflict matrix (12 procedures; '#' = may conflict, '~' = "
       "predicate-refuted, '.' = provably disjoint)\n"
       "  AddAddress        #..#........\n"
       "  CancelOrder       .####....#..\n"
       "  DeleteMessage     .####.......\n"
       "  PlaceOrder        #####.#..##.\n"
       "  PostMessage       .####.......\n"
       "  Register          .....#.....#\n"
       "  Restock           ...#..#.....\n"
       "  Subscribe         .......##...\n"
       "  Unsubscribe       .......##...\n"
       "  UpdateOrderStatus .#.#.....#..\n"
       "  UpdatePrice       ...#......#.\n"
       "  UpdateProfile     .....#.....#\n"},
  };
  ASSERT_EQ(expected.size(), workload::AllWorkloadNames().size());
  for (const auto& [name, text] : expected) {
    core::Ultraverse uv;
    auto report = LintStatements(WorkloadStatements(name, 10, &uv));
    ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
    EXPECT_EQ(report->ToString(), text) << name;
  }
}

// --- analysis identity -------------------------------------------------------
//
// Golden digests of everything the R/W walk produces, over the five bundled
// workloads (RI and alias-RI configurations included) and fuzz seeds 1-2:
// raw dynamic QueryRWs per entry, owned-mode static summaries with their
// lint facts plus every procedure summary, and the replay plan of a remove
// at every log index. A change to the walk that alters any analysis shows
// up here as a digest mismatch.

void AppendRowSet(const core::RowSet& rs, std::string* out) {
  for (const auto& [col, vals] : rs.cols) {
    *out += " " + col + (vals.wildcard ? "*" : "") + "{";
    for (const auto& v : vals.values) *out += v + ",";
    *out += "}";
    const core::ValueRegion& r = vals.region;
    if (r.top) {
      *out += "T";
      continue;
    }
    *out += "[";
    for (const auto& p : r.points) *out += p + ",";
    for (const auto& iv : r.intervals) {
      *out += std::string(iv.lo_incl ? "[" : "(") +
              (iv.lo ? iv.lo->Encode() : "-") + ";" +
              (iv.hi ? iv.hi->Encode() : "+") + (iv.hi_incl ? "]" : ")");
    }
    *out += "]";
  }
}

void AppendRw(const QueryRW& rw, std::string* out) {
  *out += "rc";
  for (const auto& c : rw.rc.items) *out += " " + c;
  *out += "|wc";
  for (const auto& c : rw.wc.items) *out += " " + c;
  *out += "|rr";
  AppendRowSet(rw.rr, out);
  *out += "|wr";
  AppendRowSet(rw.wr, out);
  *out += "|rt";
  for (const auto& t : rw.read_tables) *out += " " + t;
  *out += "|wt";
  for (const auto& t : rw.write_tables) *out += " " + t;
  *out += std::string("|") + (rw.is_ddl ? "D" : "-") +
          (rw.overwrites ? "O" : "-") + "\n";
}

void AppendSummary(const StaticSummary& sum, std::string* out) {
  AppendRw(sum.rw, out);
  *out += sum.has_ddl ? "ddl" : "-";
  for (const auto& b : sum.nondet_builtins) *out += " " + b;
  *out += "|dead";
  for (const auto& d : sum.dead_column_writes) *out += " " + d;
  *out += "\n";
}

std::string Digest(const std::string& text) {
  return Sha256::Hash(text).ToHex().substr(0, 16);
}

struct AnalysisDigests {
  std::string dynamic, statics, plans;
};

AnalysisDigests DigestAnalyses(
    const sql::QueryLog& log,
    const std::map<std::string, core::QueryAnalyzer::RiConfig>& ri) {
  std::string dyn_text, static_text, plan_text;
  core::QueryAnalyzer raw;
  StaticAnalyzer statics;
  for (const auto& [table, cfg] : ri) {
    raw.ConfigureRi(table, cfg.ri_column, cfg.aliases);
    statics.SetRiOverride(table, cfg.ri_column, cfg.aliases);
  }
  for (const auto& entry : log.entries()) {
    auto rw = raw.AnalyzeEntry(entry);
    EXPECT_TRUE(rw.ok()) << rw.status().ToString();
    if (rw.ok()) AppendRw(*rw, &dyn_text);
    auto sum = statics.AnalyzeNext(*entry.stmt);
    EXPECT_TRUE(sum.ok()) << sum.status().ToString();
    if (sum.ok()) AppendSummary(*sum, &static_text);
  }
  for (const auto& name : statics.registry().ProcedureNames()) {
    auto sum = statics.ProcedureSummary(name);
    EXPECT_TRUE(sum.ok()) << name;
    static_text += name + ": ";
    if (sum.ok()) AppendSummary(**sum, &static_text);
  }

  core::QueryAnalyzer canon;
  for (const auto& [table, cfg] : ri) {
    canon.ConfigureRi(table, cfg.ri_column, cfg.aliases);
  }
  auto analysis = canon.AnalyzeLog(log);
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  if (analysis.ok()) {
    for (uint64_t target = 1; target <= analysis->size(); ++target) {
      core::ReplayPlan plan = core::ComputeReplayPlan(
          *analysis, target, (*analysis)[target - 1],
          /*target_occupies_slot=*/true, core::DependencyOptions{});
      plan_text += std::to_string(target) + ":";
      for (uint64_t i : plan.replay_indices) {
        plan_text += " " + std::to_string(i);
      }
      plan_text += "|";
      for (const auto& t : plan.mutated_tables) plan_text += " " + t;
      plan_text += plan.needs_schema_rebuild ? "|R\n" : "|-\n";
    }
  }
  return {Digest(dyn_text), Digest(static_text), Digest(plan_text)};
}

TEST(AnalysisIdentityTest, DigestsMatchGolden) {
  struct Golden {
    std::string source;
    AnalysisDigests digests;
  };
  const std::vector<Golden> golden = {
      {"astore", {"3eda28bc6d153953", "696fc83be615c9cd", "4b823e367b686352"}},
      {"epinions", {"95d629e775cd25ea", "bd36422990989fc9", "aa89e464d5a17d4d"}},
      {"fuzz1/0", {"8ba4fc1a74ab3081", "46d327dce52d4ac4", "1f2a57ce3efaf15a"}},
      {"fuzz1/1", {"78e925d2b734e0a9", "4adbcb0ed30fbfad", "938c0c792d3e11f1"}},
      {"fuzz1/10", {"74b2c946f9f9e427", "c2edb357cd7aac33", "2f33c84b2c452a5e"}},
      {"fuzz1/11", {"3632d3fe4b420711", "babdf45b9a810e44", "3cbc9112f3e96006"}},
      {"fuzz1/12", {"3b202439c33ca10c", "2a242d9bf086fe2c", "8ca1b34496060416"}},
      {"fuzz1/13", {"ceb074df3581ae98", "703de9755423efcc", "42d70c7cff79f368"}},
      {"fuzz1/14", {"5ee3bdf8e62f6098", "e3de35921cff91e6", "b3a1cc0c81e438ae"}},
      {"fuzz1/15", {"41d26f4e95a7b655", "6bb61950041e93e8", "5cc1cc1b59f53ebe"}},
      {"fuzz1/16", {"6aade6eacc151ea7", "4aacced9d63a2b9f", "172f5727d3485d1f"}},
      {"fuzz1/17", {"0f9ff27fbc5c3167", "0bf485939a120cd4", "37d794cc183734c1"}},
      {"fuzz1/18", {"1ef63a136a5c370d", "54ff0216ca307dac", "16eeb01f85dbae1b"}},
      {"fuzz1/19", {"0e55c10d575c11bb", "6afcb2e1f1f8f88f", "156a0308f76af545"}},
      {"fuzz1/2", {"2af353bfc8e37635", "61ab5c259b75201e", "50e26bfcac71f142"}},
      {"fuzz1/20", {"b725a23c63468eba", "7cd7762fd04723e8", "30db5bd669cd8bb3"}},
      {"fuzz1/21", {"3cc71a64f0dc63d4", "e76c8a119b89dac9", "baa13992182a6652"}},
      {"fuzz1/22", {"c83a3e1a90e17862", "c5bb848e5f64c2d1", "31a32c01515dc7b0"}},
      {"fuzz1/23", {"f0c346ffe8591640", "f0decc9a72f0876a", "c9de9411c036a325"}},
      {"fuzz1/24", {"a35584cec0ee90a2", "c5de6fe4e15bdb40", "ee012fb56bf6b270"}},
      {"fuzz1/25", {"52bd3fb92beec7a9", "605098f88fd876f3", "4935ab293a0dfa9d"}},
      {"fuzz1/26", {"05377caf40294616", "1efdfde4e2f333b2", "b56dad1ace88f4ed"}},
      {"fuzz1/27", {"719fbfba5d915e48", "a473a89862c51f5d", "e711536b8f6bc420"}},
      {"fuzz1/28", {"f8ae5725773846fa", "4089ab848f4a6624", "37ba47e6af6af627"}},
      {"fuzz1/29", {"836c1d5bb5dc7261", "7199e659f24e03b9", "2903c227a4ffc924"}},
      {"fuzz1/3", {"54d3e4dffe0005b7", "aa3ed33488a3fd44", "9e6eeedd567497c1"}},
      {"fuzz1/4", {"328f03fed9bf7ee7", "a1b096cf040ad7c7", "df1397231d0e4113"}},
      {"fuzz1/5", {"743648fcbecb8b2b", "204407d0f9644f70", "3177aba964cfe7de"}},
      {"fuzz1/6", {"25ffa18fa4424253", "85667a81a37894bb", "816bd9680ade05f9"}},
      {"fuzz1/7", {"e4e5bc9a753fcbbc", "7b99c1544e32bad6", "a8d456d860616861"}},
      {"fuzz1/8", {"4863c4c9e0168b55", "a44e5cfe20efef5e", "e42660f5c9847b3a"}},
      {"fuzz1/9", {"78e2f58bff1e6eb7", "98b0f5ae3a89d09c", "ec0b729a4d2f70b8"}},
      {"fuzz2/0", {"0523529442931a0e", "e25b013be7794470", "fd60a668c27b0999"}},
      {"fuzz2/1", {"81223f11a053ca93", "4f5d92efb3bbb6e0", "1f897c7ac910e59b"}},
      {"fuzz2/10", {"c9453cc9271a4701", "1430d9c2fd001161", "7708237c48ed4e40"}},
      {"fuzz2/11", {"f2868e913dfdb25a", "898f1b7e02dde939", "63930903863fdbb9"}},
      {"fuzz2/12", {"bd2a20e47973438d", "fdab0f00c4b4a0fc", "ee66b7fb0e606662"}},
      {"fuzz2/13", {"d5d34c84e2da0840", "6596909051f05687", "2bba96a992420fb1"}},
      {"fuzz2/14", {"6eaadb738454a58e", "636e3e93a9058606", "5463f3f68fc33a95"}},
      {"fuzz2/15", {"7a49ab71eeda47d1", "1c31fbdc0e354465", "8ca1b34496060416"}},
      {"fuzz2/16", {"85c1247c09066f17", "fd73ef606462e636", "ef98a06eda4e5cbc"}},
      {"fuzz2/17", {"55153ad8861d7116", "313f8910da8bb9e1", "27b4ec3bdc09d1de"}},
      {"fuzz2/18", {"ffd755a8927095da", "c005ef66b36dd775", "1ed1527375e7dbe5"}},
      {"fuzz2/19", {"c3364efe15bf8038", "e2c4ced6d45e6b96", "83a8ef409518f2fb"}},
      {"fuzz2/2", {"08313f19f400ace6", "eb398df7700f0f5f", "4130b0b300572820"}},
      {"fuzz2/20", {"3612d3c646502cd0", "1f3c4f37e08060b3", "f717db9a912aae54"}},
      {"fuzz2/21", {"33054e5ccd7693ca", "f01486247ad56b82", "df4e2f87fc67fd1f"}},
      {"fuzz2/22", {"8432808d7c9c8eb2", "d103baab58c13166", "ca99b5fedd40efe3"}},
      {"fuzz2/23", {"9274142bf0bee1d5", "a029ab916e1849a4", "5e7d1217807ab156"}},
      {"fuzz2/24", {"35229e298697dd22", "28fed63ab7f3474b", "5603d3fc0bf3058a"}},
      {"fuzz2/25", {"e75a9a2d5778845b", "8002b7440b9ce59c", "9e30f8ac2b3efb93"}},
      {"fuzz2/26", {"1df982bf2a6d9e3b", "77a5941a753bd758", "18af6fa25e0d7dee"}},
      {"fuzz2/27", {"b3e54ad619e896e5", "c09e98ea8885ae4e", "e3298a6ff4c4a6a4"}},
      {"fuzz2/28", {"36e52f96fe02f60b", "acd43ca46f7d3535", "df25c2205563a8d7"}},
      {"fuzz2/29", {"6b6f3e0baecbc1f7", "ad1d76380e46cca8", "1c65664c1905b5af"}},
      {"fuzz2/3", {"146c913ddd14b3fd", "d5f787fb422c6224", "cdf392aa603d9f8a"}},
      {"fuzz2/4", {"cb051b8e96aded58", "2919d0c1adb97002", "f5b2e77a852524f5"}},
      {"fuzz2/5", {"f4a3848aa1626d6b", "084eb8d481b6889f", "abb443cac7465d05"}},
      {"fuzz2/6", {"7a49ab71eeda47d1", "1c31fbdc0e354465", "8ca1b34496060416"}},
      {"fuzz2/7", {"de566c5bafddb5f1", "02b9d16bdab62322", "eda5f6dab126292c"}},
      {"fuzz2/8", {"dd1baf1a3e21f7b1", "40d7c1160cfd4a8f", "57b95ca7ce614f5b"}},
      {"fuzz2/9", {"1b64cb6e26468e83", "086f0ce91f8a4804", "c9c6104e52d5f28a"}},
      {"seats", {"e46e5ee71ac0d830", "5b646f96fc3d40b8", "45b0b6338a2c9ce1"}},
      {"tatp", {"5bebc6003a240b20", "1e1e2a04246edd96", "ea8a2b8fc7daa2e2"}},
      {"tpcc", {"6abf2fa0eee92662", "591dabd6c1d1ec2c", "6fc26f77535d9573"}},
  };
  std::map<std::string, AnalysisDigests> actual;
  for (const auto& name : workload::AllWorkloadNames()) {
    core::Ultraverse uv;
    WorkloadStatements(name, 12, &uv);
    actual[name] = DigestAnalyses(*uv.log(), uv.analyzer()->ri_configs());
  }
  for (uint64_t seed : {1, 2}) {
    for (uint64_t n = 0; n < 30; ++n) {
      WhatIfCase c = GenerateCase(seed, n);
      auto universe = Universe::Build(c.history);
      ASSERT_TRUE(universe.ok()) << universe.status().ToString();
      actual["fuzz" + std::to_string(seed) + "/" + std::to_string(n)] =
          DigestAnalyses((*universe)->log(), {});
    }
  }
  std::string listing;
  for (const auto& [source, d] : actual) {
    listing += "      {\"" + source + "\", {\"" + d.dynamic + "\", \"" +
               d.statics + "\", \"" + d.plans + "\"}},\n";
  }
  ASSERT_EQ(golden.size(), actual.size()) << "actual digests:\n" << listing;
  for (const auto& g : golden) {
    auto it = actual.find(g.source);
    ASSERT_NE(it, actual.end()) << g.source;
    EXPECT_EQ(it->second.dynamic, g.digests.dynamic) << g.source;
    EXPECT_EQ(it->second.statics, g.digests.statics) << g.source;
    EXPECT_EQ(it->second.plans, g.digests.plans) << g.source;
  }
}

}  // namespace
}  // namespace ultraverse::analysis
