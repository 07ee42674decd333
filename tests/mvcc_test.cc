// MVCC what-if suite (DESIGN.md §14): epoch-keyed snapshots, concurrent
// analyze-only what-ifs over shared snapshots, the (epoch, op) result
// cache, the optimistic publish protocol, and the two stale-cache
// regression cases this PR fixes — an equal-length history rewrite that a
// log-size-keyed hash-timeline cache would miss, and a shared VM plan
// cache poisoned across CloneTables clones by a same-width base ALTER.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/replay.h"
#include "core/ultraverse.h"
#include "obs/metrics.h"
#include "oracle/concurrent.h"
#include "oracle/oracle.h"
#include "sqldb/database.h"
#include "sqldb/exec_engine.h"
#include "workloads/workload.h"

namespace ultraverse::core {
namespace {

// --- Satellite regression 1: epoch-keyed hash-timeline cache -----------------

// WAL recovery (and any history patch) rewrites log entries IN PLACE
// without changing the log length. A timeline cache keyed by log size
// would serve digests of the overwritten history; keyed by epoch it must
// rebuild, because at_mutable() bumps the epoch.
TEST(MvccTimelineCacheTest, EqualLengthRewriteInvalidatesTimeline) {
  std::vector<std::string> history = {
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 10)",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "UPDATE t SET v = v + 2 WHERE id = 1",
      "UPDATE t SET v = v + 3 WHERE id = 1",
  };
  auto universe = oracle::Universe::Build(history);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  auto analysis = (*universe)->Analysis();
  ASSERT_TRUE(analysis.ok());

  TimelineCache cache;
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;

  RetroactiveEngine::Options eopts;
  eopts.deps.column_wise = true;
  eopts.deps.row_wise = true;
  eopts.hash_jumper = true;
  eopts.timeline_cache = &cache;
  {
    RetroactiveEngine engine((*universe)->db(), (*universe)->mutable_log(), eopts);
    ASSERT_TRUE(
        engine.Execute(op, **analysis, (*universe)->analyzer()).ok());
  }
  ASSERT_NE(cache.timeline, nullptr) << "hash-jump run must build a timeline";
  const HashTimeline* first = cache.timeline.get();
  const uint64_t first_epoch = cache.epoch;

  // Rewrite one entry in place: same log length, different history. The
  // accessor itself bumps the epoch — exactly what WAL recovery relies on.
  sql::QueryLog* log = (*universe)->mutable_log();
  const uint64_t len_before = log->last_index();
  log->at_mutable(4).sql = "UPDATE t SET v = v + 200 WHERE id = 1";
  ASSERT_EQ(log->last_index(), len_before) << "rewrite must not change size";

  {
    RetroactiveEngine engine((*universe)->db(), (*universe)->mutable_log(), eopts);
    (void)engine.Execute(op, **analysis, (*universe)->analyzer());
  }
  EXPECT_NE(cache.epoch, first_epoch)
      << "cache still keyed to the overwritten history";
  EXPECT_NE(cache.timeline.get(), first)
      << "stale timeline served across an equal-length history rewrite";
}

// Unchanged history ⇒ the second engine must reuse the cached timeline
// (the whole point of sharing the cache across what-ifs).
TEST(MvccTimelineCacheTest, UnchangedEpochReusesTimeline) {
  std::vector<std::string> history = {
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 10)",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "UPDATE t SET v = v + 2 WHERE id = 1",
  };
  auto universe = oracle::Universe::Build(history);
  ASSERT_TRUE(universe.ok());
  auto analysis = (*universe)->Analysis();
  ASSERT_TRUE(analysis.ok());

  TimelineCache cache;
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  RetroactiveEngine::Options eopts;
  eopts.deps.column_wise = true;
  eopts.deps.row_wise = true;
  eopts.hash_jumper = true;
  eopts.timeline_cache = &cache;
  // publish=false: the engine may not mutate the live db/log, so the
  // epoch cannot move between the two runs.
  eopts.publish = false;
  {
    RetroactiveEngine engine((*universe)->db(), (*universe)->mutable_log(), eopts);
    ASSERT_TRUE(
        engine.Execute(op, **analysis, (*universe)->analyzer()).ok());
  }
  // Analyze-only forces the Hash-jumper off (the temp db must reach the
  // horizon to BE the result), so the timeline may or may not have been
  // built; seed it explicitly through a publishing engine when absent.
  if (!cache.timeline) {
    RetroactiveEngine::Options pub = eopts;
    pub.publish = true;
    RetroactiveEngine engine((*universe)->db(), (*universe)->mutable_log(), pub);
    ASSERT_TRUE(
        engine.Execute(op, **analysis, (*universe)->analyzer()).ok());
  }
  ASSERT_NE(cache.timeline, nullptr);
  const HashTimeline* first = cache.timeline.get();
  const uint64_t first_epoch = cache.epoch;
  {
    RetroactiveEngine::Options pub = eopts;
    pub.publish = true;
    pub.snapshot_epoch = (*universe)->log().epoch();
    RetroactiveEngine engine((*universe)->db(), (*universe)->mutable_log(), pub);
    ASSERT_TRUE(
        engine.Execute(op, **analysis, (*universe)->analyzer()).ok());
  }
  EXPECT_EQ(cache.epoch, first_epoch);
  EXPECT_EQ(cache.timeline.get(), first) << "unchanged epoch must reuse";
}

// --- Satellite regression 2: plan-cache poisoning across clones --------------

// Two CoW clones taken at the same schema version share the base's plan
// cache. If a same-width base ALTER lands between their executions, the
// lazily-staged clone faults in the NEW layout — and must not memoize
// plans under the version both clones still carry, or the stale-layout
// clone hits a plan whose column ordinals belong to the other universe.
TEST(MvccPlanCacheTest, LazyFaultInAfterBaseAlterDoesNotPoisonSharedCache) {
  sql::Database base;
  base.set_exec_engine(sql::ExecEngine::kVm);
  uint64_t c = 0;
  auto exec = [&](sql::Database& db, const std::string& sql) {
    auto r = db.ExecuteSql(sql, ++c);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  exec(base, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)");
  exec(base, "INSERT INTO t (id, a, b) VALUES (1, 10, 20)");

  // Both clones copy the base's schema version; they share its plan cache.
  std::unique_ptr<sql::Database> stale = base.CloneTables({"t"});
  std::unique_ptr<sql::Database> lazy = base.CloneTables({});
  lazy->SetReadFallback(&base, nullptr);

  // Same-width layout change on the base: column `a` moves from ordinal 1
  // to ordinal 2. Width-based staleness checks cannot catch this.
  exec(base, "ALTER TABLE t DROP COLUMN a");
  exec(base, "ALTER TABLE t ADD COLUMN a INT");

  // The lazy clone faults in the post-ALTER layout and compiles the
  // statement first, populating the shared cache.
  exec(*lazy, "UPDATE t SET a = 5 WHERE id = 1");

  // The stale clone executes the same statement against the OLD layout.
  // A stale cache hit would write ordinal 2 — column b in this layout.
  exec(*stale, "UPDATE t SET a = 5 WHERE id = 1");
  auto r = stale->ExecuteSql("SELECT a, b FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 5)
      << "update landed on the wrong column: poisoned plan";
  EXPECT_EQ(r->rows[0][1].AsInt(), 20)
      << "neighbour column clobbered: poisoned plan";
}

// The drift bump must not fire when the base did NOT change: fault-ins
// against an unchanged base keep the inherited version, so warm plans
// stay valid (the perf half of the fix).
TEST(MvccPlanCacheTest, FaultInWithoutBaseDriftKeepsVersion) {
  sql::Database base;
  base.set_exec_engine(sql::ExecEngine::kVm);
  uint64_t c = 0;
  ASSERT_TRUE(base.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)",
                              ++c)
                  .ok());
  ASSERT_TRUE(
      base.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)", ++c).ok());
  std::unique_ptr<sql::Database> lazy = base.CloneTables({});
  lazy->SetReadFallback(&base, nullptr);
  const uint64_t inherited = lazy->schema_version();
  ASSERT_TRUE(
      lazy->ExecuteSql("UPDATE t SET v = 2 WHERE id = 1", ++c).ok());
  EXPECT_EQ(lazy->schema_version(), inherited)
      << "fault-in from an unchanged base must not invalidate warm plans";
}

// --- Shared read fallback (satellite 3) --------------------------------------

// Many staged clones fault in from one base concurrently while readers
// hold the base lock shared. Run under TSan this is the lock-discipline
// proof; under plain builds it is a correctness smoke.
TEST(MvccSharedFallbackTest, ConcurrentFaultInsFromSharedBase) {
  sql::Database base;
  uint64_t c = 0;
  ASSERT_TRUE(base.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)",
                              ++c)
                  .ok());
  for (int i = 1; i <= 64; ++i) {
    ASSERT_TRUE(base.ExecuteSql("INSERT INTO t (id, v) VALUES (" +
                                    std::to_string(i) + ", " +
                                    std::to_string(i) + ")",
                                ++c)
                    .ok());
  }
  std::shared_mutex base_mu;
  constexpr int kClones = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kClones; ++k) {
    threads.emplace_back([&, k] {
      std::unique_ptr<sql::Database> clone = base.CloneTables({});
      clone->SetReadFallback(&base, &base_mu);
      uint64_t local = 10000 + uint64_t(k) * 100;
      auto r = clone->ExecuteSql(
          "UPDATE t SET v = v + 1 WHERE id = " + std::to_string(k + 1),
          ++local);
      if (!r.ok()) ++failures;
      auto s = clone->ExecuteSql(
          "SELECT v FROM t WHERE id = " + std::to_string(k + 1), ++local);
      if (!s.ok() || s->rows.size() != 1 ||
          s->rows[0][0].AsInt() != k + 2) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The base saw only shared readers: nothing changed.
  auto r = base.ExecuteSql("SELECT v FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

// --- Snapshots and the epoch ------------------------------------------------

TEST(MvccSnapshotTest, SnapshotReusedUntilEpochAdvances) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());

  auto s1 = uv.SnapshotHistory();
  ASSERT_TRUE(s1.ok());
  auto s2 = uv.SnapshotHistory();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->get(), s2->get()) << "same epoch must share one snapshot";

  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (2, 2)").ok());
  auto s3 = uv.SnapshotHistory();
  ASSERT_TRUE(s3.ok());
  EXPECT_NE(s3->get(), s1->get());
  EXPECT_GT((*s3)->epoch, (*s1)->epoch);
  EXPECT_EQ((*s3)->horizon, (*s1)->horizon + 1);
  // The old snapshot is frozen: its pinned view never sees the new commit.
  EXPECT_EQ((*s1)->entries.size(), (*s1)->horizon);
}

TEST(MvccSnapshotTest, AnalyzeOnlyLeavesLiveStateUntouched) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  const std::string before = uv.StateFingerprint();
  const uint64_t len_before = uv.log()->last_index();
  const uint64_t epoch_before = uv.history_epoch();

  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  auto a = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kTD);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_FALSE(a->fingerprint.empty());
  EXPECT_NE(a->fingerprint, before)
      << "removing an effective update must change the universe";
  EXPECT_EQ(uv.StateFingerprint(), before);
  EXPECT_EQ(uv.log()->last_index(), len_before);
  EXPECT_EQ(uv.history_epoch(), epoch_before)
      << "analyze-only must not advance the epoch";
}

// Selective and full-naive agree at the same pinned snapshot — the
// single-threaded version of the concurrent oracle's invariant.
TEST(MvccSnapshotTest, SelectiveMatchesFullNaiveAtSameSnapshot) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (" +
                              std::to_string(i) + ", " +
                              std::to_string(i * 10) + ")")
                    .ok());
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = " +
                              std::to_string(1 + i % 3))
                    .ok());
  }
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 4;
  auto sel = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kTD, false);
  auto ref = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kT, true);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(sel->fingerprint, ref->fingerprint);
  EXPECT_EQ(sel->epoch, ref->epoch);
}

// --- Result cache -----------------------------------------------------------

TEST(MvccResultCacheTest, RepeatedQuestionHitsUntilCommitInvalidates) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;

  auto first = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);

  auto second = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit) << "unchanged epoch must be memoized";
  EXPECT_EQ(second->fingerprint, first->fingerprint);
  EXPECT_EQ(second->epoch, first->epoch);
  EXPECT_EQ(second->stats.report.CountFor(obs::TxnVerdict::kResultCacheHit),
            1u)
      << "cached answers must say so in their provenance";

  // A different question at the same epoch is a miss.
  RetroOp other = op;
  other.index = 4;
  auto third = uv.WhatIfAnalyze(other, SystemMode::kTD);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);

  // Any commit advances the epoch: the memoized answer is gone.
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 7 WHERE id = 1").ok());
  auto fourth = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(fourth->cache_hit);
  EXPECT_GT(fourth->epoch, first->epoch);
}

TEST(MvccResultCacheTest, EqualLengthRewriteInvalidatesResults) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  auto first = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(first.ok());

  // History patched in place: same length, different content. Anything
  // keyed by log size would happily serve the pre-rewrite answer.
  const uint64_t len = uv.log()->last_index();
  uv.log()->at_mutable(4).sql = "UPDATE t SET v = v + 100 WHERE id = 1";
  ASSERT_EQ(uv.log()->last_index(), len);

  auto second = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit)
      << "stale result served across an equal-length history rewrite";
  EXPECT_GT(second->epoch, first->epoch);
}

// --- Optimistic publish -----------------------------------------------------

// A commit that lands between snapshot and publish must abort the publish
// (first committer wins) and leave the live database untouched.
TEST(MvccPublishTest, EpochConflictAbortsWithoutMutation) {
  auto universe = oracle::Universe::Build({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 1)",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "UPDATE t SET v = v + 2 WHERE id = 1",
  });
  ASSERT_TRUE(universe.ok());
  auto analysis = (*universe)->Analysis();
  ASSERT_TRUE(analysis.ok());

  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  RetroactiveEngine::Options eopts;
  eopts.deps.column_wise = true;
  eopts.deps.row_wise = true;
  // Pin the epoch, then advance the history before running: the publish
  // point must detect the conflict no matter when the commit landed.
  eopts.snapshot_epoch = (*universe)->log().epoch();
  (*universe)->mutable_log()->BumpEpoch();

  uint64_t c = 1000;
  auto before =
      (*universe)->db()->ExecuteSql("SELECT v FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(before.ok());

  RetroactiveEngine engine((*universe)->db(), (*universe)->mutable_log(), eopts);
  auto stats = engine.Execute(op, **analysis, (*universe)->analyzer());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kAborted)
      << stats.status().ToString();

  auto after =
      (*universe)->db()->ExecuteSql("SELECT v FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), before->rows[0][0].AsInt())
      << "an aborted publish must not touch the live database";
}

TEST(MvccPublishTest, PublishAdvancesEpochAndInvalidatesSnapshots) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  auto pre = uv.SnapshotHistory();
  ASSERT_TRUE(pre.ok());

  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_GT(uv.history_epoch(), (*pre)->epoch)
      << "a published what-if rewrites history: the epoch must advance";
  auto post = uv.SnapshotHistory();
  ASSERT_TRUE(post.ok());
  EXPECT_NE(post->get(), pre->get())
      << "pre-publish snapshot must not be served after the rewrite";
}

// --- Structurally shared snapshots -----------------------------------------

// What a snapshot pins for one log entry, rendered for comparison: the
// statement, its recorded nondeterminism and captured procedure variables.
std::string EntryKey(const sql::LogEntry& e) {
  std::string s = std::to_string(e.index) + "|" + e.sql + "|nondet:";
  for (const auto& v : e.nondet.values) s += v.Encode() + ",";
  for (int64_t id : e.nondet.auto_inc_ids) s += std::to_string(id) + ",";
  s += "|vars:";
  for (const auto& [name, vals] : e.captured_vars) {
    s += name + "=";
    for (const auto& v : vals) s += v.Encode() + ",";
    s += ";";
  }
  return s;
}

std::string RowSetKey(const RowSet& rs) {
  std::string s;
  for (const auto& [col, vals] : rs.cols) {
    s += col + (vals.wildcard ? "*" : "") + "{";
    for (const auto& v : vals.values) s += v + ",";
    s += "}" + vals.region.ToString() + ";";
  }
  return s;
}

std::string AnalysisKey(const QueryRW& rw) {
  std::string s = "rc:";
  for (const auto& c : rw.rc.items) s += c + ",";
  s += "|wc:";
  for (const auto& c : rw.wc.items) s += c + ",";
  s += "|rr:" + RowSetKey(rw.rr) + "|wr:" + RowSetKey(rw.wr) + "|rt:";
  for (const auto& t : rw.read_tables) s += t + ",";
  s += "|wt:";
  for (const auto& t : rw.write_tables) s += t + ",";
  s += rw.is_ddl ? "|ddl" : "";
  s += rw.overwrites ? "|ow" : "";
  return s;
}

std::string FootprintKey(const TableFootprint& fp) {
  std::string s = fp.universal ? "*" : "";
  for (const auto& t : fp.tables) s += t + ",";
  return s;
}

struct SnapshotDump {
  std::vector<std::string> entries, analysis, footprints;
};

SnapshotDump Dump(const HistorySnapshot& snap) {
  SnapshotDump d;
  for (size_t i = 0; i < snap.entries.size(); ++i) {
    d.entries.push_back(EntryKey(snap.entries[i]));
  }
  for (size_t i = 0; i < snap.analysis.size(); ++i) {
    d.analysis.push_back(AnalysisKey(snap.analysis[i]));
  }
  for (size_t i = 0; i < snap.footprints.size(); ++i) {
    d.footprints.push_back(FootprintKey(snap.footprints[i]));
  }
  return d;
}

void ExpectSameDump(const SnapshotDump& got, const SnapshotDump& want) {
  EXPECT_EQ(got.entries, want.entries);
  EXPECT_EQ(got.analysis, want.analysis);
  EXPECT_EQ(got.footprints, want.footprints);
}

// (a) Snapshots taken every 47 commits share chunks with their
// predecessors and extend the last one in place; the final one must equal
// a snapshot built in one go over the same history. TATP in T mode records
// captured procedure variables and alias-RI lookups, so every pinned field
// carries data.
TEST(MvccSharedSnapshotTest, RebuildAfterCommitsEqualsFreshBuild) {
  workload::Driver::Config config;
  config.commit_mode = SystemMode::kT;
  Ultraverse incremental;
  workload::Driver d1(workload::MakeWorkload("tatp", 1), &incremental,
                      config);
  ASSERT_TRUE(d1.Setup().ok());
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(d1.RunHistory(47).ok());
    ASSERT_TRUE(incremental.SnapshotHistory().ok());
  }
  Ultraverse fresh;
  workload::Driver d2(workload::MakeWorkload("tatp", 1), &fresh, config);
  ASSERT_TRUE(d2.Setup().ok());
  ASSERT_TRUE(d2.RunHistory(12 * 47).ok());

  auto inc = incremental.SnapshotHistory();
  auto ref = fresh.SnapshotHistory();
  ASSERT_TRUE(inc.ok() && ref.ok());
  ASSERT_GT((*ref)->horizon, 2 * kHistoryChunkSize)
      << "the history must span several chunks";
  EXPECT_EQ((*inc)->horizon, (*ref)->horizon);
  SnapshotDump got = Dump(**inc);
  ExpectSameDump(got, Dump(**ref));
  bool any_vars = false;
  for (size_t i = 0; i < (*inc)->entries.size(); ++i) {
    any_vars = any_vars || !(*inc)->entries[i].captured_vars.empty();
  }
  EXPECT_TRUE(any_vars) << "T-mode TATP commits capture procedure variables";
}

// A 300-entry history on one keyed table: spans two chunks.
void CommitKeyedHistory(Ultraverse* uv, int updates) {
  ASSERT_TRUE(
      uv->ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(uv->ExecuteSql("INSERT INTO t (id, v) VALUES (" +
                               std::to_string(i) + ", 0)")
                    .ok());
  }
  for (int i = 0; i < updates; ++i) {
    ASSERT_TRUE(uv->ExecuteSql("UPDATE t SET v = v + 1 WHERE id = " +
                               std::to_string(1 + i % 20))
                    .ok());
  }
}

// The live history rendered like a snapshot, analyzed from scratch.
SnapshotDump LiveDump(Ultraverse* uv) {
  SnapshotDump d;
  for (const auto& e : uv->log()->entries()) d.entries.push_back(EntryKey(e));
  auto analysis = uv->EnsureAnalysis();
  EXPECT_TRUE(analysis.ok());
  for (const auto& rw : **analysis) {
    d.analysis.push_back(AnalysisKey(rw));
    d.footprints.push_back(FootprintKey(FootprintOf(rw)));
  }
  return d;
}

// (b) A snapshot pinned before a publish that shifts the suffix keeps its
// history bit for bit; the next snapshot sees the rewritten history.
TEST(MvccSharedSnapshotTest, PinnedSnapshotSurvivesSuffixShiftingPublishes) {
  Ultraverse uv;
  CommitKeyedHistory(&uv, 280);
  for (RetroOp::Kind kind : {RetroOp::Kind::kRemove, RetroOp::Kind::kAdd}) {
    auto pinned = uv.SnapshotHistory();
    ASSERT_TRUE(pinned.ok());
    const SnapshotDump before = Dump(**pinned);
    ASSERT_EQ(before.entries.size(), uv.log()->size());

    auto op = uv.MakeOp(kind, 270, kind == RetroOp::Kind::kAdd
                                       ? "UPDATE t SET v = v + 9 WHERE id = 3"
                                       : "");
    ASSERT_TRUE(op.ok());
    auto stats = uv.WhatIf(*op, SystemMode::kTD);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    ExpectSameDump(Dump(**pinned), before);
    auto next = uv.SnapshotHistory();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ((*next)->horizon,
              before.entries.size() + (kind == RetroOp::Kind::kAdd ? 1 : -1));
    SnapshotDump after = Dump(**next);
    ExpectSameDump(after, LiveDump(&uv));
    EXPECT_NE(after.entries, before.entries);
  }
}

// (b) An RI merge re-canonicalizes every analyzed entry: the pinned
// snapshot keeps the old canonical sets, the next one has the new ones.
TEST(MvccSharedSnapshotTest, PinnedSnapshotSurvivesRecanonicalization) {
  Ultraverse uv;
  CommitKeyedHistory(&uv, 280);
  auto pinned = uv.SnapshotHistory();
  ASSERT_TRUE(pinned.ok());
  const SnapshotDump before = Dump(**pinned);

  // UPDATE SET id = v2 WHERE id = v1 merges RI values 1 and 1000 (§4.3).
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET id = 1000 WHERE id = 1").ok());
  auto next = uv.SnapshotHistory();
  ASSERT_TRUE(next.ok());

  ExpectSameDump(Dump(**pinned), before);
  SnapshotDump after = Dump(**next);
  ExpectSameDump(after, LiveDump(&uv));
  // Entry 2 inserted row 1, whose canonical key is now shared with 1000.
  EXPECT_NE(after.analysis[1], before.analysis[1]);
}

// (c) Rebuilding after k commits copies O(k) history elements, not
// O(history): one log entry, one analysis record and one footprint each.
TEST(MvccSharedSnapshotTest, RebuildCopiesOnlyNewEntries) {
  obs::Counter* copied =
      obs::Registry::Global().counter("uv.whatif.snapshot.copied_entries");
  Ultraverse uv;
  CommitKeyedHistory(&uv, 4000);
  const uint64_t c0 = copied->Value();
  ASSERT_TRUE(uv.SnapshotHistory().ok());
  const uint64_t first_build = copied->Value() - c0;
  EXPECT_GE(first_build, 3 * uv.log()->size()) << "a first build copies all";

  for (int k : {1, 10, 300}) {
    for (int i = 0; i < k; ++i) {
      ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v - 1 WHERE id = " +
                                std::to_string(1 + i % 20))
                      .ok());
    }
    const uint64_t c1 = copied->Value();
    auto snap = uv.SnapshotHistory();
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(copied->Value() - c1, 3u * k) << "after " << k << " commits";
    EXPECT_EQ((*snap)->horizon, uv.log()->size());
  }
  auto last = uv.SnapshotHistory();
  ASSERT_TRUE(last.ok());
  ExpectSameDump(Dump(**last), LiveDump(&uv));
}

// --- Concurrent end-to-end oracle (satellite 4) ------------------------------

// N analyst threads race N writer threads; every pinned snapshot's
// selective analysis must fingerprint-match the full-naive reference
// computed at the same snapshot, and publishes must land or abort cleanly.
TEST(MvccConcurrentTest, AnalysesMatchOracleUnderCommitTraffic) {
  oracle::ConcurrentFuzzOptions options;
  options.seed = 42;
  options.writer_threads = 2;
  options.analyst_threads = 4;
  options.commits_per_writer = 24;
  options.analyses_per_analyst = 6;
  auto report = oracle::ConcurrentFuzz(options);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_EQ(report.divergences, 0u);
  EXPECT_EQ(report.commits, 2u * 24u);
  EXPECT_GT(report.analyses, 0u);
  EXPECT_GT(report.snapshots_pinned, 1u)
      << "analysts should observe the history advancing";
}

}  // namespace
}  // namespace ultraverse::core
