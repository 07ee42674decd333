// Symbolic predicate regions (DESIGN.md §15): the abstract domain itself,
// extraction parity between the dynamic and static walks, row-granularity
// soundness (dynamic view ⊆ static view), the planner's predicate
// pre-filter tier, the scheduler's region refutation, the predicate-aware
// conflict matrix, and the shard advisor.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/conflict_matrix.h"
#include "analysis/shard_advisor.h"
#include "analysis/soundness.h"
#include "analysis/static_rw.h"
#include "core/dep_graph.h"
#include "core/predicate.h"
#include "core/rw_sets.h"
#include "core/txn_scheduler.h"
#include "obs/explain.h"
#include "oracle/fuzzer.h"
#include "oracle/oracle.h"
#include "sqldb/parser.h"
#include "sqldb/value.h"
#include "util/rng.h"

namespace ultraverse::analysis {
namespace {

using core::PlanExclusion;
using core::QueryRW;
using core::RowSet;
using core::ValueInterval;
using core::ValueRegion;
using oracle::GenerateCase;
using oracle::Universe;
using oracle::WhatIfCase;
using sql::Parser;
using sql::StatementPtr;
using sql::Value;

StatementPtr Parse(const std::string& sql) {
  auto r = Parser::ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return *r;
}

ValueInterval Iv(std::optional<Value> lo, bool lo_incl, std::optional<Value> hi,
                 bool hi_incl) {
  ValueInterval iv;
  iv.lo = std::move(lo);
  iv.lo_incl = lo_incl;
  iv.hi = std::move(hi);
  iv.hi_incl = hi_incl;
  return iv;
}

// --- the abstract domain -----------------------------------------------------

TEST(ValueRegionTest, PointMeetAndMembership) {
  ValueRegion a = ValueRegion::OfPoints(
      {Value::Int(1).Encode(), Value::Int(2).Encode()});
  ValueRegion b = ValueRegion::OfPoints(
      {Value::Int(2).Encode(), Value::Int(3).Encode()});
  ValueRegion m = a.MeetWith(b);
  EXPECT_FALSE(m.IsEmptySet());
  EXPECT_TRUE(m.Contains(Value::Int(2)));
  EXPECT_FALSE(m.Contains(Value::Int(1)));
  EXPECT_TRUE(a.Intersects(b));
  ValueRegion c = ValueRegion::OfPoints({Value::Int(9).Encode()});
  EXPECT_FALSE(a.Intersects(c));
}

TEST(ValueRegionTest, IntervalMeetClipsBounds) {
  ValueRegion a = ValueRegion::OfInterval(
      Iv(Value::Int(1), true, Value::Int(10), false));  // [1, 10)
  ValueRegion b = ValueRegion::OfInterval(
      Iv(Value::Int(5), false, Value::Int(20), true));  // (5, 20]
  ValueRegion m = a.MeetWith(b);  // (5, 10)
  EXPECT_TRUE(m.Contains(Value::Int(7)));
  EXPECT_FALSE(m.Contains(Value::Int(5)));
  EXPECT_FALSE(m.Contains(Value::Int(10)));
  ValueRegion far = ValueRegion::OfInterval(
      Iv(Value::Int(50), true, std::nullopt, false));  // [50, +inf)
  EXPECT_FALSE(a.Intersects(far));
}

TEST(ValueRegionTest, TopAndEmptyAlgebra) {
  ValueRegion top = ValueRegion::Top();
  ValueRegion empty = ValueRegion::EmptySet();
  ValueRegion pts = ValueRegion::OfPoints({Value::Int(4).Encode()});
  EXPECT_TRUE(top.Intersects(pts));
  EXPECT_TRUE(top.Contains(Value::String("x")));
  // The empty set beats ⊤: nothing was touched, so nothing intersects.
  EXPECT_FALSE(empty.Intersects(top));
  EXPECT_FALSE(top.Intersects(empty));
  // Meet with ⊤ is identity.
  ValueRegion m = pts.MeetWith(top);
  EXPECT_TRUE(m.Contains(Value::Int(4)));
  EXPECT_FALSE(m.IsTop());
  // AddPoint on ⊤ stays ⊤ (it already contains the point).
  top.AddPoint(Value::Int(1).Encode());
  EXPECT_TRUE(top.IsTop());
}

TEST(ValueRegionTest, ContainedInIsConservativeButSoundOnAlignedShapes) {
  ValueRegion pts = ValueRegion::OfPoints(
      {Value::Int(3).Encode(), Value::Int(4).Encode()});
  ValueRegion cover = ValueRegion::OfInterval(
      Iv(Value::Int(0), true, Value::Int(10), true));
  EXPECT_TRUE(pts.ContainedIn(cover));
  EXPECT_TRUE(pts.ContainedIn(ValueRegion::Top()));
  EXPECT_FALSE(ValueRegion::Top().ContainedIn(pts));
  EXPECT_FALSE(cover.ContainedIn(pts));
  // An interval must fit under a *single* interval of the cover.
  ValueRegion wide = ValueRegion::OfInterval(
      Iv(Value::Int(2), true, Value::Int(8), true));
  EXPECT_TRUE(wide.ContainedIn(cover));
  EXPECT_FALSE(cover.ContainedIn(wide));
  // The empty set is contained in everything.
  EXPECT_TRUE(ValueRegion::EmptySet().ContainedIn(pts));
}

TEST(ValueRegionTest, NullOrdersBelowEveryValue) {
  // Value::Compare total order: NULL < bool < numeric < string. A range
  // like `id < NULL` therefore selects nothing real — the region
  // (-inf, NULL) must not claim integers.
  ValueInterval below_null = Iv(std::nullopt, false, Value::Null(), false);
  EXPECT_FALSE(below_null.Contains(Value::Int(5)));
  EXPECT_FALSE(below_null.Contains(Value::Null()));
  ValueInterval from_null = Iv(Value::Null(), true, std::nullopt, false);
  EXPECT_TRUE(from_null.Contains(Value::Null()));
  EXPECT_TRUE(from_null.Contains(Value::Int(5)));
  EXPECT_TRUE(from_null.Contains(Value::String("z")));
}

TEST(ValueDecodeTest, RoundTripsEveryType) {
  for (const Value& v :
       {Value::Null(), Value::Bool(true), Value::Int(-42),
        Value::Int(int64_t(1) << 60), Value::Double(2.5),
        Value::String("hello|world")}) {
    Value out;
    ASSERT_TRUE(Value::Decode(v.Encode(), &out)) << v.ToDisplayString();
    EXPECT_TRUE(out.Equals(v)) << v.ToDisplayString();
  }
  Value out;
  EXPECT_FALSE(Value::Decode("", &out));
  EXPECT_FALSE(Value::Decode("Zjunk|", &out));
}

// --- extraction: static walk -------------------------------------------------

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

const char* kTableT = "CREATE TABLE t (id INT PRIMARY KEY, v INT)";

TEST(RegionExtractionTest, StaticRangePredicateBecomesTypedInterval) {
  StaticSummary sum =
      SummarizeAfter({kTableT, "UPDATE t SET v = 1 WHERE id < 10"});
  const auto& vals = sum.rw.wr.cols.at("t.id");
  // Classic RI extraction cannot express a range: wildcard. The region can.
  EXPECT_TRUE(vals.wildcard);
  ValueRegion view = RowSet::TypedRegionOf(vals);
  EXPECT_FALSE(view.IsTop());
  EXPECT_TRUE(view.Contains(Value::Int(9)));
  EXPECT_FALSE(view.Contains(Value::Int(10)));
  EXPECT_FALSE(view.Contains(Value::Int(11)));
}

TEST(RegionExtractionTest, StaticBetweenDesugarsToClosedInterval) {
  StaticSummary sum =
      SummarizeAfter({kTableT, "DELETE FROM t WHERE id BETWEEN 3 AND 5"});
  ValueRegion view = RowSet::TypedRegionOf(sum.rw.wr.cols.at("t.id"));
  EXPECT_TRUE(view.Contains(Value::Int(3)));
  EXPECT_TRUE(view.Contains(Value::Int(5)));
  EXPECT_FALSE(view.Contains(Value::Int(2)));
  EXPECT_FALSE(view.Contains(Value::Int(6)));
}

TEST(RegionExtractionTest, StaticOrJoinsAndAndMeets) {
  StaticSummary sum = SummarizeAfter(
      {kTableT, "DELETE FROM t WHERE id = 1 OR id > 100"});
  ValueRegion view = RowSet::TypedRegionOf(sum.rw.wr.cols.at("t.id"));
  EXPECT_TRUE(view.Contains(Value::Int(1)));
  EXPECT_TRUE(view.Contains(Value::Int(101)));
  EXPECT_FALSE(view.Contains(Value::Int(50)));

  StaticSummary conj = SummarizeAfter(
      {kTableT, "DELETE FROM t WHERE id = 5 AND id < 10"});
  ValueRegion cview = RowSet::TypedRegionOf(conj.rw.wr.cols.at("t.id"));
  EXPECT_TRUE(cview.Contains(Value::Int(5)));
  EXPECT_FALSE(cview.Contains(Value::Int(7)));
}

TEST(RegionExtractionTest, WideningSitesDegradeToTop) {
  // Procedure parameters are unknown statically (the wildcarded all-paths
  // summary), and nondeterministic builtins are unknown everywhere.
  StaticAnalyzer analyzer;
  for (const char* sql :
       {kTableT,
        "CREATE PROCEDURE p (IN x INT) BEGIN "
        "UPDATE t SET v = 0 WHERE id = x; END"}) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  auto proc = analyzer.ProcedureSummary("p");
  ASSERT_TRUE(proc.ok());
  EXPECT_TRUE(
      RowSet::TypedRegionOf((*proc)->rw.wr.cols.at("t.id")).IsTop());

  StaticSummary nondet =
      SummarizeAfter({kTableT, "DELETE FROM t WHERE id = RAND()"});
  EXPECT_TRUE(
      RowSet::TypedRegionOf(nondet.rw.wr.cols.at("t.id")).IsTop());
}

// --- extraction: dynamic walk + soundness ------------------------------------

class DynamicRegionTest : public ::testing::Test {
 protected:
  QueryRW Analyze(const std::string& sql_text) {
    sql::LogEntry entry;
    entry.stmt = Parse(sql_text);
    entry.sql = sql_text;
    auto rw = analyzer_.AnalyzeEntry(entry);
    EXPECT_TRUE(rw.ok()) << sql_text << ": " << rw.status().ToString();
    return rw.ok() ? *rw : QueryRW{};
  }

  core::QueryAnalyzer analyzer_;
};

TEST_F(DynamicRegionTest, RangePredicateCarriesTypedRegion) {
  Analyze(kTableT);
  QueryRW rw = Analyze("DELETE FROM t WHERE id > 3 AND id < 7");
  ValueRegion view = RowSet::TypedRegionOf(rw.wr.cols.at("t.id"));
  EXPECT_TRUE(view.Contains(Value::Int(5)));
  EXPECT_FALSE(view.Contains(Value::Int(3)));
  EXPECT_FALSE(view.Contains(Value::Int(7)));
}

TEST_F(DynamicRegionTest, ResolvedVariableMeetsRangeToEmpty) {
  // The mixed-case hazard: the dynamic side resolves the variable to 50,
  // the range conjunct says id < 10 — the statement touches no row, and
  // the effective view must say so (not claim {50}).
  Analyze(kTableT);
  Analyze(
      "CREATE PROCEDURE p (IN x INT) BEGIN "
      "UPDATE t SET v = 0 WHERE id = x AND id < 10; END");
  QueryRW rw = Analyze("CALL p(50)");
  ValueRegion view = RowSet::TypedRegionOf(rw.wr.cols.at("t.id"));
  EXPECT_TRUE(view.IsEmptySet());
}

TEST(RegionSoundnessTest, DynamicViewContainedInStaticView) {
  // SoundnessChecker now enforces dyn-region ⊆ stat-region per row key;
  // these histories hit every widening site (variables, ranges, aliases,
  // merges) and must stay breach-free.
  core::QueryAnalyzer analyzer;
  SoundnessChecker checker(&analyzer);
  uint64_t index = 1;
  for (const char* sql : {
           kTableT,
           "INSERT INTO t VALUES (1, 10)",
           "INSERT INTO t VALUES (50, 500)",
           "UPDATE t SET v = 1 WHERE id < 10",
           "DELETE FROM t WHERE id BETWEEN 40 AND 60",
           "CREATE PROCEDURE p (IN x INT) BEGIN "
           "UPDATE t SET v = 0 WHERE id = x AND id < 10; END",
           "CALL p(50)",
           "CALL p(1)",
           "UPDATE t SET id = 2 WHERE id = 1",
           "UPDATE t SET v = 7 WHERE id = 2",
       }) {
    sql::LogEntry entry;
    entry.index = index++;
    entry.stmt = Parse(sql);
    entry.sql = sql;
    ASSERT_TRUE(analyzer.AnalyzeEntry(entry).ok()) << sql;
  }
  for (const auto& violation : checker.violations()) {
    ADD_FAILURE() << "containment breach: " << violation.detail << " in "
                  << violation.sql;
  }
  EXPECT_GT(checker.statements_checked(), 0u);
}

TEST(RegionSoundnessTest, FuzzedHistoriesStayContained) {
  for (uint64_t n = 0; n < 25; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/99, n);
    auto violations = oracle::CheckStaticContainment(c.history);
    ASSERT_TRUE(violations.ok()) << violations.status().ToString();
    for (const auto& v : *violations) {
      ADD_FAILURE() << "case " << n << ": " << v;
    }
  }
}

// --- RowSet embedding: joins, canonicalization -------------------------------

TEST(RowSetRegionTest, ContributionJoinAndRegionIntersects) {
  RowSet a;
  a.AddConstrained("t.id", std::set<std::string>{Value::Int(1).Encode()},
                   ValueRegion::OfPoints({Value::Int(1).Encode()}));
  RowSet b;
  b.AddConstrained(
      "t.id", std::nullopt,
      ValueRegion::OfInterval(Iv(Value::Int(5), true, std::nullopt, false)));
  EXPECT_FALSE(a.RegionIntersects(b));
  // Joining a second contribution widens the entry's view.
  b.AddConstrained("t.id", std::nullopt,
                   ValueRegion::OfPoints({Value::Int(1).Encode()}));
  EXPECT_TRUE(a.RegionIntersects(b));
  // Disjoint keys never intersect regardless of regions.
  RowSet other;
  other.AddConstrained("u.id", std::nullopt, ValueRegion::Top());
  EXPECT_FALSE(a.RegionIntersects(other));
}

TEST(RowSetRegionTest, LegacyProducersStaySound) {
  RowSet legacy;
  legacy.AddValue("t.id", Value::Int(3).Encode());
  ValueRegion view = RowSet::TypedRegionOf(legacy.cols.at("t.id"));
  EXPECT_TRUE(view.Contains(Value::Int(3)));
  EXPECT_FALSE(view.Contains(Value::Int(4)));
  legacy.AddWildcard("t.id");
  EXPECT_TRUE(RowSet::TypedRegionOf(legacy.cols.at("t.id")).IsTop());
}

// --- probe-based intersection vs the materialized reference -----------------

// The materialized decision RowSet::RegionIntersects and
// ValueRegion::Intersects used to make: build each side's typed view, meet
// them, and test the meet for emptiness (with the ∅/⊤ short-cuts). Kept
// here as the reference the allocation-free probes must agree with.
bool ReferenceIntersects(const ValueRegion& a, const ValueRegion& b) {
  if (a.IsEmptySet() || b.IsEmptySet()) return false;
  if (a.IsTop() || b.IsTop()) return true;
  return !a.MeetWith(b).IsEmptySet();
}

ValueRegion ReferenceView(const RowSet::Vals& v) {
  if (v.wildcard) return v.region;
  return ValueRegion::OfPoints(v.values).MeetWith(v.region);
}

bool ReferenceRowSetIntersects(const RowSet& a, const RowSet& b) {
  for (const auto& [col, vals] : a.cols) {
    auto it = b.cols.find(col);
    if (it == b.cols.end()) continue;
    if (ReferenceIntersects(ReferenceView(vals), ReferenceView(it->second))) {
      return true;
    }
  }
  return false;
}

// Mixed Int/Double/String/NULL values; Int(3) and Double(3.0) share one
// canonical encoding but stay distinct as interval bounds.
Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 5)) {
    case 0: return Value::Null();
    case 1: return Value::String(rng->Bernoulli(0.5) ? "a" : "b");
    case 2: return Value::Double(double(rng->UniformInt(0, 6)) + 0.5);
    case 3: return Value::Double(double(rng->UniformInt(0, 6)));
    default: return Value::Int(rng->UniformInt(0, 6));
  }
}

// An encoding Value::Decode rejects: members of every non-empty interval
// set by ContainsEncoded's conservative rule.
const char kUndecodable[] = "Zjunk";

std::string RandomEncoding(Rng* rng) {
  if (rng->Bernoulli(0.08)) return kUndecodable;
  return RandomValue(rng).Encode();
}

ValueRegion RandomRegion(Rng* rng) {
  const int64_t shape = rng->UniformInt(0, 9);
  if (shape == 0) return ValueRegion::Top();
  if (shape == 1) return ValueRegion::EmptySet();
  ValueRegion r = ValueRegion::EmptySet();
  for (int64_t i = rng->UniformInt(0, 3); i > 0; --i) {
    r.points.insert(RandomEncoding(rng));
  }
  for (int64_t i = rng->UniformInt(0, 2); i > 0; --i) {
    ValueInterval iv;
    if (rng->Bernoulli(0.8)) iv.lo = RandomValue(rng);
    if (rng->Bernoulli(0.8)) iv.hi = RandomValue(rng);
    iv.lo_incl = rng->Bernoulli(0.5);
    iv.hi_incl = rng->Bernoulli(0.5);
    r.intervals.push_back(std::move(iv));
  }
  return r;
}

RowSet::Vals RandomVals(Rng* rng) {
  RowSet::Vals v;
  v.wildcard = rng->Bernoulli(0.35);
  if (!v.wildcard) {
    for (int64_t i = rng->UniformInt(0, 4); i > 0; --i) {
      v.values.insert(RandomEncoding(rng));
    }
  }
  v.region = RandomRegion(rng);
  return v;
}

RowSet RandomRowSet(Rng* rng) {
  RowSet rs;
  if (rng->Bernoulli(0.85)) rs.cols["t.id"] = RandomVals(rng);
  if (rng->Bernoulli(0.3)) rs.cols["u.id"] = RandomVals(rng);
  return rs;
}

TEST(RegionProbeTest, ValueRegionIntersectsMatchesMaterializedMeet) {
  Rng rng(20261017);
  int hits = 0;
  for (int n = 0; n < 20000; ++n) {
    ValueRegion a = RandomRegion(&rng);
    ValueRegion b = RandomRegion(&rng);
    const bool want = ReferenceIntersects(a, b);
    ASSERT_EQ(a.Intersects(b), want)
        << "case " << n << ": " << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(b.Intersects(a), want) << "case " << n << " (swapped)";
    hits += want;
  }
  // Both answers must be well represented for the agreement to mean much.
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 18000);
}

TEST(RegionProbeTest, RowSetRegionIntersectsMatchesMaterializedViews) {
  Rng rng(7);
  int hits = 0, wild_pairs = 0, point_pairs = 0, mixed_pairs = 0;
  for (int n = 0; n < 20000; ++n) {
    RowSet a = RandomRowSet(&rng);
    RowSet b = RandomRowSet(&rng);
    const bool want = ReferenceRowSetIntersects(a, b);
    ASSERT_EQ(a.RegionIntersects(b), want) << "case " << n;
    ASSERT_EQ(b.RegionIntersects(a), want) << "case " << n << " (swapped)";
    hits += want;
    auto ia = a.cols.find("t.id");
    auto ib = b.cols.find("t.id");
    if (ia != a.cols.end() && ib != b.cols.end()) {
      const int wild = int(ia->second.wildcard) + int(ib->second.wildcard);
      wild_pairs += wild == 2;
      point_pairs += wild == 0;
      mixed_pairs += wild == 1;
    }
    // The materialized view itself is unchanged too.
    for (const auto& [col, vals] : a.cols) {
      EXPECT_EQ(RowSet::TypedRegionOf(vals).ToString(),
                ReferenceView(vals).ToString());
    }
  }
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 18000);
  EXPECT_GT(wild_pairs, 1000);
  EXPECT_GT(point_pairs, 1000);
  EXPECT_GT(mixed_pairs, 1000);
}

TEST_F(DynamicRegionTest, CanonicalizationClosesRegionsOverMergedValues) {
  Analyze(kTableT);
  Analyze("INSERT INTO t VALUES (1, 10)");
  Analyze("UPDATE t SET id = 2 WHERE id = 1");  // 1 and 2 now merge
  QueryRW before = Analyze("UPDATE t SET v = 7 WHERE id = 1");
  QueryRW after = Analyze("UPDATE t SET v = 8 WHERE id = 2");
  analyzer_.CanonicalizeRowSets(&before);
  analyzer_.CanonicalizeRowSets(&after);
  // Regression: canonical values must be real encodings, never collapsed
  // to the empty string by mis-splitting the union-find key.
  for (const auto& v : before.wr.cols.at("t.id").values) {
    EXPECT_FALSE(v.empty());
    Value decoded;
    EXPECT_TRUE(Value::Decode(v, &decoded));
  }
  // Region closure: both statements address the same physical row.
  EXPECT_TRUE(before.wr.RegionIntersects(after.wr));
}

// --- planner: the predicate pre-filter tier ----------------------------------

const std::vector<std::string> kRangeHistory = {
    "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
    "INSERT INTO t VALUES (1, 10)",
    "INSERT INTO t VALUES (7, 70)",
    "UPDATE t SET v = 11 WHERE id = 1",    // 4: retro target
    "UPDATE t SET v = 71 WHERE id >= 5",   // 5: range, disjoint from {1}
    "UPDATE t SET v = 12 WHERE id < 5",    // 6: range, overlaps {1}
};

TEST(PredicatePrefilterTest, RangeDisjointSuffixIsPrunedWithEvidence) {
  auto universe = Universe::Build(kRangeHistory);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  auto analysis = (*universe)->Analysis();
  ASSERT_TRUE(analysis.ok());
  const QueryRW& target_rw = (**analysis)[3];

  core::DependencyOptions with;
  with.record_exclusions = true;
  core::ReplayPlan on = core::ComputeReplayPlan(
      **analysis, 4, target_rw, /*target_occupies_slot=*/true, with);
  core::DependencyOptions without = with;
  without.predicate_filter = false;
  core::ReplayPlan off = core::ComputeReplayPlan(
      **analysis, 4, target_rw, /*target_occupies_slot=*/true, without);

  // Classic row-wise analysis sees ranges as wildcards, so only the
  // predicate tier can prune statement 5; statement 6 overlaps {1} and
  // must replay under both.
  EXPECT_EQ(on.replay_indices, (std::vector<uint64_t>{6}));
  EXPECT_EQ(off.replay_indices, (std::vector<uint64_t>{5, 6}));

  ASSERT_EQ(on.exclusions_base, 4u);
  ASSERT_GE(on.exclusions.size(), 3u);
  EXPECT_EQ(on.exclusions[5 - on.exclusions_base],
            PlanExclusion::kPredicateDisjoint);
  ASSERT_EQ(on.exclusion_detail.size(), on.exclusions.size());
  EXPECT_FALSE(on.exclusion_detail[5 - on.exclusions_base].empty());
  EXPECT_EQ(on.exclusions[6 - on.exclusions_base], PlanExclusion::kMember);
}

TEST(PredicatePrefilterTest, GivesColumnOnlyPassRowPower) {
  auto universe = Universe::Build({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t VALUES (1, 10)",
      "INSERT INTO t VALUES (2, 20)",
      "UPDATE t SET v = 11 WHERE id = 1",  // 4: target
      "UPDATE t SET v = 21 WHERE id = 2",  // 5: equality-disjoint
  });
  ASSERT_TRUE(universe.ok());
  auto analysis = (*universe)->Analysis();
  ASSERT_TRUE(analysis.ok());
  core::DependencyOptions options;
  options.row_wise = false;  // column granularity only
  core::ReplayPlan on = core::ComputeReplayPlan(
      **analysis, 4, (**analysis)[3], /*target_occupies_slot=*/true, options);
  options.predicate_filter = false;
  core::ReplayPlan off = core::ComputeReplayPlan(
      **analysis, 4, (**analysis)[3], /*target_occupies_slot=*/true, options);
  EXPECT_TRUE(on.replay_indices.empty());
  EXPECT_EQ(off.replay_indices, (std::vector<uint64_t>{5}));
}

TEST(PredicatePrefilterTest, PrunedPlansOnlyShrinkAndOracleAgrees) {
  // The tier may only remove replay work, never add it; and the rewritten
  // state must still match the full-naive reference (the tier is on by
  // default in every engine config).
  for (uint64_t n = 0; n < 10; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/4242, n);
    auto universe = Universe::Build(c.history);
    ASSERT_TRUE(universe.ok());
    auto analysis = (*universe)->Analysis();
    ASSERT_TRUE(analysis.ok());
    uint64_t target =
        c.index >= 1 && c.index <= (*analysis)->size() ? c.index : 1;
    core::DependencyOptions options;
    core::ReplayPlan on = core::ComputeReplayPlan(
        **analysis, target, (**analysis)[target - 1], true, options);
    options.predicate_filter = false;
    core::ReplayPlan off = core::ComputeReplayPlan(
        **analysis, target, (**analysis)[target - 1], true, options);
    std::set<uint64_t> off_set(off.replay_indices.begin(),
                               off.replay_indices.end());
    for (uint64_t idx : on.replay_indices) {
      EXPECT_TRUE(off_set.count(idx))
          << "case " << n << ": predicate tier added index " << idx;
    }
  }
  WhatIfCase hand;
  hand.history = kRangeHistory;
  hand.kind = core::RetroOp::Kind::kRemove;
  hand.index = 4;
  auto result =
      oracle::CheckCaseAllModes(hand, oracle::StandardModeConfigs());
  EXPECT_TRUE(result.ok) << result.mode << ": " << result.error
                         << result.diff.ToString();
}

TEST(PredicatePrefilterTest, VerdictNameRoundTrips) {
  EXPECT_STREQ(
      obs::TxnVerdictName(obs::TxnVerdict::kPrunedPredicateDisjoint),
      "pruned-predicate-disjoint");
  auto parsed = obs::TxnVerdictFromName("pruned-predicate-disjoint");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, obs::TxnVerdict::kPrunedPredicateDisjoint);
  EXPECT_TRUE(obs::VerdictIsPrune(obs::TxnVerdict::kPrunedPredicateDisjoint));
}

// --- scheduler: region refutation --------------------------------------------

TEST(SchedulerPredicateTest, EqualityDisjointUpdatesPrefilter) {
  sql::Database db;
  core::QueryAnalyzer analyzer;
  uint64_t commit = 1;
  for (const char* sql :
       {kTableT, "INSERT INTO t VALUES (1, 10)",
        "INSERT INTO t VALUES (2, 20)"}) {
    StatementPtr stmt = *Parser::ParseStatement(sql);
    sql::ExecContext ctx;
    ASSERT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
    sql::LogEntry entry;
    entry.index = commit++;
    entry.stmt = stmt;
    ASSERT_TRUE(analyzer.AnalyzeEntry(entry).ok());
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
      *Parser::ParseStatement("UPDATE t SET v = 11 WHERE id = 1"),
      *Parser::ParseStatement("UPDATE t SET v = 21 WHERE id = 2"),
  };
  auto stats = scheduler.ExecuteBatch(batch, commit);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Same table, column-conflicting — only the predicate tier can prove the
  // pair row-disjoint and skip both dynamic analyses.
  EXPECT_EQ(stats->prefiltered, 2u);
  EXPECT_GE(stats->predicate_refuted, 1u);
  for (const auto& [id, want] : std::vector<std::pair<int, std::string>>{
           {1, "11"}, {2, "21"}}) {
    sql::ExecContext ctx;
    auto r = db.Execute(**Parser::ParseStatement(
                            "SELECT v FROM t WHERE id = " +
                            std::to_string(id)),
                        commit + 100, &ctx);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->rows.empty());
    EXPECT_EQ(r->rows[0][0].ToDisplayString(), want);
  }
}

TEST(SchedulerPredicateTest, SameKeyUpdatesDoNotPrefilter) {
  sql::Database db;
  core::QueryAnalyzer analyzer;
  uint64_t commit = 1;
  for (const char* sql : {kTableT, "INSERT INTO t VALUES (1, 10)"}) {
    StatementPtr stmt = *Parser::ParseStatement(sql);
    sql::ExecContext ctx;
    ASSERT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
    sql::LogEntry entry;
    entry.index = commit++;
    entry.stmt = stmt;
    ASSERT_TRUE(analyzer.AnalyzeEntry(entry).ok());
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
      *Parser::ParseStatement("UPDATE t SET v = v + 1 WHERE id = 1"),
      *Parser::ParseStatement("UPDATE t SET v = v * 2 WHERE id = 1"),
  };
  auto stats = scheduler.ExecuteBatch(batch, commit);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->prefiltered, 0u);
  sql::ExecContext ctx;
  auto r = db.Execute(**Parser::ParseStatement("SELECT v FROM t WHERE id = 1"),
                      commit + 100, &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->rows.empty());
  EXPECT_EQ(r->rows[0][0].ToDisplayString(), "22");  // (10+1)*2, serial order
}

// --- conflict matrix: '~' cells ----------------------------------------------

TEST(PredicateMatrixTest, ConstantKeyProceduresAreRefutedNotConflicting) {
  StaticAnalyzer analyzer;
  for (const char* sql :
       {kTableT,
        "CREATE PROCEDURE pa () BEGIN UPDATE t SET v = 1 WHERE id = 1; END",
        "CREATE PROCEDURE pb () BEGIN UPDATE t SET v = 2 WHERE id = 2; END",
        "CREATE PROCEDURE pw (IN x INT) BEGIN "
        "UPDATE t SET v = 3 WHERE id = x; END"}) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  auto matrix = BuildConflictMatrix(&analyzer);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  // Columns overlap (t.v writes), rows provably disjoint ({1} vs {2}).
  EXPECT_EQ(matrix->CellAt("pa", "pb"), ConflictCell::kPredicateRefuted);
  EXPECT_FALSE(matrix->At("pa", "pb"));
  // The wildcarded-parameter procedure conflicts with both.
  EXPECT_EQ(matrix->CellAt("pa", "pw"), ConflictCell::kMayConflict);
  EXPECT_TRUE(matrix->At("pa", "pw"));
  // Refuted cells render distinctly.
  EXPECT_NE(matrix->ToString().find('~'), std::string::npos);
}

// --- shard advisor -----------------------------------------------------------

TEST(ShardAdvisorTest, EqualityKeyedTableIsPartitionableWithBoundaries) {
  std::vector<StatementPtr> statements;
  for (const char* sql :
       {"CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE u (id INT PRIMARY KEY, v INT)",
        "UPDATE t SET v = 1 WHERE id = 1",
        "UPDATE t SET v = 2 WHERE id = 10",
        "UPDATE t SET v = 3 WHERE id = 20",
        "UPDATE t SET v = 4 WHERE id = 30",
        "UPDATE u SET v = v + 1",
        "UPDATE u SET v = v + 2"}) {
    statements.push_back(Parse(sql));
  }
  auto advice = AdviseSharding(statements, /*shards=*/2);
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  // t and u are never co-accessed: two colocation groups.
  ASSERT_EQ(advice->groups.size(), 2u);
  const ShardAdvice::TableSplit* t_split = nullptr;
  const ShardAdvice::TableSplit* u_split = nullptr;
  for (const auto& s : advice->splits) {
    if (s.table == "t") t_split = &s;
    if (s.table == "u") u_split = &s;
  }
  ASSERT_NE(t_split, nullptr);
  ASSERT_NE(u_split, nullptr);
  // Every conflicting pair on t is refuted: single-key partitionable, with
  // a 2-way boundary proposal among the observed keys.
  EXPECT_TRUE(t_split->partitionable);
  EXPECT_GT(t_split->conflicting_pairs, 0u);
  EXPECT_EQ(t_split->refuted_pairs, t_split->conflicting_pairs);
  ASSERT_EQ(t_split->boundaries.size(), 1u);
  // Full-scan writers on u cannot be separated.
  EXPECT_FALSE(u_split->partitionable);
  EXPECT_GT(u_split->conflicting_pairs, 0u);
  EXPECT_NE(advice->ToString().find("NOT partitionable"), std::string::npos);
  EXPECT_NE(advice->ToJson().find("\"partitionable\":true"),
            std::string::npos);
}

TEST(ShardAdvisorTest, CoAccessedTablesColocate) {
  std::vector<StatementPtr> statements;
  for (const char* sql :
       {"CREATE TABLE a (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE b (id INT PRIMARY KEY, aid INT, "
        "FOREIGN KEY (aid) REFERENCES a(id))",
        "INSERT INTO b (id, aid) VALUES (1, 1)"}) {
    statements.push_back(Parse(sql));
  }
  auto advice = AdviseSharding(statements, 4);
  ASSERT_TRUE(advice.ok());
  // The FK-checking INSERT reads a while writing b: one group.
  bool together = false;
  for (const auto& g : advice->groups) {
    std::set<std::string> names(g.tables.begin(), g.tables.end());
    if (names.count("a") && names.count("b")) together = true;
  }
  EXPECT_TRUE(together);
}

}  // namespace
}  // namespace ultraverse::analysis
