// epinions-hot-whatif: a closed loop of analyze-only T+D what-ifs against
// one snapshot pinned at the end of set-up, with live commits beside it.
// Every distinct what-if op is checked against the full-naive reference
// path before the timed loop, and every repeat must match it.
#include "harness.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using uv::NowMicros;
using uv::core::HistorySnapshot;
using uv::core::RetroOp;
using uv::core::SystemMode;

// The WAL probe uses tatp-serve's group-commit policy.
constexpr uint64_t kWalFsyncEveryN = 16;

/// One distinct what-if of the rotation, with what the first run of it
/// produced (later runs of the same op on the pinned snapshot must repeat
/// these exactly).
struct OpSlot {
  std::string label;
  RetroOp op;
  std::string reference;  // full-naive fingerprint
  bool seen = false;
  size_t replayed = 0;
  size_t skipped = 0;
};

/// Removal and change of the transaction at `txn`.
void AddOps(uv::core::Ultraverse* engine, const HistoryTxn& txn,
            std::vector<OpSlot>* ops, RunResult* out) {
  for (RetroOp::Kind kind : {RetroOp::Kind::kRemove, RetroOp::Kind::kChange}) {
    const bool change = kind == RetroOp::Kind::kChange;
    uv::Result<RetroOp> op = engine->MakeOp(
        kind, txn.index, change ? CallSql(engine, ChangedCall(txn.call)) : "");
    if (!op.ok()) {
      out->Fail("MakeOp: " + op.status().ToString());
      continue;
    }
    OpSlot slot;
    slot.label = std::string(change ? "change@" : "remove@") +
                 std::to_string(txn.index);
    slot.op = std::move(*op);
    ops->push_back(std::move(slot));
  }
}

/// Computes the full-naive fingerprint of `slot`'s op on `snap`, the
/// reference every selective run of the op is compared with.
bool NaiveReference(uv::core::Ultraverse* engine, const HistorySnapshot& snap,
                    OpSlot* slot, RunResult* out) {
  uv::Result<uv::core::WhatIfAnalysis> naive =
      engine->WhatIfAnalyzeAt(snap, slot->op, SystemMode::kT, true);
  if (!naive.ok()) {
    out->Fail(slot->label + " full-naive: " + naive.status().ToString());
    return false;
  }
  slot->reference = naive->fingerprint;
  return true;
}

/// Repeated ops on the same history must repeat their counts exactly.
void CheckCounts(OpSlot* slot, const uv::core::ReplayStats& stats,
                 RunResult* out) {
  if (!slot->seen) {
    slot->seen = true;
    slot->replayed = stats.replayed;
    slot->skipped = stats.skipped;
  } else if (slot->replayed != stats.replayed ||
             slot->skipped != stats.skipped) {
    out->Fail(slot->label + ": replayed/skipped changed between repeats");
  }
}

/// Analysis of the whole committed log, timed from outside; also the
/// paper's dependency-log footprint per logged transaction (Table 7b).
uv::Status AnalyzeWholeLog(Instance* inst, double* us_per_entry,
                           double* log_bytes_per_txn) {
  const uint64_t t0 = NowMicros();
  uv::Result<const std::vector<uv::core::QueryRW>*> a =
      inst->uv->EnsureAnalysis();
  if (!a.ok()) return a.status();
  const double n = double(inst->uv->log()->size());
  *us_per_entry = double(NowMicros() - t0) / n;
  *log_bytes_per_txn = double(inst->uv->UltraverseLogBytes()) / n;
  return uv::Status::OK();
}

/// epinions-hot-whatif's set-up: the instance, its analysis, and the
/// snapshot every what-if of the run is pinned to. Returns its seconds.
struct PinnedSetup {
  Instance inst;
  std::shared_ptr<const HistorySnapshot> snap;
  double analyze_us = 0, log_bytes = 0;
};

uv::Result<double> SetUpPinned(const SetupOptions& so, PinnedSetup* out) {
  const double t0 = NowSeconds();
  UV_RETURN_NOT_OK(SetupInstance(so, nullptr, &out->inst));
  UV_RETURN_NOT_OK(
      AnalyzeWholeLog(&out->inst, &out->analyze_us, &out->log_bytes));
  UV_ASSIGN_OR_RETURN(out->snap, out->inst.uv->SnapshotHistory());
  return NowSeconds() - t0;
}

}  // namespace

// --- epinions-hot-whatif --------------------------------------------------------

void RunEpinionsHotWhatIf(const RunConfig& cfg, RunResult* out) {
  constexpr size_t kHistory = 1500;
  // Besides the set-up the run uses, a throwaway set-up is timed every
  // kSetupEveryRotations rotations, so setup_s is a median over set-ups
  // spread across the run rather than over a burst at its start.
  constexpr size_t kSetupEveryRotations = 4;
  SetupOptions so{"epinions", kHistory, 0.5, cfg.seed};
  std::vector<double> setup_s, load_ms;
  PinnedSetup pinned;
  {
    uv::Result<double> s = SetUpPinned(so, &pinned);
    if (!s.ok()) {
      out->Fail("setup: " + s.status().ToString());
      return;
    }
    setup_s.push_back(*s);
    load_ms.push_back(pinned.inst.load_ms);
  }
  Instance& inst = pinned.inst;
  const HistorySnapshot& snap = *pinned.snap;

  // Hot UpdateReviewRating calls at rotating positions early in the
  // history, so each what-if rolls back and replays a long suffix.
  std::vector<OpSlot> ops;
  for (double at : {0.05, 0.15, 0.25, 0.35}) {
    const HistoryTxn* t = HotTxnAt(inst, "UpdateReviewRating", at);
    if (t) AddOps(inst.uv, *t, &ops, out);
  }
  if (ops.empty()) out->Fail("no hot UpdateReviewRating in the history");
  if (!out->correct) return;
  // One snapshot serves every what-if, so each op's full-naive reference
  // is computed once, before the timed loop, and checks every repeat.
  for (OpSlot& slot : ops) NaiveReference(inst.uv, snap, &slot, out);
  if (!out->correct) return;

  constexpr int kLiveCommitsPerRotation = 50;
  SpanLog spans;
  std::vector<double> latency, commit_ms, lat_on, lat_off;
  std::vector<WhatIfSample> traced;
  const double start = NowSeconds();
  double unmeasured_s = 0;
  size_t k = 0;
  for (;; ++k) {
    const bool rotation_done = k % ops.size() == 0;
    const size_t rotation = k / ops.size();
    // At least one rotation, and in traced runs one with spans on.
    const size_t min_ops = (cfg.trace ? 2 : 1) * ops.size();
    if (rotation_done && k >= min_ops &&
        NowSeconds() - start - unmeasured_s >= cfg.seconds) {
      break;
    }
    if (rotation_done && rotation > 0 &&
        rotation % kSetupEveryRotations == 0) {
      const double u0 = NowSeconds();
      PinnedSetup extra;
      uv::Result<double> s = SetUpPinned(so, &extra);
      if (s.ok()) {
        setup_s.push_back(*s);
        load_ms.push_back(extra.inst.load_ms);
      } else {
        out->Fail("setup: " + s.status().ToString());
      }
      unmeasured_s += NowSeconds() - u0;
    }
    OpSlot& slot = ops[k % ops.size()];
    // Traced runs alternate whole rotations with spans on and off.
    const bool on = cfg.trace && rotation % 2 == 1;
    if (cfg.trace && rotation_done) spans.SetActive(on);
    if (rotation_done) {
      // The live application keeps committing beside the analyst's pinned
      // snapshot; no what-if sees these commits.
      for (int c = 0; c < kLiveCommitsPerRotation; ++c) {
        ++out->attempted;
        uv::Result<double> ms = uv::Status::OK();
        {
          SpanLog::Scope s(&spans, "core.RunTransaction");
          ms = CommitOne(&inst, 0.5, nullptr);
        }
        if (ms.ok()) {
          commit_ms.push_back(*ms);
        } else {
          out->Fail("commit: " + ms.status().ToString());
        }
      }
    }
    RegistrySample before;
    if (on) before = RegistrySample::Take();
    uint64_t t0, t1;
    uv::Result<uv::core::WhatIfAnalysis> r = uv::Status::OK();
    {
      SpanLog::Scope s(&spans, "core.WhatIfAnalyzeAt", k + 1);
      t0 = NowMicros();
      r = inst.uv->WhatIfAnalyzeAt(snap, slot.op, SystemMode::kTD);
      t1 = NowMicros();
    }
    const double ms = double(t1 - t0) / 1000.0;
    ++out->attempted;
    if (!r.ok()) {
      out->Fail(slot.label + ": " + r.status().ToString());
      continue;
    }
    if (r->fingerprint != slot.reference) {
      out->Fail(slot.label + ": selective fingerprint differs from full-naive");
    }
    CheckCounts(&slot, r->stats, out);
    latency.push_back(ms);
    if (!cfg.trace) continue;
    if (on) {
      lat_on.push_back(ms);
      WhatIfSample sample{ms, std::move(r->stats), {}};
      sample.registry = RegistrySample::Take().Delta(before);
      traced.push_back(std::move(sample));
    } else {
      lat_off.push_back(ms);
    }
  }
  const double elapsed = NowSeconds() - start - unmeasured_s;
  spans.SetActive(false);

  out->Set("setup_s", Median(setup_s), "s");
  out->Set("whatif_p50_ms", Percentile(latency, 0.5), "ms");
  out->Set("whatif_p90_ms", Percentile(latency, 0.9), "ms");
  out->Set("commit_p50_ms", Percentile(commit_ms, 0.5), "ms");
  out->Set("commit_p99_ms", Percentile(commit_ms, 0.99), "ms");
  const double ops_per_s = double(latency.size() + commit_ms.size()) / elapsed;
  out->Set("ops_per_s", ops_per_s, "1/s");
  out->Set("max_rate_rps", ops_per_s, "1/s");
  out->Set("log_bytes_per_txn", pinned.log_bytes, "B");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!cfg.trace) return;

  ReportWhatIfLayers(traced, ops.size(), out);
  // The snapshot is pinned once in set-up; no what-if pays for one.
  out->Set("core.snapshot_ms", 0, "ms");
  out->Set("core.analyze_us_per_entry", pinned.analyze_us, "us");
  out->Set("transpiler.load_ms", Median(load_ms), "ms");
  out->Set("obs.trace_overhead_pct", TraceOverheadPct(lat_on, lat_off), "%");
  ProbeLayers(cfg, inst.uv, "review", kWalFsyncEveryN, &spans, out);
  FinishSpans(cfg, spans);
}

}  // namespace perfbench
