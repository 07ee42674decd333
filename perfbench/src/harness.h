// Shared pieces of the perfbench driver: run configuration, the result
// record every workload fills, latency statistics, the span log used by
// traced runs, workload set-up through the public facade, and the
// per-layer probes that time single public calls from outside.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ultraverse.h"
#include "obs/metrics.h"
#include "workloads/workload.h"

namespace perfbench {

namespace uv = ultraverse;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // scratch files (WALs, span dumps)
};

/// What one run reports. `metrics` holds name -> (value, unit); the driver
/// prints it as the final JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // printed to stderr, first few only
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a wrong output or an untyped error: the run is not correct.
  void Fail(const std::string& what) {
    correct = false;
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
};

// --- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Monotonic seconds.
double NowSeconds();

// --- span log (traced runs only) ---------------------------------------------

/// In-memory record of spans the benchmark opens around calls into each
/// layer. Spans nest per thread; each carries the id of its parent and a
/// request id shared by every span of one benchmark operation. Written as
/// a Chrome trace-event file when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t start_us = 0;
    uint64_t end_us = 0;
    int64_t parent = -1;
    uint64_t request = 0;
    uint32_t thread = 0;
  };

  /// RAII span; a no-op unless the log is active.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int64_t id_ = -1;
    uint64_t start_us_ = 0;
  };

  /// Turns span recording and the engine's latency histograms on or off
  /// together: traced runs alternate on and off rounds, and the difference
  /// between them is the tracing overhead.
  void SetActive(bool on);
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Self time per span name: duration minus time covered by children.
  std::map<std::string, uint64_t> SelfTimes() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t Open(const char* name, uint64_t request, uint64_t start_us);
  void Close(int64_t id, uint64_t end_us);

  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- registry deltas -----------------------------------------------------------

/// Counter values and histogram (count, sum_us) pairs of the process-wide
/// obs registry at one point; Delta() subtracts an earlier sample.
struct RegistrySample {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> histograms;
  std::map<std::string, unsigned> top_bucket;  // highest non-empty bucket

  static RegistrySample Take();
  uint64_t Counter(const std::string& name) const;
  uint64_t HistCount(const std::string& name) const;
  uint64_t HistSum(const std::string& name) const;
  RegistrySample Delta(const RegistrySample& before) const;
};

// --- workload set-up -------------------------------------------------------------

struct HistoryTxn {
  uint64_t index = 0;  // log index of the committed CALL
  uv::workload::TxnCall call;
};

/// A populated engine with a committed history, as the workloads set it up
/// through the public facade: schema, transpile (timed alone), RI config,
/// population, the retroactive seed transaction, then `history_txns`
/// transactions from the workload's generator, all committed in T mode.
struct Instance {
  std::unique_ptr<uv::core::Ultraverse> owned;
  uv::core::Ultraverse* uv = nullptr;  // owned.get() or a server's engine
  std::unique_ptr<uv::workload::Workload> workload;
  uv::Rng rng{1};
  uint64_t retro_target = 0;
  std::vector<HistoryTxn> history;
  double load_ms = 0;  // LoadApplication (DSE + transpile)
};

struct SetupOptions {
  std::string workload;  // "epinions" | "tatp"
  size_t history_txns = 1000;
  double dependency_rate = 0.5;
  uint64_t seed = 1;
};

/// Sets up `inst` on `engine` (or on a fresh facade when null). Returns an
/// error status instead of exiting: the caller reports it as a failure.
uv::Status SetupInstance(const SetupOptions& opts, uv::core::Ultraverse* engine,
                         Instance* inst);

/// Commits one generated transaction in T mode; returns its latency in ms.
uv::Result<double> CommitOne(Instance* inst, double dependency_rate,
                             HistoryTxn* out);

/// First hot transaction of `fn` at or after fraction `at` of the history;
/// a fixed function keeps the what-if's cost alike from seed to seed.
const HistoryTxn* HotTxnAt(const Instance& inst, const std::string& fn,
                           double at);

/// The call with its last numeric argument bumped: the "change" variant of
/// a hot transaction (a different rating, location, flag...).
uv::workload::TxnCall ChangedCall(uv::workload::TxnCall call);

/// The CALL statement text the engine logs for `call` (T-mode form).
std::string CallSql(uv::core::Ultraverse* uv,
                    const uv::workload::TxnCall& call);

// --- per-layer probes and span output (traced runs) ---------------------------

/// Times single sqldb-layer calls from outside on `engine`'s current
/// snapshot and log, with spans on: Table::Update/Insert/Delete on a CoW
/// clone of `table` with its indexes (sqldb.row_write_us), parsing and
/// re-executing the last 1000 logged statements (sqldb.parse_us_per_stmt,
/// sqldb.exec_us_per_stmt), and appending them to a scratch WAL that
/// fsyncs every `fsync_every_n` entries (sqldb.wal_append_us).
void ProbeLayers(const RunConfig& cfg, uv::core::Ultraverse* engine,
                 const std::string& table, uint64_t fsync_every_n,
                 SpanLog* spans, RunResult* out);

/// Writes the spans to <out_dir>/<workload>-<seed>.trace.json and prints
/// each span name's self time to stderr.
void FinishSpans(const RunConfig& cfg, const SpanLog& spans);

/// obs.trace_overhead_pct: median latency of the traced rounds over that
/// of the untraced rounds, minus 100%.
double TraceOverheadPct(const std::vector<double>& on,
                        const std::vector<double>& off);

// --- shared what-if helpers -----------------------------------------------------

/// One traced what-if (tatp-serve fills it from the streamed report).
struct WhatIfSample {
  double wall_ms = 0;  // the WhatIfAnalyzeAt call alone
  uv::core::ReplayStats stats;
  RegistrySample registry;  // registry delta over the call
};

/// Fills the core.* / sqldb.* per-layer metrics derived from report phases,
/// replay statistics and registry deltas over the traced what-ifs. Times
/// average over every sample; counts over the first `count_prefix` only,
/// so that with a fixed seed they repeat exactly however long the run.
void ReportWhatIfLayers(const std::vector<WhatIfSample>& samples,
                        size_t count_prefix, RunResult* out);

/// Every per-layer metric name with its unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Workload entry points.
void RunEpinionsHotWhatIf(const RunConfig& cfg, RunResult* out);
void RunTatpServe(const RunConfig& cfg, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
