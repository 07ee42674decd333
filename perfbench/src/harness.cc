#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "sqldb/parser.h"
#include "sqldb/wal/wal.h"
#include "util/stopwatch.h"

namespace perfbench {

using uv::NowMicros;

// --- statistics --------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / double(v.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return double(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- span log ---------------------------------------------------------------

namespace {
thread_local std::vector<int64_t> t_open_spans;
std::atomic<uint32_t> g_next_thread{1};
thread_local uint32_t t_thread_id = 0;

uint32_t ThreadId() {
  if (t_thread_id == 0) t_thread_id = g_next_thread.fetch_add(1);
  return t_thread_id;
}
}  // namespace

SpanLog::Scope::Scope(SpanLog* log, const char* name, uint64_t request)
    : log_(log && log->active() ? log : nullptr), start_us_(NowMicros()) {
  if (log_) id_ = log_->Open(name, request, start_us_);
}

SpanLog::Scope::~Scope() {
  if (log_) log_->Close(id_, NowMicros());
}

void SpanLog::SetActive(bool on) {
  active_.store(on, std::memory_order_relaxed);
  uv::obs::SetTiming(on);
}

int64_t SpanLog::Open(const char* name, uint64_t request, uint64_t start_us) {
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.thread = ThreadId();
  std::lock_guard<std::mutex> g(mu_);
  if (request == 0 && s.parent >= 0) request = spans_[size_t(s.parent)].request;
  s.request = request;
  spans_.push_back(std::move(s));
  const int64_t id = int64_t(spans_.size() - 1);
  t_open_spans.push_back(id);
  return id;
}

void SpanLog::Close(int64_t id, uint64_t end_us) {
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> g(mu_);
  spans_[size_t(id)].end_us = end_us;
}

std::map<std::string, uint64_t> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<uint64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[size_t(s.parent)] += s.end_us - s.start_us;
  }
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t d = spans_[i].end_us - spans_[i].start_us;
    out[spans_[i].name] += d > child[i] ? d - child[i] : 0;
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> g(mu_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%llu,\"dur\":%llu,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}",
                 i ? "," : "", s.name.c_str(), s.thread,
                 (unsigned long long)s.start_us,
                 (unsigned long long)(s.end_us - s.start_us), i,
                 (long long)s.parent, (unsigned long long)s.request);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- registry deltas ----------------------------------------------------------

RegistrySample RegistrySample::Take() {
  RegistrySample out;
  uv::obs::Snapshot snap = uv::obs::Registry::Global().Collect();
  for (const auto& c : snap.counters) out.counters[c.name] = c.value;
  for (const auto& h : snap.histograms) {
    out.histograms[h.name] = {h.count, h.sum_us};
    unsigned top = 0;
    for (unsigned b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b]) top = b;
    }
    out.top_bucket[h.name] = top;
  }
  return out;
}

uint64_t RegistrySample::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t RegistrySample::HistCount(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.first;
}

uint64_t RegistrySample::HistSum(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.second;
}

RegistrySample RegistrySample::Delta(const RegistrySample& before) const {
  RegistrySample d;
  for (const auto& [k, v] : counters) d.counters[k] = v - before.Counter(k);
  for (const auto& [k, v] : histograms) {
    d.histograms[k] = {v.first - before.HistCount(k),
                       v.second - before.HistSum(k)};
  }
  d.top_bucket = top_bucket;  // high-water marks do not subtract
  return d;
}

// --- workload set-up ------------------------------------------------------------

const HistoryTxn* HotTxnAt(const Instance& inst, const std::string& fn,
                           double at) {
  const size_t from = size_t(at * double(inst.history.size()));
  for (size_t i = from; i < inst.history.size(); ++i) {
    const HistoryTxn& t = inst.history[i];
    if (t.call.hot && t.call.function == fn) return &t;
  }
  return nullptr;
}

uv::workload::TxnCall ChangedCall(uv::workload::TxnCall call) {
  for (auto it = call.args.rbegin(); it != call.args.rend(); ++it) {
    if (it->kind == uv::app::AppValue::Kind::kNumber) {
      *it = uv::app::AppValue::Number(it->ToNum() + 1);
      break;
    }
  }
  return call;
}

std::string CallSql(uv::core::Ultraverse* engine,
                    const uv::workload::TxnCall& call) {
  const uv::transpiler::TranspiledTransaction* tt =
      engine->FindTranspiled(call.function);
  auto stmt = uv::sql::Statement::Make(uv::sql::StatementKind::kCall);
  stmt->call.procedure = tt ? tt->procedure_name : call.function;
  for (const auto& a : call.args) {
    stmt->call.args.push_back(uv::sql::Expr::MakeLiteral(a.ToSqlValue()));
  }
  return uv::sql::ToSql(*stmt);
}

uv::Result<double> CommitOne(Instance* inst, double dependency_rate,
                             HistoryTxn* out) {
  uv::workload::TxnCall call =
      inst->workload->NextTransaction(&inst->rng, dependency_rate);
  const double t0 = NowSeconds();
  uv::Result<uv::app::AppValue> r =
      inst->uv->RunTransaction(call.function, call.args, uv::core::SystemMode::kT);
  const double ms = (NowSeconds() - t0) * 1000.0;
  if (!r.ok()) return r.status();
  if (out) {
    out->index = inst->uv->log()->last_index();
    out->call = std::move(call);
  }
  return ms;
}

uv::Status SetupInstance(const SetupOptions& opts, uv::core::Ultraverse* engine,
                         Instance* inst) {
  if (!engine) {
    uv::core::Ultraverse::Options uv_opts;
    inst->owned = std::make_unique<uv::core::Ultraverse>(uv_opts);
    engine = inst->owned.get();
  }
  inst->uv = engine;
  inst->workload = uv::workload::MakeWorkload(opts.workload, 1);
  if (!inst->workload) {
    return uv::Status::InvalidArgument("unknown workload " + opts.workload);
  }
  inst->rng = uv::Rng(opts.seed);
  UV_ASSIGN_OR_RETURN(std::vector<uv::sql::StatementPtr> ddl,
                      uv::sql::Parser::ParseScript(inst->workload->SchemaSql()));
  for (const auto& stmt : ddl) {
    uv::Result<uv::sql::ExecResult> r = engine->ExecuteSql(uv::sql::ToSql(*stmt));
    if (!r.ok()) return r.status();
  }
  const uint64_t t0 = NowMicros();
  UV_RETURN_NOT_OK(engine->LoadApplication(inst->workload->AppSource()));
  inst->load_ms = double(NowMicros() - t0) / 1000.0;
  inst->workload->ConfigureRi(engine);
  UV_RETURN_NOT_OK(inst->workload->Populate(engine, &inst->rng));
  uv::workload::TxnCall seed = inst->workload->RetroSeedTransaction();
  uv::Result<uv::app::AppValue> r =
      engine->RunTransaction(seed.function, seed.args, uv::core::SystemMode::kT);
  if (!r.ok()) return r.status();
  inst->retro_target = engine->log()->last_index();
  inst->history.reserve(opts.history_txns);
  for (size_t i = 0; i < opts.history_txns; ++i) {
    HistoryTxn txn;
    UV_RETURN_NOT_OK(CommitOne(inst, opts.dependency_rate, &txn).status());
    inst->history.push_back(std::move(txn));
  }
  return uv::Status::OK();
}

// --- per-layer probes -------------------------------------------------------------

namespace {

// Commit indexes far past any history: the probes write clones only.
constexpr uint64_t kProbeCommitBase = uint64_t(1) << 40;
constexpr size_t kProbeStatements = 1000;

double ProbeRowWriteUs(const uv::sql::Database& db, const std::string& table,
                       uint64_t seed) {
  const uv::sql::Table* src = db.FindTable(table);
  if (!src) return 0;
  std::unique_ptr<uv::sql::Table> t = src->Clone();
  std::vector<uv::sql::RowId> ids = t->LiveRowIds();
  if (ids.empty()) return 0;
  constexpr size_t kWrites = 2000;
  uv::Rng rng(seed);
  uint64_t commit = kProbeCommitBase;
  std::vector<uv::sql::RowId> inserted;
  inserted.reserve(kWrites);
  const uint64_t t0 = NowMicros();
  for (size_t i = 0; i < kWrites; ++i) {
    uv::sql::RowId id = ids[size_t(rng.UniformInt(0, int64_t(ids.size()) - 1))];
    uv::sql::Row row = t->GetRow(id);
    uv::sql::Value& last = row.back();
    if (last.type() == uv::sql::DataType::kInt) {
      last = uv::sql::Value::Int(last.AsInt() + 1);
    }
    (void)t->Update(id, std::move(row), ++commit);
  }
  for (size_t i = 0; i < kWrites; ++i) {
    uv::sql::Row row = t->GetRow(ids[i % ids.size()]);
    uv::Result<uv::sql::RowId> r = t->Insert(std::move(row), ++commit);
    if (r.ok()) inserted.push_back(*r);
  }
  for (uv::sql::RowId id : inserted) (void)t->Delete(id, ++commit);
  const uint64_t us = NowMicros() - t0;
  return double(us) / double(kWrites * 2 + inserted.size());
}

double ProbeParseUs(const uv::sql::QueryLog& log, size_t n) {
  n = std::min(n, log.size());
  if (n == 0) return 0;
  const uint64_t t0 = NowMicros();
  for (uint64_t i = log.size() - n + 1; i <= log.size(); ++i) {
    (void)uv::sql::Parser::ParseStatement(log.at(i).sql);
  }
  return double(NowMicros() - t0) / double(n);
}

double ProbeExecUs(const uv::sql::Database& db, const uv::sql::QueryLog& log,
                   size_t n) {
  n = std::min(n, log.size());
  if (n == 0) return 0;
  std::unique_ptr<uv::sql::Database> clone = db.Clone();
  uint64_t commit = kProbeCommitBase;
  const uint64_t t0 = NowMicros();
  for (uint64_t i = log.size() - n + 1; i <= log.size(); ++i) {
    const uv::sql::LogEntry& e = log.at(i);
    uv::sql::ExecContext ctx;
    ctx.StartReplaying(&e.nondet);
    (void)clone->Execute(*e.stmt, ++commit, &ctx);
  }
  return double(NowMicros() - t0) / double(n);
}

double ProbeWalAppendUs(const uv::sql::QueryLog& log, size_t n,
                        const std::string& dir, uint64_t fsync_every_n) {
  n = std::min(n, log.size());
  if (n == 0) return 0;
  const std::string path = dir + "/probe.wal";
  ::unlink(path.c_str());
  uv::sql::WalOptions wopts;
  wopts.fsync_every_n = fsync_every_n;
  double us = 0;
  {
    uv::Result<std::unique_ptr<uv::sql::Wal>> wal =
        uv::sql::Wal::Open(path, wopts);
    if (!wal.ok()) return 0;
    const uint64_t t0 = NowMicros();
    for (uint64_t i = log.size() - n + 1; i <= log.size(); ++i) {
      (void)(*wal)->AppendEntry(log.at(i));
    }
    (void)(*wal)->Sync();
    us = double(NowMicros() - t0) / double(n);
  }
  ::unlink(path.c_str());
  return us;
}

}  // namespace

void ProbeLayers(const RunConfig& cfg, uv::core::Ultraverse* engine,
                 const std::string& table, uint64_t fsync_every_n,
                 SpanLog* spans, RunResult* out) {
  uv::Result<std::shared_ptr<const uv::core::HistorySnapshot>> snap =
      engine->SnapshotHistory();
  if (!snap.ok()) {
    out->Fail("probe snapshot: " + snap.status().ToString());
    return;
  }
  const uv::sql::Database& db = *(*snap)->db;
  const uv::sql::QueryLog& log = *engine->log();
  spans->SetActive(true);
  {
    SpanLog::Scope s(spans, "sqldb.Table.write");
    out->Set("sqldb.row_write_us", ProbeRowWriteUs(db, table, cfg.seed), "us");
  }
  {
    SpanLog::Scope s(spans, "sqldb.Parser.ParseStatement");
    out->Set("sqldb.parse_us_per_stmt", ProbeParseUs(log, kProbeStatements),
             "us");
  }
  {
    SpanLog::Scope s(spans, "sqldb.Database.Execute");
    out->Set("sqldb.exec_us_per_stmt",
             ProbeExecUs(db, log, kProbeStatements), "us");
  }
  {
    SpanLog::Scope s(spans, "sqldb.Wal.AppendEntry");
    out->Set("sqldb.wal_append_us",
             ProbeWalAppendUs(log, kProbeStatements, cfg.out_dir,
                              fsync_every_n),
             "us");
  }
  spans->SetActive(false);
}

double TraceOverheadPct(const std::vector<double>& on,
                        const std::vector<double>& off) {
  const double base = Median(off);
  return base > 0 ? (Median(on) / base - 1.0) * 100.0 : 0;
}

void FinishSpans(const RunConfig& cfg, const SpanLog& spans) {
  const std::string path = cfg.out_dir + "/" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".trace.json";
  if (!spans.WriteChromeTrace(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  for (const auto& [name, us] : spans.SelfTimes()) {
    std::fprintf(stderr, "perfbench: self time %-32s %12.3f ms\n",
                 name.c_str(), double(us) / 1000.0);
  }
}

// --- shared what-if helpers --------------------------------------------------------

namespace {
uint64_t PhaseUs(const uv::obs::WhatIfReport& r, const char* name) {
  for (const auto& p : r.phases) {
    if (p.name == name) return p.wall_us;
  }
  return 0;
}
}  // namespace

void ReportWhatIfLayers(const std::vector<WhatIfSample>& samples,
                        size_t count_prefix, RunResult* out) {
  if (samples.empty()) return;
  // Times and ratios: every traced what-if.
  double plan_us = 0, stage_us = 0, replay_us = 0, unphased_us = 0;
  double suffix = 0, replayed_all = 0, rtt_us = 0, busy = 0, idle = 0;
  double pc_hit = 0, pc_miss = 0, idx = 0, scan = 0;
  for (const WhatIfSample& s : samples) {
    const uv::obs::WhatIfReport& r = s.stats.report;
    plan_us += double(PhaseUs(r, "plan"));
    stage_us += double(PhaseUs(r, "stage"));
    replay_us += double(PhaseUs(r, "replay"));
    uint64_t phased = 0;
    for (const auto& p : r.phases) phased += p.wall_us;
    unphased_us += std::max(0.0, s.wall_ms * 1000.0 - double(phased));
    suffix += double(s.stats.suffix_size);
    replayed_all += double(s.stats.replayed);
    rtt_us += double(s.stats.virtual_rtt_micros);
    pc_hit += double(r.plan_cache_hits);
    pc_miss += double(r.plan_cache_misses);
    idx += double(r.vm_index_path);
    scan += double(r.vm_scan_path);
    busy += double(s.registry.HistSum("uv.replay.worker.busy_us"));
    idle += double(s.registry.HistSum("uv.replay.worker.idle_us"));
  }
  const double n = double(samples.size());
  out->Set("core.plan_ms", plan_us / n / 1000.0, "ms");
  out->Set("core.plan_us_per_suffix_entry", suffix ? plan_us / suffix : 0,
           "us");
  out->Set("core.whatif_unphased_ms", unphased_us / n / 1000.0, "ms");
  out->Set("core.stage_ms", stage_us / n / 1000.0, "ms");
  out->Set("core.replay_ms", replay_us / n / 1000.0, "ms");
  out->Set("core.replay_us_per_txn",
           replayed_all ? replay_us / replayed_all : 0, "us");
  out->Set("core.virtual_rtt_ms", rtt_us / n / 1000.0, "ms");
  out->Set("core.worker_busy_ratio", busy + idle ? busy / (busy + idle) : 0,
           "ratio");
  out->Set("sqldb.vm_plan_cache_hit_ratio",
           pc_hit + pc_miss ? pc_hit / (pc_hit + pc_miss) : 0, "ratio");
  out->Set("sqldb.vm_index_path_ratio", idx + scan ? idx / (idx + scan) : 0,
           "ratio");

  // Counts: a fixed prefix of the traced what-ifs.
  const size_t m = std::min(count_prefix, samples.size());
  double c_suffix = 0, skipped = 0, replayed = 0, critical = 0;
  double rollback = 0, staged = 0, members = 0;
  for (size_t i = 0; i < m; ++i) {
    const WhatIfSample& s = samples[i];
    c_suffix += double(s.stats.suffix_size);
    skipped += double(s.stats.skipped);
    replayed += double(s.stats.replayed);
    critical += double(s.stats.critical_path);
    staged += double(s.stats.report.staged_bytes);
    rollback += double(s.registry.Counter("uv.staging.rollback.commits"));
    members += double(s.registry.Counter("uv.depgraph.plan.members"));
  }
  out->Set("core.prune_ratio", c_suffix ? skipped / c_suffix : 0, "ratio");
  out->Set("core.skipped_per_whatif", skipped / double(m), "count");
  out->Set("core.replayed_per_whatif", replayed / double(m), "count");
  out->Set("core.plan_members_per_whatif", members / double(m), "count");
  out->Set("core.critical_path", critical / double(m), "count");
  out->Set("core.rollback_commits_per_whatif", rollback / double(m), "count");
  out->Set("sqldb.staged_bytes_per_whatif", staged / double(m), "B");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"sqldb.row_write_us", "us"},
      {"core.stage_ms", "ms"},
      {"core.rollback_commits_per_whatif", "count"},
      {"sqldb.staged_bytes_per_whatif", "B"},
      {"core.snapshot_ms", "ms"},
      {"core.analyze_us_per_entry", "us"},
      {"core.plan_ms", "ms"},
      {"core.plan_us_per_suffix_entry", "us"},
      {"core.prune_ratio", "ratio"},
      {"core.skipped_per_whatif", "count"},
      {"core.plan_members_per_whatif", "count"},
      {"core.whatif_unphased_ms", "ms"},
      {"core.replay_ms", "ms"},
      {"core.replay_us_per_txn", "us"},
      {"core.replayed_per_whatif", "count"},
      {"core.critical_path", "count"},
      {"core.worker_busy_ratio", "ratio"},
      {"core.virtual_rtt_ms", "ms"},
      {"sqldb.exec_us_per_stmt", "us"},
      {"sqldb.parse_us_per_stmt", "us"},
      {"sqldb.vm_plan_cache_hit_ratio", "ratio"},
      {"sqldb.vm_index_path_ratio", "ratio"},
      {"server.wire_overhead_us.exec", "us"},
      {"server.wire_overhead_us.analyze", "us"},
      {"server.admission_rejected", "count"},
      {"server.queue_depth_max", "count"},
      {"server.gen_late_ms", "ms"},
      {"sqldb.wal_append_us", "us"},
      {"transpiler.load_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kAll;
}

}  // namespace perfbench
