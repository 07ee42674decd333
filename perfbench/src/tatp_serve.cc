// tatp-serve: an in-process UvServer over a preloaded TATP history (WAL
// on, group commit every kFsyncEveryN entries), driven over TCP by an
// open-loop generator with at most kMaxConnections connections. Requests
// are due on a fixed schedule; each is timed from its due time, so a stall
// charges every request queued behind it. Most requests are TATP
// transactions as CALL statements through UvClient::ExecSql; every
// kAnalyzeEvery-th is an analyze-only T+D what-if through UvClient::Analyze.
//
// The first kNominalShare of --seconds offers kNominalRps: the commit and
// what-if latencies come from there. The rest is split between kProbes
// capacity probes that offer kProbeRps, far above capacity: the rate they
// complete is the highest rate the server sustains without a growing
// backlog (max_rate_rps). Every phase runs on a freshly set-up server, so
// each sees the same history however fast the earlier ones went; each ends
// in a drain, after which WAL recovery must rebuild the drained server's
// exact fingerprint.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/ultraverse.h"
#include "fault/recovery.h"
#include "harness.h"
#include "obs/explain.h"
#include "server/client.h"
#include "server/server.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using uv::NowMicros;

constexpr size_t kHistory = 2000;
constexpr uint64_t kFsyncEveryN = 16;
constexpr int kMaxConnections = 4;
// One analyze in 20: ~150 what-ifs in a 50 s run at the nominal rate. More
// analyzes pile up on the four connections and make commit p99 swing from
// run to run.
constexpr uint64_t kAnalyzeEvery = 20;
constexpr double kNominalRps = 100;
constexpr double kNominalShare = 0.6;
// Offered in the capacity probes, well above what the server completes.
constexpr double kProbeRps = 2000;
constexpr int kProbes = 2;
// Each analysis replays on this many threads, so analyses leave cores to
// the commit path instead of spinning beside it.
constexpr int kReplayThreads = 2;

struct Request {
  uint64_t seq = 0;
  bool analyze = false;
  std::string sql;
  uv::server::ClientWhatIf whatif;
};

enum class Outcome { kOk, kShed, kError, kNotSent };

struct Record {
  bool analyze = false;
  bool traced = false;
  uint64_t due_us = 0, send_us = 0, done_us = 0;
  Outcome outcome = Outcome::kNotSent;
  std::string report_json;  // traced analyzes only
};

/// Deterministic request stream: the workload's own generator continues
/// from the preloaded history's RNG state, so a seed fixes every request.
class Stream {
 public:
  Stream(Instance* inst, std::vector<uv::server::ClientWhatIf> whatifs)
      : inst_(inst), whatifs_(std::move(whatifs)) {}

  Request Next() {
    Request r;
    r.seq = ++seq_;
    if (r.seq % kAnalyzeEvery == 0) {
      r.analyze = true;
      r.whatif = whatifs_[(r.seq / kAnalyzeEvery) % whatifs_.size()];
    } else {
      r.sql = CallSql(inst_->uv,
                      inst_->workload->NextTransaction(&inst_->rng, 0.5));
    }
    return r;
  }

 private:
  Instance* inst_;
  std::vector<uv::server::ClientWhatIf> whatifs_;
  uint64_t seq_ = 0;
};

struct PhaseStats {
  std::vector<double> commit_ms;  // due -> done, completed commits
  std::vector<double> whatif_ms;  // send -> done, completed analyzes
  std::vector<double> late_ms;    // send - due
  uint64_t sent = 0, ok = 0, shed = 0, errors = 0;
  double wall_s = 0;
};

/// Offers `rps` for `seconds` from one thread per connection; request i is
/// due at start + i / rps and goes out on whichever connection is free.
/// Nothing is sent after `seconds`: above capacity the phase ends on time
/// with its backlog unsent.
std::vector<Record> OfferLoad(
    const std::vector<std::unique_ptr<uv::server::UvClient>>& clients,
    Stream* stream, double rps, double seconds, SpanLog* spans,
    bool toggle_tracing) {
  const uint64_t total = uint64_t(rps * seconds);
  const uint64_t start_us = NowMicros() + 2000;
  const uint64_t end_us = start_us + uint64_t(seconds * 1e6);
  std::mutex mu;  // guards next, stop and the stream
  uint64_t next = 0;
  bool stop = false;
  std::vector<Record> records(total);
  // Traced runs alternate 0.5 s slices with spans on and off.
  std::atomic<bool> done{false};
  std::thread toggler;
  if (toggle_tracing) {
    toggler = std::thread([&] {
      for (bool on = false; !done.load(); on = !on) {
        spans->SetActive(on);
        for (int i = 0; i < 50 && !done.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
      spans->SetActive(false);
    });
  }
  std::vector<std::thread> senders;
  for (const auto& client : clients) {
    senders.emplace_back([&, c = client.get()] {
      for (;;) {
        uint64_t i;
        Request req;
        {
          std::lock_guard<std::mutex> g(mu);
          if (stop || next >= total) return;
          i = next++;
          req = stream->Next();
        }
        Record& rec = records[i];
        rec.analyze = req.analyze;
        rec.due_us = start_us + uint64_t(double(i) * 1e6 / rps);
        const uint64_t now = NowMicros();
        if (now < rec.due_us) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(rec.due_us - now));
        } else if (now > end_us) {
          std::lock_guard<std::mutex> g(mu);
          stop = true;
          return;
        }
        rec.traced = spans->active();
        uv::Result<std::string> r = uv::Status::OK();
        {
          SpanLog::Scope s(spans,
                           req.analyze ? "server.UvClient.Analyze"
                                       : "server.UvClient.ExecSql",
                           req.seq);
          rec.send_us = NowMicros();
          if (req.analyze) {
            req.whatif.want_report = rec.traced;
            r = c->Analyze(req.whatif,
                           rec.traced ? &rec.report_json : nullptr);
          } else {
            r = c->ExecSql(req.sql);
          }
          rec.done_us = NowMicros();
        }
        if (r.ok()) {
          rec.outcome = Outcome::kOk;
        } else if (r.status().code() == uv::StatusCode::kResourceExhausted) {
          rec.outcome = Outcome::kShed;
        } else {
          rec.outcome = Outcome::kError;
          std::lock_guard<std::mutex> g(mu);
          std::fprintf(stderr, "perfbench: request %llu: %s\n",
                       (unsigned long long)req.seq,
                       r.status().ToString().c_str());
        }
      }
    });
  }
  for (auto& t : senders) t.join();
  done.store(true);
  if (toggler.joinable()) toggler.join();
  return records;
}

PhaseStats Summarize(const std::vector<Record>& records) {
  PhaseStats s;
  uint64_t first_due = UINT64_MAX, last_done = 0;
  for (const Record& r : records) {
    if (r.outcome == Outcome::kNotSent) continue;
    ++s.sent;
    first_due = std::min(first_due, r.due_us);
    last_done = std::max(last_done, r.done_us);
    s.late_ms.push_back(double(r.send_us - std::min(r.send_us, r.due_us)) /
                        1000.0);
    switch (r.outcome) {
      case Outcome::kOk:
        ++s.ok;
        if (r.analyze) {
          s.whatif_ms.push_back(double(r.done_us - r.send_us) / 1000.0);
        } else {
          s.commit_ms.push_back(double(r.done_us - r.due_us) / 1000.0);
        }
        break;
      case Outcome::kShed:
        ++s.shed;
        break;
      default:
        ++s.errors;
        break;
    }
  }
  if (last_done > first_due) s.wall_s = double(last_done - first_due) / 1e6;
  return s;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

/// What one phase measured, plus the traced extras of the nominal phase.
struct Phase {
  std::vector<Record> records;
  PhaseStats stats;
  RegistrySample delta;  // registry delta over the offered load
  double setup_s = 0, load_ms = 0, analyze_us = 0, log_bytes = 0;
};

/// Sets up a fresh server (timed as set-up), offers one rate, drains, and
/// checks the drained state against WAL recovery. `after_drain` runs on
/// the drained engine before the server goes away.
template <typename AfterDrain>
Phase ServePhase(const RunConfig& cfg, double rps, double seconds,
                 SpanLog* spans, bool trace, RunResult* out,
                 AfterDrain&& after_drain) {
  Phase ph;
  const std::string wal = cfg.out_dir + "/serve.wal";
  const std::string fp = cfg.out_dir + "/serve.fp";
  ::unlink(wal.c_str());
  ::unlink(fp.c_str());

  const double t0 = NowSeconds();
  uv::server::ServerOptions sopts;
  sopts.workers = kMaxConnections;
  sopts.engine.replay_threads = kReplayThreads;
  sopts.engine.wal_path = wal;
  sopts.engine.wal_fsync_every_n = kFsyncEveryN;
  sopts.fingerprint_out = fp;
  uv::Result<std::unique_ptr<uv::server::UvServer>> srv =
      uv::server::UvServer::Start(sopts);
  if (!srv.ok()) {
    out->Fail("server start: " + srv.status().ToString());
    return ph;
  }
  Instance inst;
  SetupOptions so{"tatp", kHistory, 0.5, cfg.seed};
  uv::Status st = SetupInstance(so, (*srv)->engine(), &inst);
  ph.setup_s = NowSeconds() - t0;
  ph.load_ms = inst.load_ms;
  uv::core::Ultraverse* engine = (*srv)->engine();
  if (st.ok()) {
    // Outside set-up: the analysis the first what-if would otherwise pay.
    const uint64_t a0 = NowMicros();
    uv::Result<const std::vector<uv::core::QueryRW>*> a =
        engine->EnsureAnalysis();
    const double n = double(engine->log()->size());
    ph.analyze_us = double(NowMicros() - a0) / n;
    ph.log_bytes = double(engine->UltraverseLogBytes()) / n;
    if (!a.ok()) st = a.status();
  }
  if (!st.ok()) {
    out->Fail("setup: " + st.ToString());
    (*srv)->RequestDrain();
    (void)(*srv)->WaitShutdown();
    return ph;
  }

  // Analyze targets: hot transactions near the end of the preloaded
  // history, so snapshot rebuilds rather than long replays dominate.
  // Three ops of distinct cost keep the median inside one op's cluster.
  std::vector<uv::server::ClientWhatIf> whatifs;
  for (double at : {0.90, 0.95}) {
    const HistoryTxn* t = HotTxnAt(inst, "UpdateSubscriberData", at);
    if (!t) break;
    uv::server::ClientWhatIf remove;
    remove.kind = 1;  // core::RetroOp::Kind::kRemove on the wire
    remove.index = t->index;
    whatifs.push_back(remove);
    if (whatifs.size() == 1) {
      uv::server::ClientWhatIf change = remove;
      change.kind = 2;  // kChange
      change.new_sql = CallSql(engine, ChangedCall(t->call));
      whatifs.push_back(change);
    }
  }
  if (whatifs.size() != 3) {
    out->Fail("no hot transaction near the end of the history");
  }

  const int conns = std::max(
      1, std::min<int>(kMaxConnections,
                       int(std::thread::hardware_concurrency())));
  std::vector<std::unique_ptr<uv::server::UvClient>> clients;
  for (int c = 0; c < conns && out->correct; ++c) {
    uv::Result<std::unique_ptr<uv::server::UvClient>> cl =
        uv::server::UvClient::Connect("127.0.0.1", (*srv)->port());
    if (!cl.ok()) {
      out->Fail("connect: " + cl.status().ToString());
      break;
    }
    clients.push_back(std::move(*cl));
  }
  if (out->correct) {
    Stream stream(&inst, whatifs);
    const RegistrySample before = RegistrySample::Take();
    ph.records = OfferLoad(clients, &stream, rps, seconds, spans, trace);
    ph.delta = RegistrySample::Take().Delta(before);
    ph.stats = Summarize(ph.records);
    // A shed request is a typed refusal: it counts as failed without
    // making the run incorrect. Any other error does both.
    out->attempted += ph.stats.sent;
    out->failed += ph.stats.shed;
    for (uint64_t e = 0; e < ph.stats.errors; ++e) out->Fail("request error");
  }
  clients.clear();

  // Drain, then WAL recovery must rebuild the exact final state.
  (*srv)->RequestDrain();
  uv::Status drained = (*srv)->WaitShutdown();
  if (!drained.ok()) out->Fail("drain: " + drained.ToString());
  const std::string served = ReadFile(fp);
  uv::Result<uv::fault::RecoveredState> rec = uv::fault::RecoverState(wal);
  if (!rec.ok()) {
    out->Fail("recovery: " + rec.status().ToString());
  } else if (served.empty() ||
             uv::core::FingerprintDatabase(*rec->db) != served) {
    out->Fail("WAL-recovered fingerprint differs from the drained server's");
  }
  after_drain(engine);
  srv->reset();
  ::unlink(wal.c_str());
  ::unlink(fp.c_str());
  return ph;
}

/// Per-layer metrics of the traced nominal phase.
void ReportServeLayers(const Phase& nominal,
                       const std::vector<double>& load_ms, RunResult* out) {
  std::vector<double> on, off, exec_rtt, analyze_rtt;
  std::vector<WhatIfSample> samples;
  for (const Record& r : nominal.records) {
    if (r.outcome != Outcome::kOk) continue;
    const double rtt_us = double(r.done_us - r.send_us);
    if (!r.analyze) {
      (r.traced ? on : off).push_back(double(r.done_us - r.due_us) / 1000.0);
      if (r.traced) exec_rtt.push_back(rtt_us);
      continue;
    }
    if (!r.traced) continue;
    analyze_rtt.push_back(rtt_us);
    std::optional<uv::obs::WhatIfReport> rep =
        uv::obs::WhatIfReport::FromJson(r.report_json);
    if (!rep) continue;
    WhatIfSample s;
    s.stats.suffix_size = rep->suffix_size;
    s.stats.replayed = rep->replayed;
    s.stats.skipped = rep->skipped;
    s.stats.report = std::move(*rep);
    // The report phases partition the server's what-if time, not the
    // client's; leave wall_ms at 0 so no wire time counts as unphased.
    samples.push_back(std::move(s));
  }
  ReportWhatIfLayers(samples, samples.size(), out);

  const RegistrySample& d = nominal.delta;
  auto mean_hist = [&](const char* name) {
    const uint64_t c = d.HistCount(name);
    return c ? double(d.HistSum(name)) / double(c) : 0.0;
  };
  const double analyses = double(d.Counter("uv.whatif.analyze.ops"));
  if (analyses > 0) {
    out->Set("core.rollback_commits_per_whatif",
             double(d.Counter("uv.staging.rollback.commits")) / analyses,
             "count");
    out->Set("core.plan_members_per_whatif",
             double(d.Counter("uv.depgraph.plan.members")) / analyses, "count");
  }
  const double busy = double(d.HistSum("uv.replay.worker.busy_us"));
  const double idle = double(d.HistSum("uv.replay.worker.idle_us"));
  out->Set("core.worker_busy_ratio", busy + idle ? busy / (busy + idle) : 0,
           "ratio");
  out->Set("core.snapshot_ms", mean_hist("uv.whatif.snapshot.build_us") / 1000,
           "ms");
  out->Set("core.analyze_us_per_entry", nominal.analyze_us, "us");
  out->Set("server.wire_overhead_us.exec",
           Mean(exec_rtt) - mean_hist("uv.server.exec_us"), "us");
  out->Set("server.wire_overhead_us.analyze",
           Mean(analyze_rtt) - mean_hist("uv.server.whatif_us"), "us");
  out->Set("server.admission_rejected",
           double(d.Counter("uv.server.admission.rejected")), "count");
  auto top = d.top_bucket.find("uv.server.queue_depth");
  const unsigned b = top == d.top_bucket.end() ? 0 : top->second;
  // Bucket b holds depths in [2^(b-1), 2^b): report its lower bound.
  out->Set("server.queue_depth_max", b ? double(uint64_t(1) << (b - 1)) : 0,
           "count");
  out->Set("server.gen_late_ms", Percentile(nominal.stats.late_ms, 0.99), "ms");
  out->Set("transpiler.load_ms", Median(load_ms), "ms");
  out->Set("obs.trace_overhead_pct", TraceOverheadPct(on, off), "%");
}

}  // namespace

void RunTatpServe(const RunConfig& cfg, RunResult* out) {
  SpanLog spans;
  std::vector<double> setup_s, load_ms;
  Phase nominal = ServePhase(
      cfg, kNominalRps, cfg.seconds * kNominalShare, &spans, cfg.trace, out,
      [&](uv::core::Ultraverse* engine) {
        if (cfg.trace && out->correct) {
          ProbeLayers(cfg, engine, "subscriber", kFsyncEveryN, &spans, out);
        }
      });
  if (!out->correct) return;
  // Memory of serving at the nominal rate; the capacity probe below holds
  // a varying number of snapshots at once and is not part of it.
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
  setup_s.push_back(nominal.setup_s);
  load_ms.push_back(nominal.load_ms);

  // Capacity: above it the backlog grows without bound, so what an
  // overloaded server completes per second is the highest rate it sustains.
  std::vector<double> completed;
  for (int i = 0; i < kProbes; ++i) {
    Phase probe = ServePhase(cfg, kProbeRps,
                             cfg.seconds * (1 - kNominalShare) / kProbes,
                             &spans, false, out, [](uv::core::Ultraverse*) {});
    if (!out->correct) return;
    setup_s.push_back(probe.setup_s);
    const PhaseStats& ps = probe.stats;
    completed.push_back(ps.wall_s ? double(ps.ok) / ps.wall_s : 0);
  }

  const PhaseStats& ns = nominal.stats;
  out->Set("setup_s", Median(setup_s), "s");
  out->Set("whatif_p50_ms", Percentile(ns.whatif_ms, 0.5), "ms");
  out->Set("whatif_p90_ms", Percentile(ns.whatif_ms, 0.9), "ms");
  out->Set("commit_p50_ms", Percentile(ns.commit_ms, 0.5), "ms");
  out->Set("commit_p99_ms", Percentile(ns.commit_ms, 0.99), "ms");
  out->Set("ops_per_s", ns.wall_s ? double(ns.ok) / ns.wall_s : 0, "1/s");
  out->Set("max_rate_rps", Median(completed), "1/s");
  out->Set("log_bytes_per_txn", nominal.log_bytes, "B");
  if (!cfg.trace) return;
  ReportServeLayers(nominal, load_ms, out);
  FinishSpans(cfg, spans);
}

}  // namespace perfbench
