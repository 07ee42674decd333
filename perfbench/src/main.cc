// perfbench driver: runs one workload in this process and prints the
// result as one JSON object on the last line of standard output.
//
//   uv_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --out-dir <dir>
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write the benchmark's spans under --out-dir.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: uv_perfbench --workload epinions-hot-whatif|tatp-serve"
               " --seed N --seconds S --trace 0|1 --out-dir DIR\n");
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + JsonNumber(vu.first) +
         ", \"unit\": \"" + vu.second + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  cfg.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (!std::strcmp(k, "--workload")) {
      cfg.workload = v;
    } else if (!std::strcmp(k, "--seed")) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(k, "--seconds")) {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (!std::strcmp(k, "--trace")) {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (!std::strcmp(k, "--out-dir")) {
      cfg.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) return Usage();

  RunResult result;
  if (cfg.workload == "epinions-hot-whatif") {
    RunEpinionsHotWhatIf(cfg, &result);
  } else if (cfg.workload == "tatp-serve") {
    RunTatpServe(cfg, &result);
  } else {
    return Usage();
  }
  if (result.attempted == 0) result.Fail("no operation attempted");
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }

  if (cfg.trace) {
    // Per-layer metrics only; a layer a workload does not exercise reads 0.
    RunResult layers = result;
    layers.metrics.clear();
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = result.metrics.find(name);
      layers.Set(name, it == result.metrics.end() ? 0 : it->second.first,
                 unit);
    }
    PrintResult(layers);
  } else {
    RunResult e2e = result;
    e2e.metrics.clear();
    for (const char* name :
         {"setup_s", "whatif_p50_ms", "whatif_p90_ms", "commit_p50_ms",
          "commit_p99_ms", "ops_per_s", "max_rate_rps", "peak_rss_mb",
          "log_bytes_per_txn"}) {
      auto it = result.metrics.find(name);
      if (it == result.metrics.end()) {
        e2e.Fail(std::string("metric not measured: ") + name);
        continue;
      }
      e2e.metrics[name] = it->second;
    }
    e2e.Set("ok_frac",
            double(result.attempted - result.failed) /
                double(std::max<uint64_t>(result.attempted, 1)),
            "ratio");
    PrintResult(e2e);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
