// perfbench — the repository benchmark binary. run.py builds it and
// calls it once per run:
//
//   perfbench --workload compile-cold|explore-warm|daemon-mix --seed N
//             --seconds S --trace 0|1 [--root DIR] [--socket PATH]
//             [--trace-out FILE]
//   perfbench --self-test [--root DIR]
//
// It prints every metric with its unit, one per line, then as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics", "exact"}.
// "metrics" holds the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1); "exact" holds the values that must repeat exactly
// across runs and seeds of one build, which run.py compares across runs.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile-cold|explore-warm|daemon-mix --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--socket PATH] [--trace-out FILE]\n"
               "       perfbench --self-test [--root DIR]\n");
  return 2;
}

int processors() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string jsonMetrics(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void printTable(const char* title, const MetricMap& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-28s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

} // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string root = ".";
  std::string traceOut;
  bool selfTest = false;
  cfg.socketPath = "perfbench-" + std::to_string(::getpid()) + ".sock";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      selfTest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--root") {
      root = value;
    } else if (arg == "--socket") {
      cfg.socketPath = value;
    } else if (arg == "--trace-out") {
      traceOut = value;
    } else {
      return usage();
    }
  }
  cfg.workers = processors();

  try {
    const Inputs in = loadInputs(root);
    if (selfTest) return perfbench::selfTest(in);
    if (cfg.seconds <= 0) return usage();

    Checker checker;
    RunReport report;
    if (cfg.workload == "compile-cold") {
      report = runCompileCold(cfg, in, checker);
    } else if (cfg.workload == "explore-warm") {
      report = runExploreWarm(cfg, in, checker);
    } else if (cfg.workload == "daemon-mix") {
      report = runDaemonMix(cfg, in, checker);
    } else {
      return usage();
    }
    // QoR of the checked design points, unless the workload measured its
    // own (explore-warm reports the sweep's).
    report.endToEnd.insert({"peak_rss_mib", {peakRssMib(), "MiB"}});
    const MetricMap qor = checker.qorMetrics();
    report.endToEnd.insert(qor.begin(), qor.end());
    report.exact.insert(qor.begin(), qor.end());
    const MetricMap ir = checker.irCounts();
    report.exact.insert(ir.begin(), ir.end());
    if (cfg.trace) report.layers.insert(ir.begin(), ir.end());

    const int64_t failed = checker.failures();
    const double errorRate =
        report.attempted > 0 ? static_cast<double>(failed) / static_cast<double>(report.attempted)
                             : 1.0;
    std::printf("workload %s, seed %llu, %.0f s window, %d processors%s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.workers,
                cfg.trace ? ", traced" : "");
    for (const auto& note : report.notes) std::printf("  %s\n", note.c_str());
    printTable(cfg.trace ? "per-layer metrics:" : "end-to-end metrics:",
               cfg.trace ? report.layers : report.endToEnd);
    std::printf("  %-28s %16.6g ratio (%lld failed of %lld attempted)\n", "error_rate", errorRate,
                static_cast<long long>(failed), static_cast<long long>(report.attempted));

    if (cfg.trace && !traceOut.empty()) {
      std::vector<std::pair<std::string, const SpanLog*>> logs;
      for (const auto& [name, log] : report.logs) logs.emplace_back(name, &log);
      if (!writeChromeTrace(traceOut, logs)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", traceOut.c_str());
        return 1;
      }
      std::printf("  spans written to %s\n", traceOut.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s, "
                "\"exact\": %s}\n",
                failed == 0 ? "true" : "false", static_cast<long long>(report.attempted),
                static_cast<long long>(failed),
                jsonMetrics(cfg.trace ? report.layers : report.endToEnd).c_str(),
                jsonMetrics(report.exact).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
