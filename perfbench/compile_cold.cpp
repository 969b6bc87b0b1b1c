#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

double tailQuantile(size_t samples) {
  if (samples == 0) return 0.5;
  return std::max(0.5, std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples)));
}

std::vector<double> buildReferences(const Inputs& in, Checker& checker, uint64_t seed, int reps) {
  std::vector<double> seconds;
  std::vector<roccc::CompileResult> results;
  for (int rep = 0; rep < reps; ++rep) {
    const double start = nowMs();
    results = compileAll(in);
    seconds.push_back((nowMs() - start) / 1000.0);
  }
  checker.adoptReferences(in, std::move(results), seed);
  return seconds;
}

RunReport runCompileCold(const RunConfig& cfg, const Inputs& in, Checker& checker) {
  RunReport report;
  // Set-up is one cold compile of every design point, which also yields the
  // checked reference outputs the timed jobs are compared against.
  const std::vector<double> setup = buildReferences(in, checker, cfg.seed, kSetupReps);

  ShuffledRounds draw(in.points.size(), cfg.seed);
  PipelineTrace pipe;
  std::vector<std::vector<double>> perPoint(in.points.size());
  const double start = nowMs();
  while (nowMs() - start < cfg.seconds * 1000.0) {
    const size_t p = draw.next();
    const DesignPoint& point = in.points[p];
    roccc::CompileResult r;
    // Traced runs alternate traced and untraced jobs over the same draw, so
    // the difference of their medians is the tracing overhead.
    const bool traced = cfg.trace && report.attempted % 2 == 0;
    perPoint[p].push_back(
        pipe.compile(point.options, in.sourceOf(point), point.label, report.attempted, traced, r));
    ++report.attempted;
    if (!r.ok) {
      checker.fail(point.label + " did not compile");
    } else {
      checker.vhdlMatches(p, r.vhdl);
    }
  }

  // Each design point is compiled many times; its fastest compile in the
  // window is its cost. On a shared host the machine's speed drifts by up to
  // 2x over seconds with other tenants' load (thread CPU time tracks wall
  // time, so it is contention for shared hardware, not descheduling); the
  // fastest repetition filters that drift, where the median of all jobs
  // does not.
  std::vector<double> fastest;
  for (const auto& times : perPoint) {
    if (!times.empty()) fastest.push_back(*std::min_element(times.begin(), times.end()));
  }
  const double q = tailQuantile(fastest.size());
  report.endToEnd = {
      {"setup_s", {median(setup), "s"}},
      {"latency_ms_p50", {median(fastest), "ms"}},
      {"latency_ms_tail", {quantile(fastest, q), "ms"}},
      {"throughput_per_s", {perSecond(static_cast<double>(fastest.size()), sum(fastest)), "1/s"}},
  };
  report.notes.push_back(std::to_string(report.attempted) + " compiles of " +
                         std::to_string(fastest.size()) +
                         " design points; latency is each point's fastest compile, p50 and tail "
                         "(p" + fixed(q * 100, 1) + ") over the points; throughput is one "
                         "compile of every point at those times");
  if (cfg.trace) {
    report.layers = pipe.metrics();
    report.logs.emplace_back("compile-cold", pipe.log());
    ExploreRun probe = exploreLoop(cfg, in, checker, 0, kExploreProbeSweeps);
    report.layers.insert(probe.cache.begin(), probe.cache.end());
    report.layers.insert(probe.explore.begin(), probe.explore.end());
    DaemonRun daemon = daemonLoop(cfg, in, checker, kDaemonProbeSeconds);
    report.layers.insert(daemon.daemon.begin(), daemon.daemon.end());
    report.attempted += static_cast<int64_t>(probe.sweepMs.size()) + daemon.requests;
    for (auto& l : probe.logs) report.logs.push_back(std::move(l));
    for (auto& l : daemon.logs) report.logs.push_back(std::move(l));
    report.notes.push_back("layer sources: pipeline from the compile loop; cache and explore from "
                           "an explore-warm probe; daemon from a daemon-mix probe");
  }
  return report;
}

} // namespace perfbench
