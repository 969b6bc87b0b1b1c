// The benchmark workloads (BENCHMARK.json declares the first two; README
// says why). Each one sets up, measures for the configured window, checks
// every output and reports its metrics:
//
//   compile-cold  closed loop, one caller: fresh Compiler + compileSource
//                 per job, no cache. Every pass runs on every job and
//                 nothing is shared, so compile passes (emission above all)
//                 dominate; cache, daemon, synth::estimate and FastSim do
//                 no work here.
//   explore-warm  closed loop, one caller: repeated runSweep over the 66
//                 design points, FastSim cycle collection on, one shared
//                 CompileCache filled by a cold sweep during set-up. Cache
//                 reads, the serial recompile of every IR-less hit,
//                 synth::estimate and rtl::measureSystem.
//   daemon-mix    open loop at a fixed offered rate against an in-process
//                 ServiceDaemon with its cache: ~80% repeats of served keys,
//                 ~20% fresh constant-changed variants (cache writes beside
//                 reads, under concurrency). The only workload that drives
//                 the wire, admission and the worker pool.
//
// A traced run (--trace 1) reports per-layer metrics in four families:
// pipeline (every workload's own compiles), cache, explore and daemon. A
// family the workload's own loop does not drive is measured by a short
// probe of the workload that does, so every family has a value on every
// workload; the report names the source of each family.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "checker.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string socketPath; ///< AF_UNIX path for the daemon (inside the checkout)
  int workers = 1;        ///< processors available to this process
};

struct RunReport {
  MetricMap endToEnd; ///< untraced runs
  MetricMap layers;   ///< traced runs
  /// Values that must repeat exactly across runs and seeds of one build.
  MetricMap exact;
  /// Timed operations; every failure is recorded through the Checker.
  int64_t attempted = 0;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, SpanLog>> logs;
};

/// Set-up repetitions; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// The highest percentile, capped at p99, that leaves at least ten samples
/// beyond it — the latency_ms_tail definition.
double tailQuantile(size_t samples);

RunReport runCompileCold(const RunConfig& cfg, const Inputs& in, Checker& checker);
RunReport runExploreWarm(const RunConfig& cfg, const Inputs& in, Checker& checker);
RunReport runDaemonMix(const RunConfig& cfg, const Inputs& in, Checker& checker);

// --- shared phases -------------------------------------------------------------

/// Compiles every design point `reps` times (fresh Compiler each, no cache),
/// adopts the last set as the checker's references, and returns the seconds
/// each repetition took.
std::vector<double> buildReferences(const Inputs& in, Checker& checker, uint64_t seed, int reps);

/// The explore-warm loop; `minSweeps` bounds a short probe from below.
struct ExploreRun {
  std::vector<double> setupS;
  std::vector<double> sweepMs;
  int points = 0;
  int64_t hitsPerSweep = 0, missesPerSweep = 0;
  MetricMap qor;
  MetricMap pipeline, cache, explore; ///< traced runs only
  std::vector<std::pair<std::string, SpanLog>> logs;
};
ExploreRun exploreLoop(const RunConfig& cfg, const Inputs& in, Checker& checker, double seconds,
                       int minSweeps);

/// The daemon-mix open loop over `seconds` of schedule.
struct DaemonRun {
  std::vector<double> setupS;
  std::vector<double> latencyMs; ///< completion minus due time
  int64_t requests = 0, rejected = 0, overLimit = 0;
  double windowMs = 0;
  MetricMap pipeline, cache, daemon; ///< traced runs only
  std::vector<std::pair<std::string, SpanLog>> logs;
  std::vector<std::string> notes;
};
DaemonRun daemonLoop(const RunConfig& cfg, const Inputs& in, Checker& checker, double seconds);

/// Seconds of schedule a daemon-mix probe runs in another workload's
/// traced run.
inline constexpr double kDaemonProbeSeconds = 2;
/// Sweeps an explore-warm probe runs in another workload's traced run.
inline constexpr int kExploreProbeSweeps = 2;

} // namespace perfbench
