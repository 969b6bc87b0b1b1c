#include <algorithm>
#include <map>
#include <memory>

#include "roccc/cache.hpp"
#include "roccc/explore.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// runSweep's per-point work, called directly on one warm point: cache key,
/// cache lookup, the recompile of the IR-less hit, synth::estimate and the
/// FastSim system run. Every call sits in its own span.
void decomposePoint(const roccc::SweepPoint& point, const roccc::SweepOptions& opt, size_t index,
                    bool tracedCompile, int64_t req, SpanLog& log, PipelineTrace& pipe,
                    Checker& checker) {
  std::string key;
  {
    SpanScope span(&log, "cache.key", "cache", req);
    key = roccc::computeCacheKey(point.source, point.options);
  }
  {
    SpanScope span(&log, "cache.lookup", "cache", req);
    if (!opt.cache->lookup(key)) checker.fail(point.label + " missed the warm cache");
  }
  roccc::CompileResult r;
  {
    SpanScope span(&log, "explore.recompile", "explore", req);
    pipe.compile(point.options, point.source, point.label, req, tracedCompile, r);
  }
  if (!r.ok) {
    checker.fail(point.label + " did not recompile");
    return;
  }
  checker.vhdlMatches(index, r.vhdl);
  {
    SpanScope span(&log, "synth.estimate", "synth", req);
    estimateDesign(r);
  }
  {
    SpanScope span(&log, "rtl.fastsim", "fastsim", req);
    simulateDesign(r);
  }
}

} // namespace

ExploreRun exploreLoop(const RunConfig& cfg, const Inputs& in, Checker& checker, double seconds,
                       int minSweeps) {
  ExploreRun run;
  roccc::SweepGrid grid;
  for (const Kernel& k : in.kernels) grid.kernels.push_back({k.name, k.source, k.targetNs});
  grid.unrolls.assign(std::begin(kUnrolls), std::end(kUnrolls));
  const std::vector<roccc::SweepPoint> points = roccc::expandGrid(grid);
  run.points = static_cast<int>(points.size());
  // The sweep must visit exactly the design points the checker holds.
  bool aligned = points.size() == in.points.size();
  for (size_t i = 0; aligned && i < points.size(); ++i) {
    aligned = points[i].kernel == in.kernels[in.points[i].kernel].name &&
              points[i].config.unroll == in.points[i].unroll;
  }
  if (!aligned) {
    checker.fail("the sweep grid does not expand to the benchmark's design points");
    return run;
  }

  roccc::SweepOptions opt;
  opt.workers = cfg.workers;
  opt.collectCycles = true;
  // Set-up: cold sweeps into fresh caches; the last cache stays for the
  // timed warm sweeps and its report is the one every warm sweep must equal.
  std::string reference;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    opt.cache = std::make_shared<roccc::CompileCache>();
    const double start = nowMs();
    const roccc::SweepResult cold = roccc::runSweep(points, opt);
    run.setupS.push_back((nowMs() - start) / 1000.0);
    if (rep + 1 < kSetupReps) continue;
    reference = cold.toJson(false);
    std::vector<Qor> qor;
    for (size_t i = 0; i < cold.points.size(); ++i) {
      const roccc::SweepPointResult& p = cold.points[i];
      if (p.outcome != roccc::PointOutcome::Ok) {
        checker.fail(p.point.label + " failed in the cold sweep: " + p.error);
        continue;
      }
      const Qor q{static_cast<double>(p.metrics.slices), p.metrics.fmaxMHz,
                  static_cast<double>(p.metrics.cycles)};
      const Qor& want = checker.qor(i);
      if (q.slices != want.slices || q.fmaxMHz != want.fmaxMHz || q.cycles != want.cycles) {
        checker.fail(p.point.label + ": sweep QoR differs from the checked compile's");
      }
      qor.push_back(q);
    }
    run.qor = qorGeomeans(qor);
  }

  SpanLog log;
  SpanLog* traceLog = cfg.trace ? &log : nullptr;
  PipelineTrace pipe;
  int64_t hits = 0, misses = 0;
  const double start = nowMs();
  for (int k = 0; k < minSweeps || nowMs() - start < seconds * 1000.0; ++k) {
    const double sweepStart = nowMs();
    roccc::SweepResult warm;
    {
      SpanScope span(traceLog, "explore.sweep", "explore", k);
      warm = roccc::runSweep(points, opt);
    }
    run.sweepMs.push_back(nowMs() - sweepStart);
    checker.sameText(reference, warm.toJson(false), "report of warm sweep " + std::to_string(k));
    if (k == 0) {
      run.hitsPerSweep = warm.cacheHits;
      run.missesPerSweep = warm.cacheMisses;
    } else if (warm.cacheHits != run.hitsPerSweep || warm.cacheMisses != run.missesPerSweep) {
      checker.fail("cache hit and miss counts changed between warm sweeps");
    }
    hits += warm.cacheHits;
    misses += warm.cacheMisses;
    if (!cfg.trace) continue;
    // Alternate traced and untraced recompiles so that, over two sweeps,
    // every point is compiled once each way.
    for (size_t i = 0; i < points.size(); ++i) {
      decomposePoint(points[i], opt, i, (i + k) % 2 == 0, k * 1000 + static_cast<int64_t>(i), log,
                     pipe, checker);
    }
  }
  if (!cfg.trace) return run;

  std::map<std::string, double> totalMs;
  std::map<std::string, int64_t> count;
  for (const Span& s : log.spans()) {
    totalMs[s.name] += s.ms();
    ++count[s.name];
  }
  const double sweeps = static_cast<double>(run.sweepMs.size());
  const auto perSweep = [&](const char* name) { return totalMs[name] / sweeps; };
  const auto perCall = [&](const char* name) {
    return count[name] > 0 ? totalMs[name] / static_cast<double>(count[name]) : 0.0;
  };
  const double parts = perSweep("cache.key") + perSweep("cache.lookup") +
                       perSweep("explore.recompile") + perSweep("synth.estimate") +
                       perSweep("rtl.fastsim");
  run.explore = {
      {"explore.sweeps", {sweeps, "count"}},
      {"explore.sweep_ms", {perSweep("explore.sweep"), "ms"}},
      {"explore.recompiles", {static_cast<double>(count["explore.recompile"]) / sweeps, "count"}},
      {"explore.recompile_ms", {perSweep("explore.recompile"), "ms"}},
      {"synth.estimate_ms", {perSweep("synth.estimate"), "ms"}},
      {"rtl.fastsim_ms", {perSweep("rtl.fastsim"), "ms"}},
      {"explore.other_ms", {perSweep("explore.sweep") - parts, "ms"}},
  };
  run.cache = {
      {"cache.key_ms", {perCall("cache.key"), "ms"}},
      {"cache.lookup_ms", {perCall("cache.lookup"), "ms"}},
      {"cache.hits", {static_cast<double>(hits), "count"}},
      {"cache.misses", {static_cast<double>(misses), "count"}},
      {"cache.hit_ratio", {hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
                           "ratio"}},
      {"cache.bytes", {static_cast<double>(opt.cache->stats().bytesInUse), "bytes"}},
  };
  run.pipeline = pipe.metrics();
  run.logs.emplace_back("explore-warm", std::move(log));
  run.logs.emplace_back("explore-warm recompiles", pipe.log());
  return run;
}

RunReport runExploreWarm(const RunConfig& cfg, const Inputs& in, Checker& checker) {
  RunReport report;
  buildReferences(in, checker, cfg.seed, 1);
  ExploreRun run = exploreLoop(cfg, in, checker, cfg.seconds, 1);
  report.attempted = static_cast<int64_t>(run.sweepMs.size());
  // Every sweep repeats the same input, so the fastest one is its cost, for
  // the reason compile-cold takes each design point's fastest compile. With
  // one distinct input, p50 and tail are both that sweep.
  const double fastest =
      run.sweepMs.empty() ? 0 : *std::min_element(run.sweepMs.begin(), run.sweepMs.end());
  report.endToEnd = {
      {"setup_s", {median(run.setupS), "s"}},
      {"latency_ms_p50", {fastest, "ms"}},
      {"latency_ms_tail", {fastest, "ms"}},
      {"throughput_per_s", {perSecond(run.points, fastest), "1/s"}},
  };
  report.endToEnd.insert(run.qor.begin(), run.qor.end());
  report.exact = {{"explore.hits_per_sweep", {static_cast<double>(run.hitsPerSweep), "count"}},
                  {"explore.misses_per_sweep", {static_cast<double>(run.missesPerSweep), "count"}}};
  report.notes.push_back(std::to_string(run.sweepMs.size()) + " warm sweeps of " +
                         std::to_string(run.points) + " points, median " +
                         fixed(median(run.sweepMs), 1) + " ms; latency is the fastest sweep; "
                         "throughput is sweep points per second at that sweep's speed; " +
                         std::to_string(run.hitsPerSweep) + " hits and " +
                         std::to_string(run.missesPerSweep) + " misses per sweep");
  if (cfg.trace) {
    report.layers = run.pipeline;
    report.layers.insert(run.cache.begin(), run.cache.end());
    report.layers.insert(run.explore.begin(), run.explore.end());
    DaemonRun daemon = daemonLoop(cfg, in, checker, kDaemonProbeSeconds);
    report.layers.insert(daemon.daemon.begin(), daemon.daemon.end());
    report.attempted += daemon.requests;
    for (auto& l : run.logs) report.logs.push_back(std::move(l));
    for (auto& l : daemon.logs) report.logs.push_back(std::move(l));
    report.notes.push_back("layer sources: pipeline from the recompiles of the sweep "
                           "decomposition; cache and explore from the sweep loop; daemon from a "
                           "daemon-mix probe");
  }
  return report;
}

} // namespace perfbench
