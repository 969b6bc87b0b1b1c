// Sweep-level cache and fault-containment battery:
//
//   ExploreCache  — a two-pass sweep over an overlapping grid against one
//                   disk cache directory: the second pass must report
//                   nonzero hits and produce byte-identical reports (the
//                   cache can never change what a sweep observes). Warm
//                   points are served from their metrics entries; those
//                   entries are keyed by everything the metrics depend on
//                   (compile key, buffer geometry, seed, collectCycles),
//                   so a warm cache never hands one sweep another's numbers.
//   ExploreFault  — fault injection at dp.retime and frontend.parse: the
//                   armed point comes back as a typed outcome row in the
//                   JSON without aborting the sweep, and every sibling
//                   point's metrics are unaffected.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>

#include "../bench/kernels.hpp"
#include "roccc/cache.hpp"
#include "roccc/explore.hpp"

namespace roccc {
namespace {

namespace fs = std::filesystem;

SweepGrid smallGrid() {
  SweepGrid grid;
  for (const char* name : {"fir", "udiv"}) {
    for (const auto& k : bench::kTable1Kernels) {
      if (std::string(name) == k.name) {
        grid.kernels.push_back({k.name, k.source, k.targetStageDelayNs});
      }
    }
  }
  grid.unrolls = {1, 2};
  return grid;
}

std::shared_ptr<CompileCache> diskCache(const std::string& dir) {
  CacheConfig cfg;
  cfg.diskDir = dir;
  auto cache = std::make_shared<CompileCache>(cfg);
  EXPECT_TRUE(cache->diskEnabled());
  return cache;
}

/// Field-by-field equality, doubles compared on their bits: the report
/// prints six significant digits, a stored metric must round-trip exactly.
void expectBitIdentical(const PointMetrics& a, const PointMetrics& b, const std::string& label) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(a.slices, b.slices) << label;
  EXPECT_EQ(a.lut4, b.lut4) << label;
  EXPECT_EQ(a.ff, b.ff) << label;
  EXPECT_EQ(a.mult18, b.mult18) << label;
  EXPECT_EQ(a.bram, b.bram) << label;
  EXPECT_EQ(a.stages, b.stages) << label;
  EXPECT_EQ(a.pipelineRegBits, b.pipelineRegBits) << label;
  EXPECT_EQ(a.balanceRegBits, b.balanceRegBits) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.bramReads, b.bramReads) << label;
  EXPECT_EQ(bits(a.criticalPathNs), bits(b.criticalPathNs)) << label;
  EXPECT_EQ(bits(a.fmaxMHz), bits(b.fmaxMHz)) << label;
  EXPECT_EQ(bits(a.throughput), bits(b.throughput)) << label;
  EXPECT_EQ(bits(a.energyPjPerCycle), bits(b.energyPjPerCycle)) << label;
  EXPECT_EQ(bits(a.edpPjNs), bits(b.edpPjNs)) << label;
}

TEST(ExploreCache, WarmPassHitsAndStaysByteIdentical) {
  const std::string dir = ::testing::TempDir() + "roccc_explore_cache_warm";
  fs::remove_all(dir);

  SweepOptions cold;
  cold.cache = diskCache(dir);
  const SweepResult first = runSweep(smallGrid(), cold);
  EXPECT_EQ(first.failedCount(), 0) << first.outcomeSummary();
  EXPECT_EQ(first.cacheHits, 0);
  EXPECT_GT(first.cacheMisses, 0);

  // A fresh cache object over the same directory: the disk tier alone must
  // serve the whole overlapping grid.
  SweepOptions warm;
  warm.cache = diskCache(dir);
  const SweepResult second = runSweep(smallGrid(), warm);
  EXPECT_GT(second.cacheHits, 0);
  EXPECT_EQ(second.cacheMisses, 0);
  EXPECT_EQ(second.metricHits, static_cast<int>(second.points.size()));
  EXPECT_EQ(first.toJson(), second.toJson());

  // An overlapping-but-larger grid still hits on the shared points.
  SweepGrid bigger = smallGrid();
  bigger.unrolls = {1, 2, 4};
  SweepOptions third;
  third.cache = diskCache(dir);
  const SweepResult overlapped = runSweep(bigger, third);
  EXPECT_GT(overlapped.cacheHits, 0);
  EXPECT_GT(overlapped.cacheMisses, 0); // the new unroll-4 points
  fs::remove_all(dir);
}

TEST(ExploreCache, SharedCacheAcrossSweepsKeepsInMemoryHits) {
  auto cache = std::make_shared<CompileCache>(CacheConfig{});
  SweepOptions opt;
  opt.cache = cache;
  const std::vector<SweepPoint> points = expandGrid(smallGrid());
  const SweepResult first = runSweep(points, opt);
  const SweepResult second = runSweep(points, opt);
  EXPECT_EQ(first.cacheHits, 0);
  EXPECT_EQ(first.metricHits, 0);
  EXPECT_GT(second.cacheHits, 0);
  EXPECT_EQ(second.cacheMisses, 0);
  // Every warm point is served from its metrics entry, bit for bit.
  EXPECT_EQ(second.metricHits, static_cast<int>(points.size()));
  EXPECT_EQ(first.toJson(), second.toJson());
  for (size_t i = 0; i < points.size(); ++i) {
    expectBitIdentical(first.points[i].metrics, second.points[i].metrics, points[i].label);
  }
  EXPECT_NE(second.toJson(true).find("\"metricHits\": " + std::to_string(points.size())),
            std::string::npos);
}

TEST(ExploreCache, GeometryVariantsOfOneCompileGetTheirOwnMetrics) {
  SweepGrid grid = smallGrid();
  grid.kernels.resize(1); // fir
  grid.unrolls = {1};
  grid.busElems = {1, 2};
  grid.smartBuffer = {true, false};
  const std::vector<SweepPoint> points = expandGrid(grid);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& p : points) {
    EXPECT_EQ(computeCacheKey(p.source, p.options),
              computeCacheKey(points[0].source, points[0].options));
  }

  SweepOptions opt;
  opt.cache = std::make_shared<CompileCache>(CacheConfig{});
  const SweepResult cold = runSweep(points, opt);
  ASSERT_EQ(cold.failedCount(), 0) << cold.outcomeSummary();
  EXPECT_EQ(cold.metricHits, 0);
  // One compile serves all four points; each geometry is measured apart.
  EXPECT_EQ(cold.cacheMisses, 1);
  const SweepResult warm = runSweep(points, opt);
  EXPECT_EQ(warm.metricHits, 4);
  EXPECT_EQ(cold.toJson(), warm.toJson());
  EXPECT_EQ(warm.toJson(), runSweep(points, SweepOptions{}).toJson());

  // bus 1 vs bus 2 changes the cycle count, smart vs naive the BRAM
  // traffic: had the geometry variants shared one metrics entry, these
  // would be equal.
  const auto& m = [&](int bus, bool smart) -> const PointMetrics& {
    for (const auto& r : warm.points) {
      if (r.point.config.busElems == bus && r.point.config.smartBuffer == smart) return r.metrics;
    }
    ADD_FAILURE() << "no point bus" << bus << (smart ? "/smart" : "/naive");
    return warm.points[0].metrics;
  };
  EXPECT_NE(m(1, true).cycles, m(2, true).cycles);
  EXPECT_NE(m(1, true).bramReads, m(1, false).bramReads);
}

TEST(ExploreCache, WarmCacheNeverServesStaleMetricsToAnotherSeedOrCycleSetting) {
  const std::vector<SweepPoint> points = expandGrid(smallGrid());
  auto cache = std::make_shared<CompileCache>(CacheConfig{});
  SweepOptions base;
  base.cache = cache;
  base.collectCycles = false;
  ASSERT_EQ(runSweep(points, base).failedCount(), 0);

  // collectCycles false -> true: the compiles hit, the metrics must not.
  SweepOptions cycles = base;
  cycles.collectCycles = true;
  const SweepResult withCycles = runSweep(points, cycles);
  EXPECT_EQ(withCycles.metricHits, 0);
  EXPECT_EQ(withCycles.cacheMisses, 0);
  SweepOptions coldCycles = cycles;
  coldCycles.cache = nullptr;
  EXPECT_EQ(withCycles.toJson(), runSweep(points, coldCycles).toJson());

  // Another stimulus seed over the same warm cache.
  SweepOptions reseeded = cycles;
  reseeded.seed = cycles.seed + 1;
  const SweepResult other = runSweep(points, reseeded);
  EXPECT_EQ(other.metricHits, 0);
  SweepOptions coldReseeded = reseeded;
  coldReseeded.cache = nullptr;
  EXPECT_EQ(other.toJson(), runSweep(points, coldReseeded).toJson());
}

TEST(ExploreCache, OneAndEightWorkersAgreeColdAndWarm) {
  const std::vector<SweepPoint> points = expandGrid(smallGrid());
  SweepOptions one;
  one.workers = 1;
  one.cache = std::make_shared<CompileCache>(CacheConfig{});
  SweepOptions eight;
  eight.workers = 8;
  eight.cache = std::make_shared<CompileCache>(CacheConfig{});
  const std::string reference = runSweep(points, one).toJson();
  EXPECT_EQ(reference, runSweep(points, eight).toJson());
  EXPECT_EQ(reference, runSweep(points, one).toJson());
  const SweepResult warmEight = runSweep(points, eight);
  EXPECT_EQ(warmEight.metricHits, static_cast<int>(points.size()));
  EXPECT_EQ(reference, warmEight.toJson());
}

// --- fault containment -------------------------------------------------------

/// Arms `faultPoint` on the single point whose label matches, leaving every
/// sibling untouched, and returns the sweep.
SweepResult sweepWithFaultAt(const std::string& label, const std::string& faultPoint) {
  std::vector<SweepPoint> points = expandGrid(smallGrid());
  bool armed = false;
  for (auto& p : points) {
    if (p.label == label) {
      p.options.injectFaultAt = faultPoint;
      armed = true;
    }
  }
  EXPECT_TRUE(armed) << label;
  return runSweep(points, SweepOptions{});
}

TEST(ExploreFault, RetimeFaultIsATypedRowSiblingsUnaffected) {
  const SweepResult clean = runSweep(smallGrid(), SweepOptions{});
  ASSERT_EQ(clean.failedCount(), 0) << clean.outcomeSummary();

  const SweepResult faulted = sweepWithFaultAt("fir@u2/ns4", "dp.retime");
  ASSERT_EQ(faulted.points.size(), clean.points.size());
  int failed = 0;
  for (size_t i = 0; i < faulted.points.size(); ++i) {
    const SweepPointResult& f = faulted.points[i];
    const SweepPointResult& c = clean.points[i];
    ASSERT_EQ(f.point.label, c.point.label);
    if (f.point.label == "fir@u2/ns4") {
      ++failed;
      EXPECT_EQ(f.outcome, PointOutcome::InternalError);
      EXPECT_FALSE(f.error.empty());
    } else {
      EXPECT_EQ(f.outcome, PointOutcome::Ok) << f.point.label;
      EXPECT_EQ(f.metrics.slices, c.metrics.slices) << f.point.label;
      EXPECT_EQ(f.metrics.cycles, c.metrics.cycles) << f.point.label;
      EXPECT_DOUBLE_EQ(f.metrics.fmaxMHz, c.metrics.fmaxMHz) << f.point.label;
    }
  }
  EXPECT_EQ(failed, 1);
  // The typed outcome is in the JSON — a faulted sweep reports, not aborts.
  EXPECT_NE(faulted.toJson().find("\"outcome\": \"internal-error\""), std::string::npos);
  // The faulted point is off the frontier; the kernel still has one.
  for (const auto& fr : faulted.frontiers) EXPECT_FALSE(fr.points.empty()) << fr.kernel;
}

TEST(ExploreFault, FrontendFaultIsContainedToo) {
  const SweepResult faulted = sweepWithFaultAt("udiv@u1/ns3", "frontend.parse");
  EXPECT_EQ(faulted.failedCount(), 1) << faulted.outcomeSummary();
  for (const auto& p : faulted.points) {
    if (p.point.label == "udiv@u1/ns3") {
      EXPECT_EQ(p.outcome, PointOutcome::InternalError);
    } else {
      EXPECT_EQ(p.outcome, PointOutcome::Ok) << p.point.label;
    }
  }
}

TEST(ExploreFault, FaultedSweepAgainstACacheDoesNotPoisonIt) {
  // Fault-injected compiles are never cached (cache_test.cpp), so a soak
  // against a shared cache leaves clean reruns clean.
  auto cache = std::make_shared<CompileCache>(CacheConfig{});
  std::vector<SweepPoint> points = expandGrid(smallGrid());
  for (auto& p : points) {
    if (p.label == "fir@u1/ns4") p.options.injectFaultAt = "dp.retime";
  }
  SweepOptions opt;
  opt.cache = cache;
  const SweepResult faulted = runSweep(points, opt);
  EXPECT_EQ(faulted.failedCount(), 1);

  const SweepResult clean = runSweep(smallGrid(), opt);
  EXPECT_EQ(clean.failedCount(), 0) << clean.outcomeSummary();
}

TEST(ExploreFault, FaultArmedPointAddsNoMetricsEntry) {
  // hlir.lut-convert is armed on a point that skips LUT conversion, so the
  // fault never fires and the point measures Ok — but an armed run is a
  // harness artifact and must store nothing, compile or metrics.
  SweepGrid grid = smallGrid();
  grid.lutConvert = {false};
  std::vector<SweepPoint> points = expandGrid(grid);
  ASSERT_EQ(points[0].label, "fir@u1/ns4/nolut");
  points[0].options.injectFaultAt = "hlir.lut-convert";
  auto cache = std::make_shared<CompileCache>(CacheConfig{});
  SweepOptions opt;
  opt.cache = cache;
  const SweepResult first = runSweep(points, opt);
  ASSERT_EQ(first.failedCount(), 0) << first.outcomeSummary();
  const int clean = static_cast<int>(points.size()) - 1;
  // One compile entry and one metrics entry per clean point, none for the
  // armed one.
  EXPECT_EQ(cache->stats().entries, 2 * clean);

  const SweepResult second = runSweep(points, opt);
  EXPECT_EQ(second.metricHits, clean);
  EXPECT_EQ(second.cacheMisses, 1); // the armed point compiles again
  EXPECT_EQ(first.toJson(), second.toJson());
  EXPECT_EQ(cache->stats().entries, 2 * clean);
}

} // namespace
} // namespace roccc
