// Thread-stress suite for the batch compilation driver: the fuzz-kernel
// generator (kernel_fuzzer.hpp, the same one fuzz_test.cpp drives) feeds
// CompileService with 8 workers and many distinct seeds, and every parallel
// result is compared byte-for-byte against a serial reference compile of
// the same seed. This is the workload the TSan preset (build-tsan) runs
// under ThreadSanitizer.
//
// Seed count: ROCCC_STRESS_SEEDS in the environment overrides the default
// (16). The `nightly`-labelled ctest entry (driver_stress_nightly, see
// tests/CMakeLists.txt) runs the heavy configuration — 8 workers x 64
// seeds — via that variable:
//
//   ctest -L nightly                      # the heavy sweep
//   ROCCC_STRESS_SEEDS=256 ./driver_stress_test   # heavier still, by hand
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "kernel_fuzzer.hpp"
#include "roccc/cache.hpp"
#include "roccc/compiler.hpp"
#include "roccc/driver.hpp"

namespace roccc {
namespace {

constexpr int kDefaultSeeds = 16;
constexpr int kWorkers = 8;

int seedCount() {
  if (const char* env = std::getenv("ROCCC_STRESS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return kDefaultSeeds;
}

/// One fuzz kernel per seed; generation is deterministic per seed.
std::vector<CompileJob> fuzzBatch(int seeds, uint64_t salt) {
  std::vector<CompileJob> jobs;
  jobs.reserve(seeds);
  for (int s = 0; s < seeds; ++s) {
    KernelFuzzer fuzzer(salt + static_cast<uint64_t>(s));
    CompileJob job;
    job.name = "seed-" + std::to_string(salt + static_cast<uint64_t>(s));
    job.source = fuzzer.generate().source;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(DriverStress, FuzzBatchOnEightWorkersMatchesSerialReference) {
  const int seeds = seedCount();
  std::vector<CompileJob> jobs = fuzzBatch(seeds, 0xace0fba5e);
  for (CompileJob& job : jobs) job.options.emitVerilog = true;

  const BatchResult parallel = CompileService(kWorkers).compileBatch(jobs);
  const BatchResult serial = CompileService(1).compileBatch(jobs);
  ASSERT_EQ(parallel.results.size(), jobs.size());

  int compiled = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CompileResult& p = parallel.results[i];
    const CompileResult& s = serial.results[i];
    ASSERT_EQ(p.ok, s.ok) << jobs[i].name << "\n" << jobs[i].source;
    ASSERT_TRUE(p.ok) << jobs[i].name << "\n" << jobs[i].source << "\n" << p.diags.dump();
    ASSERT_EQ(p.vhdl, s.vhdl) << jobs[i].name << "\n" << jobs[i].source;
    ASSERT_EQ(p.verilog, s.verilog) << jobs[i].name;
    ++compiled;
  }
  EXPECT_EQ(compiled, seeds);
}

TEST(DriverStress, RepeatedParallelSweepsAreStable) {
  // Re-running the same parallel batch must reproduce itself exactly —
  // catches state leaking *between* batches (warm caches, counters).
  const int seeds = std::min(seedCount(), 32);
  const std::vector<CompileJob> jobs = fuzzBatch(seeds, 0xbeefcafe);
  const CompileService service(kWorkers);
  const BatchResult first = service.compileBatch(jobs);
  const BatchResult second = service.compileBatch(jobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(first.results[i].ok, second.results[i].ok) << jobs[i].name;
    ASSERT_EQ(first.results[i].vhdl, second.results[i].vhdl) << jobs[i].name;
  }
}

TEST(DriverStress, MixedOptionsUnderContention) {
  // The option matrix the benches sweep, all in flight at once: unroll
  // factors and pipelining targets change per job while jobs race on the
  // pool. Each job still must match its own serial compile.
  std::vector<CompileJob> jobs;
  const int seeds = std::min(seedCount(), 24);
  for (int s = 0; s < seeds; ++s) {
    KernelFuzzer fuzzer(0x5eed5a17ull + static_cast<uint64_t>(s));
    CompileJob job;
    job.name = "mixed-" + std::to_string(s);
    job.source = fuzzer.generate().source;
    if (s % 3 == 1) job.options.unrollFactor = 2;
    if (s % 3 == 2) job.options.dpOptions.targetStageDelayNs = 1.5;
    if (s % 2 == 1) job.options.optimize = false;
    jobs.push_back(std::move(job));
  }
  const BatchResult parallel = CompileService(kWorkers).compileBatch(jobs);
  const BatchResult serial = CompileService(1).compileBatch(jobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(parallel.results[i].ok, serial.results[i].ok) << jobs[i].source;
    ASSERT_EQ(parallel.results[i].vhdl, serial.results[i].vhdl) << jobs[i].source;
  }
}

TEST(DriverStress, CacheToggledBatchesMatchSerialUncachedReference) {
  // The sharded compile cache under the same contention as the rest of the
  // suite: batches of fuzz kernels (with repeats, so hits and single-flight
  // coalescing actually occur) run with the cache randomly attached or
  // detached per round, on 8 workers, and every result must match the
  // serial uncached reference compile of the same kernel. This is the
  // cache's TSan workload in the build-tsan preset.
  const int seeds = std::min(seedCount(), 24);
  std::vector<CompileJob> distinct = fuzzBatch(seeds, 0xcac4ed);
  for (CompileJob& job : distinct) job.options.emitVerilog = true;

  // Serial uncached reference, one result per distinct kernel.
  const BatchResult reference = CompileService(1).compileBatch(distinct);

  auto cache = std::make_shared<CompileCache>();
  std::mt19937_64 rng(0x70991eull); // fixed seed; toggling must not matter
  for (int round = 0; round < 6; ++round) {
    // Each round draws ~2x the distinct set with repeats.
    std::vector<CompileJob> jobs;
    std::vector<size_t> origin;
    std::uniform_int_distribution<size_t> pick(0, distinct.size() - 1);
    for (size_t n = 0; n < distinct.size() * 2; ++n) {
      const size_t i = pick(rng);
      jobs.push_back(distinct[i]);
      origin.push_back(i);
    }
    CompileService service(kWorkers);
    const bool cached = round % 2 == 1 || (rng() & 1);
    if (cached) service.setCache(cache);

    const BatchResult batch = service.compileBatch(jobs);
    ASSERT_EQ(batch.results.size(), jobs.size());
    if (!cached) {
      EXPECT_EQ(batch.cacheHits + batch.cacheMisses, 0) << "round " << round;
    }
    for (size_t n = 0; n < jobs.size(); ++n) {
      const CompileResult& want = reference.results[origin[n]];
      ASSERT_EQ(batch.results[n].ok, want.ok) << "round " << round << " slot " << n;
      ASSERT_EQ(batch.results[n].vhdl, want.vhdl) << "round " << round << " slot " << n;
      ASSERT_EQ(batch.results[n].verilog, want.verilog) << "round " << round << " slot " << n;
    }
  }
  // Across the cached rounds the cache must have actually been exercised.
  const CacheStats stats = cache->stats();
  EXPECT_GT(stats.hits + stats.coalesced, 0);
  EXPECT_GT(stats.misses, 0);
}

} // namespace
} // namespace roccc
