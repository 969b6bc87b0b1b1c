// Tests for the content-addressed compile cache (src/roccc/cache.hpp):
// SHA-256 correctness, key derivation (sensitivity to every semantic option,
// invariance to presentation-only ones), tier-1 hit/miss/eviction behaviour,
// single-flight deduplication under a worker stampede, the negative-caching
// policy, and the tier-2 disk store (warm restart, corruption, schema
// mismatch — all of which must read as silent misses, never errors).
//
// The load-bearing property throughout: a result served from the cache is
// byte-identical to a fresh compile of the same (source, options) — the
// same artifact bytes the determinism suite (driver_test.cpp) guarantees
// across worker counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "../bench/kernels.hpp"
#include "roccc/cache.hpp"
#include "roccc/driver.hpp"
#include "option_perturb.hpp"
#include "support/hash.hpp"

namespace roccc {
namespace {

namespace fs = std::filesystem;

// A small valid kernel, cheap enough to compile hundreds of times.
const char* kSmallKernel = "void k(const int8 A[16], int16 C[12]) {\n"
                           "  int i;\n"
                           "  for (i = 0; i < 12; i++) { C[i] = A[i] + A[i+4]; }\n"
                           "}\n";

std::vector<CompileJob> table1Jobs() {
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions o;
    if (k.targetStageDelayNs > 0) o.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    jobs.push_back({k.name, k.source, o});
  }
  return jobs;
}

/// Fresh per-test scratch directory under the gtest temp root.
std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "roccc_cache_test_" + tag;
  fs::remove_all(dir);
  return dir;
}

// --- SHA-256 -----------------------------------------------------------------

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(sha256Hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One-block boundary cases: 55 bytes (longest single-block message) and
  // 64 bytes (padding spills into a second block).
  EXPECT_EQ(sha256Hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(sha256Hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
  EXPECT_EQ(sha256Hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingUpdatesMatchOneShot) {
  const std::string data(12345, 'x');
  Sha256 h;
  for (size_t i = 0; i < data.size(); i += 7) {
    h.update(std::string_view(data).substr(i, 7));
  }
  EXPECT_EQ(h.hex(), sha256Hex(data));
}

// --- key derivation ----------------------------------------------------------

TEST(CacheKey, SensitiveToEverySemanticOption) {
  const CompileOptions base;
  const std::string baseKey = computeCacheKey(kSmallKernel, base);
  EXPECT_EQ(baseKey.size(), 64u);

  // Every keyed row of the option table must move the key (a stale hit
  // across it would serve artifacts from a different compile), and every
  // presentation row must not (it would only fragment the key space).
  for (const OptionField& f : compileOptionFields()) {
    CompileOptions o;
    perturbOption(f, o);
    if (f.keyed) {
      EXPECT_NE(computeCacheKey(kSmallKernel, o), baseKey) << f.key;
    } else {
      EXPECT_EQ(computeCacheKey(kSmallKernel, o), baseKey) << f.key;
    }
  }
  EXPECT_NE(computeCacheKey("void other() {}", base), baseKey) << "source bytes";
}

TEST(CacheKey, CanonicalOptionBytesArePinned) {
  // The exact canonical option text behind every cache key. A change here
  // moves every key, so it must come with a kCacheSchema bump.
  const std::string kDefault =
      "kernel=0:;unroll=1;autoUnrollSliceBudget=0;fullUnrollInnerLoops=1;"
      "maxInnerUnrollTrip=256;convertCallsToLuts=1;lutMaxIndexBits=10;optimize=1;"
      "dp.targetStageDelayNs=4010000000000000;dp.pipeline=1;dp.inferBitWidths=1;"
      "dp.widthMode=1;dp.multStyle=0;dp.expandDividers=1;pipeline.verifyEach=0;"
      "budget.timeoutMs=0;budget.maxIrNodes=0;budget.maxUnrollProduct=0;budget.maxDepth=256;"
      "injectFaultAt=0:;retimePipeline=1;timingModelSpec=0:;emitVerilog=0;";
  EXPECT_EQ(canonicalizeOptions(CompileOptions{}), kDefault);

  // One perturbation per leaf field: `from` -> `to` is the only change in
  // the text (from == to for the presentation-only fields).
  struct Case {
    const char* label;
    void (*mutate)(CompileOptions&);
    const char* from;
    const char* to;
  };
  using dp::BuildOptions;
  const Case cases[] = {
      {"kernelName", [](CompileOptions& o) { o.kernelName = "fir"; }, "kernel=0:;",
       "kernel=3:fir;"},
      {"unrollFactor", [](CompileOptions& o) { o.unrollFactor = 4; }, "unroll=1;", "unroll=4;"},
      {"autoUnrollSliceBudget", [](CompileOptions& o) { o.autoUnrollSliceBudget = 500; },
       "autoUnrollSliceBudget=0;", "autoUnrollSliceBudget=500;"},
      {"fullUnrollInnerLoops", [](CompileOptions& o) { o.fullUnrollInnerLoops = false; },
       "fullUnrollInnerLoops=1;", "fullUnrollInnerLoops=0;"},
      {"maxInnerUnrollTrip", [](CompileOptions& o) { o.maxInnerUnrollTrip = 64; },
       "maxInnerUnrollTrip=256;", "maxInnerUnrollTrip=64;"},
      {"convertCallsToLuts", [](CompileOptions& o) { o.convertCallsToLuts = false; },
       "convertCallsToLuts=1;", "convertCallsToLuts=0;"},
      {"lutMaxIndexBits", [](CompileOptions& o) { o.lutMaxIndexBits = 8; }, "lutMaxIndexBits=10;",
       "lutMaxIndexBits=8;"},
      {"optimize", [](CompileOptions& o) { o.optimize = false; }, "optimize=1;", "optimize=0;"},
      {"dp.targetStageDelayNs", [](CompileOptions& o) { o.dpOptions.targetStageDelayNs = 7.5; },
       "dp.targetStageDelayNs=4010000000000000;", "dp.targetStageDelayNs=401e000000000000;"},
      {"dp.pipeline", [](CompileOptions& o) { o.dpOptions.pipeline = false; }, "dp.pipeline=1;",
       "dp.pipeline=0;"},
      {"dp.inferBitWidths", [](CompileOptions& o) { o.dpOptions.inferBitWidths = false; },
       "dp.inferBitWidths=1;", "dp.inferBitWidths=0;"},
      {"dp.widthMode",
       [](CompileOptions& o) { o.dpOptions.widthMode = BuildOptions::WidthMode::PortOpcode; },
       "dp.widthMode=1;", "dp.widthMode=0;"},
      {"dp.multStyle",
       [](CompileOptions& o) { o.dpOptions.multStyle = BuildOptions::MultStyle::Mult18; },
       "dp.multStyle=0;", "dp.multStyle=1;"},
      {"dp.expandDividers", [](CompileOptions& o) { o.dpOptions.expandDividers = false; },
       "dp.expandDividers=1;", "dp.expandDividers=0;"},
      {"retimePipeline", [](CompileOptions& o) { o.retimePipeline = false; }, "retimePipeline=1;",
       "retimePipeline=0;"},
      {"timingModelSpec", [](CompileOptions& o) { o.timingModelSpec = "clock-overhead-ns 1.1\n"; },
       "timingModelSpec=0:;", "timingModelSpec=22:clock-overhead-ns 1.1\n;"},
      {"pipeline.verifyEach", [](CompileOptions& o) { o.pipeline.verifyEach = true; },
       "pipeline.verifyEach=0;", "pipeline.verifyEach=1;"},
      {"pipeline.printAfterAll", [](CompileOptions& o) { o.pipeline.printAfterAll = true; }, "",
       ""},
      {"pipeline.printAfter", [](CompileOptions& o) { o.pipeline.printAfter = {"unroll"}; }, "",
       ""},
      {"budget.timeoutMs", [](CompileOptions& o) { o.budget.timeoutMs = 1234; },
       "budget.timeoutMs=0;", "budget.timeoutMs=1234;"},
      {"budget.maxIrNodes", [](CompileOptions& o) { o.budget.maxIrNodes = 99999; },
       "budget.maxIrNodes=0;", "budget.maxIrNodes=99999;"},
      {"budget.maxUnrollProduct", [](CompileOptions& o) { o.budget.maxUnrollProduct = 512; },
       "budget.maxUnrollProduct=0;", "budget.maxUnrollProduct=512;"},
      {"budget.maxDepth", [](CompileOptions& o) { o.budget.maxDepth = 64; },
       "budget.maxDepth=256;", "budget.maxDepth=64;"},
      {"injectFaultAt", [](CompileOptions& o) { o.injectFaultAt = "driver.job"; },
       "injectFaultAt=0:;", "injectFaultAt=10:driver.job;"},
      {"emitVerilog", [](CompileOptions& o) { o.emitVerilog = true; }, "emitVerilog=0;",
       "emitVerilog=1;"},
  };
  EXPECT_EQ(std::size(cases), 25u);
  for (const Case& c : cases) {
    CompileOptions o;
    c.mutate(o);
    std::string expected = kDefault;
    const size_t at = expected.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.label;
    expected.replace(at, std::strlen(c.from), c.to);
    EXPECT_EQ(canonicalizeOptions(o), expected) << c.label;
  }
}

TEST(CacheKey, TimingOptionsPartitionHitsButStayByteIdenticalWithinKey) {
  // Two stage-delay targets are two distinct cache entries (retiming places
  // registers differently), and a repeat of either target is a warm hit
  // serving byte-identical VHDL.
  CompileOptions loose;
  loose.dpOptions.targetStageDelayNs = 12.0;
  CompileOptions tight;
  tight.dpOptions.targetStageDelayNs = 2.0;
  ASSERT_NE(computeCacheKey(bench::kFir, loose), computeCacheKey(bench::kFir, tight));

  std::vector<CompileJob> jobs{{"loose", bench::kFir, loose}, {"tight", bench::kFir, tight}};
  CompileService service(2);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);
  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_TRUE(cold.allOk());
  EXPECT_EQ(cold.cacheMisses, 2);
  EXPECT_NE(cold.results[0].vhdl, cold.results[1].vhdl); // staging really differs

  const BatchResult warm = service.compileBatch(jobs);
  ASSERT_TRUE(warm.allOk());
  EXPECT_EQ(warm.cacheHits, 2);
  EXPECT_EQ(warm.results[0].vhdl, cold.results[0].vhdl);
  EXPECT_EQ(warm.results[1].vhdl, cold.results[1].vhdl);
}

TEST(CacheKey, IgnoresPresentationOnlyFields) {
  // --print-after-all / --print-after request stderr IR snapshots; they do
  // not change the compiled artifacts and must not fragment the key space.
  // (roccc-cc's --quiet never reaches CompileOptions at all.)
  const CompileOptions base;
  const std::string baseKey = computeCacheKey(kSmallKernel, base);

  CompileOptions printAll;
  printAll.pipeline.printAfterAll = true;
  EXPECT_EQ(computeCacheKey(kSmallKernel, printAll), baseKey);

  CompileOptions printSome;
  printSome.pipeline.printAfter = {"unroll", "pipeline"};
  EXPECT_EQ(computeCacheKey(kSmallKernel, printSome), baseKey);
}

TEST(CacheKey, LineEndingNormalizationWidensHitsOnly) {
  const std::string lf = "void k() {\n  int i;\n}\n";
  const std::string crlf = "void k() {\r\n  int i;\r\n}\r\n";
  const std::string cr = "void k() {\r  int i;\r}\r";
  const CompileOptions o;
  EXPECT_EQ(computeCacheKey(lf, o), computeCacheKey(crlf, o));
  EXPECT_EQ(computeCacheKey(lf, o), computeCacheKey(cr, o));
  // Any other byte change still moves the key.
  EXPECT_NE(computeCacheKey(lf, o), computeCacheKey("void k() {\n  int j;\n}\n", o));
  EXPECT_EQ(normalizeSourceForKey("a\r\nb\rc\n"), "a\nb\nc\n");
}

// --- store policy ------------------------------------------------------------

TEST(CacheKey, DoubleBitsRoundTripsBitExact) {
  for (const double v : {0.0, -0.0, 4.0, 0.1 + 0.2, 1e-310, -3.5e300}) {
    double back = 1;
    ASSERT_TRUE(parseDoubleBits(doubleBits(v), back)) << v;
    EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v)) << v;
  }
  double ignored = 0;
  EXPECT_FALSE(parseDoubleBits("", ignored));
  EXPECT_FALSE(parseDoubleBits("401000000000000", ignored));   // 15 digits
  EXPECT_FALSE(parseDoubleBits("40100000000000000", ignored)); // 17 digits
  EXPECT_FALSE(parseDoubleBits("401000000000000G", ignored));
  EXPECT_FALSE(parseDoubleBits("4010000000000 00", ignored));
}

TEST(CachePolicy, DeterministicOutcomesCacheEnvironmentalOnesDoNot) {
  const CompileOptions clean;
  CompileResult r;
  r.outcome = CompileOutcome::Ok;
  EXPECT_TRUE(isCacheable(r, clean));
  r.outcome = CompileOutcome::FrontendError;
  EXPECT_TRUE(isCacheable(r, clean));
  r.outcome = CompileOutcome::InternalError;
  EXPECT_TRUE(isCacheable(r, clean));
  r.outcome = CompileOutcome::Timeout;
  EXPECT_FALSE(isCacheable(r, clean));
  r.outcome = CompileOutcome::ResourceExceeded;
  EXPECT_FALSE(isCacheable(r, clean));

  // Fault-armed compiles are harness artifacts: never stored, any outcome.
  CompileOptions armed;
  armed.injectFaultAt = "driver.job";
  r.outcome = CompileOutcome::Ok;
  EXPECT_FALSE(isCacheable(r, armed));
  r.outcome = CompileOutcome::InternalError;
  EXPECT_FALSE(isCacheable(r, armed));
}

// --- tier 1 through the batch driver ----------------------------------------

TEST(CompileCache, HitIsByteIdenticalToUncachedCompile) {
  CompileOptions verilogOn;
  verilogOn.emitVerilog = true;
  std::vector<CompileJob> jobs{{"k", kSmallKernel, verilogOn}};

  const BatchResult uncached = CompileService(1).compileBatch(jobs);
  ASSERT_TRUE(uncached.allOk());
  EXPECT_EQ(uncached.cacheHits, 0);
  EXPECT_EQ(uncached.cacheMisses, 0);

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_TRUE(cold.allOk());
  EXPECT_EQ(cold.cacheHits, 0);
  EXPECT_EQ(cold.cacheMisses, 1);

  const BatchResult warm = service.compileBatch(jobs);
  ASSERT_TRUE(warm.allOk());
  EXPECT_EQ(warm.cacheHits, 1);
  EXPECT_EQ(warm.cacheMisses, 0);

  for (const BatchResult* b : {&cold, &warm}) {
    EXPECT_EQ(b->results[0].vhdl, uncached.results[0].vhdl);
    EXPECT_EQ(b->results[0].verilog, uncached.results[0].verilog);
    EXPECT_EQ(b->results[0].transformedSource, uncached.results[0].transformedSource);
    ASSERT_EQ(b->results[0].passLog.size(), uncached.results[0].passLog.size());
    for (size_t p = 0; p < uncached.results[0].passLog.size(); ++p) {
      EXPECT_EQ(b->results[0].passLog[p].name, uncached.results[0].passLog[p].name);
      EXPECT_EQ(b->results[0].passLog[p].counters, uncached.results[0].passLog[p].counters);
    }
  }
  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytesInUse, 0);
}

TEST(CompileCache, EntryWithoutVerilogNeverAnswersARequestForIt) {
  CompileOptions on;
  on.emitVerilog = true;
  ASSERT_NE(computeCacheKey(kSmallKernel, on), computeCacheKey(kSmallKernel, {}));

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);
  const BatchResult off = service.compileBatch({{"k", kSmallKernel, {}}});
  ASSERT_TRUE(off.allOk());
  EXPECT_EQ(off.cacheMisses, 1);
  EXPECT_TRUE(off.results[0].verilog.empty());

  const BatchResult wanted = service.compileBatch({{"k", kSmallKernel, on}});
  ASSERT_TRUE(wanted.allOk());
  EXPECT_EQ(wanted.cacheMisses, 1) << "a Verilog-less entry answered a Verilog request";
  EXPECT_FALSE(wanted.results[0].verilog.empty());
  EXPECT_EQ(wanted.results[0].vhdl, off.results[0].vhdl);
}

TEST(CompileCache, StampedeOfIdenticalJobsCompilesOnce) {
  // 16 copies of one job on 8 workers against an empty cache: exactly one
  // compile runs; the other 15 are tier-1 hits or single-flight waiters.
  const CompileJob job{"dct", bench::kDct, {}};
  std::vector<CompileJob> jobs(16, job);

  CompileService service(8);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult batch = service.compileBatch(jobs);
  ASSERT_TRUE(batch.allOk());
  EXPECT_EQ(batch.cacheMisses, 1);
  EXPECT_EQ(batch.cacheHits, 15);
  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, 15);
  for (size_t i = 1; i < jobs.size(); ++i) {
    ASSERT_EQ(batch.results[i].vhdl, batch.results[0].vhdl) << "slot " << i;
  }
}

TEST(CompileCache, FrontendErrorsAreNegativelyCached) {
  std::vector<CompileJob> jobs{{"broken", "void k(const int8 A[8], int8 C[4]) { }", {}}};

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_FALSE(cold.allOk());
  EXPECT_EQ(cold.results[0].outcome, CompileOutcome::FrontendError);
  EXPECT_EQ(cold.cacheMisses, 1);

  const BatchResult warm = service.compileBatch(jobs);
  EXPECT_EQ(warm.cacheHits, 1);
  EXPECT_EQ(warm.results[0].outcome, CompileOutcome::FrontendError);
  EXPECT_FALSE(warm.results[0].ok);
  // The replayed diagnostics are the original ones, byte for byte.
  ASSERT_EQ(warm.results[0].diags.all().size(), cold.results[0].diags.all().size());
  for (size_t d = 0; d < cold.results[0].diags.all().size(); ++d) {
    EXPECT_EQ(warm.results[0].diags.all()[d].message, cold.results[0].diags.all()[d].message);
    EXPECT_EQ(warm.results[0].diags.all()[d].loc, cold.results[0].diags.all()[d].loc);
  }
}

TEST(CompileCache, TimeoutsAreNeverCached) {
  // timeoutMs = -1: the deadline is already expired, so the job times out
  // deterministically — but Timeout is an environmental outcome and must
  // recompile every time.
  CompileOptions o;
  o.budget.timeoutMs = -1;
  std::vector<CompileJob> jobs{{"t", kSmallKernel, o}};

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  for (int round = 0; round < 2; ++round) {
    const BatchResult batch = service.compileBatch(jobs);
    EXPECT_EQ(batch.results[0].outcome, CompileOutcome::Timeout) << "round " << round;
    EXPECT_EQ(batch.cacheMisses, 1) << "round " << round;
    EXPECT_EQ(batch.cacheHits, 0) << "round " << round;
  }
  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.uncacheable, 2);
  EXPECT_EQ(stats.entries, 0);
}

TEST(CompileCache, FaultInjectedRunsAreNeverCached) {
  CompileOptions armed;
  armed.injectFaultAt = "driver.job";
  std::vector<CompileJob> jobs{{"f", kSmallKernel, armed}};

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  for (int round = 0; round < 2; ++round) {
    const BatchResult batch = service.compileBatch(jobs);
    EXPECT_EQ(batch.results[0].outcome, CompileOutcome::InternalError) << "round " << round;
    EXPECT_EQ(batch.cacheMisses, 1) << "round " << round;
  }
  EXPECT_EQ(cache->stats().entries, 0);
}

TEST(CompileCache, ByteBudgetEvictsLeastRecentlyUsed) {
  CacheConfig cfg;
  cfg.shards = 1; // deterministic: every key in one LRU
  cfg.maxBytes = 4096;
  CompileCache cache(cfg);

  auto entryOfSize = [](size_t bytes) {
    CacheEntry e;
    e.vhdl.assign(bytes, 'v');
    return e;
  };
  // ~1.4 KB each (plus overhead): the fourth insert must push the oldest out.
  for (int i = 0; i < 4; ++i) {
    cache.insert("key" + std::to_string(i), entryOfSize(1400));
  }
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytesInUse, 4096 + 1600); // newest always kept, even over budget
  EXPECT_EQ(cache.lookup("key0"), nullptr); // LRU tail went first
  EXPECT_NE(cache.lookup("key3"), nullptr); // newest resident
}

TEST(CompileCache, OversizedSingleEntryStaysResident) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.maxBytes = 64; // far below any entry size
  CompileCache cache(cfg);
  CacheEntry e;
  e.vhdl.assign(1000, 'v');
  cache.insert("big", e);
  EXPECT_NE(cache.lookup("big"), nullptr);
  EXPECT_EQ(cache.stats().entries, 1);
}

// --- tier 2: the disk store --------------------------------------------------

TEST(CompileCacheDisk, WarmRestartServesFromDisk) {
  const std::string dir = freshDir("warm_restart");
  std::vector<CompileJob> jobs{{"k", kSmallKernel, {}}};

  std::string coldVhdl;
  {
    CompileService service(1);
    CacheConfig cfg;
    cfg.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(cfg);
    ASSERT_TRUE(cache->diskEnabled());
    service.setCache(cache);
    const BatchResult cold = service.compileBatch(jobs);
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(cold.cacheMisses, 1);
    EXPECT_EQ(cache->stats().diskStores, 1);
    coldVhdl = cold.results[0].vhdl;
  }
  // A brand-new cache object (a "new process") over the same directory:
  // tier 1 is empty, the hit comes from disk.
  {
    CompileService service(1);
    CacheConfig cfg;
    cfg.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(cfg);
    service.setCache(cache);
    const BatchResult warm = service.compileBatch(jobs);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(warm.cacheHits, 1);
    EXPECT_EQ(warm.cacheMisses, 0);
    EXPECT_EQ(cache->stats().diskHits, 1);
    EXPECT_EQ(warm.results[0].vhdl, coldVhdl);
  }
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, EntryWithoutVerilogNeverAnswersARequestForIt) {
  const std::string dir = freshDir("verilog_off");
  CacheConfig cfg;
  cfg.diskDir = dir;
  {
    CompileService service(1);
    auto cache = std::make_shared<CompileCache>(cfg);
    service.setCache(cache);
    const BatchResult off = service.compileBatch({{"k", kSmallKernel, {}}});
    ASSERT_TRUE(off.allOk());
    EXPECT_EQ(cache->stats().diskStores, 1);
  }
  // A new cache over the same store: the Verilog-less entry is on disk,
  // but a request for Verilog has another key and misses.
  CompileOptions on;
  on.emitVerilog = true;
  CompileService service(1);
  auto cache = std::make_shared<CompileCache>(cfg);
  service.setCache(cache);
  const BatchResult wanted = service.compileBatch({{"k", kSmallKernel, on}});
  ASSERT_TRUE(wanted.allOk());
  EXPECT_EQ(wanted.cacheMisses, 1);
  EXPECT_EQ(cache->stats().diskHits, 0);
  EXPECT_FALSE(wanted.results[0].verilog.empty());
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, CorruptEntryIsASilentMiss) {
  const std::string dir = freshDir("corrupt");
  std::vector<CompileJob> jobs{{"k", kSmallKernel, {}}};
  const std::string key = computeCacheKey(jobs[0].source, jobs[0].options);

  std::string goodVhdl;
  {
    CacheConfig cfg;
    cfg.diskDir = dir;
    CompileService service(1);
    auto cache = std::make_shared<CompileCache>(cfg);
    service.setCache(cache);
    goodVhdl = service.compileBatch(jobs).results[0].vhdl;
  }
  const std::string entryFile = dir + "/" + key + ".entry";
  ASSERT_TRUE(fs::exists(entryFile));

  // Three flavours of damage; each must read as a miss and recompile to the
  // same bytes, never error out or serve garbage.
  const std::vector<std::string> damage = {
      "",                                   // truncated to nothing
      "roccc-cache-entry bogus-schema\n",   // wrong schema header
      std::string(100, '\xff'),             // binary garbage
  };
  for (const std::string& bytes : damage) {
    {
      std::ofstream out(entryFile, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    CacheConfig cfg;
    cfg.diskDir = dir;
    CompileService service(1);
    auto cache = std::make_shared<CompileCache>(cfg);
    service.setCache(cache);
    const BatchResult batch = service.compileBatch(jobs);
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(batch.cacheMisses, 1); // the damaged entry did not hit
    EXPECT_EQ(batch.results[0].vhdl, goodVhdl);
  }
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, ManifestSchemaMismatchDisablesTheStore) {
  const std::string dir = freshDir("manifest");
  fs::create_directories(dir);
  {
    std::ofstream out(dir + "/manifest", std::ios::binary);
    out << "roccc-compile-cache\nschema some-other-version\n";
  }
  CacheConfig cfg;
  cfg.diskDir = dir;
  auto cache = std::make_shared<CompileCache>(cfg);
  // Another generation owns this directory: reads miss, writes are
  // suppressed, and the foreign manifest is left untouched.
  EXPECT_FALSE(cache->diskEnabled());

  CompileService service(1);
  service.setCache(cache);
  std::vector<CompileJob> jobs{{"k", kSmallKernel, {}}};
  const BatchResult batch = service.compileBatch(jobs);
  ASSERT_TRUE(batch.allOk());
  EXPECT_EQ(cache->stats().diskStores, 0);
  {
    std::ifstream in(dir + "/manifest", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), "roccc-compile-cache\nschema some-other-version\n");
  }
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, DerivedBlobRoundTripsThroughDisk) {
  const std::string dir = freshDir("derived");
  CacheEntry e;
  e.derived = std::string("12 34\nline two\0\xff tail", 22);
  {
    CacheConfig cfg;
    cfg.diskDir = dir;
    CompileCache cache(cfg);
    cache.insert("derived-key", e);
    EXPECT_EQ(cache.stats().diskStores, 1);
  }
  CacheConfig cfg;
  cfg.diskDir = dir;
  CompileCache restarted(cfg);
  const auto loaded = restarted.lookup("derived-key");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->derived, e.derived);
  EXPECT_EQ(loaded->outcome, CompileOutcome::Ok);
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, TruncatedDerivedBlobIsASilentMiss) {
  const std::string dir = freshDir("derived_truncated");
  CacheEntry e;
  e.derived = std::string(64, 'm');
  {
    CacheConfig cfg;
    cfg.diskDir = dir;
    CompileCache cache(cfg);
    cache.insert("derived-key", e);
  }
  const std::string entryFile = dir + "/derived-key.entry";
  std::string bytes;
  {
    std::ifstream in(entryFile, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  // Cut the file half-way through the derived blob's payload.
  const size_t blob = bytes.find("derived 64\n");
  ASSERT_NE(blob, std::string::npos);
  {
    std::ofstream out(entryFile, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, blob + std::string("derived 64\n").size() + 32);
  }
  CacheConfig cfg;
  cfg.diskDir = dir;
  CompileCache restarted(cfg);
  EXPECT_TRUE(restarted.diskEnabled());
  EXPECT_EQ(restarted.lookup("derived-key"), nullptr);
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, PreviousSchemaStoreIsLeftAloneAndMisses) {
  // A store written by roccc-cache-v2 (entries without a derived blob):
  // this generation neither reads nor writes it.
  const std::string dir = freshDir("v2_store");
  const std::vector<CompileJob> jobs{{"k", kSmallKernel, {}}};
  const std::string key = computeCacheKey(jobs[0].source, jobs[0].options);
  const std::string manifest = "roccc-compile-cache\nschema roccc-cache-v2\n";
  const std::string entry = "roccc-cache-entry roccc-cache-v2\nkey " + key +
                            "\noutcome ok\nfailed-pass 0\n\ntransformed-source 0\n\nvhdl 0\n\n"
                            "verilog 0\n\ndiags 0\npasses 0\nend\n";
  fs::create_directories(dir);
  {
    std::ofstream(dir + "/manifest", std::ios::binary) << manifest;
    std::ofstream(dir + "/" + key + ".entry", std::ios::binary) << entry;
  }
  CacheConfig cfg;
  cfg.diskDir = dir;
  auto cache = std::make_shared<CompileCache>(cfg);
  EXPECT_FALSE(cache->diskEnabled());
  EXPECT_EQ(cache->lookup(key), nullptr);

  CompileService service(1);
  service.setCache(cache);
  const BatchResult batch = service.compileBatch(jobs);
  ASSERT_TRUE(batch.allOk());
  EXPECT_EQ(batch.cacheMisses, 1);
  EXPECT_FALSE(batch.results[0].vhdl.empty());
  EXPECT_EQ(cache->stats().diskStores, 0);
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(read(dir + "/manifest"), manifest);
  EXPECT_EQ(read(dir + "/" + key + ".entry"), entry);
  fs::remove_all(dir);
}

// --- golden warm batch -------------------------------------------------------

TEST(CompileCacheGolden, WarmTable1BatchMatchesGoldenBytes) {
  // The nine Table 1 kernels, compiled cold then served warm: the warm
  // batch must reproduce the checked-in golden VHDL byte for byte — a
  // cache hit is held to the same standard as a fresh compile.
  const auto jobs = table1Jobs();
  CompileService service(8);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_TRUE(cold.allOk());
  const BatchResult warm = service.compileBatch(jobs);
  ASSERT_TRUE(warm.allOk());
  EXPECT_EQ(warm.cacheHits, static_cast<int>(jobs.size()));
  EXPECT_EQ(warm.cacheMisses, 0);

  for (size_t i = 0; i < jobs.size(); ++i) {
    const std::string path = std::string(ROCCC_GOLDEN_DIR) + "/" + jobs[i].name + ".vhd";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(warm.results[i].vhdl, buf.str()) << jobs[i].name;
  }
}

} // namespace
} // namespace roccc
