// roccc::CompileService — thread-pooled batch compilation with a
// determinism guarantee.
//
// A batch is N independent {name, source, CompileOptions} jobs. The service
// fans them out across a fixed-size ThreadPool and returns one CompileResult
// per job, **in job order**, regardless of worker count or completion order.
//
// Determinism guarantee (locked down by tests/driver_test.cpp, the golden
// snapshots in tests/golden/, and the TSan stress suite): for any job list,
// the emitted VHDL/Verilog bytes, the PassStatistics change counters, and
// the per-job diagnostics sequence are byte-identical whether the batch runs
// on 1 worker or 64. This holds because compileBatch shares no mutable state
// between jobs:
//   - each job runs a fresh roccc::Compiler over its own copy of the options;
//   - each job's diagnostics go to the DiagEngine embedded in its own
//     CompileResult slot — there is no global diagnostics sink;
//   - workers write only their own pre-allocated result slot;
//   - the compile pipeline itself is reentrant (the audit in DESIGN.md §8:
//     no layer from frontend to synth holds a hidden global or shared cache).
// Only PassStatistics::wallMs is exempt — wall time is measurement, not
// output.
//
// Fault containment: a job can fail, a batch cannot crash. Every exception a
// compile can raise is converted into a structured CompileResult outcome at
// the PassManager pass edge; the driver adds a last-resort catch around the
// whole job so that even a failure outside the pipeline (or an armed
// "driver.job" fault point) lands in the job's own result slot as
// CompileOutcome::InternalError. Workers survive throwing jobs; surviving
// jobs keep the byte-determinism guarantee (tests/fault_injection_test.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "roccc/compiler.hpp"

namespace roccc {

class CompileCache;

/// One unit of work for compileBatch.
struct CompileJob {
  /// Label used in reports ("fir.c", a manifest line, a fuzz-seed tag...);
  /// never interpreted by the service.
  std::string name;
  /// C source text to compile.
  std::string source;
  CompileOptions options;
};

/// compileBatch output: results[i] belongs to jobs[i], always.
struct BatchResult {
  std::vector<CompileResult> results;
  double wallMs = 0;  ///< wall time of the whole batch
  int workers = 1;    ///< worker count the batch ran on
  /// Cache accounting for this batch (zero when no cache is attached).
  /// `cacheHits` counts jobs served without running a compile — tier-1/-2
  /// lookups plus single-flight waiters; `cacheMisses` counts jobs that
  /// actually compiled. hits + misses == jobs when a cache is attached.
  int cacheHits = 0;
  int cacheMisses = 0;

  int succeeded() const;
  bool allOk() const { return succeeded() == static_cast<int>(results.size()); }
  /// Aggregate throughput: jobs completed per second of batch wall time.
  double kernelsPerSecond() const;
  /// Jobs that ended with `outcome` (the per-outcome counts the batch
  /// manifest reports).
  int countOutcome(CompileOutcome outcome) const;
  /// "9 ok, 1 timeout, 2 internal-error" — zero-count outcomes omitted.
  std::string outcomeSummary() const;
};

/// The contained single-job compile body: fault-injection scope, fresh
/// Compiler, and the last-resort catch that turns anything escaping the
/// pipeline into an InternalError in the returned result. compileBatch
/// runs every job through this, and so does the roccc-ccd daemon
/// (src/roccc/service_net.hpp) — sharing the body is what makes a
/// daemon-served compile byte-identical to a CLI one by construction.
CompileResult runContainedJob(const CompileJob& job);

/// One job on the calling thread: through `cache` when it is non-null (key
/// on this thread, then getOrCompute, single-flighted) or straight through
/// runContainedJob. `wasHit`, when non-null, says whether the result came
/// from the cache — and so carries no IR. CompileService::compile and the
/// daemon's jobs all go through here.
CompileResult runCachedJob(const CompileJob& job, CompileCache* cache, bool* wasHit = nullptr);

class CompileService {
 public:
  /// `workers` == 0 picks the hardware concurrency (min 1).
  explicit CompileService(int workers = 0);

  /// Compiles every job and returns per-job results in job order. Safe to
  /// call from multiple threads; batches share the pool but never results.
  /// This is forEach over compile().
  BatchResult compileBatch(const std::vector<CompileJob>& jobs) const;

  /// runCachedJob through the attached cache, if any.
  CompileResult compile(const CompileJob& job, bool* wasHit = nullptr) const;

  /// Runs task(0) .. task(n-1) on the service's workers and returns once
  /// all have finished; with one worker they run in order on the caller's
  /// thread. Tasks must not throw, and each must write only its own slot —
  /// the same discipline compileBatch's jobs keep.
  void forEach(size_t n, const std::function<void(size_t)>& task) const;

  /// Attaches a compile-result cache (src/roccc/cache.hpp). Jobs whose
  /// content-addressed key is already cached are served without compiling;
  /// identical in-flight jobs are single-flighted onto one compile. The
  /// cache may be shared between services and outlives any batch. Null
  /// detaches. Determinism note: a cache hit materializes a CompileResult
  /// whose artifact bytes (VHDL/Verilog, transformed source, diagnostics,
  /// pass counters) are identical to a fresh compile's; the heavyweight IR
  /// fields (kernel/mir/datapath/module) are empty on a hit.
  void setCache(std::shared_ptr<CompileCache> cache) { cache_ = std::move(cache); }
  const std::shared_ptr<CompileCache>& cache() const { return cache_; }

  int workers() const { return workers_; }

 private:
  int workers_;
  std::shared_ptr<CompileCache> cache_;
};

} // namespace roccc
