#include "roccc/driver.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

#include "roccc/cache.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "support/timer.hpp"

namespace roccc {

int BatchResult::succeeded() const {
  int n = 0;
  for (const auto& r : results) {
    if (r.ok) ++n;
  }
  return n;
}

double BatchResult::kernelsPerSecond() const {
  if (wallMs <= 0) return 0;
  return static_cast<double>(results.size()) * 1000.0 / wallMs;
}

int BatchResult::countOutcome(CompileOutcome outcome) const {
  int n = 0;
  for (const auto& r : results) {
    if (r.outcome == outcome) ++n;
  }
  return n;
}

std::string BatchResult::outcomeSummary() const {
  static constexpr CompileOutcome kOrder[] = {
      CompileOutcome::Ok, CompileOutcome::FrontendError, CompileOutcome::Timeout,
      CompileOutcome::ResourceExceeded, CompileOutcome::InternalError};
  std::string out;
  for (const CompileOutcome o : kOrder) {
    const int n = countOutcome(o);
    if (n == 0) continue;
    if (!out.empty()) out += ", ";
    out += fmt("%0 %1", n, compileOutcomeName(o));
  }
  return out.empty() ? "empty" : out;
}

CompileResult runContainedJob(const CompileJob& job) {
  FaultInjectionScope faultScope(job.options.injectFaultAt);
  try {
    faultpoint("driver.job");
    const Compiler compiler(job.options);
    return compiler.compileSource(job.source);
  } catch (const std::exception& e) {
    CompileResult r;
    r.outcome = CompileOutcome::InternalError;
    r.diags.error({}, fmt("internal: job '%0' failed outside the pipeline: %1", job.name,
                          e.what()));
    return r;
  } catch (...) {
    CompileResult r;
    r.outcome = CompileOutcome::InternalError;
    r.diags.error({}, fmt("internal: job '%0' failed outside the pipeline: unknown exception",
                          job.name));
    return r;
  }
}

CompileResult runCachedJob(const CompileJob& job, CompileCache* cache, bool* wasHit) {
  if (wasHit) *wasHit = false;
  // With a cache attached the job first derives its content-addressed key
  // (on the worker thread — hashing is part of the job, not the submit
  // loop); getOrCompute single-flights concurrent identical jobs onto one
  // compile. Without one, the job body runs unconditionally.
  if (!cache) return runContainedJob(job);
  const std::string key = computeCacheKey(job.source, job.options);
  return cache->getOrCompute(key, job.options, [&job] { return runContainedJob(job); }, wasHit);
}

CompileService::CompileService(int workers) : workers_(workers) {
  if (workers_ <= 0) {
    workers_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

CompileResult CompileService::compile(const CompileJob& job, bool* wasHit) const {
  return runCachedJob(job, cache_.get(), wasHit);
}

void CompileService::forEach(size_t n, const std::function<void(size_t)>& task) const {
  if (workers_ == 1) {
    // Serial reference path: no pool, caller's thread. jobs=1 vs jobs=N
    // byte-equality in the determinism tests compares exactly this path
    // against the pooled one.
    for (size_t i = 0; i < n; ++i) task(i);
    return;
  }
  ThreadPool pool(static_cast<size_t>(workers_));
  std::vector<std::future<void>> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) pending.push_back(pool.submit([&task, i] { task(i); }));
  for (auto& f : pending) f.get(); // tasks never throw; futures only order completion
}

BatchResult CompileService::compileBatch(const std::vector<CompileJob>& jobs) const {
  BatchResult batch;
  batch.workers = workers_;
  batch.results.resize(jobs.size());
  WallTimer timer;

  // Each worker writes only its own pre-allocated slot; each job gets a
  // fresh Compiler and reports into the DiagEngine inside its own result.
  // Job order == result order by construction, so completion order (which
  // does vary with scheduling) is unobservable.
  //
  // The pipeline contains failures at the pass edge; runContainedJob's
  // try/catch is the driver's own last line: whatever still escapes a job
  // (including the armed "driver.job" fault point) becomes an
  // InternalError in that job's slot. No job can take down the batch,
  // wedge its worker, or disturb a sibling's result.
  std::atomic<int> cacheHits{0};
  std::atomic<int> cacheMisses{0};
  forEach(jobs.size(), [&](size_t i) {
    bool wasHit = false;
    batch.results[i] = compile(jobs[i], &wasHit);
    if (cache_) (wasHit ? cacheHits : cacheMisses).fetch_add(1, std::memory_order_relaxed);
  });

  batch.wallMs = timer.elapsedMs();
  batch.cacheHits = cacheHits.load();
  batch.cacheMisses = cacheMisses.load();
  return batch;
}

} // namespace roccc
