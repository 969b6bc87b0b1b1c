#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "roccc/cache.hpp"
#include "roccc/service_net.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace json = roccc::json;

namespace {

// Offered rate: about half of the mixed capacity of this request mix,
// measured on a 4-processor container (see BASELINE.md), so the daemon has
// headroom and the latency tail shows queueing, not overload.
constexpr double kRatePerS = 600;
// Latency limit per request, from its due time: far above the slowest cold
// compile of the set (about 75 ms), so only a stall misses it.
constexpr double kLimitMs = 1000;
// One request in five is a fresh variant; the rest repeat a served key.
constexpr uint64_t kVariantOneIn = 5;
// Variants a traced run compiles serially with spans (the rest in a batch).
constexpr size_t kTracedVariants = 320;

json::Value requestFor(const std::string& name, const std::string& source,
                       const roccc::CompileOptions& options) {
  json::Value o = json::Value::object();
  o.set("unroll", json::Value::number(static_cast<int64_t>(options.unrollFactor)));
  const double defaultNs = roccc::CompileOptions{}.dpOptions.targetStageDelayNs;
  if (options.dpOptions.targetStageDelayNs != defaultNs) {
    o.set("targetNs", json::Value::number(options.dpOptions.targetStageDelayNs));
  }
  return roccc::makeCompileRequest(name, source, std::move(o));
}

/// The daemon's `metrics` response; a null Value on failure.
json::Value daemonMetrics(roccc::ServiceClient& client) {
  json::Value req = json::Value::object();
  req.set("type", json::Value::string("metrics"));
  json::Value resp;
  std::string error;
  if (!client.request(req, resp, error)) return json::Value();
  return resp;
}

double field(const json::Value& v, const char* object, const char* key) {
  const json::Value* o = v.find(object);
  const json::Value* f = o ? o->find(key) : nullptr;
  return f && f->isNumber() ? f->asDouble() : 0;
}

/// One request's record, written only by the client thread that sent it.
struct Sample {
  double due = 0, sent = 0, done = 0, serviceMs = 0;
  bool answered = false;
  std::string vhdl; ///< kept for variants, checked after the window
};

} // namespace

DaemonRun daemonLoop(const RunConfig& cfg, const Inputs& in, Checker& checker, double seconds) {
  DaemonRun run;
  std::vector<json::Value> baseRequests;
  for (const auto& p : in.points) {
    baseRequests.push_back(requestFor(p.label, in.sourceOf(p), p.options));
  }

  roccc::ServiceConfig sc;
  sc.socketPath = cfg.socketPath;
  sc.workers = cfg.workers;
  sc.cacheEnabled = true;
  // Set-up: start a daemon with an empty cache and serve every design point
  // once over the wire; the last daemon stays up for the timed window.
  std::unique_ptr<roccc::ServiceDaemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) daemon->stop();
    const double start = nowMs();
    daemon = std::make_unique<roccc::ServiceDaemon>(sc);
    std::string error;
    roccc::ServiceClient client;
    if (!daemon->start(error) || !client.connect(sc.socketPath, error)) {
      checker.fail("daemon set-up: " + error);
      return run;
    }
    for (size_t p = 0; p < baseRequests.size(); ++p) {
      json::Value resp;
      const json::Value* vhdl = nullptr;
      if (client.request(baseRequests[p], resp, error)) vhdl = resp.find("vhdl");
      if (!vhdl || !vhdl->isString()) {
        checker.fail("daemon set-up request " + in.points[p].label + " failed " + error);
      } else {
        checker.vhdlMatches(p, vhdl->asString());
      }
    }
    run.setupS.push_back((nowMs() - start) / 1000.0);
  }

  // The seeded schedule: request i is due at i / rate; one in five is a fresh
  // variant, the rest repeat a design point served during set-up.
  const size_t n = static_cast<size_t>(seconds * kRatePerS);
  roccc::SplitMix64 rng(cfg.seed);
  VariantSource variantSource(cfg.seed ^ 0x5eed'da7a);
  std::vector<Variant> variants;
  std::vector<json::Value> variantRequests;
  std::vector<int> pointOf(n, -1), variantOf(n, -1);
  for (size_t i = 0; i < n; ++i) {
    if (rng.next() % kVariantOneIn == 0) {
      variantOf[i] = static_cast<int>(variants.size());
      variants.push_back(variantSource.next());
      variantRequests.push_back(
          requestFor(variants.back().label, variants.back().source, variants.back().options));
    } else {
      pointOf[i] = static_cast<int>(rng.next() % in.points.size());
    }
  }

  const int connections = cfg.workers;
  std::vector<roccc::ServiceClient> clients(connections);
  roccc::ServiceClient control;
  std::string error;
  for (auto& c : clients) {
    if (!c.connect(sc.socketPath, error)) {
      checker.fail("daemon connect: " + error);
      return run;
    }
  }
  if (!control.connect(sc.socketPath, error)) {
    checker.fail("daemon connect: " + error);
    return run;
  }
  const json::Value before = daemonMetrics(control);

  std::vector<Sample> samples(n);
  std::atomic<size_t> next{0};
  std::atomic<int64_t> rejected{0};
  const double t0 = nowMs() + 20;
  const auto client = [&](roccc::ServiceClient& conn) {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= n) return;
      Sample& s = samples[i];
      s.due = t0 + static_cast<double>(i) * 1000.0 / kRatePerS;
      sleepUntilMs(s.due);
      s.sent = nowMs();
      json::Value resp;
      std::string err;
      const bool transported =
          conn.request(pointOf[i] >= 0 ? baseRequests[pointOf[i]] : variantRequests[variantOf[i]],
                       resp, err);
      s.done = nowMs();
      const std::string what = "daemon request " + std::to_string(i);
      if (!transported) {
        checker.fail(what + ": " + err);
        conn.close();
        conn.connect(cfg.socketPath, err);
        continue;
      }
      const json::Value* status = resp.find("status");
      const json::Value* vhdl = resp.find("vhdl");
      if (!status || !status->isString() || status->asString() != "ok" || !vhdl ||
          !vhdl->isString()) {
        const json::Value* code = resp.find("error");
        const std::string reason = code ? code->dump() : resp.dump().substr(0, 200);
        if (code) rejected.fetch_add(1);
        checker.fail(what + " not served: " + reason);
        continue;
      }
      s.answered = true;
      if (const json::Value* ms = resp.find("serviceMs"); ms && ms->isNumber()) {
        s.serviceMs = ms->asDouble();
      }
      if (s.done - s.due > kLimitMs) checker.fail(what + " exceeded the latency limit");
      if (pointOf[i] >= 0) {
        checker.vhdlMatches(static_cast<size_t>(pointOf[i]), vhdl->asString());
      } else {
        s.vhdl = vhdl->asString();
      }
    }
  };
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back(client, std::ref(c));
  for (auto& t : threads) t.join();
  const json::Value after = daemonMetrics(control);
  control.close();
  for (auto& c : clients) c.close();
  daemon->stop();
  daemon.reset();

  // After the window: every variant answer must equal an in-process compile
  // of the same request. Compiled in chunks, so that only the answers'
  // checks, not the compiles, accumulate; a traced run compiles the first
  // chunks one by one, traced, for the pipeline layer of the compiles the
  // daemon's misses ran, and keeps every artifact for the cache replay.
  std::vector<size_t> requestOf(variants.size());
  for (size_t i = 0; i < n; ++i) {
    if (variantOf[i] >= 0) requestOf[variantOf[i]] = i;
  }
  PipelineTrace pipe;
  std::vector<roccc::CacheEntry> artifacts;
  const roccc::CompileService compileService(cfg.workers);
  constexpr size_t kChunk = 64;
  for (size_t first = 0; first < variants.size(); first += kChunk) {
    const size_t last = std::min(variants.size(), first + kChunk);
    std::vector<roccc::CompileResult> results;
    if (cfg.trace && first < kTracedVariants) {
      results.resize(last - first);
      for (size_t v = first; v < last; ++v) {
        pipe.compile(variants[v].options, variants[v].source, variants[v].label,
                     static_cast<int64_t>(v), v % 2 == 0, results[v - first]);
      }
    } else {
      std::vector<roccc::CompileJob> jobs;
      for (size_t v = first; v < last; ++v) {
        jobs.push_back({variants[v].label, variants[v].source, variants[v].options});
      }
      results = compileService.compileBatch(jobs).results;
    }
    for (size_t v = first; v < last; ++v) {
      const roccc::CompileResult& r = results[v - first];
      Sample& s = samples[requestOf[v]];
      if (!r.ok) {
        checker.fail(variants[v].label + " did not compile in-process");
      } else if (s.answered) {
        checker.sameText(r.vhdl, s.vhdl, "daemon VHDL of " + variants[v].label);
      }
      std::string().swap(s.vhdl);
      if (cfg.trace) artifacts.push_back(roccc::CacheEntry::fromResult(r));
    }
  }
  double lastDone = t0;
  for (const Sample& s : samples) {
    if (!s.answered) continue;
    lastDone = std::max(lastDone, s.done);
    run.latencyMs.push_back(s.done - s.due);
    if (s.done - s.due > kLimitMs) ++run.overLimit;
  }
  run.requests = static_cast<int64_t>(n);
  run.rejected = rejected.load();
  run.windowMs = lastDone - t0;
  run.notes.push_back(std::to_string(n) + " requests at " + fixed(kRatePerS, 0) + "/s over " +
                      std::to_string(connections) + " connections, " +
                      std::to_string(variants.size()) + " fresh variants; limit " +
                      fixed(kLimitMs, 0) + " ms from due time, " + std::to_string(run.overLimit) +
                      " over it; daemon-reported service p50 " +
                      fixed(field(after, "serviceMs", "p50Ms"), 2) + " ms, p95 " +
                      fixed(field(after, "serviceMs", "p95Ms"), 2) + " ms (bucketed)");
  if (!cfg.trace) return run;

  std::vector<double> rtt, service, wire, late;
  SpanLog log;
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    if (!s.answered) continue;
    const int64_t req = static_cast<int64_t>(i);
    const int parent = log.add("ccd.request", "ccd", req, s.due, s.done);
    log.add("gen.late", "ccd", req, s.due, s.sent, parent);
    log.add("ccd.rtt", "ccd", req, s.sent, s.done, parent);
    rtt.push_back(s.done - s.sent);
    service.push_back(s.serviceMs);
    wire.push_back(s.done - s.sent - s.serviceMs);
    late.push_back(s.sent - s.due);
  }
  run.daemon = {
      {"ccd.requests", {static_cast<double>(rtt.size()), "count"}},
      {"ccd.rtt_ms_p50", {quantile(rtt, 0.50), "ms"}},
      {"ccd.rtt_ms_p99", {quantile(rtt, 0.99), "ms"}},
      {"ccd.service_ms_p50", {quantile(service, 0.50), "ms"}},
      {"ccd.service_ms_p95", {quantile(service, 0.95), "ms"}},
      {"ccd.wire_ms", {median(wire), "ms"}},
      {"ccd.rejected", {static_cast<double>(run.rejected), "count"}},
      {"gen.late_ms_p99", {quantile(late, 0.99), "ms"}},
  };

  // The cache layer under this request stream. Hits and misses are the
  // daemon's own counts over the window; key and lookup cost come from
  // calling computeCacheKey and CompileCache::lookup directly, request by
  // request, on a cache holding the entries the daemon's cache holds.
  roccc::CacheConfig replayConfig;
  replayConfig.maxBytes = int64_t{1} << 40; // holds every entry: a replay must never evict
  roccc::CompileCache replay(replayConfig);
  for (size_t p = 0; p < in.points.size(); ++p) {
    replay.insert(roccc::computeCacheKey(in.sourceOf(in.points[p]), in.points[p].options),
                  roccc::CacheEntry::fromResult(checker.reference(p)));
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    replay.insert(roccc::computeCacheKey(variants[v].source, variants[v].options),
                  std::move(artifacts[v]));
  }
  SpanLog cacheLog;
  for (size_t i = 0; i < n; ++i) {
    const int64_t req = static_cast<int64_t>(i);
    const bool base = pointOf[i] >= 0;
    const std::string& source =
        base ? in.sourceOf(in.points[pointOf[i]]) : variants[variantOf[i]].source;
    const roccc::CompileOptions& options =
        base ? in.points[pointOf[i]].options : variants[variantOf[i]].options;
    std::string key;
    {
      SpanScope span(&cacheLog, "cache.key", "cache", req);
      key = roccc::computeCacheKey(source, options);
    }
    SpanScope span(&cacheLog, "cache.lookup", "cache", req);
    if (!replay.lookup(key)) checker.fail("replayed lookup missed request " + std::to_string(i));
  }
  double keyMs = 0, lookupMs = 0;
  for (const Span& s : cacheLog.spans()) (s.name == "cache.key" ? keyMs : lookupMs) += s.ms();
  const double hits = field(after, "cache", "hits") - field(before, "cache", "hits");
  const double misses = field(after, "cache", "misses") - field(before, "cache", "misses");
  const double lookups = n > 0 ? static_cast<double>(n) : 1.0;
  run.cache = {
      {"cache.key_ms", {keyMs / lookups, "ms"}},
      {"cache.lookup_ms", {lookupMs / lookups, "ms"}},
      {"cache.hits", {hits, "count"}},
      {"cache.misses", {misses, "count"}},
      {"cache.hit_ratio", {hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"}},
      {"cache.bytes", {static_cast<double>(replay.stats().bytesInUse), "bytes"}},
  };
  run.pipeline = pipe.metrics();
  run.logs.emplace_back("daemon-mix requests", std::move(log));
  run.logs.emplace_back("daemon-mix cache replay", std::move(cacheLog));
  run.logs.emplace_back("daemon-mix variant compiles", pipe.log());
  return run;
}

RunReport runDaemonMix(const RunConfig& cfg, const Inputs& in, Checker& checker) {
  RunReport report;
  buildReferences(in, checker, cfg.seed, 1);
  DaemonRun run = daemonLoop(cfg, in, checker, cfg.seconds);
  report.attempted = run.requests;
  const double q = tailQuantile(run.latencyMs.size());
  report.endToEnd = {
      {"setup_s", {median(run.setupS), "s"}},
      {"latency_ms_p50", {median(run.latencyMs), "ms"}},
      {"latency_ms_tail", {quantile(run.latencyMs, q), "ms"}},
      {"throughput_per_s",
       {perSecond(static_cast<double>(run.latencyMs.size()), run.windowMs), "1/s"}},
  };
  report.notes = run.notes;
  report.notes.push_back("latency is from each request's due time; tail is p" + fixed(q * 100, 1) +
                         " of " + std::to_string(run.latencyMs.size()) +
                         " answered requests; throughput is answered requests per second; "
                         "design_* are the served design points'");
  if (cfg.trace) {
    report.layers = run.pipeline;
    report.layers.insert(run.cache.begin(), run.cache.end());
    report.layers.insert(run.daemon.begin(), run.daemon.end());
    ExploreRun probe = exploreLoop(cfg, in, checker, 0, kExploreProbeSweeps);
    report.layers.insert(probe.explore.begin(), probe.explore.end());
    report.attempted += static_cast<int64_t>(probe.sweepMs.size());
    for (auto& l : run.logs) report.logs.push_back(std::move(l));
    for (auto& l : probe.logs) report.logs.push_back(std::move(l));
    report.notes.push_back("layer sources: pipeline from the in-process compiles of the variants "
                           "the daemon missed on; cache and daemon from the request loop; explore "
                           "from an explore-warm probe");
  }
  return report;
}

} // namespace perfbench
