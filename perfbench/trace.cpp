#include "trace.hpp"

#include <cstdio>
#include <map>

#include "support/budget.hpp"

namespace perfbench {

int SpanLog::begin(std::string name, std::string cat, int64_t req) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = nowMs();
  spans_.push_back({std::move(name), std::move(cat), parent, req, {}, now, now});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int id) {
  spans_[id].endMs = nowMs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanLog::add(std::string name, std::string cat, int64_t req, double startMs, double endMs,
                 int parent) {
  spans_.push_back({std::move(name), std::move(cat), parent, req, {}, startMs, endMs});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.ms();
  }
  return self;
}

namespace {

/// compileSource with every pass body wrapped in a span: the same governance
/// set-up (per-job budget scope) and the same PassManager run, over a copy of
/// the declared pipeline.
roccc::CompileResult tracedCompile(const roccc::Compiler& compiler, const std::string& source,
                                   const std::string& label, SpanLog& log, int64_t req) {
  roccc::CompileResult r;
  roccc::PassContext ctx(compiler.options(), r);
  ctx.source = source;
  roccc::CompileBudget budget(compiler.options().budget);
  ctx.budget = &budget;
  roccc::BudgetScope budgetScope(&budget);

  const roccc::PassManager declared = compiler.buildPipeline();
  roccc::PassManager traced(compiler.options().pipeline);
  for (roccc::Pass pass : declared.passes()) {
    auto run = std::move(pass.run);
    pass.run = [run = std::move(run), name = "pass." + pass.name,
                cat = std::string(roccc::passLayerName(pass.layer)), &log,
                req](roccc::PassContext& c, roccc::PassStatistics& st) {
      SpanScope span(&log, name, cat, req);
      return run(c, st);
    };
    traced.addPass(std::move(pass));
  }
  const int root = log.begin("compile", "pipeline", req);
  log.setLabel(root, label);
  traced.run(ctx, r.passLog);
  log.end(root);
  if (r.outcome == roccc::CompileOutcome::Ok && r.diags.hasErrors()) {
    r.outcome = roccc::CompileOutcome::FrontendError;
  }
  r.ok = r.outcome == roccc::CompileOutcome::Ok && !r.diags.hasErrors();
  return r;
}

} // namespace

double PipelineTrace::compile(const roccc::CompileOptions& options, const std::string& source,
                              const std::string& label, int64_t req, bool traced,
                              roccc::CompileResult& out) {
  const double start = nowMs();
  const roccc::Compiler compiler(options);
  out = traced ? tracedCompile(compiler, source, label, log_, req)
               : compiler.compileSource(source);
  const double ms = nowMs() - start;
  (traced ? tracedMs_ : untracedMs_).push_back(ms);
  return ms;
}

MetricMap PipelineTrace::metrics() const {
  const auto& spans = log_.spans();
  const std::vector<double> self = selfTimes(spans);
  std::map<std::string, double> passMs, moduleMs;
  for (const auto& name : roccc::Compiler().buildPipeline().passNames()) passMs["pass." + name] = 0;
  for (const char* module : {"frontend", "hlir", "mir", "dp", "rtl", "vhdl"}) moduleMs[module] = 0;
  double compileMs = 0, otherMs = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "compile") {
      compileMs += s.ms();
      otherMs += self[i];
    } else {
      passMs[s.name] += s.ms();
      moduleMs[s.cat] += self[i];
    }
  }
  const double n = static_cast<double>(tracedMs_.size());
  const double per = n > 0 ? 1.0 / n : 0.0;
  MetricMap m;
  for (const auto& [name, ms] : passMs) m[name + ".ms"] = {ms * per, "ms"};
  for (const auto& [module, ms] : moduleMs) m[module + ".ms"] = {ms * per, "ms"};
  m["pipeline.other_ms"] = {otherMs * per, "ms"};
  m["compile.ms"] = {compileMs * per, "ms"};
  m["compile.count"] = {n, "count"};
  m["vhdl.share"] = {compileMs > 0 ? moduleMs["vhdl"] / compileMs : 0, "ratio"};
  m["trace.overhead_ms"] = {median(tracedMs_) - median(untracedMs_), "ms"};
  return m;
}

bool writeChromeTrace(const std::string& path,
                      const std::vector<std::pair<std::string, const SpanLog*>>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    std::fprintf(f, "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %zu, "
                    "\"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", tid, logs[tid].first.c_str());
    first = false;
    for (const Span& s : logs[tid].second->spans()) {
      std::fprintf(f, ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                      "\"dur\": %.3f, \"pid\": 1, \"tid\": %zu, \"args\": {\"req\": %lld%s}}",
                   s.name.c_str(), s.cat.c_str(), s.startMs * 1000, s.ms() * 1000, tid,
                   static_cast<long long>(s.req),
                   s.label.empty() ? "" : (", \"label\": \"" + s.label + "\"").c_str());
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

} // namespace perfbench
