// Span tracing for the benchmark's traced runs (--trace 1). Spans are
// recorded only from the benchmark's own code, around its calls into the
// library's public functions; nothing inside src/ is instrumented. Each
// thread records into its own SpanLog, kept in memory and written out once,
// as a Chrome trace-event file, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::string cat;  ///< module / layer the span belongs to
  int parent = -1;  ///< index into the same log; -1 for a root span
  int64_t req = 0;  ///< spans of one request (job, sweep, daemon request) share it
  std::string label; ///< what the span worked on ("dct@u1"), when it names one input
  double startMs = 0, endMs = 0;
  double ms() const { return endMs - startMs; }
};

/// One thread's spans. Not thread-safe: give each thread its own log.
class SpanLog {
 public:
  /// Opens a span whose parent is the innermost span still open.
  int begin(std::string name, std::string cat, int64_t req);
  void end(int id);
  void setLabel(int id, std::string label) { spans_[id].label = std::move(label); }
  /// Records a span whose interval is already known (for example one that
  /// starts at an open-loop request's due time).
  int add(std::string name, std::string cat, int64_t req, double startMs, double endMs,
          int parent = -1);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, std::string cat, int64_t req)
      : log_(log), id_(log ? log->begin(std::move(name), std::move(cat), req) : -1) {}
  ~SpanScope() {
    if (log_) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Self time of every span: its duration minus its children's durations.
std::vector<double> selfTimes(const std::vector<Span>& spans);

/// The pipeline layer of one workload: compiles that alternate between
/// traced (every Pass::run of Compiler::buildPipeline() wrapped in a span
/// under one "compile" span) and untraced (plain compileSource), so the
/// difference of the two medians is the tracing overhead.
class PipelineTrace {
 public:
  /// Compiles `source` (named `label` in the trace); traced when `traced`.
  /// Returns the wall time in ms.
  double compile(const roccc::CompileOptions& options, const std::string& source,
                 const std::string& label, int64_t req, bool traced, roccc::CompileResult& out);
  /// pass.<name>.ms, <module>.ms, pipeline.other_ms, compile.ms,
  /// compile.count, vhdl.share and trace.overhead_ms. Per-compile means
  /// over the traced compiles.
  MetricMap metrics() const;
  const SpanLog& log() const { return log_; }

 private:
  SpanLog log_;
  std::vector<double> tracedMs_, untracedMs_;
};

/// Writes the logs as one Chrome trace-event JSON file (one tid per log).
bool writeChromeTrace(const std::string& path,
                      const std::vector<std::pair<std::string, const SpanLog*>>& logs);

} // namespace perfbench
