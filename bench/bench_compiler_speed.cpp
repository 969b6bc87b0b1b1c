// Compiler-speed microbenchmarks (google-benchmark): end-to-end compile
// time per Table 1 kernel, HDL emission time on its own, plus the
// compile-time area estimation the unrolling heuristic relies on (ref [13]
// reports < 1 ms — ours is far below that) and the cycle-accurate system
// simulation rate.
#include <benchmark/benchmark.h>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/transforms.hpp"
#include "kernels.hpp"
#include "roccc/compiler.hpp"
#include "roccc/driver.hpp"
#include "synth/estimate.hpp"
#include "vhdl/emit.hpp"
#include "vhdl/verilog.hpp"

namespace {

using namespace roccc;

void BM_CompileFir(benchmark::State& state) {
  for (auto _ : state) {
    Compiler c;
    benchmark::DoNotOptimize(c.compileSource(bench::kFir));
  }
}
BENCHMARK(BM_CompileFir);

void BM_CompileDct(benchmark::State& state) {
  for (auto _ : state) {
    Compiler c;
    benchmark::DoNotOptimize(c.compileSource(bench::kDct));
  }
}
BENCHMARK(BM_CompileDct);

void BM_CompileSquareRoot(benchmark::State& state) {
  for (auto _ : state) {
    Compiler c;
    benchmark::DoNotOptimize(c.compileSource(bench::kSquareRoot));
  }
}
BENCHMARK(BM_CompileSquareRoot);

void BM_CompileWavelet2D(benchmark::State& state) {
  for (auto _ : state) {
    Compiler c;
    benchmark::DoNotOptimize(c.compileSource(bench::kWavelet));
  }
}
BENCHMARK(BM_CompileWavelet2D);

/// Emission alone: the kernel is compiled once, then each iteration re-emits
/// the text from the stored data path (and netlist, for the VHDL header),
/// so emission cost is measured apart from the rest of the pipeline.
void BM_EmitVhdl(benchmark::State& state, const char* source) {
  const CompileResult r = Compiler().compileSource(source);
  if (!r.ok) state.SkipWithError("compile failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vhdl::emitDesign(r.datapath, r.module, r.kernel));
  }
}
BENCHMARK_CAPTURE(BM_EmitVhdl, dct, bench::kDct);
BENCHMARK_CAPTURE(BM_EmitVhdl, cos, bench::kCos);

void BM_EmitVerilog(benchmark::State& state, const char* source) {
  const CompileResult r = Compiler().compileSource(source);
  if (!r.ok) state.SkipWithError("compile failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(verilog::emitDesign(r.datapath, r.kernel));
  }
}
BENCHMARK_CAPTURE(BM_EmitVerilog, dct, bench::kDct);
BENCHMARK_CAPTURE(BM_EmitVerilog, cos, bench::kCos);

/// The nine Table 1 workloads as one CompileService batch, with the
/// per-kernel options of bench_table1's rows (bench::kTable1Kernels).
std::vector<CompileJob> table1Batch() {
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions o;
    if (k.targetStageDelayNs > 0) o.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    jobs.push_back({k.name, k.source, o});
  }
  return jobs;
}

/// Batch compilation throughput: the Table 1 sweep fanned out across a
/// worker pool. state.range(0) = worker count; the kernels/s counter is
/// the aggregate figure the batch driver reports. Past the machine's core
/// count extra workers only measure scheduling overhead.
void BM_CompileBatchTable1(benchmark::State& state) {
  const auto jobs = table1Batch();
  const CompileService service(static_cast<int>(state.range(0)));
  int64_t kernels = 0;
  for (auto _ : state) {
    BatchResult batch = service.compileBatch(jobs);
    if (!batch.allOk()) state.SkipWithError("batch compile failed");
    kernels += static_cast<int64_t>(batch.results.size());
    benchmark::DoNotOptimize(batch);
  }
  state.counters["kernels/s"] =
      benchmark::Counter(static_cast<double>(kernels), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CompileBatchTable1)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The ref [13] claim: compile-time area estimation in well under 1 ms.
void BM_AreaEstimation(benchmark::State& state) {
  DiagEngine diags;
  ast::Module m = ast::parse(bench::kDct, diags);
  ast::analyze(m, diags);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hlir::estimateArea(m.functions[0]));
  }
}
BENCHMARK(BM_AreaEstimation);

/// Post-compile synthesis estimation over the netlist.
void BM_SynthesisEstimate(benchmark::State& state) {
  Compiler c;
  const CompileResult r = c.compileSource(bench::kDct);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::estimate(r.module));
  }
}
BENCHMARK(BM_SynthesisEstimate);

/// Cycle-accurate simulation rate of the FIR system.
void BM_SystemSimulationFir(benchmark::State& state) {
  Compiler c;
  const CompileResult r = c.compileSource(bench::kFir);
  interp::KernelIO in;
  for (int i = 0; i < 68; ++i) in.arrays["A"].push_back(i);
  int64_t cycles = 0;
  for (auto _ : state) {
    rtl::System sys(r.kernel, r.datapath, r.module);
    benchmark::DoNotOptimize(sys.run(in));
    cycles += sys.stats().cycles;
  }
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemSimulationFir);

} // namespace

BENCHMARK_MAIN();
