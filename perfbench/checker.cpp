#include "checker.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "roccc/explore.hpp"
#include "roccc/verify.hpp"

namespace perfbench {

namespace {

/// runSweep's default FastSim stimulus seed: QoR must not depend on the
/// benchmark seed, so that it repeats exactly across runs.
const uint64_t kQorSeed = roccc::SweepOptions{}.seed;

int64_t mirInstrs(const roccc::mir::FunctionIR& f) {
  int64_t n = 0;
  for (const auto& b : f.blocks) n += static_cast<int64_t>(b.instrs.size());
  return n;
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

} // namespace

roccc::synth::Report estimateDesign(const roccc::CompileResult& r) {
  auto eo = roccc::synth::EstimateOptions::forModel(roccc::synth::TimingModel::virtex2());
  eo.useMult18 = false; // the MultStyle::Lut default every design point uses
  return roccc::synth::estimate(r.module, eo);
}

roccc::rtl::SystemStats simulateDesign(const roccc::CompileResult& r) {
  const roccc::interp::KernelIO io = roccc::deterministicStimulus(r.kernel, kQorSeed);
  return roccc::rtl::measureSystem(r.kernel, r.datapath, r.module, io, roccc::rtl::SystemOptions{});
}

Qor measureQor(const roccc::CompileResult& r) {
  const roccc::synth::Report est = estimateDesign(r);
  return {static_cast<double>(est.slices), est.fmaxMHz(),
          static_cast<double>(simulateDesign(r).cycles)};
}

std::vector<roccc::CompileResult> compileAll(const Inputs& in) {
  std::vector<roccc::CompileResult> out;
  out.reserve(in.points.size());
  for (const auto& p : in.points) {
    out.push_back(roccc::Compiler(p.options).compileSource(in.sourceOf(p)));
  }
  return out;
}

void Checker::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (++failures_ <= 5) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

int64_t Checker::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

bool Checker::sameText(const std::string& expected, const std::string& got,
                       const std::string& what) {
  if (expected == got) return true;
  fail(what + " differs from the checked reference");
  return false;
}

void Checker::adoptReferences(const Inputs& in, std::vector<roccc::CompileResult> results,
                              uint64_t seed) {
  refs_ = std::move(results);
  qor_.assign(refs_.size(), Qor{});
  labels_.clear();
  for (size_t i = 0; i < in.points.size(); ++i) {
    const DesignPoint& p = in.points[i];
    const Kernel& k = in.kernels[p.kernel];
    const roccc::CompileResult& r = refs_[i];
    labels_.push_back(p.label);
    if (!r.ok) {
      fail(p.label + " did not compile: " + r.diags.dump());
      continue;
    }
    try {
      const roccc::CosimReport cosim =
          roccc::cosimulate(r, k.source, roccc::deterministicStimulus(r.kernel, seed));
      if (!cosim.match) fail(p.label + " cosimulation: " + cosim.mismatch);
      qor_[i] = measureQor(r);
    } catch (const std::exception& e) {
      fail(p.label + " simulation threw: " + e.what());
    }
    if (k.table1 && p.unroll == 1) {
      std::string golden;
      if (!readFile(in.root + "/tests/golden/" + k.name + ".vhd", golden)) {
        fail("missing golden tests/golden/" + k.name + ".vhd");
      } else {
        sameText(golden, r.vhdl, "VHDL of " + p.label + " against its golden");
      }
    }
  }
}

MetricMap qorGeomeans(const std::vector<Qor>& qor) {
  std::vector<double> slices, fmax, cycles;
  for (const Qor& q : qor) {
    slices.push_back(q.slices);
    fmax.push_back(q.fmaxMHz);
    cycles.push_back(q.cycles);
  }
  return {{"design_slices_geomean", {geomean(slices), "slices"}},
          {"design_fmax_mhz_geomean", {geomean(fmax), "MHz"}},
          {"design_cycles_geomean", {geomean(cycles), "cycles"}}};
}

MetricMap Checker::qorMetrics() const { return qorGeomeans(qor_); }

MetricMap Checker::irCounts() const {
  double instrs = 0, stages = 0, cells = 0, nets = 0, vhdl = 0, verilog = 0;
  for (const auto& r : refs_) {
    instrs += static_cast<double>(mirInstrs(r.mir));
    stages += r.datapath.stageCount;
    cells += static_cast<double>(r.module.cells.size());
    nets += static_cast<double>(r.module.nets.size());
    vhdl += static_cast<double>(r.vhdl.size());
    verilog += static_cast<double>(r.verilog.size());
  }
  return {{"mir.instrs", {instrs, "count"}},   {"dp.stages", {stages, "count"}},
          {"rtl.cells", {cells, "count"}},     {"rtl.nets", {nets, "count"}},
          {"vhdl.bytes", {vhdl, "bytes"}},     {"verilog.bytes", {verilog, "bytes"}}};
}

int selfTest(const Inputs& in) {
  // Two Table 1 design points are enough to exercise both comparisons.
  Inputs small = in;
  small.points.clear();
  for (const auto& p : in.points) {
    if (in.kernels[p.kernel].name == "fir" && p.unroll <= 2) small.points.push_back(p);
  }
  Checker checker;
  checker.adoptReferences(small, compileAll(small), 1);
  bool ok = checker.failures() == 0;
  if (!ok) std::printf("self-test: the references themselves failed their checks\n");

  // A correct VHDL text passes; one changed byte is one failure.
  std::string vhdl = checker.reference(0).vhdl;
  ok &= checker.vhdlMatches(0, vhdl);
  vhdl[vhdl.size() / 2] ^= 1;
  const int64_t before = checker.failures();
  ok &= !checker.vhdlMatches(0, vhdl);
  ok &= checker.failures() == before + 1;

  // A re-run sweep report passes; one changed metric digit is one failure.
  roccc::SweepGrid grid;
  const Kernel& fir = small.kernels[small.points[0].kernel];
  grid.kernels.push_back({fir.name, fir.source, fir.targetNs});
  roccc::SweepOptions so;
  so.workers = 1;
  const std::string report = roccc::runSweep(grid, so).toJson(false);
  ok &= checker.sameText(report, roccc::runSweep(grid, so).toJson(false), "sweep report");
  std::string wrong = report;
  const size_t at = wrong.find("\"slices\": ");
  ok &= at != std::string::npos;
  if (at != std::string::npos) {
    char& digit = wrong[at + 10];
    digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
  }
  const int64_t beforeSweep = checker.failures();
  ok &= !checker.sameText(report, wrong, "sweep report (deliberately wrong)");
  ok &= checker.failures() == beforeSweep + 1;

  std::printf("self-test: %s (%lld failures counted, 2 expected)\n", ok ? "PASSED" : "FAILED",
              static_cast<long long>(checker.failures()));
  return ok ? 0 : 1;
}

} // namespace perfbench
