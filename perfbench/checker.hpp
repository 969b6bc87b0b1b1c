// The benchmark's output checker. Every workload compares what the
// program produced against references that do not come from the code path
// being timed:
//   - each design point is cosimulated against the AST interpreter on a
//     seeded deterministic stimulus;
//   - the Table 1 kernels at unroll 1 must reproduce tests/golden/*.vhd
//     byte for byte;
//   - every timed output (VHDL text, sweep report) must equal the checked
//     reference byte for byte.
// Every mismatch is one failure and counts in the run's error rate.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "synth/estimate.hpp"

namespace perfbench {

/// Quality of one generated design: area and clock from synth::estimate,
/// cycles from a FastSim system run — the metrics roccc::runSweep reports.
struct Qor {
  double slices = 0;
  double fmaxMHz = 0;
  double cycles = 0;
};

/// The two halves of runSweep's metric collection on one Ok compile that
/// still carries its IR: synth::estimate under the built-in timing model,
/// and a FastSim system run on the stimulus of SweepOptions' default seed.
roccc::synth::Report estimateDesign(const roccc::CompileResult& r);
roccc::rtl::SystemStats simulateDesign(const roccc::CompileResult& r);
/// Both, as QoR.
Qor measureQor(const roccc::CompileResult& r);

/// Compiles every design point once, fresh Compiler per point, no cache.
std::vector<roccc::CompileResult> compileAll(const Inputs& in);

class Checker {
 public:
  /// Records one failed check; the first few are printed to stderr.
  void fail(const std::string& what);
  int64_t failures() const;

  /// Takes the design points' compile results as references and checks
  /// them: compile outcome, cosimulation against the interpreter on
  /// deterministicStimulus(seed), and the Table 1 goldens at unroll 1.
  /// Also measures each point's QoR and IR sizes.
  void adoptReferences(const Inputs& in, std::vector<roccc::CompileResult> results,
                       uint64_t seed);
  const roccc::CompileResult& reference(size_t point) const { return refs_.at(point); }
  const Qor& qor(size_t point) const { return qor_.at(point); }

  /// Byte comparison; a difference is recorded as a failure named `what`.
  bool sameText(const std::string& expected, const std::string& got, const std::string& what);
  bool vhdlMatches(size_t point, const std::string& vhdl) {
    return sameText(refs_.at(point).vhdl, vhdl, "VHDL of " + labels_.at(point));
  }

  /// design_{slices,fmax_mhz,cycles}_geomean over the reference points.
  MetricMap qorMetrics() const;
  /// IR-size counts summed over the reference points (mir.instrs,
  /// dp.stages, rtl.cells, rtl.nets, vhdl.bytes, verilog.bytes).
  MetricMap irCounts() const;

 private:
  mutable std::mutex mutex_;
  int64_t failures_ = 0;
  std::vector<roccc::CompileResult> refs_;
  std::vector<Qor> qor_;
  std::vector<std::string> labels_;
};

/// Geomeans of a QoR set, as the design_* metrics.
MetricMap qorGeomeans(const std::vector<Qor>& qor);

/// Feeds the checker one wrong VHDL text and one wrong sweep report and
/// verifies each is counted as a failure (and that the right ones are not).
/// Returns the process exit code.
int selfTest(const Inputs& in);

} // namespace perfbench
