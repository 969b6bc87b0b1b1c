// Cost contract for two layers every compile or report touches: ssa-build
// and synth::estimate do linear work (docs/ARCHITECTURE.md, "Cost
// contract").
//
// Each kernel family is generated at n and 4n. A layer's time is the
// fastest of five runs in this process (ssa-build's PassStatistics::wallMs,
// and a timed synth::estimate of the compiled module). A linear layer grows
// about 4x per 4x of input and a quadratic one 16x; a shared machine's speed
// can drift up to 2x between runs, so the bound is 8x.
//
//   - straight-line: `x = (x ^ B[i]) + k;` n times, then `S[i] = x + A[i]`.
//     One long MIR block, and a pipeline with an n-stage A[i] register chain
//     (SRL16 inference walks it).
//   - branchy: n `if` arms writing one variable, compiled without
//     pipelining: n phis, a dominator tree n blocks deep, and one
//     combinational path through n muxes (the critical-path search walks
//     it). Pipelined, this kernel's netlist itself grows as n^2.
//
// The last test pins the deadline checkpoint inside ssa-build.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "mir/lower.hpp"
#include "mir/ssa.hpp"
#include "roccc/compiler.hpp"
#include "support/budget.hpp"
#include "support/timer.hpp"
#include "synth/estimate.hpp"

namespace roccc {
namespace {

constexpr int kN = 1000;
constexpr double kMaxGrowth = 8.0;

std::string straightLineKernel(int n) {
  std::string s =
      "void straight(const int32 A[64], const int32 B[64], int32 S[64]) {\n"
      "  int i;\n  int32 x;\n  for (i = 0; i < 64; i++) {\n    x = A[i];\n";
  for (int k = 0; k < n; ++k) s += "    x = (x ^ B[i]) + " + std::to_string(k % 7 + 1) + ";\n";
  return s + "    S[i] = x + A[i];\n  }\n}\n";
}

std::string branchyKernel(int n) {
  std::string s =
      "void branchy(const int32 A[64], const int32 B[64], int32 S[64]) {\n"
      "  int i;\n  int32 x;\n  for (i = 0; i < 64; i++) {\n    x = A[i];\n";
  for (int k = 0; k < n; ++k) {
    s += "    if (B[i] > " + std::to_string(k) + ") {\n      x = x + " + std::to_string(k % 7 + 1) +
         ";\n    }\n";
  }
  return s + "    S[i] = x;\n  }\n}\n";
}

struct LayerMs {
  double ssaBuild = std::numeric_limits<double>::infinity();
  double estimate = std::numeric_limits<double>::infinity();
};

LayerMs fastestOfFive(const std::string& source, const CompileOptions& options) {
  LayerMs best;
  for (int rep = 0; rep < 5; ++rep) {
    const CompileResult r = Compiler(options).compileSource(source);
    EXPECT_TRUE(r.ok) << r.diags.dump();
    if (!r.ok) return best;
    for (const auto& st : r.passLog) {
      if (st.name == "ssa-build") best.ssaBuild = std::min(best.ssaBuild, st.wallMs);
    }
    const WallTimer timer;
    const synth::Report est = synth::estimate(r.module);
    best.estimate = std::min(best.estimate, timer.elapsedMs());
    EXPECT_GT(est.slices, 0);
  }
  return best;
}

void expectLinear(std::string (*kernel)(int), const CompileOptions& options) {
  const LayerMs small = fastestOfFive(kernel(kN), options);
  const LayerMs large = fastestOfFive(kernel(4 * kN), options);
  std::printf("  ssa-build  n=%d %.3f ms, 4n %.3f ms (%.1fx)\n", kN, small.ssaBuild,
              large.ssaBuild, large.ssaBuild / small.ssaBuild);
  std::printf("  estimate   n=%d %.3f ms, 4n %.3f ms (%.1fx)\n", kN, small.estimate,
              large.estimate, large.estimate / small.estimate);
  EXPECT_LE(large.ssaBuild, kMaxGrowth * small.ssaBuild) << "ssa-build grows super-linearly";
  EXPECT_LE(large.estimate, kMaxGrowth * small.estimate) << "synth::estimate grows super-linearly";
}

TEST(Scaling, StraightLineKernelIsLinearInSsaBuildAndEstimate) {
  expectLinear(straightLineKernel, CompileOptions{});
}

TEST(Scaling, BranchyKernelIsLinearInSsaBuildAndEstimate) {
  CompileOptions options;
  options.dpOptions.pipeline = false;
  expectLinear(branchyKernel, options);
}

TEST(Scaling, SsaBuildStopsAtAnExpiredDeadlineInsideThePass) {
  std::string src = "void dp(int a, int* o) {\n  int t;\n  t = a;\n";
  for (int k = 0; k < 2000; ++k) src += "  t = t + " + std::to_string(k % 7 + 1) + ";\n";
  src += "  *o = t;\n}\n";
  DiagEngine diags;
  ast::Module m = ast::parse(src, diags);
  ASSERT_TRUE(ast::analyze(m, diags)) << diags.dump();
  mir::FunctionIR f;
  ASSERT_TRUE(mir::lowerToMir(m, "dp", f, diags)) << diags.dump();

  BudgetLimits limits;
  limits.timeoutMs = -1; // already expired
  CompileBudget budget(limits);
  const BudgetScope scope(&budget);
  try {
    mir::buildSSA(f);
    FAIL() << "buildSSA returned past an expired deadline";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::Deadline);
    EXPECT_EQ(e.where(), "ssa-build");
  }
}

} // namespace
} // namespace roccc
