#include <gtest/gtest.h>

#include "dp/annotate.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "dp/eval.hpp"
#include "rtl/from_dp.hpp"
#include "roccc/compiler.hpp"
#include "support/strings.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {
namespace {

CompileResult compile(const std::string& src, CompileOptions opt = {}) {
  opt.emitVerilog = true; // the Verilog.* tests read CompileResult::verilog
  Compiler c(opt);
  CompileResult r = c.compileSource(src);
  EXPECT_TRUE(r.ok) << r.diags.dump();
  return r;
}

const char* kFir = R"(
  void fir(const int16 A[36], int16 C[32]) {
    int i;
    for (i = 0; i < 32; i = i + 1) {
      C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
    }
  }
)";

const char* kAcc = R"(
  int32 sum = 0;
  void acc(const int32 A[16], int32* out) {
    int i;
    for (i = 0; i < 16; i++) { sum = sum + A[i]; }
    *out = sum;
  }
)";

// --- JSON export (Fig 1 "Graph Editor + Annotation") ---------------------------

TEST(Annotation, JsonExportIsWellFormedAndComplete) {
  CompileResult r = compile(kFir);
  const std::string json = dp::exportJson(r.datapath);
  // Structural sanity: balanced braces/brackets, key sections present.
  int braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  for (const char* key : {"\"nodes\"", "\"ops\"", "\"values\"", "\"inputs\"", "\"outputs\"",
                          "\"feedbacks\"", "\"stages\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"fir_dp\""), std::string::npos);
}

TEST(Annotation, ForceStageRepipelines) {
  CompileResult r = compile(kFir);
  const int before = r.datapath.stageCount;
  // Push the last op a few stages later.
  dp::Annotations a;
  int lastOp = -1;
  for (size_t i = 0; i < r.datapath.ops.size(); ++i) {
    if (r.datapath.ops[i].result >= 0) lastOp = static_cast<int>(i);
  }
  ASSERT_GE(lastOp, 0);
  a.forceStage[lastOp] = before + 2;
  DiagEngine diags;
  ASSERT_TRUE(dp::applyAnnotations(r.datapath, a, diags)) << diags.dump();
  EXPECT_EQ(r.datapath.stageCount, before + 3);
  // Rebuild RTL and verify behavior is unchanged.
  rtl::Module m2;
  rtl::buildDatapathModule(r.datapath, m2);
  std::vector<std::string> rtlErrors;
  ASSERT_TRUE(m2.verify(rtlErrors)) << (rtlErrors.empty() ? "" : rtlErrors.front());
  interp::KernelIO in;
  for (int i = 0; i < 36; ++i) in.arrays["A"].push_back((i * 31) % 199 - 99);
  rtl::System sys(r.kernel, r.datapath, m2, {});
  const auto hw = sys.run(in);
  DiagEngine d2;
  ast::Module ref = ast::parse(kFir, d2);
  ast::analyze(ref, d2);
  const auto sw = interp::runKernel(ref, "fir", in);
  EXPECT_EQ(hw.arrays.at("C"), sw.arrays.at("C"));
}

TEST(Annotation, ForceStageRespectsFeedbackLoops) {
  CompileResult r = compile(kAcc);
  // Pinning the SNX-producing op to a later stage than the LPR breaks the
  // single-latch loop; the annotation must be rejected.
  const auto& fb = r.datapath.feedbacks.at(0);
  const int snxDef = r.datapath.values[static_cast<size_t>(fb.snxValue)].def;
  dp::Annotations a;
  a.forceStage[snxDef] = r.datapath.ops[static_cast<size_t>(snxDef)].stage + 1;
  DiagEngine diags;
  EXPECT_FALSE(dp::applyAnnotations(r.datapath, a, diags));
  EXPECT_NE(diags.dump().find("feedback"), std::string::npos) << diags.dump();
}

TEST(Annotation, ForceWidthNarrowsWithWarning) {
  CompileResult r = compile(kFir);
  // Find a mid-width value and narrow it.
  std::string name;
  for (const auto& v : r.datapath.values) {
    const bool isConst = v.def >= 0 && r.datapath.ops[static_cast<size_t>(v.def)].op == mir::Opcode::Ldc;
    if (!v.name.empty() && v.width > 8 && !isConst) {
      name = v.name;
      break;
    }
  }
  ASSERT_FALSE(name.empty());
  dp::Annotations a;
  a.forceWidth[name] = 4;
  DiagEngine diags;
  EXPECT_TRUE(dp::applyAnnotations(r.datapath, a, diags));
  bool warned = false;
  for (const auto& d : diags.all()) {
    if (d.severity == Severity::Warning) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(Annotation, UnknownNamesRejected) {
  CompileResult r = compile(kFir);
  dp::Annotations a;
  a.forceWidth["no_such_value"] = 8;
  DiagEngine diags;
  EXPECT_FALSE(dp::applyAnnotations(r.datapath, a, diags));
}

// --- Verilog backend --------------------------------------------------------------

TEST(Verilog, EmittedDesignsValidate) {
  for (const char* src : {kFir, kAcc}) {
    CompileResult r = compile(src);
    ASSERT_FALSE(r.verilog.empty());
    const auto chk = verilog::checkDesign(r.verilog);
    EXPECT_TRUE(chk.ok) << join(chk.problems, "\n") << "\n---\n" << r.verilog;
    EXPECT_GE(chk.moduleCount, static_cast<int>(r.datapath.nodes.size()) + 1);
    EXPECT_GE(chk.instantiationCount, static_cast<int>(r.datapath.nodes.size()));
  }
}

TEST(Verilog, BranchKernelWithRomValidates) {
  const char* src = R"(
    const int16 T[8] = {1,2,3,4,5,6,7,8};
    void k(const uint3 A[8], int16 C[8]) {
      int i;
      for (i = 0; i < 8; i++) {
        if (A[i] < 4) { C[i] = T[A[i]]; } else { C[i] = -T[A[i]]; }
      }
    }
  )";
  CompileResult r = compile(src);
  const auto chk = verilog::checkDesign(r.verilog);
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n") << "\n---\n" << r.verilog;
  EXPECT_NE(r.verilog.find("case (addr)"), std::string::npos); // ROM module
}

TEST(Verilog, MentionsKeyConstructs) {
  CompileResult r = compile(kAcc);
  EXPECT_NE(r.verilog.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(r.verilog.find("module acc_dp("), std::string::npos);
  EXPECT_NE(r.verilog.find("input wire valid"), std::string::npos); // gated feedback
  EXPECT_NE(r.verilog.find("_fbreg"), std::string::npos);
}

TEST(Verilog, ValidatorCatchesBrokenText) {
  const auto bad1 = verilog::checkDesign("module a(input wire x);\n");
  EXPECT_FALSE(bad1.ok); // unterminated
  const auto bad2 = verilog::checkDesign(R"(
    module a(input wire x, output wire y);
      assign z = x;
    endmodule
  )");
  EXPECT_FALSE(bad2.ok); // z undeclared
  const auto good = verilog::checkDesign(R"(
    module a(input wire x, output wire y);
      assign y = x;
    endmodule
  )");
  EXPECT_TRUE(good.ok) << join(good.problems, "\n");
}

} // namespace
} // namespace roccc
