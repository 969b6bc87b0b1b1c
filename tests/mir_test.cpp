#include <gtest/gtest.h>

#include <functional>

#include "design_points.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/kernel.hpp"
#include "mir/exec.hpp"
#include "mir/ir.hpp"
#include "mir/lower.hpp"
#include "mir/passes.hpp"
#include "mir/ssa.hpp"
#include "kernel_fuzzer.hpp"
#include "roccc/compiler.hpp"
#include "support/strings.hpp"

namespace roccc::mir {
namespace {

using ast::Module;

Module buildModule(const std::string& src) {
  DiagEngine diags;
  Module m = ast::parse(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  EXPECT_TRUE(ast::analyze(m, diags)) << diags.dump();
  return m;
}

/// Parses a dp-style (loop-free) function and lowers it.
FunctionIR lower(const std::string& src, const std::string& fn) {
  Module m = buildModule(src);
  FunctionIR f;
  DiagEngine diags;
  EXPECT_TRUE(lowerToMir(m, fn, f, diags)) << diags.dump();
  return f;
}

FunctionIR lowerSSA(const std::string& src, const std::string& fn) {
  FunctionIR f = lower(src, fn);
  buildSSA(f);
  std::vector<std::string> errors;
  EXPECT_TRUE(f.verifySSA(errors)) << roccc::join(errors, "\n") << "\n" << f.dump();
  return f;
}

std::vector<Value> inputsOf(const FunctionIR& f, const std::vector<int64_t>& vals) {
  std::vector<Value> in;
  size_t vi = 0;
  for (const auto& p : f.params) {
    if (!p.isOutput) in.push_back(Value::fromInt(p.type, vals.at(vi++)));
  }
  return in;
}

// The paper's Fig 5 kernel, as the dp function (scalars only).
const char* kIfElseSrc = R"(
  void if_else(int x1, int x2, int* x3, int* x4) {
    int a;
    int c;
    c = x1 - x2;
    if (c < x2)
      a = x1 * x1;
    else
      a = x1 * x2 + 3;
    c = c - a;
    *x3 = c;
    *x4 = a;
    return;
  }
)";

TEST(Lower, StraightLine) {
  FunctionIR f = lower("void dp(int a, int b, int* o) { *o = a * b + 3; }", "dp");
  ASSERT_EQ(f.blocks.size(), 1u);
  // in, in, mul, ldc, add, out, ret
  std::vector<Opcode> ops;
  for (const auto& in : f.entry().instrs) ops.push_back(in.op);
  EXPECT_EQ(ops, (std::vector<Opcode>{Opcode::In, Opcode::In, Opcode::Mul, Opcode::Ldc, Opcode::Add,
                                      Opcode::Out, Opcode::Ret}));
}

TEST(Lower, IfElseMakesDiamond) {
  FunctionIR f = lower(kIfElseSrc, "if_else");
  // entry, then, else, join = 4 blocks (the paper's nodes 1-4, Fig 6).
  ASSERT_EQ(f.blocks.size(), 4u);
  EXPECT_EQ(f.blocks[0].succs.size(), 2u);
  EXPECT_EQ(f.blocks[3].preds.size(), 2u);
  std::vector<std::string> errors;
  EXPECT_TRUE(f.verify(errors)) << roccc::join(errors, "\n");
}

TEST(Lower, FeedbackMacros) {
  FunctionIR f = lower(R"(
    int32 sum = 0;
    void acc_dp(int32 A0, int32* out) {
      int32 sum_fb;
      sum_fb = ROCCC_load_prev(sum) + A0;
      ROCCC_store2next(sum, sum_fb);
      *out = sum_fb;
    }
  )", "acc_dp");
  int lpr = 0, snx = 0;
  for (const auto& in : f.entry().instrs) {
    if (in.op == Opcode::Lpr) ++lpr;
    if (in.op == Opcode::Snx) ++snx;
  }
  EXPECT_EQ(lpr, 1);
  EXPECT_EQ(snx, 1);
  ASSERT_EQ(f.feedbacks.size(), 1u);
  EXPECT_EQ(f.feedbacks[0].name, "sum");
}

TEST(Lower, RejectsLoops) {
  Module m = buildModule(R"(
    void dp(const int8 A[4], int8* o) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < 4; i++) { s = s + A[i]; }
      *o = s;
    }
  )");
  FunctionIR f;
  DiagEngine diags;
  EXPECT_FALSE(lowerToMir(m, "dp", f, diags));
  EXPECT_NE(diags.dump().find("controller"), std::string::npos) << diags.dump();
}

TEST(Analyses, RpoAndDominators) {
  FunctionIR f = lower(kIfElseSrc, "if_else");
  const auto rpo = reversePostOrder(f);
  ASSERT_EQ(rpo.size(), 4u);
  EXPECT_EQ(rpo.front(), 0);
  EXPECT_EQ(rpo.back(), 3);
  const DomTree dt = computeDominators(f);
  EXPECT_EQ(dt.idom[0], 0);
  EXPECT_EQ(dt.idom[1], 0);
  EXPECT_EQ(dt.idom[2], 0);
  EXPECT_EQ(dt.idom[3], 0); // join dominated by entry, not by a branch
  EXPECT_TRUE(dt.dominates(0, 3));
  EXPECT_FALSE(dt.dominates(1, 3));
  // The branch blocks have the join in their dominance frontier.
  EXPECT_TRUE(dt.frontier[1].count(3));
  EXPECT_TRUE(dt.frontier[2].count(3));
}

TEST(Analyses, Liveness) {
  FunctionIR f = lowerSSA(kIfElseSrc, "if_else");
  const Liveness lv = computeLiveness(f);
  // x1's register is live out of the entry block (used in both branches).
  int x1reg = -1;
  for (const auto& in : f.entry().instrs) {
    if (in.op == Opcode::In && in.aux0 == 0) x1reg = in.dst;
  }
  ASSERT_GE(x1reg, 0);
  EXPECT_TRUE(lv.liveOut[0].count(x1reg));
  // Nothing is live out of the exit block.
  EXPECT_TRUE(lv.liveOut[3].empty());
}

TEST(Analyses, ReachingDefs) {
  FunctionIR f = lower(kIfElseSrc, "if_else");
  const ReachingDefs rd = computeReachingDefs(f);
  // Defs of 'a' from both branches reach the join block.
  int aReg = -1;
  for (size_t r = 0; r < f.regNames.size(); ++r) {
    if (f.regNames[r] == "a") aReg = static_cast<int>(r);
  }
  ASSERT_GE(aReg, 0);
  int reachingADefs = 0;
  for (const auto& [bid, idx] : rd.in[3]) {
    if (f.blocks[static_cast<size_t>(bid)].instrs[static_cast<size_t>(idx)].dst == aReg) ++reachingADefs;
  }
  EXPECT_EQ(reachingADefs, 2);
}

TEST(SSA, InsertsPhiAtJoin) {
  FunctionIR f = lowerSSA(kIfElseSrc, "if_else");
  int phis = 0;
  for (const auto& in : f.blocks[3].instrs) {
    if (in.op == Opcode::Phi) ++phis;
  }
  // 'a' needs a phi ('c' is only re-assigned in the join itself).
  EXPECT_GE(phis, 1);
}

TEST(SSA, ExecMatchesPreSSA) {
  FunctionIR f0 = lower(kIfElseSrc, "if_else");
  FunctionIR f1 = lower(kIfElseSrc, "if_else");
  buildSSA(f1);
  for (int x1 = -4; x1 <= 4; ++x1) {
    for (int x2 = -4; x2 <= 4; ++x2) {
      const auto a = execute(f0, inputsOf(f0, {x1, x2}), {});
      const auto b = execute(f1, inputsOf(f1, {x1, x2}), {});
      ASSERT_EQ(a.outputs.size(), b.outputs.size());
      for (size_t i = 0; i < a.outputs.size(); ++i) {
        EXPECT_EQ(a.outputs[i].toInt(), b.outputs[i].toInt()) << "x1=" << x1 << " x2=" << x2;
      }
    }
  }
}

TEST(Exec, IfElsePaperValues) {
  FunctionIR f = lowerSSA(kIfElseSrc, "if_else");
  const auto r = execute(f, inputsOf(f, {9, 2}), {});
  EXPECT_EQ(r.outputs[0].toInt(), -14); // x3
  EXPECT_EQ(r.outputs[1].toInt(), 21);  // x4
}

TEST(Exec, FeedbackThreading) {
  FunctionIR f = lowerSSA(R"(
    int32 sum = 5;
    void acc_dp(int32 A0, int32* out) {
      int32 sum_fb;
      sum_fb = ROCCC_load_prev(sum) + A0;
      ROCCC_store2next(sum, sum_fb);
      *out = sum_fb;
    }
  )", "acc_dp");
  std::map<std::string, Value> fb; // empty: initial value 5 applies
  int64_t expect = 5;
  for (int t = 0; t < 6; ++t) {
    const auto r = execute(f, {Value::ofInt(t * 3)}, fb);
    expect += t * 3;
    EXPECT_EQ(r.outputs[0].toInt(), expect);
    fb = r.nextFeedback;
  }
}

TEST(Passes, ConstantPropagationFolds) {
  FunctionIR f = lowerSSA("void dp(int a, int* o) { int x; x = 3 * 5; *o = x + a + (2 - 2); }", "dp");
  constantPropagate(f);
  copyPropagate(f);
  strengthReduce(f);
  deadCodeEliminate(f);
  // Expect: in, ldc(15), add, out, ret (or similar small form); no Mul/Sub.
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      EXPECT_NE(in.op, Opcode::Mul) << f.dump();
      EXPECT_NE(in.op, Opcode::Sub) << f.dump();
    }
  }
}

TEST(Passes, CseRemovesDuplicates) {
  FunctionIR f = lowerSSA(R"(
    void dp(int a, int b, int* o1, int* o2) {
      *o1 = a * b + 1;
      *o2 = a * b + 2;
    }
  )", "dp");
  const int n = commonSubexpressionEliminate(f);
  EXPECT_GE(n, 1);
  deadCodeEliminate(f);
  int muls = 0;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Mul) ++muls;
    }
  }
  EXPECT_EQ(muls, 1) << f.dump();
}

TEST(Passes, CseRespectsDominance) {
  // A multiply in one branch must not satisfy a multiply in the other.
  FunctionIR f = lowerSSA(R"(
    void dp(int a, int b, int c, int* o) {
      int r;
      if (c) { r = a * b; } else { r = a * b + 1; }
      *o = r;
    }
  )", "dp");
  commonSubexpressionEliminate(f);
  deadCodeEliminate(f);
  int muls = 0;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Mul) ++muls;
    }
  }
  EXPECT_EQ(muls, 2) << f.dump();
}

TEST(Passes, DceKeepsSideEffects) {
  FunctionIR f = lowerSSA(R"(
    int32 s = 0;
    void dp(int a, int* o) {
      int dead;
      dead = a * 17;
      ROCCC_store2next(s, a);
      *o = a + 1;
    }
  )", "dp");
  deadCodeEliminate(f);
  bool hasSnx = false, hasDeadMul = false;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Snx) hasSnx = true;
      if (in.op == Opcode::Mul) hasDeadMul = true;
    }
  }
  EXPECT_TRUE(hasSnx);
  EXPECT_FALSE(hasDeadMul);
}

TEST(Passes, StrengthReduction) {
  FunctionIR f = lowerSSA(R"(
    void dp(uint16 a, uint16* o1, uint16* o2, uint16* o3) {
      *o1 = a * 8;
      *o2 = a / 4;
      *o3 = a % 16;
    }
  )", "dp");
  strengthReduce(f);
  int mulDivRem = 0, shifts = 0, ands = 0;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Mul || in.op == Opcode::Div || in.op == Opcode::Rem) ++mulDivRem;
      if (in.op == Opcode::Shl || in.op == Opcode::Shr) ++shifts;
      if (in.op == Opcode::And) ++ands;
    }
  }
  EXPECT_EQ(mulDivRem, 0) << f.dump();
  EXPECT_EQ(shifts, 2);
  EXPECT_EQ(ands, 1);
}

TEST(Passes, SignedDivNotReduced) {
  FunctionIR f = lowerSSA("void dp(int a, int* o) { *o = a / 4; }", "dp");
  strengthReduce(f);
  int divs = 0;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Div) ++divs;
    }
  }
  EXPECT_EQ(divs, 1); // a>>2 != a/4 for negative a
}

TEST(Passes, PipelinePreservesSemantics) {
  const char* src = R"(
    void dp(int a, int b, int c, int* o1, int* o2) {
      int t;
      int u;
      t = a * b + a * b;
      if (c < a) { u = t - b * 2; } else { u = t + 0; }
      *o1 = u * 1;
      *o2 = (a & 0) + t / 1;
    }
  )";
  FunctionIR ref = lowerSSA(src, "dp");
  FunctionIR opt = lowerSSA(src, "dp");
  runStandardPasses(opt);
  std::vector<std::string> errors;
  EXPECT_TRUE(opt.verifySSA(errors)) << roccc::join(errors, "\n") << opt.dump();
  for (int a = -3; a <= 3; ++a) {
    for (int b = -3; b <= 3; ++b) {
      for (int c = -1; c <= 1; ++c) {
        const auto r0 = execute(ref, inputsOf(ref, {a, b, c}), {});
        const auto r1 = execute(opt, inputsOf(opt, {a, b, c}), {});
        for (size_t i = 0; i < r0.outputs.size(); ++i) {
          ASSERT_EQ(r0.outputs[i].toInt(), r1.outputs[i].toInt())
              << "a=" << a << " b=" << b << " c=" << c << "\n" << opt.dump();
        }
      }
    }
  }
}

TEST(Passes, CseNeverReusesASiblingBranchValue) {
  // Both arms compute a * b; neither arm dominates the other or the join,
  // so the product after the join is computed again.
  FunctionIR f = lowerSSA(R"(
    void dp(int a, int b, int c, int* o) {
      int r;
      if (c) { r = a * b; } else { r = a * b; }
      *o = r + a * b;
    }
  )", "dp");
  EXPECT_EQ(commonSubexpressionEliminate(f), 0) << f.dump();
  int muls = 0;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Mul) ++muls;
    }
  }
  EXPECT_EQ(muls, 3) << f.dump();
}

/// A one-block SSA function: `in` port 0 into v0, then `body` appends
/// instructions, then every register in `outs` goes to its own output port.
FunctionIR handBuilt(const std::function<void(FunctionIR&, Block&, int)>& body,
                     const std::function<std::vector<int>(const FunctionIR&)>& outs) {
  FunctionIR f;
  f.name = "dp";
  f.params.push_back({"x", ScalarType::make(16, false), false});
  f.addBlock();
  Block& b = f.blocks[0];
  Instr in;
  in.op = Opcode::In;
  in.dst = f.newReg(ScalarType::make(16, false), "x");
  in.type = ScalarType::make(16, false);
  b.instrs.push_back(in);
  body(f, b, in.dst);
  int port = 0;
  for (int r : outs(f)) {
    f.params.push_back({fmt("o%0", port), f.regTypes[static_cast<size_t>(r)], true});
    Instr out;
    out.op = Opcode::Out;
    out.aux0 = port++;
    out.type = f.regTypes[static_cast<size_t>(r)];
    out.srcs = {Operand::ofReg(r)};
    b.instrs.push_back(out);
  }
  Instr ret;
  ret.op = Opcode::Ret;
  b.instrs.push_back(ret);
  std::vector<std::string> errors;
  EXPECT_TRUE(f.verifySSA(errors)) << roccc::join(errors, "\n");
  return f;
}

/// Appends `dst = op srcs` with a fresh destination register of type `t`.
int emit(FunctionIR& f, Block& b, Opcode op, ScalarType t, std::vector<Operand> srcs,
         int aux0 = 0, int aux1 = 0, std::string symbol = "") {
  Instr in;
  in.op = op;
  in.type = t;
  in.dst = f.newReg(t, "");
  in.srcs = std::move(srcs);
  in.aux0 = aux0;
  in.aux1 = aux1;
  in.symbol = std::move(symbol);
  b.instrs.push_back(std::move(in));
  return b.instrs.back().dst;
}

constexpr int kChain = 2000;

/// v1 = v0 + 1, v2 = v1 + 1, ..., in program order: each definition's only
/// use comes after it, so liveness found by rescanning the block would take
/// one scan per link. Returns the register at the end of the chain.
int appendChain(FunctionIR& f, Block& b, int from) {
  int r = from;
  for (int i = 0; i < kChain; ++i) {
    r = emit(f, b, Opcode::Add, ScalarType::intTy(), {Operand::ofReg(r), Operand::ofImm(1)});
  }
  return r;
}

TEST(Passes, DceKeepsALongChainThatFeedsAnOutput) {
  int end = -1;
  FunctionIR f = handBuilt([&](FunctionIR& fn, Block& b, int x) { end = appendChain(fn, b, x); },
                           [&](const FunctionIR&) { return std::vector<int>{end}; });
  const std::string before = f.dump();
  EXPECT_EQ(deadCodeEliminate(f), 0);
  EXPECT_EQ(f.dump(), before);
}

TEST(Passes, DceRemovesALongChainThatFeedsNothing) {
  int x = -1;
  FunctionIR f = handBuilt(
      [&](FunctionIR& fn, Block& b, int in) {
        x = in;
        appendChain(fn, b, in);
      },
      [&](const FunctionIR&) { return std::vector<int>{x}; });
  EXPECT_EQ(deadCodeEliminate(f), kChain);
  EXPECT_EQ(f.blocks[0].instrs.size(), 3u) << f.dump(); // in, out, ret
}

TEST(Passes, CseKeysThatDifferOnlyInTypeAuxOrTableStayDistinct) {
  std::vector<int> regs;
  FunctionIR f = handBuilt(
      [&](FunctionIR& fn, Block& b, int x) {
        fn.tables.push_back({"t0", ScalarType::make(8, false), {1, 2, 3, 4}});
        fn.tables.push_back({"t1", ScalarType::make(8, false), {1, 2, 3, 4}});
        const Operand src = Operand::ofReg(x);
        // Signedness alone.
        regs.push_back(emit(fn, b, Opcode::Cast, ScalarType::make(16, true), {src}));
        regs.push_back(emit(fn, b, Opcode::Cast, ScalarType::make(16, false), {src}));
        // aux0 alone, then aux1 alone.
        regs.push_back(emit(fn, b, Opcode::BitSel, ScalarType::make(4, false), {src}, 4, 1));
        regs.push_back(emit(fn, b, Opcode::BitSel, ScalarType::make(4, false), {src}, 5, 1));
        regs.push_back(emit(fn, b, Opcode::BitSel, ScalarType::make(4, false), {src}, 4, 2));
        // Table symbol alone.
        regs.push_back(emit(fn, b, Opcode::Lut, ScalarType::make(8, false), {src}, 0, 0, "t0"));
        regs.push_back(emit(fn, b, Opcode::Lut, ScalarType::make(8, false), {src}, 0, 0, "t1"));
      },
      [&](const FunctionIR&) { return regs; });
  const std::string before = f.dump();
  EXPECT_EQ(commonSubexpressionEliminate(f), 0) << f.dump();
  EXPECT_EQ(f.dump(), before);

  // The same instructions repeated are common subexpressions.
  FunctionIR g = handBuilt(
      [&](FunctionIR& fn, Block& b, int x) {
        fn.tables.push_back({"t0", ScalarType::make(8, false), {1, 2, 3, 4}});
        const Operand src = Operand::ofReg(x);
        regs.clear();
        for (int rep = 0; rep < 2; ++rep) {
          regs.push_back(emit(fn, b, Opcode::Cast, ScalarType::make(16, true), {src}));
          regs.push_back(emit(fn, b, Opcode::BitSel, ScalarType::make(4, false), {src}, 4, 1));
          regs.push_back(emit(fn, b, Opcode::Lut, ScalarType::make(8, false), {src}, 0, 0, "t0"));
        }
      },
      [&](const FunctionIR&) { return regs; });
  EXPECT_EQ(commonSubexpressionEliminate(g), 3) << g.dump();
}

/// mir-optimize runs to a fixed point: running the standard passes again on
/// its output changes nothing.
void expectFixedPoint(const std::string& label, const CompileResult& r) {
  ASSERT_TRUE(r.ok) << label << ":\n" << r.diags.dump();
  FunctionIR again = r.mir;
  const StandardPassStats st = runStandardPasses(again);
  EXPECT_EQ(st.total(), 0) << label;
  EXPECT_EQ(st.rounds, 1) << label;
  EXPECT_EQ(again.dump(), r.mir.dump()) << label;
}

TEST(Passes, StandardPassesAreAFixedPointAtEveryDesignPoint) {
  for (const auto& p : testpoints::designPoints()) {
    expectFixedPoint(p.label, Compiler(p.options).compileSource(p.source));
  }
}

TEST(Passes, StandardPassesAreAFixedPointOnFuzzedKernels) {
  KernelFuzzer fuzzer(0x0b7e5eedull);
  for (int i = 0; i < 200; ++i) {
    const auto g = fuzzer.generate();
    expectFixedPoint(g.source, Compiler().compileSource(g.source));
  }
}

TEST(Verify, CatchesBrokenIR) {
  FunctionIR f = lower("void dp(int a, int* o) { *o = a; }", "dp");
  f.entry().instrs[0].dst = 99; // out-of-range register
  std::vector<std::string> errors;
  EXPECT_FALSE(f.verify(errors));
}

TEST(Verify, CatchesDoubleAssignment) {
  FunctionIR f = lower("void dp(int a, int* o) { int t; t = a; t = a + 1; *o = t; }", "dp");
  std::vector<std::string> errors;
  EXPECT_FALSE(f.verifySSA(errors)); // pre-SSA: t assigned twice
  buildSSA(f);
  errors.clear();
  EXPECT_TRUE(f.verifySSA(errors)) << roccc::join(errors, "\n");
}

// End-to-end: kernel extraction -> lowering -> SSA -> passes, validated
// against the whole-kernel AST interpreter via per-iteration execution.
TEST(EndToEnd, FirThroughMirMatchesInterp) {
  Module m = buildModule(R"(
    void fir(const int16 A[21], int16 C[17]) {
      int i;
      for (i = 0; i < 17; i = i + 1) {
        C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
      }
    }
  )");
  hlir::KernelInfo k;
  DiagEngine diags;
  ASSERT_TRUE(hlir::extractKernel(m, "fir", k, diags)) << diags.dump();
  FunctionIR f;
  ASSERT_TRUE(lowerToMir(k.dpModule, k.dpName, f, diags)) << diags.dump();
  buildSSA(f);
  runStandardPasses(f);
  std::vector<std::string> errors;
  ASSERT_TRUE(f.verifySSA(errors)) << roccc::join(errors, "\n");

  std::vector<int64_t> a;
  for (int i = 0; i < 21; ++i) a.push_back((i * 37) % 97 - 48);
  for (int i = 0; i < 17; ++i) {
    std::vector<Value> in;
    for (int t = 0; t < 5; ++t) in.push_back(Value::fromInt(ScalarType::make(16, true), a[i + t]));
    const auto r = execute(f, in, {});
    const int64_t expect =
        static_cast<int16_t>(3 * a[i] + 5 * a[i + 1] + 7 * a[i + 2] + 9 * a[i + 3] - a[i + 4]);
    EXPECT_EQ(r.outputs[0].toInt(), expect) << "iteration " << i;
  }
}

TEST(EndToEnd, MulAccThroughMir) {
  Module m = buildModule(R"(
    int32 acc = 0;
    void mul_acc(const int12 A[16], const int12 B[16], uint1 nd, int32* out) {
      int i;
      for (i = 0; i < 16; i++) {
        if (nd) {
          acc = acc + A[i] * B[i];
        }
      }
      *out = acc;
    }
  )");
  hlir::KernelInfo k;
  DiagEngine diags;
  ASSERT_TRUE(hlir::extractKernel(m, "mul_acc", k, diags)) << diags.dump();
  FunctionIR f;
  ASSERT_TRUE(lowerToMir(k.dpModule, k.dpName, f, diags)) << diags.dump();
  buildSSA(f);
  runStandardPasses(f);

  // Conditional accumulate: run 16 iterations with nd toggling.
  std::map<std::string, Value> fb;
  int64_t expect = 0;
  for (int i = 0; i < 16; ++i) {
    const int64_t av = i - 8, bv = 3 * i;
    const int nd = i % 3 == 0 ? 0 : 1;
    if (nd) expect += av * bv;
    // dp inputs: A0, B0, nd (order per extraction).
    std::vector<Value> in = {Value::fromInt(ScalarType::make(12, true), av),
                             Value::fromInt(ScalarType::make(12, true), bv),
                             Value::fromInt(ScalarType::make(1, false), nd)};
    const auto r = execute(f, in, fb);
    fb = r.nextFeedback;
    EXPECT_EQ(r.outputs[0].toInt(), expect) << "i=" << i;
  }
}

} // namespace
} // namespace roccc::mir
