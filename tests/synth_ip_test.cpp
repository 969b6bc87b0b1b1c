#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ip/ip.hpp"
#include "roccc/compiler.hpp"
#include "support/cosrom.hpp"
#include "support/strings.hpp"
#include "synth/estimate.hpp"

namespace roccc {
namespace {

// --- estimator basics -----------------------------------------------------------

TEST(Synth, SlicesPackLutsAndFfs) {
  synth::Resources r;
  r.lut4 = 100;
  r.ff = 0;
  const int64_t logicOnly = synth::slicesFor(r);
  EXPECT_EQ(logicOnly, 50);
  r.ff = 100;
  EXPECT_GT(synth::slicesFor(r), logicOnly); // imperfect packing costs some
  EXPECT_LT(synth::slicesFor(r), 100);
}

TEST(Synth, WiderAddersAreSlowerAndBigger) {
  auto make = [](int w) {
    rtl::Module m;
    m.name = "adder";
    const int a = m.addNet(ScalarType::make(w, true), "a");
    const int b = m.addNet(ScalarType::make(w, true), "b");
    m.inputPorts = {a, b};
    m.inputNames = {"a", "b"};
    const int s = m.addNet(ScalarType::make(w, true), "s");
    m.addCell(rtl::CellKind::Add, {a, b}, s);
    const int r = m.addNet(ScalarType::make(w, true), "r");
    const int c = m.addCell(rtl::CellKind::Reg, {s}, r);
    (void)c;
    m.outputPorts = {r};
    m.outputNames = {"r"};
    return m;
  };
  const auto r8 = synth::estimate(make(8));
  const auto r32 = synth::estimate(make(32));
  EXPECT_LT(r8.slices, r32.slices);
  EXPECT_GT(r8.fmaxMHz(), r32.fmaxMHz());
}

TEST(Synth, ConstantShiftIsFree) {
  rtl::Module m;
  m.name = "shifter";
  const int a = m.addNet(ScalarType::make(16, false), "a");
  m.inputPorts = {a};
  m.inputNames = {"a"};
  const int sh = m.addConst(3, ScalarType::make(3, false));
  const int o = m.addNet(ScalarType::make(16, false), "o");
  m.addCell(rtl::CellKind::Shl, {a, sh}, o);
  m.outputPorts = {o};
  m.outputNames = {"o"};
  const auto rep = synth::estimate(m);
  EXPECT_EQ(rep.res.lut4, 0);
}

TEST(Synth, RomSizingDistributedVsBram) {
  auto romModule = [](size_t entries) {
    rtl::Module m;
    m.name = "rom";
    const int a = m.addNet(ScalarType::make(12, false), "a");
    m.inputPorts = {a};
    m.inputNames = {"a"};
    const int o = m.addNet(ScalarType::make(16, true), "o");
    const int c = m.addCell(rtl::CellKind::Rom, {a}, o);
    m.cells[static_cast<size_t>(c)].romData.assign(entries, 1);
    m.outputPorts = {o};
    m.outputNames = {"o"};
    return m;
  };
  const auto small = synth::estimate(romModule(256));
  EXPECT_EQ(small.res.bram, 0);
  EXPECT_EQ(small.res.lut4, 256 / 16 * 16);
  const auto big = synth::estimate(romModule(4096)); // 64 kbit > threshold
  EXPECT_GT(big.res.bram, 0);
}

/// A chain of `depth` adders (or registers) on one input, its cells added in
/// data-flow order or reversed; the cell ids follow insertion order.
rtl::Module chainModule(rtl::CellKind kind, int depth, bool reversed) {
  rtl::Module m;
  m.name = "chain";
  const ScalarType t = ScalarType::make(16, true);
  const int a = m.addNet(t, "a");
  m.inputPorts = {a};
  m.inputNames = {"a"};
  std::vector<int> nets = {a};
  for (int k = 1; k <= depth; ++k) nets.push_back(m.addNet(t, fmt("s%0", k)));
  for (int j = 0; j < depth; ++j) {
    const int k = reversed ? depth - j : j + 1;
    std::vector<int> inputs = {nets[static_cast<size_t>(k - 1)]};
    if (kind == rtl::CellKind::Add) inputs.push_back(a);
    m.addCell(kind, inputs, nets[static_cast<size_t>(k)]);
  }
  m.outputPorts = {nets.back()};
  m.outputNames = {"o"};
  return m;
}

TEST(Synth, CriticalPathDoesNotDependOnCellOrder) {
  const auto forward = synth::estimate(chainModule(rtl::CellKind::Add, 40, false));
  const auto reversed = synth::estimate(chainModule(rtl::CellKind::Add, 40, true));
  const auto single = synth::estimate(chainModule(rtl::CellKind::Add, 1, false));
  EXPECT_EQ(forward.criticalPathNs, reversed.criticalPathNs);
  EXPECT_EQ(forward.dynamicPjPerCycle, reversed.dynamicPjPerCycle);
  EXPECT_EQ(forward.criticalThrough, "s40");
  EXPECT_EQ(reversed.criticalThrough, "s40");
  EXPECT_GT(forward.criticalPathNs, single.criticalPathNs);
}

TEST(Synth, Srl16ChainsDoNotDependOnCellOrder) {
  const auto forward = synth::estimate(chainModule(rtl::CellKind::Reg, 20, false));
  const auto reversed = synth::estimate(chainModule(rtl::CellKind::Reg, 20, true));
  EXPECT_EQ(forward.res.srl16, 16 * 2); // depth 19 -> two SRL16s per bit
  EXPECT_EQ(forward.res.ff, 16);        // the chain's output register
  EXPECT_EQ(reversed.res.srl16, forward.res.srl16);
  EXPECT_EQ(reversed.res.ff, forward.res.ff);
}

TEST(Synth, CombinationalLoopIsBrokenAtTheFirstCellReached) {
  // n0 = n1 + a, n1 = n0 + a: the walk from n0's adder reads n0 as 0 when
  // the loop comes back to it.
  rtl::Module m;
  m.name = "loop";
  const ScalarType t = ScalarType::make(16, true);
  const int a = m.addNet(t, "a");
  m.inputPorts = {a};
  m.inputNames = {"a"};
  const int n0 = m.addNet(t, "n0");
  const int n1 = m.addNet(t, "n1");
  m.addCell(rtl::CellKind::Add, {n1, a}, n0);
  m.addCell(rtl::CellKind::Add, {n0, a}, n1);
  m.outputPorts = {n0};
  m.outputNames = {"o"};
  const synth::TimingModel& tm = synth::TimingModel::virtex2();
  const double d = tm.cost(synth::Primitive::Add, 16).delayNs;
  const double r = tm.routingPerHopNs;
  const auto rep = synth::estimate(m);
  EXPECT_EQ(rep.criticalThrough, "n0");
  EXPECT_EQ(rep.criticalPathNs, std::max(0.8, ((r + d) + r) + d) + tm.clockOverheadNs);
}

TEST(Synth, EstimateReadsClockAndRoutingFromItsModel) {
  // Two adders in series: one routing hop, and the clocking overhead on
  // top. Setting only `timing` must price both from the model.
  rtl::Module m;
  m.name = "hop";
  const ScalarType t = ScalarType::make(16, true);
  const int a = m.addNet(t, "a");
  m.inputPorts = {a};
  m.inputNames = {"a"};
  const int s0 = m.addNet(t, "s0");
  const int s1 = m.addNet(t, "s1");
  m.addCell(rtl::CellKind::Add, {a, a}, s0);
  m.addCell(rtl::CellKind::Add, {s0, a}, s1);
  m.outputPorts = {s1};
  m.outputNames = {"s"};

  synth::TimingModel model;
  std::string error;
  ASSERT_TRUE(synth::TimingModel::parse("clock-overhead-ns 1.8\nrouting-per-hop-ns 0.9\n", model,
                                        error))
      << error;
  synth::EstimateOptions timingOnly;
  timingOnly.timing = &model;
  const auto got = synth::estimate(m, timingOnly);
  const auto want = synth::estimate(m, synth::EstimateOptions::forModel(model));
  EXPECT_EQ(got.criticalPathNs, want.criticalPathNs);
  EXPECT_EQ(got.criticalThrough, want.criticalThrough);
  EXPECT_EQ(got.slices, want.slices);
  EXPECT_EQ(got.dynamicPjPerCycle, want.dynamicPjPerCycle);
  EXPECT_EQ(got.leakageMw, want.leakageMw);

  const double d = model.cost(synth::Primitive::Add, 16).delayNs;
  EXPECT_EQ(got.criticalThrough, "s1");
  EXPECT_EQ(got.criticalPathNs, std::max(0.8, (d + 0.9) + d) + 1.8);
  EXPECT_GT(got.criticalPathNs, synth::estimate(m).criticalPathNs + 1.0);
}

// --- IP functional checks ------------------------------------------------------------

/// Drives a combinational+registered module for enough cycles to flush its
/// latency and returns the output for each applied input.
std::vector<int64_t> drive(const rtl::Module& m, const std::vector<std::vector<int64_t>>& inputs,
                           size_t outPort = 0) {
  rtl::NetlistSim sim(m);
  sim.reset();
  std::vector<int64_t> outs;
  const size_t total = inputs.size() + static_cast<size_t>(m.latency);
  for (size_t t = 0; t < total; ++t) {
    const auto& vals = inputs[std::min(t, inputs.size() - 1)];
    for (size_t p = 0; p < vals.size(); ++p) {
      sim.setInput(p, Value::fromInt(m.nets[static_cast<size_t>(m.inputPorts[p])].type, vals[p]));
    }
    sim.eval();
    if (t >= static_cast<size_t>(m.latency)) outs.push_back(sim.output(outPort).toInt());
    sim.tick(true);
  }
  return outs;
}

TEST(IpBaseline, BitCorrelatorCounts) {
  const uint8_t mask = 181; // 10110101
  rtl::Module m = ip::buildBitCorrelator(mask);
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int x = 0; x < 256; x += 7) {
    in.push_back({x});
    int cnt = 0;
    for (int j = 0; j < 8; ++j) {
      if (((x >> j) & 1) == ((mask >> j) & 1)) ++cnt;
    }
    expect.push_back(cnt);
  }
  EXPECT_EQ(drive(m, in), expect);
}

TEST(IpBaseline, Udiv8Divides) {
  rtl::Module m = ip::buildUdiv8();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int n = 0; n < 256; n += 17) {
    for (int d = 1; d < 256; d += 41) {
      in.push_back({n, d});
      expect.push_back(n / d);
    }
  }
  EXPECT_EQ(drive(m, in), expect);
}

TEST(IpBaseline, SquareRoot24) {
  rtl::Module m = ip::buildSquareRoot24();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int64_t x : {0LL, 1LL, 2LL, 16LL, 81LL, 1000LL, 65535LL, 999999LL, 16777215LL}) {
    in.push_back({x});
    expect.push_back(static_cast<int64_t>(std::sqrt(static_cast<double>(x))));
  }
  const auto got = drive(m, in);
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "sqrt(" << in[i][0] << ")";
  }
}

TEST(IpBaseline, CosQuarterWaveMatchesRom) {
  rtl::Module m = ip::buildCosLut();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int p = 0; p < 1024; p += 13) {
    in.push_back({p});
    expect.push_back(cosRomEntry(p, false));
  }
  const auto got = drive(m, in);
  for (size_t i = 0; i < expect.size(); ++i) {
    // Quarter-wave reconstruction differs by at most 1 LSB from the
    // full-wave table near the axis crossings (rounding of the mirror).
    EXPECT_EQ(got[i], expect[i]) << "phase " << in[i][0];
  }
}

TEST(IpBaseline, Fir5FiltersStream) {
  rtl::Module m = ip::buildFir5();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  static const int64_t c[5] = {3, 5, 7, 9, -1};
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> x;
  for (int t = 0; t < 40; ++t) {
    const int64_t v = (t * 23) % 200 - 100;
    x.push_back(v);
    in.push_back({v, v});
  }
  rtl::NetlistSim sim(m);
  sim.reset();
  // Latency 3 after the tap line is full (tap t uses x[t-4..t]).
  std::vector<int64_t> got;
  for (size_t t = 0; t < in.size(); ++t) {
    sim.setInput(0, Value::fromInt(ScalarType::make(8, true), in[t][0]));
    sim.setInput(1, Value::fromInt(ScalarType::make(8, true), in[t][1]));
    sim.eval();
    got.push_back(sim.output(0).toInt());
    sim.tick(true);
  }
  for (size_t t = 7; t < in.size(); ++t) {
    // Output at cycle t corresponds to window ending at t-3 (latency),
    // taps reversed: y = sum c[k] * x[t-3-k].
    int64_t expect = 0;
    for (int k = 0; k < 5; ++k) expect += c[k] * x[t - 3 - static_cast<size_t>(k)];
    EXPECT_EQ(got[t], expect) << "t=" << t;
  }
}

TEST(IpBaseline, MulAccAccumulates) {
  rtl::Module m = ip::buildMulAcc();
  rtl::NetlistSim sim(m);
  sim.reset();
  int64_t expect = 0;
  std::vector<int64_t> products;
  for (int t = 0; t < 10; ++t) {
    const int64_t a = t - 5, b = 3 * t + 1;
    products.push_back(a * b);
    sim.setInput(0, Value::fromInt(ScalarType::make(12, true), a));
    sim.setInput(1, Value::fromInt(ScalarType::make(12, true), b));
    sim.eval();
    sim.tick(true);
  }
  // After 10 ticks the accumulator register has absorbed products 0..8
  // (the product register delays each by one cycle).
  sim.eval();
  for (int t = 0; t < 9; ++t) expect += products[static_cast<size_t>(t)];
  EXPECT_EQ(sim.output(0).toInt(), expect);
}

TEST(IpBaseline, StructuralModelsVerify) {
  for (const rtl::Module& m : {ip::buildDct8(), ip::buildWavelet53(64)}) {
    std::vector<std::string> errors;
    EXPECT_TRUE(m.verify(errors)) << m.name << ": " << join(errors, "\n");
  }
}

// --- relative area/clock shape (the Table 1 claims) -----------------------------------

TEST(Table1Shape, RocccBitCorrelatorBiggerThanIp) {
  const char* src = R"(
    void bit_correlator(const uint8 A[64], uint4 C[64]) {
      int i;
      int j;
      int cnt;
      for (i = 0; i < 64; i++) {
        cnt = 0;
        for (j = 0; j < 8; j++) {
          if (((A[i] >> j) & 1) == ((181 >> j) & 1)) {
            cnt = cnt + 1;
          }
        }
        C[i] = cnt;
      }
    }
  )";
  Compiler c;
  const CompileResult r = c.compileSource(src);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  const auto roccc = synth::estimate(r.module);
  const auto ipRep = synth::estimate(ip::buildBitCorrelator(181));
  // Paper: 2.11x area, 0.679x clock.
  const double areaRatio = static_cast<double>(roccc.slices) / static_cast<double>(ipRep.slices);
  EXPECT_GT(areaRatio, 1.2) << "roccc " << roccc.summary() << " vs ip " << ipRep.summary();
  EXPECT_LT(areaRatio, 6.0);
}

TEST(Table1Shape, RocccUdivBiggerButComparableClock) {
  const char* src = R"(
    void udiv(const uint8 N[64], const uint8 D[64], uint8 Q[64]) {
      int i;
      for (i = 0; i < 64; i++) {
        Q[i] = N[i] / D[i];
      }
    }
  )";
  Compiler c;
  const CompileResult r = c.compileSource(src);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  const auto roccc = synth::estimate(r.module);
  const auto ipRep = synth::estimate(ip::buildUdiv8());
  const double areaRatio = static_cast<double>(roccc.slices) / static_cast<double>(ipRep.slices);
  const double clockRatio = roccc.fmaxMHz() / ipRep.fmaxMHz();
  // Paper: 3.44x area, 1.26x clock. Our expansion infers the 8-bit operand
  // width from the port sizes, so the area gap is milder than the paper's
  // (documented in EXPERIMENTS.md); the clock stays comparable because the
  // generated divider pipelines just like the IP.
  EXPECT_GT(areaRatio, 0.8) << "roccc " << roccc.summary() << "\nip " << ipRep.summary();
  EXPECT_LT(areaRatio, 8.0) << "roccc " << roccc.summary() << "\nip " << ipRep.summary();
  EXPECT_GT(clockRatio, 0.5) << "roccc " << roccc.summary() << "\nip " << ipRep.summary();
}

TEST(Table1Shape, FirNearParity) {
  // The paper's FIR: ROCCC within 9% area, 5% faster clock.
  const char* src = R"(
    void fir(const int8 A[68], int16 C[64]) {
      int i;
      for (i = 0; i < 64; i = i + 1) {
        C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
      }
    }
  )";
  Compiler c;
  const CompileResult r = c.compileSource(src);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  const auto roccc = synth::estimate(r.module);
  const auto ipRep = synth::estimate(ip::buildFir5());
  // Our IP builds TWO filters (as in the paper); halve for the ratio.
  const double areaRatio = 2.0 * static_cast<double>(roccc.slices) / static_cast<double>(ipRep.slices);
  EXPECT_GT(areaRatio, 0.6) << "roccc " << roccc.summary() << "\nip " << ipRep.summary();
  EXPECT_LT(areaRatio, 2.5) << "roccc " << roccc.summary() << "\nip " << ipRep.summary();
}

TEST(Table1Shape, PaperReferenceNumbersPresent) {
  const auto& rows = ip::paperTable1();
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_STREQ(rows[0].name, "bit_correlator");
  EXPECT_EQ(rows[2].rocccAreaSlices, 495);
  EXPECT_NEAR(rows[7].rocccClockMHz / rows[7].ipClockMHz, 0.735, 0.01);
}

} // namespace
} // namespace roccc
