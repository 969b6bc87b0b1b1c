// Back-end decision pins: at every design point the benchmark compiles (the
// nine Table 1 kernels and the tests/corpus kernels, each at unroll 1, 2
// and 4), tests/golden/ir_digests.txt holds
//
//   - the SHA-256 of the optimized MIR, the data path and the RTL module
//     dumps (mir.dump(), datapath.dump(), module.dump()),
//   - every pass's change counters (which CSE fired, which stages merged),
//   - the bit patterns of the retime pass's per-stage delays and a digest of
//     every op's within-stage path delay.
//
// hdl_digests.txt pins the text the emitters print; this file pins the
// decisions behind it, so a rewrite of mir-optimize, build-datapath, retime
// or build-rtl that changes any IR, counter or delay bit fails here with
// the point and the fact named.
//
// Updating after an intentional back-end change:
//
//   ./build/tests/ir_digest_test --update-goldens
//   git diff tests/golden/ir_digests.txt
//
// (or set ROCCC_UPDATE_GOLDENS=1).
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>

#include "design_points.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

const std::string kDigestPath = std::string(ROCCC_GOLDEN_DIR) + "/ir_digests.txt";

using testpoints::bitsHex;
using testpoints::FactMap;

void collectFacts(const std::string& label, const CompileResult& r, FactMap& out) {
  auto put = [&](const std::string& fact, std::string value) {
    out[label + ' ' + fact] = std::move(value);
  };
  put("mir", sha256Hex(r.mir.dump()));
  put("datapath", sha256Hex(r.datapath.dump()));
  put("module", sha256Hex(r.module.dump()));

  std::string stageBits;
  for (const double s : r.retiming.stageDelayNs) {
    if (!stageBits.empty()) stageBits += ',';
    stageBits += bitsHex(s);
  }
  put("stage-delay-bits", stageBits.empty() ? "-" : stageBits);

  std::string pathBits;
  for (const auto& o : r.datapath.ops) pathBits += bitsHex(o.pathDelayNs);
  put("path-delay-bits", sha256Hex(pathBits));

  for (const auto& st : r.passLog) {
    std::string counters = st.ran ? "ran" : "skipped";
    for (const auto& [key, value] : st.counters) counters += fmt(" %0=%1", key, value);
    put("pass:" + st.name, counters);
  }
}

TEST(IrDigests, EveryDesignPointMatchesPinnedDecisions) {
  FactMap actual;
  for (const auto& p : testpoints::designPoints()) {
    const CompileResult r = Compiler(p.options).compileSource(p.source);
    ASSERT_TRUE(r.ok) << p.label << ":\n" << r.diags.dump();
    collectFacts(p.label, r, actual);
  }

  if (g_updateGoldens) {
    ASSERT_TRUE(testpoints::writeFacts(
        kDigestPath,
        "# Back-end IR, counters and delay bits per design point; see tests/ir_digest_test.cpp.\n"
        "# <kernel>@u<unroll> <fact> <value>\n",
        actual))
        << "cannot write " << kDigestPath;
    return;
  }

  std::ifstream in(kDigestPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kDigestPath << " — regenerate with --update-goldens";
  for (const auto& m : testpoints::factMismatches(testpoints::readFacts(in), actual)) ADD_FAILURE() << m;
}

TEST(IrDigests, NoDataPathHoldsADivider) {
  // Division is always expanded into a restoring-divider array: the MIR of
  // udiv and box3x3 divides, their data paths never do.
  auto divides = [](mir::Opcode op) { return op == mir::Opcode::Div || op == mir::Opcode::Rem; };
  std::set<std::string> dividingKernels;
  for (const auto& p : testpoints::designPoints()) {
    const CompileResult r = Compiler(p.options).compileSource(p.source);
    ASSERT_TRUE(r.ok) << p.label << ":\n" << r.diags.dump();
    for (const auto& b : r.mir.blocks) {
      for (const auto& in : b.instrs) {
        if (divides(in.op)) dividingKernels.insert(p.label.substr(0, p.label.find('@')));
      }
    }
    for (const auto& o : r.datapath.ops) {
      EXPECT_FALSE(divides(o.op)) << p.label << ": " << mir::opcodeName(o.op);
    }
  }
  EXPECT_TRUE(dividingKernels.count("udiv") && dividingKernels.count("box3x3"))
      << "expected udiv and box3x3 to divide";
}

} // namespace
} // namespace roccc

int main(int argc, char** argv) {
  roccc::g_updateGoldens = roccc::testpoints::takeUpdateGoldensFlag(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
