// Estimator pins: at every design point the benchmark compiles (the nine
// Table 1 kernels and the tests/corpus kernels, each at unroll 1, 2 and 4),
// tests/golden/estimate_digests.txt holds what synth::estimate reports for
// the compiled RTL module:
//
//   - every Resources field (lut4, ff, mult18, bram, srl16) and slices,
//   - the bit patterns of criticalPathNs, dynamicPjPerCycle and leakageMw,
//   - criticalThrough, the net the worst path ends in.
//
// Each point is estimated twice: with the default EstimateOptions
// (MULT18X18 blocks) and with useMult18 = false (LUT-fabric multipliers,
// the mult-style roccc-explore sweeps by default). Table 1's slice and
// clock columns come from these numbers, so a rewrite of the SRL16 chain
// walk or the critical-path search that moves any count or double bit
// fails here with the point, the options and the fact named.
//
// Updating after an intentional estimator change:
//
//   ./build/tests/estimate_digest_test --update-goldens
//   git diff tests/golden/estimate_digests.txt
//
// (or set ROCCC_UPDATE_GOLDENS=1).
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "design_points.hpp"
#include "support/strings.hpp"
#include "synth/estimate.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

const std::string kDigestPath = std::string(ROCCC_GOLDEN_DIR) + "/estimate_digests.txt";

using testpoints::bitsHex;
using testpoints::FactMap;

void collectFacts(const std::string& label, const std::string& variant, const synth::Report& rep,
                  FactMap& out) {
  auto put = [&](const std::string& fact, std::string value) {
    out[label + ' ' + variant + ':' + fact] = std::move(value);
  };
  put("resources", fmt("lut4=%0 ff=%1 mult18=%2 bram=%3 srl16=%4 slices=%5", rep.res.lut4,
                       rep.res.ff, rep.res.mult18, rep.res.bram, rep.res.srl16, rep.slices));
  put("critical-path-bits", bitsHex(rep.criticalPathNs));
  put("dynamic-pj-bits", bitsHex(rep.dynamicPjPerCycle));
  put("leakage-mw-bits", bitsHex(rep.leakageMw));
  put("critical-through", rep.criticalThrough);
}

TEST(EstimateDigests, EveryDesignPointMatchesPinnedEstimate) {
  synth::EstimateOptions lutMult;
  lutMult.useMult18 = false;

  FactMap actual;
  for (const auto& p : testpoints::designPoints()) {
    const CompileResult r = Compiler(p.options).compileSource(p.source);
    ASSERT_TRUE(r.ok) << p.label << ":\n" << r.diags.dump();
    collectFacts(p.label, "default", synth::estimate(r.module), actual);
    collectFacts(p.label, "lut-mult", synth::estimate(r.module, lutMult), actual);
  }

  if (g_updateGoldens) {
    ASSERT_TRUE(testpoints::writeFacts(
        kDigestPath,
        "# synth::estimate per design point and options; see tests/estimate_digest_test.cpp.\n"
        "# <kernel>@u<unroll> <options>:<fact> <value>\n",
        actual))
        << "cannot write " << kDigestPath;
    return;
  }

  std::ifstream in(kDigestPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kDigestPath << " — regenerate with --update-goldens";
  for (const auto& m : testpoints::factMismatches(testpoints::readFacts(in), actual)) ADD_FAILURE() << m;
}

} // namespace
} // namespace roccc

int main(int argc, char** argv) {
  roccc::g_updateGoldens = roccc::testpoints::takeUpdateGoldensFlag(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
