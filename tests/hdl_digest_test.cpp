// HDL byte pins: the SHA-256 of the generated VHDL and Verilog at every
// design point the benchmark compiles — the nine Table 1 kernels and the
// tests/corpus kernels, each at unroll 1, 2 and 4 — is checked in as
// tests/golden/hdl_digests.txt. The full-text goldens pin only the VHDL at
// unroll 1; this file pins both emitters everywhere else, so an emitter
// rewrite that moves any byte fails here with the point and language named.
//
// The design points and their options are shared with ir_digest_test
// (tests/design_points.hpp).
//
// Updating after an intentional code-generation change:
//
//   ./build/tests/hdl_digest_test --update-goldens
//   git diff tests/golden/hdl_digests.txt
//
// (or set ROCCC_UPDATE_GOLDENS=1).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "design_points.hpp"
#include "support/hash.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

const std::string kDigestPath = std::string(ROCCC_GOLDEN_DIR) + "/hdl_digests.txt";

struct Digests {
  std::string vhdl, verilog;
};
using DigestMap = std::map<std::string, Digests>; // keyed by label

DigestMap readDigests(std::ifstream& in) {
  DigestMap out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    fields >> out[label].vhdl >> out[label].verilog;
  }
  return out;
}

TEST(HdlDigests, EveryDesignPointMatchesPinnedBytes) {
  DigestMap actual;
  for (const auto& p : testpoints::designPoints()) {
    const CompileResult r = Compiler(p.options).compileSource(p.source);
    ASSERT_TRUE(r.ok) << p.label << ":\n" << r.diags.dump();
    ASSERT_FALSE(r.vhdl.empty()) << p.label;
    ASSERT_FALSE(r.verilog.empty()) << p.label;
    actual[p.label] = {sha256Hex(r.vhdl), sha256Hex(r.verilog)};
  }

  if (g_updateGoldens) {
    std::ofstream out(kDigestPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kDigestPath;
    out << "# SHA-256 of the generated HDL per design point; see tests/hdl_digest_test.cpp.\n"
        << "# <kernel>@u<unroll> <vhdl sha256> <verilog sha256>\n";
    for (const auto& [label, d] : actual) out << label << ' ' << d.vhdl << ' ' << d.verilog << '\n';
    return;
  }

  std::ifstream in(kDigestPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kDigestPath << " — regenerate with --update-goldens";
  const DigestMap pinned = readDigests(in);
  for (const auto& [label, d] : actual) {
    const auto it = pinned.find(label);
    if (it == pinned.end()) {
      ADD_FAILURE() << label << ": no pinned digest";
      continue;
    }
    EXPECT_EQ(it->second.vhdl, d.vhdl) << label << ": VHDL bytes moved";
    EXPECT_EQ(it->second.verilog, d.verilog) << label << ": Verilog bytes moved";
  }
  for (const auto& entry : pinned) {
    EXPECT_TRUE(actual.count(entry.first)) << entry.first << ": pinned but no longer compiled";
  }
}

} // namespace
} // namespace roccc

int main(int argc, char** argv) {
  roccc::g_updateGoldens = roccc::testpoints::takeUpdateGoldensFlag(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
