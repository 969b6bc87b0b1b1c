// The 66 benchmark design points the digest pins cover: the nine Table 1
// kernels and every tests/corpus kernel, each at unroll 1, 2 and 4.
//
// Options match the full-text golden tests: Table 1 kernels carry their own
// stage-delay target (table1_golden_test), corpus kernels use the defaults
// (corpus_conformance_test); only unrollFactor varies. Every point emits
// Verilog too, so its bytes are pinned alongside the VHDL.
//
// Users define ROCCC_CORPUS_DIR. The digest tests also share the
// `--update-goldens` / ROCCC_UPDATE_GOLDENS switch and the "<label> <fact>
// <value>" pin-file helpers defined here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"

namespace roccc::testpoints {

struct DesignPoint {
  std::string label; // kernel@uN
  std::string source;
  CompileOptions options;
};

inline std::vector<DesignPoint> designPoints() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (entry.path().extension() != ".c") continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.emplace_back(entry.path().stem().string(), buf.str());
  }
  std::sort(corpus.begin(), corpus.end());

  std::vector<DesignPoint> points;
  for (const int u : {1, 2, 4}) {
    const std::string suffix = "@u" + std::to_string(u);
    for (const auto& k : bench::kTable1Kernels) {
      DesignPoint p{k.name + suffix, k.source, {}};
      if (k.targetStageDelayNs > 0) p.options.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
      p.options.unrollFactor = u;
      p.options.emitVerilog = true;
      points.push_back(std::move(p));
    }
    for (const auto& [name, source] : corpus) {
      DesignPoint p{name + suffix, source, {}};
      p.options.unrollFactor = u;
      p.options.emitVerilog = true;
      points.push_back(std::move(p));
    }
  }
  return points;
}

/// Strips `--update-goldens` from argv; true when it or a non-zero
/// ROCCC_UPDATE_GOLDENS asks for the pinned files to be rewritten.
inline bool takeUpdateGoldensFlag(int& argc, char** argv) {
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-goldens") == 0) {
      update = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (const char* env = std::getenv("ROCCC_UPDATE_GOLDENS")) {
    if (env[0] != '\0' && env[0] != '0') update = true;
  }
  return update;
}

/// The IEEE-754 bit pattern of `d` as 16 hex digits: pins a double exactly.
inline std::string bitsHex(double d) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(d)));
  return buf;
}

/// "<label> <fact>" -> value, one entry per line of a pin file.
using FactMap = std::map<std::string, std::string>;

inline FactMap readFacts(std::ifstream& in) {
  FactMap out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t labelEnd = line.find(' ');
    const size_t factEnd = line.find(' ', labelEnd + 1);
    if (labelEnd == std::string::npos || factEnd == std::string::npos) continue;
    out[line.substr(0, factEnd)] = line.substr(factEnd + 1);
  }
  return out;
}

/// Writes `facts` after the `header` comment lines, in key order.
inline bool writeFacts(const std::string& path, const std::string& header, const FactMap& facts) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  out << header;
  for (const auto& [key, value] : facts) out << key << ' ' << value << '\n';
  return out.good();
}

/// One message per fact that is unpinned, moved, or pinned but gone.
inline std::vector<std::string> factMismatches(const FactMap& pinned, const FactMap& actual) {
  std::vector<std::string> out;
  for (const auto& [key, value] : actual) {
    const auto it = pinned.find(key);
    if (it == pinned.end()) {
      out.push_back(key + ": not pinned");
    } else if (it->second != value) {
      out.push_back(key + " moved: pinned " + it->second + ", now " + value);
    }
  }
  for (const auto& entry : pinned) {
    if (!actual.count(entry.first)) out.push_back(entry.first + ": pinned but no longer produced");
  }
  return out;
}

} // namespace roccc::testpoints
