#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench/kernels.hpp"
#include "support/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double logs = 0;
  for (const double v : values) logs += std::log(v);
  return std::exp(logs / static_cast<double>(values.size()));
}

double sum(const std::vector<double>& values) {
  double s = 0;
  for (const double v : values) s += v;
  return s;
}

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

double perSecond(double count, double ms) { return ms > 0 ? count * 1000.0 / ms : 0; }

double peakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}

} // namespace

double nowMs() { return std::chrono::duration<double, std::milli>(Clock::now() - epoch()).count(); }

void sleepUntilMs(double ms) {
  std::this_thread::sleep_until(
      epoch() + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms)));
}

namespace {

// The corpus set is fixed here, not listed from the directory, so a later
// corpus addition does not silently change what the benchmark measures.
constexpr const char* kCorpusKernels[] = {
    "abs_energy", "alpha_blend", "box3x3",   "clamp_scale", "decimate2",   "iir_smooth",
    "median3",    "minmax3",     "running_max", "sad4",     "sobel_x",     "thresh_count",
    "two_pass",
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Replaces the one occurrence of `from` in `text`; throws when the
/// template no longer contains it (bench/kernels.hpp changed shape).
std::string replaceOnce(std::string text, const std::string& from, const std::string& to) {
  const size_t at = text.find(from);
  if (at == std::string::npos || text.find(from, at + 1) != std::string::npos) {
    throw std::runtime_error("variant template lost its constant: " + from);
  }
  return text.replace(at, from.size(), to);
}

/// Compile options of one design point: the ones table1_golden_test uses at
/// unroll 1 for the Table 1 kernels, with the unroll factor set.
roccc::CompileOptions optionsFor(const Kernel& k, int unroll) {
  roccc::CompileOptions opt;
  opt.unrollFactor = unroll;
  if (k.targetNs > 0) opt.dpOptions.targetStageDelayNs = k.targetNs;
  return opt;
}

} // namespace

Inputs loadInputs(const std::string& root) {
  Inputs in;
  in.root = root;
  for (const auto& k : roccc::bench::kTable1Kernels) {
    in.kernels.push_back({k.name, k.source, k.targetStageDelayNs, true});
  }
  for (const char* name : kCorpusKernels) {
    in.kernels.push_back({name, readFile(root + "/tests/corpus/" + name + ".c"), 0, false});
  }
  for (size_t k = 0; k < in.kernels.size(); ++k) {
    for (const int u : kUnrolls) {
      in.points.push_back({k, u, in.kernels[k].name + "@u" + std::to_string(u),
                           optionsFor(in.kernels[k], u)});
    }
  }
  return in;
}

size_t ShuffledRounds::next() {
  if (pos_ == round_.size()) {
    roccc::SplitMix64 rng(state_);
    for (size_t i = 0; i < round_.size(); ++i) round_[i] = i;
    for (size_t i = round_.size(); i > 1; --i) std::swap(round_[i - 1], round_[rng.next() % i]);
    state_ = rng.state;
    pos_ = 0;
  }
  return round_[pos_++];
}

VariantSource::VariantSource(uint64_t seed) : state_(seed) {}

Variant VariantSource::next() {
  roccc::SplitMix64 rng(state_);
  while (true) {
    const int unroll = kUnrolls[rng.next() % std::size(kUnrolls)];
    Variant v;
    std::string constants;
    if (rng.next() % 2 == 0) {
      // FIR: four fresh tap coefficients (the base kernel is 3, 5, 7, 9).
      int64_t c[4];
      for (auto& x : c) x = rng.inRange(1, 63);
      if (c[0] == 3 && c[1] == 5 && c[2] == 7 && c[3] == 9) continue;
      constants = "fir[" + std::to_string(c[0]) + "," + std::to_string(c[1]) + "," +
                  std::to_string(c[2]) + "," + std::to_string(c[3]) + "]";
      v.source = replaceOnce(roccc::bench::kFir, "3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3]",
                             std::to_string(c[0]) + "*A[i] + " + std::to_string(c[1]) +
                                 "*A[i+1] + " + std::to_string(c[2]) + "*A[i+2] + " +
                                 std::to_string(c[3]) + "*A[i+3]");
    } else {
      // bit_correlator: a fresh comparison mask (the base kernel uses 181).
      const int64_t mask = rng.inRange(0, 65535);
      if (mask == 181) continue;
      constants = "bit_correlator[" + std::to_string(mask) + "]";
      v.source = replaceOnce(roccc::bench::kBitCorrelator, "(181 >> j)",
                             "(" + std::to_string(mask) + " >> j)");
    }
    v.label = constants + "@u" + std::to_string(unroll);
    if (!used_.insert(v.label).second) continue;
    v.options.unrollFactor = unroll;
    state_ = rng.state;
    return v;
  }
}

} // namespace perfbench
