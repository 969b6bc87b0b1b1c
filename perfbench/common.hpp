// Shared pieces of the repository benchmark: metric maps, order
// statistics, the kernel set and its design points, and the seeded draws
// every workload builds its inputs from.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "roccc/compiler.hpp"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
/// Ordered so every report prints its metrics in the same order.
using MetricMap = std::map<std::string, Metric>;

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double geomean(const std::vector<double>& values);
double sum(const std::vector<double>& values);
/// `count` per second of `ms`; 0 when nothing was timed.
double perSecond(double count, double ms);
/// `value` with `digits` decimals, for report lines.
std::string fixed(double value, int digits);
/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMib();
/// Milliseconds on the steady clock since the first call in this process.
double nowMs();
/// Sleeps until nowMs() reads at least `ms`.
void sleepUntilMs(double ms);

/// One kernel of the benchmark set: the nine Table 1 kernels of
/// bench/kernels.hpp, with their own stage-delay targets, then the
/// thirteen tests/corpus kernels.
struct Kernel {
  std::string name;
  std::string source;
  double targetNs = 0; ///< 0 = compiler default
  bool table1 = false;
};

/// One (kernel, unroll) design point with the options every workload and
/// the checker compile it with.
struct DesignPoint {
  size_t kernel = 0;
  int unroll = 1;
  std::string label; ///< "fir@u2"
  roccc::CompileOptions options;
};

struct Inputs {
  std::string root; ///< checkout root (tests/corpus and tests/golden live there)
  std::vector<Kernel> kernels;
  std::vector<DesignPoint> points; ///< kernel-major, unroll 1, 2, 4
  const std::string& sourceOf(const DesignPoint& p) const { return kernels[p.kernel].source; }
};

inline constexpr int kUnrolls[] = {1, 2, 4};

/// Loads the 22 kernels and expands the 66 design points. Throws
/// std::runtime_error when a corpus file is missing.
Inputs loadInputs(const std::string& root);

/// Endless seeded draw over [0, n): shuffles of 0..n-1, back to back, so
/// every full round holds each index exactly once and the job mix does not
/// drift with the seed.
class ShuffledRounds {
 public:
  ShuffledRounds(size_t n, uint64_t seed) : state_(seed), round_(n), pos_(n) {}
  size_t next();

 private:
  uint64_t state_;
  std::vector<size_t> round_;
  size_t pos_;
};

/// A fresh variant of a template kernel, made by changing numeric
/// constants (FIR coefficients, the bit_correlator mask), so that any
/// correct cache key must treat it as new.
struct Variant {
  std::string label;
  std::string source;
  roccc::CompileOptions options;
};

/// Draws variants, never repeating one and never equal to a base kernel.
class VariantSource {
 public:
  explicit VariantSource(uint64_t seed);
  Variant next();

 private:
  uint64_t state_;
  std::set<std::string> used_; ///< labels drawn so far
};

} // namespace perfbench
