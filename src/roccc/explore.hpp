// roccc::explore — the design-space exploration engine (ROADMAP item 2).
//
// One compile per kernel is never the real workload: architects sweep
// unroll factor x compile options x smart-buffer geometry and pick from the
// area/fmax/cycles/energy Pareto frontier. This module turns that workflow
// into a first-class, deterministic batch job:
//
//   SweepGrid      declares the axes: kernels x unroll x auto-unroll budget
//                  x target-ns x {retime, pipeline, optimize, lut-convert}
//                  x width-mode x mult-style x smart-buffer/bus geometry.
//   expandGrid     crosses every axis into a flat job list, canonicalizes
//                  each point's CompileOptions, and deduplicates points
//                  whose (source, options, geometry) are semantically
//                  identical (two spellings of the default target-ns, a
//                  repeated axis value, ...). Expansion order is fixed, so
//                  the point list is a pure function of the grid.
//   runSweep       runs each point as one task on roccc::CompileService's
//                  workers: compile (the CompileCache dedups shared points
//                  across sweeps, the per-job CompileBudget bounds each),
//                  then per-point metrics on the same worker: slices / LUT
//                  / FF / MULT18 / BRAM and modeled fmax + energy from
//                  synth::estimate, cycles and BRAM traffic from a FastSim
//                  system run on the same deterministic stimulus the
//                  conformance engine uses. With a cache attached the
//                  metrics are stored as a derived entry, so a warm sweep
//                  is one key hash and lookup per point, no compile.
//   paretoFrontier computes the non-dominated set per kernel over the
//                  user-selected axes (dominated-point removal; metric
//                  ties keep both points; a single axis degenerates to
//                  "all points sharing the best value").
//   verifyFrontier re-verifies every Pareto-optimal point through the
//                  5-way differential conformance engine (roccc/verify.*)
//                  plus its system testbench, so a sweep can never
//                  recommend a configuration that miscompiles.
//
// Determinism guarantee (tests/explore_test.cpp): a sweep report is a pure
// function of (grid, options) — SweepResult::toJson() is byte-identical
// across worker counts and across cold/warm cache runs. Wall-time and
// cache-accounting fields are exempt and only serialized on request
// (toJson(true)); this is the same contract compileBatch gives.
//
// Fault containment extends to exploration: a point can fail — compile
// outcome or simulation error — but a sweep cannot crash. Failed points are
// recorded as typed PointOutcome rows in the report (never silently
// dropped), and sibling points are byte-unaffected
// (tests/explore_cache_test.cpp's fault soak).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "roccc/driver.hpp"
#include "roccc/verify.hpp"

namespace roccc {

class CompileCache;

// --- grid declaration --------------------------------------------------------

/// The sweep grid: kernels x axis value lists. Every axis defaults to a
/// one-element list holding the compiler default, so an empty grid with one
/// kernel is exactly one compile.
struct SweepGrid {
  struct Kernel {
    std::string name;
    std::string source;
    /// Per-kernel stage-delay default (the Table 1 per-row targets); a
    /// grid-axis value of 0 resolves to this, or to the BuildOptions
    /// default when this is 0 too.
    double defaultTargetNs = 0;
  };
  /// How widths are inferred: Declared disables inference entirely,
  /// PortOpcode is the paper's structural rule, Range is interval analysis
  /// (the compiler default).
  enum class WidthMode { Declared, PortOpcode, Range };

  std::vector<Kernel> kernels;

  std::vector<int> unrolls{1};
  /// Auto-unroll slice budgets (0 = explicit unrollFactor); nonzero values
  /// make the compiler pick the largest power-of-two fitting the budget.
  std::vector<int64_t> autoUnrollBudgets{0};
  /// Pipeline stage-delay targets in ns (0 = kernel/compiler default).
  std::vector<double> targetNs{0};
  std::vector<bool> retime{true};
  std::vector<bool> pipeline{true};
  std::vector<bool> optimize{true};
  std::vector<bool> lutConvert{true};
  std::vector<WidthMode> widthModes{WidthMode::Range};
  std::vector<dp::BuildOptions::MultStyle> multStyles{
      dp::BuildOptions::MultStyle::Lut};
  /// Smart-buffer geometry: elements fetched per clock, and smart vs naive
  /// (re-fetching) buffering.
  std::vector<int> busElems{1};
  std::vector<bool> smartBuffer{true};

  /// Base options every point starts from: budget limits, timing-model
  /// override, fault arming. Axis values overwrite their fields.
  CompileOptions base;
};

const char* widthModeName(SweepGrid::WidthMode mode);
const char* multStyleName(dp::BuildOptions::MultStyle style);

/// One point's resolved axis coordinates (the "config" block of the JSON
/// report; options carries the same information in compiler form).
struct SweepPointConfig {
  int unroll = 1;
  int64_t autoUnrollBudget = 0;
  double targetNs = 0; ///< resolved (never 0 once expanded)
  bool retime = true;
  bool pipeline = true;
  bool optimize = true;
  bool lutConvert = true;
  SweepGrid::WidthMode widthMode = SweepGrid::WidthMode::Range;
  dp::BuildOptions::MultStyle multStyle = dp::BuildOptions::MultStyle::Lut;
  int busElems = 1;
  bool smartBuffer = true;
};

/// One expanded design point: a (kernel, options, geometry) triple with a
/// stable human-readable label ("fir@u2/ns4/mult18/naive").
struct SweepPoint {
  std::string kernel; ///< kernel name (frontier grouping key)
  std::string label;  ///< unique within the sweep; stable across runs
  std::string source; ///< C source text (not serialized to JSON)
  SweepPointConfig config;
  CompileOptions options; ///< fully resolved compile options
};

/// Crosses the grid into the deduplicated, deterministically-ordered point
/// list. Dedup key: (kernel name, content-addressed compile key via
/// roccc::computeCacheKey, buffer geometry) — the first spelling wins.
std::vector<SweepPoint> expandGrid(const SweepGrid& grid);

// --- grid manifest files -----------------------------------------------------

/// A parsed sweep grid file (roccc-explore --manifest; bench/sweeps/*.sweep;
/// format reference in docs/EXPLORE.md). Kernel references are left
/// unresolved — `table1` names resolve against bench/kernels.hpp in the
/// tool, `kernel NAME PATH` paths load relative to the manifest — so the
/// parser itself stays pure and testable.
struct SweepManifest {
  SweepGrid grid; ///< axis lists (grid.kernels stays empty)
  struct KernelFile {
    std::string name;
    std::string path;
  };
  std::vector<KernelFile> kernelFiles;
  /// Table 1 kernel names requested by `table1 [name...]`.
  std::vector<std::string> table1;
  bool table1All = false; ///< bare `table1` — all nine
  std::vector<int> axes; ///< SweepAxis values; empty = caller default
  uint64_t seed = 0;
  bool seedSet = false;
};

/// Parses a grid file: one `directive value...` per line, values split on
/// spaces and/or commas, blank lines and #-comments skipped. On failure
/// returns false with a line-numbered message in `error`
/// ("line 7: unknown directive 'unrol'").
bool parseSweepManifest(const std::string& text, SweepManifest& out, std::string& error);

/// One value of the target-ns axis (grid file and roccc-explore
/// --target-ns): a finite number of ns in [0, 1e6], where 0 stands for the
/// kernel's default target.
bool parseTargetNsValue(const std::string& text, double& out);

// --- metrics and Pareto ------------------------------------------------------

/// The Pareto axes a frontier can be computed over. FmaxMHz and Throughput
/// maximize; everything else minimizes.
enum class SweepAxis { Slices, FmaxMHz, Cycles, EnergyPjPerCycle, EdpPjNs, Throughput };
inline constexpr int kSweepAxisCount = 6;
const char* sweepAxisName(SweepAxis axis);         ///< "slices", "fmax", ...
bool parseSweepAxis(const std::string& name, SweepAxis& out);
bool sweepAxisMaximizes(SweepAxis axis);

/// Per-point measurements: area/timing/energy from synth::estimate under
/// the point's timing model, cycles/traffic/throughput from a FastSim
/// system run at the point's buffer geometry.
struct PointMetrics {
  int64_t slices = 0;
  int64_t lut4 = 0, ff = 0, mult18 = 0, bram = 0;
  int stages = 0;
  /// Stage-crossing register cost split (the pipeline-ablation columns):
  /// registers carrying values between stages, and the "adjoining def-ref"
  /// balancing copies.
  int64_t pipelineRegBits = 0, balanceRegBits = 0;
  double criticalPathNs = 0, fmaxMHz = 0;
  int64_t cycles = 0;    ///< FastSim system cycles over the iteration space
  int64_t bramReads = 0; ///< off-buffer element reads (smart-buffer reuse)
  double throughput = 0; ///< output elements per clock, steady state
  double energyPjPerCycle = 0;
  double edpPjNs = 0;
};

/// Reads one axis out of a metric set.
double metricValue(const PointMetrics& m, SweepAxis axis);

/// Generic dominated-point removal. `rows[i]` holds one value per axis;
/// `maximize[a]` flips axis a's direction. Returns the indices of the
/// non-dominated rows in input order. A row dominates another when it is
/// better-or-equal on every axis and strictly better on at least one —
/// ties (identical rows) dominate nothing, so both stay.
std::vector<size_t> paretoFrontier(const std::vector<std::vector<double>>& rows,
                                   const std::vector<bool>& maximize);

// --- sweep execution ---------------------------------------------------------

/// How a point ended. The compile outcomes map 1:1 from CompileOutcome;
/// SimError is a contained metric-collection failure (the design compiled
/// but the system simulation threw — cycle limit, unbindable port).
enum class PointOutcome { Ok, FrontendError, Timeout, ResourceExceeded, InternalError, SimError };
const char* pointOutcomeName(PointOutcome outcome);
PointOutcome pointOutcomeFrom(CompileOutcome outcome);

struct SweepPointResult {
  SweepPoint point;
  PointOutcome outcome = PointOutcome::Ok;
  std::string error;   ///< first diagnostic / simulation error when not Ok
  bool pareto = false; ///< on its kernel's frontier
  PointMetrics metrics; ///< valid when outcome == Ok
  double compileMs = 0; ///< wall time, exempt from byte-determinism
};

/// A kernel's frontier: indices into SweepResult::points, in point order,
/// plus the recommended configuration ("best"): the frontier point with the
/// lowest total runtime (cycles x clock period), area then label breaking
/// ties.
struct KernelFrontier {
  std::string kernel;
  std::vector<size_t> points;
  size_t best = 0; ///< index into SweepResult::points
};

struct SweepOptions {
  /// Frontier axes (order is presentation only; the set is what matters).
  std::vector<SweepAxis> axes{SweepAxis::Slices, SweepAxis::FmaxMHz, SweepAxis::Cycles};
  /// Stimulus seed for the FastSim cycle-collection run (the same
  /// SplitMix64 derivation the conformance engine uses).
  uint64_t seed = 0x0dc5'2005;
  int workers = 0; ///< CompileService workers (0 = hardware)
  /// Optional cache shared across sweeps / passes: compile entries plus
  /// one metrics entry per measured point (docs/CACHING.md).
  std::shared_ptr<CompileCache> cache;
  /// Skip the FastSim run (area/timing-only sweeps; cycles stay 0 and the
  /// Cycles/Throughput axes are unavailable).
  bool collectCycles = true;
};

struct SweepResult {
  std::vector<SweepAxis> axes;
  uint64_t seed = 0;
  std::vector<SweepPointResult> points; ///< expansion order — every point, always
  std::vector<KernelFrontier> frontiers; ///< kernels in first-appearance order

  // Run accounting — measurement, not output; exempt from determinism and
  // excluded from toJson(false). With a cache attached, cacheHits counts
  // points that ran no compile (served from a metrics entry or a compile
  // entry), cacheMisses the points that compiled, and metricHits the
  // points served from a metrics entry without touching the compiler.
  int workers = 1;
  double wallMs = 0;
  int cacheHits = 0, cacheMisses = 0;
  int metricHits = 0;

  int okCount() const;
  int failedCount() const;
  /// "10 ok, 1 internal-error, 1 sim-error" — zero-count outcomes omitted.
  std::string outcomeSummary() const;

  /// The versioned JSON report ("schema": "roccc-sweep-v1"). With
  /// includeTimings false (the default and the determinism contract) the
  /// bytes are a pure function of (grid, SweepOptions); true adds the
  /// per-point compileMs and the "run" block (runJson()).
  std::string toJson(bool includeTimings = false) const;
  /// The run-accounting object — workers, wallMs, points, ok, failed,
  /// cacheHits, cacheMisses, metricHits — shared by toJson(true)'s "run"
  /// block and roccc-explore --stats-json.
  std::string runJson() const;
  /// Per-kernel metric table, Pareto points starred.
  std::string table() const;
  /// The "best config per kernel" report.
  std::string bestReport() const;
};

/// Runs every point on the worker pool — metrics from the cache, or a
/// (cache-aware) compile plus metric collection — then the per-kernel
/// frontier + best-config computation.
SweepResult runSweep(const std::vector<SweepPoint>& points, const SweepOptions& opt);
SweepResult runSweep(const SweepGrid& grid, const SweepOptions& opt);

/// Re-verifies every Pareto-optimal point through 5-way differential
/// conformance (and, per opt.checkTestbench, its system testbench). Points
/// are recompiled fresh — cache hits carry no IR — and verdicts come back
/// in frontier order, labeled by point. A sweep whose frontier fails this
/// must not be trusted; roccc-explore --verify-pareto exits nonzero.
VerifyReport verifyFrontier(const SweepResult& sweep, const VerifyOptions& opt);

} // namespace roccc
