// roccc-explore — the design-space exploration driver (ROADMAP item 2).
//
//   roccc-explore [options] [grid.sweep]
//
// Declares a sweep grid (kernels x unroll x compile options x smart-buffer
// geometry), expands it to a deduplicated point list, fans the points
// through the batch compile service, collects per-point metrics
// {slices, LUT/FF/MULT18/BRAM, modeled fmax, FastSim cycles, pJ/cycle,
// EDP}, and reports the per-kernel Pareto frontier plus a "best config per
// kernel" recommendation. bench/sweeps/*.sweep are the stock grids (the
// former bench_ablation_* binaries in declarative form); docs/EXPLORE.md
// documents the grid-file format and the axis semantics.
//
// The JSON report (--json) is deterministic: byte-identical for any --jobs
// value and across cold/warm --cache-dir runs. Wall-time and cache
// accounting are exempt and only appear with --timings (in the report) or
// via --stats-json (separate file).
//
// Exit codes: 0 every point compiled and measured Ok (and, with
// --verify-pareto, every frontier point passed 5-way conformance);
// 1 the sweep completed but some points failed (their typed outcomes are
// in the report — never silently dropped); 2 usage or grid-file error
// (line-numbered); 3 a Pareto-optimal point failed conformance.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/cache.hpp"
#include "roccc/explore.hpp"
#include "support/strings.hpp"
#include "synth/timing.hpp"

namespace {

struct Args {
  std::string manifestPath;
  std::vector<std::string> table1;     ///< --table1 names ("all" = all nine)
  std::vector<std::string> kernelSpecs; ///< --kernel NAME=PATH
  std::vector<int> unrolls;            ///< CLI override of the unroll axis
  std::vector<double> targetNs;        ///< CLI override of the target-ns axis
  std::vector<roccc::SweepAxis> axes;  ///< CLI override of the frontier axes
  bool seedSet = false;
  uint64_t seed = 0;
  int jobs = 0;
  bool cacheEnabled = false;
  std::string cacheDir;
  std::string jsonPath;
  std::string statsJsonPath;
  bool timings = false;
  bool noCycles = false;
  bool verifyPareto = false;
  std::string timingModelPath;
  std::string timingModelSpec;
  roccc::CompileOptions base;
  bool bestOnly = false;
  bool quiet = false;
  bool showHelp = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] [grid.sweep]\n"
               "       %s --help for the option list (docs/EXPLORE.md has the full reference)\n",
               argv0, argv0);
  return 2;
}

bool parseIntList(const char* v, std::vector<int>& out, int min) {
  out.clear();
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const long n = std::strtol(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || n < min) return false;
    out.push_back(static_cast<int>(n));
  }
  return !out.empty();
}

bool parseDoubleList(const char* v, std::vector<double>& out) {
  out.clear();
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const double d = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || d < 0) return false;
    out.push_back(d);
  }
  return !out.empty();
}

/// One row of the option table — the same shape as roccc-cc's; --help and
/// the docs/EXPLORE.md sync check (explore_cli_docs_in_sync) are generated
/// from it.
struct OptionSpec {
  const char* name;
  const char* valueName;
  const char* help;
  std::function<bool(Args&, const char*)> apply;
};

const std::vector<OptionSpec>& optionTable() {
  static const std::vector<OptionSpec> table = {
      {"--manifest", "FILE", "sweep grid file (also accepted as the positional argument)",
       [](Args& a, const char* v) { a.manifestPath = v; return true; }},
      {"--table1", "LIST", "add Table 1 kernels by name, or 'all' for all nine",
       [](Args& a, const char* v) {
         std::stringstream ss(v);
         std::string item;
         while (std::getline(ss, item, ',')) {
           if (!item.empty()) a.table1.push_back(item);
         }
         return !a.table1.empty();
       }},
      {"--kernel", "NAME=PATH", "add a kernel from a C file (repeatable)",
       [](Args& a, const char* v) {
         if (std::strchr(v, '=') == nullptr) return false;
         a.kernelSpecs.emplace_back(v);
         return true;
       }},
      {"--unroll", "LIST", "unroll-factor axis, comma-separated (overrides the grid file)",
       [](Args& a, const char* v) { return parseIntList(v, a.unrolls, 1); }},
      {"--target-ns", "LIST", "stage-delay-target axis in ns (0 = per-kernel default)",
       [](Args& a, const char* v) { return parseDoubleList(v, a.targetNs); }},
      {"--axes", "LIST", "Pareto axes: slices,fmax,cycles,energy,edp,throughput",
       [](Args& a, const char* v) {
         a.axes.clear();
         std::stringstream ss(v);
         std::string item;
         while (std::getline(ss, item, ',')) {
           roccc::SweepAxis axis;
           if (!roccc::parseSweepAxis(item, axis)) return false;
           a.axes.push_back(axis);
         }
         return !a.axes.empty();
       }},
      {"--seed", "N", "stimulus seed for the FastSim metric run (overrides the grid file)",
       [](Args& a, const char* v) {
         char* end = nullptr;
         a.seed = std::strtoull(v, &end, 0);
         a.seedSet = true;
         return end != v && *end == '\0';
       }},
      {"--jobs", "N", "compile worker threads (0 = one per hardware thread)",
       [](Args& a, const char* v) {
         char* end = nullptr;
         a.jobs = static_cast<int>(std::strtol(v, &end, 10));
         return end != v && *end == '\0' && a.jobs >= 0;
       }},
      {"--cache", nullptr, "enable the content-addressed compile cache",
       [](Args& a, const char*) { a.cacheEnabled = true; return true; }},
      {"--cache-dir", "DIR", "persistent on-disk cache tier in DIR (implies --cache)",
       [](Args& a, const char* v) {
         a.cacheEnabled = true;
         a.cacheDir = v;
         return true;
       }},
      {"--json", "FILE", "write the sweep report as versioned JSON (roccc-sweep-v1)",
       [](Args& a, const char* v) { a.jsonPath = v; return true; }},
      {"--timings", nullptr, "include wall-time and cache accounting in the JSON report",
       [](Args& a, const char*) { a.timings = true; return true; }},
      {"--stats-json", "FILE", "write run accounting (workers, wall ms, cache hits) as JSON",
       [](Args& a, const char* v) { a.statsJsonPath = v; return true; }},
      {"--no-cycles", nullptr, "skip the FastSim run (area/timing-only sweep)",
       [](Args& a, const char*) { a.noCycles = true; return true; }},
      {"--verify-pareto", nullptr, "re-verify every frontier point: 5-way conformance + testbench",
       [](Args& a, const char*) { a.verifyPareto = true; return true; }},
      {"--timing-model", "FILE", "per-primitive delay/area/energy table (docs/SYNTHESIS.md format)",
       [](Args& a, const char* v) { a.timingModelPath = v; return true; }},
      {"--timeout-ms", "N", "per-point wall-clock deadline (0 = none)",
       [](Args& a, const char* v) {
         char* end = nullptr;
         a.base.budget.timeoutMs = std::strtoll(v, &end, 10);
         return end != v && *end == '\0';
       }},
      {"--max-ir-nodes", "N", "per-point cap on total live IR nodes (0 = none)",
       [](Args& a, const char* v) {
         char* end = nullptr;
         a.base.budget.maxIrNodes = std::strtoll(v, &end, 10);
         return end != v && *end == '\0' && a.base.budget.maxIrNodes >= 0;
       }},
      {"--inject-fault", "P", "arm fault point P in every compile (see faultPointRegistry)",
       [](Args& a, const char* v) { a.base.injectFaultAt = v; return true; }},
      {"--best-only", nullptr, "print only the best-config-per-kernel report",
       [](Args& a, const char*) { a.bestOnly = true; return true; }},
      {"--quiet", nullptr, "only errors and the one-line outcome summary",
       [](Args& a, const char*) { a.quiet = true; return true; }},
      {"--help", nullptr, "print this option list and exit",
       [](Args& a, const char*) { a.showHelp = true; return true; }},
  };
  return table;
}

void printHelp(const char* argv0) {
  std::printf("usage: %s [options] [grid.sweep]\n\n"
              "Expands a sweep grid (kernels x unroll x compile options x buffer geometry),\n"
              "compiles every point as a batch, and reports the per-kernel Pareto frontier.\n"
              "docs/EXPLORE.md is the full reference, bench/sweeps/ the stock grids.\n\noptions:\n",
              argv0);
  for (const auto& s : optionTable()) {
    std::string left = s.name;
    if (s.valueName) {
      left += ' ';
      left += s.valueName;
    }
    std::printf("  %-22s %s\n", left.c_str(), s.help);
  }
  std::printf("\nexit codes: 0 ok, 1 failed points in the report, 2 usage/grid error,\n"
              "            3 Pareto point failed conformance\n");
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (!a.manifestPath.empty()) return false;
      a.manifestPath = arg;
      continue;
    }
    std::string inlineValue;
    bool hasInlineValue = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
      inlineValue = arg.substr(eq + 1);
      arg.resize(eq);
      hasInlineValue = true;
    }
    const OptionSpec* spec = nullptr;
    for (const auto& s : optionTable()) {
      if (arg == s.name) {
        spec = &s;
        break;
      }
    }
    if (!spec) return false;
    const char* value = nullptr;
    if (spec->valueName) {
      if (hasInlineValue) {
        value = inlineValue.c_str();
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return false;
      }
    } else if (hasInlineValue) {
      return false;
    }
    if (!spec->apply(a, value)) return false;
  }
  return a.showHelp || !a.manifestPath.empty() || !a.table1.empty() || !a.kernelSpecs.empty();
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Adds the named Table 1 kernels (or all nine) to the grid, with their
/// per-row stage-delay defaults.
bool addTable1Kernels(const std::vector<std::string>& names, bool all,
                      roccc::SweepGrid& grid) {
  const auto add = [&](const roccc::bench::NamedKernel& k) {
    grid.kernels.push_back({k.name, k.source, k.targetStageDelayNs});
  };
  if (all) {
    for (const auto& k : roccc::bench::kTable1Kernels) add(k);
    return true;
  }
  for (const std::string& name : names) {
    if (name == "all") {
      for (const auto& k : roccc::bench::kTable1Kernels) add(k);
      continue;
    }
    bool found = false;
    for (const auto& k : roccc::bench::kTable1Kernels) {
      if (name == k.name) {
        add(k);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "error: unknown Table 1 kernel '%s'\n", name.c_str());
      return false;
    }
  }
  return true;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) return usage(argv[0]);
  if (a.showHelp) {
    printHelp(argv[0]);
    return 0;
  }

  // ROCCC_FAULT_INJECT: the environment spelling of --inject-fault (the
  // explicit flag wins), same contract as roccc-cc.
  if (a.base.injectFaultAt.empty()) {
    if (const char* env = std::getenv("ROCCC_FAULT_INJECT")) a.base.injectFaultAt = env;
  }

  if (!a.timingModelPath.empty()) {
    if (!readFile(a.timingModelPath, a.base.timingModelSpec)) {
      std::fprintf(stderr, "error: cannot open timing model '%s'\n", a.timingModelPath.c_str());
      return 2;
    }
    roccc::synth::TimingModel model;
    std::string tmError;
    if (!roccc::synth::TimingModel::parse(a.base.timingModelSpec, model, tmError)) {
      std::fprintf(stderr, "error: %s: %s\n", a.timingModelPath.c_str(), tmError.c_str());
      return 2;
    }
  }

  // --- assemble the grid: manifest first, CLI axes override -----------------
  roccc::SweepManifest manifest;
  if (!a.manifestPath.empty()) {
    std::string text;
    if (!readFile(a.manifestPath, text)) {
      std::fprintf(stderr, "error: cannot open grid file '%s'\n", a.manifestPath.c_str());
      return 2;
    }
    std::string error;
    if (!roccc::parseSweepManifest(text, manifest, error)) {
      std::fprintf(stderr, "error: %s: %s\n", a.manifestPath.c_str(), error.c_str());
      return 2;
    }
  }
  roccc::SweepGrid grid = manifest.grid;
  grid.base = a.base;

  if (!addTable1Kernels(manifest.table1, manifest.table1All, grid)) return 2;
  // `kernel NAME PATH` paths resolve relative to the grid file's directory.
  const std::filesystem::path manifestDir =
      std::filesystem::path(a.manifestPath).parent_path();
  for (const auto& kf : manifest.kernelFiles) {
    const std::filesystem::path p = std::filesystem::path(kf.path).is_absolute()
                                        ? std::filesystem::path(kf.path)
                                        : manifestDir / kf.path;
    std::string source;
    if (!readFile(p.string(), source)) {
      std::fprintf(stderr, "error: cannot open kernel file '%s'\n", p.string().c_str());
      return 2;
    }
    grid.kernels.push_back({kf.name, source, 0});
  }
  if (!addTable1Kernels(a.table1, false, grid)) return 2;
  for (const std::string& spec : a.kernelSpecs) {
    const size_t eq = spec.find('=');
    const std::string name = spec.substr(0, eq);
    const std::string path = spec.substr(eq + 1);
    std::string source;
    if (!readFile(path, source)) {
      std::fprintf(stderr, "error: cannot open kernel file '%s'\n", path.c_str());
      return 2;
    }
    grid.kernels.push_back({name, source, 0});
  }
  if (grid.kernels.empty()) {
    std::fprintf(stderr, "error: no kernels (grid file with table1/kernel, --table1, or --kernel)\n");
    return 2;
  }
  if (!a.unrolls.empty()) grid.unrolls = a.unrolls;
  if (!a.targetNs.empty()) grid.targetNs = a.targetNs;

  roccc::SweepOptions opt;
  if (!manifest.axes.empty()) {
    opt.axes.clear();
    for (int axis : manifest.axes) opt.axes.push_back(static_cast<roccc::SweepAxis>(axis));
  }
  if (!a.axes.empty()) opt.axes = a.axes;
  if (manifest.seedSet) opt.seed = manifest.seed;
  if (a.seedSet) opt.seed = a.seed;
  opt.workers = a.jobs;
  opt.collectCycles = !a.noCycles;
  if (a.cacheEnabled) {
    roccc::CacheConfig cfg;
    cfg.diskDir = a.cacheDir;
    opt.cache = std::make_shared<roccc::CompileCache>(cfg);
    if (!a.cacheDir.empty() && !opt.cache->diskEnabled()) {
      std::fprintf(stderr, "error: cannot use cache directory '%s'\n", a.cacheDir.c_str());
      return 2;
    }
  }

  // --- run ------------------------------------------------------------------
  const std::vector<roccc::SweepPoint> points = roccc::expandGrid(grid);
  if (points.empty()) {
    std::fprintf(stderr, "error: the grid expands to zero points\n");
    return 2;
  }
  const roccc::SweepResult sweep = roccc::runSweep(points, opt);

  if (!a.quiet && !a.bestOnly) std::fputs(sweep.table().c_str(), stdout);
  if (!a.quiet) std::fputs(sweep.bestReport().c_str(), stdout);
  std::printf("sweep: %zu points (%s) on %d worker(s), %.1f ms\n", sweep.points.size(),
              sweep.outcomeSummary().c_str(), sweep.workers, sweep.wallMs);

  if (!a.jsonPath.empty()) {
    std::ofstream out(a.jsonPath);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.jsonPath.c_str());
      return 2;
    }
    out << sweep.toJson(a.timings);
  }
  if (!a.statsJsonPath.empty()) {
    std::ofstream out(a.statsJsonPath);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.statsJsonPath.c_str());
      return 2;
    }
    out << "{\"run\": " << sweep.runJson() << "}\n";
  }

  if (a.verifyPareto) {
    roccc::VerifyOptions vopt;
    vopt.seed = opt.seed;
    vopt.checkTestbench = true;
    const roccc::VerifyReport report = roccc::verifyFrontier(sweep, vopt);
    std::printf("frontier conformance: %s\n", report.summary().c_str());
    if (!report.allAgree()) {
      for (const auto& v : report.verdicts) {
        if (!v.agree || !v.testbenchPassed) {
          std::fprintf(stderr, "FAIL %s: %s\n", v.kernel.c_str(),
                       v.compileError.empty() ? "engines disagree or testbench failed"
                                              : v.compileError.c_str());
        }
      }
      return 3;
    }
  }

  return sweep.failedCount() == 0 ? 0 : 1;
}
