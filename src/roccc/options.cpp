#include "roccc/options.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "roccc/cache.hpp"
#include "support/strings.hpp"

namespace roccc {

namespace {

constexpr int64_t kAny = std::numeric_limits<int64_t>::min();
constexpr const char* kMultStyles[] = {"lut", "mult18"};

// Cache-key order: new keyed rows go at the end of the keyed block (with a
// kCacheSchema bump); the presentation rows follow it.
constexpr OptionField kFields[] = {
    {"kernel", true, "--kernel", "NAME", "kernel",
     "kernel function (default: last function in the file)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.kernelName; }},
    {"unroll", true, "--unroll", "N", "unroll", "partially unroll the streaming loop by N", 1, {},
     [](CompileOptions& o) -> OptionRef { return &o.unrollFactor; }},
    {"autoUnrollSliceBudget", true, nullptr, nullptr, nullptr,
     "pick the largest unroll fitting this many slices (0 = off)", 0, {},
     [](CompileOptions& o) -> OptionRef { return &o.autoUnrollSliceBudget; }},
    {"convertCallsToLuts", true, nullptr, nullptr, "lutConvert",
     "turn pure unary callees into lookup tables", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.convertCallsToLuts; }},
    {"optimize", true, nullptr, nullptr, "optimize", "run the circuit-level scalar optimizations",
     kAny, {}, [](CompileOptions& o) -> OptionRef { return &o.optimize; }},
    {"dp.targetStageDelayNs", true, "--target-ns", "X", "targetNs",
     "pipeline stage delay target in ns (default 4.0); retime balances to it", 0, {},
     [](CompileOptions& o) -> OptionRef { return &o.dpOptions.targetStageDelayNs; }},
    {"dp.pipeline", true, "--no-pipeline", nullptr, "pipeline",
     "single combinational stage (no pipelining)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.dpOptions.pipeline; }},
    {"dp.inferBitWidths", true, "--no-infer", nullptr, "inferWidths",
     "disable bit-width inference", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.dpOptions.inferBitWidths; }},
    {"dp.widthMode", true, nullptr, nullptr, nullptr,
     "bit-width inference rule (port/opcode or range analysis)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.dpOptions.widthMode; }},
    {"dp.multStyle", true, "--mult-style", "S", "multStyle",
     "multiplier style: 'lut' (default) or 'mult18'", kAny, kMultStyles,
     [](CompileOptions& o) -> OptionRef { return &o.dpOptions.multStyle; }},
    // verifyEach is semantic at the margin: it can turn a latent invariant
    // break into a structured failure, so verified and unverified compiles
    // must not share an entry.
    {"pipeline.verifyEach", true, "--verify-each", nullptr, nullptr,
     "run the layer verifier after every pipeline pass", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.pipeline.verifyEach; }},
    {"budget.timeoutMs", true, "--timeout-ms", "N", "timeoutMs",
     "per-job wall-clock deadline in ms (0 = none; negative = expired)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.budget.timeoutMs; }},
    {"budget.maxIrNodes", true, "--max-ir-nodes", "N", "maxIrNodes",
     "per-job cap on total live IR nodes (0 = none)", 0, {},
     [](CompileOptions& o) -> OptionRef { return &o.budget.maxIrNodes; }},
    {"budget.maxUnrollProduct", true, "--max-unroll-product", "N", "maxUnrollProduct",
     "cap on the product of all unroll expansions (0 = none)", 0, {},
     [](CompileOptions& o) -> OptionRef { return &o.budget.maxUnrollProduct; }},
    {"budget.maxDepth", true, "--max-depth", "N", "maxDepth",
     "parser recursion/nesting depth cap (default 256, 0 = none)", 0, {},
     [](CompileOptions& o) -> OptionRef { return &o.budget.maxDepth; }},
    // The fault-injection salt: an armed compile never shares a key with a
    // clean one (armed results are uncacheable anyway).
    {"injectFaultAt", true, "--inject-fault", "P", "injectFault",
     "arm fault point P (see faultPointRegistry)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.injectFaultAt; }},
    {"retimePipeline", true, "--no-retime", nullptr, "retime",
     "disable the timing-driven retime pass (fixed greedy staging)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.retimePipeline; }},
    // The model's contents, not its path: two files with the same text
    // share an entry and editing the file changes the key. The tools fill
    // it from --timing-model FILE (loadTimingModel).
    {"timingModelSpec", true, nullptr, nullptr, nullptr, "timing model table text", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.timingModelSpec; }},
    // Emission, not presentation: an entry built without Verilog carries
    // no Verilog text, so it must never answer a request that wants it.
    // roccc-cc's --verilog FILE sets it.
    {"emitVerilog", true, nullptr, nullptr, "verilog", "also emit the Verilog form of the design",
     kAny, {}, [](CompileOptions& o) -> OptionRef { return &o.emitVerilog; }},
    // Presentation: IR-snapshot requests; snapshots are never cached.
    {"pipeline.printAfterAll", false, "--print-after-all", nullptr, nullptr,
     "dump the IR after every pass (stderr)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.pipeline.printAfterAll; }},
    {"pipeline.printAfter", false, "--print-after", "P", nullptr,
     "dump the IR after pass P (repeatable)", kAny, {},
     [](CompileOptions& o) -> OptionRef { return &o.pipeline.printAfter; }},
};

// Completeness: each binding compiles only while its struct has exactly
// that many fields, so a new field fails the build here until it has a
// row above (and the counts are updated).
[[maybe_unused]] void checkEveryFieldHasARow(CompileOptions& o) {
  [[maybe_unused]] auto& [kernel, unroll, autoUnroll, luts, optimize, dp, retime, timingModel,
                          verilog, pipeline, budget, fault] = o;
  [[maybe_unused]] auto& [target, pipe, infer, widthMode, multStyle] = o.dpOptions;
  [[maybe_unused]] auto& [verifyEach, printAfterAll, printAfter] = o.pipeline;
  [[maybe_unused]] auto& [timeoutMs, maxIrNodes, maxUnrollProduct, maxDepth] = o.budget;
}
static_assert(std::size(kFields) == (12 - 3) + 5 + 3 + 4, "one row per leaf field");

template <class T>
void appendInt(std::string& out, T v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// A double row's range: finite and above the row's minimum, unless the
/// row takes any value.
bool doubleInRange(const OptionField& f, double v) {
  return f.min == kAny || (std::isfinite(v) && v > static_cast<double>(f.min));
}

/// The index of `name` in the row's enum names, or -1.
int enumIndex(const OptionField& f, std::string_view name) {
  for (size_t i = 0; i < f.names.size(); ++i) {
    if (name == f.names[i]) return static_cast<int>(i);
  }
  return -1;
}

/// "must be ..." text of the row's JSON type.
std::string jsonTypeText(const OptionField& f, const OptionRef& ref) {
  return std::visit(
      [&](auto* p) -> std::string {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          return "a boolean";
        } else if constexpr (std::is_same_v<T, double>) {
          return f.min == kAny ? "a number" : fmt("a finite number > %0", f.min);
        } else if constexpr (std::is_enum_v<T>) {
          std::string text;
          for (size_t i = 0; i < f.names.size(); ++i) {
            if (i > 0) text += i + 1 == f.names.size() ? " or " : ", ";
            text += fmt("\"%0\"", f.names[i]);
          }
          return text;
        } else if constexpr (std::is_integral_v<T>) {
          return f.min == kAny ? "an integer" : fmt("an integer >= %0", f.min);
        } else {
          return "a string";
        }
      },
      ref);
}

} // namespace

std::span<const OptionField> compileOptionFields() { return kFields; }

const OptionField* findOptionByFlag(std::string_view flag) {
  for (const OptionField& f : kFields) {
    if (f.flag && flag == f.flag) return &f;
  }
  return nullptr;
}

void appendOptionKey(const OptionField& f, const CompileOptions& options, std::string& out) {
  out += f.key;
  out += '=';
  // The const_cast only lets the accessor take the field's address; the
  // visitor reads it.
  std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          out += *p ? '1' : '0';
        } else if constexpr (std::is_same_v<T, double>) {
          out += doubleBits(*p);
        } else if constexpr (std::is_same_v<T, std::string>) {
          appendInt(out, p->size());
          out += ':';
          out += *p;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          // Only presentation rows are lists; none is keyed.
        } else if constexpr (std::is_enum_v<T>) {
          appendInt(out, static_cast<int>(*p));
        } else {
          appendInt(out, *p);
        }
      },
      f.ref(const_cast<CompileOptions&>(options)));
  out += ';';
}

bool parseOptionArg(const OptionField& f, const char* value, CompileOptions& options) {
  return std::visit(
      [&](auto* p) -> bool {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          *p = !std::string_view(f.flag).starts_with("--no-");
          return true;
        } else if constexpr (std::is_same_v<T, double>) {
          double d = 0;
          if (!cli::parseDouble(value, d) || !doubleInRange(f, d)) return false;
          *p = d;
          return true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *p = value;
          return true;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          p->emplace_back(value);
          return true;
        } else if constexpr (std::is_enum_v<T>) {
          const int i = enumIndex(f, value);
          if (i < 0) return false;
          *p = static_cast<T>(i);
          return true;
        } else {
          int64_t n = 0;
          if (!cli::parseInt(value, f.min, std::numeric_limits<T>::max(), n)) return false;
          *p = static_cast<T>(n);
          return true;
        }
      },
      f.ref(options));
}

bool parseOptionJson(const OptionField& f, const json::Value& v, CompileOptions& options,
                     std::string& error) {
  const OptionRef ref = f.ref(options);
  const bool ok = std::visit(
      [&](auto* p) -> bool {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (!v.isBool()) return false;
          *p = v.asBool();
        } else if constexpr (std::is_same_v<T, double>) {
          if (!v.isNumber() || !doubleInRange(f, v.asDouble())) return false;
          *p = v.asDouble();
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (!v.isString()) return false;
          *p = v.asString();
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          return false; // no protocol key carries a list
        } else if constexpr (std::is_enum_v<T>) {
          const int i = v.isString() ? enumIndex(f, v.asString()) : -1;
          if (i < 0) return false;
          *p = static_cast<T>(i);
        } else {
          if (!v.isNumber() || !v.isIntegral()) return false;
          const int64_t n = v.asInt();
          if (n < f.min || n > std::numeric_limits<T>::max()) return false;
          *p = static_cast<T>(n);
        }
        return true;
      },
      ref);
  if (!ok) error = fmt("option '%0' must be %1", f.jsonKey, jsonTypeText(f, ref));
  return ok;
}

json::Value optionJson(const OptionField& f, const CompileOptions& options) {
  return std::visit(
      [&](auto* p) -> json::Value {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          return json::Value::boolean(*p);
        } else if constexpr (std::is_same_v<T, double>) {
          return json::Value::number(*p);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return json::Value::string(*p);
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          json::Value items = json::Value::array();
          for (const std::string& s : *p) items.push(json::Value::string(s));
          return items;
        } else if constexpr (std::is_enum_v<T>) {
          return json::Value::string(f.names[static_cast<size_t>(*p)]);
        } else {
          return json::Value::number(static_cast<int64_t>(*p));
        }
      },
      f.ref(const_cast<CompileOptions&>(options)));
}

cli::Option cliOption(const OptionField& f, CompileOptions& options) {
  return {f.flag, f.valueName, f.help,
          [&f, &options](const char* v) { return parseOptionArg(f, v, options); }};
}

bool loadTimingModel(const std::string& path, std::string& spec, synth::TimingModel& model,
                     std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = fmt("cannot open timing model '%0'", path);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  spec = text.str();
  std::string why;
  if (!synth::TimingModel::parse(spec, model, why)) {
    error = fmt("%0: %1", path, why);
    return false;
  }
  return true;
}

} // namespace roccc
