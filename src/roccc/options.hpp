// The CompileOptions field table: one row per leaf field, and every
// consumer of the options walks it —
//   - the cache key (canonicalizeOptions, roccc/cache.cpp), in row order;
//   - the daemon's JSON options (compileOptionsFromJson, roccc/service_net.cpp);
//   - the command-line flags of roccc-cc, roccc-client, roccc-ccd and
//     roccc-explore (cliOption below, parsed by support/cli).
// Adding a compile option means adding its field and one row here; the
// structured-binding check in options.cpp fails the build until the row
// exists. A keyed row changes every cache key, so it must come with a
// kCacheSchema bump (roccc/cache.cpp).
#pragma once

#include <span>
#include <string>
#include <variant>
#include <vector>

#include "roccc/compiler.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "synth/timing.hpp"

namespace roccc {

/// The field a row names. Its type is the row's kind: an integer (with the
/// row's minimum), a double, a bool, a string, a repeatable string, or a
/// named enum (the row's `names`, indexed by the enum's value).
using OptionRef =
    std::variant<bool*, int*, int64_t*, double*, std::string*, std::vector<std::string>*,
                 dp::BuildOptions::WidthMode*, dp::BuildOptions::MultStyle*>;

struct OptionField {
  /// Name in the cache key ("dp.targetStageDelayNs"), and the row's name.
  const char* key;
  /// Part of the cache key. False only for presentation (IR snapshots).
  bool keyed;
  /// Command-line flag, or null. A bool row's flag takes no value and sets
  /// the field, or clears it when the flag starts with "--no-".
  const char* flag;
  const char* valueName; ///< the flag's value in --help ("N"); null for bools
  const char* jsonKey;   ///< daemon protocol key, or null
  const char* help;      ///< one-line --help description
  /// Integers: the smallest accepted value (CLI and JSON). Doubles: values
  /// must be finite and greater than it. INT64_MIN = any value.
  int64_t min;
  /// Enums: the spelling of each value, in the enum's order.
  std::span<const char* const> names;
  /// The field inside an options object.
  OptionRef (*ref)(CompileOptions&);
};

/// Every leaf field of CompileOptions, in cache-key order.
std::span<const OptionField> compileOptionFields();

/// The row with this command-line flag; null when none has it.
const OptionField* findOptionByFlag(std::string_view flag);

/// Appends the row's "key=value;" cache-key text for `options`.
void appendOptionKey(const OptionField& field, const CompileOptions& options, std::string& out);

/// Parses a command-line value (null for a bool flag) into the field.
bool parseOptionArg(const OptionField& field, const char* value, CompileOptions& options);

/// Reads the row's JSON value into the field; on a wrong type or an out of
/// range value sets the bad-request text in `error` and returns false.
bool parseOptionJson(const OptionField& field, const json::Value& value, CompileOptions& options,
                     std::string& error);

/// The field's value as the row's JSON value (the inverse of parseOptionJson).
json::Value optionJson(const OptionField& field, const CompileOptions& options);

/// The row as a command-line option writing into `options`.
cli::Option cliOption(const OptionField& field, CompileOptions& options);

/// Reads a --timing-model file: its contents go to `spec` (the cache key
/// hashes the contents, not the path), validated by parsing into `model`.
/// On failure `error` is "cannot open timing model 'PATH'" or "PATH: why".
bool loadTimingModel(const std::string& path, std::string& spec, synth::TimingModel& model,
                     std::string& error);

} // namespace roccc
