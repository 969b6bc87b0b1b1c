// A small argv parser shared by the command-line tools.
//
// Each tool lists its options as cli::Option rows (the compile options come
// from roccc/options.hpp's field table). parse() accepts "--opt VALUE" and
// "--opt=VALUE" for value options; an unknown option, a missing or
// malformed value, or a value given to a flag is a usage error. The --help
// listing is printed from the same rows (printOptions), which is what the
// docs sync checks (tests/check_cli_docs.sh) read.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace roccc::cli {

struct Option {
  const char* name;      ///< "--unroll" or "-o"
  const char* valueName; ///< shown in --help; null for a flag (takes no value)
  const char* help;      ///< one-line --help description
  /// Applies the option; `value` is null for a flag. False = bad value.
  std::function<bool(const char* value)> apply;
};

/// Parses argv[1..argc) against `options`. Arguments that do not start with
/// '-' go to `positional`, which returns false to reject them. On failure
/// prints one "error: ..." line to stderr and returns false.
bool parse(int argc, char** argv, const std::vector<Option>& options,
           const std::function<bool(const char*)>& positional);

/// The --help option list: one "  NAME VALUE  help" line per option.
void printOptions(const std::vector<Option>& options);

// Strict value parsers: the whole string must be the number.
bool parseInt(const char* s, int64_t min, int64_t max, int64_t& out);
bool parseDouble(const char* s, double& out);
/// Decimal, 0x-hex or 0-octal (seeds are often written in hex).
bool parseUnsigned(const char* s, uint64_t& out);
/// A comma-separated list of integers, each >= min; at least one.
bool parseIntList(const char* s, int min, std::vector<int>& out);
/// Splits a comma-separated list (an empty item stays, to be rejected).
std::vector<std::string> splitList(const char* s);

// Row builders for the common shapes.
Option flag(const char* name, const char* help, bool& target);
Option text(const char* name, const char* valueName, const char* help, std::string& target);
Option integer(const char* name, const char* valueName, const char* help, int& target,
               int64_t min);
Option integer(const char* name, const char* valueName, const char* help, int64_t& target,
               int64_t min);

} // namespace roccc::cli
