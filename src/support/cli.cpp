#include "support/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace roccc::cli {

bool parse(int argc, char** argv, const std::vector<Option>& options,
           const std::function<bool(const char*)>& positional) {
  std::unordered_map<std::string_view, const Option*> byName;
  for (const Option& o : options) {
    if (!byName.emplace(o.name, &o).second) {
      std::fprintf(stderr, "internal: option '%s' is declared twice\n", o.name);
      std::abort();
    }
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (!positional(argv[i])) {
        std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[i]);
        return false;
      }
      continue;
    }
    // Split the "--opt=value" spelling.
    std::string inlineValue;
    bool hasInlineValue = false;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos && arg.starts_with("--")) {
      inlineValue = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      hasInlineValue = true;
    }
    const auto it = byName.find(arg);
    if (it == byName.end()) {
      std::fprintf(stderr, "error: unknown option '%.*s'\n", static_cast<int>(arg.size()),
                   arg.data());
      return false;
    }
    const Option& o = *it->second;
    const char* value = nullptr;
    if (o.valueName) {
      if (hasInlineValue) {
        value = inlineValue.c_str();
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "error: %s needs a value (%s)\n", o.name, o.valueName);
        return false;
      }
    } else if (hasInlineValue) {
      std::fprintf(stderr, "error: %s takes no value\n", o.name);
      return false;
    }
    if (!o.apply(value)) {
      std::fprintf(stderr, "error: bad value '%s' for %s\n", value ? value : "", o.name);
      return false;
    }
  }
  return true;
}

void printOptions(const std::vector<Option>& options) {
  for (const Option& o : options) {
    std::string left = o.name;
    if (o.valueName) {
      left += ' ';
      left += o.valueName;
    }
    std::printf("  %-22s %s\n", left.c_str(), o.help);
  }
}

bool parseInt(const char* s, int64_t min, int64_t max, int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || n < min || n > max) return false;
  out = n;
  return true;
}

bool parseDouble(const char* s, double& out) {
  char* end = nullptr;
  const double d = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  out = d;
  return true;
}

bool parseUnsigned(const char* s, uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0' || errno == ERANGE || *s == '-') return false;
  out = n;
  return true;
}

bool parseIntList(const char* s, int min, std::vector<int>& out) {
  out.clear();
  for (const std::string& item : splitList(s)) {
    int64_t n = 0;
    if (!parseInt(item.c_str(), min, std::numeric_limits<int>::max(), n)) return false;
    out.push_back(static_cast<int>(n));
  }
  return !out.empty();
}

std::vector<std::string> splitList(const char* s) {
  std::vector<std::string> items;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) items.push_back(item);
  return items;
}

Option flag(const char* name, const char* help, bool& target) {
  return {name, nullptr, help, [&target](const char*) { return target = true; }};
}

Option text(const char* name, const char* valueName, const char* help, std::string& target) {
  return {name, valueName, help, [&target](const char* v) {
            target = v;
            return true;
          }};
}

Option integer(const char* name, const char* valueName, const char* help, int& target,
               int64_t min) {
  return {name, valueName, help, [&target, min](const char* v) {
            int64_t n = 0;
            if (!parseInt(v, min, std::numeric_limits<int>::max(), n)) return false;
            target = static_cast<int>(n);
            return true;
          }};
}

Option integer(const char* name, const char* valueName, const char* help, int64_t& target,
               int64_t min) {
  return {name, valueName, help, [&target, min](const char* v) {
            return parseInt(v, min, std::numeric_limits<int64_t>::max(), target);
          }};
}

} // namespace roccc::cli
