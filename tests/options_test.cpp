// Tests for the CompileOptions field table (src/roccc/options.hpp): it
// names every leaf field exactly once, every protocol row round-trips
// through the daemon's JSON parser and rejects a wrong-typed value, and
// every flag row parses its own spelling and rejects malformed values.
// The cache-key side (every keyed row moves the key, presentation rows do
// not, and the key bytes are pinned) lives in cache_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "option_perturb.hpp"
#include "roccc/cache.hpp"
#include "roccc/service_net.hpp"

namespace roccc {
namespace {

using json::Value;

TEST(OptionTable, RowsNameDistinctLeafFields) {
  CompileOptions o;
  const auto* begin = reinterpret_cast<const char*>(&o);
  std::set<const void*> fields;
  std::set<std::string> keys;
  for (const OptionField& f : compileOptionFields()) {
    const void* field = std::visit([](auto* p) -> const void* { return p; }, f.ref(o));
    const auto* at = static_cast<const char*>(field);
    EXPECT_TRUE(at >= begin && at < begin + sizeof o) << f.key;
    EXPECT_TRUE(fields.insert(field).second) << f.key << " names a field twice";
    EXPECT_TRUE(keys.insert(f.key).second) << f.key;
    if (f.flag) {
      EXPECT_EQ(findOptionByFlag(f.flag), &f) << f.key;
    }
  }
  EXPECT_EQ(fields.size(), 25u);
  EXPECT_EQ(findOptionByFlag("--no-such-flag"), nullptr);
}

TEST(OptionTable, JsonRowsRoundTripAndRejectWrongTypes) {
  BudgetLimits noCeiling;
  noCeiling.maxDepth = 0; // BudgetLimits{} would clamp maxDepth to 256
  int jsonRows = 0;
  for (const OptionField& f : compileOptionFields()) {
    if (!f.jsonKey) continue;
    ++jsonRows;
    CompileOptions sent;
    perturbOption(f, sent);
    Value request = Value::object();
    request.set(f.jsonKey, optionJson(f, sent));
    CompileOptions got;
    std::string error;
    ASSERT_TRUE(compileOptionsFromJson(request, CompileOptions{}, noCeiling, got, error))
        << f.jsonKey << ": " << error;
    EXPECT_EQ(canonicalizeOptions(got), canonicalizeOptions(sent)) << f.jsonKey;

    // A bool row gets a string, every other row a bool.
    const Value wrong = optionJson(f, sent).isBool() ? Value::string("1") : Value::boolean(true);
    request = Value::object();
    request.set(f.jsonKey, wrong);
    EXPECT_FALSE(compileOptionsFromJson(request, CompileOptions{}, noCeiling, got, error))
        << f.jsonKey;
    EXPECT_EQ(error.rfind(std::string("option '") + f.jsonKey + "' must be ", 0), 0u) << error;
  }
  EXPECT_EQ(jsonRows, 15);
}

TEST(OptionTable, FlagRowsParseTheirSpellingAndRejectMalformedValues) {
  for (const OptionField& f : compileOptionFields()) {
    if (!f.flag) continue;
    CompileOptions want;
    perturbOption(f, want);
    const Value v = optionJson(f, want);
    // The command-line spelling of the perturbed value.
    std::string arg;
    if (v.isString()) arg = v.asString();
    else if (v.isArray()) arg = v.items().back().asString();
    else if (v.isNumber()) arg = v.dump();
    CompileOptions got;
    ASSERT_TRUE(parseOptionArg(f, f.valueName ? arg.c_str() : nullptr, got)) << f.flag;
    EXPECT_EQ(optionJson(f, got).dump(), v.dump()) << f.flag;
    EXPECT_EQ(f.valueName == nullptr, v.isBool()) << f.flag << ": only bool rows are flags";

    if (v.isNumber()) {
      for (const char* bad : {"abc", "2x", "", "4ns"}) {
        EXPECT_FALSE(parseOptionArg(f, bad, got)) << f.flag << " " << bad;
      }
    }
    if (v.isNumber() && v.isIntegral() && f.min == 1) {
      EXPECT_FALSE(parseOptionArg(f, "0", got)) << f.flag;
    }
    if (!f.names.empty()) {
      EXPECT_FALSE(parseOptionArg(f, "nope", got)) << f.flag;
    }
  }
}

TEST(OptionTable, IntRowsRejectValuesTheFieldCannotHold) {
  // unroll is an int: 2^32 must not wrap to 0.
  const OptionField& unroll = *findOptionByFlag("--unroll");
  CompileOptions o;
  EXPECT_FALSE(parseOptionArg(unroll, "4294967296", o));
  Value request = Value::object();
  request.set("unroll", Value::number(int64_t{1} << 32));
  std::string error;
  EXPECT_FALSE(compileOptionsFromJson(request, CompileOptions{}, {}, o, error));
  EXPECT_EQ(error, "option 'unroll' must be an integer >= 1");
}

TEST(OptionTable, TargetNsIsAFinitePositiveNumber) {
  const OptionField& target = *findOptionByFlag("--target-ns");
  CompileOptions o;
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "0", "-0", "-1", "1e999"}) {
    EXPECT_FALSE(parseOptionArg(target, bad, o)) << bad;
  }
  EXPECT_EQ(o.dpOptions.targetStageDelayNs, CompileOptions{}.dpOptions.targetStageDelayNs);
  for (const char* good : {"3.5", "1e-3", "12"}) {
    EXPECT_TRUE(parseOptionArg(target, good, o)) << good;
  }
  EXPECT_EQ(o.dpOptions.targetStageDelayNs, 12.0);
}

} // namespace
} // namespace roccc
