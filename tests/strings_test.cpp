// fmt() renders strings and integers without a stream; every argument must
// still come out exactly as operator<< on a default std::ostringstream
// renders it, since the emitters' output bytes depend on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "support/strings.hpp"

namespace roccc {
namespace {

template <typename T>
std::string streamed(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

template <typename T>
void expectStreamed(const T& v) {
  EXPECT_EQ(fmt("%0", v), streamed(v));
  EXPECT_EQ(fmt("<%0>", v), "<" + streamed(v) + ">");
}

enum class Color { Red, Green };

std::ostream& operator<<(std::ostream& os, Color c) {
  return os << (c == Color::Red ? "red" : "green");
}

TEST(Fmt, IntegersMatchStream) {
  expectStreamed(0);
  expectStreamed(42);
  expectStreamed(-7);
  expectStreamed(std::numeric_limits<int>::min());
  expectStreamed(std::numeric_limits<int64_t>::min());
  expectStreamed(std::numeric_limits<int64_t>::max());
  expectStreamed(std::numeric_limits<size_t>::max());
  expectStreamed(std::numeric_limits<uint64_t>::max());
  expectStreamed(static_cast<short>(-300));
  expectStreamed(static_cast<unsigned>(4000000000u));
}

TEST(Fmt, CharBoolAndDoubleMatchStream) {
  expectStreamed('x');
  expectStreamed(static_cast<signed char>('A'));
  expectStreamed(static_cast<unsigned char>('z'));
  expectStreamed(true);
  expectStreamed(false);
  expectStreamed(0.1);
  expectStreamed(3.14159265358979);
  expectStreamed(1e21);
  expectStreamed(-2.5e-7);
  expectStreamed(100.0);
  EXPECT_EQ(fmt("%0", 3.14159265358979), "3.14159"); // default precision 6
}

TEST(Fmt, StringsAndEnumsMatchStream) {
  const char* cstr = "signed";
  const std::string str = "v12_acc";
  expectStreamed(cstr);
  expectStreamed(str);
  expectStreamed(std::string());
  expectStreamed(std::string_view("view"));
  expectStreamed(Color::Red);
  expectStreamed(Color::Green);
  EXPECT_EQ(fmt("%0(%1 downto 0)", "unsigned", 15), "unsigned(15 downto 0)");
}

TEST(Fmt, RepeatedAndUnmatchedPlaceholders) {
  EXPECT_EQ(fmt("%0 %0 %1 %0", "a", 2), "a a 2 a");
  EXPECT_EQ(fmt("%1%0", "x", "y"), "yx");
  EXPECT_EQ(fmt("%0 %1 %2", 1), "1 %1 %2");
  EXPECT_EQ(fmt("no args %0"), "no args %0");
  EXPECT_EQ(fmt("100%", 5), "100%");
  EXPECT_EQ(fmt("%% %x %0", 5), "%% %x 5");
  EXPECT_EQ(fmt(""), "");
}

TEST(Fmt, TenArgumentsUseEveryDigit) {
  EXPECT_EQ(fmt("%9%8%7%6%5%4%3%2%1%0", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9), "9876543210");
  // %10 is placeholder %1 followed by a literal '0'.
  EXPECT_EQ(fmt("%10", "a", "b"), "b0");
}

} // namespace
} // namespace roccc
