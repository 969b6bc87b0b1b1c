// Test helper shared by the option-table tests: moves one row's field of
// the option table (roccc/options.hpp) to a different valid value.
#pragma once

#include <type_traits>
#include <variant>

#include "roccc/options.hpp"

namespace roccc {

inline void perturbOption(const OptionField& f, CompileOptions& o) {
  std::visit(
      [](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, bool>) {
          *p = !*p;
        } else if constexpr (std::is_same_v<T, double>) {
          *p += 1.5;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *p += "x";
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          p->push_back("unroll");
        } else if constexpr (std::is_enum_v<T>) {
          *p = static_cast<T>(static_cast<int>(*p) == 0 ? 1 : 0);
        } else {
          *p += 1;
        }
      },
      f.ref(o));
}

} // namespace roccc
