#include "mir/passes.hpp"

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string_view>

#include "mir/exec.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::mir {

// Every pass below does O(instructions + operands) work per call: per-register
// facts live in vectors indexed by the dense register id, and the block order
// is computed once per call.

namespace {

/// Applies `fn` to every instruction of the blocks in `order`.
template <typename Fn>
void forEachInstr(FunctionIR& f, const std::vector<int>& order, Fn&& fn) {
  for (int bid : order) {
    for (auto& in : f.blocks[static_cast<size_t>(bid)].instrs) fn(in);
  }
}

/// True when the operand's value is provably >= 0: a non-negative immediate,
/// or a register whose declared type is unsigned and narrower than the
/// 64-bit evaluation domain.
bool nonNegative(const FunctionIR& f, const Operand& o) {
  if (o.isImm()) return o.imm >= 0;
  if (o.isReg()) {
    const ScalarType t = f.regTypes[static_cast<size_t>(o.reg)];
    return !t.isSigned;
  }
  return false;
}

} // namespace

int constantPropagate(FunctionIR& f) {
  const std::vector<int> rpo = reversePostOrder(f);
  const size_t nRegs = static_cast<size_t>(f.regCount());
  std::vector<Value> constants(nRegs); // SSA reg -> known constant
  std::vector<char> known(nRegs, 0);
  auto isKnown = [&](const Operand& o) { return o.isReg() && known[static_cast<size_t>(o.reg)]; };
  auto learn = [&](int reg, const Value& v) {
    constants[static_cast<size_t>(reg)] = v;
    known[static_cast<size_t>(reg)] = 1;
  };

  // Seed + propagate in RPO (SSA defs dominate uses, so one pass per
  // fixpoint round suffices; phi handling makes extra rounds useful).
  std::vector<Value> ops;
  bool changed = true;
  while (changed) {
    changed = false;
    forEachInstr(f, rpo, [&](Instr& in) {
      if (!in.hasDst() || known[static_cast<size_t>(in.dst)]) return;
      if (in.op == Opcode::Ldc) {
        learn(in.dst, Value::fromInt(in.type, in.imm));
        changed = true;
        return;
      }
      if (in.op == Opcode::Phi) {
        // A phi whose (known) inputs all agree is that constant.
        std::optional<Value> agreed;
        for (const auto& o : in.srcs) {
          if (!isKnown(o)) return;
          const Value v = constants[static_cast<size_t>(o.reg)].convertTo(in.type);
          if (!agreed) {
            agreed = v;
          } else if (!(*agreed == v)) {
            return;
          }
        }
        if (agreed) {
          learn(in.dst, *agreed);
          changed = true;
        }
        return;
      }
      if (!isPure(in.op) || in.op == Opcode::In) return;
      ops.clear();
      for (const auto& o : in.srcs) {
        if (o.isImm()) {
          ops.push_back(Value::fromInt(in.type, o.imm));
        } else if (isKnown(o)) {
          ops.push_back(constants[static_cast<size_t>(o.reg)]);
        } else {
          return;
        }
      }
      if (auto v = evalPureOp(in, ops, f.findTable(in.symbol))) {
        learn(in.dst, *v);
        changed = true;
      }
    });
  }

  // Rewrite: known-constant defs become Ldc; Mux with constant selector
  // becomes Mov of the taken side.
  int changes = 0;
  forEachInstr(f, rpo, [&](Instr& in) {
    if (in.hasDst() && known[static_cast<size_t>(in.dst)] && in.op != Opcode::Ldc &&
        in.op != Opcode::Phi && isPure(in.op)) {
      in.op = Opcode::Ldc;
      in.imm = constants[static_cast<size_t>(in.dst)].toInt();
      in.srcs.clear();
      in.symbol.clear();
      ++changes;
      return;
    }
    if (in.op == Opcode::Mux && isKnown(in.srcs[0])) {
      const bool taken = constants[static_cast<size_t>(in.srcs[0].reg)].toBool();
      const Operand src = taken ? in.srcs[1] : in.srcs[2];
      in.op = Opcode::Mov;
      in.srcs = {src};
      ++changes;
    }
  });
  return changes;
}

int copyPropagate(FunctionIR& f) {
  // Mov dst, src with identical types is a pure copy; redirect uses.
  const std::vector<int> rpo = reversePostOrder(f);
  std::vector<Operand> copyOf(static_cast<size_t>(f.regCount())); // Kind::None: not a copy
  bool any = false;
  forEachInstr(f, rpo, [&](Instr& in) {
    if (in.op == Opcode::Mov && in.hasDst() && in.srcs[0].isReg() &&
        f.regTypes[static_cast<size_t>(in.srcs[0].reg)] == in.type) {
      copyOf[static_cast<size_t>(in.dst)] = in.srcs[0];
      any = true;
    }
  });
  if (!any) return 0;
  auto isCopy = [&](const Operand& o) {
    return o.isReg() && copyOf[static_cast<size_t>(o.reg)].kind != Operand::Kind::None;
  };
  // Resolve chains.
  auto resolve = [&](Operand o) {
    while (isCopy(o)) o = copyOf[static_cast<size_t>(o.reg)];
    return o;
  };
  int changes = 0;
  forEachInstr(f, rpo, [&](Instr& in) {
    for (auto& o : in.srcs) {
      if (isCopy(o)) {
        o = resolve(o);
        ++changes;
      }
    }
  });
  return changes;
}

namespace {

/// Two operands name the same CSE input: the same immediate, or the same
/// register (any non-immediate operand compares by register id).
bool sameCseOperand(const Operand& a, const Operand& b) {
  return a.isImm() == b.isImm() && (a.isImm() ? a.imm == b.imm : a.reg == b.reg);
}

uint64_t mixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// The CSE expression key of an instruction: (op, type, imm, aux0, aux1,
/// symbol, operands).
uint64_t cseHash(const Instr& in) {
  uint64_t h = static_cast<uint64_t>(in.op);
  h = mixHash(h, static_cast<uint64_t>(in.type.width) * 2 + (in.type.isSigned ? 1 : 0));
  h = mixHash(h, static_cast<uint64_t>(in.imm));
  h = mixHash(h, static_cast<uint64_t>(static_cast<uint32_t>(in.aux0)) << 32 |
                     static_cast<uint32_t>(in.aux1));
  if (!in.symbol.empty()) h = mixHash(h, std::hash<std::string_view>{}(in.symbol));
  for (const auto& o : in.srcs) {
    h = mixHash(h, o.isImm() ? static_cast<uint64_t>(o.imm) * 2 + 1
                             : static_cast<uint64_t>(static_cast<int64_t>(o.reg)) * 2);
  }
  // Finalizer: the table indexes by the low bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

bool sameCseKey(const Instr& a, const Instr& b) {
  if (a.op != b.op || a.type != b.type || a.imm != b.imm || a.aux0 != b.aux0 ||
      a.aux1 != b.aux1 || a.srcs.size() != b.srcs.size() || a.symbol != b.symbol) {
    return false;
  }
  for (size_t i = 0; i < a.srcs.size(); ++i) {
    if (!sameCseOperand(a.srcs[i], b.srcs[i])) return false;
  }
  return true;
}

/// Expression -> available register, scoped over the dominator tree. An
/// open-addressing table (linear probing) keyed by the instruction that made
/// the expression available; that instruction is not modified while its
/// scope is open. Scopes close in LIFO order, and clearing the slots of the
/// newest entries first never cuts the probe chain of an older one.
class ScopedCseTable {
 public:
  explicit ScopedCseTable(size_t entries) : slots_(std::bit_ceil(2 * entries + 2)) {}

  /// The register already holding `in`'s expression, or -1 after making
  /// `in.dst` hold it.
  int findOrAdd(const Instr& in) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = static_cast<size_t>(cseHash(in)) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == nullptr) {
        s = {&in, in.dst};
        added_.push_back(i);
        return -1;
      }
      if (sameCseKey(*s.key, in)) return s.reg;
    }
  }
  size_t scope() const { return added_.size(); }
  void closeScope(size_t scope) {
    for (; added_.size() > scope; added_.pop_back()) slots_[added_.back()].key = nullptr;
  }

 private:
  struct Slot {
    const Instr* key = nullptr;
    int reg = -1;
  };
  std::vector<Slot> slots_;
  std::vector<size_t> added_;
};

} // namespace

int commonSubexpressionEliminate(FunctionIR& f) {
  const DomTree dt = computeDominators(f);
  std::vector<std::vector<int>> domChildren(f.blocks.size());
  for (size_t b = 1; b < f.blocks.size(); ++b) {
    if (dt.idom[b] >= 0) domChildren[static_cast<size_t>(dt.idom[b])].push_back(static_cast<int>(b));
  }

  // An expression is only ever made available when none is, so each key
  // holds one register and leaving a scope drops what it added.
  size_t instrs = 0;
  for (const auto& b : f.blocks) instrs += b.instrs.size();
  ScopedCseTable avail(instrs);
  std::vector<Operand> replaced(static_cast<size_t>(f.regCount())); // dst -> canonical reg

  int changes = 0;
  auto walk = [&](auto& self, int bid) -> void {
    const size_t scope = avail.scope();
    for (auto& in : f.blocks[static_cast<size_t>(bid)].instrs) {
      // First rewrite operands through prior replacements.
      for (auto& o : in.srcs) {
        if (o.isReg()) {
          const Operand& r = replaced[static_cast<size_t>(o.reg)];
          if (r.isReg()) o = r;
        }
      }
      if (!in.hasDst() || !isCseEligible(in.op)) continue;
      const int prior = avail.findOrAdd(in);
      if (prior >= 0) {
        // Redundant: replace with a Mov so DCE can drop it once unused.
        const Operand canonical = Operand::ofReg(prior);
        replaced[static_cast<size_t>(in.dst)] = canonical;
        in.op = Opcode::Mov;
        in.srcs = {canonical};
        in.symbol.clear();
        ++changes;
      }
    }
    for (int c : domChildren[static_cast<size_t>(bid)]) self(self, c);
    avail.closeScope(scope);
  };
  walk(walk, 0);
  if (changes) copyPropagate(f);
  return changes;
}

int deadCodeEliminate(FunctionIR& f) {
  // Seed: side-effecting instructions' operands. Then a worklist closes the
  // live set over each live register's (pure) definitions.
  const size_t nRegs = static_cast<size_t>(f.regCount());
  std::vector<char> live(nRegs, 0);
  std::vector<int> work;
  std::vector<const Instr*> defs;           // pure definitions, chained per register
  std::vector<int> defHead(nRegs, -1), defNext;
  defs.reserve(nRegs);
  defNext.reserve(nRegs);
  auto markSrcs = [&](const Instr& in) {
    for (const auto& o : in.srcs) {
      if (o.isReg() && !live[static_cast<size_t>(o.reg)]) {
        live[static_cast<size_t>(o.reg)] = 1;
        work.push_back(o.reg);
      }
    }
  };
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (!isPure(in.op)) {
        markSrcs(in);
      } else if (in.hasDst()) {
        defNext.push_back(defHead[static_cast<size_t>(in.dst)]);
        defHead[static_cast<size_t>(in.dst)] = static_cast<int>(defs.size());
        defs.push_back(&in);
      }
    }
  }
  while (!work.empty()) {
    const int r = work.back();
    work.pop_back();
    for (int d = defHead[static_cast<size_t>(r)]; d >= 0; d = defNext[static_cast<size_t>(d)]) {
      markSrcs(*defs[static_cast<size_t>(d)]);
    }
  }
  int removed = 0;
  for (auto& b : f.blocks) {
    std::erase_if(b.instrs, [&](const Instr& in) {
      const bool dead = isPure(in.op) && in.hasDst() && !live[static_cast<size_t>(in.dst)];
      if (dead) ++removed;
      return dead;
    });
  }
  return removed;
}

int strengthReduce(FunctionIR& f) {
  const std::vector<int> rpo = reversePostOrder(f);
  // Known constants (Ldc) by register, for identity detection.
  const size_t nRegs = static_cast<size_t>(f.regCount());
  std::vector<int64_t> constOf(nRegs, 0);
  std::vector<char> isConst(nRegs, 0);
  forEachInstr(f, rpo, [&](Instr& in) {
    if (in.op == Opcode::Ldc) {
      constOf[static_cast<size_t>(in.dst)] = Value::fromInt(in.type, in.imm).toInt();
      isConst[static_cast<size_t>(in.dst)] = 1;
    }
  });
  auto constValue = [&](const Operand& o) -> std::optional<int64_t> {
    if (o.isImm()) return o.imm;
    if (o.isReg() && isConst[static_cast<size_t>(o.reg)]) return constOf[static_cast<size_t>(o.reg)];
    return std::nullopt;
  };
  auto isPow2 = [](int64_t v) { return v > 0 && (v & (v - 1)) == 0; };
  auto log2of = [](int64_t v) {
    int n = 0;
    while ((int64_t{1} << n) < v) ++n;
    return n;
  };

  int changes = 0;
  forEachInstr(f, rpo, [&](Instr& in) {
    switch (in.op) {
      case Opcode::Mul: {
        for (int side = 0; side < 2; ++side) {
          const auto c = constValue(in.srcs[static_cast<size_t>(side)]);
          if (!c) continue;
          const Operand other = in.srcs[static_cast<size_t>(1 - side)];
          if (*c == 0) {
            in.op = Opcode::Ldc;
            in.imm = 0;
            in.srcs.clear();
            ++changes;
            return;
          }
          if (*c == 1) {
            in.op = Opcode::Mov;
            in.srcs = {other};
            ++changes;
            return;
          }
          if (isPow2(*c)) {
            in.op = Opcode::Shl;
            in.srcs = {other, Operand::ofImm(log2of(*c))};
            ++changes;
            return;
          }
        }
        return;
      }
      case Opcode::Div: {
        const auto c = constValue(in.srcs[1]);
        if (c && *c == 1) {
          in.op = Opcode::Mov;
          in.srcs = {in.srcs[0]};
          ++changes;
          return;
        }
        // Division by a power of two is a shift when the dividend is
        // provably non-negative (unsigned result type, or an unsigned
        // operand promoted into a signed op).
        if (c && isPow2(*c) && (!in.type.isSigned || nonNegative(f, in.srcs[0]))) {
          in.op = Opcode::Shr;
          in.srcs = {in.srcs[0], Operand::ofImm(log2of(*c))};
          ++changes;
        }
        return;
      }
      case Opcode::Rem: {
        const auto c = constValue(in.srcs[1]);
        if (c && isPow2(*c) && (!in.type.isSigned || nonNegative(f, in.srcs[0]))) {
          in.op = Opcode::And;
          in.srcs = {in.srcs[0], Operand::ofImm(*c - 1)};
          ++changes;
        }
        return;
      }
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr: {
        // x op 0 == x (for Sub/Shl/Shr only the right side; Add/Or/Xor both).
        const bool bothSides = in.op == Opcode::Add || in.op == Opcode::Or || in.op == Opcode::Xor;
        for (int side = bothSides ? 0 : 1; side < 2; ++side) {
          const auto c = constValue(in.srcs[static_cast<size_t>(side)]);
          if (c && *c == 0) {
            const Operand other = in.srcs[static_cast<size_t>(1 - side)];
            // Result may need the cast semantics of the op type; Mov
            // converts, preserving behavior.
            in.op = Opcode::Mov;
            in.srcs = {other};
            ++changes;
            return;
          }
        }
        return;
      }
      case Opcode::And: {
        for (int side = 0; side < 2; ++side) {
          const auto c = constValue(in.srcs[static_cast<size_t>(side)]);
          if (c && *c == 0) {
            in.op = Opcode::Ldc;
            in.imm = 0;
            in.srcs.clear();
            ++changes;
            return;
          }
        }
        return;
      }
      default:
        return;
    }
  });
  return changes;
}

void canonicalizeSideEffects(FunctionIR& f) {
  // Synthetic registers per output port / feedback name.
  std::map<int, int> outReg;
  std::map<std::string, int> snxReg;
  std::map<std::string, ScalarType> snxType;
  std::map<int, ScalarType> outType;
  bool any = false;
  for (auto& b : f.blocks) {
    for (auto& in : b.instrs) {
      if (in.op == Opcode::Out) {
        auto [it, inserted] = outReg.try_emplace(in.aux0, -1);
        if (inserted) it->second = f.newReg(in.type, fmt("__outport%0", in.aux0));
        outType[in.aux0] = in.type;
        in.op = Opcode::Mov;
        in.dst = it->second;
        any = true;
      } else if (in.op == Opcode::Snx) {
        auto [it, inserted] = snxReg.try_emplace(in.symbol, -1);
        if (inserted) it->second = f.newReg(in.type, "__snx_" + in.symbol);
        snxType[in.symbol] = in.type;
        in.op = Opcode::Mov;
        in.dst = it->second;
        any = true;
      }
    }
  }
  if (!any) return;
  // Default definitions in the entry block guarantee every path reaches the
  // canonical store with a defined value (0 when a path never writes).
  {
    auto& entry = f.entry().instrs;
    auto pos = entry.begin();
    while (pos != entry.end() && pos->op == Opcode::In) ++pos;
    std::vector<Instr> defaults;
    for (const auto& [port, reg] : outReg) {
      Instr ld;
      ld.op = Opcode::Ldc;
      ld.dst = reg;
      ld.type = outType.at(port);
      ld.imm = 0;
      defaults.push_back(std::move(ld));
    }
    for (const auto& [sym, reg] : snxReg) {
      // A feedback register that is not stored on some path keeps its
      // previous value: default to LPR, not zero.
      Instr lpr;
      lpr.op = Opcode::Lpr;
      lpr.dst = reg;
      lpr.type = snxType.at(sym);
      lpr.symbol = sym;
      defaults.push_back(std::move(lpr));
    }
    entry.insert(pos, std::make_move_iterator(defaults.begin()), std::make_move_iterator(defaults.end()));
  }
  // Append the canonical stores just before the Ret.
  for (auto& b : f.blocks) {
    if (b.instrs.empty() || b.instrs.back().op != Opcode::Ret) continue;
    auto at = b.instrs.end() - 1;
    std::vector<Instr> stores;
    for (const auto& [port, reg] : outReg) {
      Instr o;
      o.op = Opcode::Out;
      o.aux0 = port;
      o.type = outType.at(port);
      o.srcs = {Operand::ofReg(reg)};
      stores.push_back(std::move(o));
    }
    for (const auto& [sym, reg] : snxReg) {
      Instr s;
      s.op = Opcode::Snx;
      s.symbol = sym;
      s.type = snxType.at(sym);
      s.srcs = {Operand::ofReg(reg)};
      stores.push_back(std::move(s));
    }
    b.instrs.insert(at, std::make_move_iterator(stores.begin()), std::make_move_iterator(stores.end()));
  }
}

StandardPassStats runStandardPasses(FunctionIR& f) {
  faultpoint("mir.optimize");
  StandardPassStats stats;
  for (int round = 0; round < 8; ++round) {
    budgetCheckpoint("mir-optimize");
    const int cp = constantPropagate(f);
    const int cop = copyPropagate(f);
    const int sr = strengthReduce(f);
    const int cse = commonSubexpressionEliminate(f);
    const int dce = deadCodeEliminate(f);
    ++stats.rounds;
    stats.constProp += cp;
    stats.copyProp += cop;
    stats.strength += sr;
    stats.cse += cse;
    stats.dce += dce;
    if (cp + cop + sr + cse + dce == 0) break;
  }
  return stats;
}

} // namespace roccc::mir
