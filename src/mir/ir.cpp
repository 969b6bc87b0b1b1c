#include "mir/ir.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/strings.hpp"

namespace roccc::mir {

const char* opcodeName(Opcode op) {
  switch (op) {
    case Opcode::Ldc: return "ldc";
    case Opcode::Mov: return "mov";
    case Opcode::Add: return "add";
    case Opcode::Sub: return "sub";
    case Opcode::Mul: return "mul";
    case Opcode::Div: return "div";
    case Opcode::Rem: return "rem";
    case Opcode::Neg: return "neg";
    case Opcode::And: return "and";
    case Opcode::Or: return "or";
    case Opcode::Xor: return "xor";
    case Opcode::Not: return "not";
    case Opcode::Shl: return "shl";
    case Opcode::Shr: return "shr";
    case Opcode::Seq: return "seq";
    case Opcode::Sne: return "sne";
    case Opcode::Slt: return "slt";
    case Opcode::Sle: return "sle";
    case Opcode::Sgt: return "sgt";
    case Opcode::Sge: return "sge";
    case Opcode::Mux: return "mux";
    case Opcode::Cast: return "cast";
    case Opcode::BitSel: return "bitsel";
    case Opcode::BitCat: return "bitcat";
    case Opcode::Lpr: return "lpr";
    case Opcode::Snx: return "snx";
    case Opcode::Lut: return "lut";
    case Opcode::In: return "in";
    case Opcode::Out: return "out";
    case Opcode::Br: return "br";
    case Opcode::Jmp: return "jmp";
    case Opcode::Ret: return "ret";
    case Opcode::Phi: return "phi";
  }
  return "?";
}

bool isTerminator(Opcode op) {
  return op == Opcode::Br || op == Opcode::Jmp || op == Opcode::Ret;
}

bool isPure(Opcode op) {
  switch (op) {
    case Opcode::Snx:
    case Opcode::Out:
    case Opcode::Br:
    case Opcode::Jmp:
    case Opcode::Ret:
      return false;
    default:
      return true;
  }
}

bool isCseEligible(Opcode op) {
  if (!isPure(op)) return false;
  return op != Opcode::Phi && op != Opcode::In;
}

int FunctionIR::newReg(ScalarType t, std::string debugName) {
  regTypes.push_back(t);
  regNames.push_back(std::move(debugName));
  return static_cast<int>(regTypes.size()) - 1;
}

int FunctionIR::addBlock() {
  Block b;
  b.id = static_cast<int>(blocks.size());
  blocks.push_back(std::move(b));
  return blocks.back().id;
}

const FunctionIR::Table* FunctionIR::findTable(const std::string& n) const {
  for (const auto& t : tables)
    if (t.name == n) return &t;
  return nullptr;
}

const FunctionIR::FeedbackReg* FunctionIR::findFeedback(const std::string& n) const {
  for (const auto& f : feedbacks)
    if (f.name == n) return &f;
  return nullptr;
}

std::optional<int> FunctionIR::inputPortIndex(const std::string& paramName) const {
  int idx = 0;
  for (const auto& p : params) {
    if (!p.isOutput) {
      if (p.name == paramName) return idx;
      ++idx;
    }
  }
  return std::nullopt;
}

namespace {

std::string operandStr(const FunctionIR& f, const Operand& o) {
  if (o.isImm()) return fmt("#%0", o.imm);
  if (o.isReg()) {
    const std::string& n = f.regNames[static_cast<size_t>(o.reg)];
    return n.empty() ? fmt("v%0", o.reg) : fmt("v%0(%1)", o.reg, n);
  }
  return "<none>";
}

} // namespace

std::string FunctionIR::dump() const {
  std::ostringstream os;
  os << "func " << name << "(";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i) os << ", ";
    os << (params[i].isOutput ? "out " : "") << params[i].type.str() << ' ' << params[i].name;
  }
  os << ")\n";
  for (const auto& fb : feedbacks) {
    os << "  feedback " << fb.type.str() << ' ' << fb.name << " = " << fb.initial << "\n";
  }
  for (const auto& t : tables) {
    os << "  table " << t.elemType.str() << ' ' << t.name << '[' << t.values.size() << "]\n";
  }
  for (const auto& b : blocks) {
    os << "bb" << b.id << ":";
    if (!b.preds.empty()) {
      os << "  ; preds:";
      for (int p : b.preds) os << " bb" << p;
    }
    os << "\n";
    for (const auto& in : b.instrs) {
      os << "  ";
      if (in.hasDst()) os << operandStr(*this, Operand::ofReg(in.dst)) << ":" << in.type.str() << " = ";
      os << opcodeName(in.op);
      if (in.op == Opcode::Ldc) os << ' ' << in.imm;
      if (!in.symbol.empty()) os << " @" << in.symbol;
      if (in.op == Opcode::In || in.op == Opcode::Out) os << " port" << in.aux0;
      if (in.op == Opcode::BitSel) os << " [" << in.aux0 << ':' << in.aux1 << ']';
      for (const auto& o : in.srcs) os << ' ' << operandStr(*this, o);
      if (in.op == Opcode::Br && b.succs.size() == 2) {
        os << " ? bb" << b.succs[0] << " : bb" << b.succs[1];
      } else if (in.op == Opcode::Jmp && !b.succs.empty()) {
        os << " bb" << b.succs[0];
      }
      os << '\n';
    }
  }
  return os.str();
}

namespace {

int expectedSrcCount(Opcode op) {
  switch (op) {
    case Opcode::Ldc:
    case Opcode::In:
    case Opcode::Lpr:
    case Opcode::Jmp:
    case Opcode::Ret:
      return 0;
    case Opcode::Mov:
    case Opcode::Neg:
    case Opcode::Not:
    case Opcode::Cast:
    case Opcode::BitSel:
    case Opcode::Lut:
    case Opcode::Snx:
    case Opcode::Out:
    case Opcode::Br:
      return 1;
    case Opcode::Mux:
      return 3;
    case Opcode::Phi:
      return -1; // matches predecessor count
    default:
      return 2;
  }
}

} // namespace

bool FunctionIR::verify(std::vector<std::string>& errors) const {
  const size_t before = errors.size();
  if (blocks.empty()) errors.push_back("function has no blocks");
  int retBlocks = 0;
  for (const auto& b : blocks) {
    if (b.instrs.empty() || !isTerminator(b.instrs.back().op)) {
      errors.push_back(fmt("bb%0 lacks a terminator", b.id));
      continue;
    }
    for (size_t i = 0; i < b.instrs.size(); ++i) {
      const Instr& in = b.instrs[i];
      if (isTerminator(in.op) && i + 1 != b.instrs.size()) {
        errors.push_back(fmt("bb%0: terminator %1 not at block end", b.id, opcodeName(in.op)));
      }
      const int want = expectedSrcCount(in.op);
      if (want >= 0 && static_cast<int>(in.srcs.size()) != want) {
        errors.push_back(fmt("bb%0[%1]: %2 expects %3 operands, has %4", b.id, i, opcodeName(in.op),
                             want, in.srcs.size()));
      }
      if (in.op == Opcode::Phi && in.srcs.size() != b.preds.size()) {
        errors.push_back(fmt("bb%0[%1]: phi has %2 inputs for %3 predecessors", b.id, i,
                             in.srcs.size(), b.preds.size()));
      }
      if (in.hasDst() && (in.dst >= regCount())) {
        errors.push_back(fmt("bb%0[%1]: dst v%2 out of range", b.id, i, in.dst));
      }
      for (const auto& o : in.srcs) {
        if (o.isReg() && o.reg >= regCount()) {
          errors.push_back(fmt("bb%0[%1]: src v%2 out of range", b.id, i, o.reg));
        }
      }
      if (in.op == Opcode::Lut && !findTable(in.symbol)) {
        errors.push_back(fmt("bb%0[%1]: unknown table '%2'", b.id, i, in.symbol));
      }
      if ((in.op == Opcode::Lpr || in.op == Opcode::Snx) && !findFeedback(in.symbol)) {
        errors.push_back(fmt("bb%0[%1]: unknown feedback '%2'", b.id, i, in.symbol));
      }
    }
    const Opcode term = b.instrs.back().op;
    const size_t wantSuccs = term == Opcode::Br ? 2 : (term == Opcode::Jmp ? 1 : 0);
    if (b.succs.size() != wantSuccs) {
      errors.push_back(fmt("bb%0: %1 successors for %2", b.id, b.succs.size(), opcodeName(term)));
    }
    if (term == Opcode::Ret) ++retBlocks;
    for (int s : b.succs) {
      if (s < 0 || s >= static_cast<int>(blocks.size())) {
        errors.push_back(fmt("bb%0: successor %1 out of range", b.id, s));
      } else if (std::find(blocks[static_cast<size_t>(s)].preds.begin(),
                           blocks[static_cast<size_t>(s)].preds.end(),
                           b.id) == blocks[static_cast<size_t>(s)].preds.end()) {
        errors.push_back(fmt("bb%0 -> bb%1 edge missing from pred list", b.id, s));
      }
    }
  }
  if (retBlocks != 1) errors.push_back(fmt("function has %0 ret blocks, expected 1", retBlocks));
  return errors.size() == before;
}

bool FunctionIR::verifySSA(std::vector<std::string>& errors) const {
  const size_t before = errors.size();
  verify(errors);
  std::vector<int> defCount(static_cast<size_t>(regCount()), 0);
  for (const auto& b : blocks) {
    bool seenNonPhi = false;
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Phi && seenNonPhi) {
        errors.push_back(fmt("bb%0: phi after non-phi instruction", b.id));
      }
      if (in.op != Opcode::Phi) seenNonPhi = true;
      if (in.hasDst()) ++defCount[static_cast<size_t>(in.dst)];
    }
  }
  for (size_t r = 0; r < defCount.size(); ++r) {
    if (defCount[r] > 1) errors.push_back(fmt("v%0 assigned %1 times (SSA violation)", r, defCount[r]));
  }
  return errors.size() == before;
}

// --- analyses -------------------------------------------------------------------

std::vector<int> reversePostOrder(const FunctionIR& f) {
  // Iterative DFS: each frame is (block, index of the next successor).
  std::vector<int> order;
  if (f.blocks.empty()) return order;
  order.reserve(f.blocks.size());
  std::vector<char> visited(f.blocks.size(), 0);
  std::vector<std::pair<int, size_t>> stack{{0, 0}};
  visited[0] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const std::vector<int>& succs = f.blocks[static_cast<size_t>(b)].succs;
    if (next < succs.size()) {
      const int s = succs[next++];
      if (!visited[static_cast<size_t>(s)]) {
        visited[static_cast<size_t>(s)] = 1;
        stack.emplace_back(s, 0);
      }
      continue;
    }
    order.push_back(b);
    stack.pop_back();
  }
  std::reverse(order.begin(), order.end());
  return order;
}

bool DomTree::dominates(int a, int b) const {
  // Dominator-tree DFS intervals: a dominates b iff b's interval nests in
  // a's. Blocks outside the tree (unreachable) only dominate themselves.
  const int pa = pre[static_cast<size_t>(a)];
  const int pb = pre[static_cast<size_t>(b)];
  if (pa < 0 || pb < 0) return a == b;
  return pa <= pb && post[static_cast<size_t>(b)] <= post[static_cast<size_t>(a)];
}

DomTree computeDominators(const FunctionIR& f) {
  const std::vector<int> rpo = reversePostOrder(f);
  std::vector<int> rpoIndex(f.blocks.size(), -1);
  for (size_t i = 0; i < rpo.size(); ++i) rpoIndex[static_cast<size_t>(rpo[i])] = static_cast<int>(i);

  DomTree dt;
  dt.idom.assign(f.blocks.size(), -1);
  dt.idom[0] = 0;

  auto intersect = [&](int a, int b) {
    while (a != b) {
      while (rpoIndex[static_cast<size_t>(a)] > rpoIndex[static_cast<size_t>(b)]) a = dt.idom[static_cast<size_t>(a)];
      while (rpoIndex[static_cast<size_t>(b)] > rpoIndex[static_cast<size_t>(a)]) b = dt.idom[static_cast<size_t>(b)];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (int b : rpo) {
      if (b == 0) continue;
      int newIdom = -1;
      for (int p : f.blocks[static_cast<size_t>(b)].preds) {
        if (dt.idom[static_cast<size_t>(p)] == -1) continue;
        newIdom = newIdom == -1 ? p : intersect(newIdom, p);
      }
      if (newIdom != -1 && dt.idom[static_cast<size_t>(b)] != newIdom) {
        dt.idom[static_cast<size_t>(b)] = newIdom;
        changed = true;
      }
    }
  }

  // Dominance frontiers (Cytron et al.).
  dt.frontier.assign(f.blocks.size(), {});
  for (const auto& b : f.blocks) {
    if (b.preds.size() < 2) continue;
    for (int p : b.preds) {
      int runner = p;
      while (runner != dt.idom[static_cast<size_t>(b.id)] && runner != -1) {
        dt.frontier[static_cast<size_t>(runner)].insert(b.id);
        if (runner == dt.idom[static_cast<size_t>(runner)]) break; // entry
        runner = dt.idom[static_cast<size_t>(runner)];
      }
    }
  }

  // Pre/post numbers of an iterative DFS over the dominator tree, for O(1)
  // dominates() queries.
  std::vector<std::vector<int>> children(f.blocks.size());
  for (size_t b = 1; b < f.blocks.size(); ++b) {
    if (dt.idom[b] >= 0) children[static_cast<size_t>(dt.idom[b])].push_back(static_cast<int>(b));
  }
  dt.pre.assign(f.blocks.size(), -1);
  dt.post.assign(f.blocks.size(), -1);
  if (!f.blocks.empty()) {
    int clock = 0;
    std::vector<std::pair<int, size_t>> stack{{0, 0}};
    dt.pre[0] = clock++;
    while (!stack.empty()) {
      auto& [b, next] = stack.back();
      const std::vector<int>& kids = children[static_cast<size_t>(b)];
      if (next < kids.size()) {
        const int c = kids[next++];
        dt.pre[static_cast<size_t>(c)] = clock++;
        stack.emplace_back(c, 0);
        continue;
      }
      dt.post[static_cast<size_t>(b)] = clock++;
      stack.pop_back();
    }
  }
  return dt;
}

Liveness computeLiveness(const FunctionIR& f) {
  Liveness lv;
  lv.liveIn.assign(f.blocks.size(), {});
  lv.liveOut.assign(f.blocks.size(), {});

  // use/def per block. Phi uses count as live-out of the predecessor.
  std::vector<std::set<int>> use(f.blocks.size()), def(f.blocks.size());
  std::vector<std::set<int>> phiUseFromPred(f.blocks.size()); // regs used by succ phis, per pred
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == Opcode::Phi) {
        for (size_t p = 0; p < in.srcs.size(); ++p) {
          if (in.srcs[p].isReg()) {
            phiUseFromPred[static_cast<size_t>(b.preds[p])].insert(in.srcs[p].reg);
          }
        }
      } else {
        for (const auto& o : in.srcs) {
          if (o.isReg() && !def[static_cast<size_t>(b.id)].count(o.reg)) {
            use[static_cast<size_t>(b.id)].insert(o.reg);
          }
        }
      }
      if (in.hasDst()) def[static_cast<size_t>(b.id)].insert(in.dst);
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t bi = f.blocks.size(); bi-- > 0;) {
      const Block& b = f.blocks[bi];
      std::set<int> out = phiUseFromPred[bi];
      for (int s : b.succs) {
        for (int r : lv.liveIn[static_cast<size_t>(s)]) out.insert(r);
      }
      std::set<int> in = use[bi];
      for (int r : out) {
        if (!def[bi].count(r)) in.insert(r);
      }
      // Phi dsts are defined at block entry; phi srcs excluded above.
      if (out != lv.liveOut[bi] || in != lv.liveIn[bi]) {
        lv.liveOut[bi] = std::move(out);
        lv.liveIn[bi] = std::move(in);
        changed = true;
      }
    }
  }
  return lv;
}

ReachingDefs computeReachingDefs(const FunctionIR& f) {
  ReachingDefs rd;
  rd.in.assign(f.blocks.size(), {});
  rd.out.assign(f.blocks.size(), {});

  // gen/kill per block.
  std::vector<std::set<ReachingDefs::Def>> gen(f.blocks.size());
  std::vector<std::set<int>> defRegs(f.blocks.size());
  for (const auto& b : f.blocks) {
    // Last def of each reg in the block generates.
    std::map<int, ReachingDefs::Def> last;
    for (size_t i = 0; i < b.instrs.size(); ++i) {
      if (b.instrs[i].hasDst()) {
        last[b.instrs[i].dst] = {b.id, static_cast<int>(i)};
        defRegs[static_cast<size_t>(b.id)].insert(b.instrs[i].dst);
      }
    }
    for (const auto& [r, d] : last) gen[static_cast<size_t>(b.id)].insert(d);
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& b : f.blocks) {
      std::set<ReachingDefs::Def> in;
      for (int p : b.preds) {
        for (const auto& d : rd.out[static_cast<size_t>(p)]) in.insert(d);
      }
      std::set<ReachingDefs::Def> out = gen[static_cast<size_t>(b.id)];
      for (const auto& d : in) {
        const Instr& di = f.blocks[static_cast<size_t>(d.first)].instrs[static_cast<size_t>(d.second)];
        if (!defRegs[static_cast<size_t>(b.id)].count(di.dst)) out.insert(d);
      }
      if (in != rd.in[static_cast<size_t>(b.id)] || out != rd.out[static_cast<size_t>(b.id)]) {
        rd.in[static_cast<size_t>(b.id)] = std::move(in);
        rd.out[static_cast<size_t>(b.id)] = std::move(out);
        changed = true;
      }
    }
  }
  return rd;
}

} // namespace roccc::mir
