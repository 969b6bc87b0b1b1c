#include "mir/ssa.hpp"

#include <iterator>
#include <vector>

#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::mir {

void buildSSA(FunctionIR& f) {
  faultpoint("mir.ssa");
  const DomTree dt = computeDominators(f);
  const size_t nRegs = f.regTypes.size();

  // Registers needing phi treatment: more than one definition, in
  // ascending id order. Definitions are counted in one scan.
  std::vector<int> defCount(nRegs, 0);
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.hasDst()) ++defCount[static_cast<size_t>(in.dst)];
    }
  }
  // Renaming mints registers past nRegs; only these original ones are
  // renamed.
  auto isRenamed = [&](int r) {
    return static_cast<size_t>(r) < nRegs && defCount[static_cast<size_t>(r)] > 1;
  };
  std::vector<int> multiDef;
  for (int r = 0; r < static_cast<int>(nRegs); ++r) {
    if (isRenamed(r)) multiDef.push_back(r);
  }

  // Their definition blocks, distinct and ascending (blocks scan in id
  // order, the entry first).
  std::vector<std::vector<int>> defBlocks(nRegs);
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (!isRenamed(in.dst)) continue;
      auto& blocks = defBlocks[static_cast<size_t>(in.dst)];
      if (blocks.empty() || blocks.back() != b.id) blocks.push_back(b.id);
    }
  }

  // Give every multi-def register an explicit default definition in the
  // entry block so each path has a reaching definition (DCE removes the
  // dead ones). They go after the leading In instructions, before anything
  // else, in descending register order, in one splice.
  std::vector<Instr> defaults;
  for (auto it = multiDef.rbegin(); it != multiDef.rend(); ++it) {
    const int r = *it;
    auto& blocks = defBlocks[static_cast<size_t>(r)];
    if (blocks.front() == 0) continue;
    Instr ld;
    ld.op = Opcode::Ldc;
    ld.dst = r;
    ld.type = f.regTypes[static_cast<size_t>(r)];
    ld.imm = 0;
    defaults.push_back(std::move(ld));
    blocks.push_back(0);
  }
  if (!defaults.empty()) {
    auto& entry = f.entry().instrs;
    auto pos = entry.begin();
    while (pos != entry.end() && pos->op == Opcode::In) ++pos;
    entry.insert(pos, std::make_move_iterator(defaults.begin()),
                 std::make_move_iterator(defaults.end()));
  }

  // Phi insertion at iterated dominance frontiers. Each block collects its
  // phi registers in ascending order; its phis lead the block in
  // descending register order, inserted in one splice.
  std::vector<std::vector<int>> phiRegs(f.blocks.size());
  std::vector<int> phiPlacedFor(f.blocks.size(), -1);
  std::vector<int> work;
  for (int r : multiDef) {
    budgetCheckpoint("ssa-build");
    work = defBlocks[static_cast<size_t>(r)];
    while (!work.empty()) {
      const int b = work.back();
      work.pop_back();
      for (int df : dt.frontier[static_cast<size_t>(b)]) {
        if (phiPlacedFor[static_cast<size_t>(df)] == r) continue;
        phiPlacedFor[static_cast<size_t>(df)] = r;
        phiRegs[static_cast<size_t>(df)].push_back(r);
        work.push_back(df);
      }
    }
  }
  std::vector<Instr> phis;
  for (size_t bid = 0; bid < f.blocks.size(); ++bid) {
    if (phiRegs[bid].empty()) continue;
    Block& b = f.blocks[bid];
    phis.clear();
    for (auto it = phiRegs[bid].rbegin(); it != phiRegs[bid].rend(); ++it) {
      Instr phi;
      phi.op = Opcode::Phi;
      phi.dst = *it;
      phi.type = f.regTypes[static_cast<size_t>(*it)];
      phi.srcs.assign(b.preds.size(), Operand::ofReg(*it));
      phis.push_back(std::move(phi));
    }
    b.instrs.insert(b.instrs.begin(), std::make_move_iterator(phis.begin()),
                    std::make_move_iterator(phis.end()));
  }

  // Renaming via an explicit-stack preorder walk of the dominator tree.
  std::vector<std::vector<int>> domChildren(f.blocks.size());
  for (size_t b = 1; b < f.blocks.size(); ++b) {
    if (dt.idom[b] >= 0) domChildren[static_cast<size_t>(dt.idom[b])].push_back(static_cast<int>(b));
  }

  std::vector<std::vector<int>> stacks(nRegs); // original reg -> stack of versions
  std::vector<int> versionCount(nRegs, 0);
  std::vector<int> pushed; // original regs whose stacks grew, in push order
  auto top = [&](int r) -> int {
    const auto& s = stacks[static_cast<size_t>(r)];
    return s.empty() ? r : s.back(); // single-def regs keep their id
  };

  struct Frame {
    int block;
    size_t nextChild;
    size_t pushedMark; ///< pushed.size() on entry: what to pop on exit
  };
  std::vector<Frame> frames;
  auto enter = [&](int bid) {
    budgetCheckpoint("ssa-build");
    frames.push_back({bid, 0, pushed.size()});
    Block& b = f.blocks[static_cast<size_t>(bid)];
    for (auto& in : b.instrs) {
      if (in.op != Opcode::Phi) {
        for (auto& o : in.srcs) {
          if (o.isReg() && isRenamed(o.reg)) o.reg = top(o.reg);
        }
      }
      if (isRenamed(in.dst)) {
        const int orig = in.dst;
        const int v = versionCount[static_cast<size_t>(orig)]++;
        const int newReg =
            v == 0 ? orig
                   : f.newReg(f.regTypes[static_cast<size_t>(orig)],
                              fmt("%0.%1", f.regNames[static_cast<size_t>(orig)], v));
        in.dst = newReg;
        stacks[static_cast<size_t>(orig)].push_back(newReg);
        pushed.push_back(orig);
      }
    }
    // Fill phi operands of successors. Every phi operand starts as the
    // phi's original register, which is what the stacks are keyed on.
    for (int s : b.succs) {
      Block& sb = f.blocks[static_cast<size_t>(s)];
      size_t predIdx = 0;
      for (; predIdx < sb.preds.size(); ++predIdx) {
        if (sb.preds[predIdx] == bid) break;
      }
      for (auto& in : sb.instrs) {
        if (in.op != Opcode::Phi) break;
        Operand& slot = in.srcs[predIdx];
        if (slot.isReg() && isRenamed(slot.reg)) slot.reg = top(slot.reg);
      }
    }
  };
  enter(0);
  while (!frames.empty()) {
    Frame& fr = frames.back();
    const auto& children = domChildren[static_cast<size_t>(fr.block)];
    if (fr.nextChild < children.size()) {
      enter(children[fr.nextChild++]);
      continue;
    }
    for (size_t i = fr.pushedMark; i < pushed.size(); ++i) stacks[static_cast<size_t>(pushed[i])].pop_back();
    pushed.resize(fr.pushedMark);
    frames.pop_back();
  }
}

} // namespace roccc::mir
