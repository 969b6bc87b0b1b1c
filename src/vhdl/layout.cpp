#include "vhdl/layout.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "support/strings.hpp"

namespace roccc::hdl {

using dp::DpOp;
using dp::DpValue;

std::string sanitize(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(0, "s_");
  return out;
}

int addrBits(size_t entries) {
  int b = 1;
  while ((size_t{1} << b) < entries) ++b;
  return b;
}

namespace {

/// Sorts `v` ascending and drops duplicates.
void sortUnique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Appends (vid, s) for every stage s in (max(top, from), to], then raises
/// `top` to `to`. Stages of one value are always chained contiguously from
/// its def stage, so `top` alone records which (vid, stage) pairs exist.
void extendChain(std::vector<StagedCopy>& out, int& top, int vid, int from, int to) {
  for (int s = std::max(top, from) + 1; s <= to; ++s) out.push_back({vid, s});
  top = std::max(top, to);
}

} // namespace

Layout::Layout(const dp::DataPath& dp) : dp_(dp), design_(sanitize(dp.name)) {
  const size_t nv = dp.values.size();
  // One buffer for all names: emission-lifetime small strings would
  // fragment the heap around the text being built.
  nameEnd_.reserve(nv + 1);
  nameEnd_.push_back(0);
  for (size_t vid = 0; vid < nv; ++vid) {
    const std::string& n = dp.values[vid].name;
    names_ += fmt("v%0_%1", vid, sanitize(n.empty() ? "t" : n));
    nameEnd_.push_back(names_.size());
  }
  for (const auto& p : dp.inputs) inputPorts_.push_back(sanitize(p.name));

  // Producing node (index) of every value, from the nodes' op lists.
  std::vector<int> producer(nv, -1);
  for (size_t ni = 0; ni < dp.nodes.size(); ++ni) {
    for (int oi : dp.nodes[ni].ops) {
      const int r = dp.ops[static_cast<size_t>(oi)].result;
      if (r >= 0) producer[static_cast<size_t>(r)] = static_cast<int>(ni);
    }
  }

  // Per node: inputs with their earliest use stage, and the internal
  // staged copies of values defined in an earlier stage of the same node.
  nodes_.resize(dp.nodes.size());
  std::vector<int> copyTop(nv, -1);
  std::vector<std::pair<int, int>> uses; // (vid, stage)
  for (size_t ni = 0; ni < dp.nodes.size(); ++ni) {
    const dp::DpNode& n = dp.nodes[ni];
    NodeLayout& nl = nodes_[ni];
    nl.instance = sanitize(n.label);
    nl.entity = design_ + "_" + nl.instance;
    uses.clear();
    for (int oi : n.ops) {
      const DpOp& o = dp.ops[static_cast<size_t>(oi)];
      for (int vid : o.operands) {
        if (isConst(vid)) continue;
        if (producer[static_cast<size_t>(vid)] != static_cast<int>(ni)) uses.emplace_back(vid, o.stage);
        const DpValue& v = dp.values[static_cast<size_t>(vid)];
        if (v.def < 0) continue;
        const DpOp& def = dp.ops[static_cast<size_t>(v.def)];
        if (def.node != n.id || def.stage >= o.stage) continue;
        extendChain(nl.copies, copyTop[static_cast<size_t>(vid)], vid, def.stage, o.stage);
      }
    }
    std::sort(uses.begin(), uses.end());
    for (const auto& [vid, stage] : uses) {
      if (!nl.inputs.empty() && nl.inputs.back() == vid) continue; // first = earliest
      nl.inputs.push_back(vid);
      nl.inputUseStage.push_back(stage);
    }
  }

  // Outputs: produced values consumed by another node's ops, or driving an
  // output port or a feedback register.
  auto markOutput = [&](int vid) {
    const int p = vid >= 0 ? producer[static_cast<size_t>(vid)] : -1;
    if (p >= 0) nodes_[static_cast<size_t>(p)].outputs.push_back(vid);
  };
  for (const DpOp& o : dp.ops) {
    for (int vid : o.operands) {
      const int p = producer[static_cast<size_t>(vid)];
      if (p >= 0 && o.node != dp.nodes[static_cast<size_t>(p)].id) {
        nodes_[static_cast<size_t>(p)].outputs.push_back(vid);
      }
    }
  }
  for (const auto& port : dp.outputs) markOutput(port.value);
  for (const auto& fb : dp.feedbacks) markOutput(fb.snxValue);
  for (NodeLayout& nl : nodes_) sortUnique(nl.outputs);

  std::vector<char> cross(nv, 0);
  auto markCross = [&](int vid) {
    if (vid >= 0) cross[static_cast<size_t>(vid)] = 1;
  };
  for (const NodeLayout& nl : nodes_) {
    for (int vid : nl.inputs) markCross(vid);
    for (int vid : nl.outputs) markCross(vid);
  }
  for (const auto& port : dp.outputs) markCross(port.value);
  for (const auto& fb : dp.feedbacks) {
    markCross(fb.snxValue);
    markCross(fb.lprValue);
  }
  for (size_t vid = 0; vid < nv; ++vid) {
    const int id = static_cast<int>(vid);
    if (cross[vid] && !isConst(id) && dp.values[vid].inputPort < 0) topSignals_.push_back(id);
  }

  // Top-level chains: an operand consumed by another node at a later stage
  // than its definition is registered up to that stage.
  chainTop_.assign(nv, -1);
  for (const DpOp& o : dp.ops) {
    for (int vid : o.operands) {
      if (isConst(vid)) continue;
      const int def = dp.values[static_cast<size_t>(vid)].def;
      const int defNode = def >= 0 ? dp.ops[static_cast<size_t>(def)].node : -1;
      if (defNode == o.node) continue; // node-internal: a staged copy
      const int from = defStage(vid);
      if (o.stage > from) extendChain(chains_, chainTop_[static_cast<size_t>(vid)], vid, from, o.stage);
    }
  }
}

bool Layout::isConst(int vid) const {
  const DpValue& v = dp_.values[static_cast<size_t>(vid)];
  return v.def >= 0 && dp_.ops[static_cast<size_t>(v.def)].op == mir::Opcode::Ldc;
}

int Layout::defStage(int vid) const {
  const DpValue& v = dp_.values[static_cast<size_t>(vid)];
  return v.def >= 0 ? dp_.ops[static_cast<size_t>(v.def)].stage : 0;
}

bool Layout::hasChain(int vid, int stage) const {
  return stage > defStage(vid) && stage <= chainTop_[static_cast<size_t>(vid)];
}

std::string_view Layout::topRef(int vid) const {
  const DpValue& v = dp_.values[static_cast<size_t>(vid)];
  return v.inputPort >= 0 ? std::string_view(inputPort(v.inputPort)) : name(vid);
}

std::string Layout::topOperandRef(size_t index, size_t i) const {
  const NodeLayout& nl = nodes_[index];
  const int vid = nl.inputs[i];
  const int earliest = nl.inputUseStage[i];
  if (earliest <= defStage(vid)) return std::string(topRef(vid));
  return fmt("%0_p%1", name(vid), earliest);
}

const mir::FunctionIR::Table* Layout::table(const std::string& symbol) const {
  const mir::FunctionIR::Table* found = nullptr;
  for (const auto& t : dp_.tables) {
    if (t.name == symbol) found = &t;
  }
  return found;
}

std::string Layout::romName(const std::string& symbol) const {
  return design_ + "_" + sanitize(symbol) + "_rom";
}

} // namespace roccc::hdl
