#include "rtl/from_dp.hpp"

#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::rtl {

using dp::DataPath;
using dp::DpOp;
using dp::DpValue;
using mir::Opcode;

namespace {

CellKind cellFor(Opcode op) {
  switch (op) {
    case Opcode::Add: return CellKind::Add;
    case Opcode::Sub: return CellKind::Sub;
    case Opcode::Mul: return CellKind::Mul;
    case Opcode::Div: return CellKind::Div;
    case Opcode::Rem: return CellKind::Rem;
    case Opcode::Neg: return CellKind::Neg;
    case Opcode::And: return CellKind::And;
    case Opcode::Or: return CellKind::Or;
    case Opcode::Xor: return CellKind::Xor;
    case Opcode::Not: return CellKind::Not;
    case Opcode::Shl: return CellKind::Shl;
    case Opcode::Shr: return CellKind::Shr;
    case Opcode::Seq: return CellKind::Eq;
    case Opcode::Sne: return CellKind::Ne;
    case Opcode::Slt: return CellKind::Lt;
    case Opcode::Sle: return CellKind::Le;
    case Opcode::Sgt: return CellKind::Gt;
    case Opcode::Sge: return CellKind::Ge;
    case Opcode::Mux: return CellKind::Mux;
    case Opcode::Mov: return CellKind::Resize;
    case Opcode::Cast: return CellKind::Resize;
    default:
      throw InternalCompilerError(
          fmt("rtl: opcode %0 reached cell lowering without a direct cell mapping",
              static_cast<int>(op)));
  }
}

class Lowering {
 public:
  Lowering(const DataPath& dp, Module& out) : dp_(dp), out_(out) {}

  void run() {
    out_ = Module{};
    out_.name = dp_.name;
    out_.latency = dp_.stageCount - 1;
    baseNet_.assign(dp_.values.size(), -1);
    defStage_.assign(dp_.values.size(), 0);
    isConst_.assign(dp_.values.size(), 0);
    staged_.assign(dp_.values.size(), {});

    // Input ports.
    for (const auto& port : dp_.inputs) {
      const DpValue& v = dp_.values[static_cast<size_t>(port.value)];
      const int net = out_.addNet(hwType(v), port.name);
      out_.inputPorts.push_back(net);
      out_.inputNames.push_back(port.name);
      baseNet_[static_cast<size_t>(v.id)] = net;
    }

    // Feedback registers: create output nets up front so LPR values resolve.
    for (const auto& fb : dp_.feedbacks) fbNet_.push_back(out_.addNet(fb.type, fb.name + "__reg"));

    // Valid chain: feedback registers must not latch until real data reaches
    // their stage (the pipeline-fill cycles would clobber the initial
    // value). The controller drives '__valid' high exactly when it issues
    // an iteration; one 1-bit register per stage delays it alongside the
    // data.
    if (!dp_.feedbacks.empty()) {
      const ScalarType bitTy = ScalarType::make(1, false);
      validAt_.push_back(out_.addNet(bitTy, "__valid"));
      out_.inputPorts.push_back(validAt_[0]);
      out_.inputNames.push_back("__valid");
      for (int s = 1; s < dp_.stageCount; ++s) {
        const int net = out_.addNet(bitTy, fmt("__valid_s%0", s));
        out_.addCell(CellKind::Reg, {validAt_.back()}, net);
        validAt_.push_back(net);
      }
    }

    // Ops in dependency order. The elaboration loop is the RTL layer's hot
    // path (cell count scales with unroll factor), so it carries a deadline
    // checkpoint.
    for (int oi : dp::topoOrderOps(dp_)) {
      budgetCheckpoint("rtl-elaborate");
      lowerOp(dp_.ops[static_cast<size_t>(oi)]);
    }

    // Close the feedback loops; each register is gated by the valid bit of
    // its stage.
    for (size_t fi = 0; fi < dp_.feedbacks.size(); ++fi) {
      const auto& fb = dp_.feedbacks[fi];
      const int d = netAt(fb.snxValue, fb.stage);
      const int resized = resizeTo(d, fb.type, fb.name + "__nxt");
      const int en = validAt_.at(static_cast<size_t>(fb.stage));
      const int cell = out_.addCell(CellKind::Reg, {resized, en}, fbNet_[fi]);
      out_.cells[static_cast<size_t>(cell)].imm = fb.initial;
    }

    // Output ports, all delivered at the final stage.
    const int finalStage = dp_.stageCount - 1;
    for (size_t p = 0; p < dp_.outputs.size(); ++p) {
      const auto& port = dp_.outputs[p];
      const int net = netAt(port.value, finalStage);
      const int resized = resizeTo(net, port.type, port.name);
      out_.outputPorts.push_back(resized);
      out_.outputNames.push_back(port.name);
    }
    // Feedback state taps.
    for (size_t fi = 0; fi < dp_.feedbacks.size(); ++fi) {
      out_.outputPorts.push_back(fbNet_[fi]);
      out_.outputNames.push_back(dp_.feedbacks[fi].name + "__fb");
    }
  }

 private:
  const DataPath& dp_;
  Module& out_;

  // Per value id: the net at its def stage (-1: not lowered yet), that
  // stage, whether it is a stage-free constant, and its pipeline-register
  // copies for stages def+1, def+2, ... (built in stage order).
  std::vector<int> baseNet_;
  std::vector<int> defStage_;
  std::vector<char> isConst_;
  std::vector<std::vector<int>> staged_;
  std::vector<int> fbNet_;   ///< register output net per feedback
  std::vector<int> validAt_; ///< valid net per stage (only when feedbacks exist)

  ScalarType hwType(const DpValue& v) const { return ScalarType::make(v.width, v.isSigned); }

  int fbNetOf(const std::string& name) const {
    for (size_t fi = 0; fi < dp_.feedbacks.size(); ++fi) {
      if (dp_.feedbacks[fi].name == name) return fbNet_[fi];
    }
    throw InternalCompilerError(fmt("rtl: unknown feedback '%0'", name));
  }

  void define(int valueId, int net, int stage) {
    baseNet_[static_cast<size_t>(valueId)] = net;
    defStage_[static_cast<size_t>(valueId)] = stage;
  }

  int resizeTo(int net, ScalarType t, const std::string& name) {
    if (out_.nets[static_cast<size_t>(net)].type == t) return net;
    const int r = out_.addNet(t, name);
    out_.addCell(CellKind::Resize, {net}, r);
    return r;
  }

  /// Net carrying `value` during `stage`: the base net, advanced through a
  /// pipeline-register chain when the consumer sits in a later stage.
  int netAt(int valueId, int stage) {
    const size_t v = static_cast<size_t>(valueId);
    const int base = baseNet_[v];
    if (base < 0) throw InternalCompilerError(fmt("rtl: value %0 used before it is lowered", valueId));
    if (isConst_[v]) return base; // constants are stage-free
    const int def = defStage_[v];
    if (stage <= def) return base;
    std::vector<int>& chain = staged_[v];
    while (static_cast<int>(chain.size()) < stage - def) {
      const int prev = chain.empty() ? base : chain.back();
      const DpValue& dv = dp_.values[v];
      const int s = def + 1 + static_cast<int>(chain.size());
      const int net = out_.addNet(out_.nets[static_cast<size_t>(prev)].type,
                                  fmt("%0_s%1", dv.name.empty() ? fmt("t%0", dv.id) : dv.name, s));
      out_.addCell(CellKind::Reg, {prev}, net);
      chain.push_back(net);
    }
    return chain[static_cast<size_t>(stage - def - 1)];
  }

  void lowerOp(const DpOp& o) {
    switch (o.op) {
      case Opcode::Ldc: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const int net = out_.addConst(Value::fromInt(hwType(v), o.imm).toInt(), hwType(v),
                                      v.name.empty() ? fmt("c%0", o.imm) : v.name);
        define(o.result, net, 0);
        isConst_[static_cast<size_t>(o.result)] = 1;
        return;
      }
      case Opcode::Lpr: {
        define(o.result, fbNetOf(o.symbol), o.stage);
        return;
      }
      case Opcode::Lut: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const int addr = operandNet(o, 0);
        const int net = out_.addNet(hwType(v), resultName(o));
        const int cell = out_.addCell(CellKind::Rom, {addr}, net);
        for (const auto& t : dp_.tables) {
          if (t.name == o.symbol) {
            out_.cells[static_cast<size_t>(cell)].romData = t.values;
            out_.cells[static_cast<size_t>(cell)].romElemType = t.elemType;
          }
        }
        out_.cells[static_cast<size_t>(cell)].romName = o.symbol;
        define(o.result, net, o.stage);
        return;
      }
      case Opcode::BitSel: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const DpValue& src = dp_.values[static_cast<size_t>(o.operands[0])];
        const int full = resizeTo(operandNet(o, 0), src.declared, src.name + "_full");
        const int net = out_.addNet(hwType(v), resultName(o));
        const int cell = out_.addCell(CellKind::Slice, {full}, net);
        out_.cells[static_cast<size_t>(cell)].aux0 = o.aux0;
        out_.cells[static_cast<size_t>(cell)].aux1 = o.aux1;
        define(o.result, net, o.stage);
        return;
      }
      case Opcode::BitCat: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const DpValue& hi = dp_.values[static_cast<size_t>(o.operands[0])];
        const DpValue& lo = dp_.values[static_cast<size_t>(o.operands[1])];
        const int hiNet = resizeTo(operandNet(o, 0), hi.declared, hi.name + "_full");
        const int loNet = resizeTo(operandNet(o, 1), lo.declared, lo.name + "_full");
        const int net = out_.addNet(hwType(v), resultName(o));
        out_.addCell(CellKind::Concat, {hiNet, loNet}, net);
        define(o.result, net, o.stage);
        return;
      }
      default: {
        if (o.result < 0) return; // Out/Snx carry no op here
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        std::vector<int> ins;
        for (size_t k = 0; k < o.operands.size(); ++k) ins.push_back(operandNet(o, k));
        const int net = out_.addNet(hwType(v), resultName(o));
        out_.addCell(cellFor(o.op), ins, net);
        define(o.result, net, o.stage);
        return;
      }
    }
  }

  std::string resultName(const DpOp& o) const {
    const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
    return v.name.empty() ? fmt("t%0", v.id) : v.name;
  }

  int operandNet(const DpOp& o, size_t k) {
    return netAt(o.operands[k], o.stage);
  }
};

} // namespace

void buildDatapathModule(const DataPath& dp, Module& out) {
  faultpoint("rtl.elaborate");
  Lowering(dp, out).run();
}

} // namespace roccc::rtl
