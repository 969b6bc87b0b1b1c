#include "rtl/fastsim.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace roccc::rtl {

const char* simEngineName(SimEngine e) {
  return e == SimEngine::Reference ? "reference" : "fast";
}

namespace {

uint64_t maskFor(int width) {
  return width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/// Reads a lane value numerically: arithmetic-shift sign extension when the
/// source net is signed (sh = 64 - width), identity otherwise. Zero-extended
/// operands use sh = 0 — shifting the already-masked storage by zero is the
/// identity — which keeps the hot path branchless. Bit-exact with
/// Value::toInt on the zero-extended storage both engines share.
inline int64_t sext(uint64_t bits, uint8_t sh) {
  return static_cast<int64_t>(bits << sh) >> sh;
}

} // namespace

FastSim::FastSim(const Module& m, int batch) : m_(m), batch_(batch) {
  if (batch_ < 1) throw std::invalid_argument("FastSim batch must be >= 1");
  lanes_.assign(m.nets.size() * static_cast<size_t>(batch_), 0);

  // Per-net compile-time facts: result mask and sign-extension shift.
  std::vector<uint64_t> netMask(m.nets.size());
  std::vector<uint8_t> netSx(m.nets.size());
  std::vector<uint8_t> netSigned(m.nets.size());
  for (size_t n = 0; n < m.nets.size(); ++n) {
    const ScalarType t = m.nets[n].type;
    netMask[n] = maskFor(t.width);
    netSx[n] = t.isSigned ? static_cast<uint8_t>(64 - t.width) : kNoSx;
    netSigned[n] = t.isSigned;
  }
  // The unsigned-compare rule of ops::cmpLt/cmpLe (C usual arithmetic
  // conversions): unsigned iff either operand is unsigned at >= 32 bits.
  auto unsignedCompare = [&](const Cell& c) {
    const ScalarType a = m.nets[static_cast<size_t>(c.inputs[0])].type;
    const ScalarType b = m.nets[static_cast<size_t>(c.inputs[1])].type;
    return (!a.isSigned && a.width >= 32) || (!b.isSigned && b.width >= 32);
  };

  auto compile = [&](const Cell& c) {
    Instr I;
    I.dst = slot(c.output);
    I.mask = netMask[static_cast<size_t>(c.output)];
    auto bind = [&](size_t k, int32_t& off, uint8_t& sx) {
      const int net = c.inputs[k];
      off = slot(net);
      sx = netSx[static_cast<size_t>(net)];
    };
    if (!c.inputs.empty()) bind(0, I.a, I.sxa);
    if (c.inputs.size() > 1) bind(1, I.b, I.sxb);
    if (c.inputs.size() > 2) bind(2, I.c, I.sxc);
    switch (c.kind) {
      case CellKind::Add: I.op = Op::Add; break;
      case CellKind::Sub: I.op = Op::Sub; break;
      case CellKind::Mul: I.op = Op::Mul; break;
      case CellKind::Neg: I.op = Op::Neg; break;
      case CellKind::And: I.op = Op::And; break;
      case CellKind::Or: I.op = Op::Or; break;
      case CellKind::Xor: I.op = Op::Xor; break;
      case CellKind::Not: I.op = Op::Not; break;
      case CellKind::Shl: I.op = Op::Shl; break;
      case CellKind::Shr:
        I.op = Op::Shr;
        I.flag = netSigned[static_cast<size_t>(c.inputs[0])] != 0;
        break;
      case CellKind::Eq: I.op = Op::Eq; break;
      case CellKind::Ne: I.op = Op::Ne; break;
      case CellKind::Lt: I.op = unsignedCompare(c) ? Op::LtU : Op::LtS; break;
      case CellKind::Le: I.op = unsignedCompare(c) ? Op::LeU : Op::LeS; break;
      case CellKind::Gt: // a > b  ==  b < a
        I.op = unsignedCompare(c) ? Op::LtU : Op::LtS;
        std::swap(I.a, I.b);
        std::swap(I.sxa, I.sxb);
        break;
      case CellKind::Ge: // a >= b  ==  b <= a
        I.op = unsignedCompare(c) ? Op::LeU : Op::LeS;
        std::swap(I.a, I.b);
        std::swap(I.sxa, I.sxb);
        break;
      case CellKind::Mux: I.op = Op::Mux; break;
      case CellKind::Rom:
        I.op = Op::Rom;
        I.aux = static_cast<int32_t>(roms_.size());
        roms_.push_back({c.romData.data(), static_cast<int64_t>(c.romData.size())});
        break;
      case CellKind::Slice:
        I.op = Op::Slice;
        I.aux = c.aux1;
        break;
      case CellKind::Concat:
        I.op = Op::Concat;
        I.aux = m.nets[static_cast<size_t>(c.inputs[1])].type.width;
        break;
      case CellKind::Resize: I.op = Op::Resize; break;
      case CellKind::Const:
      case CellKind::Reg:
        return; // handled outside the instruction stream
    }
    prog_.push_back(I);
  };

  // Topological order over combinational cells (Reg outputs are sources;
  // Const outputs are precomputed and never change).
  std::vector<int> state(m.cells.size(), 0); // 0 unvisited, 1 visiting, 2 done
  std::function<void(int)> visit = [&](int cid) {
    if (state[static_cast<size_t>(cid)] == 2) return;
    if (state[static_cast<size_t>(cid)] == 1) {
      throw std::runtime_error("netlist has a combinational cycle through cell " +
                               std::to_string(cid));
    }
    state[static_cast<size_t>(cid)] = 1;
    const Cell& c = m.cells[static_cast<size_t>(cid)];
    if (!isSequential(c.kind)) {
      for (int in : c.inputs) {
        const int drv = m.nets[static_cast<size_t>(in)].driver;
        if (drv >= 0 && !isSequential(m.cells[static_cast<size_t>(drv)].kind)) visit(drv);
      }
      compile(c);
    }
    state[static_cast<size_t>(cid)] = 2;
  };
  for (size_t cid = 0; cid < m.cells.size(); ++cid) {
    const Cell& c = m.cells[cid];
    if (isSequential(c.kind)) {
      RegInfo r;
      r.dst = slot(c.output);
      r.d = slot(c.inputs[0]);
      r.sxd = netSx[static_cast<size_t>(c.inputs[0])];
      if (c.inputs.size() == 2) r.en = slot(c.inputs[1]);
      r.mask = netMask[static_cast<size_t>(c.output)];
      r.init = static_cast<uint64_t>(c.imm) & r.mask;
      regs_.push_back(r);
    } else {
      visit(static_cast<int>(cid));
      if (c.kind == CellKind::Const) {
        const uint64_t v = static_cast<uint64_t>(c.imm) & netMask[static_cast<size_t>(c.output)];
        std::fill_n(&lanes_[static_cast<size_t>(slot(c.output))], batch_, v);
      }
    }
  }

  regState_.assign(regs_.size() * static_cast<size_t>(batch_), 0);
  reset();
}

void FastSim::reset() {
  // Register state lives both in regState_ (the canonical copy) and in the
  // registers' output-net lanes; tick() keeps the two in sync, so eval()
  // never has to touch registers.
  for (size_t r = 0; r < regs_.size(); ++r) {
    std::fill_n(&regState_[r * static_cast<size_t>(batch_)], batch_, regs_[r].init);
    std::fill_n(&lanes_[static_cast<size_t>(regs_[r].dst)], batch_, regs_[r].init);
  }
}

void FastSim::setInput(size_t port, const Value& v, int lane) {
  const int net = m_.inputPorts.at(port);
  lanes_[static_cast<size_t>(slot(net) + lane)] =
      v.convertTo(m_.nets[static_cast<size_t>(net)].type).bits();
}

void FastSim::setInputInt(size_t port, int64_t v, int lane) {
  const int net = m_.inputPorts.at(port);
  lanes_[static_cast<size_t>(slot(net) + lane)] =
      Value::mask(static_cast<uint64_t>(v), m_.nets[static_cast<size_t>(net)].type.width);
}

void FastSim::eval() {
  if (batch_ == 1) {
    evalImpl<1>();
  } else {
    evalImpl<0>();
  }
}

template <int BN>
void FastSim::evalImpl() {
  const int B = BN ? BN : batch_;
  uint64_t* L = lanes_.data();

  // Register output lanes already hold the current state (tick/reset keep
  // them in sync), so the pass is purely the combinational stream.
  for (const Instr& I : prog_) {
    uint64_t* d = L + I.dst;
    const uint64_t* a = L + I.a;
    const uint64_t* b = L + I.b;
    switch (I.op) {
      case Op::Add:
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) +
                  static_cast<uint64_t>(sext(b[l], I.sxb))) & I.mask;
        }
        break;
      case Op::Sub:
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) -
                  static_cast<uint64_t>(sext(b[l], I.sxb))) & I.mask;
        }
        break;
      case Op::Mul:
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) *
                  static_cast<uint64_t>(sext(b[l], I.sxb))) & I.mask;
        }
        break;
      case Op::Neg:
        for (int l = 0; l < B; ++l) {
          d[l] = (0 - static_cast<uint64_t>(sext(a[l], I.sxa))) & I.mask;
        }
        break;
      case Op::And:
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) &
                  static_cast<uint64_t>(sext(b[l], I.sxb))) & I.mask;
        }
        break;
      case Op::Or:
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) |
                  static_cast<uint64_t>(sext(b[l], I.sxb))) & I.mask;
        }
        break;
      case Op::Xor:
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) ^
                  static_cast<uint64_t>(sext(b[l], I.sxb))) & I.mask;
        }
        break;
      case Op::Not:
        for (int l = 0; l < B; ++l) {
          d[l] = ~static_cast<uint64_t>(sext(a[l], I.sxa)) & I.mask;
        }
        break;
      case Op::Shl:
        for (int l = 0; l < B; ++l) {
          d[l] = b[l] >= 64 ? 0
                            : (static_cast<uint64_t>(sext(a[l], I.sxa)) << b[l]) & I.mask;
        }
        break;
      case Op::Shr:
        if (I.flag) { // arithmetic: operand net is signed
          for (int l = 0; l < B; ++l) {
            const uint64_t n = b[l] >= 63 ? 63 : b[l];
            d[l] = static_cast<uint64_t>(sext(a[l], I.sxa) >> n) & I.mask;
          }
        } else {
          for (int l = 0; l < B; ++l) {
            d[l] = b[l] >= 64 ? 0 : (a[l] >> b[l]) & I.mask;
          }
        }
        break;
      case Op::Eq:
        for (int l = 0; l < B; ++l) {
          d[l] = sext(a[l], I.sxa) == sext(b[l], I.sxb) ? 1 : 0;
        }
        break;
      case Op::Ne:
        for (int l = 0; l < B; ++l) {
          d[l] = sext(a[l], I.sxa) != sext(b[l], I.sxb) ? 1 : 0;
        }
        break;
      case Op::LtS:
        for (int l = 0; l < B; ++l) {
          d[l] = sext(a[l], I.sxa) < sext(b[l], I.sxb) ? 1 : 0;
        }
        break;
      case Op::LtU: // compare at the 32-bit promotion width, unsigned
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) & 0xffffffffu) <
                         (static_cast<uint64_t>(sext(b[l], I.sxb)) & 0xffffffffu)
                     ? 1 : 0;
        }
        break;
      case Op::LeS:
        for (int l = 0; l < B; ++l) {
          d[l] = sext(a[l], I.sxa) <= sext(b[l], I.sxb) ? 1 : 0;
        }
        break;
      case Op::LeU:
        for (int l = 0; l < B; ++l) {
          d[l] = (static_cast<uint64_t>(sext(a[l], I.sxa)) & 0xffffffffu) <=
                         (static_cast<uint64_t>(sext(b[l], I.sxb)) & 0xffffffffu)
                     ? 1 : 0;
        }
        break;
      case Op::Mux: { // inputs: sel(a), true-value(b), false-value(c)
        const uint64_t* cc = L + I.c;
        for (int l = 0; l < B; ++l) {
          d[l] = (a[l] != 0 ? static_cast<uint64_t>(sext(b[l], I.sxb))
                            : static_cast<uint64_t>(sext(cc[l], I.sxc))) & I.mask;
        }
        break;
      }
      case Op::Rom: {
        const RomTable& rom = roms_[static_cast<size_t>(I.aux)];
        for (int l = 0; l < B; ++l) {
          if (rom.size == 0) {
            d[l] = 0;
            continue;
          }
          const uint64_t idx = a[l];
          const int64_t i =
              idx < static_cast<uint64_t>(rom.size) ? static_cast<int64_t>(idx) : rom.size - 1;
          d[l] = static_cast<uint64_t>(rom.data[i]) & I.mask;
        }
        break;
      }
      case Op::Slice:
        for (int l = 0; l < B; ++l) {
          d[l] = (a[l] >> I.aux) & I.mask;
        }
        break;
      case Op::Concat:
        for (int l = 0; l < B; ++l) {
          d[l] = ((a[l] << I.aux) | b[l]) & I.mask;
        }
        break;
      case Op::Resize:
        for (int l = 0; l < B; ++l) {
          d[l] = static_cast<uint64_t>(sext(a[l], I.sxa)) & I.mask;
        }
        break;
    }
  }
}

void FastSim::tick(bool enable) {
  if (!enable) return;
  const int B = batch_;
  uint64_t* L = lanes_.data();
  // Two-phase update: gather every register's next state from the d-input
  // lanes first, then scatter into the output-net lanes — a register fed by
  // another register's output sees the pre-edge value, like real flops.
  for (size_t r = 0; r < regs_.size(); ++r) {
    const RegInfo& reg = regs_[r];
    uint64_t* st = &regState_[r * static_cast<size_t>(B)];
    const uint64_t* d = L + reg.d;
    if (reg.en >= 0) {
      const uint64_t* en = L + reg.en;
      for (int l = 0; l < B; ++l) {
        if (en[l] != 0) st[l] = static_cast<uint64_t>(sext(d[l], reg.sxd)) & reg.mask;
      }
    } else {
      for (int l = 0; l < B; ++l) {
        st[l] = static_cast<uint64_t>(sext(d[l], reg.sxd)) & reg.mask;
      }
    }
  }
  for (size_t r = 0; r < regs_.size(); ++r) {
    std::copy_n(&regState_[r * static_cast<size_t>(B)], B, L + regs_[r].dst);
  }
}

Value FastSim::output(size_t port, int lane) const {
  return netValue(m_.outputPorts.at(port), lane);
}

Value FastSim::netValue(int net, int lane) const {
  return Value(m_.nets[static_cast<size_t>(net)].type,
               lanes_[static_cast<size_t>(slot(net) + lane)]);
}

} // namespace roccc::rtl
