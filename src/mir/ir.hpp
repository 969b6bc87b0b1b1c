// Machine-level IR, modeled on the Machine-SUIF virtual machine (SUIFvm)
// the paper uses as its back-end representation (section 4.2.1): an
// assembly-like, virtual-register, three-address IR over basic blocks,
// extended with the ROCCC-specific opcodes LPR (load previous), SNX (store
// next) and LUT, plus MUX for the "hard nodes" the data-path generator adds.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "support/diag.hpp"
#include "support/value.hpp"

namespace roccc::mir {

enum class Opcode {
  // pure data operations
  Ldc,  ///< dst = imm
  Mov,  ///< dst = src0
  Add, Sub, Mul, Div, Rem, Neg,
  And, Or, Xor, Not,
  Shl, Shr,
  Seq, Sne, Slt, Sle, Sgt, Sge, ///< 1-bit compare results
  Mux,  ///< dst = src0(sel) ? src1 : src2
  Cast, ///< dst = convert(src0) per operand/result types
  BitSel, ///< dst = src0[aux0:aux1] (hi:lo)
  BitCat, ///< dst = {src0, src1}
  // ROCCC-specific (section 4.2.1)
  Lpr,  ///< dst = feedback register 'symbol'
  Snx,  ///< feedback register 'symbol' = src0 (latched at iteration end)
  Lut,  ///< dst = table 'symbol' [src0]
  // I/O copies ("all input and output operands are copied to the entry or
  // exit of the data flow", section 4.2.2)
  In,   ///< dst = input port aux0
  Out,  ///< output port aux0 = src0
  // control
  Br,   ///< if src0 != 0 goto succ[0] else succ[1]; block terminator
  Jmp,  ///< goto succ[0]; block terminator
  Ret,  ///< function end; block terminator
  // SSA
  Phi,  ///< dst = phi(src per predecessor, in pred order)
};

const char* opcodeName(Opcode op);
bool isTerminator(Opcode op);
/// True for operations with no side effects whose result may be recomputed
/// or eliminated (everything except Snx/Out/terminators).
bool isPure(Opcode op);
/// Pure, deterministic in (operands, aux, symbol) — eligible for CSE.
/// Phi and In are excluded (position-dependent); Lpr/Lut are included
/// (same register / table read yields the same value within an iteration).
bool isCseEligible(Opcode op);

struct Operand {
  enum class Kind { None, Reg, Imm } kind = Kind::None;
  int reg = -1;
  int64_t imm = 0;

  static Operand ofReg(int r) { return {Kind::Reg, r, 0}; }
  static Operand ofImm(int64_t v) { return {Kind::Imm, -1, v}; }
  bool isReg() const { return kind == Kind::Reg; }
  bool isImm() const { return kind == Kind::Imm; }
  friend bool operator==(const Operand&, const Operand&) = default;
};

struct Instr {
  Opcode op = Opcode::Ldc;
  int dst = -1; ///< virtual register id, -1 if none
  std::vector<Operand> srcs;
  ScalarType type = ScalarType::intTy(); ///< result type (operand type for Out/Snx)
  int64_t imm = 0;       ///< Ldc payload
  int aux0 = 0, aux1 = 0; ///< BitSel hi/lo; In/Out port index
  std::string symbol;    ///< Lpr/Snx feedback name, Lut table name
  SourceLoc loc;

  bool hasDst() const { return dst >= 0; }
};

struct Block {
  int id = -1;
  std::vector<Instr> instrs;
  std::vector<int> succs;
  std::vector<int> preds;

  const Instr* terminator() const {
    return instrs.empty() || !isTerminator(instrs.back().op) ? nullptr : &instrs.back();
  }
};

/// A function in MIR form. Block 0 is the entry; exactly one block ends in
/// Ret after construction.
struct FunctionIR {
  struct Param {
    std::string name;
    ScalarType type;
    bool isOutput = false;
  };
  struct Table {
    std::string name;
    ScalarType elemType;
    std::vector<int64_t> values;
  };
  struct FeedbackReg {
    std::string name;
    ScalarType type;
    int64_t initial = 0;
  };

  std::string name;
  std::vector<Param> params;
  std::vector<Table> tables;
  std::vector<FeedbackReg> feedbacks;
  std::vector<Block> blocks;
  std::vector<ScalarType> regTypes;
  std::vector<std::string> regNames; ///< debug names, parallel to regTypes

  int newReg(ScalarType t, std::string debugName);
  int regCount() const { return static_cast<int>(regTypes.size()); }
  Block& entry() { return blocks.front(); }
  const Block& entry() const { return blocks.front(); }
  int addBlock();

  const Table* findTable(const std::string& n) const;
  const FeedbackReg* findFeedback(const std::string& n) const;
  std::optional<int> inputPortIndex(const std::string& paramName) const;

  /// Human-readable listing.
  std::string dump() const;
  /// Structural validation: operand counts, register/type consistency,
  /// terminator placement, CFG edge symmetry. Appends problems to `errors`.
  bool verify(std::vector<std::string>& errors) const;
  /// Additionally checks the SSA single-assignment property and phi arity.
  bool verifySSA(std::vector<std::string>& errors) const;
};

// --- CFG analyses ------------------------------------------------------------

/// Blocks in reverse post-order from the entry (ids).
std::vector<int> reversePostOrder(const FunctionIR& f);

/// Immediate dominators (Cooper-Harvey-Kennedy). idom[entry] == entry.
struct DomTree {
  std::vector<int> idom;
  /// Dominance frontier per block.
  std::vector<std::set<int>> frontier;
  /// Pre/post numbers of a DFS over the dominator tree (-1: unreachable).
  std::vector<int> pre, post;
  /// O(1): a dominates b (every block dominates itself).
  bool dominates(int a, int b) const;
};
DomTree computeDominators(const FunctionIR& f);

/// Classic bit-vector style liveness (the Machine-SUIF "Data Flow Analysis
/// library" counterpart).
struct Liveness {
  std::vector<std::set<int>> liveIn, liveOut;
};
Liveness computeLiveness(const FunctionIR& f);

/// Reaching definitions: for each block, the set of (block, instrIndex)
/// definitions reaching its entry.
struct ReachingDefs {
  using Def = std::pair<int, int>;
  std::vector<std::set<Def>> in, out;
};
ReachingDefs computeReachingDefs(const FunctionIR& f);

} // namespace roccc::mir
