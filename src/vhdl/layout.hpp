// Emission layout shared by the VHDL and Verilog emitters: everything both
// text generators need to know about a data path's node interfaces and
// pipeline registers, computed once per emit in O(ops + operands).
//
//   - per node: the sorted external inputs (with the earliest stage the
//     node consumes each one), the sorted outputs visible outside the node,
//     and the node-internal staged copies that make it clocked;
//   - at top level: the cross-node values that need a signal, and the
//     register chains carrying values to later stages in other nodes;
//   - the sanitized name of every value and entity.
//
// The two emitters differ only in syntax; neither rescans the op list.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dp/datapath.hpp"

namespace roccc::hdl {

/// HDL-safe identifier from a debug name: runs of non-alphanumerics become
/// one '_', trailing '_' are dropped, and a leading digit or empty result
/// gets an "s_" prefix.
std::string sanitize(std::string_view s);

/// Address bits for a ROM of `entries` words (at least 1).
int addrBits(size_t entries);

/// One register of a staged value: `vid` delayed into `stage`. Its source
/// is the value itself when stage - 1 is the def stage, else the copy at
/// stage - 1.
struct StagedCopy {
  int vid;
  int stage;
};

struct NodeLayout {
  std::string entity;             ///< <design>_<label>: entity / module name
  std::string instance;           ///< sanitized label: instance suffix
  std::vector<int> inputs;        ///< external non-constant values consumed, ascending
  std::vector<int> inputUseStage; ///< earliest stage at which the node consumes inputs[i]
  std::vector<int> outputs;       ///< produced values visible outside the node, ascending
  std::vector<StagedCopy> copies; ///< node-internal latches, in first-use order

  /// A node with internal stage crossings takes clk/ce.
  bool needsClock() const { return !copies.empty(); }
};

class Layout {
 public:
  explicit Layout(const dp::DataPath& dp);

  /// v<id>_<sanitized debug name>.
  std::string_view name(int vid) const {
    const size_t begin = nameEnd_[static_cast<size_t>(vid)];
    return std::string_view(names_).substr(begin, nameEnd_[static_cast<size_t>(vid) + 1] - begin);
  }
  /// sanitize(dp.name): the top entity and the prefix of every other one.
  const std::string& design() const { return design_; }
  /// Sanitized name of top-level input port `index`.
  const std::string& inputPort(int index) const { return inputPorts_[static_cast<size_t>(index)]; }

  bool isConst(int vid) const;
  /// Stage of the defining op; 0 for values without one (input ports).
  int defStage(int vid) const;

  /// Layout of dp.nodes[index].
  const NodeLayout& node(size_t index) const { return nodes_[index]; }

  /// Values that need a top-level signal: node inputs and outputs, output
  /// port and feedback values, minus constants and input ports. Ascending.
  const std::vector<int>& topSignals() const { return topSignals_; }
  /// Top-level pipeline registers, in first-use order over dp.ops.
  const std::vector<StagedCopy>& chains() const { return chains_; }
  /// True if `chains()` holds (vid, stage).
  bool hasChain(int vid, int stage) const;

  /// A value at top level: its input port, or its own signal.
  std::string_view topRef(int vid) const;
  /// Binding of node `index`'s input `i` at instantiation: the value,
  /// advanced through the top-level chain to the node's earliest use.
  std::string topOperandRef(size_t index, size_t i) const;

  /// The lookup table named `symbol` (the last one, if several), or null.
  const mir::FunctionIR::Table* table(const std::string& symbol) const;
  /// <design>_<symbol>_rom.
  std::string romName(const std::string& symbol) const;

 private:
  const dp::DataPath& dp_;
  std::string design_;
  std::string names_;          ///< every value's name, back to back
  std::vector<size_t> nameEnd_; ///< name(vid) spans [nameEnd_[vid], nameEnd_[vid + 1])
  std::vector<std::string> inputPorts_;
  std::vector<NodeLayout> nodes_;
  std::vector<int> topSignals_;
  std::vector<StagedCopy> chains_;
  std::vector<int> chainTop_; ///< per value: highest chained stage, -1 if none
};

} // namespace roccc::hdl
