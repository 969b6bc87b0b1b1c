// Data-path generation (paper sections 4.2.2 - 4.2.4).
//
// Takes the SSA-form MIR of the data-path function and produces the fully
// pipelined data-path graph:
//  - one "soft node" per CFG basic block ("the compiler first builds data
//    path for each non-null node in the CFG"),
//  - a MUX hard node per alternative-branch join ("a new mux node between
//    alternative branch nodes and their common successor", Fig 6 node 7),
//  - a PIPE hard node copying live variables past the branch arms (Fig 6
//    node 6),
//  - pipeline latch placement driven by per-instruction delay estimation
//    (section 4.2.3), with the SNX feedback register closing the LPR loop
//    inside a single stage so the pipeline sustains one iteration per clock,
//  - bit-width inference for every internal signal from port sizes and
//    opcodes (sections 4.2.4, 5).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mir/ir.hpp"
#include "support/diag.hpp"
#include "support/range.hpp"
#include "synth/timing.hpp"

namespace roccc::dp {

enum class NodeKind { Soft, Mux, Pipe };

/// A value (wire bundle) in the data path. Every op result and every input
/// port is a value; SSA guarantees single definition.
struct DpValue {
  int id = -1;
  ScalarType declared;   ///< semantic type (C-level)
  int width = 32;        ///< inferred hardware width (<= declared width)
  bool isSigned = true;  ///< inferred signedness
  ValueRange range;      ///< inferred value range
  std::string name;      ///< debug name
  int def = -1;          ///< defining op (-1: input port or constant-free)
  int inputPort = -1;    ///< >= 0 when this value is an input port
};

/// An operation placed in the data path.
struct DpOp {
  mir::Opcode op = mir::Opcode::Mov;
  int result = -1;            ///< value id (-1 for Out/Snx)
  std::vector<int> operands;  ///< value ids
  int64_t imm = 0;
  int aux0 = 0, aux1 = 0;
  std::string symbol;
  int node = -1;  ///< owning DpNode
  int stage = 0;  ///< pipeline stage (0-based)
  double pathDelayNs = 0; ///< accumulated combinational delay within stage
};

struct DpNode {
  int id = -1;
  NodeKind kind = NodeKind::Soft;
  int cfgBlock = -1; ///< originating MIR block (-1 for hard nodes)
  std::vector<int> ops;
  std::string label;
};

struct DataPath {
  std::string name;
  std::vector<DpNode> nodes;
  std::vector<DpOp> ops;
  std::vector<DpValue> values;

  struct Port {
    std::string name;
    ScalarType type;
    int value = -1; ///< input: the port's value; output: the driven value
  };
  std::vector<Port> inputs;
  std::vector<Port> outputs;
  /// Stage at which each output is produced (outputs are registered at the
  /// end of that stage).
  std::vector<int> outputStage;

  struct Feedback {
    std::string name;
    ScalarType type;
    int64_t initial = 0;
    int snxValue = -1; ///< value stored to the register each iteration
    int lprValue = -1; ///< value read from the register (one per name)
    int stage = 0;     ///< feedback loop stage
  };
  std::vector<Feedback> feedbacks;
  std::vector<mir::FunctionIR::Table> tables;

  int stageCount = 1;

  // --- statistics (drive reports and the Table 1 area discussion) ---
  int softNodeCount = 0;
  int hardNodeCount = 0; ///< mux + pipe nodes
  int muxOpCount = 0;
  /// Register bits inserted to keep definitions and references adjoining
  /// across stages ("extra register copying instructions", section 4.2.2) —
  /// a value defined in stage s and last used in stage t holds t-s register
  /// copies of its width.
  int64_t balanceRegisterBits = 0;
  /// Total latched bits at stage boundaries (including balance registers).
  int64_t pipelineRegisterBits = 0;
  /// Width narrowing achieved by inference: sum over values of
  /// (declared width - inferred width).
  int64_t narrowedBits = 0;

  std::string dump() const;
  /// Graphviz-style structural dump used by the Fig 6 bench.
  std::string dumpStructure() const;
};

struct BuildOptions {
  /// Target combinational delay per pipeline stage. Latches are placed so
  /// no stage exceeds it (except a feedback loop that cannot be split).
  double targetStageDelayNs = 4.0;
  bool pipeline = true;        ///< place latches (off: single stage)
  bool inferBitWidths = true;  ///< narrow internal signals
  /// How widths are inferred when inferBitWidths is on:
  ///  - PortOpcode: the paper's rule (section 5, "we derive bit width only
  ///    based on port size and opcodes") — forward structural propagation
  ///    (add -> max+1, mul -> sum, ...), no value information.
  ///  - RangeAnalysis: interval analysis over value ranges — the "more
  ///    aggressive bit narrowing" the paper anticipates. Default, and what
  ///    the rest of this library was validated with.
  enum class WidthMode { PortOpcode, RangeAnalysis } widthMode = WidthMode::RangeAnalysis;
  /// 'LUT' multiplier style decomposes constant multiplies into shift-adds
  /// (the Table 1 FIR/DCT setting); 'Mult18' keeps hardware multipliers.
  enum class MultStyle { Lut, Mult18 } multStyle = MultStyle::Lut;
};

/// The synth::TimingModel primitive implementing a mir opcode at the given
/// multiplier style. False for wiring-only / control opcodes (zero delay).
bool primitiveForOpcode(mir::Opcode op, BuildOptions::MultStyle style, synth::Primitive& out);

/// Per-op combinational delay estimate (ns) used for latch placement,
/// looked up from the given timing model. Exposed for tests and the
/// synthesis model. Shl/Shr with width 0 signal a constant shift (free).
double opDelayNs(const synth::TimingModel& model, mir::Opcode op, int width,
                 BuildOptions::MultStyle style);
/// Same, against the built-in Virtex-II-class table.
double opDelayNs(mir::Opcode op, int width, BuildOptions::MultStyle style);

/// Placed delay of one op (ns): operand-aware width selection (comparisons
/// span their operands, constant shift amounts are free wiring) plus the
/// model's per-hop routing margin. The unit the stage budget is spent on.
double timedOpDelayNs(const DataPath& d, const DpOp& o, const synth::TimingModel& model,
                      BuildOptions::MultStyle style);

/// The ops reading each value, one entry per operand slot, in op order:
/// a flat table with one offset per value instead of a list per value.
struct ValueConsumers {
  explicit ValueConsumers(const DataPath& d);
  std::span<const int> of(int value) const {
    return {ops.data() + start[static_cast<size_t>(value)],
            ops.data() + start[static_cast<size_t>(value) + 1]};
  }
  std::vector<int> start; ///< value -> first entry; start[values] = ops.size()
  std::vector<int> ops;
};

/// Topological order of d.ops over value dependencies. Throws
/// InternalCompilerError if the op graph has a combinational cycle.
std::vector<int> topoOrderOps(const DataPath& d);

/// Feedback-cone membership: for each op, the index of the feedback register
/// whose LPR -> SNX cone it belongs to, or -1. All ops of one cone must
/// share a pipeline stage (the loop closes through one register, Fig 7).
std::vector<int> feedbackConeOf(const DataPath& d);

/// Greedy ASAP latch placement: walks ops in topological order accumulating
/// within-stage delay from `delay` (indexed by op), opening a new stage when
/// the budget would be exceeded, pinning each feedback cone to one stage.
/// `order` is topoOrderOps(d) and `coneOf` feedbackConeOf(d), which callers
/// compute once and share with their own passes over the graph.
/// Rewrites op stages/pathDelayNs, stageCount, feedback stages and output
/// stages. The `retime` pass refines this seed placement.
void assignStagesGreedy(DataPath& d, const std::vector<double>& delay, double targetNs,
                        bool pipeline, const std::vector<int>& order,
                        const std::vector<int>& coneOf);

/// Recomputes the stage-crossing register statistics (pipelineRegisterBits,
/// balanceRegisterBits) from the current op stages.
void recomputePipelineStats(DataPath& d);

/// Builds the data path from SSA MIR. Requires: canonicalizeSideEffects ran
/// before buildSSA; verifySSA holds. Returns false on diagnosed failure.
bool buildDataPath(const mir::FunctionIR& fn, DataPath& out, DiagEngine& diags,
                   const BuildOptions& options = {});

} // namespace roccc::dp
