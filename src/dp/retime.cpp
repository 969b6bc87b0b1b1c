#include "dp/retime.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::dp {

using mir::Opcode;

namespace {

constexpr double kEps = 1e-9;

/// Recomputes the within-stage accumulated delay of one stage's members
/// (in topological order, all labelled `stage`) and returns the stage's
/// worst (its combinational depth, routing included). A stage's path delays
/// depend only on its own ops, so re-timing one stage leaves the others'
/// results as they were.
double stageDelay(DataPath& d, const std::vector<double>& delay, const std::vector<int>& members,
                  int stage) {
  double worst = 0.0;
  for (int oi : members) {
    DpOp& o = d.ops[static_cast<size_t>(oi)];
    double in = 0;
    for (int vid : o.operands) {
      const DpValue& v = d.values[static_cast<size_t>(vid)];
      if (v.def < 0) continue;
      const DpOp& defOp = d.ops[static_cast<size_t>(v.def)];
      if (defOp.op == Opcode::Ldc) continue;
      if (defOp.stage == stage) in = std::max(in, defOp.pathDelayNs);
    }
    o.pathDelayNs = in + delay[static_cast<size_t>(oi)];
    worst = std::max(worst, o.pathDelayNs);
  }
  return worst;
}

/// The smallest budget each op can ever fit in: its own delay, except that a
/// feedback cone is unsplittable, so every cone member carries the cone's
/// longest internal path.
std::vector<double> unsplittableUnits(const DataPath& d, const std::vector<double>& delay,
                                      const std::vector<int>& order,
                                      const std::vector<int>& coneOf) {
  std::vector<double> unit = delay;
  std::vector<double> acc(d.ops.size(), 0.0); // longest cone-internal chain ending at op
  std::vector<double> coneWorst(d.feedbacks.size(), 0.0);
  for (int oi : order) {
    const int cone = coneOf[static_cast<size_t>(oi)];
    if (cone < 0) continue;
    const DpOp& o = d.ops[static_cast<size_t>(oi)];
    double in = 0;
    for (int vid : o.operands) {
      const int def = d.values[static_cast<size_t>(vid)].def;
      if (def >= 0 && coneOf[static_cast<size_t>(def)] == cone) {
        in = std::max(in, acc[static_cast<size_t>(def)]);
      }
    }
    acc[static_cast<size_t>(oi)] = in + delay[static_cast<size_t>(oi)];
    coneWorst[static_cast<size_t>(cone)] =
        std::max(coneWorst[static_cast<size_t>(cone)], acc[static_cast<size_t>(oi)]);
  }
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    if (coneOf[oi] >= 0) unit[oi] = coneWorst[static_cast<size_t>(coneOf[oi])];
  }
  return unit;
}

} // namespace

bool retimePipeline(DataPath& d, const synth::TimingModel& model, const RetimeOptions& opt,
                    RetimeReport& rep, DiagEngine& diags) {
  faultpoint("dp.retime");
  rep = RetimeReport{};
  rep.run = true;
  rep.targetNs = opt.targetNs;
  rep.stagesBefore = d.stageCount;

  const std::vector<int> order = topoOrderOps(d);
  const std::vector<int> coneOf = feedbackConeOf(d);
  std::vector<double> delay(d.ops.size(), 0.0);
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    delay[oi] = timedOpDelayNs(d, d.ops[oi], model, opt.multStyle);
  }

  const std::vector<double> unit = unsplittableUnits(d, delay, order, coneOf);
  rep.feasible = true;
  for (double u : unit) {
    if (u > opt.targetNs + kEps) rep.feasible = false;
  }

  // 1. Seed: re-stage from scratch against this model (which may differ from
  //    the built-in table the Builder placed with).
  assignStagesGreedy(d, delay, opt.targetNs, /*pipeline=*/true, order, coneOf);

  // Stage members in topological order; `pos` ranks ops in that order.
  std::vector<int> pos(d.ops.size());
  for (size_t i = 0; i < order.size(); ++i) pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  auto byPos = [&](int a, int b) { return pos[static_cast<size_t>(a)] < pos[static_cast<size_t>(b)]; };
  std::vector<std::vector<int>> members(static_cast<size_t>(d.stageCount));
  for (int oi : order) members[static_cast<size_t>(d.ops[static_cast<size_t>(oi)].stage)].push_back(oi);
  auto relabel = [&](const std::vector<int>& ops, int stage) {
    for (int oi : ops) d.ops[static_cast<size_t>(oi)].stage = stage;
  };

  // 2. Merge: fuse adjacent stage pairs whose combined path still fits the
  //    budget (loose targets collapse). Only the fused pair is re-timed;
  //    ops keep their seed stage as a label, unique per stage, until the
  //    merges are done. After a merge the same index is tried again with
  //    its next neighbour: every earlier pair still fails, since a stage
  //    only grows and path delays never shrink when ops join a stage.
  std::vector<int> label(members.size());
  for (size_t s = 0; s < label.size(); ++s) label[s] = static_cast<int>(s);
  std::vector<int> fused;
  for (size_t s = 0; s + 1 < members.size();) {
    fused.clear();
    std::merge(members[s].begin(), members[s].end(), members[s + 1].begin(),
               members[s + 1].end(), std::back_inserter(fused), byPos);
    relabel(members[s + 1], label[s]); // tentatively fuse s+1 into s
    if (stageDelay(d, delay, fused, label[s]) <= opt.targetNs + kEps) {
      members[s].swap(fused);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(s) + 1);
      label.erase(label.begin() + static_cast<std::ptrdiff_t>(s) + 1);
      d.stageCount -= 1;
      rep.merges += 1;
    } else {
      relabel(members[s + 1], label[s + 1]); // revert
      ++s;
    }
  }
  if (rep.merges > 0) {
    for (size_t s = 0; s < members.size(); ++s) relabel(members[s], static_cast<int>(s));
  }

  // 3. Balance: move chain-head ops down (and chain-tail ops up) out of the
  //    critical stage while the global worst-stage delay improves. This
  //    never changes the stage count — it trades slack between neighbors.
  //    A trial move re-times only the two stages it touches.
  const ValueConsumers consumers(d);
  std::vector<double> worst(members.size());
  for (size_t s = 0; s < members.size(); ++s) {
    worst[s] = stageDelay(d, delay, members[s], static_cast<int>(s));
  }
  auto moveOp = [&](int oi, int from, int to) {
    auto& src = members[static_cast<size_t>(from)];
    src.erase(std::lower_bound(src.begin(), src.end(), oi, byPos));
    auto& dst = members[static_cast<size_t>(to)];
    dst.insert(std::lower_bound(dst.begin(), dst.end(), oi, byPos), oi);
    d.ops[static_cast<size_t>(oi)].stage = to;
  };
  std::vector<int> candidates;
  for (int iter = 0; iter < opt.maxBalanceIterations; ++iter) {
    int critical = 0;
    for (int s = 1; s < d.stageCount; ++s) {
      if (worst[static_cast<size_t>(s)] > worst[static_cast<size_t>(critical)]) critical = s;
    }
    const double before = worst[static_cast<size_t>(critical)];
    bool moved = false;
    candidates = members[static_cast<size_t>(critical)];
    for (int oi : candidates) {
      const DpOp& o = d.ops[static_cast<size_t>(oi)];
      if (coneOf[static_cast<size_t>(oi)] >= 0) continue;
      if (o.result < 0 || delay[static_cast<size_t>(oi)] <= 0) continue;
      // Head hoist: every real operand already lives in an earlier stage.
      bool headOk = critical > 0;
      // Tail push: every consumer lives in a later stage.
      bool tailOk = critical + 1 < d.stageCount;
      for (int vid : o.operands) {
        const int def = d.values[static_cast<size_t>(vid)].def;
        if (def < 0 || d.ops[static_cast<size_t>(def)].op == Opcode::Ldc) continue;
        if (d.ops[static_cast<size_t>(def)].stage >= critical) headOk = false;
      }
      for (int c : consumers.of(o.result)) {
        if (d.ops[static_cast<size_t>(c)].stage <= critical) tailOk = false;
      }
      for (int dir = 0; dir < 2 && !moved; ++dir) {
        const bool hoist = dir == 0;
        if (hoist ? !headOk : !tailOk) continue;
        const int target = hoist ? critical - 1 : critical + 1;
        moveOp(oi, critical, target);
        const double critNs = stageDelay(d, delay, members[static_cast<size_t>(critical)], critical);
        const double targetNs = stageDelay(d, delay, members[static_cast<size_t>(target)], target);
        double trialWorst = std::max(critNs, targetNs);
        for (int s = 0; s < d.stageCount; ++s) {
          if (s != critical && s != target) trialWorst = std::max(trialWorst, worst[static_cast<size_t>(s)]);
        }
        if (trialWorst < before - kEps) {
          worst[static_cast<size_t>(critical)] = critNs;
          worst[static_cast<size_t>(target)] = targetNs;
          rep.movedOps += 1;
          moved = true;
        } else {
          moveOp(oi, target, critical);
        }
      }
      if (moved) break;
    }
    if (!moved) break;
  }

  // Final bookkeeping: stage count, feedback/output stages, statistics.
  int maxStage = 0;
  for (const auto& o : d.ops) maxStage = std::max(maxStage, o.stage);
  d.stageCount = maxStage + 1;
  for (size_t fi = 0; fi < d.feedbacks.size(); ++fi) {
    d.feedbacks[fi].stage = 0;
    for (size_t oi = 0; oi < d.ops.size(); ++oi) {
      if (coneOf[oi] == static_cast<int>(fi)) {
        d.feedbacks[fi].stage = d.ops[oi].stage;
        break;
      }
    }
  }
  for (size_t p = 0; p < d.outputs.size(); ++p) {
    const DpValue& v = d.values[static_cast<size_t>(d.outputs[p].value)];
    d.outputStage[p] = v.def >= 0 ? d.ops[static_cast<size_t>(v.def)].stage : 0;
  }
  recomputePipelineStats(d);

  rep.stageDelayNs.assign(static_cast<size_t>(d.stageCount), 0.0);
  rep.worstStageNs = 0;
  for (int s = 0; s < d.stageCount; ++s) {
    rep.stageDelayNs[static_cast<size_t>(s)] = stageDelay(d, delay, members[static_cast<size_t>(s)], s);
    rep.worstStageNs = std::max(rep.worstStageNs, rep.stageDelayNs[static_cast<size_t>(s)]);
  }
  rep.criticalPathNs = rep.worstStageNs + model.clockOverheadNs;
  rep.fmaxMHz = rep.criticalPathNs > 0 ? 1000.0 / rep.criticalPathNs : 0.0;
  rep.slackNs = opt.targetNs - rep.worstStageNs;
  rep.stagesAfter = d.stageCount;

  // Invariant audit: producers before consumers, cones in one stage. A
  // violation here is a compiler bug, not an input error.
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    for (int vid : d.ops[oi].operands) {
      const int def = d.values[static_cast<size_t>(vid)].def;
      if (def < 0 || d.ops[static_cast<size_t>(def)].op == Opcode::Ldc) continue;
      if (d.ops[static_cast<size_t>(def)].stage > d.ops[oi].stage) {
        diags.error({}, fmt("retime: op %0 (stage %1) consumes a stage-%2 value", oi,
                            d.ops[oi].stage, d.ops[static_cast<size_t>(def)].stage));
        return false;
      }
    }
  }
  for (size_t fi = 0; fi < d.feedbacks.size(); ++fi) {
    for (size_t oi = 0; oi < d.ops.size(); ++oi) {
      if (coneOf[oi] == static_cast<int>(fi) && d.ops[oi].stage != d.feedbacks[fi].stage) {
        diags.error({}, fmt("retime: feedback '%0' cone split across stages",
                            d.feedbacks[fi].name));
        return false;
      }
    }
  }
  if (rep.feasible && rep.worstStageNs > opt.targetNs + kEps) {
    diags.error({}, fmt("retime: feasible target %0 ns missed (worst stage %1 ns)",
                        opt.targetNs, rep.worstStageNs));
    return false;
  }
  return true;
}

} // namespace roccc::dp
