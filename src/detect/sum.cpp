#include "detect/sum.h"

#include "flow/closure.h"
#include "lattice/explore.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

SumRange::SumRange(const Computation& comp, const VariableTrace& trace,
                   const std::vector<SumTerm>& terms)
    : comp_(&comp), deltas_(sumDeltas(trace, terms)) {
  GPD_CHECK(trace.computation().totalEvents() == comp.totalEvents());
}

const SumExtremum& SumRange::max() {
  if (!max_) max_ = solve(true);
  return *max_;
}

const SumExtremum& SumRange::min() {
  if (!min_) min_ = solve(false);
  return *min_;
}

// Contracts each process's non-initial events into runs by R1 and R2 (see
// sum.h) in one stack pass, solves the max-weight closure over the runs and
// reads the cut back. A pushed event merges the stack top into itself while
// it satisfies R1 (against the top, or ⊥ when the stack is empty: fixed in)
// or the top satisfies R2 against it; a merge changes only the new run, so
// the pass ends at the fixpoint once trailing R2 runs are dropped. Closure
// arcs point from a run to what it requires: its stack predecessor, and for
// each message the sending run, unless the send is fixed in or the receive
// dropped (fixed-in runs hold no receive and dropped runs no send). The min
// side is the max-weight closure under −Δ. The bound checked by sumDeltas
// keeps every weight, total and negation in range.
SumExtremum SumRange::solve(bool maximize) const {
  struct Run {
    int lo;
    int hi;
    std::int64_t weight;
    bool receives;
    bool sends;
  };
  const Computation& comp = *comp_;
  const int procs = comp.processCount();
  // The surviving runs, process-major: p's are [firstRun[p], firstRun[p+1]).
  std::vector<Run> runs;
  std::vector<int> firstRun(procs + 1, 0);
  Cut cut = initialCut(comp);         // the fixed-in prefixes, for now
  std::vector<int> keptHi(procs, 0);  // later events are dropped
  std::int64_t fixedWeight = 0;
  for (ProcessId p = 0; p < procs; ++p) {
    const int bottom = static_cast<int>(runs.size());
    firstRun[p] = bottom;
    for (int i = 1; i < comp.eventCount(p); ++i) {
      const EventId e{p, i};
      const std::int64_t delta = deltas_.perNode[comp.node(e)];
      Run run{i, i, maximize ? delta : -delta,
              !comp.incomingMessages(e).empty(),
              !comp.outgoingMessages(e).empty()};
      while (static_cast<int>(runs.size()) > bottom) {
        const Run& top = runs.back();
        const bool r1 = run.weight > 0 && !run.receives;  // run joins top
        const bool r2 = top.weight <= 0 && !top.sends;    // top joins run
        if (!r1 && !r2) break;
        run = {top.lo, run.hi, top.weight + run.weight,
               top.receives || run.receives, top.sends || run.sends};
        runs.pop_back();
      }
      if (static_cast<int>(runs.size()) == bottom && run.weight > 0 &&
          !run.receives) {
        cut.last[p] = run.hi;  // R1 against ⊥: fixed in
        fixedWeight += run.weight;
      } else {
        runs.push_back(run);
      }
    }
    while (static_cast<int>(runs.size()) > bottom && runs.back().weight <= 0 &&
           !runs.back().sends) {
      runs.pop_back();
    }
    keptHi[p] = static_cast<int>(runs.size()) > bottom ? runs.back().hi
                                                        : cut.last[p];
  }
  const int n = static_cast<int>(runs.size());
  firstRun[procs] = n;

  std::vector<int> runOf(comp.totalEvents(), -1);
  std::vector<std::int64_t> weight(n);
  std::vector<flow::Arc> arcs;
  for (ProcessId p = 0; p < procs; ++p) {
    for (int r = firstRun[p]; r < firstRun[p + 1]; ++r) {
      weight[r] = runs[r].weight;
      if (r > firstRun[p]) arcs.push_back({r, r - 1});
      const int base = comp.node({p, 0});
      for (int i = runs[r].lo; i <= runs[r].hi; ++i) runOf[base + i] = r;
    }
  }
  for (const Message& m : comp.messages()) {
    if (m.receive.index > keptHi[m.receive.process] ||
        m.send.index <= cut.last[m.send.process]) {
      continue;
    }
    arcs.push_back({runOf[comp.node(m.receive)], runOf[comp.node(m.send)]});
  }
  const flow::ClosureResult res = flow::maxWeightClosure(n, arcs, weight);

  for (ProcessId p = 0; p < procs; ++p) {
    for (int r = firstRun[p]; r < firstRun[p + 1] && res.inClosure[r]; ++r) {
      cut.last[p] = runs[r].hi;
    }
  }
  const std::int64_t gain = fixedWeight + res.weight;
  return {maximize ? deltas_.base + gain : deltas_.base - gain, std::move(cut)};
}

// Theorem 4 walk: execute the events of `target` one at a time from the
// initial cut (in topological order — every prefix is a consistent cut) and
// return the first cut whose running sum equals K. Requires |Δ| ≤ 1 and K
// between S(⊥) and S(target).
Cut SumRange::walkUntilSum(const Cut& target, std::int64_t k) const {
  const Computation& comp = *comp_;
  Cut cut = initialCut(comp);
  std::int64_t sum = deltas_.base;
  if (sum == k) return cut;
  for (int node : comp.topologicalOrder()) {
    const EventId e = comp.event(node);
    if (e.isInitial() || !target.contains(e)) continue;
    GPD_DCHECK(cut.last[e.process] + 1 == e.index);
    ++cut.last[e.process];
    sum += deltas_.perNode[node];
    if (sum == k) return cut;
  }
  GPD_CHECK_MSG(false, "intermediate-value walk missed K — |Δ| > 1?");
  return cut;
}

std::optional<Cut> SumRange::possibly(Relop relop, std::int64_t k) {
  switch (relop) {
    case Relop::Less:
      if (min().sum < k) return min().arg;
      return std::nullopt;
    case Relop::LessEq:
      if (min().sum <= k) return min().arg;
      return std::nullopt;
    case Relop::Greater:
      if (max().sum > k) return max().arg;
      return std::nullopt;
    case Relop::GreaterEq:
      if (max().sum >= k) return max().arg;
      return std::nullopt;
    case Relop::NotEqual:
      if (min().sum != k) return min().arg;
      if (max().sum != k) return max().arg;
      return std::nullopt;  // S is identically K
    case Relop::Equal:
      break;  // handled below
  }
  // Theorem 7(1): with |Δ| ≤ 1, possibly(S = K) ⟺
  // (S(⊥) ≤ K ∧ possibly(S ≥ K)) ∨ (S(⊥) ≥ K ∧ possibly(S ≤ K)).
  GPD_CHECK_MSG(deltas_.maxAbs <= 1,
                "Theorem 4 requires every event to change the sum by at most "
                "1; use detectExactSum for arbitrary deltas");
  if (deltas_.base == k) return initialCut(*comp_);
  if (deltas_.base < k && max().sum >= k) return walkUntilSum(max().arg, k);
  if (deltas_.base > k && min().sum <= k) return walkUntilSum(min().arg, k);
  return std::nullopt;
}

SumExtrema sumExtrema(const VectorClocks& clocks, const VariableTrace& trace,
                      const std::vector<SumTerm>& terms) {
  SumRange range(clocks.computation(), trace, terms);
  SumExtrema ext{range.min().sum, range.max().sum, range.min().arg,
                 range.max().arg};
  GPD_DCHECK(clocks.isConsistent(ext.argMax));
  GPD_DCHECK(clocks.isConsistent(ext.argMin));
  return ext;
}

std::optional<Cut> possiblySum(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const SumPredicate& pred) {
  GPD_TRACE_SPAN("detect.sum.possibly");
  return SumRange(clocks.computation(), trace, pred.terms)
      .possibly(pred.relop, pred.k);
}

lattice::CutSearchResult detectExactSum(const VectorClocks& clocks,
                                        const VariableTrace& trace,
                                        const SumPredicate& pred,
                                        control::Budget* budget) {
  GPD_CHECK(pred.relop == Relop::Equal);
  GPD_TRACE_SPAN("detect.sum.exact_search");
  return lattice::findSatisfyingCut(clocks, pred.bind(trace), budget);
}

SumDecision definitelySum(const VectorClocks& clocks,
                          const VariableTrace& trace, const SumPredicate& pred,
                          control::Budget* budget) {
  GPD_TRACE_SPAN("detect.sum.definitely");
  SumDecision result;
  if (pred.relop != Relop::Equal) {
    const lattice::DefinitelyDecision d =
        lattice::decideDefinitely(clocks, pred.bind(trace), budget);
    result.decided = d.decided;
    result.holds = d.decided && d.holds;
    return result;
  }
  // Theorem 7(2): with |Δ| ≤ 1, definitely(S = K) ⟺
  // (S(⊥) ≤ K ∧ definitely(S ≥ K)) ∨ (S(⊥) ≥ K ∧ definitely(S ≤ K)).
  // Tri-valued disjunction: a branch decided true settles the predicate even
  // when the other branch ran out of budget; "false" needs every applicable
  // branch decided false.
  const SumDeltas deltas = sumDeltas(trace, pred.terms);
  GPD_CHECK_MSG(deltas.maxAbs <= 1,
                "Theorem 7(2) requires every event to change the sum by at "
                "most 1");
  const BoundSum sum(trace, pred.terms);
  bool anyUndecided = false;
  if (deltas.base <= pred.k) {
    const lattice::DefinitelyDecision d = lattice::decideDefinitely(
        clocks, BoundSumPredicate{sum, Relop::GreaterEq, pred.k}, budget);
    if (d.decided && d.holds) {
      result.holds = true;
      return result;
    }
    anyUndecided |= !d.decided;
  }
  if (deltas.base >= pred.k) {
    const lattice::DefinitelyDecision d = lattice::decideDefinitely(
        clocks, BoundSumPredicate{sum, Relop::LessEq, pred.k}, budget);
    if (d.decided && d.holds) {
      result.holds = true;
      return result;
    }
    anyUndecided |= !d.decided;
  }
  result.decided = !anyUndecided;
  result.holds = false;
  return result;
}

}  // namespace gpd::detect
