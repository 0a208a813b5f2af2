#include "detect/sum.h"

#include "flow/closure.h"
#include "lattice/explore.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

namespace {

Cut cutFromClosure(const Computation& comp, const std::vector<char>& inSet) {
  Cut cut(std::vector<int>(comp.processCount(), 0));
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    int i = 1;
    while (i < comp.eventCount(p) && inSet[comp.node({p, i})]) ++i;
    cut.last[p] = i - 1;
  }
  return cut;
}

}  // namespace

EventOrder::EventOrder(const Computation& c) : comp(&c) {
  const graph::Dag dag = c.toDagWithoutInitialEdges();
  auto order = dag.topologicalOrder();
  GPD_CHECK(order.has_value());
  topological = std::move(*order);
  reversed = dag.reversed();
}

SumRange::SumRange(const EventOrder& order, const VariableTrace& trace,
                   const std::vector<SumTerm>& terms)
    : order_(&order), deltas_(sumDeltas(trace, terms)) {
  GPD_CHECK(trace.computation().totalEvents() == order.comp->totalEvents());
}

const SumExtremum& SumRange::max() {
  if (!max_) max_ = solve(true);
  return *max_;
}

const SumExtremum& SumRange::min() {
  if (!min_) min_ = solve(false);
  return *min_;
}

// Ideals (down-closed sets) of the event order are closures of the reversed
// DAG. Initial events carry weight 0, so whether the closure includes them
// is irrelevant to the optimum, and cutFromClosure only reads non-initial
// membership. The min side is the max-weight closure under −Δ. The bound
// checked by sumDeltas keeps every weight, total and negation in range.
SumExtremum SumRange::solve(bool maximize) const {
  std::vector<std::int64_t> weight = deltas_.perNode;
  if (!maximize) {
    for (std::int64_t& w : weight) w = -w;
  }
  const flow::ClosureResult res =
      flow::maxWeightClosure(order_->reversed, weight);
  return {maximize ? deltas_.base + res.weight : deltas_.base - res.weight,
          cutFromClosure(*order_->comp, res.inClosure)};
}

// Theorem 4 walk: execute the events of `target` one at a time from the
// initial cut (in topological order — every prefix is a consistent cut) and
// return the first cut whose running sum equals K. Requires |Δ| ≤ 1 and K
// between S(⊥) and S(target).
Cut SumRange::walkUntilSum(const Cut& target, std::int64_t k) const {
  const Computation& comp = *order_->comp;
  Cut cut = initialCut(comp);
  std::int64_t sum = deltas_.base;
  if (sum == k) return cut;
  for (int node : order_->topological) {
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
  if (deltas_.base == k) return initialCut(*order_->comp);
  if (deltas_.base < k && max().sum >= k) return walkUntilSum(max().arg, k);
  if (deltas_.base > k && min().sum <= k) return walkUntilSum(min().arg, k);
  return std::nullopt;
}

SumExtrema sumExtrema(const VectorClocks& clocks, const VariableTrace& trace,
                      const std::vector<SumTerm>& terms) {
  const EventOrder order(clocks.computation());
  SumRange range(order, trace, terms);
  SumExtrema ext{range.min().sum, range.max().sum, range.min().arg,
                 range.max().arg};
  GPD_DCHECK(clocks.isConsistent(ext.argMax));
  GPD_DCHECK(clocks.isConsistent(ext.argMin));
  return ext;
}

std::optional<Cut> possiblySum(const EventOrder& order,
                               const VariableTrace& trace,
                               const SumPredicate& pred) {
  GPD_TRACE_SPAN("detect.sum.possibly");
  return SumRange(order, trace, pred.terms).possibly(pred.relop, pred.k);
}

std::optional<Cut> possiblySum(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const SumPredicate& pred) {
  return possiblySum(EventOrder(clocks.computation()), trace, pred);
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
