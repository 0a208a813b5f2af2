// Detection of relational sum predicates Σᵢ xᵢ relop K (paper Sec. 4).
//
// Inequality relops reduce to the extremum of S = Σᵢ xᵢ over all consistent
// cuts. Consistent cuts are exactly the down-closed sets (ideals) of the
// non-initial event poset, and S(C) = S(⊥) + Σ_{e ∈ C} Δ(e) where Δ(e) is
// the change event e applies — so the extremum is a maximum-weight closure
// problem, polynomial via min-cut (src/flow).
//
// A consistent cut meets each process in a prefix, so the closure is solved
// on runs of consecutive events instead of on events. With w the weight of
// the side being solved (Δ for max S, −Δ for min S), each process's events
// are contracted by two rules, applied until nothing changes:
//  R1. A run with w > 0 and no receive joins its process predecessor. Once
//      the predecessor is in, adding the run needs nothing else and strictly
//      raises the weight, so no optimum holds one without the other. A run
//      that joins ⊥ is fixed in: its weight is a constant and it gets no
//      node.
//  R2. A run with w ≤ 0 and no send joins its process successor. Only that
//      successor requires it, so dropping it from a closure that lacks the
//      successor loses no weight and removes nodes: the optimum with the
//      fewest events holds it only together with the successor. A trailing
//      run with no successor is dropped: always out, no node.
// The solver returns the optimum with the fewest nodes, which is unique
// (optimal closures are closed under ∩). The contracted closures are the
// event closures that respect the runs, with the same weights; the minimal
// event optimum is one of them by the two arguments above, so it is also
// the minimal contracted optimum. Witnesses are therefore those of the
// uncontracted solve, which the property test keeps as its oracle.
//
// Equality (the paper's contribution):
//  * |Δ| ≤ 1 per event: Theorem 4 (intermediate value along lattice paths)
//    gives possibly(S = K) ⟺ (S(⊥) ≤ K ∧ max S ≥ K) ∨ (S(⊥) ≥ K ∧ min S ≤ K)
//    (Theorem 7(1)); the witness is found by walking a path toward the
//    extremal cut, in the computation's topological order, until the
//    running sum first hits K.
//  * arbitrary Δ: NP-complete (Theorem 2); detectExactSum is the lattice
//    fallback, and src/reduction demonstrates the hardness via
//    subset sum.
//
// definitely(S relop K) is decided exactly against the lattice
// (lattice::decideDefinitely); Theorem 7(2) reduces definitely(S = K) with
// bounded Δ to the two inequality modalities, which definitelySum
// implements.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "clocks/vector_clock.h"
#include "computation/cut.h"
#include "control/budget.h"
#include "lattice/explore.h"
#include "predicates/relational.h"

namespace gpd::detect {

// One side of S's range over the consistent cuts: the extremal sum and the
// smallest consistent cut attaining it (unique; see above).
struct SumExtremum {
  std::int64_t sum = 0;
  Cut arg;
};

// The range of one term set's S, each side solved on first use with one
// contracted max-weight closure and then kept. A query solves only the
// sides its relop or Theorem 7 branch needs, and the disjuncts of a
// symmetric predicate (same terms, different K) share them. Holds a
// reference to `comp`, which must be the trace's computation or one of the
// same shape.
class SumRange {
 public:
  SumRange(const Computation& comp, const VariableTrace& trace,
           const std::vector<SumTerm>& terms);

  const SumExtremum& max();
  const SumExtremum& min();

  // possibly(S relop K), as possiblySum documents.
  std::optional<Cut> possibly(Relop relop, std::int64_t k);

 private:
  SumExtremum solve(bool maximize) const;
  Cut walkUntilSum(const Cut& target, std::int64_t k) const;

  const Computation* comp_;
  SumDeltas deltas_;
  std::optional<SumExtremum> max_;
  std::optional<SumExtremum> min_;
};

struct SumExtrema {
  std::int64_t minSum = 0;
  std::int64_t maxSum = 0;
  Cut argMin;
  Cut argMax;
};

// Both sides of S's range: two one-sided closure solves. A query that needs
// one side should use possiblySum, which solves only that side.
SumExtrema sumExtrema(const VectorClocks& clocks, const VariableTrace& trace,
                      const std::vector<SumTerm>& terms);

// possibly(Σ xᵢ relop K): returns a witness cut, or nullopt. For
// Relop::Equal the Theorem 4 precondition |Δ| ≤ 1 is enforced (GPD_CHECK);
// all other relops work for arbitrary Δ. Solves at most one closure per
// relop: <, ≤ the min side, >, ≥ the max side, ≠ the min side and the max
// only when min S = K, and = the side its Theorem 7(1) branch walks toward
// (none when K = S(⊥), whose witness is ⊥). Throws InputError when the sum
// overflows int64 (see sumDeltas).
std::optional<Cut> possiblySum(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const SumPredicate& pred);

// Exhaustive possibly for Relop::Equal with arbitrary Δ (Theorem 2 says
// nothing better exists in general): lattice search, optionally budgeted. A
// witness is always genuine; complete=false means the budget stopped the
// search first, so an absent witness is "unknown" rather than "no".
lattice::CutSearchResult detectExactSum(const VectorClocks& clocks,
                                        const VariableTrace& trace,
                                        const SumPredicate& pred,
                                        control::Budget* budget = nullptr);

// definitely(Σ xᵢ relop K), exact (lattice-based for the inequality
// modalities; Relop::Equal uses the Theorem 7(2) reduction and requires
// |Δ| ≤ 1). decided=false means a budget stopped the lattice analysis
// before either answer was provable (never without a budget); for
// Relop::Equal the Theorem 7(2) disjunction stays sound — a branch proved
// true decides the whole predicate even when the sibling branch was cut
// short.
struct SumDecision {
  bool decided = true;
  bool holds = false;
};
SumDecision definitelySum(const VectorClocks& clocks,
                          const VariableTrace& trace, const SumPredicate& pred,
                          control::Budget* budget = nullptr);

}  // namespace gpd::detect
