// Symmetric predicates over per-process boolean variables (paper Sec. 4.3).
//
// A boolean predicate is symmetric iff it is invariant under permutation of
// its variables, which holds iff it is determined by the *number* of true
// variables: φ(x₁…xₙ) ⟺ Σxᵢ ∈ T for some T ⊆ {0…n} (paper's citation of
// Kohavi). possibly(φ) therefore distributes into the disjunction
// ∨_{t∈T} possibly(Σxᵢ = t), each disjunct decided by the Theorem 7
// exact-sum detector (boolean variables change by at most 1 per event).
#pragma once

#include <string>
#include <vector>

#include "predicates/relational.h"
#include "predicates/variable_trace.h"

namespace gpd {

// A symmetric predicate bound to a trace: the variables' columns summed at
// the cut (0/1 values, so the sum is the number of true variables) and T
// as a membership table over 0…n.
struct BoundSymmetric {
  BoundSum count;
  std::vector<char> inT;  // inT[t] = 1 iff t ∈ T

  bool operator()(const Cut& cut) const {
    const std::int64_t t = count.sum(cut);
    return t >= 0 && t < static_cast<std::int64_t>(inT.size()) && inT[t] != 0;
  }
};

struct SymmetricPredicate {
  std::vector<SumTerm> vars;    // boolean (0/1) variables
  std::vector<int> trueCounts;  // T: predicate holds iff #true ∈ T
  std::string name;

  int arity() const { return static_cast<int>(vars.size()); }

  BoundSymmetric bind(const VariableTrace& trace) const;

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
    return bind(trace)(cut);
  }

  // The equivalent disjunction of exact-sum predicates.
  std::vector<SumPredicate> asExactSums() const;
};

// x₁ ⊕ x₂ ⊕ … ⊕ xₙ: an odd number of variables is true.
SymmetricPredicate exclusiveOr(std::vector<SumTerm> vars);

// Neither the true side nor the false side holds a strict majority:
// #true = n/2 (requires even arity to be satisfiable; T is empty otherwise).
SymmetricPredicate absenceOfSimpleMajority(std::vector<SumTerm> vars);

// Neither side reaches two thirds: n/3 < #true < 2n/3 (strict, matching the
// paper's "absence of two-third majority" with ⌈…⌉ bounds).
SymmetricPredicate absenceOfTwoThirdsMajority(std::vector<SumTerm> vars);

// Exactly k variables true ("exactly k tokens").
SymmetricPredicate exactlyK(std::vector<SumTerm> vars, int k);

// Not all variables equal: 0 < #true < n.
SymmetricPredicate notAllEqual(std::vector<SumTerm> vars);

// All variables equal: #true ∈ {0, n}.
SymmetricPredicate allEqual(std::vector<SumTerm> vars);

}  // namespace gpd
