// Relational (sum) predicates: Σᵢ xᵢ relop K (paper Sec. 4, after
// Tomlinson–Garg, equality included as the paper's extension).
//
// Each term names an integer variable on a process. The paper's results:
//   relop ∈ {<, ≤, >, ≥}  — polynomial (prior work; here via min-cut).
//   relop =               — NP-complete with arbitrary per-event changes
//                           (Thm 2), polynomial when every event changes its
//                           variable by at most 1 (Thms 4–7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predicates/local.h"
#include "predicates/variable_trace.h"

namespace gpd {

struct SumTerm {
  ProcessId process = 0;
  std::string var;
};

// The Σ of a list of terms with every variable resolved to its history
// column once (VariableTrace::column); sum() at a cut reads one array slot
// per term. Copyable, safe to call concurrently, valid while the trace
// lives.
class BoundSum {
 public:
  BoundSum(const VariableTrace& trace, const std::vector<SumTerm>& terms);

  std::int64_t sum(const Cut& cut) const {
    std::int64_t total = 0;
    for (const Column& c : columns_) total += c.values[cut.last[c.process]];
    return total;
  }

 private:
  struct Column {
    ProcessId process;
    const std::int64_t* values;
  };
  std::vector<Column> columns_;
};

// Σ relop K over a BoundSum: the form the lattice routes evaluate per cut.
struct BoundSumPredicate {
  BoundSum sum;
  Relop relop;
  std::int64_t k;

  bool operator()(const Cut& cut) const {
    return compare(sum.sum(cut), relop, k);
  }
};

// S as a function of the cut: S(C) = base + Σ_{e ∈ C} perNode[e], where
// base = S(⊥) and perNode[e] is the change event e applies to S (0 for
// initial events; terms sharing a process accumulate).
struct SumDeltas {
  std::vector<std::int64_t> perNode;  // indexed by Computation::node
  std::int64_t base = 0;
  std::int64_t maxAbs = 0;  // max over events of |perNode[e]|
};

// Computes the deltas with checked arithmetic. Trace values span the whole
// int64 range, so this throws InputError unless |S(⊥)| + Σₑ |Δ(e)| + 1 fits
// in int64. That one bound covers the sum at every cut, every closure total
// over ±Δ and the closure's "infinite" capacity (src/flow).
SumDeltas sumDeltas(const VariableTrace& trace,
                    const std::vector<SumTerm>& terms);

struct SumPredicate {
  std::vector<SumTerm> terms;
  Relop relop = Relop::Equal;
  std::int64_t k = 0;

  BoundSumPredicate bind(const VariableTrace& trace) const {
    return {BoundSum(trace, terms), relop, k};
  }

  std::int64_t sumAtCut(const VariableTrace& trace, const Cut& cut) const {
    return BoundSum(trace, terms).sum(cut);
  }

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
    return bind(trace)(cut);
  }

  // Max over terms of the per-variable per-event |Δ|.
  std::int64_t deltaBound(const VariableTrace& trace) const {
    std::int64_t bound = 0;
    for (const SumTerm& t : terms) {
      bound = std::max(bound, trace.maxAbsDelta(t.process, t.var));
    }
    return bound;
  }

  // Max over events of |ΔS| — the change a single event applies to the whole
  // sum (terms sharing a process accumulate). The Theorem 4/7 precondition
  // is eventDeltaBound(trace) <= 1. Throws InputError where sumDeltas does.
  std::int64_t eventDeltaBound(const VariableTrace& trace) const;

  std::string toString() const;
};

}  // namespace gpd
