// Shared corpus for the Detector property and transcript tests: small
// random grouped computations with boolean and counter variables, and the
// predicate builders both tests query them with.
#pragma once

#include <cstdint>
#include <string>

#include "computation/random.h"
#include "predicates/boolean_expr.h"
#include "predicates/cnf.h"
#include "predicates/local.h"
#include "predicates/random_trace.h"
#include "predicates/relational.h"
#include "util/rng.h"

namespace gpd::detect::testing {

// One random grouped computation (2×2 processes, 3 events each) with a
// boolean x and counters c1 (|Δ| ≤ 1) and c2 (|Δ| ≤ 2). The ordering
// discipline cycles with the trial number.
struct Corpus {
  Computation computation;
  VariableTrace trace;

  Corpus(Rng& rng, int trial)
      : computation(make(rng, trial)), trace(computation) {
    defineRandomBools(trace, "x", 0.35, rng);
    defineRandomCounters(trace, "c1", 0, 1, rng);  // |Δ| ≤ 1: Theorem 7
    defineRandomCounters(trace, "c2", 0, 2, rng);  // |Δ| > 1: lattice only
  }

  static Computation make(Rng& rng, int trial) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 2;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    opt.discipline = trial % 3 == 0   ? OrderingDiscipline::None
                     : trial % 3 == 1 ? OrderingDiscipline::ReceiveOrdered
                                      : OrderingDiscipline::SendOrdered;
    return randomGroupedComputation(opt, rng);
  }
};

inline ConjunctivePredicate allTrue(int processes) {
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < processes; ++p) {
    pred.terms.push_back(varTrue(p, "x"));
  }
  return pred;
}

inline CnfPredicate singularCnf(Rng& rng) {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", rng.chance(0.5)}},
                  {{2, "x", rng.chance(0.5)}, {3, "x", true}}};
  return pred;
}

inline CnfPredicate nonSingularCnf(Rng& rng) {
  CnfPredicate pred = singularCnf(rng);
  pred.clauses.push_back({{0, "x", false}});  // process 0 twice: non-singular
  return pred;
}

inline BoolExprPtr mixedExpr() {
  // (x0 ∧ x1) ∨ (¬x2 ∧ x3): two DNF terms, one with a negative literal.
  return BoolExpr::disjunction(
      {BoolExpr::conjunction({BoolExpr::var(0, "x"), BoolExpr::var(1, "x")}),
       BoolExpr::conjunction(
           {BoolExpr::negate(BoolExpr::var(2, "x")), BoolExpr::var(3, "x")})});
}

inline SumPredicate sumPred(const std::string& var, Relop op, std::int64_t k) {
  SumPredicate pred;
  for (ProcessId p = 0; p < 4; ++p) pred.terms.push_back({p, var});
  pred.relop = op;
  pred.k = k;
  return pred;
}

}  // namespace gpd::detect::testing
