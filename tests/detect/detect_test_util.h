// Shared helpers for detection tests: random singular CNF predicates over
// grouped computations and lattice-based ground truth.
#pragma once

#include <string>

#include "clocks/vector_clock.h"
#include "lattice/explore.h"
#include "predicates/cnf.h"
#include "predicates/variable_trace.h"
#include "util/rng.h"

namespace gpd::detect::testing {

// Singular k-CNF over consecutive process groups (process p in group
// p / groupSize), one literal per process with random polarity, all on
// boolean variable `var`.
inline CnfPredicate randomSingularKCnf(int groups, int groupSize,
                                       const std::string& var, Rng& rng) {
  CnfPredicate pred;
  for (int g = 0; g < groups; ++g) {
    CnfClause clause;
    for (int i = 0; i < groupSize; ++i) {
      clause.push_back({g * groupSize + i, var, rng.chance(0.5)});
    }
    pred.clauses.push_back(std::move(clause));
  }
  return pred;
}

inline bool latticePossiblyCnf(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const CnfPredicate& pred) {
  return lattice::findSatisfyingCut(
             clocks,
             [&](const Cut& cut) { return pred.holdsAtCut(trace, cut); })
      .witness.has_value();
}

}  // namespace gpd::detect::testing
