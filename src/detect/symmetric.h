// Detection of symmetric predicates (paper Sec. 4.3).
//
// possibly distributes over disjunction, and a symmetric predicate over
// boolean variables is ∨_{t∈T} (Σxᵢ = t); each disjunct is decided by the
// Theorem 7 exact-sum detector (booleans change by at most 1 per event).
// definitely does NOT distribute over disjunction, so definitelySymmetric
// decides it exactly against the lattice.
#pragma once

#include <optional>

#include "clocks/vector_clock.h"
#include "computation/cut.h"
#include "control/budget.h"
#include "detect/sum.h"
#include "predicates/symmetric.h"

namespace gpd::detect {

// Returns a witness cut for possibly(φ), or nullopt. The disjuncts share one
// SumRange, so the whole disjunction solves at most two closures.
std::optional<Cut> possiblySymmetric(const VectorClocks& clocks,
                                     const VariableTrace& trace,
                                     const SymmetricPredicate& pred);

// Exact definitely(φ) via lattice exploration; decided=false when a budget
// stopped the lattice analysis before an answer was provable.
SumDecision definitelySymmetric(const VectorClocks& clocks,
                                const VariableTrace& trace,
                                const SymmetricPredicate& pred,
                                control::Budget* budget = nullptr);

}  // namespace gpd::detect
