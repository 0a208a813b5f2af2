// DPLL satisfiability solver.
//
// Complete solver with unit propagation, pure-literal elimination and a
// most-occurrences branching heuristic. It is the independent oracle against
// which the Theorem 1 reduction (SAT → predicate detection) is validated,
// and is itself usable to *solve* detection instances through the reverse
// reduction demonstrated in examples/sat_via_detection.cpp.
#pragma once

#include <optional>

#include "control/budget.h"
#include "sat/cnf.h"

namespace gpd::sat {

struct DpllStats {
  long long decisions = 0;
  long long propagations = 0;
};

// Three-valued outcome for budgeted solving: Unknown means the search was
// stopped by the budget before either a model or a refutation was found.
enum class SatOutcome { Satisfiable, Unsatisfiable, Unknown };

struct DpllResult {
  SatOutcome outcome = SatOutcome::Unknown;
  std::optional<Assignment> assignment;  // set iff Satisfiable
  DpllStats stats;
};

// Returns a satisfying assignment, or nullopt if the formula is
// unsatisfiable. Deterministic.
std::optional<Assignment> solveDpll(const Cnf& cnf);

// Budgeted variant: each branching decision charges one combination against
// the budget (propagation between decisions polls the deadline cheaply).
// With budget == nullptr this is exactly solveDpll. A Satisfiable result
// always carries a verified model regardless of budget state.
DpllResult solveDpllBudgeted(const Cnf& cnf, control::Budget* budget);

}  // namespace gpd::sat
