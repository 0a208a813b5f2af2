#include "sat/dpll.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::sat {

namespace {

constexpr signed char kUnset = -1;

struct Solver {
  const Cnf& cnf;
  control::Budget* budget;
  bool stopped = false;  // budget tripped somewhere in the search
  DpllStats stats;
  std::vector<signed char> value;  // per var: kUnset / 0 / 1

  Solver(const Cnf& f, control::Budget* b)
      : cnf(f), budget(b), value(f.numVars, kUnset) {}

  // Clause status under the current partial assignment.
  enum class ClauseState { Satisfied, Conflict, Unit, Open };

  ClauseState classify(const Clause& c, Lit* unit) const {
    int unassigned = 0;
    for (const Lit& l : c) {
      const signed char v = value[l.var];
      if (v == kUnset) {
        ++unassigned;
        if (unassigned == 1 && unit) *unit = l;
      } else if ((v == 1) == l.positive) {
        return ClauseState::Satisfied;
      }
    }
    if (unassigned == 0) return ClauseState::Conflict;
    if (unassigned == 1) return ClauseState::Unit;
    return ClauseState::Open;
  }

  // Repeatedly applies unit clauses; records assignments in `trail`.
  // Returns false on conflict.
  bool propagate(std::vector<int>& trail) {
    bool changed = true;
    while (changed) {
      changed = false;
      if (budget != nullptr && !budget->keepGoing()) {
        stopped = true;
        return false;  // conflict-shaped unwind; `stopped` overrides UNSAT
      }
      for (const Clause& c : cnf.clauses) {
        Lit unit;
        switch (classify(c, &unit)) {
          case ClauseState::Conflict:
            return false;
          case ClauseState::Unit:
            value[unit.var] = unit.positive ? 1 : 0;
            trail.push_back(unit.var);
            ++stats.propagations;
            changed = true;
            break;
          default:
            break;
        }
      }
    }
    return true;
  }

  // Assigns every pure literal (appearing with a single polarity among
  // not-yet-satisfied clauses).
  void assignPureLiterals(std::vector<int>& trail) {
    std::vector<signed char> seen(cnf.numVars, 0);  // bit 1: pos, bit 2: neg
    for (const Clause& c : cnf.clauses) {
      if (classify(c, nullptr) == ClauseState::Satisfied) continue;
      for (const Lit& l : c) {
        if (value[l.var] == kUnset) {
          seen[l.var] |= l.positive ? 1 : 2;
        }
      }
    }
    for (int v = 0; v < cnf.numVars; ++v) {
      if (value[v] == kUnset && (seen[v] == 1 || seen[v] == 2)) {
        value[v] = (seen[v] == 1) ? 1 : 0;
        trail.push_back(v);
      }
    }
  }

  // Unassigned variable occurring in the most unsatisfied clauses; -1 if all
  // clauses are satisfied or no variable is free.
  int pickBranchVar() const {
    std::vector<int> score(cnf.numVars, 0);
    bool anyOpen = false;
    for (const Clause& c : cnf.clauses) {
      if (classify(c, nullptr) == ClauseState::Satisfied) continue;
      anyOpen = true;
      for (const Lit& l : c) {
        if (value[l.var] == kUnset) ++score[l.var];
      }
    }
    if (!anyOpen) return -1;
    int best = -1;
    for (int v = 0; v < cnf.numVars; ++v) {
      if (value[v] == kUnset && score[v] > 0 &&
          (best < 0 || score[v] > score[best])) {
        best = v;
      }
    }
    return best;
  }

  bool solve() {
    std::vector<int> trail;
    if (!propagate(trail)) {
      undo(trail);
      return false;
    }
    assignPureLiterals(trail);
    const int branch = pickBranchVar();
    if (branch < 0) {
      // No open clause; check no conflict slipped through (it cannot, since
      // propagate succeeded and pure literals never falsify a clause).
      return true;
    }
    if (budget != nullptr && !budget->chargeCombination()) {
      stopped = true;
      undo(trail);
      return false;
    }
    ++stats.decisions;
    for (const signed char tryValue : {1, 0}) {
      value[branch] = tryValue;
      if (solve()) return true;
      value[branch] = kUnset;
      if (stopped) break;  // don't explore the sibling once the budget trips
    }
    undo(trail);
    return false;
  }

  void undo(const std::vector<int>& trail) {
    for (int v : trail) value[v] = kUnset;
  }
};

}  // namespace

DpllResult solveDpllBudgeted(const Cnf& cnf, control::Budget* budget) {
  GPD_TRACE_SPAN_NAMED(span, "sat.dpll");
  span.attrInt("vars", cnf.numVars);
  span.attrInt("clauses", static_cast<std::int64_t>(cnf.clauses.size()));
  GPD_CHECK(cnf.numVars >= 0);
  for (const Clause& c : cnf.clauses) {
    for (const Lit& l : c) GPD_CHECK(l.var >= 0 && l.var < cnf.numVars);
  }
  Solver solver(cnf, budget);
  const bool sat = solver.solve();
  DpllResult result;
  result.stats = solver.stats;
  // Whole-search totals in one shot; the recursive solve() stays untouched.
  span.attrInt("decisions", static_cast<std::int64_t>(solver.stats.decisions));
  GPD_OBS_COUNTER_ADD("dpll_decisions", solver.stats.decisions);
  GPD_OBS_COUNTER_ADD("dpll_propagations", solver.stats.propagations);
  if (sat) {
    Assignment a(cnf.numVars, false);
    for (int v = 0; v < cnf.numVars; ++v) a[v] = solver.value[v] == 1;
    GPD_CHECK(satisfies(cnf, a));
    result.outcome = SatOutcome::Satisfiable;
    result.assignment = std::move(a);
  } else {
    // A false return means UNSAT only when no budget stop polluted the
    // search tree — a stopped branch may have hidden a model.
    result.outcome =
        solver.stopped ? SatOutcome::Unknown : SatOutcome::Unsatisfiable;
  }
  return result;
}

std::optional<Assignment> solveDpll(const Cnf& cnf) {
  return solveDpllBudgeted(cnf, nullptr).assignment;
}

}  // namespace gpd::sat
