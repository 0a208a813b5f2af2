// CNF predicates over per-process boolean variables (paper Sec. 2.3/3).
//
// A predicate in CNF is *singular* iff no two clauses contain variables from
// the same process; a singular k-CNF predicate has exactly k literals per
// clause. Singular 1-CNF is exactly the conjunctive predicate class. The
// paper's Theorem 1 shows detection is NP-complete for k ≥ 2; Sections
// 3.2/3.3 give the algorithms implemented in src/detect.
#pragma once

#include <string>
#include <vector>

#include "predicates/variable_trace.h"

namespace gpd {

struct BoolLiteral {
  ProcessId process = 0;
  std::string var;
  bool positive = true;

  bool holds(const VariableTrace& trace, int eventIndex) const {
    return (trace.value(process, var, eventIndex) != 0) == positive;
  }
};

using CnfClause = std::vector<BoolLiteral>;

struct CnfPredicate;

// A CNF predicate with every literal resolved to its variable's history
// column (VariableTrace::column): evaluating it at a cut reads one array
// slot per literal. Copyable and safe to call concurrently; valid while the
// trace it was bound to lives.
class BoundCnf {
 public:
  BoundCnf(const VariableTrace& trace, const CnfPredicate& pred);

  bool operator()(const Cut& cut) const;

 private:
  struct Literal {
    ProcessId process;
    bool positive;
    const std::int64_t* values;
  };
  std::vector<Literal> literals_;   // clause by clause
  std::vector<std::size_t> ends_;   // ends_[j] = one past clause j's last
};

struct CnfPredicate {
  std::vector<CnfClause> clauses;

  // No two clauses contain variables from the same process.
  bool isSingular() const;

  // Every clause has exactly k literals.
  bool isKCnf(int k) const;

  // The set of processes hosting clause j's variables (duplicates removed).
  std::vector<ProcessId> clauseProcesses(int j) const;

  // Resolves the literals against `trace` once; the lattice routes evaluate
  // the bound form per cut.
  BoundCnf bind(const VariableTrace& trace) const { return {trace, *this}; }

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
    return bind(trace)(cut);
  }

  std::string toString() const;
};

}  // namespace gpd
