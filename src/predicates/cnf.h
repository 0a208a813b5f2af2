// CNF predicates over per-process boolean variables (paper Sec. 2.3/3).
//
// A predicate in CNF is *singular* iff no two clauses contain variables from
// the same process; a singular k-CNF predicate has exactly k literals per
// clause. Singular 1-CNF is exactly the conjunctive predicate class. The
// paper's Theorem 1 shows detection is NP-complete for k ≥ 2; Sections
// 3.2/3.3 give the algorithms implemented in src/detect.
//
// Literals are local predicates (predicates/local.h): boolean literals
// (x, !x) and comparison literals (x relop a) alike, so Corollary 2's
// inequality-clause predicates are CNF predicates with comparison literals.
#pragma once

#include <string>
#include <vector>

#include "predicates/local.h"
#include "predicates/variable_trace.h"

namespace gpd {

using CnfClause = std::vector<LocalPredicate>;

struct CnfPredicate;

// A CNF predicate with each clause's literals tabulated per hosting process
// by eventTruth: evaluating it at a cut reads one byte per (clause, process)
// pair. Copyable and safe to call concurrently.
class BoundCnf {
 public:
  BoundCnf(const VariableTrace& trace, const CnfPredicate& pred);

  bool operator()(const Cut& cut) const;

 private:
  struct Group {
    ProcessId process;
    std::size_t offset;  // the group's truth row starts at table_[offset]
  };
  std::vector<char> table_;
  std::vector<Group> groups_;      // clause by clause
  std::vector<std::size_t> ends_;  // ends_[j] = one past clause j's last
};

struct CnfPredicate {
  std::vector<CnfClause> clauses;

  // No two clauses contain variables from the same process.
  bool isSingular() const;

  // Every clause has exactly k literals.
  bool isKCnf(int k) const;

  // The set of processes hosting clause j's variables (duplicates removed).
  std::vector<ProcessId> clauseProcesses(int j) const;

  // Tabulates the literals against `trace` once; the lattice routes
  // evaluate the bound form per cut.
  BoundCnf bind(const VariableTrace& trace) const { return {trace, *this}; }

  // One-off evaluation at a single cut.
  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const;

  std::string toString() const;
};

}  // namespace gpd
