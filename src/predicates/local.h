// Local predicates (paper Sec. 2.3): boolean functions of a single process's
// variables, evaluated at an event of that process. "True events" of a local
// predicate are the events where it holds; a cut satisfies the predicate iff
// it passes through a true event (equivalently, the last included event of
// the process is true).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "predicates/variable_trace.h"

namespace gpd {

enum class Relop { Less, LessEq, Greater, GreaterEq, Equal, NotEqual };

bool compare(std::int64_t lhs, Relop op, std::int64_t rhs);
std::string toString(Relop op);

struct LocalPredicate {
  ProcessId process = 0;
  std::string label;  // human-readable, e.g. "x3 >= 2"
  std::function<bool(const VariableTrace&, int eventIndex)> holds;

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
    return holds(trace, cut.last[process]);
  }
};

// Factories for the common shapes.
LocalPredicate varTrue(ProcessId p, std::string var);
LocalPredicate varFalse(ProcessId p, std::string var);
LocalPredicate varCompare(ProcessId p, std::string var, Relop op,
                          std::int64_t k);

// Event indices on the predicate's process where it holds.
std::vector<int> trueEvents(const VariableTrace& trace,
                            const LocalPredicate& pred);

struct ConjunctivePredicate;

// A conjunctive predicate bound to a trace: each term's truth at every
// event of its process, tabulated once (trueEvents' work), so evaluating it
// at a cut reads one byte per term. Copyable, safe to call concurrently.
class BoundConjunctive {
 public:
  BoundConjunctive(const VariableTrace& trace,
                   const ConjunctivePredicate& pred);

  bool operator()(const Cut& cut) const {
    for (const Term& t : terms_) {
      if (t.truth[cut.last[t.process]] == 0) return false;
    }
    return true;
  }

 private:
  struct Term {
    ProcessId process;
    std::vector<char> truth;
  };
  std::vector<Term> terms_;
};

// A conjunction of local predicates on pairwise distinct processes
// (paper Sec. 2.3; Garg–Waldecker's predicate class).
struct ConjunctivePredicate {
  std::vector<LocalPredicate> terms;

  BoundConjunctive bind(const VariableTrace& trace) const {
    return {trace, *this};
  }

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
    for (const auto& t : terms) {
      if (!t.holdsAtCut(trace, cut)) return false;
    }
    return true;
  }
};

}  // namespace gpd
