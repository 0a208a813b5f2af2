// Local predicates (paper Sec. 2.3): boolean functions of a single process's
// variables, evaluated at an event of that process. "True events" of a local
// predicate are the events where it holds; a cut satisfies the predicate iff
// it passes through a true event (equivalently, the last included event of
// the process is true).
//
// Every predicate class here is built from one local predicate, the
// comparison literal `var relop k` on one process (negated when !positive):
// conjunctive predicates conjoin them, CNF predicates disjoin them within a
// clause, and Corollary 2's inequality clauses are CNF clauses of them. A
// boolean literal is the default comparison `var != 0`, so {p, "x", true}
// reads "x" and {p, "x", false} reads "!x".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "predicates/variable_trace.h"

namespace gpd {

enum class Relop { Less, LessEq, Greater, GreaterEq, Equal, NotEqual };

bool compare(std::int64_t lhs, Relop op, std::int64_t rhs);
std::string toString(Relop op);

struct LocalPredicate {
  ProcessId process = 0;
  std::string var;
  bool positive = true;
  Relop relop = Relop::NotEqual;
  std::int64_t k = 0;

  // True for the boolean shape `var != 0` (rendered as "x" / "!x").
  bool isBoolean() const { return relop == Relop::NotEqual && k == 0; }

  // "x", "!x", "n >= 4" or "!(n >= 4)".
  std::string label() const;

  bool holds(std::int64_t value) const {
    return compare(value, relop, k) == positive;
  }

  // One-off evaluation (one name lookup); a scan over a process's events
  // uses eventTruth instead, which resolves the variable once.
  bool holds(const VariableTrace& trace, int eventIndex) const {
    return holds(trace.value(process, var, eventIndex));
  }

  bool holdsAtCut(const VariableTrace& trace, const Cut& cut) const {
    return holds(trace, cut.last[process]);
  }
};

// Factories for the common shapes.
LocalPredicate varTrue(ProcessId p, std::string var);
LocalPredicate varFalse(ProcessId p, std::string var);
LocalPredicate varCompare(ProcessId p, std::string var, Relop op,
                          std::int64_t k);

// How eventTruth combines several literals: a clause's disjunction or a
// term's conjunction.
enum class Join { Any, All };

// The one per-event evaluation of literals. out[i] is 1 iff the literals of
// `lits` hosted on process p, joined by `join`, hold at event (p, i); the
// literals on other processes are ignored (with none on p, Any gives all 0
// and All gives all 1). Each variable resolves to its history column once.
std::vector<char> eventTruth(const VariableTrace& trace, ProcessId p,
                             std::span<const LocalPredicate> lits,
                             Join join = Join::Any);

// Event indices on the predicate's process where it holds.
std::vector<int> trueEvents(const VariableTrace& trace,
                            const LocalPredicate& pred);

struct ConjunctivePredicate;

// A conjunctive predicate bound to a trace: each term's truth at every
// event of its process, tabulated once by eventTruth, so evaluating it at a
// cut reads one byte per term. Copyable, safe to call concurrently.
class BoundConjunctive {
 public:
  BoundConjunctive(const VariableTrace& trace,
                   const ConjunctivePredicate& pred);

  bool operator()(const Cut& cut) const { return !firstFalse(cut); }

  // The process of the first term false at the cut, if any.
  std::optional<ProcessId> firstFalse(const Cut& cut) const {
    for (const Term& t : terms_) {
      if (t.truth[cut.last[t.process]] == 0) return t.process;
    }
    return std::nullopt;
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
