// Arbitrary boolean expressions over local predicates, and their
// decomposition into conjunctive detections (Stoller–Schneider, the paper's
// reference [15]: reduce a structured predicate to multiple CPDHB
// instances).
//
// An expression is built from per-process boolean variables with ¬, ∧, ∨.
// possibly() distributes over ∨, so converting to DNF — with unsatisfiable
// and per-process-contradictory disjuncts pruned — turns detection into one
// weak-conjunctive detection per disjunct. The DNF can be exponentially
// larger than the expression (detection of arbitrary expressions is
// NP-complete), which is exactly the "practical only if the number of
// generated problems is small" caveat the paper quotes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/budget.h"
#include "predicates/cnf.h"
#include "predicates/variable_trace.h"

namespace gpd {

class BoolExpr;
class BoundExpr;
using BoolExprPtr = std::shared_ptr<const BoolExpr>;

class BoolExpr {
 public:
  enum class Kind { Var, Not, And, Or };

  static BoolExprPtr var(ProcessId process, std::string name);
  static BoolExprPtr negate(BoolExprPtr e);
  static BoolExprPtr conjunction(std::vector<BoolExprPtr> es);
  static BoolExprPtr disjunction(std::vector<BoolExprPtr> es);

  Kind kind() const { return kind_; }
  // Var accessors.
  ProcessId process() const { return process_; }
  const std::string& name() const { return name_; }
  // Not accessor.
  const BoolExprPtr& child() const { return children_.front(); }
  // And/Or accessor.
  const std::vector<BoolExprPtr>& children() const { return children_; }

  // Resolves every variable against `trace` once; the lattice route
  // evaluates the bound form per cut.
  BoundExpr bind(const VariableTrace& trace) const;

  bool evaluate(const VariableTrace& trace, const Cut& cut) const;

  std::string toString() const;

 private:
  BoolExpr(Kind kind, ProcessId process, std::string name,
           std::vector<BoolExprPtr> children)
      : kind_(kind),
        process_(process),
        name_(std::move(name)),
        children_(std::move(children)) {}

  Kind kind_;
  ProcessId process_ = -1;
  std::string name_;
  std::vector<BoolExprPtr> children_;
};

// An expression flattened in pre-order with every variable resolved to its
// history column (VariableTrace::column). Copyable, safe to call
// concurrently, valid while the trace lives.
class BoundExpr {
 public:
  BoundExpr(const VariableTrace& trace, const BoolExpr& expr);

  bool operator()(const Cut& cut) const { return eval(0, cut); }

 private:
  struct Node {
    BoolExpr::Kind kind;
    ProcessId process;
    const std::int64_t* values;  // Var only
    std::size_t end;             // one past this node's subtree
  };
  void flatten(const VariableTrace& trace, const BoolExpr& e);
  bool eval(std::size_t i, const Cut& cut) const;

  std::vector<Node> nodes_;
};

// One DNF disjunct: a set of boolean literals (process, variable, polarity).
// Kept satisfiable by construction: no contradictory pair survives pruning.
using DnfTerm = std::vector<LocalPredicate>;

// Negation-normal-form + distribution, pruning contradictory terms and
// deduplicating literals. The result is empty iff the expression is
// unsatisfiable by propositional structure alone.
//
// Distribution is the exponential step, so the budgeted form polls
// Budget::keepGoing() inside every expansion loop (keepGoing does not touch
// the cut/combination meters, keeping detection counts bit-identical across
// budget configurations) and reports complete == false when the budget
// stopped it; the terms produced so far are still well-formed.
struct DnfExpansion {
  std::vector<DnfTerm> terms;
  bool complete = true;
};

DnfExpansion toDnfBudgeted(const BoolExpr& expr, control::Budget* budget);

// Unbudgeted convenience form: runs to completion.
std::vector<DnfTerm> toDnf(const BoolExpr& expr);

}  // namespace gpd
