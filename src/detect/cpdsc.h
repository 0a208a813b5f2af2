// Polynomial-time singular k-CNF detection for receive-ordered and
// send-ordered computations (paper Sec. 3.2, after Tarafdar–Garg's CPDSC).
//
// Observation 1 turns each clause-group into a *meta-process* whose events
// are partially ordered. When all receive events on every meta-process are
// totally ordered (a receive-ordered computation), the partial order can be
// extended — an arrow from every event to each *independent* receive on its
// meta-process — and linearized into σ. Property P then holds: whenever
// succ(e) ≤ f for events on different meta-processes, e is inconsistent
// with every event of f's meta-process at or after f in σ (the causal path
// from succ(e) enters f's group at a receive r ≤ f, and a receive precedes
// every σ-later event of its group). That makes CPDHB's elimination sound
// on per-group queues sorted by σ: CPDSC sorts the clause-true events of
// each group by σ and runs the one scan of detect/cpdhb.h on them, an
// O((Σ|E|)²) scan.
//
// The send-ordered case is the exact dual: reverse the computation (sends
// become receives, cuts map to complements — computation/reverse.h) and run
// the receive-ordered scan on the image true events.
//
// The group order is decided once, by analyze (classify.h): the Detector
// hands over its classification, the trace form asks analyze::groupOrder.
// Groups that are neither receive- nor send-ordered get NotApplicable,
// never an answer.
#pragma once

#include <optional>
#include <vector>

#include "analyze/classify.h"
#include "clocks/vector_clock.h"
#include "computation/cut.h"
#include "computation/event.h"
#include "predicates/cnf.h"

namespace gpd::detect {

// Meta-process structure: a partition of (a subset of) the processes.
using Groups = std::vector<std::vector<ProcessId>>;

Groups groupsOfSingularCnf(const CnfPredicate& pred);

struct CpdscResult {
  enum class Status { Found, NotFound, NotApplicable };
  Status status = Status::NotApplicable;
  std::vector<EventId> witness;  // one clause-true event per group
  std::optional<Cut> cut;

  bool found() const { return status == Status::Found; }
  bool applicable() const { return status != Status::NotApplicable; }
};

// Sec. 3.2 over a classified singular CNF: the classifier's group order and
// clause-true events (receive-ordered is preferred when both orders hold).
CpdscResult detectSingularSpecialCase(const VectorClocks& clocks,
                                      const analyze::CnfClassification& cls);

// Sec. 3.2 end-to-end: builds the groups and clause-true events of a
// singular CNF predicate and asks analyze::groupOrder for their order.
CpdscResult detectSingularSpecialCase(const VectorClocks& clocks,
                                      const VariableTrace& trace,
                                      const CnfPredicate& pred);

}  // namespace gpd::detect
