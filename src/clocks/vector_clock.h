// Fidge–Mattern vector clocks over a computation (paper Sec. 2).
//
// V(e)[p] is the largest index of an event on process p that causally
// precedes-or-equals e (0 when only the initial event ⊥ₚ does). All of the
// paper's order-theoretic tests reduce to O(1) or O(n) clock comparisons:
//
//   e ≤ f                      ⟺  V(f)[proc(e)] ≥ idx(e)          (non-initial e)
//   succ(e) ≤ f                ⟺  V(f)[proc(e)] ≥ idx(e) + 1
//   e, f consistent (Sec. 2.2) ⟺  V(f)[proc(e)] ≤ idx(e) ∧ V(e)[proc(f)] ≤ idx(f)
//   cut C consistent           ⟺  ∀p,q: V(C[p]@p)[q] ≤ C[q]
#pragma once

#include <vector>

#include "computation/computation.h"
#include "computation/cut.h"
#include "computation/event.h"

namespace gpd {

class VectorClocks {
 public:
  explicit VectorClocks(const Computation& c);

  const Computation& computation() const { return *comp_; }

  // V(e)[p].
  int clock(const EventId& e, ProcessId p) const {
    return clocks_[static_cast<std::size_t>(comp_->node(e)) * n_ + p];
  }

  // The clock row of event {p, index}: n entries, row[q] = V(e)[q]. A
  // process's events are numbered consecutively, so its rows are contiguous
  // and n-strided: row(p, i + 1) == row(p, i) + n. The lattice BFS walks
  // them directly for its enabled() test.
  const int* row(ProcessId p, int index) const {
    return &clocks_[static_cast<std::size_t>(comp_->node({p, index})) * n_];
  }

  // The full timestamp of e, as sent on the wire by the online monitor.
  std::vector<int> clockVector(const EventId& e) const {
    const int* row = &clocks_[static_cast<std::size_t>(comp_->node(e)) * n_];
    return std::vector<int>(row, row + n_);
  }

  // e ≤ f in the computation's partial order (reflexive).
  bool leq(const EventId& e, const EventId& f) const;

  // e ≺ f (irreflexive).
  bool precedes(const EventId& e, const EventId& f) const {
    return !(e == f) && leq(e, f);
  }

  // Independent (incomparable) events, paper Sec. 2.2.
  bool concurrent(const EventId& e, const EventId& f) const {
    return !(e == f) && !leq(e, f) && !leq(f, e);
  }

  // Some consistent cut passes through both e and f (paper Sec. 2.2:
  // inconsistent iff succ(e) ≤ f or succ(f) ≤ e). For events on the same
  // process this requires e == f.
  bool pairConsistent(const EventId& e, const EventId& f) const;

  // succ(e) ≤ f, the elimination test of the CPDHB algorithm family. False
  // when e is the last event of its process.
  bool succLeq(const EventId& e, const EventId& f) const {
    return clock(f, e.process) >= e.index + 1;
  }

  // Cut consistency (paper Sec. 2.2). O(n²).
  bool isConsistent(const Cut& cut) const;

  // Whether the next event of process p after `cut` may execute: all its
  // causal predecessors outside p are inside the cut. Requires the event
  // {p, cut.last[p]+1} to exist.
  bool enabled(ProcessId p, const Cut& cut) const;

  // The least consistent cut that passes through all the given events, i.e.
  // join of their causal histories. Precondition: the events are pairwise
  // consistent (checked).
  Cut leastConsistentCutThrough(const std::vector<EventId>& events) const;

 private:
  const Computation* comp_;
  int n_;
  std::vector<int> clocks_;  // node-major, n_ entries per event
};

}  // namespace gpd
