// Weak conjunctive predicate detection — Garg–Waldecker's CPDHB algorithm
// (paper reference [9]) — and the one elimination scan every Sec. 3
// algorithm runs.
//
// The one scan (eliminationScan) takes one candidate list per slot and finds
// a selection of one event per list that is pairwise consistent
// (equivalently, by Observation 1, a consistent cut through all of them),
// or reports none exists. The elimination rule: if succ(e) ≤ f for the
// current candidates e, f of two different slots, then e is dead — advance
// e's list. Each elimination consumes one event, giving O((Σ|list|)²)
// consistency checks in the worst case with the work-queue formulation,
// each check O(1) via vector clocks.
//
// The rule is sound whenever a dead e is also inconsistent with every later
// candidate of f's list. Two list orders guarantee it:
//  - causal chains (CPDHB and the Sec. 3.3 enumerations, which run it once
//    per selection of one chain per clause group): every later candidate
//    dominates f;
//  - σ-sorted meta-process queues of a receive-ordered computation (CPDSC,
//    detect/cpdsc.h): Property P of Sec. 3.2.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "clocks/vector_clock.h"
#include "computation/cut.h"
#include "computation/event.h"
#include "predicates/local.h"

namespace gpd::detect {

// A causal chain of events: events[i] ≤ events[i+1].
using Chain = std::vector<EventId>;

// One slot's candidate list, read in place.
using Candidates = std::span<const EventId>;

struct ConjunctiveResult {
  bool found = false;
  std::vector<EventId> witness;  // one event per slot, pairwise consistent
  std::optional<Cut> cut;        // least consistent cut through the witness
  std::uint64_t comparisons = 0; // consistency checks performed
};

// The one scan. No lists: found at the initial cut; an empty list: not
// found. The caller vouches for the list order (see above); the scan
// neither checks it nor records metrics.
ConjunctiveResult eliminationScan(const VectorClocks& clocks,
                                  std::span<const Candidates> lists);

// CPDHB over causal chains: the one scan, a GPD_DCHECK of each chain's
// causal order, and the cpdhb_invocations / cpdhb_comparisons counters.
// Chains of different slots may share events (the witness then names one
// event twice).
ConjunctiveResult findConsistentSelection(const VectorClocks& clocks,
                                          std::span<const Candidates> chains);
ConjunctiveResult findConsistentSelection(const VectorClocks& clocks,
                                          const std::vector<Chain>& chains);

// Classic CPDHB: possibly(⋀ local predicates), one term per distinct process.
// Chains are the per-process true-event queues.
ConjunctiveResult detectConjunctive(const VectorClocks& clocks,
                                    const VariableTrace& trace,
                                    const ConjunctivePredicate& pred);

// Convenience overload computing the vector clocks internally.
ConjunctiveResult detectConjunctive(const VariableTrace& trace,
                                    const ConjunctivePredicate& pred);

}  // namespace gpd::detect
