// Predicate classifier (paper Fig. 1, Secs. 3.2–3.3).
//
// Decides, statically, which structural class a CNF predicate falls into on
// a given trace — everything the detection algorithms' applicability hinges
// on: singularity (clause-disjointness of hosting processes), uniform clause
// width k, the per-meta-process receive-/send-ordered preconditions of the
// Sec. 3.2 scan, and the per-clause cost inputs of Sec. 3.3 — the number of
// hosting processes kⱼ (process enumeration) and the minimum chain cover
// size cⱼ of the clause's true events (chain-cover enumeration). The true
// events and their cover (clocks/chain_cover.h) are kept, so a detector
// that scans the same events reuses them instead of building them again.
//
// The clause-true event sets and the Sec. 3.2 group-order test live here
// too, as the one copy the classifier and the detectors share: a shared
// cover is only valid over the event sequence the detector enumerates, and
// the CPDSC scan (detect/cpdsc.h) runs on the order decided here — from the
// classification in the Detector, from groupOrder() in its trace form.
//
// Stability (Chandy–Lamport), linearity (Chase–Garg), and regularity
// (Garg–Mittal: meet- AND join-closed, the class computation slicing is
// sound for) are *hints*: exact on small lattices (decided exhaustively),
// Unknown when the lattice is too large to enumerate (or, at
// latticeCutLimit 0, not enumerated at all) — except conjunctive
// predicates, which are linear by construction (Garg–Waldecker), and CNFs
// whose clauses are all single-process, which are regular by construction
// (each clause's satisfaction depends on one coordinate of the cut, so its
// cut set is closed under per-coordinate min/max).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "clocks/vector_clock.h"
#include "predicates/cnf.h"
#include "predicates/variable_trace.h"

namespace gpd::analyze {

enum class Hint { Yes, No, Unknown };

const char* toString(Hint h);

// Per-clause structural facts (clause j of the CNF).
struct ClauseFacts {
  int literals = 0;                   // clause width
  std::vector<ProcessId> processes;   // hosting processes, deduplicated
  int hostingChains = 0;              // kⱼ: non-empty per-process chains
  int chainCoverSize = 0;             // cⱼ: minimum chain cover (Dilworth)
  // The clause's clauseTrueEvents and their chainCover() (chainCoverSize
  // chains). Stored for the detectors, never rendered.
  std::vector<EventId> trueEvents;
  std::vector<std::vector<EventId>> cover;

  int trueEventCount() const { return static_cast<int>(trueEvents.size()); }
};

// The Sec. 3.2 preconditions over clause groups: every two receive (resp.
// send) events hosted by one group are causally ordered.
struct GroupOrder {
  bool receiveOrdered = false;
  bool sendOrdered = false;
};

struct CnfClassification {
  bool singular = false;     // no two clauses share a process
  bool conjunctive = false;  // singular 1-CNF (Garg–Waldecker class)
  std::optional<int> uniformK;  // k when every clause has exactly k literals

  std::vector<ClauseFacts> clauses;

  // Sec. 3.2 preconditions over the clause groups (meaningful only when
  // singular; false otherwise).
  bool receiveOrdered = false;
  bool sendOrdered = false;

  // Clauses hosted by exactly one process — the predicate's *regular
  // skeleton*, which the planner's slice-first step slices on.
  int singleProcessClauses = 0;

  // Exhaustive hints, Unknown above ClassifyOptions::latticeCutLimit.
  Hint stable = Hint::Unknown;
  Hint linear = Hint::Unknown;
  // Regularity (meet- and join-closure of the satisfying cuts): structural
  // Yes when every clause is single-process, else decided exhaustively.
  Hint regular = Hint::Unknown;

  // Π cⱼ and Π kⱼ — the two Sec. 3.3 enumeration bounds. Either is 0 when
  // some clause is never true (no detection work remains).
  std::uint64_t chainCoverBound() const;
  std::uint64_t processEnumerationBound() const;
};

struct ClassifyOptions {
  // Stability/linearity hints are decided exhaustively only while the cut
  // lattice stays within this many cuts; beyond it they stay Unknown. At 0
  // the predicate is not bound and the lattice is not visited at all.
  std::uint64_t latticeCutLimit = 20000;
};

// For each clause, the events on the clause's processes at which the clause
// is true (i.e., some literal of the clause holds), grouped by process in
// clauseProcesses order with ascending indices. A cut satisfies the
// predicate iff it passes through one such event per clause (Observation 1).
// `admittedNode` (Computation::node-indexed, optional) drops events outside
// an admitted set — the slice-first odometer pruning: an event excluded from
// the regular skeleton's slice lies in no satisfying cut, so no selection
// through it can succeed (the verdict is preserved; the witness may move to
// a different, equally valid selection).
std::vector<std::vector<EventId>> clauseTrueEvents(
    const VariableTrace& trace, const CnfPredicate& pred,
    const std::vector<char>* admittedNode = nullptr);

// The receive (or send) events hosted by a clause group, grouped by process
// in `group` order — Sec. 3.2's meta-process event sets.
std::vector<EventId> groupEventsOfKind(const Computation& comp,
                                       const std::vector<ProcessId>& group,
                                       bool receives);

// The one Sec. 3.2 group-order test. Both flags are true for no groups.
GroupOrder groupOrder(const VectorClocks& clocks,
                      const std::vector<std::vector<ProcessId>>& groups);

CnfClassification classifyCnf(const VectorClocks& clocks,
                              const VariableTrace& trace,
                              const CnfPredicate& pred,
                              const ClassifyOptions& opts = {});

}  // namespace gpd::analyze
