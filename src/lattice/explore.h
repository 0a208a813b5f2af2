// Exhaustive exploration of the lattice of consistent cuts.
//
// This is the Cooper–Marzullo style baseline (paper reference [5]): it
// decides possibly(φ) and definitely(φ) for *arbitrary* global predicates
// by searching the consistent cuts. Exponential in the number of processes
// — the whole point of the paper's algorithms is to avoid it — but exact,
// so it is the ground truth every efficient detector is validated against,
// and the comparison baseline in the benches.
//
// Four entry points: exploreConsistentCuts (visit every cut),
// findSatisfyingCut (possibly), decideDefinitely (definitely) and
// latticeStats. The visits and possibly run breadth-first, level by level,
// so the first witness is a lowest one; definitely runs depth-first, since
// one ¬φ run from ⊥ to ⊤ settles it (Cooper–Marzullo's path view). Each
// takes an optional Budget (control/budget.h): the search charges every
// visited/expanded cut (prepaid in batches of 64, the unused rest refunded
// at a stop) and reports its live frontier bytes, so a wall-clock deadline,
// a cut cap, or a frontier-memory cap turns an exponential blowup into an
// explicit incomplete result instead of a hang or an OOM. The possibly
// search also takes an optional par::Pool.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "clocks/vector_clock.h"
#include "computation/computation.h"
#include "computation/cut.h"
#include "control/budget.h"
#include "par/pool.h"

namespace gpd::lattice {

// A global predicate as a boolean function of a consistent cut (paper
// Sec. 2.3). Variable-based predicate classes adapt to this via
// predicates/eval.h.
using CutPredicate = std::function<bool(const Cut&)>;

// Restriction of the BFS to a sublattice (the slice-first pre-pass): called
// with the advanced process and the successor cut; returning false prunes
// that successor from the frontier. Soundness is the caller's business — the
// BFS then only covers the cuts reachable through admitted successors (for a
// slice restriction: every cut whose events are all included and that lies
// below the slice top, which contains every satisfying cut of any predicate
// implying the sliced one). Must be safe to call concurrently in the
// parallel forms.
using CutAdmit = std::function<bool(ProcessId, const Cut&)>;

// How an exploration ended. Callers that stop the visit early (searches)
// must be able to tell their own stop from true exhaustion — and both from
// a budget stop, which leaves part of the lattice unexamined.
enum class ExploreEnd {
  Exhausted,        // every consistent cut was visited
  VisitorStopped,   // visit returned false
  BudgetExhausted,  // the budget tripped; the lattice was NOT covered
};

struct ExploreResult {
  std::uint64_t cutsVisited = 0;
  ExploreEnd end = ExploreEnd::Exhausted;
  // Widest live frontier observed — for the BFS the cuts of one level plus
  // the next level under construction — the measured signal behind memory
  // budgets.
  std::uint64_t peakFrontierCuts = 0;
  std::uint64_t peakFrontierBytes = 0;
};

// Visits every consistent cut exactly once in level order (level = number of
// non-initial events). The Cut handed to `visit` (and to predicates and
// admits below) is valid only for the duration of the call; copy it to keep
// it. Stops early when `visit` returns false (VisitorStopped) or when the
// budget trips (BudgetExhausted); the result separates the two from genuine
// exhaustion.
// `restriction` (optional, here and in findSatisfyingCut) prunes successors
// from the frontier; the restricted BFS visits, level by level, exactly the
// full BFS's visit order filtered to the admitted region (the admitted
// sublattice's generator sets coincide, so the relative order of common cuts
// is preserved).
ExploreResult exploreConsistentCuts(const VectorClocks& clocks,
                                    const std::function<bool(const Cut&)>& visit,
                                    control::Budget* budget = nullptr,
                                    const CutAdmit* restriction = nullptr);

// Three-valued possibly(φ) search: `complete` is true when the answer is
// exact (a witness was found, or the whole lattice was searched); false
// means the budget stopped the search first — no witness is *not* a "no".
struct CutSearchResult {
  std::optional<Cut> witness;
  bool complete = true;
  ExploreResult explore;
};

// possibly(φ): the first consistent cut in BFS order that satisfies φ.
// With a pool, workers scan disjoint contiguous slices of each antichain
// frontier and their per-worker next-frontiers merge back in slice order,
// reproducing the sequential BFS frontier order exactly. The witness is the
// frontier's lowest-position satisfying cut (not the first finisher's), so
// the verdict, witness, complete flag and cutsVisited are bit-identical to
// the sequential search for any thread count under count/frontier budgets:
// charges that workers made past the witness position are refunded. A cut
// budget caps each frontier to the exact prefix the sequential scan would
// have charged before its CutLimit latch. With a pool, phi must be safe to
// call concurrently (the library's bound predicates are: evaluation is pure
// const reads of the trace's history columns).
CutSearchResult findSatisfyingCut(const VectorClocks& clocks,
                                  const CutPredicate& phi,
                                  control::Budget* budget = nullptr,
                                  par::Pool* pool = nullptr,
                                  const CutAdmit* restriction = nullptr);

// Three-valued definitely(φ): every run passes through a cut satisfying φ,
// i.e. no monotone path of ¬φ-cuts leads from the initial to the final cut.
// A depth-first search looks for one such path: it answers "no" as soon as
// it reaches ⊤ and "yes" only once the ¬φ region reachable from ⊥ is
// exhausted, so a "no" expands at most the cuts a level-by-level search
// would. `decided` is false when the budget stopped the search before it
// could prove either direction; without a budget it is always true. The
// explore counters count expanded ¬φ cuts and the peak of the visited set
// (φ-cuts included) plus the search stack.
struct DefinitelyDecision {
  bool decided = true;
  bool holds = false;
  // On a decided "no": the avoiding run, ⊥ first and ⊤ last. Each cut is
  // consistent, falsifies φ, and adds exactly one event to its predecessor.
  std::vector<Cut> avoidingRun;
  ExploreResult explore;
};

DefinitelyDecision decideDefinitely(const VectorClocks& clocks,
                                    const CutPredicate& phi,
                                    control::Budget* budget = nullptr);

struct LatticeStats {
  std::uint64_t cutCount = 0;   // number of consistent cuts counted so far
  int levels = 0;               // height of the lattice (final level + 1)
  std::uint64_t maxWidth = 0;   // widest level
  bool complete = true;         // false when a budget stopped the BFS early
};

// Counts the lattice level by level. The lattice can be exponential in the
// computation (PAPER.md), so a caller that is not prepared to wait must pass
// a Budget: each counted cut is charged as one cut, and when the budget
// trips the partial stats come back with complete == false.
LatticeStats latticeStats(const VectorClocks& clocks,
                          control::Budget* budget = nullptr);

}  // namespace gpd::lattice
