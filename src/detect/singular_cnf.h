// General-case detection of singular CNF predicates (paper Sec. 3.3).
//
// Detection is NP-complete (Theorem 1), but two algorithms beat naive
// lattice enumeration exponentially:
//
//  (a) Process enumeration: pick one hosting process per clause-group and
//      run CPDHB on the per-process true-event queues — at most k^m
//      combinations for m clauses of k processes each, versus the
//      O(Πₚ |Eₚ|) states of the cut lattice.
//  (b) Chain cover (Dilworth): cover each group's true events by a minimum
//      set of causal chains and enumerate one chain per group — Π cⱼ
//      combinations where cⱼ ≤ k is the cover size (cⱼ beats k whenever
//      messages order true events across the group's processes).
//
// Both are one odometer over selections of one chain per group, each
// selection one CPDHB scan (detect/cpdhb.h) that reads its chains in place,
// and both find a witness cut when the predicate possibly holds. The
// odometer is a chunked scan: with a pool its workers claim chunks of
// selection indices, without one it runs inline as a single worker. The
// clause true events come from analyze::clauseTrueEvents and the covers
// from clocks/chain_cover.h — the classifier's copies, so the Detector
// hands the planner's covers to (b) instead of building them a second time.
// The Detector runs (b) only: its plan ranks (a) after (b) with a
// prediction Π kⱼ ≥ Π cⱼ; (a) stays for the E6 bench's k^m column.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analyze/classify.h"
#include "clocks/vector_clock.h"
#include "computation/cut.h"
#include "control/budget.h"
#include "detect/cpdhb.h"
#include "par/pool.h"
#include "predicates/cnf.h"

namespace gpd::detect {

struct SingularCnfResult {
  bool found = false;
  std::optional<Cut> cut;
  std::vector<EventId> witness;        // one true event per clause
  std::uint64_t combinationsTried = 0; // CPDHB invocations performed
  std::uint64_t combinationsTotal = 0; // size of the enumeration space
  std::uint64_t comparisons = 0;       // total consistency checks
  // False when a budget stopped the enumeration early: found=false then
  // means "unknown", not "no" (a witness may hide among untried selections).
  bool complete = true;
};

// Sec. 3.3(a). Requires pred.isSingular(). The budget is charged one
// combination per CPDHB invocation; on exhaustion the result carries
// complete=false and the selections tried so far.
//
// Selections are numbered by their odometer index (group 0 is the fastest
// digit). The verdict, witness (lowest satisfying index), combinationsTotal,
// complete flag and combinationsTried (on a Yes, the witness index + 1, also
// what the budget is left charged with) are the same with or without a pool
// and for any thread count — only comparisons, summed over every claim a
// worker made, may differ. A combination budget caps the scan to the index
// prefix it can pay for, and a scan that ends inside the space without a
// hit charges once more, latching the budget's CombinationLimit.
SingularCnfResult detectSingularByProcessEnumeration(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget = nullptr,
    par::Pool* pool = nullptr,
    const std::vector<char>* admittedNode = nullptr);

// Sec. 3.3(b). Requires pred.isSingular(). Budgeted and parallelized
// like (a). Covers the clause-true events (admitted ones only, with a
// mask) with clauseChainCovers and enumerates them.
SingularCnfResult detectSingularByChainCover(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget = nullptr,
    par::Pool* pool = nullptr,
    const std::vector<char>* admittedNode = nullptr);

// Sec. 3.3(b) over the classifier's covers (analyze::ClauseFacts::cover) of
// a singular CNF, read in place — the covers the overload above builds
// without a mask.
SingularCnfResult detectSingularByChainCover(
    const VectorClocks& clocks, const analyze::CnfClassification& cls,
    control::Budget* budget = nullptr, par::Pool* pool = nullptr);

// Minimum chain covers (clocks/chain_cover.h) of each clause's
// analyze::clauseTrueEvents; exposed for the A1 ablation bench (cover sizes
// vs group sizes).
std::vector<std::vector<Chain>> clauseChainCovers(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred,
    const std::vector<char>* admittedNode = nullptr);

}  // namespace gpd::detect
