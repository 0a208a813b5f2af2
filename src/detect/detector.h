// High-level detection facade.
//
// Routing is delegated to the static-analysis planner (src/analyze): every
// call first builds an analyze::AnalysisReport — the ranked algorithm plan
// of the paper's complexity landscape (Fig. 1) — then runs the plan's
// chosen step:
//
//   conjunctive                → CPDHB                       (polynomial)
//   singular CNF,
//     receive-/send-ordered    → CPDSC meta-process scan     (polynomial)
//     general                  → chain-cover enumeration     (Π cⱼ · CPDHB)
//   non-singular CNF           → lattice enumeration         (exponential)
//   Σxᵢ relop K, relop ≠ "="   → min-cut extrema             (polynomial)
//   Σxᵢ = K, |ΔS| ≤ 1          → Theorem 7                   (polynomial)
//   Σxᵢ = K, arbitrary Δ       → lattice enumeration         (NP-complete)
//   symmetric                  → disjunction of exact sums   (polynomial)
//
// `lastAlgorithm()` reports which branch ran (the chosen step's name), and
// `lastReport()` exposes the full plan — the same artifact `gpdtool plan`
// prints — so examples and logs can show the dispatch decision.
//
// Every query takes one path, the plan walk. The budgeted overloads
// (control::Budget&) return a three-valued Detection and degrade gracefully
// instead of running an exponential step to completion: the walk skips
// steps whose planner-predicted CPDHB invocation count exceeds the budget's
// remaining combinations, refuses to fall through to an exhaustive lattice
// step the budget cannot stop, and — before conceding Unknown — reruns the
// cheapest skipped enumeration as a bounded Yes-prover (it scans selections
// until the budget trips; a witness it finds is a genuine Yes). The
// unbudgeted overloads run the same walk under an unlimited Budget, which
// always completes, and unwrap its answer — so a budgeted run that completes
// within its budget without skipping a step (Detection::skippedSteps empty)
// returns the unbudgeted answer and lastAlgorithm() string by construction.
// A walk that skips a step for cost may answer from a later step instead:
// sound, but possibly another algorithm and witness.
#pragma once

#include <optional>
#include <string>

#include "analyze/plan.h"
#include "clocks/vector_clock.h"
#include "control/budget.h"
#include "detect/cpdhb.h"
#include "lattice/explore.h"
#include "par/pool.h"
#include "detect/cpdsc.h"
#include "detect/definitely_conjunctive.h"
#include "detect/dnf_detect.h"
#include "detect/outcome.h"
#include "detect/singular_cnf.h"
#include "detect/sum.h"
#include "detect/symmetric.h"
#include "predicates/cnf.h"
#include "predicates/local.h"
#include "predicates/relational.h"
#include "predicates/symmetric.h"

namespace gpd::detect {

class Detector {
 public:
  // The trace (and its computation) must outlive the detector.
  explicit Detector(const VariableTrace& trace)
      : trace_(&trace), clocks_(trace.computation()) {}

  const VectorClocks& clocks() const { return clocks_; }

  // Runs the super-polynomial kernels (the Sec. 3.3 enumerations and the
  // generic lattice searches) on `pool`'s workers; nullptr (the default)
  // keeps everything sequential. The pool must outlive the detector calls.
  // Verdicts and witnesses are bit-identical either way (see par/pool.h);
  // the polynomial special cases (CPDHB, CPDSC, Theorem 7, min-cut) never
  // use the pool — they are cheaper than a fan-out.
  void usePool(par::Pool* pool) { pool_ = pool; }
  par::Pool* pool() const { return pool_; }

  // Slice-first pre-pass (on by default): when the planner's ranked plan
  // carries a slice-first step — the CNF has single-process clauses forming
  // a regular skeleton — the detector slices the computation on that
  // skeleton first and restricts the downstream search to the slice's
  // sublattice. Verdicts and witnesses are bit-identical to the unsliced
  // search (the restricted BFS preserves the full BFS's visit order over
  // the admitted region, which contains every satisfying cut); turning it
  // off forces the historical unsliced paths, e.g. for A/B benching.
  void enableSlicing(bool on) { slicing_ = on; }
  bool slicingEnabled() const { return slicing_; }

  // possibly(φ): witness cut or nullopt.
  std::optional<Cut> possibly(const ConjunctivePredicate& pred);
  std::optional<Cut> possibly(const CnfPredicate& pred);
  std::optional<Cut> possibly(const SumPredicate& pred);
  std::optional<Cut> possibly(const SymmetricPredicate& pred);
  std::optional<Cut> possibly(const BoolExpr& expr);

  // definitely(φ).
  bool definitely(const ConjunctivePredicate& pred);
  bool definitely(const CnfPredicate& pred);
  bool definitely(const SumPredicate& pred);
  bool definitely(const SymmetricPredicate& pred);

  // Budgeted, three-valued variants; the unbudgeted forms above delegate to
  // them. The budget is shared across the whole call (plan walk +
  // fallbacks); pass a fresh Budget per query unless amortizing one deadline
  // over several.
  Detection possibly(const ConjunctivePredicate& pred, control::Budget& budget);
  Detection possibly(const CnfPredicate& pred, control::Budget& budget);
  Detection possibly(const SumPredicate& pred, control::Budget& budget);
  Detection possibly(const SymmetricPredicate& pred, control::Budget& budget);
  Detection possibly(const BoolExpr& expr, control::Budget& budget);
  Detection definitely(const ConjunctivePredicate& pred,
                       control::Budget& budget);
  Detection definitely(const CnfPredicate& pred, control::Budget& budget);
  Detection definitely(const SumPredicate& pred, control::Budget& budget);
  Detection definitely(const SymmetricPredicate& pred, control::Budget& budget);

  // Name of the algorithm selected by the most recent call.
  const std::string& lastAlgorithm() const { return lastAlgorithm_; }

  // Full analysis report behind the most recent routing decision.
  const analyze::AnalysisReport& lastReport() const { return report_; }

  // Slice pre-pass accounting for the most recent call; nullopt when the
  // plan carried no slice-first step (or slicing is disabled).
  const std::optional<SliceTrace>& lastSlice() const { return lastSlice_; }

 private:
  // Stores `report` (stamped with the pool's thread count) as the last
  // routing decision, the plan the walk then runs.
  void adopt(analyze::AnalysisReport report);

  const VariableTrace* trace_;
  VectorClocks clocks_;
  par::Pool* pool_ = nullptr;
  bool slicing_ = true;
  std::string lastAlgorithm_;
  analyze::AnalysisReport report_;
  std::optional<SliceTrace> lastSlice_;
};

}  // namespace gpd::detect
