// Cost planner: the routing layer of the paper's complexity landscape
// (Fig. 1).
//
// Given a predicate and a trace, emits a ranked AnalysisReport of algorithm
// plan steps — cheapest applicable first — with predicted work attached:
// for the Sec. 3.3 enumerations the *exact* number of CPDHB invocations the
// detector will budget (the Π cⱼ chain-cover bound vs the Π kⱼ
// process-enumeration bound, kⱼ ≤ k for k-CNF, hence the paper's kᵐ), for
// CPDSC the meta-process scan, for sums the Theorem 4/7 preconditions.
//
// Detector dispatches off report.chosen() — the planner is the single
// source of truth for routing, and Algorithm names round-trip through
// toString() to the exact Detector::lastAlgorithm() strings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "analyze/classify.h"
#include "analyze/diagnostic.h"
#include "clocks/vector_clock.h"
#include "predicates/boolean_expr.h"
#include "predicates/cnf.h"
#include "predicates/local.h"
#include "predicates/relational.h"
#include "predicates/symmetric.h"
#include "predicates/variable_trace.h"

namespace gpd::analyze {

enum class Modality { Possibly, Definitely };

const char* toString(Modality m);

// Every algorithm the detection layer can run. toString() returns the
// historical Detector::lastAlgorithm() name.
enum class Algorithm {
  SliceFirst,
  Cpdhb,
  CpdscSpecialCase,
  SingularChainCover,
  SingularProcessEnumeration,
  LatticeEnumeration,
  MinCutExtrema,
  Theorem7ExactSum,
  SymmetricExactSumDisjunction,
  DnfDecomposition,
  IntervalDefinitely,
  LatticeDefinitely,
  Theorem7Definitely,
};

const char* toString(Algorithm a);

struct PlanStep {
  Algorithm algorithm = Algorithm::LatticeEnumeration;
  bool applicable = true;
  // Exact number of CPDHB invocations the step budgets (the detector's
  // combinationsTotal) — for the enumeration steps and CPDHB itself;
  // nullopt for steps whose cost is not CPDHB-shaped.
  std::optional<std::uint64_t> predictedCpdhbInvocations;
  // For the slice-first step: predicted size of the regular skeleton's
  // sublattice (Π per-process skeleton-true levels, saturating) — the
  // detector reports actual explored cuts against it (plan-vs-actual).
  std::optional<std::uint64_t> predictedSublatticeCuts;
  bool predictionSaturated = false;  // predictedSublatticeCuts hit 2^64-1
  std::string bound;      // cost formula, e.g. "Π cj = 3·2 = 6"
  std::string rationale;  // why this step is (in)applicable / ranked here
  std::string note;       // a pre-check the step runs first; may be empty
};

// The analysis artifact detection dispatches on.
struct AnalysisReport {
  std::string predicate;  // human-readable predicate form
  Modality modality = Modality::Possibly;
  std::optional<CnfClassification> cnf;  // present for CNF predicates
  std::vector<PlanStep> steps;           // ranked, best first
  std::vector<Diagnostic> notes;         // informational findings
  // Worker threads the detector will run the chosen step with (1 =
  // sequential). Parallelism never changes a step's predicted cost or the
  // cost-skip decisions — the combination/cut totals are thread-invariant
  // by the par determinism contract — so the knob is report-only: it tells
  // the reader how the same total work will be spread.
  int threads = 1;

  // The first applicable step — what Detector will run.
  const PlanStep& chosen() const;
};

AnalysisReport planConjunctive(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const ConjunctivePredicate& pred, Modality m);
AnalysisReport planCnf(const VectorClocks& clocks, const VariableTrace& trace,
                       const CnfPredicate& pred, Modality m,
                       const ClassifyOptions& opts = {});
AnalysisReport planSum(const VectorClocks& clocks, const VariableTrace& trace,
                       const SumPredicate& pred, Modality m);
AnalysisReport planSymmetric(const VectorClocks& clocks,
                             const VariableTrace& trace,
                             const SymmetricPredicate& pred, Modality m);
AnalysisReport planExpression(const VectorClocks& clocks,
                              const VariableTrace& trace, const BoolExpr& expr,
                              Modality m);

// Renderers for `gpdtool plan` (text and -f json).
void renderPlanText(std::ostream& os, const AnalysisReport& report);
void renderPlanJson(std::ostream& os, const AnalysisReport& report);

}  // namespace gpd::analyze
