#include "detect/detector.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "detect/slice.h"
#include "lattice/explore.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace gpd::detect {

namespace {

// Dispatch-time classification: skip the lattice-backed stability/linearity
// hints — routing never depends on them and detection should not pay for an
// exhaustive enumeration before it starts.
analyze::ClassifyOptions routingOptions() {
  analyze::ClassifyOptions opts;
  opts.latticeCutLimit = 0;
  return opts;
}

// Outcome of running one plan step under a budget.
struct StepRun {
  bool ran = false;       // false: the step does not run in this context
  bool complete = false;  // true: `outcome` is exact
  Outcome outcome = Outcome::Unknown;
  std::optional<Cut> witness;
  // Set (with ran == false) when the step declined to run for a reason worth
  // tracing — e.g. the slice pre-pass lacked budget headroom. The walk
  // records it as a skipped step and falls through to the next one.
  std::string skipNote;
  // A lattice-definitely "no": the ⊥→⊤ run of ¬φ-cuts that proves it.
  std::vector<Cut> avoidingRun;
};

StepRun exactRun(Outcome outcome, std::optional<Cut> witness = std::nullopt) {
  StepRun run;
  run.ran = true;
  run.complete = true;
  run.outcome = outcome;
  run.witness = std::move(witness);
  return run;
}

StepRun stoppedRun() {
  StepRun run;
  run.ran = true;
  return run;
}

StepRun exactPossibly(std::optional<Cut> witness) {
  return witness.has_value() ? exactRun(Outcome::Yes, std::move(witness))
                             : exactRun(Outcome::No);
}

StepRun exactDefinitely(bool holds) {
  return exactRun(holds ? Outcome::Yes : Outcome::No);
}

StepRun latticeDefinitely(lattice::DefinitelyDecision d) {
  if (!d.decided) return stoppedRun();
  StepRun run = exactDefinitely(d.holds);
  run.avoidingRun = std::move(d.avoidingRun);
  return run;
}

// The range test ahead of an exact-sum lattice step: no consistent cut has
// S = K when K lies outside [min S, max S], and each bound costs one
// closure (Sec. 4.2) against the NP-complete search (Theorem 2). Solves the
// max side first and the min side only when K ≤ max S.
bool outsideSumRange(const VariableTrace& trace, const SumPredicate& pred) {
  SumRange range(trace.computation(), trace, pred.terms);
  if (pred.k <= range.max().sum && pred.k >= range.min().sum) return false;
  GPD_OBS_COUNTER_ADD("sum_range_precheck_decided", 1);
  return true;
}

// A run from ⊥ to ⊤ that executes the events in topological order: the
// avoiding run of a definitely(S = K) the range test refuted, since no cut
// on any run has S = K.
std::vector<Cut> topologicalRun(const Computation& comp) {
  std::vector<Cut> run{initialCut(comp)};
  for (const int node : comp.topologicalOrder()) {
    const EventId e = comp.event(node);
    if (e.isInitial()) continue;
    run.push_back(run.back());
    run.back().last[e.process] = e.index;
  }
  return run;
}

// Truth table of the CNF's regular skeleton: ok[p][i] is true iff every
// single-process clause hosted on p holds at p's event i. An empty ok[p]
// means p hosts no single-process clause (unconstrained by the skeleton).
std::vector<std::vector<char>> skeletonTruth(const VariableTrace& trace,
                                             const CnfPredicate& pred) {
  std::vector<std::vector<char>> ok(trace.computation().processCount());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    const std::vector<ProcessId> procs =
        pred.clauseProcesses(static_cast<int>(j));
    if (procs.size() != 1) continue;
    const ProcessId p = procs[0];
    const std::vector<char> truth = eventTruth(trace, p, pred.clauses[j]);
    if (ok[p].empty()) {
      ok[p] = truth;
      continue;
    }
    for (std::size_t i = 0; i < truth.size(); ++i) ok[p][i] &= truth[i];
  }
  return ok;
}

// Slices the computation on the CNF's regular skeleton. A process whose
// hosted single-process clause is false at the cut's frontier is forbidden
// (the clause depends on that one coordinate only, so any satisfying
// extension must advance it). The skeleton is regular by construction —
// each clause's cut set is closed under per-coordinate min/max — so slicing
// is sound without the join-closure check. Records the build in `strace`
// and the slice_* counters; a slice the budget stopped excludes nothing.
Slice buildSkeletonSlice(const VectorClocks& clocks, const VariableTrace& trace,
                         const CnfPredicate& pred, control::Budget* budget,
                         SliceTrace& strace) {
  strace.eventsTotal =
      static_cast<std::uint64_t>(trace.computation().totalEvents());
  const std::vector<std::vector<char>> ok = skeletonTruth(trace, pred);
  const ForbiddenFn oracle = [&ok](const Cut& cut) -> std::optional<ProcessId> {
    for (ProcessId p = 0; p < static_cast<ProcessId>(ok.size()); ++p) {
      if (!ok[p].empty() && !ok[p][cut.last[p]]) return p;
    }
    return std::nullopt;
  };
  SliceOptions sopts;
  sopts.budget = budget;
  sopts.verifyRegular = false;  // regular by construction
  Stopwatch watch;
  Slice slice = computeSlice(clocks, oracle, sopts);
  strace.buildNanos = watch.elapsedNanos();
  strace.oracleCalls = slice.oracleCalls;
  GPD_OBS_COUNTER_ADD("slice_prepasses", 1);
  GPD_OBS_HISTOGRAM("slice_build_nanos", strace.buildNanos);
  if (slice.complete) {
    strace.eventsExcluded =
        slice.satisfiable ? slice.excludedEvents() : strace.eventsTotal;
    GPD_OBS_COUNTER_ADD("slice_events_excluded", strace.eventsExcluded);
  }
  return slice;
}

// The slice-first pre-pass (planner Algorithm::SliceFirst): slice the
// computation on the regular skeleton, then run the full-CNF lattice search
// restricted to the slice's sublattice. Bit-identity with the unsliced
// search: every CNF-satisfying cut satisfies the skeleton, so all its events
// are slice-included and it lies below the slice top — the admitted region
// contains every satisfying cut, and the restricted BFS preserves the full
// BFS's level order over that region, so the first witness is the same cut
// (sequentially and in the pool's deterministic parallel form alike).
StepRun runSliceFirst(const VectorClocks& clocks, const VariableTrace& trace,
                      const CnfPredicate& pred, const analyze::PlanStep& step,
                      par::Pool* pool, control::Budget* budget,
                      SliceTrace& strace) {
  const Computation& comp = trace.computation();
  strace.predictedCuts = step.predictedSublatticeCuts.value_or(0);
  strace.predictedSaturated = step.predictionSaturated;
  const Slice slice = buildSkeletonSlice(clocks, trace, pred, budget, strace);
  if (!slice.complete) {
    StepRun run;
    run.skipNote = "slice pre-pass exhausted the budget building the slice";
    return run;
  }
  if (!strace.predictedSaturated) {
    GPD_OBS_COUNTER_ADD("slice_predicted_cuts", strace.predictedCuts);
  }
  if (!slice.satisfiable) {
    // The skeleton alone is unsatisfiable, hence so is the conjunction.
    return exactRun(Outcome::No);
  }
  bool allSingleProcess = true;
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    if (pred.clauseProcesses(static_cast<int>(j)).size() != 1) {
      allSingleProcess = false;
      break;
    }
  }
  if (allSingleProcess) {
    // Fully regular: the skeleton IS the predicate and slice.bottom is its
    // unique least satisfying cut — exactly the unsliced BFS's first
    // witness (it sits alone on the lowest satisfying level).
    return exactRun(Outcome::Yes, slice.bottom);
  }
  strace.usedSlice = true;
  const lattice::CutAdmit admit = [&](ProcessId p, const Cut& succ) {
    const int idx = succ.last[p];
    if (idx > slice.top.last[p]) return false;
    return slice.included(comp.node({p, idx}));
  };
  const lattice::CutPredicate phi = pred.bind(trace);
  const lattice::CutSearchResult search =
      lattice::findSatisfyingCut(clocks, phi, budget, pool, &admit);
  strace.exploredCuts = search.explore.cutsVisited;
  GPD_OBS_COUNTER_ADD("slice_explored_cuts", strace.exploredCuts);
  if (!search.complete) return stoppedRun();
  return exactPossibly(search.witness);
}

// Odometer pruning for the singular enumerations (Sec. 3.3): slice on the
// predicate's single-process clauses and drop slice-excluded events from the
// per-clause true-event queues. An excluded event lies in no
// skeleton-satisfying cut, hence in no satisfying cut of the conjunction, so
// every selection through it is doomed — the verdict is preserved; only the
// selection indices (and possibly the witness selection) shift. Gated to
// enumeration spaces past 64 combinations so small runs keep their
// historical selection order bit-for-bit.
struct SkeletonPruning {
  bool built = false;          // a slice was computed (strace is meaningful)
  bool active = false;         // admitted mask applies
  bool unsatisfiable = false;  // skeleton already rules out every cut
  std::vector<char> admitted;
  SliceTrace strace;
};

SkeletonPruning pruneSingularOdometer(const VectorClocks& clocks,
                                      const VariableTrace& trace,
                                      const CnfPredicate& pred,
                                      const analyze::CnfClassification& cls) {
  SkeletonPruning out;
  if (cls.singleProcessClauses == 0) return out;
  if (cls.chainCoverBound() <= 64) return out;
  out.built = true;
  // Unbudgeted on purpose: the build is O(|E|) linear walks — tiny against
  // the >64-combination enumeration it prunes — and budget-independence
  // keeps the enumeration scanning the same selection sequence under any
  // budget.
  const Slice slice =
      buildSkeletonSlice(clocks, trace, pred, nullptr, out.strace);
  if (!slice.satisfiable) {
    out.unsatisfiable = true;
    return out;
  }
  out.strace.usedSlice = true;
  out.active = true;
  const int total = trace.computation().totalEvents();
  out.admitted.assign(static_cast<std::size_t>(total), 0);
  for (int node = 0; node < total; ++node) {
    out.admitted[static_cast<std::size_t>(node)] = slice.included(node) ? 1 : 0;
  }
  return out;
}

// Feeds the planner-accuracy metrics once a predicted enumeration step has
// actually run: predicted vs observed CPDHB invocations, plus their
// absolute error in the plan_vs_actual histogram.
void recordPlanVsActual(const analyze::PlanStep& step, std::uint64_t actual) {
  if (!step.predictedCpdhbInvocations.has_value()) return;
  const std::uint64_t predicted = *step.predictedCpdhbInvocations;
  (void)predicted;
  (void)actual;
  GPD_OBS_COUNTER_ADD("plan_predicted_combinations", predicted);
  GPD_OBS_COUNTER_ADD("plan_actual_combinations", actual);
  GPD_OBS_HISTOGRAM("plan_vs_actual", predicted > actual ? predicted - actual
                                                         : actual - predicted);
}

// Runs one plan step under a span/stopwatch and appends its StepTrace.
// `combinationsBefore` lets the plan-accuracy metrics attribute only this
// step's CPDHB invocations.
template <typename RunStep>
StepRun runTimedStep(const analyze::PlanStep& step, const RunStep& runStep,
                     control::Budget& budget, Detection& det) {
  const char* name = analyze::toString(step.algorithm);
  const std::uint64_t combinationsBefore = budget.progress().combinationsTried;
  StepRun run;
  std::uint64_t durationNs = 0;
  {
    GPD_TRACE_SPAN_NAMED(span, "plan.step");
    span.attrStr("algorithm", name);
    Stopwatch watch;
    run = runStep(step);
    durationNs = watch.elapsedNanos();
    span.attrStr("ran", run.ran ? "yes" : "no");
  }
  if (!run.ran) return run;
  GPD_OBS_COUNTER_ADD("plan_steps_run", 1);
  recordPlanVsActual(step,
                     budget.progress().combinationsTried - combinationsBefore);
  StepTrace trace;
  trace.algorithm = name;
  trace.status = StepTrace::Status::Ran;
  trace.durationNanos = durationNs;
  trace.complete = run.complete;
  det.steps.push_back(std::move(trace));
  return run;
}

// Remembers a skipped plan step in both the legacy string list and the
// structured trace, and counts it.
void noteSkippedStep(Detection& det, const analyze::PlanStep& step,
                     StepTrace::Status status, std::string reason) {
  const char* name = analyze::toString(step.algorithm);
  det.skippedSteps.push_back(std::string(name) + ": " + reason);
  StepTrace trace;
  trace.algorithm = name;
  trace.status = status;
  trace.reason = std::move(reason);
  det.steps.push_back(std::move(trace));
  GPD_OBS_COUNTER_ADD("plan_steps_skipped", 1);
}

// The graceful-degradation walk shared by every budgeted entry point.
// Visits the ranked applicable steps; a step whose planner-predicted CPDHB
// invocation count exceeds the remaining combination budget is skipped (and
// remembered), an exhaustive lattice step reached after such a skip only
// runs if the budget can actually stop it, and — when the walk ends without
// an exact answer — the first skipped enumeration reruns as a bounded
// Yes-prover before the call concedes Unknown.
template <typename RunStep>
Detection walkPlan(const analyze::AnalysisReport& report,
                   control::Budget& budget, std::string& lastAlgorithm,
                   const RunStep& runStep) {
  GPD_TRACE_SPAN("detect.query");
  GPD_OBS_COUNTER_ADD("detector_queries", 1);
  Detection det;
  const analyze::PlanStep* firstSkipped = nullptr;
  bool costSkipped = false;
  for (const analyze::PlanStep& step : report.steps) {
    if (!step.applicable) continue;
    if (budget.exhausted()) break;
    const char* name = analyze::toString(step.algorithm);
    if (step.predictedCpdhbInvocations.has_value() &&
        *step.predictedCpdhbInvocations > budget.remainingCombinations()) {
      noteSkippedStep(det, step, StepTrace::Status::SkippedCost,
                      "predicted " +
                          std::to_string(*step.predictedCpdhbInvocations) +
                          " combinations exceed the remaining budget");
      if (firstSkipped == nullptr) firstSkipped = &step;
      costSkipped = true;
      continue;
    }
    const bool exhaustiveLattice =
        step.algorithm == analyze::Algorithm::LatticeEnumeration ||
        step.algorithm == analyze::Algorithm::LatticeDefinitely;
    if (costSkipped && exhaustiveLattice && !budget.canBoundExploration()) {
      noteSkippedStep(det, step, StepTrace::Status::SkippedUnbounded,
                      "exhaustive fallback the budget cannot stop, after a "
                      "cheaper step was skipped as over budget");
      continue;
    }
    StepRun run = runTimedStep(step, runStep, budget, det);
    if (!run.ran) {
      // A declined step with a note (slice pre-pass out of headroom) is
      // traced as skipped but never becomes the Yes-prover rerun — the walk
      // just falls through to the unsliced steps below it.
      if (!run.skipNote.empty()) {
        noteSkippedStep(det, step, StepTrace::Status::SkippedCost,
                        std::move(run.skipNote));
      }
      continue;
    }
    lastAlgorithm = name;
    det.algorithm = name;
    if (run.complete) {
      det.outcome = run.outcome;
      det.witness = std::move(run.witness);
      det.avoidingRun = std::move(run.avoidingRun);
      det.progress = budget.progress();
      return det;
    }
    break;  // the budget tripped mid-step; everything below ranks costlier
  }
  if (firstSkipped != nullptr && !budget.exhausted()) {
    // Bounded Yes-prover: scan as many selections as the budget allows; a
    // witness is a genuine Yes even though the full enumeration was skipped.
    StepRun run = runTimedStep(*firstSkipped, runStep, budget, det);
    if (run.ran) {
      const char* name = analyze::toString(firstSkipped->algorithm);
      lastAlgorithm = name;
      det.algorithm = name;
      if (run.complete) {
        det.outcome = run.outcome;
        det.witness = std::move(run.witness);
        det.avoidingRun = std::move(run.avoidingRun);
        det.progress = budget.progress();
        return det;
      }
    }
  }
  det.outcome = Outcome::Unknown;
  det.stopReason = budget.reason();
  det.progress = budget.progress();
  return det;
}

// The answer of a query run under an unlimited budget, which always
// completes: the unbudgeted entry points are the budgeted walk with nothing
// to stop it.
std::optional<Cut> completeWitness(Detection det) {
  GPD_CHECK(det.outcome != Outcome::Unknown);
  return std::move(det.witness);
}

bool completeVerdict(const Detection& det) {
  GPD_CHECK(det.outcome != Outcome::Unknown);
  return det.outcome == Outcome::Yes;
}

}  // namespace

void Detector::adopt(analyze::AnalysisReport report) {
  report_ = std::move(report);
  report_.threads = pool_ != nullptr ? pool_->threads() : 1;
  lastSlice_.reset();
}

std::optional<Cut> Detector::possibly(const ConjunctivePredicate& pred) {
  control::Budget unlimited;
  return completeWitness(possibly(pred, unlimited));
}

std::optional<Cut> Detector::possibly(const CnfPredicate& pred) {
  control::Budget unlimited;
  return completeWitness(possibly(pred, unlimited));
}

std::optional<Cut> Detector::possibly(const SumPredicate& pred) {
  control::Budget unlimited;
  return completeWitness(possibly(pred, unlimited));
}

std::optional<Cut> Detector::possibly(const SymmetricPredicate& pred) {
  control::Budget unlimited;
  return completeWitness(possibly(pred, unlimited));
}

std::optional<Cut> Detector::possibly(const BoolExpr& expr) {
  control::Budget unlimited;
  return completeWitness(possibly(expr, unlimited));
}

bool Detector::definitely(const ConjunctivePredicate& pred) {
  control::Budget unlimited;
  return completeVerdict(definitely(pred, unlimited));
}

bool Detector::definitely(const CnfPredicate& pred) {
  control::Budget unlimited;
  return completeVerdict(definitely(pred, unlimited));
}

bool Detector::definitely(const SumPredicate& pred) {
  control::Budget unlimited;
  return completeVerdict(definitely(pred, unlimited));
}

bool Detector::definitely(const SymmetricPredicate& pred) {
  control::Budget unlimited;
  return completeVerdict(definitely(pred, unlimited));
}

Detection Detector::possibly(const ConjunctivePredicate& pred,
                             control::Budget& budget) {
  adopt(analyze::planConjunctive(clocks_, *trace_, pred,
                                 analyze::Modality::Possibly));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        switch (step.algorithm) {
          case analyze::Algorithm::Cpdhb: {
            if (!budget.chargeCombination()) return stoppedRun();
            const ConjunctiveResult res =
                detectConjunctive(clocks_, *trace_, pred);
            return exactPossibly(res.found ? std::optional<Cut>(res.cut)
                                           : std::nullopt);
          }
          case analyze::Algorithm::LatticeEnumeration: {
            const lattice::CutSearchResult search =
                lattice::findSatisfyingCut(clocks_, pred.bind(*trace_),
                                           &budget, pool_);
            if (!search.complete) return stoppedRun();
            return exactPossibly(search.witness);
          }
          default:
            return StepRun{};
        }
      });
}

Detection Detector::possibly(const CnfPredicate& pred,
                             control::Budget& budget) {
  adopt(analyze::planCnf(clocks_, *trace_, pred, analyze::Modality::Possibly,
                         routingOptions()));
  Detection det = walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        switch (step.algorithm) {
          case analyze::Algorithm::CpdscSpecialCase: {
            // The planner's group order and clause-true events.
            const CpdscResult special =
                detectSingularSpecialCase(clocks_, *report_.cnf);
            GPD_CHECK_MSG(special.applicable(),
                          "planner chose CPDSC for unordered groups");
            return exactPossibly(special.found()
                                     ? std::optional<Cut>(special.cut)
                                     : std::nullopt);
          }
          case analyze::Algorithm::SingularChainCover: {
            const analyze::CnfClassification& cls = *report_.cnf;
            SkeletonPruning pruning;
            if (slicing_) {
              pruning = pruneSingularOdometer(clocks_, *trace_, pred, cls);
            }
            if (pruning.built) lastSlice_ = pruning.strace;
            if (pruning.unsatisfiable) return exactRun(Outcome::No);
            // Unpruned, the planner covered the same clause-true events
            // already; pruned, the admitted events need their own covers.
            const SingularCnfResult res =
                pruning.active
                    ? detectSingularByChainCover(clocks_, *trace_, pred,
                                                 &budget, pool_,
                                                 &pruning.admitted)
                    : detectSingularByChainCover(clocks_, cls, &budget, pool_);
            if (res.found) return exactRun(Outcome::Yes, res.cut);
            if (!res.complete) return stoppedRun();
            return exactRun(Outcome::No);
          }
          case analyze::Algorithm::SliceFirst: {
            if (!slicing_) return StepRun{};
            if (budget.remainingCuts() <
                static_cast<std::uint64_t>(
                    clocks_.computation().totalEvents())) {
              // Building the slice costs up to |E| budgeted linear walks;
              // with less headroom than that, go straight to the unsliced
              // lattice, which can still make bounded progress.
              StepRun run;
              run.skipNote =
                  "slice pre-pass needs |E| cuts of budget headroom; "
                  "falling back to the unsliced lattice";
              return run;
            }
            SliceTrace strace;
            StepRun run = runSliceFirst(clocks_, *trace_, pred, step, pool_,
                                        &budget, strace);
            lastSlice_ = strace;
            return run;
          }
          case analyze::Algorithm::LatticeEnumeration: {
            const lattice::CutSearchResult search =
                lattice::findSatisfyingCut(clocks_, pred.bind(*trace_),
                                           &budget, pool_);
            if (!search.complete) return stoppedRun();
            return exactPossibly(search.witness);
          }
          default:
            return StepRun{};
        }
      });
  det.slice = lastSlice_;
  return det;
}

Detection Detector::possibly(const SumPredicate& pred,
                             control::Budget& budget) {
  adopt(analyze::planSum(clocks_, *trace_, pred, analyze::Modality::Possibly));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        switch (step.algorithm) {
          case analyze::Algorithm::MinCutExtrema:
          case analyze::Algorithm::Theorem7ExactSum:
            return exactPossibly(possiblySum(clocks_, *trace_, pred));
          case analyze::Algorithm::LatticeEnumeration: {
            if (pred.relop == Relop::Equal &&
                outsideSumRange(*trace_, pred)) {
              return exactRun(Outcome::No);
            }
            const lattice::CutSearchResult search =
                detectExactSum(clocks_, *trace_, pred, &budget);
            if (!search.complete) return stoppedRun();
            return exactPossibly(search.witness);
          }
          default:
            return StepRun{};
        }
      });
}

Detection Detector::possibly(const SymmetricPredicate& pred,
                             control::Budget& budget) {
  adopt(analyze::planSymmetric(clocks_, *trace_, pred,
                               analyze::Modality::Possibly));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        switch (step.algorithm) {
          case analyze::Algorithm::SymmetricExactSumDisjunction:
            return exactPossibly(
                possiblySymmetric(clocks_, *trace_, pred));
          case analyze::Algorithm::LatticeEnumeration: {
            const lattice::CutSearchResult search =
                lattice::findSatisfyingCut(clocks_, pred.bind(*trace_),
                                           &budget, pool_);
            if (!search.complete) return stoppedRun();
            return exactPossibly(search.witness);
          }
          default:
            return StepRun{};
        }
      });
}

Detection Detector::possibly(const BoolExpr& expr, control::Budget& budget) {
  adopt(analyze::planExpression(clocks_, *trace_, expr,
                                analyze::Modality::Possibly));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        switch (step.algorithm) {
          case analyze::Algorithm::DnfDecomposition: {
            const DnfResult res =
                possiblyExpression(clocks_, *trace_, expr, &budget);
            if (res.cut.has_value()) return exactRun(Outcome::Yes, res.cut);
            if (!res.complete) return stoppedRun();
            return exactRun(Outcome::No);
          }
          case analyze::Algorithm::LatticeEnumeration: {
            const lattice::CutSearchResult search =
                lattice::findSatisfyingCut(clocks_, expr.bind(*trace_),
                                           &budget, pool_);
            if (!search.complete) return stoppedRun();
            return exactPossibly(search.witness);
          }
          default:
            return StepRun{};
        }
      });
}

Detection Detector::definitely(const ConjunctivePredicate& pred,
                               control::Budget& budget) {
  adopt(analyze::planConjunctive(clocks_, *trace_, pred,
                                 analyze::Modality::Definitely));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        switch (step.algorithm) {
          case analyze::Algorithm::IntervalDefinitely:
            return exactDefinitely(
                definitelyConjunctive(clocks_, *trace_, pred).holds);
          case analyze::Algorithm::LatticeDefinitely:
            return latticeDefinitely(lattice::decideDefinitely(
                clocks_, pred.bind(*trace_), &budget));
          default:
            return StepRun{};
        }
      });
}

Detection Detector::definitely(const CnfPredicate& pred,
                               control::Budget& budget) {
  adopt(analyze::planCnf(clocks_, *trace_, pred, analyze::Modality::Definitely,
                         routingOptions()));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        if (step.algorithm != analyze::Algorithm::LatticeDefinitely) {
          return StepRun{};
        }
        return latticeDefinitely(
            lattice::decideDefinitely(clocks_, pred.bind(*trace_), &budget));
      });
}

Detection Detector::definitely(const SumPredicate& pred,
                               control::Budget& budget) {
  adopt(
      analyze::planSum(clocks_, *trace_, pred, analyze::Modality::Definitely));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        switch (step.algorithm) {
          case analyze::Algorithm::Theorem7Definitely: {
            const SumDecision d =
                definitelySum(clocks_, *trace_, pred, &budget);
            if (!d.decided) return stoppedRun();
            return exactDefinitely(d.holds);
          }
          case analyze::Algorithm::LatticeDefinitely: {
            if (pred.relop == Relop::Equal) {
              // Σ = K with |ΔS| > 1 skips the Theorem 7(2) reduction —
              // decide against the lattice directly (definitelySum would
              // reject the precondition), after the range test.
              if (outsideSumRange(*trace_, pred)) {
                StepRun run = exactDefinitely(false);
                run.avoidingRun = topologicalRun(trace_->computation());
                return run;
              }
              return latticeDefinitely(lattice::decideDefinitely(
                  clocks_, pred.bind(*trace_), &budget));
            }
            const SumDecision s =
                definitelySum(clocks_, *trace_, pred, &budget);
            if (!s.decided) return stoppedRun();
            return exactDefinitely(s.holds);
          }
          default:
            return StepRun{};
        }
      });
}

Detection Detector::definitely(const SymmetricPredicate& pred,
                               control::Budget& budget) {
  adopt(analyze::planSymmetric(clocks_, *trace_, pred,
                               analyze::Modality::Definitely));
  return walkPlan(
      report_, budget, lastAlgorithm_, [&](const analyze::PlanStep& step) {
        if (step.algorithm != analyze::Algorithm::LatticeDefinitely) {
          return StepRun{};
        }
        const SumDecision d =
            definitelySymmetric(clocks_, *trace_, pred, &budget);
        if (!d.decided) return stoppedRun();
        return exactDefinitely(d.holds);
      });
}

}  // namespace gpd::detect
