// Three-valued detection results for budgeted runs.
//
// An unbudgeted detector answers possibly/definitely exactly; under an
// execution budget (control/budget.h) the honest answer set grows to
// {Yes, No, Unknown}: a witness found before the budget tripped is still a
// genuine Yes, an exhausted search space is still a genuine No, and
// everything cut short is Unknown — with the stop reason and the progress
// counters attached so the caller can see how far the search got and which
// plan steps were skipped as over-budget.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "computation/cut.h"
#include "control/budget.h"

namespace gpd::detect {

enum class Outcome { Yes, No, Unknown };

inline const char* toString(Outcome o) {
  switch (o) {
    case Outcome::Yes:
      return "yes";
    case Outcome::No:
      return "no";
    case Outcome::Unknown:
      return "unknown";
  }
  return "unknown";
}

// One plan step as the degradation walk saw it: either it ran (with wall
// time measured on the library's steady clock) or it was skipped, with the
// reason recorded.
struct StepTrace {
  enum class Status : std::uint8_t {
    Ran,               // the step executed (completely or until the budget)
    SkippedCost,       // predicted combinations exceeded the remaining budget
    SkippedUnbounded,  // exhaustive fallback the budget could not stop
  };

  std::string algorithm;
  Status status = Status::Ran;
  std::string reason;               // why skipped; empty when the step ran
  std::uint64_t durationNanos = 0;  // wall time inside the step; 0 if skipped
  bool complete = false;            // the step produced an exact answer
};

inline const char* toString(StepTrace::Status s) {
  switch (s) {
    case StepTrace::Status::Ran:
      return "ran";
    case StepTrace::Status::SkippedCost:
      return "skipped-cost";
    case StepTrace::Status::SkippedUnbounded:
      return "skipped-unbounded";
  }
  return "?";
}

// What the slice-first pre-pass did: the sublattice it carved out of the
// computation and what running the restricted search inside it cost. The
// plan-vs-actual pair is predictedCuts (the planner's saturating product)
// against exploredCuts (what the restricted BFS really visited).
struct SliceTrace {
  std::uint64_t eventsTotal = 0;
  std::uint64_t eventsExcluded = 0;  // events no skeleton-satisfying cut has
  std::uint64_t predictedCuts = 0;   // planner's sublattice-size prediction
  bool predictedSaturated = false;   // prediction clamped at 2^64-1
  std::uint64_t exploredCuts = 0;    // cuts the restricted search visited
  std::uint64_t oracleCalls = 0;     // slice-build oracle calls
  std::uint64_t buildNanos = 0;      // wall time building the slice
  // True when detection actually ran inside the sublattice; false when the
  // pre-pass fell back (budget exhausted mid-slice) or short-circuited
  // (skeleton unsatisfiable / fully regular predicate answered directly).
  bool usedSlice = false;
};

struct Detection {
  Outcome outcome = Outcome::Unknown;
  // Witness cut for possibly-Yes (definitely never produces one).
  std::optional<Cut> witness;
  // A lattice-definitely "no": the ⊥→⊤ run of cuts, each covering its
  // predecessor by one event, none of which satisfies the predicate.
  std::vector<Cut> avoidingRun;
  // Algorithm that produced the answer — identical to the unbudgeted
  // Detector::lastAlgorithm() string when the run completed in budget.
  std::string algorithm;
  // Why the search stopped early; None unless outcome == Unknown.
  control::StopReason stopReason = control::StopReason::None;
  // Work performed before the stop (also populated on exact answers).
  control::BudgetProgress progress;
  // Plan steps the degradation walk skipped, with the reason each was
  // skipped (predicted cost over budget / unbounded exhaustive step).
  std::vector<std::string> skippedSteps;
  // Every plan step the walk considered, in visit order — ran and skipped
  // alike, with per-step wall time for the former. The Yes-prover rerun of
  // a cost-skipped enumeration appears as a second entry for its algorithm.
  std::vector<StepTrace> steps;
  // Present when the plan carried a slice-first step (even when the
  // pre-pass fell back — usedSlice tells the two apart).
  std::optional<SliceTrace> slice;
};

}  // namespace gpd::detect
