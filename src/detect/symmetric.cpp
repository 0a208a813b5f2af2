#include "detect/symmetric.h"

#include "lattice/explore.h"
#include "obs/trace.h"

namespace gpd::detect {

std::optional<Cut> possiblySymmetric(const VectorClocks& clocks,
                                     const VariableTrace& trace,
                                     const SymmetricPredicate& pred) {
  GPD_TRACE_SPAN("detect.symmetric.possibly");
  SumRange range(clocks.computation(), trace, pred.vars);
  for (int t : pred.trueCounts) {
    if (auto cut = range.possibly(Relop::Equal, t)) return cut;
  }
  return std::nullopt;
}

SumDecision definitelySymmetric(const VectorClocks& clocks,
                                const VariableTrace& trace,
                                const SymmetricPredicate& pred,
                                control::Budget* budget) {
  GPD_TRACE_SPAN("detect.symmetric.definitely");
  const lattice::DefinitelyDecision d =
      lattice::decideDefinitely(clocks, pred.bind(trace), budget);
  SumDecision result;
  result.decided = d.decided;
  result.holds = d.decided && d.holds;
  return result;
}

}  // namespace gpd::detect
