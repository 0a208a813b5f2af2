#include "detect/dnf_detect.h"

#include <set>

#include "detect/cpdhb.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

DnfResult possiblyExpression(const VectorClocks& clocks,
                             const VariableTrace& trace, const BoolExpr& expr,
                             control::Budget* budget) {
  GPD_TRACE_SPAN_NAMED(span, "detect.dnf");
  DnfResult result;
  // The DNF expansion itself is exponential, so it runs under the same
  // budget as the term loop: a trip mid-distribution yields the terms built
  // so far and an incomplete verdict instead of an unbounded stall.
  const DnfExpansion expansion = toDnfBudgeted(expr, budget);
  const std::vector<DnfTerm>& terms = expansion.terms;
  if (!expansion.complete) result.complete = false;
  result.termsTotal = terms.size();
  const Computation& comp = clocks.computation();
  // Span attrs and the per-run counter are published whichever way the
  // term loop ends; the RAII finisher also covers the budget unwind.
  const auto finish = [&]() {
    span.attrInt("terms_tried", static_cast<std::int64_t>(result.termsTried));
    span.attrInt("terms_total", static_cast<std::int64_t>(result.termsTotal));
    GPD_OBS_COUNTER_ADD("dnf_terms_tried", result.termsTried);
  };

  for (const DnfTerm& term : terms) {
    if (budget != nullptr && !budget->chargeCombination()) {
      result.complete = false;  // untried terms remain
      finish();
      return result;
    }
    ++result.termsTried;
    GPD_CHECK(!term.empty());
    // The term's literals on one process form that process's conjunct, and
    // its true events one chain.
    std::set<ProcessId> procs;
    for (const LocalPredicate& lit : term) procs.insert(lit.process);
    std::vector<Chain> chains;
    chains.reserve(procs.size());
    for (const ProcessId p : procs) {
      const std::vector<char> truth = eventTruth(trace, p, term, Join::All);
      Chain& chain = chains.emplace_back();
      for (int i = 0; i < comp.eventCount(p); ++i) {
        if (truth[i]) chain.push_back({p, i});
      }
    }
    const ConjunctiveResult sub = findConsistentSelection(clocks, chains);
    if (sub.found) {
      result.cut = sub.cut;
      finish();
      return result;
    }
  }
  finish();
  return result;
}

}  // namespace gpd::detect
