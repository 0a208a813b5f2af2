#include "detect/cpdhb.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

ConjunctiveResult eliminationScan(const VectorClocks& clocks,
                                  std::span<const Candidates> lists) {
  ConjunctiveResult result;
  const int n = static_cast<int>(lists.size());
  if (n == 0) {
    // Empty conjunction: trivially true at the initial cut.
    result.found = true;
    result.cut = initialCut(clocks.computation());
    return result;
  }
  for (const Candidates& list : lists) {
    if (list.empty()) return result;
  }

  std::vector<std::size_t> head(n, 0);
  const auto cand = [&](int i) -> const EventId& {
    return lists[i][head[i]];
  };

  // Work queue: slots whose candidate changed and must be re-checked against
  // the others. Initially everything.
  std::vector<int> work;
  std::vector<char> queued(n, 1);
  for (int i = 0; i < n; ++i) work.push_back(i);

  const auto enqueue = [&](int i) {
    if (!queued[i]) {
      queued[i] = 1;
      work.push_back(i);
    }
  };

  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    queued[i] = 0;
    bool advancedI = false;
    for (int j = 0; j < n && !advancedI; ++j) {
      if (j == i) continue;
      // succ(cand(a)) ≤ cand(b) ⟹ cand(a) is dead: advance list a.
      while (true) {
        ++result.comparisons;
        if (clocks.succLeq(cand(i), cand(j))) {
          if (++head[i] >= lists[i].size()) return result;
          advancedI = true;
          continue;
        }
        ++result.comparisons;
        if (clocks.succLeq(cand(j), cand(i))) {
          if (++head[j] >= lists[j].size()) return result;
          enqueue(j);
          continue;
        }
        break;
      }
    }
    if (advancedI) enqueue(i);
  }

  // No pair can be eliminated: candidates are pairwise consistent.
  result.witness.reserve(n);
  for (int i = 0; i < n; ++i) result.witness.push_back(cand(i));
  // Deduplicate for the cut construction (two lists may name one event).
  std::vector<EventId> unique(result.witness);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  result.cut = clocks.leastConsistentCutThrough(unique);
  result.found = true;
  return result;
}

ConjunctiveResult findConsistentSelection(const VectorClocks& clocks,
                                          std::span<const Candidates> chains) {
#ifndef NDEBUG
  for (const Candidates& chain : chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      GPD_DCHECK(clocks.leq(chain[i], chain[i + 1]));
    }
  }
#endif
  ConjunctiveResult result = eliminationScan(clocks, chains);
  GPD_OBS_COUNTER_ADD("cpdhb_invocations", 1);
  GPD_OBS_COUNTER_ADD("cpdhb_comparisons", result.comparisons);
  return result;
}

ConjunctiveResult findConsistentSelection(const VectorClocks& clocks,
                                          const std::vector<Chain>& chains) {
  const std::vector<Candidates> lists(chains.begin(), chains.end());
  return findConsistentSelection(clocks, lists);
}

ConjunctiveResult detectConjunctive(const VectorClocks& clocks,
                                    const VariableTrace& trace,
                                    const ConjunctivePredicate& pred) {
  GPD_TRACE_SPAN_NAMED(span, "detect.cpdhb");
  span.attrInt("terms", static_cast<std::int64_t>(pred.terms.size()));
  std::set<ProcessId> procs;
  for (const LocalPredicate& t : pred.terms) {
    GPD_CHECK_MSG(procs.insert(t.process).second,
                  "conjunctive predicate has two terms on process "
                      << t.process);
  }
  std::vector<Chain> chains;
  chains.reserve(pred.terms.size());
  for (const LocalPredicate& t : pred.terms) {
    Chain& chain = chains.emplace_back();
    for (int idx : trueEvents(trace, t)) chain.push_back({t.process, idx});
  }
  return findConsistentSelection(clocks, chains);
}

ConjunctiveResult detectConjunctive(const VariableTrace& trace,
                                    const ConjunctivePredicate& pred) {
  const VectorClocks clocks(trace.computation());
  return detectConjunctive(clocks, trace, pred);
}

}  // namespace gpd::detect
