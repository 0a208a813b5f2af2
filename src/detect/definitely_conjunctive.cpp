#include "detect/definitely_conjunctive.h"

#include <set>

#include "util/check.h"

namespace gpd::detect {

std::vector<TrueInterval> trueIntervals(const VariableTrace& trace,
                                        const LocalPredicate& pred) {
  const std::vector<char> truth = eventTruth(trace, pred.process, {&pred, 1});
  const int count = static_cast<int>(truth.size());
  std::vector<TrueInterval> out;
  int start = -1;
  for (int i = 0; i <= count; ++i) {
    const bool holds = i < count && truth[i];
    if (holds && start < 0) start = i;
    if (!holds && start >= 0) {
      out.push_back({{pred.process, start}, {pred.process, i - 1}});
      start = -1;
    }
  }
  return out;
}

namespace {

// lo_p ≺ succ(hi_q); vacuously true when hi_q is the final event of q.
bool startsBeforeEnd(const VectorClocks& clocks, const TrueInterval& p,
                     const TrueInterval& q) {
  const Computation& comp = clocks.computation();
  if (q.hi.index + 1 >= comp.eventCount(q.hi.process)) return true;
  const EventId end{q.hi.process, q.hi.index + 1};
  return clocks.precedes(p.lo, end);
}

}  // namespace

DefinitelyResult definitelyConjunctive(const VectorClocks& clocks,
                                       const VariableTrace& trace,
                                       const ConjunctivePredicate& pred) {
  DefinitelyResult result;
  const int m = static_cast<int>(pred.terms.size());
  if (m == 0) {
    result.holds = true;
    return result;
  }
  std::set<ProcessId> procs;
  std::vector<std::vector<TrueInterval>> queue(m);
  for (int i = 0; i < m; ++i) {
    GPD_CHECK_MSG(procs.insert(pred.terms[i].process).second,
                  "conjunctive predicate has two terms on process "
                      << pred.terms[i].process);
    queue[i] = trueIntervals(trace, pred.terms[i]);
    if (queue[i].empty()) return result;  // never true: not even possibly
  }

  std::vector<std::size_t> head(m, 0);
  const auto cand = [&](int i) -> const TrueInterval& {
    return queue[i][head[i]];
  };

  std::vector<int> work;
  std::vector<char> queued(m, 1);
  for (int i = 0; i < m; ++i) work.push_back(i);
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
    for (int j = 0; j < m && !advancedI; ++j) {
      if (j == i) continue;
      while (true) {
        // If cand(j) starts too late for cand(i)'s end, cand(i) is dead: no
        // later interval of j starts earlier.
        ++result.comparisons;
        if (!startsBeforeEnd(clocks, cand(j), cand(i))) {
          if (++head[i] >= queue[i].size()) return result;
          advancedI = true;
          continue;
        }
        ++result.comparisons;
        if (!startsBeforeEnd(clocks, cand(i), cand(j))) {
          if (++head[j] >= queue[j].size()) return result;
          enqueue(j);
          continue;
        }
        break;
      }
    }
    if (advancedI) enqueue(i);
  }

  result.holds = true;
  for (int i = 0; i < m; ++i) result.witness.push_back(cand(i));
  return result;
}

}  // namespace gpd::detect
