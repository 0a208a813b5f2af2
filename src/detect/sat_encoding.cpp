#include "detect/sat_encoding.h"

#include <algorithm>

#include "analyze/classify.h"
#include "sat/dpll.h"
#include "util/check.h"

namespace gpd::detect {

SatEncodingResult detectSingularViaSat(const VectorClocks& clocks,
                                       const VariableTrace& trace,
                                       const CnfPredicate& pred) {
  GPD_CHECK_MSG(pred.isSingular(), "predicate is not singular");
  SatEncodingResult result;

  const auto groups = analyze::clauseTrueEvents(trace, pred);
  // Flatten candidates and remember their group.
  std::vector<EventId> candidate;
  std::vector<int> groupOf;
  for (std::size_t j = 0; j < groups.size(); ++j) {
    for (const EventId& e : groups[j]) {
      candidate.push_back(e);
      groupOf.push_back(static_cast<int>(j));
    }
    if (groups[j].empty()) return result;  // some clause can never hold
  }
  const int m = static_cast<int>(candidate.size());
  result.variables = m;

  sat::Cnf formula;
  formula.numVars = m;
  // At least one candidate per group.
  for (std::size_t j = 0; j < groups.size(); ++j) {
    sat::Clause clause;
    for (int v = 0; v < m; ++v) {
      if (groupOf[v] == static_cast<int>(j)) clause.push_back({v, true});
    }
    formula.addClause(std::move(clause));
  }
  // Mutual exclusion for every inconsistent pair (cross-group candidates on
  // one process are inconsistent unless equal, which pairConsistent covers).
  for (int a = 0; a < m; ++a) {
    for (int b = a + 1; b < m; ++b) {
      if (groupOf[a] == groupOf[b]) continue;  // one pick per group anyway
      if (!clocks.pairConsistent(candidate[a], candidate[b])) {
        formula.addClause({{a, false}, {b, false}});
      }
    }
  }
  result.clauses = formula.clauses.size();

  sat::DpllStats stats;
  const auto model = sat::solveDpll(formula, &stats);
  result.decisions = stats.decisions;
  if (!model) return result;

  // Decode: one chosen candidate per group (a model may set several of a
  // group's variables; any chosen set is pairwise consistent, so take the
  // first per group).
  std::vector<EventId> witness;
  std::vector<char> covered(groups.size(), 0);
  for (int v = 0; v < m; ++v) {
    if ((*model)[v] && !covered[groupOf[v]]) {
      covered[groupOf[v]] = 1;
      witness.push_back(candidate[v]);
    }
  }
  GPD_CHECK(witness.size() == groups.size());
  // Deduplicate events shared across groups before building the cut.
  std::vector<EventId> unique(witness);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  result.cut = clocks.leastConsistentCutThrough(unique);
  GPD_CHECK(pred.holdsAtCut(trace, *result.cut));
  return result;
}

}  // namespace gpd::detect
