#include "predicates/relational.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace gpd {

BoundSum::BoundSum(const VariableTrace& trace,
                   const std::vector<SumTerm>& terms) {
  columns_.reserve(terms.size());
  for (const SumTerm& t : terms) {
    columns_.push_back({t.process, trace.column(t.process, t.var).data()});
  }
}

std::int64_t SumPredicate::eventDeltaBound(const VariableTrace& trace) const {
  const Computation& comp = trace.computation();
  std::vector<std::int64_t> perNode(comp.totalEvents(), 0);
  for (const SumTerm& t : terms) {
    for (int i = 1; i < comp.eventCount(t.process); ++i) {
      perNode[comp.node({t.process, i})] +=
          trace.value(t.process, t.var, i) - trace.value(t.process, t.var, i - 1);
    }
  }
  std::int64_t bound = 0;
  for (std::int64_t v : perNode) bound = std::max(bound, std::abs(v));
  return bound;
}

std::string SumPredicate::toString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i) os << " + ";
    os << terms[i].var << "@p" << terms[i].process;
  }
  os << ' ' << gpd::toString(relop) << ' ' << k;
  return os.str();
}

}  // namespace gpd
