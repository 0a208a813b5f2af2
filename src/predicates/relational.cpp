#include "predicates/relational.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace gpd {

BoundSum::BoundSum(const VariableTrace& trace,
                   const std::vector<SumTerm>& terms) {
  columns_.reserve(terms.size());
  for (const SumTerm& t : terms) {
    columns_.push_back({t.process, trace.column(t.process, t.var).data()});
  }
}

namespace {

constexpr const char* kOverflow =
    "sum predicate overflows int64: |S(⊥)| + Σ|Δ(e)| + 1 over the trace "
    "exceeds 9223372036854775807";

std::int64_t checkedAdd(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  GPD_INPUT_CHECK(!__builtin_add_overflow(a, b, &out), kOverflow);
  return out;
}

std::int64_t checkedSub(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  GPD_INPUT_CHECK(!__builtin_sub_overflow(a, b, &out), kOverflow);
  return out;
}

std::int64_t checkedAbs(std::int64_t v) {
  GPD_INPUT_CHECK(v != std::numeric_limits<std::int64_t>::min(), kOverflow);
  return v < 0 ? -v : v;
}

}  // namespace

SumDeltas sumDeltas(const VariableTrace& trace,
                    const std::vector<SumTerm>& terms) {
  const Computation& comp = trace.computation();
  SumDeltas d;
  d.perNode.assign(comp.totalEvents(), 0);
  for (const SumTerm& t : terms) {
    const std::vector<std::int64_t>& h = trace.column(t.process, t.var);
    d.base = checkedAdd(d.base, h[0]);
    for (int i = 1; i < comp.eventCount(t.process); ++i) {
      std::int64_t& slot = d.perNode[comp.node({t.process, i})];
      slot = checkedAdd(slot, checkedSub(h[i], h[i - 1]));
    }
  }
  // The bound itself: |S(⊥)| + Σₑ |Δ(e)| + 1 must fit.
  std::int64_t reach = checkedAdd(checkedAbs(d.base), 1);
  for (std::int64_t v : d.perNode) {
    const std::int64_t a = checkedAbs(v);
    reach = checkedAdd(reach, a);
    d.maxAbs = std::max(d.maxAbs, a);
  }
  return d;
}

std::int64_t SumPredicate::eventDeltaBound(const VariableTrace& trace) const {
  return sumDeltas(trace, terms).maxAbs;
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
