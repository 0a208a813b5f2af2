#include "predicates/symmetric.h"

#include "util/check.h"

namespace gpd {

BoundSymmetric SymmetricPredicate::bind(const VariableTrace& trace) const {
  BoundSymmetric bound{BoundSum(trace, vars),
                       std::vector<char>(vars.size() + 1, 0)};
  for (int t : trueCounts) {
    if (t >= 0 && t <= arity()) bound.inT[t] = 1;
  }
  return bound;
}

std::vector<SumPredicate> SymmetricPredicate::asExactSums() const {
  std::vector<SumPredicate> out;
  for (int t : trueCounts) {
    SumPredicate s;
    s.terms = vars;
    s.relop = Relop::Equal;
    s.k = t;
    out.push_back(std::move(s));
  }
  return out;
}

namespace {
SymmetricPredicate make(std::vector<SumTerm> vars, std::vector<int> counts,
                        std::string name) {
  SymmetricPredicate p;
  p.vars = std::move(vars);
  p.trueCounts = std::move(counts);
  p.name = std::move(name);
  return p;
}
}  // namespace

SymmetricPredicate exclusiveOr(std::vector<SumTerm> vars) {
  std::vector<int> odd;
  for (int t = 1; t <= static_cast<int>(vars.size()); t += 2) odd.push_back(t);
  return make(std::move(vars), std::move(odd), "xor");
}

SymmetricPredicate absenceOfSimpleMajority(std::vector<SumTerm> vars) {
  const int n = static_cast<int>(vars.size());
  std::vector<int> counts;
  if (n % 2 == 0) counts.push_back(n / 2);
  return make(std::move(vars), std::move(counts), "no-simple-majority");
}

SymmetricPredicate absenceOfTwoThirdsMajority(std::vector<SumTerm> vars) {
  const int n = static_cast<int>(vars.size());
  std::vector<int> counts;
  for (int t = 0; t <= n; ++t) {
    if (3 * t > n && 3 * t < 2 * n) counts.push_back(t);
  }
  return make(std::move(vars), std::move(counts), "no-two-thirds-majority");
}

SymmetricPredicate exactlyK(std::vector<SumTerm> vars, int k) {
  GPD_CHECK(k >= 0 && k <= static_cast<int>(vars.size()));
  return make(std::move(vars), {k}, "exactly-" + std::to_string(k));
}

SymmetricPredicate notAllEqual(std::vector<SumTerm> vars) {
  std::vector<int> counts;
  for (int t = 1; t + 1 <= static_cast<int>(vars.size()); ++t) {
    counts.push_back(t);
  }
  return make(std::move(vars), std::move(counts), "not-all-equal");
}

SymmetricPredicate allEqual(std::vector<SumTerm> vars) {
  const int n = static_cast<int>(vars.size());
  return make(std::move(vars), {0, n}, "all-equal");
}

}  // namespace gpd
