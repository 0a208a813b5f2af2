#include "predicates/boolean_expr.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <tuple>

#include "util/check.h"

namespace gpd {

BoolExprPtr BoolExpr::var(ProcessId process, std::string name) {
  GPD_CHECK(process >= 0);
  return BoolExprPtr(
      new BoolExpr(Kind::Var, process, std::move(name), {}));
}

BoolExprPtr BoolExpr::negate(BoolExprPtr e) {
  GPD_CHECK(e != nullptr);
  return BoolExprPtr(new BoolExpr(Kind::Not, -1, "", {std::move(e)}));
}

BoolExprPtr BoolExpr::conjunction(std::vector<BoolExprPtr> es) {
  GPD_CHECK(!es.empty());
  for (const auto& e : es) GPD_CHECK(e != nullptr);
  return BoolExprPtr(new BoolExpr(Kind::And, -1, "", std::move(es)));
}

BoolExprPtr BoolExpr::disjunction(std::vector<BoolExprPtr> es) {
  GPD_CHECK(!es.empty());
  for (const auto& e : es) GPD_CHECK(e != nullptr);
  return BoolExprPtr(new BoolExpr(Kind::Or, -1, "", std::move(es)));
}

BoundExpr BoolExpr::bind(const VariableTrace& trace) const {
  return {trace, *this};
}

bool BoolExpr::evaluate(const VariableTrace& trace, const Cut& cut) const {
  return bind(trace)(cut);
}

BoundExpr::BoundExpr(const VariableTrace& trace, const BoolExpr& expr) {
  flatten(trace, expr);
}

void BoundExpr::flatten(const VariableTrace& trace, const BoolExpr& e) {
  const std::size_t at = nodes_.size();
  const bool var = e.kind() == BoolExpr::Kind::Var;
  nodes_.push_back({e.kind(), e.process(),
                    var ? trace.column(e.process(), e.name()).data() : nullptr,
                    0});
  if (e.kind() == BoolExpr::Kind::Not) flatten(trace, *e.child());
  if (e.kind() == BoolExpr::Kind::And || e.kind() == BoolExpr::Kind::Or) {
    for (const auto& c : e.children()) flatten(trace, *c);
  }
  nodes_[at].end = nodes_.size();
}

bool BoundExpr::eval(std::size_t i, const Cut& cut) const {
  const Node& n = nodes_[i];
  switch (n.kind) {
    case BoolExpr::Kind::Var:
      return n.values[cut.last[n.process]] != 0;
    case BoolExpr::Kind::Not:
      return !eval(i + 1, cut);
    case BoolExpr::Kind::And:
      for (std::size_t c = i + 1; c < n.end; c = nodes_[c].end) {
        if (!eval(c, cut)) return false;
      }
      return true;
    case BoolExpr::Kind::Or:
      for (std::size_t c = i + 1; c < n.end; c = nodes_[c].end) {
        if (eval(c, cut)) return true;
      }
      return false;
  }
  GPD_CHECK(false);
  return false;
}

std::string BoolExpr::toString() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::Var:
      os << name_ << "@p" << process_;
      break;
    case Kind::Not:
      os << "!(" << child()->toString() << ')';
      break;
    case Kind::And:
    case Kind::Or: {
      os << '(';
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) os << (kind_ == Kind::And ? " & " : " | ");
        os << children_[i]->toString();
      }
      os << ')';
      break;
    }
  }
  return os.str();
}

namespace {

bool literalLess(const LocalPredicate& a, const LocalPredicate& b) {
  return std::tie(a.process, a.var, a.positive) <
         std::tie(b.process, b.var, b.positive);
}

bool literalEq(const LocalPredicate& a, const LocalPredicate& b) {
  return a.process == b.process && a.var == b.var && a.positive == b.positive;
}

// Merges two terms; nullopt when contradictory.
std::optional<DnfTerm> mergeTerms(const DnfTerm& a, const DnfTerm& b) {
  DnfTerm out = a;
  for (const LocalPredicate& lit : b) out.push_back(lit);
  std::sort(out.begin(), out.end(), literalLess);
  out.erase(std::unique(out.begin(), out.end(), literalEq), out.end());
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (out[i].process == out[i + 1].process && out[i].var == out[i + 1].var &&
        out[i].positive != out[i + 1].positive) {
      return std::nullopt;  // x ∧ ¬x
    }
  }
  return out;
}

// DNF of the expression under a polarity (negation pushed inward on the
// fly). Distribution makes the result exponential in the expression, so
// every expansion loop polls keepGoing(); once `*stopped` is set the whole
// recursion unwinds and the caller reports an incomplete expansion.
std::vector<DnfTerm> dnfOf(const BoolExpr& e, bool positive,
                           control::Budget* budget, bool* stopped) {
  if (*stopped) return {};
  switch (e.kind()) {
    case BoolExpr::Kind::Var:
      return {{LocalPredicate{e.process(), e.name(), positive}}};
    case BoolExpr::Kind::Not:
      return dnfOf(*e.child(), !positive, budget, stopped);
    case BoolExpr::Kind::And:
    case BoolExpr::Kind::Or: {
      // Under negation, And behaves as Or and vice versa (De Morgan).
      const bool isAnd = (e.kind() == BoolExpr::Kind::And) == positive;
      if (!isAnd) {
        std::vector<DnfTerm> out;
        for (const auto& c : e.children()) {
          if (budget != nullptr && !budget->keepGoing()) *stopped = true;
          if (*stopped) break;
          for (auto& term : dnfOf(*c, positive, budget, stopped)) {
            out.push_back(std::move(term));
          }
        }
        return out;
      }
      // Conjunction: distribute (cross product of the children's terms).
      std::vector<DnfTerm> acc{DnfTerm{}};
      for (const auto& c : e.children()) {
        const std::vector<DnfTerm> childTerms =
            dnfOf(*c, positive, budget, stopped);
        if (*stopped) break;
        std::vector<DnfTerm> next;
        for (const DnfTerm& a : acc) {
          for (const DnfTerm& b : childTerms) {
            if (budget != nullptr && !budget->keepGoing()) *stopped = true;
            if (*stopped) break;
            if (auto merged = mergeTerms(a, b)) next.push_back(std::move(*merged));
          }
          if (*stopped) break;
        }
        acc = std::move(next);
        if (*stopped || acc.empty()) break;  // stopped or all contradicted
      }
      return acc;
    }
  }
  GPD_CHECK(false);
  return {};
}

}  // namespace

DnfExpansion toDnfBudgeted(const BoolExpr& expr, control::Budget* budget) {
  DnfExpansion out;
  bool stopped = false;
  std::vector<DnfTerm> terms = dnfOf(expr, true, budget, &stopped);
  out.complete = !stopped;
  // Deduplicate identical terms.
  std::sort(terms.begin(), terms.end(),
            [](const DnfTerm& a, const DnfTerm& b) {
              return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                                  b.end(), literalLess);
            });
  terms.erase(std::unique(terms.begin(), terms.end(),
                          [](const DnfTerm& a, const DnfTerm& b) {
                            return a.size() == b.size() &&
                                   std::equal(a.begin(), a.end(), b.begin(),
                                              literalEq);
                          }),
              terms.end());
  out.terms = std::move(terms);
  return out;
}

std::vector<DnfTerm> toDnf(const BoolExpr& expr) {
  return toDnfBudgeted(expr, nullptr).terms;
}

}  // namespace gpd
