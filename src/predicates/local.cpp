#include "predicates/local.h"

#include "util/check.h"

namespace gpd {

bool compare(std::int64_t lhs, Relop op, std::int64_t rhs) {
  switch (op) {
    case Relop::Less:
      return lhs < rhs;
    case Relop::LessEq:
      return lhs <= rhs;
    case Relop::Greater:
      return lhs > rhs;
    case Relop::GreaterEq:
      return lhs >= rhs;
    case Relop::Equal:
      return lhs == rhs;
    case Relop::NotEqual:
      return lhs != rhs;
  }
  GPD_CHECK_MSG(false, "invalid relop");
  return false;
}

std::string toString(Relop op) {
  switch (op) {
    case Relop::Less:
      return "<";
    case Relop::LessEq:
      return "<=";
    case Relop::Greater:
      return ">";
    case Relop::GreaterEq:
      return ">=";
    case Relop::Equal:
      return "==";
    case Relop::NotEqual:
      return "!=";
  }
  return "?";
}

std::string LocalPredicate::label() const {
  if (isBoolean()) return positive ? var : "!" + var;
  const std::string body =
      var + ' ' + toString(relop) + ' ' + std::to_string(k);
  return positive ? body : "!(" + body + ")";
}

LocalPredicate varTrue(ProcessId p, std::string var) {
  return {p, std::move(var), true};
}

LocalPredicate varFalse(ProcessId p, std::string var) {
  return {p, std::move(var), false};
}

LocalPredicate varCompare(ProcessId p, std::string var, Relop op,
                          std::int64_t k) {
  return {p, std::move(var), true, op, k};
}

std::vector<char> eventTruth(const VariableTrace& trace, ProcessId p,
                             std::span<const LocalPredicate> lits, Join join) {
  const int count = trace.computation().eventCount(p);
  const char unit = join == Join::All ? 1 : 0;
  std::vector<char> out(static_cast<std::size_t>(count), unit);
  for (const LocalPredicate& l : lits) {
    if (l.process != p) continue;
    const std::vector<std::int64_t>& values = trace.column(p, l.var);
    for (int i = 0; i < count; ++i) {
      // Any: a true literal sets the slot; All: a false one clears it.
      if (l.holds(values[i]) != static_cast<bool>(unit)) out[i] = 1 - unit;
    }
  }
  return out;
}

std::vector<int> trueEvents(const VariableTrace& trace,
                            const LocalPredicate& pred) {
  const std::vector<char> truth = eventTruth(trace, pred.process, {&pred, 1});
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(truth.size()); ++i) {
    if (truth[i]) out.push_back(i);
  }
  return out;
}

BoundConjunctive::BoundConjunctive(const VariableTrace& trace,
                                   const ConjunctivePredicate& pred) {
  for (const LocalPredicate& term : pred.terms) {
    terms_.push_back(
        {term.process, eventTruth(trace, term.process, {&term, 1})});
  }
}

}  // namespace gpd
