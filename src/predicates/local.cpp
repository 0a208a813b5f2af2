#include "predicates/local.h"

#include <sstream>

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

LocalPredicate varTrue(ProcessId p, std::string var) {
  LocalPredicate pred;
  pred.process = p;
  pred.label = var;
  pred.holds = [p, var = std::move(var)](const VariableTrace& t, int idx) {
    return t.value(p, var, idx) != 0;
  };
  return pred;
}

LocalPredicate varFalse(ProcessId p, std::string var) {
  LocalPredicate pred;
  pred.process = p;
  pred.label = "!" + var;
  pred.holds = [p, var = std::move(var)](const VariableTrace& t, int idx) {
    return t.value(p, var, idx) == 0;
  };
  return pred;
}

LocalPredicate varCompare(ProcessId p, std::string var, Relop op,
                          std::int64_t k) {
  LocalPredicate pred;
  pred.process = p;
  std::ostringstream label;
  label << var << ' ' << toString(op) << ' ' << k;
  pred.label = label.str();
  pred.holds = [p, var = std::move(var), op, k](const VariableTrace& t,
                                                int idx) {
    return compare(t.value(p, var, idx), op, k);
  };
  return pred;
}

BoundConjunctive::BoundConjunctive(const VariableTrace& trace,
                                   const ConjunctivePredicate& pred) {
  for (const LocalPredicate& term : pred.terms) {
    std::vector<char> truth(trace.computation().eventCount(term.process), 0);
    for (int i : trueEvents(trace, term)) truth[i] = 1;
    terms_.push_back({term.process, std::move(truth)});
  }
}

std::vector<int> trueEvents(const VariableTrace& trace,
                            const LocalPredicate& pred) {
  std::vector<int> out;
  const int count = trace.computation().eventCount(pred.process);
  for (int i = 0; i < count; ++i) {
    if (pred.holds(trace, i)) out.push_back(i);
  }
  return out;
}

}  // namespace gpd
