#include "predicates/cnf.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace gpd {

bool CnfPredicate::isSingular() const {
  std::set<ProcessId> seen;
  for (std::size_t j = 0; j < clauses.size(); ++j) {
    for (ProcessId p : clauseProcesses(static_cast<int>(j))) {
      if (!seen.insert(p).second) return false;
    }
  }
  return true;
}

bool CnfPredicate::isKCnf(int k) const {
  for (const CnfClause& c : clauses) {
    if (static_cast<int>(c.size()) != k) return false;
  }
  return true;
}

std::vector<ProcessId> CnfPredicate::clauseProcesses(int j) const {
  std::vector<ProcessId> out;
  for (const BoolLiteral& l : clauses[j]) out.push_back(l.process);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

BoundCnf::BoundCnf(const VariableTrace& trace, const CnfPredicate& pred) {
  for (const CnfClause& clause : pred.clauses) {
    for (const BoolLiteral& l : clause) {
      literals_.push_back(
          {l.process, l.positive, trace.column(l.process, l.var).data()});
    }
    ends_.push_back(literals_.size());
  }
}

bool BoundCnf::operator()(const Cut& cut) const {
  std::size_t i = 0;
  for (const std::size_t end : ends_) {
    bool sat = false;
    for (; i < end; ++i) {
      const Literal& l = literals_[i];
      if ((l.values[cut.last[l.process]] != 0) == l.positive) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
    i = end;
  }
  return true;
}

std::string CnfPredicate::toString() const {
  std::ostringstream os;
  for (std::size_t j = 0; j < clauses.size(); ++j) {
    if (j) os << " & ";
    os << '(';
    for (std::size_t i = 0; i < clauses[j].size(); ++i) {
      if (i) os << " | ";
      const BoolLiteral& l = clauses[j][i];
      if (!l.positive) os << '!';
      os << l.var << "@p" << l.process;
    }
    os << ')';
  }
  return os.str();
}

}  // namespace gpd
