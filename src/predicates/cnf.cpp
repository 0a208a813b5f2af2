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
  for (const LocalPredicate& l : clauses[j]) out.push_back(l.process);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

BoundCnf::BoundCnf(const VariableTrace& trace, const CnfPredicate& pred) {
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    for (ProcessId p : pred.clauseProcesses(static_cast<int>(j))) {
      const std::vector<char> truth = eventTruth(trace, p, pred.clauses[j]);
      groups_.push_back({p, table_.size()});
      table_.insert(table_.end(), truth.begin(), truth.end());
    }
    ends_.push_back(groups_.size());
  }
}

bool BoundCnf::operator()(const Cut& cut) const {
  std::size_t i = 0;
  for (const std::size_t end : ends_) {
    bool sat = false;
    for (; i < end; ++i) {
      const Group& g = groups_[i];
      if (table_[g.offset + static_cast<std::size_t>(cut.last[g.process])]) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
    i = end;
  }
  return true;
}

bool CnfPredicate::holdsAtCut(const VariableTrace& trace,
                              const Cut& cut) const {
  return std::all_of(clauses.begin(), clauses.end(), [&](const CnfClause& c) {
    return std::any_of(c.begin(), c.end(), [&](const LocalPredicate& l) {
      return l.holdsAtCut(trace, cut);
    });
  });
}

std::string CnfPredicate::toString() const {
  std::ostringstream os;
  for (std::size_t j = 0; j < clauses.size(); ++j) {
    if (j) os << " & ";
    os << '(';
    for (std::size_t i = 0; i < clauses[j].size(); ++i) {
      if (i) os << " | ";
      const LocalPredicate& l = clauses[j][i];
      if (l.isBoolean() || !l.positive) {
        os << l.label();
      } else {
        os << '(' << l.label() << ')';
      }
      os << "@p" << l.process;
    }
    os << ')';
  }
  return os.str();
}

}  // namespace gpd
