// Per-process variable histories attached to a computation.
//
// The paper's predicates are functions of per-process variables: boolean
// variables for (singular) CNF predicates, integers for relational ones.
// A VariableTrace records, for every event of every process, the value of
// each variable *after* that event executed (index 0 = the value established
// by the initial event). The value of a variable at a cut is its value after
// the last included event of its process.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "computation/computation.h"
#include "computation/cut.h"

namespace gpd {

class VariableTrace {
 public:
  explicit VariableTrace(const Computation& c) : comp_(&c), vars_(c.processCount()) {}

  const Computation& computation() const { return *comp_; }

  // Defines variable `name` on process p. `values[i]` is the value after
  // event (p, i); values.size() must equal eventCount(p). Redefinition is an
  // error.
  void define(ProcessId p, std::string name, std::vector<std::int64_t> values);

  // Convenience: boolean history (stored as 0/1).
  void defineBool(ProcessId p, std::string name, const std::vector<bool>& values);

  bool has(ProcessId p, std::string_view name) const;

  // Names of the variables defined on process p, sorted (deterministic).
  std::vector<std::string> variableNames(ProcessId p) const;

  std::int64_t value(ProcessId p, std::string_view name, int eventIndex) const;

  std::int64_t valueAtCut(const Cut& cut, ProcessId p,
                          std::string_view name) const {
    return value(p, name, cut.last[p]);
  }

  // Largest |value_after − value_before| over consecutive events of p —
  // Theorems 4–7 require this to be ≤ 1 for every variable in the sum.
  std::int64_t maxAbsDelta(ProcessId p, std::string_view name) const;

  // Event indices on p where the variable is non-zero (the "true events" of
  // a boolean variable).
  std::vector<int> trueEventIndices(ProcessId p, std::string_view name) const;

  // The whole history of `name` on p (column[i] = value after event i).
  // Predicates resolve their variables to columns once per query (their
  // bind() forms), so per-cut evaluation indexes arrays instead of hashing
  // a name per lookup. The reference stays valid while the trace lives:
  // define() never moves an existing column.
  const std::vector<std::int64_t>& column(ProcessId p,
                                          std::string_view name) const;

 private:
  const Computation* comp_;
  std::vector<std::unordered_map<std::string, std::vector<std::int64_t>>> vars_;
};

}  // namespace gpd
