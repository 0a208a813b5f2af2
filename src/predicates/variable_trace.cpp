#include "predicates/variable_trace.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace gpd {

void VariableTrace::define(ProcessId p, std::string name,
                           std::vector<std::int64_t> values) {
  GPD_CHECK(p >= 0 && p < comp_->processCount());
  GPD_CHECK_MSG(static_cast<int>(values.size()) == comp_->eventCount(p),
                "variable '" << name << "' on p" << p << " has "
                             << values.size() << " values, expected "
                             << comp_->eventCount(p));
  const auto [it, inserted] = vars_[p].emplace(std::move(name), std::move(values));
  GPD_CHECK_MSG(inserted, "variable '" << it->first << "' redefined on p" << p);
}

void VariableTrace::defineBool(ProcessId p, std::string name,
                               const std::vector<bool>& values) {
  std::vector<std::int64_t> ints(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) ints[i] = values[i] ? 1 : 0;
  define(p, std::move(name), std::move(ints));
}

bool VariableTrace::has(ProcessId p, std::string_view name) const {
  GPD_CHECK(p >= 0 && p < comp_->processCount());
  return vars_[p].find(std::string(name)) != vars_[p].end();
}

std::vector<std::string> VariableTrace::variableNames(ProcessId p) const {
  GPD_CHECK(p >= 0 && p < comp_->processCount());
  std::vector<std::string> names;
  names.reserve(vars_[p].size());
  for (const auto& [name, _] : vars_[p]) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

const std::vector<std::int64_t>& VariableTrace::column(
    ProcessId p, std::string_view name) const {
  GPD_CHECK(p >= 0 && p < comp_->processCount());
  const auto it = vars_[p].find(std::string(name));
  GPD_CHECK_MSG(it != vars_[p].end(),
                "variable '" << name << "' not defined on p" << p);
  return it->second;
}

std::int64_t VariableTrace::value(ProcessId p, std::string_view name,
                                  int eventIndex) const {
  const auto& h = column(p, name);
  GPD_CHECK(eventIndex >= 0 && eventIndex < static_cast<int>(h.size()));
  return h[eventIndex];
}

std::int64_t VariableTrace::maxAbsDelta(ProcessId p,
                                        std::string_view name) const {
  const auto& h = column(p, name);
  std::int64_t best = 0;
  for (std::size_t i = 1; i < h.size(); ++i) {
    best = std::max(best, std::abs(h[i] - h[i - 1]));
  }
  return best;
}

std::vector<int> VariableTrace::trueEventIndices(ProcessId p,
                                                 std::string_view name) const {
  const auto& h = column(p, name);
  std::vector<int> out;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] != 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace gpd
