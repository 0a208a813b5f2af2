#include "reduction/subset_sum_to_computation.h"

#include "clocks/vector_clock.h"
#include "detect/sum.h"
#include "util/check.h"

namespace gpd::reduction {

SubsetSumGadget buildSubsetSumGadget(const std::vector<std::int64_t>& sizes,
                                     std::int64_t target) {
  GPD_CHECK(!sizes.empty());
  for (std::int64_t s : sizes) GPD_CHECK_MSG(s > 0, "sizes must be positive");

  const int n = static_cast<int>(sizes.size());
  ComputationBuilder builder(n);
  for (ProcessId p = 0; p < n; ++p) builder.appendEvent(p);

  SubsetSumGadget gadget;
  gadget.computation = std::make_unique<Computation>(std::move(builder).build());
  gadget.trace = std::make_unique<VariableTrace>(*gadget.computation);
  for (ProcessId p = 0; p < n; ++p) {
    gadget.trace->define(p, "x", {0, sizes[p]});
    gadget.predicate.terms.push_back({p, "x"});
  }
  gadget.predicate.relop = Relop::Equal;
  gadget.predicate.k = target;
  return gadget;
}

std::vector<int> SubsetSumGadget::decode(const Cut& cut) const {
  std::vector<int> subset;
  for (ProcessId p = 0; p < computation->processCount(); ++p) {
    if (cut.last[p] == 1) subset.push_back(p);
  }
  return subset;
}

std::optional<std::vector<int>> solveSubsetSumViaDetection(
    const std::vector<std::int64_t>& sizes, std::int64_t target) {
  if (sizes.empty()) {
    if (target == 0) return std::vector<int>{};
    return std::nullopt;
  }
  const SubsetSumGadget gadget = buildSubsetSumGadget(sizes, target);
  const VectorClocks clocks(*gadget.computation);
  const auto cut =
      detect::detectExactSum(clocks, *gadget.trace, gadget.predicate).witness;
  if (!cut) return std::nullopt;
  std::vector<int> subset = gadget.decode(*cut);
  std::int64_t sum = 0;
  for (int i : subset) sum += sizes[i];
  GPD_CHECK(sum == target);
  return subset;
}

}  // namespace gpd::reduction
