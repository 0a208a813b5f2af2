#include "detect/stable.h"

namespace gpd::detect {

StableResult detectStable(const Computation& comp,
                          const lattice::CutPredicate& phi) {
  StableResult result;
  result.possibly = phi(finalCut(comp));
  result.definitely = result.possibly;
  return result;
}

bool isStableOn(const VectorClocks& clocks, const lattice::CutPredicate& phi) {
  const Computation& comp = clocks.computation();
  bool stable = true;
  lattice::exploreConsistentCuts(clocks, [&](const Cut& cut) {
    if (!phi(cut)) return true;
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      if (cut.last[p] + 1 >= comp.eventCount(p)) continue;
      if (!clocks.enabled(p, cut)) continue;
      Cut succ = cut;
      ++succ.last[p];
      if (!phi(succ)) {
        stable = false;
        return false;
      }
    }
    return true;
  });
  return stable;
}

}  // namespace gpd::detect
