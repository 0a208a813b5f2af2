#include "detect/linear.h"

#include <algorithm>

#include "util/check.h"

namespace gpd::detect {

LinearResult detectLinear(const VectorClocks& clocks, const ForbiddenFn& oracle,
                          control::Budget* budget) {
  return detectLinearFrom(clocks, oracle, initialCut(clocks.computation()),
                          budget);
}

LinearResult detectLinearFrom(const VectorClocks& clocks,
                              const ForbiddenFn& oracle, Cut from,
                              control::Budget* budget) {
  const Computation& comp = clocks.computation();
  GPD_CHECK(clocks.isConsistent(from));
  LinearResult result;
  Cut cut = std::move(from);
  while (true) {
    if (budget != nullptr && !budget->chargeCut()) {
      result.complete = false;
      return result;
    }
    ++result.oracleCalls;
    const std::optional<ProcessId> forbidden = oracle(cut);
    if (!forbidden) {
      GPD_DCHECK(clocks.isConsistent(cut));
      result.cut = cut;
      return result;
    }
    const ProcessId p = *forbidden;
    GPD_CHECK(p >= 0 && p < comp.processCount());
    if (cut.last[p] + 1 >= comp.eventCount(p)) {
      return result;  // p cannot advance: no satisfying cut exists
    }
    // Jump to cut ⊔ history(next event of p): the least consistent cut that
    // advances p. Any satisfying D ⊇ cut advances p, hence contains the
    // event and its causal history — the invariant "every satisfying cut
    // contains the current cut" is preserved.
    const EventId next{p, cut.last[p] + 1};
    for (ProcessId q = 0; q < comp.processCount(); ++q) {
      cut.last[q] = std::max(cut.last[q], clocks.clock(next, q));
    }
    cut.last[p] = std::max(cut.last[p], next.index);
  }
}

ForbiddenFn conjunctiveOracle(const VariableTrace& trace,
                              const ConjunctivePredicate& pred) {
  return [bound = pred.bind(trace)](const Cut& cut) {
    return bound.firstFalse(cut);
  };
}

ForbiddenFn channelsEmptyOracle(const Computation& comp) {
  return [&comp](const Cut& cut) -> std::optional<ProcessId> {
    for (const Message& m : comp.messages()) {
      if (cut.contains(m.send) && !cut.contains(m.receive)) {
        return m.receive.process;
      }
    }
    return std::nullopt;
  };
}

ForbiddenFn terminationOracle(const VariableTrace& trace,
                              const std::string& activeVar) {
  const Computation& comp = trace.computation();
  return [&trace, &comp, activeVar](const Cut& cut) -> std::optional<ProcessId> {
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      if (trace.valueAtCut(cut, p, activeVar) != 0) return p;
    }
    for (const Message& m : comp.messages()) {
      if (cut.contains(m.send) && !cut.contains(m.receive)) {
        return m.receive.process;
      }
    }
    return std::nullopt;
  };
}

}  // namespace gpd::detect
