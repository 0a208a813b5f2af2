#include "detect/cpdsc.h"

#include <algorithm>

#include "analyze/classify.h"
#include "computation/reverse.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

namespace {

// σ: a linearization of the order extended per meta-process with an arrow
// from every group event to each independent receive of the same group.
// Returns σ position per node. The extension is acyclic for receive-ordered
// computations (Tarafdar–Garg); checked at runtime.
std::vector<int> sigmaPositions(const VectorClocks& clocks,
                                const Groups& groups) {
  const Computation& comp = clocks.computation();
  graph::Dag g = comp.toDag();
  for (const auto& group : groups) {
    const auto receives =
        analyze::groupEventsOfKind(comp, group, /*receives=*/true);
    for (const EventId& r : receives) {
      for (ProcessId p : group) {
        for (int i = 0; i < comp.eventCount(p); ++i) {
          const EventId e{p, i};
          if (clocks.concurrent(e, r)) g.addEdge(comp.node(e), comp.node(r));
        }
      }
    }
  }
  const auto order = g.topologicalOrder();
  GPD_CHECK_MSG(order.has_value(),
                "receive-ordered extension created a cycle (computation is "
                "not receive-ordered?)");
  std::vector<int> pos(comp.totalEvents());
  for (int i = 0; i < comp.totalEvents(); ++i) pos[(*order)[i]] = i;
  return pos;
}

}  // namespace

Groups groupsOfSingularCnf(const CnfPredicate& pred) {
  GPD_CHECK_MSG(pred.isSingular(), "predicate is not singular");
  Groups groups;
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    groups.push_back(pred.clauseProcesses(static_cast<int>(j)));
  }
  return groups;
}

bool isReceiveOrdered(const VectorClocks& clocks, const Groups& groups) {
  for (const auto& group : groups) {
    if (!analyze::pairwiseOrdered(
            clocks,
            analyze::groupEventsOfKind(clocks.computation(), group, true))) {
      return false;
    }
  }
  return true;
}

bool isSendOrdered(const VectorClocks& clocks, const Groups& groups) {
  for (const auto& group : groups) {
    if (!analyze::pairwiseOrdered(
            clocks,
            analyze::groupEventsOfKind(clocks.computation(), group, false))) {
      return false;
    }
  }
  return true;
}

CpdscResult scanReceiveOrdered(
    const VectorClocks& clocks, const Groups& groups,
    const std::vector<std::vector<EventId>>& trueEvents) {
  GPD_TRACE_SPAN("detect.cpdsc.receive_ordered");
  CpdscResult result;
  GPD_CHECK(groups.size() == trueEvents.size());
  if (!isReceiveOrdered(clocks, groups)) return result;  // NotApplicable

  const Computation& comp = clocks.computation();
  const std::vector<int> sigma = sigmaPositions(clocks, groups);

  const int m = static_cast<int>(groups.size());
  result.status = CpdscResult::Status::NotFound;
  std::vector<std::vector<EventId>> queue(m);
  for (int j = 0; j < m; ++j) {
    queue[j] = trueEvents[j];
    if (queue[j].empty()) return result;
    std::sort(queue[j].begin(), queue[j].end(),
              [&](const EventId& a, const EventId& b) {
                return sigma[comp.node(a)] < sigma[comp.node(b)];
              });
  }

  std::vector<std::size_t> head(m, 0);
  const auto cand = [&](int j) -> const EventId& { return queue[j][head[j]]; };

  std::vector<int> work;
  std::vector<char> queued(m, 1);
  for (int j = 0; j < m; ++j) work.push_back(j);
  const auto enqueue = [&](int j) {
    if (!queued[j]) {
      queued[j] = 1;
      work.push_back(j);
    }
  };

  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    queued[i] = 0;
    bool advancedI = false;
    for (int j = 0; j < m && !advancedI; ++j) {
      if (j == i) continue;
      while (true) {
        if (clocks.succLeq(cand(i), cand(j))) {
          // Property P: cand(i) is inconsistent with cand(j) and with every
          // σ-later event of group j — it is dead.
          if (++head[i] >= queue[i].size()) return result;
          advancedI = true;
          continue;
        }
        if (clocks.succLeq(cand(j), cand(i))) {
          if (++head[j] >= queue[j].size()) return result;
          enqueue(j);
          continue;
        }
        break;
      }
    }
    if (advancedI) enqueue(i);
  }

  result.status = CpdscResult::Status::Found;
  for (int j = 0; j < m; ++j) result.witness.push_back(cand(j));
  result.cut = clocks.leastConsistentCutThrough(result.witness);
  return result;
}

CpdscResult scanSendOrdered(
    const VectorClocks& clocks, const Groups& groups,
    const std::vector<std::vector<EventId>>& trueEvents) {
  GPD_TRACE_SPAN("detect.cpdsc.send_ordered");
  CpdscResult result;
  if (!isSendOrdered(clocks, groups)) return result;  // NotApplicable

  // Dual construction: in the reversed computation a cut passes through
  // (p, last - i) iff the corresponding original cut passes through (p, i),
  // and original sends become receives, so the reversed computation is
  // receive-ordered w.r.t. the same groups.
  const Computation& comp = clocks.computation();
  const Computation reversed = reverseComputation(comp);
  const VectorClocks revClocks(reversed);

  std::vector<std::vector<EventId>> revTrue(trueEvents.size());
  for (std::size_t j = 0; j < trueEvents.size(); ++j) {
    for (const EventId& e : trueEvents[j]) {
      revTrue[j].push_back({e.process, comp.eventCount(e.process) - 1 - e.index});
    }
  }

  CpdscResult rev = scanReceiveOrdered(revClocks, groups, revTrue);
  GPD_CHECK_MSG(rev.applicable(),
                "reversal of a send-ordered computation must be receive-ordered");
  if (!rev.found()) {
    result.status = CpdscResult::Status::NotFound;
    return result;
  }
  result.status = CpdscResult::Status::Found;
  GPD_CHECK(rev.cut.has_value());
  result.cut = reverseCut(comp, *rev.cut);
  GPD_CHECK(clocks.isConsistent(*result.cut));
  for (const EventId& re : rev.witness) {
    result.witness.push_back(
        {re.process, comp.eventCount(re.process) - 1 - re.index});
  }
  for (const EventId& e : result.witness) {
    GPD_CHECK(result.cut->passesThrough(e));
  }
  return result;
}

CpdscResult detectSingularSpecialCase(const VectorClocks& clocks,
                                      const VariableTrace& trace,
                                      const CnfPredicate& pred) {
  GPD_TRACE_SPAN_NAMED(span, "detect.cpdsc");
  span.attrInt("clauses", static_cast<std::int64_t>(pred.clauses.size()));
  const Groups groups = groupsOfSingularCnf(pred);
  const auto trueEvents = analyze::clauseTrueEvents(trace, pred);
  CpdscResult result = scanReceiveOrdered(clocks, groups, trueEvents);
  if (result.applicable()) return result;
  return scanSendOrdered(clocks, groups, trueEvents);
}

}  // namespace gpd::detect
