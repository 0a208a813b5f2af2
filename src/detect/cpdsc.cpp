#include "detect/cpdsc.h"

#include <algorithm>

#include "computation/reverse.h"
#include "detect/cpdhb.h"
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

// The receive-ordered scan: group j's queue is its clause-true events
// `queues[j]`, sorted by σ and handed to the one scan.
CpdscResult scanReceiveOrdered(const VectorClocks& clocks, const Groups& groups,
                               std::vector<std::vector<EventId>> queues) {
  GPD_TRACE_SPAN("detect.cpdsc.receive_ordered");
  const Computation& comp = clocks.computation();
  const std::vector<int> sigma = sigmaPositions(clocks, groups);
  for (std::vector<EventId>& queue : queues) {
    std::sort(queue.begin(), queue.end(),
              [&](const EventId& a, const EventId& b) {
                return sigma[comp.node(a)] < sigma[comp.node(b)];
              });
  }
  const std::vector<Candidates> lists(queues.begin(), queues.end());
  ConjunctiveResult scan = eliminationScan(clocks, lists);
  CpdscResult result;
  result.status = scan.found ? CpdscResult::Status::Found
                             : CpdscResult::Status::NotFound;
  result.witness = std::move(scan.witness);
  result.cut = std::move(scan.cut);
  return result;
}

// The dual scan via computation reversal, for send-ordered groups.
CpdscResult scanSendOrdered(
    const VectorClocks& clocks, const Groups& groups,
    const std::vector<std::vector<EventId>>& trueEvents) {
  GPD_TRACE_SPAN("detect.cpdsc.send_ordered");
  // In the reversed computation a cut passes through (p, last - i) iff the
  // corresponding original cut passes through (p, i), and original sends
  // become receives, so the reversed computation is receive-ordered w.r.t.
  // the same groups.
  const Computation& comp = clocks.computation();
  const Computation reversed = reverseComputation(comp);
  const VectorClocks revClocks(reversed);
  GPD_DCHECK(analyze::groupOrder(revClocks, groups).receiveOrdered);
  const auto mirror = [&](const EventId& e) -> EventId {
    return {e.process, comp.eventCount(e.process) - 1 - e.index};
  };

  std::vector<std::vector<EventId>> revTrue(trueEvents.size());
  for (std::size_t j = 0; j < trueEvents.size(); ++j) {
    for (const EventId& e : trueEvents[j]) revTrue[j].push_back(mirror(e));
  }

  CpdscResult result =
      scanReceiveOrdered(revClocks, groups, std::move(revTrue));
  if (!result.found()) return result;
  GPD_CHECK(result.cut.has_value());
  result.cut = reverseCut(comp, *result.cut);
  GPD_CHECK(clocks.isConsistent(*result.cut));
  for (EventId& e : result.witness) {
    e = mirror(e);
    GPD_CHECK(result.cut->passesThrough(e));
  }
  return result;
}

// Runs whichever scan `order` admits; NotApplicable when neither.
CpdscResult scanOrderedGroups(const VectorClocks& clocks, const Groups& groups,
                              std::vector<std::vector<EventId>> trueEvents,
                              analyze::GroupOrder order) {
  GPD_CHECK(groups.size() == trueEvents.size());
  if (order.receiveOrdered) {
    return scanReceiveOrdered(clocks, groups, std::move(trueEvents));
  }
  if (order.sendOrdered) return scanSendOrdered(clocks, groups, trueEvents);
  return CpdscResult{};
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

CpdscResult detectSingularSpecialCase(const VectorClocks& clocks,
                                      const analyze::CnfClassification& cls) {
  GPD_TRACE_SPAN_NAMED(span, "detect.cpdsc");
  span.attrInt("clauses", static_cast<std::int64_t>(cls.clauses.size()));
  GPD_CHECK_MSG(cls.singular, "predicate is not singular");
  Groups groups;
  std::vector<std::vector<EventId>> trueEvents;
  for (const analyze::ClauseFacts& facts : cls.clauses) {
    groups.push_back(facts.processes);
    trueEvents.push_back(facts.trueEvents);
  }
  return scanOrderedGroups(clocks, groups, std::move(trueEvents),
                           {cls.receiveOrdered, cls.sendOrdered});
}

CpdscResult detectSingularSpecialCase(const VectorClocks& clocks,
                                      const VariableTrace& trace,
                                      const CnfPredicate& pred) {
  GPD_TRACE_SPAN_NAMED(span, "detect.cpdsc");
  span.attrInt("clauses", static_cast<std::int64_t>(pred.clauses.size()));
  const Groups groups = groupsOfSingularCnf(pred);
  return scanOrderedGroups(clocks, groups,
                           analyze::clauseTrueEvents(trace, pred),
                           analyze::groupOrder(clocks, groups));
}

}  // namespace gpd::detect
