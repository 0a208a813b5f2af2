#include "computation/computation.h"

#include "util/check.h"

namespace gpd {

EventKind Computation::kind(const EventId& e) const {
  GPD_CHECK(contains(e));
  if (e.isInitial()) return EventKind::Initial;
  const bool sends = !outgoing_[node(e)].empty();
  const bool receives = !incoming_[node(e)].empty();
  if (sends && receives) return EventKind::SendReceive;
  if (sends) return EventKind::Send;
  if (receives) return EventKind::Receive;
  return EventKind::Internal;
}

EventId Computation::event(int node) const {
  GPD_CHECK(node >= 0 && node < total_);
  // offsets_ is sorted; find the owning process by scan (process counts are
  // small) — callers on hot paths keep EventIds around instead.
  ProcessId p = 0;
  while (p + 1 < processCount() && offsets_[p + 1] <= node) ++p;
  return {p, node - offsets_[p]};
}

graph::Dag Computation::toDagWithoutInitialEdges() const {
  graph::Dag g(total_);
  for (ProcessId p = 0; p < processCount(); ++p) {
    for (int i = 0; i + 1 < eventCount(p); ++i) {
      g.addEdge(node({p, i}), node({p, i + 1}));
    }
  }
  for (const Message& m : messages_) {
    g.addEdge(node(m.send), node(m.receive));
  }
  return g;
}

graph::Dag Computation::toDag() const {
  graph::Dag g = toDagWithoutInitialEdges();
  // ⊥_p precedes the first non-initial event of every *other* process (its
  // own is already covered by the process edge).
  for (ProcessId p = 0; p < processCount(); ++p) {
    for (ProcessId q = 0; q < processCount(); ++q) {
      if (p != q && eventCount(q) > 1) {
        g.addEdge(node({p, 0}), node({q, 1}));
      }
    }
  }
  return g;
}

ComputationBuilder::ComputationBuilder(int processCount)
    : eventCounts_(processCount, 1) {
  GPD_CHECK(processCount >= 1);
}

EventId ComputationBuilder::appendEvent(ProcessId p) {
  GPD_CHECK(p >= 0 && p < static_cast<int>(eventCounts_.size()));
  return {p, eventCounts_[p]++};
}

void ComputationBuilder::addMessage(EventId send, EventId receive) {
  GPD_CHECK(send.process >= 0 &&
            send.process < static_cast<int>(eventCounts_.size()));
  GPD_CHECK(receive.process >= 0 &&
            receive.process < static_cast<int>(eventCounts_.size()));
  GPD_CHECK(send.index >= 1 && send.index < eventCounts_[send.process]);
  GPD_CHECK(receive.index >= 1 && receive.index < eventCounts_[receive.process]);
  GPD_CHECK_MSG(send.process != receive.process,
                "messages must cross processes");
  messages_.push_back({send, receive});
}

Computation ComputationBuilder::build() && {
  Computation c;
  c.eventCounts_ = std::move(eventCounts_);
  c.offsets_.resize(c.eventCounts_.size());
  int total = 0;
  for (std::size_t p = 0; p < c.eventCounts_.size(); ++p) {
    c.offsets_[p] = total;
    total += c.eventCounts_[p];
  }
  c.total_ = total;
  c.messages_ = std::move(messages_);
  c.incoming_.assign(total, {});
  c.outgoing_.assign(total, {});
  for (std::size_t m = 0; m < c.messages_.size(); ++m) {
    c.outgoing_[c.node(c.messages_[m].send)].push_back(static_cast<int>(m));
    c.incoming_[c.node(c.messages_[m].receive)].push_back(static_cast<int>(m));
  }
  // Kahn's algorithm over the process edges and outgoing_, in the order
  // graph::Dag::topologicalOrder visits toDagWithoutInitialEdges(). Only the
  // initial events start without a predecessor.
  std::vector<int> indegree(total);
  for (int node = 0; node < total; ++node) {
    indegree[node] = static_cast<int>(c.incoming_[node].size()) + 1;
  }
  std::vector<EventId> ready;
  for (ProcessId p = 0; p < c.processCount(); ++p) {
    indegree[c.offsets_[p]] = 0;
    ready.push_back({p, 0});
  }
  c.topological_.reserve(total);
  while (!ready.empty()) {
    const EventId e = ready.back();
    ready.pop_back();
    const int node = c.node(e);
    c.topological_.push_back(node);
    if (e.index + 1 < c.eventCount(e.process) && --indegree[node + 1] == 0) {
      ready.push_back({e.process, e.index + 1});
    }
    for (int m : c.outgoing_[node]) {
      const EventId r = c.messages_[m].receive;
      if (--indegree[c.node(r)] == 0) ready.push_back(r);
    }
  }
  GPD_CHECK_MSG(static_cast<int>(c.topological_.size()) == total,
                "message edges create a causal cycle");
  return c;
}

}  // namespace gpd
