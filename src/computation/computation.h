// The distributed-computation model of the paper (Sec. 2.1).
//
// A Computation is an immutable irreflexive partial order (E, ≺) over the
// events of an execution: per-process total orders, message edges, and the
// convention that each process's initial event precedes every non-initial
// event. Build one with ComputationBuilder (acyclicity is validated), obtain
// one from the simulator (src/sim), or generate random ones (random.h).
#pragma once

#include <vector>

#include "computation/event.h"
#include "graph/dag.h"

namespace gpd {

class Computation {
 public:
  int processCount() const { return static_cast<int>(eventCounts_.size()); }

  // Number of events on process p, including the initial event (≥ 1).
  int eventCount(ProcessId p) const { return eventCounts_[p]; }

  // Total number of events across processes.
  int totalEvents() const { return total_; }

  bool contains(const EventId& e) const {
    return e.process >= 0 && e.process < processCount() && e.index >= 0 &&
           e.index < eventCount(e.process);
  }

  const std::vector<Message>& messages() const { return messages_; }

  // Messages received by / sent from a given event (non-empty only for
  // send / receive / send-receive events).
  const std::vector<int>& incomingMessages(const EventId& e) const {
    return incoming_[node(e)];
  }
  const std::vector<int>& outgoingMessages(const EventId& e) const {
    return outgoing_[node(e)];
  }

  EventKind kind(const EventId& e) const;

  // Dense node numbering over all events (process-major), for graph work.
  int node(const EventId& e) const { return offsets_[e.process] + e.index; }
  EventId event(int node) const;

  // The event order as a DAG over node() numbering: process edges, message
  // edges, and the initial-precedes-everything edges of the paper's model.
  graph::Dag toDag() const;

  // As above but *without* the initial-precedence edges: exactly the
  // happened-before edges induced by process order and messages.
  graph::Dag toDagWithoutInitialEdges() const;

  // A topological order of the nodes under happened-before, computed once by
  // the builder's acyclicity check. It is exactly
  // toDagWithoutInitialEdges().topologicalOrder(): Kahn's algorithm with a
  // LIFO ready stack, seeded with the initial events in node order, where a
  // node releases its process successor first and then its messages'
  // receives in message-index order. The clocks and the Theorem 4 walk run
  // in this order (the initial edges add nothing to either, since every cut
  // contains every initial event).
  const std::vector<int>& topologicalOrder() const { return topological_; }

 private:
  friend class ComputationBuilder;
  Computation() = default;

  std::vector<int> eventCounts_;
  std::vector<int> offsets_;
  int total_ = 0;
  std::vector<Message> messages_;
  std::vector<std::vector<int>> incoming_;  // per node: message indices
  std::vector<std::vector<int>> outgoing_;
  std::vector<int> topological_;
};

class ComputationBuilder {
 public:
  explicit ComputationBuilder(int processCount);

  // Appends a non-initial event to process p; returns its EventId.
  // (The initial event at index 0 exists implicitly.)
  EventId appendEvent(ProcessId p);

  // Declares that `send` sends a message received by `receive`. Both events
  // must already exist and be non-initial, on distinct processes.
  void addMessage(EventId send, EventId receive);

  // Validates acyclicity of the resulting order (CheckFailure "message edges
  // create a causal cycle" otherwise), records its topological order and
  // returns the computation.
  Computation build() &&;

 private:
  std::vector<int> eventCounts_;
  std::vector<Message> messages_;
};

}  // namespace gpd
