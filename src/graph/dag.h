// Directed graph with DAG-oriented queries.
//
// The event set of a distributed computation, ordered by the paper's
// irreflexive partial order ≺, is represented as a Dag whose edges are the
// covering relation plus message edges. This module provides the generic
// graph machinery the detection algorithms build on: topological order,
// reachability (transitive closure), and transitive reduction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace gpd::graph {

class Dag {
 public:
  Dag() = default;
  explicit Dag(int n);

  int addNode();
  // Adds edge u -> v. Parallel edges are allowed (and deduplicated lazily by
  // algorithms that care); self-loops are rejected.
  void addEdge(int u, int v);

  int size() const { return static_cast<int>(succ_.size()); }
  int edgeCount() const { return edges_; }
  const std::vector<int>& successors(int u) const { return succ_[u]; }
  const std::vector<int>& predecessors(int u) const { return pred_[u]; }

  // Kahn's algorithm. nullopt iff the graph has a cycle.
  std::optional<std::vector<int>> topologicalOrder() const;
  bool isAcyclic() const { return topologicalOrder().has_value(); }

 private:
  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<int>> pred_;
  int edges_ = 0;
};

// Dense transitive closure over a DAG, bitset-packed; O(V·E/64) to build,
// O(1) per query. `reaches(u, v)` is true iff there is a path of one or more
// edges from u to v (strict: reaches(u, u) is false unless u lies on a cycle,
// which the constructor rejects).
class Reachability {
 public:
  explicit Reachability(const Dag& dag);

  bool reaches(int u, int v) const {
    return (rows_[u][static_cast<std::size_t>(v) >> 6] >>
            (static_cast<std::size_t>(v) & 63)) & 1;
  }

  // u and v are incomparable under the strict order.
  bool concurrent(int u, int v) const {
    return u != v && !reaches(u, v) && !reaches(v, u);
  }

  int size() const { return n_; }

 private:
  int n_ = 0;
  std::vector<std::vector<std::uint64_t>> rows_;
};

// Removes every edge implied by transitivity; returns the covering relation.
Dag transitiveReduction(const Dag& dag);

}  // namespace gpd::graph
