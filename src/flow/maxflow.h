// Maximum flow / minimum cut by FIFO push-relabel.
//
// The relational-predicate detectors (paper Sec. 4, citing Chase–Garg and
// Tomlinson–Garg) need the extremum of Σᵢ xᵢ over all consistent cuts; that
// optimization is a maximum-weight closure problem, solved here by min-cut.
//
// solve() lays the edges out as CSR arcs (each node's arcs contiguous, each
// arc paired with its reverse) and runs two push-relabel passes. The first
// drains excess toward the sink and ends with a maximum preflow. The second
// returns the excess stranded at nodes cut off from the sink to the source,
// which turns the preflow into a maximum flow: minCutSourceSide's residual
// BFS gives the minimal cut only for a flow. Each pass discharges active
// nodes in FIFO order, with the gap heuristic and a global relabel (BFS
// distances to the pass's target) at its start and after every 3n + m/2
// units of relabel work.
#pragma once

#include <cstdint>
#include <vector>

namespace gpd::flow {

class MaxFlow {
 public:
  explicit MaxFlow(int n);

  // Adds a directed edge with the given capacity; returns an edge id usable
  // with flowOn(). Capacity must be non-negative.
  int addEdge(int from, int to, std::int64_t capacity);

  // Computes the maximum s-t flow. May be called once per instance.
  std::int64_t solve(int source, int sink);

  // Flow pushed through edge `id` (valid after solve()).
  std::int64_t flowOn(int id) const;

  // After solve(): nodes reachable from the source in the residual graph,
  // i.e. the source side of the minimum cut with the fewest nodes (the
  // same set for every maximum flow).
  std::vector<char> minCutSourceSide() const;

  int size() const { return n_; }

 private:
  struct Edge {
    int from;
    int to;
    std::int64_t cap;
  };

  void layOutArcs();
  void pushRelabel(int target);
  void globalRelabel(int target);
  long discharge(int u);
  long relabel(int u);

  int n_;
  std::vector<Edge> edges_;  // as added; layOutArcs() turns them into arcs
  // CSR residual graph: node u's arcs are [first_[u], first_[u + 1]); arc a
  // leads to head_[a] with residual capacity cap_[a], and mate_[a] is its
  // reverse. Edge k's forward arc is arcOf_[k].
  std::vector<int> first_;
  std::vector<int> head_;
  std::vector<int> mate_;
  std::vector<std::int64_t> cap_;
  std::vector<int> arcOf_;
  // Push-relabel state. A node's height is at most its residual distance
  // to the pass's target; height n_ parks a node that cannot reach it.
  std::vector<std::int64_t> excess_;
  std::vector<int> height_;
  std::vector<int> count_;    // nodes per height below n_, for the gap test
  std::vector<int> current_;  // per node: next arc discharge() tries
  std::vector<int> active_;   // FIFO of nodes with excess, in arrival order
  std::vector<char> queued_;
  int source_ = -1;
  int sink_ = -1;
  bool solved_ = false;
};

}  // namespace gpd::flow
