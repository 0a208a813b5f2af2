// Maximum-weight closure (project selection).
//
// A closure of a directed graph is a node set S such that u ∈ S and u → v
// imply v ∈ S. Maximizing total node weight over closures reduces to a
// minimum s-t cut (Picard 1976). The sum detectors (detect/sum.h) use it
// for the extremum of Σᵢ xᵢ over the consistent cuts: those are the
// down-closed event sets, which are the closures of the event order with
// every arc pointing from an event to one it requires. The detectors first
// contract each process's events into runs (see detect/sum.h for the rules
// and why they keep the minimal optimum), so the nodes here are runs.
#pragma once

#include <cstdint>
#include <vector>

namespace gpd::flow {

// u → v: a closure that contains `from` must contain `to`.
struct Arc {
  int from;
  int to;
};

struct ClosureResult {
  std::int64_t weight = 0;     // total weight of the chosen closure
  std::vector<char> inClosure; // indicator per node
};

// Returns the maximum-weight closure of the graph on nodes 0..n−1 with the
// given arcs (parallel arcs allowed) and the fewest nodes. Closures are
// closed under ∩ and ∪, so that minimal optimum is unique; it is the source
// side of the minimum cut that MaxFlow::minCutSourceSide returns. The empty
// set is a valid closure, so the result weight is always ≥ 0. The positive
// weights must sum to less than INT64_MAX (CheckFailure otherwise). Counts
// flow_closures_solved (one per call, also for n = 0) and
// flow_closure_nodes (n).
ClosureResult maxWeightClosure(int n, const std::vector<Arc>& arcs,
                               const std::vector<std::int64_t>& weight);

}  // namespace gpd::flow
