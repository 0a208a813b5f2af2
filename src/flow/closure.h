// Maximum-weight closure (project selection).
//
// A closure of a directed graph is a node set S such that u ∈ S and u → v
// imply v ∈ S. Maximizing total node weight over closures reduces to a
// minimum s-t cut (Picard 1976). The detect module uses this on the reversed
// event DAG: consistent cuts of a computation are exactly the down-closed
// event sets, and the extremum of a sum Σᵢ xᵢ over consistent cuts is
// f(⊥) + maxWeightClosure(reversed DAG, per-event Δ weights).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dag.h"

namespace gpd::flow {

struct ClosureResult {
  std::int64_t weight = 0;     // total weight of the chosen closure
  std::vector<char> inClosure; // indicator per node
};

// Returns the maximum-weight closure of `g` (closed under successors) with
// the fewest nodes. Closures are closed under ∩ and ∪, so that minimal
// optimum is unique; it is the source side of the minimum cut that
// MaxFlow::minCutSourceSide returns. The empty set is a valid closure, so
// the result weight is always ≥ 0. The positive weights must sum to less
// than INT64_MAX (CheckFailure otherwise). Counts flow_closures_solved.
ClosureResult maxWeightClosure(const graph::Dag& g,
                               const std::vector<std::int64_t>& weight);

}  // namespace gpd::flow
