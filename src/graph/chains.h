// Minimum chain cover of a finite strict partial order (Dilworth / Fulkerson).
//
// Sec. 3.3 of the paper covers the true events of each clause group by a
// minimum set of chains and enumerates one chain per group; the number of
// CPDHB invocations is the product of the cover sizes, which is never worse
// than the k^m process-enumeration bound because a group's events on one
// process already form a chain. clocks/chain_cover.h builds the successor
// rows of a set of events from their vector clocks.
#pragma once

#include <vector>

#include "graph/matching.h"

namespace gpd::graph {

// Row a of `successors` lists the b with a ≺ b, where ≺ must be a strict
// partial order on {0, …, n-1} (irreflexive, transitive) and n is
// successors.rows(). Returns a partition of {0, …, n-1} into the minimum
// number of chains; each chain is listed in increasing order (consecutive
// members satisfy ≺). By Dilworth's theorem the cover size equals the
// maximum antichain size. The chains depend on the order of the ranges.
std::vector<std::vector<int>> minimumChainCover(const RangeRows& successors);

}  // namespace gpd::graph
