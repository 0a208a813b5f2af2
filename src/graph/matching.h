// Hopcroft–Karp maximum bipartite matching.
//
// Used by the Dilworth chain-cover construction (Sec. 3.3 of the paper): the
// minimum number of chains covering the true events of a clause group equals
// |events| − |maximum matching| in the comparability bipartite graph.
//
// The adjacency comes as rows of half-open index ranges. A comparability
// graph built from vector clocks has one range per (event, process), since
// the events an event precedes form a suffix of each process, so a row
// stays a handful of ranges where a neighbour list would hold every
// successor. The ranges are read in place; no neighbour list is built.
#pragma once

#include <vector>

namespace gpd::graph {

// The right nodes begin, begin + 1, …, end − 1.
struct IndexRange {
  int begin = 0;
  int end = 0;
};

// The neighbours of each left node, row by row: row l is
// ranges[rowStart[l]] … ranges[rowStart[l + 1] − 1], visited in that order.
struct RangeRows {
  std::vector<int> rowStart{0};
  std::vector<IndexRange> ranges;

  int rows() const { return static_cast<int>(rowStart.size()) - 1; }
  // Appends [begin, end) to the open row; an empty range is dropped.
  void add(int begin, int end) {
    if (begin < end) ranges.push_back({begin, end});
  }
  // Closes the open row; the next add() starts the following one.
  void endRow() { rowStart.push_back(static_cast<int>(ranges.size())); }
};

struct MatchingResult {
  int size = 0;                // number of matched pairs
  std::vector<int> pairLeft;   // pairLeft[l]  = matched right node or -1
  std::vector<int> pairRight;  // pairRight[r] = matched left node or -1
};

// Left nodes are 0 … rows.rows() − 1. O(E·sqrt(V)) with E the total length
// of the ranges.
MatchingResult maximumBipartiteMatching(const RangeRows& rows, int nRight);

}  // namespace gpd::graph
