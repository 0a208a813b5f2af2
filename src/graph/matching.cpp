#include "graph/matching.h"

#include <limits>

#include "util/check.h"

namespace gpd::graph {

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

struct HopcroftKarp {
  const RangeRows& rows;
  std::vector<int>& pairL;
  std::vector<int>& pairR;
  std::vector<int> dist;
  std::vector<int> queue;  // FIFO: pushed at the back, read from `head`

  bool bfs() {
    queue.clear();
    dist.assign(pairL.size(), kInf);
    for (std::size_t l = 0; l < pairL.size(); ++l) {
      if (pairL[l] < 0) {
        dist[l] = 0;
        queue.push_back(static_cast<int>(l));
      }
    }
    bool foundAugmenting = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int l = queue[head];
      for (int k = rows.rowStart[l]; k < rows.rowStart[l + 1]; ++k) {
        for (int r = rows.ranges[k].begin; r < rows.ranges[k].end; ++r) {
          const int l2 = pairR[r];
          if (l2 < 0) {
            foundAugmenting = true;
          } else if (dist[l2] == kInf) {
            dist[l2] = dist[l] + 1;
            queue.push_back(l2);
          }
        }
      }
    }
    return foundAugmenting;
  }

  bool dfs(int l) {
    for (int k = rows.rowStart[l]; k < rows.rowStart[l + 1]; ++k) {
      for (int r = rows.ranges[k].begin; r < rows.ranges[k].end; ++r) {
        const int l2 = pairR[r];
        if (l2 < 0 || (dist[l2] == dist[l] + 1 && dfs(l2))) {
          pairL[l] = r;
          pairR[r] = l;
          return true;
        }
      }
    }
    dist[l] = kInf;
    return false;
  }
};

}  // namespace

MatchingResult maximumBipartiteMatching(const RangeRows& rows, int nRight) {
  const int nLeft = rows.rows();
  GPD_CHECK(nLeft >= 0 && nRight >= 0);
  GPD_CHECK(rows.rowStart.back() == static_cast<int>(rows.ranges.size()));
  for (const IndexRange& range : rows.ranges) {
    GPD_CHECK(0 <= range.begin && range.begin < range.end &&
              range.end <= nRight);
  }
  MatchingResult res;
  res.pairLeft.assign(nLeft, -1);
  res.pairRight.assign(nRight, -1);
  HopcroftKarp hk{rows, res.pairLeft, res.pairRight, {}, {}};
  while (hk.bfs()) {
    for (int l = 0; l < nLeft; ++l) {
      if (res.pairLeft[l] < 0 && hk.dfs(l)) ++res.size;
    }
  }
  return res;
}

}  // namespace gpd::graph
