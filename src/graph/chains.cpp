#include "graph/chains.h"

#include "util/check.h"

namespace gpd::graph {

std::vector<std::vector<int>> minimumChainCover(const RangeRows& successors) {
  const int n = successors.rows();
  GPD_CHECK(n >= 0);
  if (n == 0) return {};
  // Fulkerson's construction: bipartite graph with left copy a and right copy
  // b joined when a ≺ b; each matched edge fuses two chain fragments. Because
  // ≺ is transitive the matched successor relation yields valid chains
  // directly.
  const MatchingResult m = maximumBipartiteMatching(successors, n);

  std::vector<std::vector<int>> chains;
  std::vector<char> isChainHead(n, 1);
  for (int b = 0; b < n; ++b) {
    if (m.pairRight[b] >= 0) isChainHead[b] = 0;  // b has a predecessor
  }
  for (int head = 0; head < n; ++head) {
    if (!isChainHead[head]) continue;
    std::vector<int> chain;
    for (int cur = head; cur >= 0; cur = m.pairLeft[cur]) {
      chain.push_back(cur);
    }
    chains.push_back(std::move(chain));
  }
  // Every element is in exactly one chain: heads + matched edges partition.
  std::size_t covered = 0;
  for (const auto& c : chains) covered += c.size();
  GPD_CHECK(covered == static_cast<std::size_t>(n));
  return chains;
}

}  // namespace gpd::graph
