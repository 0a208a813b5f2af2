#include "graph/dag.h"

#include <algorithm>

#include "util/check.h"

namespace gpd::graph {

Dag::Dag(int n) : succ_(n), pred_(n) { GPD_CHECK(n >= 0); }

int Dag::addNode() {
  succ_.emplace_back();
  pred_.emplace_back();
  return size() - 1;
}

void Dag::addEdge(int u, int v) {
  GPD_CHECK(u >= 0 && u < size() && v >= 0 && v < size());
  GPD_CHECK_MSG(u != v, "self-loop at node " << u);
  succ_[u].push_back(v);
  pred_[v].push_back(u);
  ++edges_;
}

std::optional<std::vector<int>> Dag::topologicalOrder() const {
  const int n = size();
  std::vector<int> indeg(n, 0);
  for (int v = 0; v < n; ++v) indeg[v] = static_cast<int>(pred_[v].size());
  std::vector<int> order;
  order.reserve(n);
  std::vector<int> ready;
  for (int v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const int u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (int v : succ_[u]) {
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;
  return order;
}

Reachability::Reachability(const Dag& dag) : n_(dag.size()) {
  const auto order = dag.topologicalOrder();
  GPD_CHECK_MSG(order.has_value(), "Reachability requires an acyclic graph");
  const std::size_t words = (static_cast<std::size_t>(n_) + 63) / 64;
  rows_.assign(n_, std::vector<std::uint64_t>(words, 0));
  // Process in reverse topological order: row(u) = union over successors v of
  // (row(v) | {v}).
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const int u = *it;
    auto& row = rows_[u];
    for (int v : dag.successors(u)) {
      row[static_cast<std::size_t>(v) >> 6] |=
          std::uint64_t{1} << (static_cast<std::size_t>(v) & 63);
      const auto& rv = rows_[v];
      for (std::size_t w = 0; w < words; ++w) row[w] |= rv[w];
    }
  }
}

Dag transitiveReduction(const Dag& dag) {
  const Reachability reach(dag);
  Dag out(dag.size());
  for (int u = 0; u < dag.size(); ++u) {
    // Deduplicate successors first.
    std::vector<int> succ = dag.successors(u);
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    for (int v : succ) {
      bool implied = false;
      for (int w : succ) {
        if (w != v && reach.reaches(w, v)) {
          implied = true;
          break;
        }
      }
      if (!implied) out.addEdge(u, v);
    }
  }
  return out;
}

}  // namespace gpd::graph
