#include "flow/closure.h"

#include <limits>

#include "flow/maxflow.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace gpd::flow {

ClosureResult maxWeightClosure(const graph::Dag& g,
                               const std::vector<std::int64_t>& weight) {
  const int n = g.size();
  GPD_CHECK(static_cast<int>(weight.size()) == n);
  GPD_OBS_COUNTER_ADD("flow_closures_solved", 1);

  // Standard construction: source → u with cap w(u) for positive weights,
  // u → sink with cap −w(u) for negative ones, and an infinite-capacity arc
  // per graph edge. Source side of the min cut = optimal closure.
  MaxFlow mf(n + 2);
  const int source = n;
  const int sink = n + 1;
  std::int64_t positiveTotal = 0;
  for (int u = 0; u < n; ++u) {
    if (weight[u] > 0) {
      GPD_CHECK_MSG(!__builtin_add_overflow(positiveTotal, weight[u],
                                            &positiveTotal),
                    "positive closure weights overflow int64");
      mf.addEdge(source, u, weight[u]);
    } else if (weight[u] < 0) {
      GPD_CHECK(weight[u] > std::numeric_limits<std::int64_t>::min());
      mf.addEdge(u, sink, -weight[u]);
    }
  }
  // "Infinite" capacity: strictly larger than any possible finite cut.
  GPD_CHECK_MSG(positiveTotal < std::numeric_limits<std::int64_t>::max(),
                "positive closure weights overflow int64");
  const std::int64_t inf = positiveTotal + 1;
  for (int u = 0; u < n; ++u) {
    for (int v : g.successors(u)) mf.addEdge(u, v, inf);
  }
  const std::int64_t cut = mf.solve(source, sink);

  ClosureResult res;
  res.weight = positiveTotal - cut;
  const std::vector<char> side = mf.minCutSourceSide();
  res.inClosure.assign(n, 0);
  for (int u = 0; u < n; ++u) res.inClosure[u] = side[u];
  GPD_CHECK(res.weight >= 0);  // empty closure is always available
  return res;
}

}  // namespace gpd::flow
