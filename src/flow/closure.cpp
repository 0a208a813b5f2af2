#include "flow/closure.h"

#include <limits>

#include "flow/maxflow.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace gpd::flow {

ClosureResult maxWeightClosure(int n, const std::vector<Arc>& arcs,
                               const std::vector<std::int64_t>& weight) {
  GPD_CHECK(n >= 0 && static_cast<int>(weight.size()) == n);
  GPD_OBS_COUNTER_ADD("flow_closures_solved", 1);
  GPD_OBS_COUNTER_ADD("flow_closure_nodes", static_cast<std::uint64_t>(n));

  // Standard construction: source → u with cap w(u) for positive weights,
  // u → sink with cap −w(u) for negative ones, and an infinite-capacity arc
  // per graph arc. Source side of the min cut = optimal closure.
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
  for (const Arc& a : arcs) {
    GPD_CHECK(a.from >= 0 && a.from < n && a.to >= 0 && a.to < n);
    mf.addEdge(a.from, a.to, inf);
  }
  const std::int64_t cut = mf.solve(source, sink);

  ClosureResult res;
  res.weight = positiveTotal - cut;
  res.inClosure = mf.minCutSourceSide();
  res.inClosure.resize(n);  // drop the source and sink
  GPD_CHECK(res.weight >= 0);  // empty closure is always available
  return res;
}

}  // namespace gpd::flow
