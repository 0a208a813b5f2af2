#include "clocks/lamport.h"

#include <algorithm>

namespace gpd {

std::vector<int> lamportClocks(const Computation& c) {
  std::vector<int> clock(c.totalEvents(), 0);
  for (int node : c.topologicalOrder()) {
    const EventId e = c.event(node);
    if (e.isInitial()) continue;
    int best = clock[c.node({e.process, e.index - 1})];
    for (int m : c.incomingMessages(e)) {
      best = std::max(best, clock[c.node(c.messages()[m].send)]);
    }
    clock[node] = best + 1;
  }
  return clock;
}

}  // namespace gpd
