#include "flow/maxflow.h"

#include <algorithm>

#include "util/check.h"

namespace gpd::flow {

MaxFlow::MaxFlow(int n) : n_(n) { GPD_CHECK(n >= 0); }

int MaxFlow::addEdge(int from, int to, std::int64_t capacity) {
  GPD_CHECK(from >= 0 && from < size() && to >= 0 && to < size());
  GPD_CHECK(capacity >= 0);
  GPD_CHECK_MSG(!solved_, "cannot add edges after solve()");
  edges_.push_back({from, to, capacity});
  return static_cast<int>(edges_.size()) - 1;
}

void MaxFlow::layOutArcs() {
  first_.assign(n_ + 1, 0);
  for (const Edge& e : edges_) {
    ++first_[e.from + 1];
    ++first_[e.to + 1];
  }
  for (int u = 0; u < n_; ++u) first_[u + 1] += first_[u];
  const std::size_t arcs = 2 * edges_.size();
  head_.resize(arcs);
  mate_.resize(arcs);
  cap_.resize(arcs);
  arcOf_.resize(edges_.size());
  std::vector<int> next(first_.begin(), first_.end() - 1);
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    const Edge& e = edges_[k];
    const int fwd = next[e.from]++;
    const int rev = next[e.to]++;
    head_[fwd] = e.to;
    cap_[fwd] = e.cap;
    mate_[fwd] = rev;
    head_[rev] = e.from;
    cap_[rev] = 0;
    mate_[rev] = fwd;
    arcOf_[k] = fwd;
  }
}

// Exact heights: BFS from `target` backwards over residual arcs. The other
// terminal and every node that cannot reach the target are parked at n_.
// Then every node with excess below n_ is queued, in index order.
void MaxFlow::globalRelabel(int target) {
  std::fill(height_.begin(), height_.end(), n_);
  std::fill(count_.begin(), count_.end(), 0);
  height_[target] = 0;
  std::vector<int> queue{target};
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int v = queue[qi];
    ++count_[height_[v]];
    for (int a = first_[v]; a < first_[v + 1]; ++a) {
      const int u = head_[a];
      if (height_[u] == n_ && u != source_ && u != sink_ &&
          cap_[mate_[a]] > 0) {
        height_[u] = height_[v] + 1;
        queue.push_back(u);
      }
    }
  }
  std::copy(first_.begin(), first_.end() - 1, current_.begin());
  active_.clear();
  std::fill(queued_.begin(), queued_.end(), 0);
  for (int u = 0; u < n_; ++u) {
    if (u != source_ && u != sink_ && excess_[u] > 0 && height_[u] < n_) {
      queued_[u] = 1;
      active_.push_back(u);
    }
  }
}

// Raises u to one above its lowest residual neighbour. If u was the last
// node at its old height, no node above that height can reach the target
// any more (the gap heuristic), so all of them are parked. Returns the
// work done, in the units the global-relabel period counts.
long MaxFlow::relabel(int u) {
  const int old = height_[u];
  int h = n_;
  for (int a = first_[u]; a < first_[u + 1]; ++a) {
    if (cap_[a] > 0) h = std::min(h, height_[head_[a]] + 1);
  }
  current_[u] = first_[u];
  if (--count_[old] == 0) {
    for (int w = 0; w < n_; ++w) {
      if (height_[w] > old && height_[w] < n_) {
        --count_[height_[w]];
        height_[w] = n_;
      }
    }
    h = n_;
  }
  height_[u] = h;
  if (h < n_) ++count_[h];
  return 12 + (first_[u + 1] - first_[u]);
}

// Pushes u's excess down admissible arcs (one height lower), relabelling
// when u's arcs run out, until the excess is gone or u is parked.
long MaxFlow::discharge(int u) {
  long work = 0;
  while (excess_[u] > 0 && height_[u] < n_) {
    const int a = current_[u];
    if (a == first_[u + 1]) {
      work += relabel(u);
      continue;
    }
    const int v = head_[a];
    if (cap_[a] > 0 && height_[u] == height_[v] + 1) {
      const std::int64_t pushed = std::min(excess_[u], cap_[a]);
      cap_[a] -= pushed;
      cap_[mate_[a]] += pushed;
      excess_[u] -= pushed;
      excess_[v] += pushed;
      if (!queued_[v] && v != source_ && v != sink_) {
        queued_[v] = 1;
        active_.push_back(v);
      }
      if (excess_[u] == 0) break;  // the arc may have capacity left
    }
    ++current_[u];
  }
  return work;
}

// Moves every excess it can to `target`: discharges active nodes in FIFO
// rounds and recomputes exact heights once the relabel work since the last
// global relabel exceeds 3n + m/2.
void MaxFlow::pushRelabel(int target) {
  const long period = (3L * n_) + (static_cast<long>(edges_.size()) / 2);
  long work = 0;
  globalRelabel(target);
  std::vector<int> round;
  while (!active_.empty()) {
    round.swap(active_);
    active_.clear();
    for (const int u : round) {
      queued_[u] = 0;
      work += discharge(u);
      if (work > period) {
        work = 0;
        globalRelabel(target);  // re-queues the rest of this round too
        break;
      }
    }
  }
}

std::int64_t MaxFlow::solve(int source, int sink) {
  GPD_CHECK(source >= 0 && source < size() && sink >= 0 && sink < size());
  GPD_CHECK(source != sink);
  GPD_CHECK_MSG(!solved_, "solve() may be called once");
  source_ = source;
  sink_ = sink;
  layOutArcs();
  excess_.assign(n_, 0);
  height_.assign(n_, n_);
  count_.assign(n_, 0);
  current_.assign(n_, 0);
  queued_.assign(n_, 0);
  for (int a = first_[source]; a < first_[source + 1]; ++a) {
    excess_[head_[a]] += cap_[a];
    cap_[mate_[a]] += cap_[a];
    cap_[a] = 0;
  }
  // Pass 1 ends with a maximum preflow. Every node still holding excess
  // has a residual path back to the source, so pass 2 empties them all.
  pushRelabel(sink);
  pushRelabel(source);
  for (int u = 0; u < n_; ++u) {
    GPD_CHECK(u == source || u == sink || excess_[u] == 0);
  }
  solved_ = true;
  return excess_[sink];
}

std::int64_t MaxFlow::flowOn(int id) const {
  GPD_CHECK(solved_);
  GPD_CHECK(id >= 0 && id < static_cast<int>(edges_.size()));
  return edges_[id].cap - cap_[arcOf_[id]];
}

std::vector<char> MaxFlow::minCutSourceSide() const {
  GPD_CHECK(solved_);
  std::vector<char> side(size(), 0);
  std::vector<int> queue{source_};
  side[source_] = 1;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int u = queue[qi];
    for (int a = first_[u]; a < first_[u + 1]; ++a) {
      if (cap_[a] > 0 && !side[head_[a]]) {
        side[head_[a]] = 1;
        queue.push_back(head_[a]);
      }
    }
  }
  return side;
}

}  // namespace gpd::flow
