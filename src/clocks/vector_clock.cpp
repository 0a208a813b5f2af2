#include "clocks/vector_clock.h"

#include <algorithm>

#include "util/check.h"

namespace gpd {

VectorClocks::VectorClocks(const Computation& c)
    : comp_(&c), n_(c.processCount()) {
  clocks_.assign(static_cast<std::size_t>(c.totalEvents()) * n_, 0);
  // The initial-precedence edges never raise any coordinate above 0, so the
  // happened-before order suffices.
  for (int node : c.topologicalOrder()) {
    const EventId e = c.event(node);
    int* row = &clocks_[static_cast<std::size_t>(node) * n_];
    if (e.index > 0) {
      // Join of the process predecessor and all message senders.
      const int prev = c.node({e.process, e.index - 1});
      const int* prow = &clocks_[static_cast<std::size_t>(prev) * n_];
      std::copy(prow, prow + n_, row);
      for (int m : c.incomingMessages(e)) {
        const EventId s = c.messages()[m].send;
        const int* srow = &clocks_[static_cast<std::size_t>(c.node(s)) * n_];
        for (int p = 0; p < n_; ++p) row[p] = std::max(row[p], srow[p]);
      }
      row[e.process] = e.index;
    }
    // Initial events keep the all-zero row.
  }
}

bool VectorClocks::leq(const EventId& e, const EventId& f) const {
  GPD_DCHECK(comp_->contains(e) && comp_->contains(f));
  if (e == f) return true;
  if (e.isInitial()) {
    // ⊥ precedes every non-initial event; distinct initials are incomparable.
    return !f.isInitial();
  }
  return clock(f, e.process) >= e.index;
}

bool VectorClocks::pairConsistent(const EventId& e, const EventId& f) const {
  if (e.process == f.process) return e.index == f.index;
  return clock(f, e.process) <= e.index && clock(e, f.process) <= f.index;
}

bool VectorClocks::isConsistent(const Cut& cut) const {
  GPD_DCHECK(cut.processes() == n_);
  for (ProcessId p = 0; p < n_; ++p) {
    const EventId e{p, cut.last[p]};
    for (ProcessId q = 0; q < n_; ++q) {
      if (clock(e, q) > cut.last[q]) return false;
    }
  }
  return true;
}

bool VectorClocks::enabled(ProcessId p, const Cut& cut) const {
  const EventId next{p, cut.last[p] + 1};
  GPD_DCHECK(comp_->contains(next));
  for (ProcessId q = 0; q < n_; ++q) {
    if (q != p && clock(next, q) > cut.last[q]) return false;
  }
  return true;
}

Cut VectorClocks::leastConsistentCutThrough(
    const std::vector<EventId>& events) const {
  GPD_CHECK(!events.empty());
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      GPD_CHECK_MSG(pairConsistent(events[i], events[j]),
                    "events are not pairwise consistent");
    }
  }
  Cut cut(std::vector<int>(n_, 0));
  for (const EventId& e : events) {
    for (ProcessId q = 0; q < n_; ++q) {
      cut.last[q] = std::max(cut.last[q], clock(e, q));
    }
    // The cut must pass through e itself.
    cut.last[e.process] = std::max(cut.last[e.process], e.index);
  }
  GPD_CHECK(isConsistent(cut));
  for (const EventId& e : events) GPD_CHECK(cut.passesThrough(e));
  return cut;
}

}  // namespace gpd
