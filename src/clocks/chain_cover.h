// Minimum chain cover of a set of events under the causal order, built
// from their vector clocks (Dilworth, paper Sec. 3.3).
//
// Along one process, leq(e, ·) is monotone: once an event of process q
// succeeds e, every later event of q does too. So the events of the set
// that e precedes form a suffix of each process's run, which one binary
// search over the clocks finds. Each event's successor row is therefore at
// most one index range per process (its own run minus the event itself),
// listed in the order the pairwise test over the set would visit them, and
// graph::minimumChainCover matches on those ranges without ever testing a
// pair of events.
#pragma once

#include <vector>

#include "clocks/vector_clock.h"
#include "computation/event.h"
#include "graph/matching.h"

namespace gpd {

// Row a lists the positions b ≠ a of `events` with events[a] ≤ events[b]:
// at most one range per process run, in the order the pairwise test over
// the set would visit them. Same precondition (checked) as chainCover.
graph::RangeRows successorRows(const VectorClocks& clocks,
                               const std::vector<EventId>& events);

// The minimum cover of `events` by causal chains, each chain listed in
// causal order. The chains are graph::minimumChainCover's over the
// pairwise-leq relation, with event positions mapped back to events.
// Precondition (checked): `events` is grouped by process — each process's
// events form one contiguous run — with strictly ascending indices within a
// run. The runs themselves may come in any process order. Counts one
// chain_covers_built.
std::vector<std::vector<EventId>> chainCover(
    const VectorClocks& clocks, const std::vector<EventId>& events);

}  // namespace gpd
