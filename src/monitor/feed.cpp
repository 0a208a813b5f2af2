#include "monitor/feed.h"

#include <algorithm>
#include <deque>

#include "obs/metrics.h"
#include "util/check.h"

namespace gpd::monitor {

namespace {

// One local-predicate term per process, the classic Garg–Waldecker setting;
// truth[p][i] is p's term at event i.
std::vector<std::vector<char>> termTruthPerProcess(
    const VariableTrace& trace, const ConjunctivePredicate& pred) {
  const Computation& comp = trace.computation();
  std::vector<std::vector<char>> truth(comp.processCount());
  std::vector<char> seen(comp.processCount(), 0);
  for (const LocalPredicate& t : pred.terms) {
    GPD_CHECK_MSG(!seen[t.process], "two conjuncts on process " << t.process);
    seen[t.process] = 1;
    truth[t.process] = eventTruth(trace, t.process, {&t, 1});
  }
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    GPD_CHECK_MSG(seen[p], "process " << p << " has no conjunct");
  }
  return truth;
}

}  // namespace

ReplayResult replayConjunctive(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const ConjunctivePredicate& pred,
                               const std::vector<int>& runOrder,
                               ConjunctiveMonitor& monitor) {
  const Computation& comp = clocks.computation();
  GPD_CHECK(monitor.processes() == comp.processCount());
  GPD_CHECK(static_cast<int>(runOrder.size()) == comp.totalEvents());

  const auto truth = termTruthPerProcess(trace, pred);
  ReplayResult result;
  for (int node : runOrder) {
    const EventId e = comp.event(node);
    if (!truth[e.process][e.index]) continue;
    ++result.notificationsSent;
    if (monitor.report(e.process, clocks.clockVector(e))) {
      result.detected = true;
      break;
    }
  }
  return result;
}

ResilientReplayResult replayConjunctiveFaulty(
    const VectorClocks& clocks, const VariableTrace& trace,
    const ConjunctivePredicate& pred, const std::vector<int>& runOrder,
    MonitorSession& session, const FaultOptions& faults, Rng& rng,
    const ReplayHooks& hooks) {
  const Computation& comp = clocks.computation();
  const int n = comp.processCount();
  GPD_CHECK(session.processes() == n);
  GPD_CHECK(static_cast<int>(runOrder.size()) == comp.totalEvents());
  GPD_CHECK(faults.reorderMaxDistance >= 1 && faults.burstLength >= 1);

  const auto truth = termTruthPerProcess(trace, pred);

  // The per-process send log: what each application process put on the wire,
  // indexed by sequence number. This is what NACKs are serviced from.
  std::vector<std::vector<std::vector<int>>> log(n);
  struct Sent {
    int process;
    std::uint64_t seq;
  };
  std::vector<Sent> stream;
  for (int node : runOrder) {
    const EventId e = comp.event(node);
    if (!truth[e.process][e.index]) continue;
    stream.push_back({e.process, log[e.process].size()});
    log[e.process].push_back(clocks.clockVector(e));
  }

  ResilientReplayResult result;
  result.notificationsSent = stream.size();

  // Fault-schedule the wire. Delivery order is by key (stable): item i's
  // on-time key is 2i; a copy delayed by d positions gets key 2(i+d)+1, so
  // it lands just after the on-time copy of item i+d.
  struct WireItem {
    std::uint64_t key;
    int process;
    std::uint64_t seq;
  };
  std::vector<WireItem> wire;
  wire.reserve(stream.size());
  std::uint64_t burstRemaining = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Sent& s = stream[i];
    if (burstRemaining == 0 && rng.chance(faults.burstProbability)) {
      burstRemaining = faults.burstLength;
    }
    std::uint64_t key = 2 * i;
    bool late = false;
    if (burstRemaining > 0) {
      --burstRemaining;
      key += 2 * static_cast<std::uint64_t>(faults.reorderMaxDistance) + 1;
      late = true;
    } else if (rng.chance(faults.reorderProbability)) {
      key += 2 * (rng.index(faults.reorderMaxDistance) + 1) + 1;
      late = true;
    }
    if (late) ++result.reordered;
    if (rng.chance(faults.dropProbability)) {
      ++result.dropped;
    } else {
      wire.push_back({key, s.process, s.seq});
    }
    if (rng.chance(faults.duplicateProbability)) {
      ++result.duplicated;
      const std::uint64_t dupKey =
          2 * i + 2 * rng.index(faults.reorderMaxDistance + 1) + 1;
      if (rng.chance(faults.dropProbability)) {
        ++result.dropped;
      } else {
        wire.push_back({dupKey, s.process, s.seq});
      }
    }
  }
  std::stable_sort(wire.begin(), wire.end(),
                   [](const WireItem& a, const WireItem& b) {
                     return a.key < b.key;
                   });

  // The session's NACKs are queued here and serviced from the send log with
  // transport latency (one retransmission per pump step), each copy subject
  // to the same loss as any other.
  std::deque<Sent> retransmitQ;
  session.onNack([&](int p, std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t s = lo; s <= hi && s < log[p].size(); ++s) {
      retransmitQ.push_back({p, s});
    }
  });

  std::uint64_t untilCheckpoint = hooks.checkpointEveryDeliveries;
  auto deliverCopy = [&](int p, std::uint64_t seq) {
    bool consumed = false;
    for (int attempt = 0; attempt < 64 && !consumed; ++attempt) {
      ++result.wireDeliveries;
      consumed = session.deliver(p, seq, log[p][seq]) != Delivery::Rejected;
      // Backpressure: give eliminations a chance, then re-offer.
      if (!consumed) session.tick();
    }
    if (!consumed) session.degradeStream(p);  // monitor queue stuck full
    // Periodic checkpoint: between deliveries the session is quiescent, so
    // the snapshot is a complete point-in-time state.
    if (hooks.checkpointEveryDeliveries != 0 && hooks.onCheckpoint &&
        result.wireDeliveries >= untilCheckpoint) {
      hooks.onCheckpoint(session);
      untilCheckpoint =
          result.wireDeliveries + hooks.checkpointEveryDeliveries;
    }
  };

  for (const WireItem& item : wire) {
    if (session.detected()) break;
    deliverCopy(item.process, item.seq);
    if (!retransmitQ.empty()) {
      const Sent r = retransmitQ.front();
      retransmitQ.pop_front();
      if (rng.chance(faults.dropProbability)) {
        ++result.dropped;
      } else {
        ++result.retransmissions;
        GPD_OBS_COUNTER_ADD("monitor_retransmits", 1);
        deliverCopy(r.process, r.seq);
      }
    }
  }

  if (!session.detected()) {
    for (int p = 0; p < n; ++p) session.announceEnd(p, log[p].size());
  }

  // Settle: service remaining retransmissions and tick out retry timers
  // until every gap is either recovered or degraded.
  // Generous can't-converge backstop, not a performance bound: every gap
  // episode is limited to maxRetries NACKs, so the loop always terminates.
  const std::uint64_t bound =
      1000000 + static_cast<std::uint64_t>(n) *
                    (session.options().maxRetries + 1) *
                    session.options().retryTimeout +
      stream.size() * (session.options().maxRetries + 2) * 8;
  std::uint64_t steps = 0;
  while (!session.detected() && session.hasActiveGaps()) {
    GPD_CHECK_MSG(++steps <= bound, "faulty replay did not settle");
    if (!retransmitQ.empty()) {
      const Sent r = retransmitQ.front();
      retransmitQ.pop_front();
      if (rng.chance(faults.dropProbability)) {
        ++result.dropped;
        continue;
      }
      ++result.retransmissions;
      GPD_OBS_COUNTER_ADD("monitor_retransmits", 1);
      deliverCopy(r.process, r.seq);
    } else {
      session.tick();
    }
  }

  result.verdict = session.verdict();
  result.detected = session.detected();
  result.nacksSent = session.stats().nacksSent;
  result.degradedStreams = session.stats().degradedStreams;
  return result;
}

}  // namespace gpd::monitor
