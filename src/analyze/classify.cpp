#include "analyze/classify.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "clocks/chain_cover.h"
#include "lattice/explore.h"

namespace gpd::analyze {

namespace {

// Exhaustive linearity check (Chase–Garg): every cut violating φ has a
// forbidden process p — no superset cut agreeing on p satisfies φ.
// Quadratic in the number of cuts, so gated harder than the stability check.
constexpr std::size_t kLinearityCutLimit = 2000;

Hint linearityHint(const std::vector<Cut>& cuts,
                   const std::vector<char>& holds, int processCount) {
  if (cuts.empty() || cuts.size() > kLinearityCutLimit) return Hint::Unknown;
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    if (holds[c]) continue;
    bool hasForbidden = false;
    for (ProcessId p = 0; p < processCount && !hasForbidden; ++p) {
      bool forbidden = true;
      for (std::size_t d = 0; d < cuts.size() && forbidden; ++d) {
        if (holds[d] && cuts[d].last[p] == cuts[c].last[p] &&
            cuts[c].subsetOf(cuts[d])) {
          forbidden = false;
        }
      }
      hasForbidden = forbidden;
    }
    if (!hasForbidden) return Hint::No;
  }
  return Hint::Yes;
}

// Exhaustive regularity check (Garg–Mittal): the satisfying cuts must be
// closed under both meet and join. Meets/joins of consistent cuts are
// consistent, so closure is checked by evaluating φ directly on each pair.
// Quadratic in the satisfying-cut count — gated like the linearity check.
template <typename Phi>
Hint regularityHint(const std::vector<Cut>& cuts,
                    const std::vector<char>& holds, const Phi& phi) {
  if (cuts.empty() || cuts.size() > kLinearityCutLimit) return Hint::Unknown;
  std::vector<std::size_t> sat;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (holds[i]) sat.push_back(i);
  }
  for (std::size_t a = 0; a < sat.size(); ++a) {
    for (std::size_t b = a + 1; b < sat.size(); ++b) {
      if (!phi(meet(cuts[sat[a]], cuts[sat[b]])) ||
          !phi(join(cuts[sat[a]], cuts[sat[b]]))) {
        return Hint::No;
      }
    }
  }
  return Hint::Yes;
}

}  // namespace

std::vector<std::vector<EventId>> clauseTrueEvents(
    const VariableTrace& trace, const CnfPredicate& pred,
    const std::vector<char>* admittedNode) {
  const Computation& comp = trace.computation();
  std::vector<std::vector<EventId>> out(pred.clauses.size());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    for (ProcessId p : pred.clauseProcesses(static_cast<int>(j))) {
      const std::vector<char> truth = eventTruth(trace, p, pred.clauses[j]);
      for (int i = 0; i < comp.eventCount(p); ++i) {
        if (admittedNode != nullptr && !(*admittedNode)[comp.node({p, i})]) {
          continue;  // sliced out: no satisfying cut passes through it
        }
        if (truth[i]) out[j].push_back({p, i});
      }
    }
  }
  return out;
}

std::vector<EventId> groupEventsOfKind(const Computation& comp,
                                       const std::vector<ProcessId>& group,
                                       bool receives) {
  std::vector<EventId> out;
  for (ProcessId p : group) {
    for (int i = 1; i < comp.eventCount(p); ++i) {
      const EventId e{p, i};
      const bool has = receives ? !comp.incomingMessages(e).empty()
                                : !comp.outgoingMessages(e).empty();
      if (has) out.push_back(e);
    }
  }
  return out;
}

namespace {

// Whether every two of `events` are causally ordered (one way or the other),
// i.e. they form a chain. The clock-row sum grows strictly along e ≺ f, so
// sorted by it a chain is in causal order; each event must then precede
// the next, and transitivity orders every other pair.
bool pairwiseOrdered(const VectorClocks& clocks,
                     const std::vector<EventId>& events) {
  const int n = clocks.computation().processCount();
  const auto rowSum = [&](const EventId& e) {
    const int* row = clocks.row(e.process, e.index);
    return std::accumulate(row, row + n, 0LL);
  };
  std::vector<std::pair<long long, EventId>> keyed;
  keyed.reserve(events.size());
  for (const EventId& e : events) keyed.emplace_back(rowSum(e), e);
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t i = 0; i + 1 < keyed.size(); ++i) {
    if (!clocks.leq(keyed[i].second, keyed[i + 1].second)) return false;
  }
  return true;
}

}  // namespace

GroupOrder groupOrder(const VectorClocks& clocks,
                      const std::vector<std::vector<ProcessId>>& groups) {
  const Computation& comp = clocks.computation();
  GroupOrder out{true, true};
  for (const std::vector<ProcessId>& group : groups) {
    if (out.receiveOrdered &&
        !pairwiseOrdered(clocks, groupEventsOfKind(comp, group, true))) {
      out.receiveOrdered = false;
    }
    if (out.sendOrdered &&
        !pairwiseOrdered(clocks, groupEventsOfKind(comp, group, false))) {
      out.sendOrdered = false;
    }
    if (!out.receiveOrdered && !out.sendOrdered) break;
  }
  return out;
}

const char* toString(Hint h) {
  switch (h) {
    case Hint::Yes:
      return "yes";
    case Hint::No:
      return "no";
    case Hint::Unknown:
      return "unknown";
  }
  return "unknown";
}

namespace {

// Π over per-clause factors, saturating at UINT64_MAX. A zero factor keeps
// its exact meaning (some clause is never true → empty enumeration space);
// a wrap would instead report an astronomically large space as tiny and
// defeat the planner's cost-skip degradation.
std::uint64_t saturatingProduct(const std::vector<ClauseFacts>& clauses,
                                int ClauseFacts::* factor) {
  std::uint64_t bound = 1;
  for (const ClauseFacts& c : clauses) {
    const auto f = static_cast<std::uint64_t>(c.*factor);
    if (f == 0) return 0;
    if (bound > UINT64_MAX / f) return UINT64_MAX;
    bound *= f;
  }
  return bound;
}

}  // namespace

std::uint64_t CnfClassification::chainCoverBound() const {
  return saturatingProduct(clauses, &ClauseFacts::chainCoverSize);
}

std::uint64_t CnfClassification::processEnumerationBound() const {
  return saturatingProduct(clauses, &ClauseFacts::hostingChains);
}

CnfClassification classifyCnf(const VectorClocks& clocks,
                              const VariableTrace& trace,
                              const CnfPredicate& pred,
                              const ClassifyOptions& opts) {
  const Computation& comp = trace.computation();
  CnfClassification out;
  out.singular = pred.isSingular();
  if (!pred.clauses.empty()) {
    const int k = static_cast<int>(pred.clauses.front().size());
    if (pred.isKCnf(k)) out.uniformK = k;
  }
  out.conjunctive = out.singular && out.uniformK == 1;

  std::vector<std::vector<EventId>> trueEvents = clauseTrueEvents(trace, pred);
  std::vector<std::vector<ProcessId>> groups;
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    ClauseFacts facts;
    facts.literals = static_cast<int>(pred.clauses[j].size());
    facts.processes = pred.clauseProcesses(static_cast<int>(j));
    facts.trueEvents = std::move(trueEvents[j]);
    const std::vector<EventId>& events = facts.trueEvents;
    for (ProcessId p : facts.processes) {
      if (std::any_of(events.begin(), events.end(),
                      [p](const EventId& e) { return e.process == p; })) {
        ++facts.hostingChains;
      }
    }
    facts.cover = chainCover(clocks, events);
    facts.chainCoverSize = static_cast<int>(facts.cover.size());
    groups.push_back(facts.processes);
    out.clauses.push_back(std::move(facts));
  }
  for (const ClauseFacts& facts : out.clauses) {
    out.singleProcessClauses += facts.processes.size() == 1;
  }
  // A single-process clause constrains one coordinate of the cut, so its
  // satisfying set is closed under per-coordinate min/max; a conjunction of
  // regular predicates is regular.
  if (out.singleProcessClauses == static_cast<int>(out.clauses.size())) {
    out.regular = Hint::Yes;
  }

  if (out.singular) {
    const GroupOrder order = groupOrder(clocks, groups);
    out.receiveOrdered = order.receiveOrdered;
    out.sendOrdered = order.sendOrdered;
  }
  // Conjunctions of local predicates are linear by construction
  // (Garg–Waldecker), no enumeration needed.
  if (out.conjunctive) out.linear = Hint::Yes;
  if (opts.latticeCutLimit == 0) return out;

  // One lattice sweep feeds both hints: the stability single-event-extension
  // check runs inline, the cuts are collected for the linearity check.
  const BoundCnf phi = pred.bind(trace);
  std::vector<Cut> cuts;
  std::vector<char> holds;
  bool capped = false;
  bool stableViolated = false;
  lattice::exploreConsistentCuts(clocks, [&](const Cut& cut) {
    if (cuts.size() >= opts.latticeCutLimit) {
      capped = true;
      return false;
    }
    const bool h = phi(cut);
    cuts.push_back(cut);
    holds.push_back(h ? 1 : 0);
    if (h && !stableViolated) {
      for (ProcessId p = 0; p < comp.processCount(); ++p) {
        if (cut.last[p] + 1 >= comp.eventCount(p)) continue;
        if (!clocks.enabled(p, cut)) continue;
        Cut succ = cut;
        ++succ.last[p];
        if (!phi(succ)) {
          stableViolated = true;
          break;
        }
      }
    }
    return true;
  });
  if (!capped) {
    out.stable = stableViolated ? Hint::No : Hint::Yes;
    if (!out.conjunctive) {
      out.linear = linearityHint(cuts, holds, comp.processCount());
    }
    if (out.regular == Hint::Unknown) {
      out.regular = regularityHint(cuts, holds, phi);
    }
  }
  return out;
}

}  // namespace gpd::analyze
