#include "model.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

bool TraceModel::consistent(const Cut& cut) const {
  for (int q = 0; q < n; ++q) {
    const std::vector<int>& clock =
        vc[static_cast<std::size_t>(q)][static_cast<std::size_t>(cut[q])];
    for (int p = 0; p < n; ++p) {
      if (clock[static_cast<std::size_t>(p)] > cut[static_cast<std::size_t>(p)]) {
        return false;
      }
    }
  }
  return true;
}

bool TraceModel::enabled(int p, const Cut& cut) const {
  const int k = cut[static_cast<std::size_t>(p)] + 1;
  if (k >= events[static_cast<std::size_t>(p)]) return false;
  const std::vector<int>& clock =
      vc[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)];
  for (int q = 0; q < n; ++q) {
    if (q != p && clock[static_cast<std::size_t>(q)] >
                      cut[static_cast<std::size_t>(q)]) {
      return false;
    }
  }
  return true;
}

std::int64_t TraceModel::sumAt(const std::string& var, const Cut& cut) const {
  std::int64_t sum = 0;
  for (int p = 0; p < n; ++p) sum += value(var, p, cut[static_cast<std::size_t>(p)]);
  return sum;
}

std::string TraceModel::toText() const {
  std::ostringstream os;
  os << "gpd-trace 1\nprocesses " << n << "\nevents";
  for (int e : events) os << ' ' << e;
  os << '\n';
  for (const Message& msg : messages) {
    os << "message " << msg.sendP << ' ' << msg.sendI << ' ' << msg.recvP
       << ' ' << msg.recvI << '\n';
  }
  for (const auto& [name, perProcess] : vars) {
    for (int p = 0; p < n; ++p) {
      os << "var " << p << ' ' << name;
      for (std::int64_t v : perProcess[static_cast<std::size_t>(p)]) os << ' ' << v;
      os << '\n';
    }
  }
  os << "end\n";
  return os.str();
}

TraceModel generateComputation(const GenOptions& opt, SplitMix& rng) {
  TraceModel m;
  m.n = opt.processes;
  const auto n = static_cast<std::size_t>(m.n);
  std::vector<int> target(n);
  int remaining = 0;
  for (auto& t : target) {
    t = rng.range(opt.minEvents, opt.maxEvents);
    remaining += t;
  }
  m.events.assign(n, 1);
  m.vc.assign(n, {std::vector<int>(n, 0)});
  struct InFlight {
    int sendP, sendI, to;
  };
  std::vector<InFlight> inFlight;
  while (remaining > 0) {
    int p = 0;
    do {
      p = rng.range(0, m.n - 1);
    } while (m.events[static_cast<std::size_t>(p)] >
             target[static_cast<std::size_t>(p)]);
    const auto pi = static_cast<std::size_t>(p);
    const int k = m.events[pi]++;
    --remaining;
    std::vector<int> clock = m.vc[pi].back();
    clock[pi] = k;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < inFlight.size(); ++i) {
      if (inFlight[i].to == p) pending.push_back(i);
    }
    if (!pending.empty() && rng.chance(opt.recvProb)) {
      const std::size_t at =
          pending[static_cast<std::size_t>(rng.range(0, static_cast<int>(pending.size()) - 1))];
      const InFlight msg = inFlight[at];
      inFlight.erase(inFlight.begin() + static_cast<std::ptrdiff_t>(at));
      const std::vector<int>& sent =
          m.vc[static_cast<std::size_t>(msg.sendP)][static_cast<std::size_t>(msg.sendI)];
      for (std::size_t q = 0; q < n; ++q) clock[q] = std::max(clock[q], sent[q]);
      clock[pi] = k;
      m.messages.push_back({msg.sendP, msg.sendI, p, k});
    } else if (m.n > 1 && rng.chance(opt.sendProb)) {
      int to = p;
      while (to == p) to = rng.range(0, m.n - 1);
      inFlight.push_back({p, k, to});
    }
    m.vc[pi].push_back(std::move(clock));
  }
  return m;
}

void addBools(TraceModel& m, const std::string& name, double density,
              SplitMix& rng) {
  auto& per = m.vars[name];
  per.assign(static_cast<std::size_t>(m.n), {});
  for (int p = 0; p < m.n; ++p) {
    auto& v = per[static_cast<std::size_t>(p)];
    v.assign(static_cast<std::size_t>(m.events[static_cast<std::size_t>(p)]), 0);
    for (std::size_t k = 1; k < v.size(); ++k) v[k] = rng.chance(density) ? 1 : 0;
  }
}

void addRuns(TraceModel& m, const std::string& name, double flip,
             SplitMix& rng) {
  auto& per = m.vars[name];
  per.assign(static_cast<std::size_t>(m.n), {});
  for (int p = 0; p < m.n; ++p) {
    auto& v = per[static_cast<std::size_t>(p)];
    v.assign(static_cast<std::size_t>(m.events[static_cast<std::size_t>(p)]), 0);
    for (std::size_t k = 1; k < v.size(); ++k) {
      v[k] = rng.chance(flip) ? 1 - v[k - 1] : v[k - 1];
    }
  }
}

void addCounter(TraceModel& m, const std::string& name, int initial,
                int maxStep, SplitMix& rng) {
  auto& per = m.vars[name];
  per.assign(static_cast<std::size_t>(m.n), {});
  for (int p = 0; p < m.n; ++p) {
    auto& v = per[static_cast<std::size_t>(p)];
    v.assign(static_cast<std::size_t>(m.events[static_cast<std::size_t>(p)]), initial);
    for (std::size_t k = 1; k < v.size(); ++k) {
      v[k] = v[k - 1] + rng.range(-maxStep, maxStep);
    }
  }
}

Cut randomWalkCut(const TraceModel& m, int steps, SplitMix& rng) {
  Cut cut(static_cast<std::size_t>(m.n), 0);
  for (int s = 0; s < steps; ++s) {
    std::vector<int> movable;
    for (int p = 0; p < m.n; ++p) {
      if (m.enabled(p, cut)) movable.push_back(p);
    }
    if (movable.empty()) break;
    ++cut[static_cast<std::size_t>(
        movable[static_cast<std::size_t>(rng.range(0, static_cast<int>(movable.size()) - 1))])];
  }
  return cut;
}

bool holdsCnf(const TraceModel& m, const Cnf& cnf, const Cut& cut) {
  for (const auto& clause : cnf) {
    bool any = false;
    for (const Lit& l : clause) {
      if (l.holds(m, cut[static_cast<std::size_t>(l.p)])) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

LatticeTruth exhaustiveTruth(const TraceModel& m,
                             const std::vector<CutPred>& preds) {
  const auto n = static_cast<std::size_t>(m.n);
  std::vector<std::size_t> stride(n);
  std::size_t total = 1;
  for (std::size_t p = 0; p < n; ++p) {
    stride[p] = total;
    total *= static_cast<std::size_t>(m.events[p]);
  }
  LatticeTruth t;
  t.possibly.assign(preds.size(), false);
  // reach[i][idx]: the cut is reachable from the initial cut through cuts
  // that all falsify predicate i.
  std::vector<std::vector<char>> reach(preds.size(),
                                       std::vector<char>(total, 0));
  t.witnessLevel.assign(preds.size(), -1);
  t.satPerLevel.assign(preds.size(), {});
  Cut cut(n, 0);
  int level = 0;
  for (std::size_t idx = 0; idx < total; ++idx) {
    if (idx > 0) {
      for (std::size_t p = 0; p < n; ++p) {  // odometer step
        ++level;
        if (++cut[p] < m.events[p]) break;
        level -= m.events[p];
        cut[p] = 0;
      }
    }
    if (!m.consistent(cut)) continue;
    ++t.cuts;
    const auto l = static_cast<std::size_t>(level);
    if (t.perLevel.size() <= l) {
      t.perLevel.resize(l + 1, 0);
      for (auto& sat : t.satPerLevel) sat.resize(l + 1, 0);
    }
    ++t.perLevel[l];
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i](cut)) {
        t.possibly[i] = true;
        ++t.satPerLevel[i][l];
        if (t.witnessLevel[i] < 0 || level < t.witnessLevel[i]) t.witnessLevel[i] = level;
        continue;
      }
      bool r = idx == 0;
      for (std::size_t p = 0; p < n && !r; ++p) {
        if (cut[p] > 0 && reach[i][idx - stride[p]] != 0) r = true;
      }
      reach[i][idx] = r ? 1 : 0;
    }
  }
  t.definitely.assign(preds.size(), false);
  t.reachable.assign(preds.size(), 0);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    t.definitely[i] = reach[i][total - 1] == 0;
    t.reachable[i] = static_cast<std::uint64_t>(
        std::count(reach[i].begin(), reach[i].end(), 1));
  }
  return t;
}

std::uint64_t cutsThroughLevel(const std::vector<std::uint64_t>& perLevel,
                               int level) {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < perLevel.size(); ++l) {
    if (level < 0 || l <= static_cast<std::size_t>(level)) total += perLevel[l];
  }
  return total;
}

namespace {

// Indices k of process lit.p at which the literal holds.
std::vector<int> trueIndices(const TraceModel& m, const Lit& lit) {
  std::vector<int> out;
  for (int k = 0; k < m.events[static_cast<std::size_t>(lit.p)]; ++k) {
    if (lit.holds(m, k)) out.push_back(k);
  }
  return out;
}

}  // namespace

bool conjunctivePossibly(const TraceModel& m, const std::vector<Lit>& lits) {
  const std::size_t c = lits.size();
  std::vector<std::vector<int>> trueAt(c);
  std::vector<std::size_t> pos(c, 0);
  for (std::size_t i = 0; i < c; ++i) {
    trueAt[i] = trueIndices(m, lits[i]);
    if (trueAt[i].empty()) return false;
  }
  auto eventOf = [&](std::size_t i) { return trueAt[i][pos[i]]; };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < c; ++i) {
      const std::vector<int>& clock =
          m.vc[static_cast<std::size_t>(lits[i].p)][static_cast<std::size_t>(eventOf(i))];
      for (std::size_t j = 0; j < c; ++j) {
        const int need = clock[static_cast<std::size_t>(lits[j].p)];
        if (i == j || need <= eventOf(j)) continue;
        while (pos[j] < trueAt[j].size() && trueAt[j][pos[j]] < need) ++pos[j];
        if (pos[j] == trueAt[j].size()) return false;
        changed = true;
      }
    }
  }
  return true;
}

bool conjunctiveDefinitely(const TraceModel& m, const std::vector<Lit>& lits) {
  struct Interval {
    int lo, hi;
  };
  const std::size_t c = lits.size();
  std::vector<std::vector<Interval>> runs(c);
  for (std::size_t i = 0; i < c; ++i) {
    const std::vector<int> at = trueIndices(m, lits[i]);
    for (std::size_t k = 0; k < at.size(); ++k) {
      if (k == 0 || at[k] != at[k - 1] + 1) {
        runs[i].push_back({at[k], at[k]});
      } else {
        runs[i].back().hi = at[k];
      }
    }
    if (runs[i].empty()) return false;
  }
  std::vector<std::size_t> pos(c, 0);
  // Interval i is entered before interval j is left. An interval that
  // holds in the initial state is entered before everything; one that
  // holds in the final state is never left.
  auto enteredBeforeLeft = [&](std::size_t i, std::size_t j) {
    const Interval& a = runs[i][pos[i]];
    const Interval& b = runs[j][pos[j]];
    const int pj = lits[j].p;
    if (a.lo == 0 || b.hi + 1 >= m.events[static_cast<std::size_t>(pj)]) {
      return true;
    }
    return m.vc[static_cast<std::size_t>(pj)][static_cast<std::size_t>(b.hi + 1)]
               [static_cast<std::size_t>(lits[i].p)] >= a.lo;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        if (i == j || enteredBeforeLeft(i, j)) continue;
        // Later intervals of i are entered later still, so interval j can
        // pair with none of them.
        if (++pos[j] == runs[j].size()) return false;
        changed = true;
      }
    }
  }
  return true;
}

bool singularPossibly(const TraceModel& m, const Cnf& cnf) {
  std::vector<std::size_t> choice(cnf.size(), 0);
  for (;;) {
    std::vector<Lit> lits;
    for (std::size_t j = 0; j < cnf.size(); ++j) lits.push_back(cnf[j][choice[j]]);
    if (conjunctivePossibly(m, lits)) return true;
    std::size_t j = 0;
    while (j < cnf.size() && ++choice[j] == cnf[j].size()) choice[j++] = 0;
    if (j == cnf.size()) return false;
  }
}

}  // namespace perfbench
