// The benchmark's own view of a generated trace, and the reference answers
// computed from it. Deliberately independent of the gpd library: clocks,
// consistency, predicate values and verdicts are recomputed here from the
// generated events, so a library bug cannot hide by agreeing with itself.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: the benchmark's input generator, fixed here so that the same
// seed gives the same inputs on every commit of the library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t x_;
};

using Cut = std::vector<int>;

struct TraceModel {
  int n = 0;
  std::vector<int> events;  // per process, including the initial event 0
  struct Message {
    int sendP, sendI, recvP, recvI;
  };
  std::vector<Message> messages;
  // vc[p][k][q]: index of the last event of q in the causal history of
  // event k of p (own component = k).
  std::vector<std::vector<std::vector<int>>> vc;
  // vars[name][p][k]: value after event k of p.
  std::map<std::string, std::vector<std::vector<std::int64_t>>> vars;

  std::int64_t value(const std::string& var, int p, int k) const {
    return vars.at(var)[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)];
  }
  bool consistent(const Cut& cut) const;
  // True when event cut[p]+1 of p can be added to the consistent cut.
  bool enabled(int p, const Cut& cut) const;
  std::int64_t sumAt(const std::string& var, const Cut& cut) const;
  // The gpd-trace text format (io/trace_io.h).
  std::string toText() const;
};

struct GenOptions {
  int processes = 5;
  int minEvents = 8;  // non-initial events per process, inclusive range
  int maxEvents = 12;
  double sendProb = 0.3;
  double recvProb = 0.6;
};

// A seeded message-passing run: processes take turns at random; an event
// receives a pending message with recvProb, else sends one with sendProb.
TraceModel generateComputation(const GenOptions& opt, SplitMix& rng);

// Boolean variable: false at the initial event, then true with `density`.
void addBools(TraceModel& m, const std::string& name, double density,
              SplitMix& rng);
// Boolean variable made of true runs: each event flips the value with
// probability `flip` (false at the initial event).
void addRuns(TraceModel& m, const std::string& name, double flip,
             SplitMix& rng);
// Integer counter starting at `initial`, each event adding a step in
// [-maxStep, maxStep].
void addCounter(TraceModel& m, const std::string& name, int initial,
                int maxStep, SplitMix& rng);

// A consistent cut reached by `steps` random enabled moves from the
// initial cut.
Cut randomWalkCut(const TraceModel& m, int steps, SplitMix& rng);

// Predicates as the benchmark sees them.
struct Lit {
  int p = 0;
  std::string var;
  bool positive = true;
  bool holds(const TraceModel& m, int k) const {
    return (m.value(var, p, k) != 0) == positive;
  }
};
using Cnf = std::vector<std::vector<Lit>>;
bool holdsCnf(const TraceModel& m, const Cnf& cnf, const Cut& cut);

using CutPred = std::function<bool(const Cut&)>;

// Exhaustive ground truth over every consistent cut: for each predicate,
// whether some cut satisfies it (possibly) and whether every path from the
// initial to the final cut passes a satisfying cut (definitely).
struct LatticeTruth {
  std::uint64_t cuts = 0;
  std::vector<bool> possibly;
  std::vector<bool> definitely;
  // Cuts reachable from the initial cut through falsifying cuts: the
  // region a level-by-level definitely search explores.
  std::vector<std::uint64_t> reachable;
  // Lowest level (sum of the cut's indices) holding a satisfying cut, or -1.
  std::vector<int> witnessLevel;
  // Consistent cuts per level, and satisfying cuts per level per predicate.
  std::vector<std::uint64_t> perLevel;
  std::vector<std::vector<std::uint64_t>> satPerLevel;
};
LatticeTruth exhaustiveTruth(const TraceModel& m,
                             const std::vector<CutPred>& preds);

// Sum of perLevel[0..level]; all of it when level < 0.
std::uint64_t cutsThroughLevel(const std::vector<std::uint64_t>& perLevel,
                               int level);

// possibly(∧ lits) over the processes the literals name (one literal per
// process): the least consistent choice of true events, found by advancing
// any event that an already chosen event causally requires to be later.
bool conjunctivePossibly(const TraceModel& m, const std::vector<Lit>& lits);

// definitely(∧ lits), one literal per process of the computation: some
// choice of one maximal true interval per process in which every interval
// is entered before any other interval is left.
bool conjunctiveDefinitely(const TraceModel& m, const std::vector<Lit>& lits);

// possibly(singular CNF): some choice of one literal per clause is
// possibly true as a conjunction (process enumeration).
bool singularPossibly(const TraceModel& m, const Cnf& cnf);

}  // namespace perfbench
