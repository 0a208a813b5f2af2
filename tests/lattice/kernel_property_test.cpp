// The flat level-expansion kernel against the BFS it replaced.
//
// The oracle below is the lattice BFS as it was before the flat kernel: one
// std::unordered_set<Cut> per level for dedup, successors built as
// vector-backed Cuts, enabled() through VectorClocks. Over seeded random
// computations every breadth-first form must reproduce it exactly — the
// visit sequence, the slice-restricted visits through a real slice
// CutAdmit, witnesses, latticeStats, and the point and progress of budget
// stops under cut and frontier limits — sequentially and in pools of 2 and
// 8 workers. The depth-first `definitely` must reach the oracle's verdicts,
// expand no more cuts, and back every "no" with a valid avoiding run.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "computation/random.h"
#include "control/budget.h"
#include "detect/linear.h"
#include "detect/slice.h"
#include "lattice/explore.h"
#include "par/pool.h"
#include "predicates/cnf.h"
#include "predicates/random_trace.h"

namespace gpd::lattice {
namespace {

constexpr int kTrials = 200;

// What one oracle BFS observed.
struct OracleRun {
  std::vector<Cut> visits;
  std::optional<Cut> witness;
  ExploreResult explore;
  bool definitelyHolds = false;
  LatticeStats stats;
};

std::uint64_t cutBytes(const Computation& comp) {
  return sizeof(Cut) +
         static_cast<std::uint64_t>(comp.processCount()) * sizeof(int);
}

// The pre-flat successor expansion: admit first, then unordered_set dedup.
void oracleExpand(const VectorClocks& clocks, const Cut& cut,
                  std::unordered_set<Cut>& seen, std::vector<Cut>& next,
                  const CutAdmit* admit) {
  const Computation& comp = clocks.computation();
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    if (cut.last[p] + 1 >= comp.eventCount(p)) continue;
    if (!clocks.enabled(p, cut)) continue;
    Cut succ = cut;
    ++succ.last[p];
    if (admit != nullptr && !(*admit)(p, succ)) continue;
    if (seen.insert(succ).second) next.push_back(succ);
  }
}

bool oracleNoteFrontier(ExploreResult& ex, std::uint64_t perCut,
                        std::uint64_t liveCuts, control::Budget* budget) {
  ex.peakFrontierCuts = std::max(ex.peakFrontierCuts, liveCuts);
  ex.peakFrontierBytes = std::max(ex.peakFrontierBytes, liveCuts * perCut);
  if (budget != nullptr && !budget->noteFrontierBytes(liveCuts * perCut)) {
    ex.end = ExploreEnd::BudgetExhausted;
    return false;
  }
  return true;
}

// exploreConsistentCuts / findSatisfyingCut as they were: stops at the
// first cut satisfying `phi` when one is given.
OracleRun oracleSearch(const VectorClocks& clocks, const CutPredicate* phi,
                       control::Budget* budget, const CutAdmit* admit) {
  OracleRun run;
  const std::uint64_t perCut = cutBytes(clocks.computation());
  std::vector<Cut> level{initialCut(clocks.computation())};
  while (!level.empty()) {
    std::unordered_set<Cut> seen;
    std::vector<Cut> next;
    for (const Cut& cut : level) {
      if (budget != nullptr && !budget->chargeCut()) {
        run.explore.end = ExploreEnd::BudgetExhausted;
        return run;
      }
      ++run.explore.cutsVisited;
      run.visits.push_back(cut);
      if (phi != nullptr && (*phi)(cut)) {
        run.witness = cut;
        run.explore.end = ExploreEnd::VisitorStopped;
        return run;
      }
      oracleExpand(clocks, cut, seen, next, admit);
    }
    if (!oracleNoteFrontier(run.explore, perCut, level.size() + next.size(),
                            budget)) {
      return run;
    }
    level = std::move(next);
  }
  return run;
}

// decideDefinitely as it was; `explore.end` BudgetExhausted
// means undecided.
OracleRun oracleDefinitely(const VectorClocks& clocks, const CutPredicate& phi,
                           control::Budget* budget) {
  OracleRun run;
  const Computation& comp = clocks.computation();
  const std::uint64_t perCut = cutBytes(comp);
  const Cut bottom = initialCut(comp);
  const Cut top = finalCut(comp);
  if (phi(bottom)) {
    run.definitelyHolds = true;
    return run;
  }
  if (bottom == top) return run;
  const CutAdmit notPhi = [&](ProcessId, const Cut& c) { return !phi(c); };
  std::vector<Cut> level{bottom};
  while (!level.empty()) {
    std::unordered_set<Cut> seen;
    std::vector<Cut> next;
    for (const Cut& cut : level) {
      if (budget != nullptr && !budget->chargeCut()) {
        run.explore.end = ExploreEnd::BudgetExhausted;
        return run;
      }
      ++run.explore.cutsVisited;
      oracleExpand(clocks, cut, seen, next, &notPhi);
    }
    for (const Cut& cut : next) {
      if (cut == top) {
        run.explore.end = ExploreEnd::VisitorStopped;
        return run;
      }
    }
    if (!oracleNoteFrontier(run.explore, perCut, level.size() + next.size(),
                            budget)) {
      return run;
    }
    level = std::move(next);
  }
  run.definitelyHolds = true;
  return run;
}

LatticeStats oracleStats(const VectorClocks& clocks, control::Budget* budget) {
  LatticeStats stats;
  std::vector<Cut> level{initialCut(clocks.computation())};
  while (!level.empty()) {
    stats.cutCount += level.size();
    stats.maxWidth = std::max<std::uint64_t>(stats.maxWidth, level.size());
    ++stats.levels;
    std::unordered_set<Cut> seen;
    std::vector<Cut> next;
    for (const Cut& cut : level) {
      if (budget != nullptr && !budget->chargeCut()) {
        stats.complete = false;
        return stats;
      }
      oracleExpand(clocks, cut, seen, next, nullptr);
    }
    level = std::move(next);
  }
  return stats;
}

void expectSameExplore(const ExploreResult& got, const ExploreResult& want,
                       const std::string& label) {
  EXPECT_EQ(got.cutsVisited, want.cutsVisited) << label;
  EXPECT_EQ(got.end, want.end) << label;
  EXPECT_EQ(got.peakFrontierCuts, want.peakFrontierCuts) << label;
  EXPECT_EQ(got.peakFrontierBytes, want.peakFrontierBytes) << label;
}

void expectSameBudget(const control::Budget& got, const control::Budget& want,
                      const std::string& label) {
  EXPECT_EQ(got.reason(), want.reason()) << label;
  EXPECT_EQ(got.progress().cutsVisited, want.progress().cutsVisited) << label;
  EXPECT_EQ(got.progress().peakFrontierBytes,
            want.progress().peakFrontierBytes)
      << label;
}

// The limits each trial sweeps: none, a cut cap and a frontier cap, both
// sized so that some trials stop early and some finish.
std::vector<std::optional<control::BudgetLimits>> limitsFor(Rng& rng,
                                                            std::uint64_t cuts,
                                                            int processes) {
  control::BudgetLimits byCuts;
  byCuts.maxCuts = 1 + static_cast<std::uint64_t>(rng.index(cuts + cuts / 2));
  control::BudgetLimits byFrontier;
  byFrontier.maxFrontierBytes =
      (sizeof(Cut) + sizeof(int) * static_cast<unsigned>(processes)) *
      static_cast<std::uint64_t>(rng.uniform(1, 12));
  return {std::nullopt, byCuts, byFrontier};
}

struct Trial {
  Computation computation;
  VariableTrace trace;
  CnfPredicate cnf;

  Trial(Rng& rng, int trial)
      : computation(make(rng, trial)), trace(computation) {
    defineRandomBools(trace, "x", 0.4, rng);
    defineRandomBools(trace, "s", 0.6, rng);
    const int n = computation.processCount();
    // Two-literal clauses across processes: not conjunctive, so the lattice
    // is the only exact route, and sparse enough that some searches fail.
    for (int j = 0; j < 2; ++j) {
      const auto p = static_cast<ProcessId>(rng.index(n));
      const auto q = static_cast<ProcessId>(rng.index(n));
      cnf.clauses.push_back({{p, "x", rng.chance(0.5)}, {q, "x", true}});
    }
  }

  static Computation make(Rng& rng, int trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + trial % 3;
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(4));
    opt.messageProbability = rng.real();
    return randomComputation(opt, rng);
  }
};

TEST(LatticeKernelProperty, EveryFormMatchesTheUnorderedSetBfs) {
  Rng rng(20010416);
  par::Pool pool2(2);
  par::Pool pool8(8);
  int stopsSeen = 0;
  int witnessesSeen = 0;
  int definitelyStops = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Trial t(rng, trial);
    const VectorClocks vc(t.computation);
    const CutPredicate phi = t.cnf.bind(t.trace);

    // A real slice restriction, built as the slice-first pre-pass builds
    // it: the sublattice of a regular conjunctive skeleton.
    ConjunctivePredicate skeleton;
    for (ProcessId p = 0; p < t.computation.processCount(); p += 2) {
      skeleton.terms.push_back(varTrue(p, "s"));
    }
    detect::SliceOptions sopts;
    sopts.verifyRegular = false;
    const detect::Slice slice = detect::computeSlice(
        vc, detect::conjunctiveOracle(t.trace, skeleton), sopts);
    const CutAdmit sliceAdmit = [&](ProcessId p, const Cut& succ) {
      const int idx = succ.last[p];
      return slice.satisfiable && idx <= slice.top.last[p] &&
             slice.included(t.computation.node({p, idx}));
    };

    const std::uint64_t total = oracleStats(vc, nullptr).cutCount;
    const OracleRun truth = oracleDefinitely(vc, phi, nullptr);
    for (const auto& limits : limitsFor(rng, total, t.computation.processCount())) {
      const std::string label =
          "trial " + std::to_string(trial) +
          (limits.has_value()
               ? (limits->maxCuts != 0
                      ? " maxCuts=" + std::to_string(limits->maxCuts)
                      : " maxFrontierBytes=" +
                            std::to_string(limits->maxFrontierBytes))
               : " unlimited");
      const auto budgetFor = [&]() {
        return limits.has_value() ? control::Budget(*limits)
                                  : control::Budget();
      };

      // Full visit sequence, unrestricted and slice-restricted.
      for (const CutAdmit* admit : {static_cast<const CutAdmit*>(nullptr),
                                    &sliceAdmit}) {
        const std::string l = label + (admit != nullptr ? " sliced" : "");
        control::Budget oracleBudget = budgetFor();
        const OracleRun want =
            oracleSearch(vc, nullptr, limits ? &oracleBudget : nullptr, admit);
        control::Budget budget = budgetFor();
        std::vector<Cut> visits;
        const ExploreResult got = exploreConsistentCuts(
            vc,
            [&](const Cut& cut) {
              visits.push_back(cut);
              return true;
            },
            limits ? &budget : nullptr, admit);
        expectSameExplore(got, want.explore, l + " explore");
        EXPECT_EQ(visits, want.visits) << l << " explore";
        expectSameBudget(budget, oracleBudget, l + " explore");
        if (want.explore.end == ExploreEnd::BudgetExhausted) ++stopsSeen;

        // possibly(φ): sequential and pooled searches.
        control::Budget searchOracleBudget = budgetFor();
        const OracleRun wantSearch = oracleSearch(
            vc, &phi, limits ? &searchOracleBudget : nullptr, admit);
        if (wantSearch.witness.has_value()) ++witnessesSeen;
        for (par::Pool* pool : {static_cast<par::Pool*>(nullptr), &pool2,
                                &pool8}) {
          const std::string ls =
              l + " search threads=" +
              std::to_string(pool != nullptr ? pool->threads() : 0);
          control::Budget searchBudget = budgetFor();
          control::Budget* b = limits ? &searchBudget : nullptr;
          const CutSearchResult res =
              findSatisfyingCut(vc, phi, b, pool, admit);
          expectSameExplore(res.explore, wantSearch.explore, ls);
          EXPECT_EQ(res.witness, wantSearch.witness) << ls;
          EXPECT_EQ(res.complete,
                    wantSearch.witness.has_value() ||
                        wantSearch.explore.end == ExploreEnd::Exhausted)
              << ls;
          expectSameBudget(searchBudget, searchOracleBudget, ls);
        }
      }

      // definitely(φ): the depth-first search expands a subset of the
      // cuts the BFS expands, so it decides whenever the BFS decides under
      // a cut cap and never expands more unbudgeted. A frontier cap bounds
      // another measure (visited set plus stack), so there only decided
      // verdicts are compared.
      control::Budget defOracleBudget = budgetFor();
      const OracleRun wantDef =
          oracleDefinitely(vc, phi, limits ? &defOracleBudget : nullptr);
      const bool oracleDecided =
          wantDef.explore.end != ExploreEnd::BudgetExhausted;
      const std::string ld = label + " definitely";
      control::Budget defBudget = budgetFor();
      const DefinitelyDecision d =
          decideDefinitely(vc, phi, limits ? &defBudget : nullptr);
      if (!limits.has_value()) {
        EXPECT_EQ(d.decided, oracleDecided) << ld;
        EXPECT_EQ(d.holds, wantDef.definitelyHolds) << ld;
        EXPECT_LE(d.explore.cutsVisited, wantDef.explore.cutsVisited) << ld;
      } else {
        if (limits->maxCuts != 0 && oracleDecided) {
          EXPECT_TRUE(d.decided) << ld;
        }
        if (d.decided) {
          EXPECT_EQ(d.holds, truth.definitelyHolds) << ld;
        } else {
          EXPECT_TRUE(defBudget.exhausted()) << ld;
          ++definitelyStops;
        }
        // Prepaid charges the search did not use are refunded.
        EXPECT_EQ(defBudget.progress().cutsVisited, d.explore.cutsVisited)
            << ld;
      }
      EXPECT_EQ(d.avoidingRun.empty(), !d.decided || d.holds) << ld;

      // latticeStats.
      control::Budget statsOracleBudget = budgetFor();
      const LatticeStats wantStats =
          oracleStats(vc, limits ? &statsOracleBudget : nullptr);
      control::Budget statsBudget = budgetFor();
      const LatticeStats stats =
          latticeStats(vc, limits ? &statsBudget : nullptr);
      EXPECT_EQ(stats.cutCount, wantStats.cutCount) << label << " stats";
      EXPECT_EQ(stats.levels, wantStats.levels) << label << " stats";
      EXPECT_EQ(stats.maxWidth, wantStats.maxWidth) << label << " stats";
      EXPECT_EQ(stats.complete, wantStats.complete) << label << " stats";
      expectSameBudget(statsBudget, statsOracleBudget, label + " stats");
    }
  }
  // The sweep must reach budget stops and witnesses, not only exhaustion.
  EXPECT_GT(stopsSeen, kTrials / 4);
  EXPECT_GT(witnessesSeen, kTrials / 4);
  EXPECT_GT(definitelyStops, 0);
}

// Every "no" of decideDefinitely comes with its proof: a run from ⊥ to ⊤
// whose cuts are consistent, falsify φ, and each add one event to the one
// before. The verdict is the oracle BFS's. Odd trials test x on every
// process at once, which runs avoid more often than the trial's CNF.
TEST(LatticeAvoidingRunProperty, EveryNoCarriesAValidRun) {
  Rng rng(20011010);
  int noes = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Trial t(rng, trial);
    const VectorClocks vc(t.computation);
    CnfPredicate allX;
    for (ProcessId p = 0; p < t.computation.processCount(); ++p) {
      allX.clauses.push_back({{p, "x", true}});
    }
    const CutPredicate phi = (trial % 2 == 0 ? t.cnf : allX).bind(t.trace);
    const std::string label = "trial " + std::to_string(trial);
    const DefinitelyDecision d = decideDefinitely(vc, phi);
    ASSERT_TRUE(d.decided) << label;
    EXPECT_EQ(d.holds, oracleDefinitely(vc, phi, nullptr).definitelyHolds)
        << label;
    if (d.holds) {
      EXPECT_TRUE(d.avoidingRun.empty()) << label;
      continue;
    }
    ++noes;
    const std::vector<Cut>& run = d.avoidingRun;
    ASSERT_FALSE(run.empty()) << label;
    EXPECT_EQ(run.front(), initialCut(t.computation)) << label;
    EXPECT_EQ(run.back(), finalCut(t.computation)) << label;
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_TRUE(vc.isConsistent(run[i])) << label << " cut " << i;
      EXPECT_FALSE(phi(run[i])) << label << " cut " << i;
      if (i == 0) continue;
      ASSERT_EQ(run[i].processes(), run[i - 1].processes()) << label;
      EXPECT_TRUE(run[i - 1].subsetOf(run[i])) << label << " cut " << i;
      EXPECT_EQ(run[i].level(), run[i - 1].level() + 1)
          << label << " cut " << i;
    }
  }
  // The sweep must exercise both verdicts.
  EXPECT_GT(noes, kTrials / 4);
  EXPECT_LT(noes, kTrials - kTrials / 4);
}

}  // namespace
}  // namespace gpd::lattice
