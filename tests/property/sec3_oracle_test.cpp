// The Sec. 3 kernels against the code they replaced.
//
// The Sec. 3.3 enumerations run one chunked odometer (inline on one worker
// without a pool) and CPDSC runs CPDHB's elimination scan on σ-sorted
// queues. The reference code below is the earlier form of both, kept
// verbatim apart from names: the sequential odometer loop with its own copy
// of the CPDHB elimination, and the CPDSC scan with its own elimination
// loop and its own receive-/send-order test.
//
// 1. Odometer: 200 seeded singular CNFs, each enumerated by chain cover
//    (trace form and over the classifier's covers) and by process
//    enumeration, without a budget, under combination caps at 1, half the
//    space, one below, at and above the space, and under a cancelled token,
//    each without a pool and with 2 and 8 threads. found, witness, cut,
//    combinationsTried, combinationsTotal, complete, the budget's stop
//    reason and its combination count must equal the reference's; without
//    a pool the comparison count must too.
// 2. CPDSC: 200 seeded receive-ordered and send-ordered grouped
//    computations. Verdict, witness and cut of both detectSingularSpecialCase
//    forms must equal the reference scan's.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "../detect/detect_test_util.h"
#include "analyze/classify.h"
#include "computation/random.h"
#include "computation/reverse.h"
#include "control/budget.h"
#include "detect/cpdsc.h"
#include "detect/singular_cnf.h"
#include "par/pool.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

constexpr int kTrials = 200;

// ---- Reference: the sequential odometer and its CPDHB scan -------------

ConjunctiveResult referenceCpdhb(const VectorClocks& clocks,
                                 const std::vector<Chain>& chains) {
  ConjunctiveResult result;
  const int n = static_cast<int>(chains.size());
  if (n == 0) {
    result.found = true;
    result.cut = initialCut(clocks.computation());
    return result;
  }
  for (const Chain& chain : chains) {
    if (chain.empty()) return result;
  }

  std::vector<std::size_t> head(n, 0);
  const auto cand = [&](int i) -> const EventId& {
    return chains[i][head[i]];
  };

  std::vector<int> work;
  std::vector<char> queued(n, 1);
  for (int i = 0; i < n; ++i) work.push_back(i);

  const auto enqueue = [&](int i) {
    if (!queued[i]) {
      queued[i] = 1;
      work.push_back(i);
    }
  };

  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    queued[i] = 0;
    bool advancedI = false;
    for (int j = 0; j < n && !advancedI; ++j) {
      if (j == i) continue;
      while (true) {
        ++result.comparisons;
        if (clocks.succLeq(cand(i), cand(j))) {
          if (++head[i] >= chains[i].size()) return result;
          advancedI = true;
          continue;
        }
        ++result.comparisons;
        if (clocks.succLeq(cand(j), cand(i))) {
          if (++head[j] >= chains[j].size()) return result;
          enqueue(j);
          continue;
        }
        break;
      }
    }
    if (advancedI) enqueue(i);
  }

  result.witness.reserve(n);
  for (int i = 0; i < n; ++i) result.witness.push_back(cand(i));
  std::vector<EventId> unique(result.witness);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  result.cut = clocks.leastConsistentCutThrough(unique);
  result.found = true;
  return result;
}

SingularCnfResult referenceOdometer(
    const VectorClocks& clocks, const std::vector<std::vector<Chain>>& options,
    control::Budget* budget) {
  SingularCnfResult result;
  result.combinationsTotal = 1;
  for (const auto& opts : options) {
    if (opts.empty()) {
      result.combinationsTotal = 0;
      return result;
    }
    if (result.combinationsTotal > UINT64_MAX / opts.size()) {
      result.combinationsTotal = UINT64_MAX;
    } else {
      result.combinationsTotal *= opts.size();
    }
  }

  const int m = static_cast<int>(options.size());
  std::vector<std::size_t> pick(m, 0);
  std::vector<Chain> chains(m);
  while (true) {
    if (budget != nullptr && !budget->chargeCombination()) {
      result.complete = false;
      return result;
    }
    for (int j = 0; j < m; ++j) chains[j] = options[j][pick[j]];
    ++result.combinationsTried;
    ConjunctiveResult sub = referenceCpdhb(clocks, chains);
    result.comparisons += sub.comparisons;
    if (sub.found) {
      result.found = true;
      result.cut = sub.cut;
      result.witness = std::move(sub.witness);
      return result;
    }
    int j = 0;
    while (j < m && ++pick[j] >= options[j].size()) {
      pick[j] = 0;
      ++j;
    }
    if (j == m) return result;
  }
}

// Group j's per-process chains of clause-true events: the process
// enumeration's options.
std::vector<std::vector<Chain>> processChains(const VariableTrace& trace,
                                              const CnfPredicate& pred) {
  const auto trueEvents = analyze::clauseTrueEvents(trace, pred);
  std::vector<std::vector<Chain>> options(pred.clauses.size());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    for (ProcessId p : pred.clauseProcesses(static_cast<int>(j))) {
      Chain chain;
      for (const EventId& e : trueEvents[j]) {
        if (e.process == p) chain.push_back(e);
      }
      if (!chain.empty()) options[j].push_back(std::move(chain));
    }
  }
  return options;
}

// ---- Reference: the CPDSC scan -----------------------------------------

bool referencePairwiseOrdered(const VectorClocks& clocks,
                              const std::vector<EventId>& events) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (!clocks.leq(events[i], events[j]) &&
          !clocks.leq(events[j], events[i])) {
        return false;
      }
    }
  }
  return true;
}

bool referenceOrdered(const VectorClocks& clocks, const Groups& groups,
                      bool receives) {
  for (const auto& group : groups) {
    if (!referencePairwiseOrdered(
            clocks, analyze::groupEventsOfKind(clocks.computation(), group,
                                               receives))) {
      return false;
    }
  }
  return true;
}

std::vector<int> referenceSigma(const VectorClocks& clocks,
                                const Groups& groups) {
  const Computation& comp = clocks.computation();
  graph::Dag g = comp.toDag();
  for (const auto& group : groups) {
    const auto receives = analyze::groupEventsOfKind(comp, group, true);
    for (const EventId& r : receives) {
      for (ProcessId p : group) {
        for (int i = 0; i < comp.eventCount(p); ++i) {
          const EventId e{p, i};
          if (clocks.concurrent(e, r)) g.addEdge(comp.node(e), comp.node(r));
        }
      }
    }
  }
  const auto order = g.topologicalOrder();
  EXPECT_TRUE(order.has_value());
  std::vector<int> pos(comp.totalEvents());
  for (int i = 0; i < comp.totalEvents(); ++i) pos[(*order)[i]] = i;
  return pos;
}

CpdscResult referenceScanReceiveOrdered(
    const VectorClocks& clocks, const Groups& groups,
    const std::vector<std::vector<EventId>>& trueEvents) {
  CpdscResult result;
  if (!referenceOrdered(clocks, groups, true)) return result;

  const Computation& comp = clocks.computation();
  const std::vector<int> sigma = referenceSigma(clocks, groups);

  const int m = static_cast<int>(groups.size());
  result.status = CpdscResult::Status::NotFound;
  std::vector<std::vector<EventId>> queue(m);
  for (int j = 0; j < m; ++j) {
    queue[j] = trueEvents[j];
    if (queue[j].empty()) return result;
    std::sort(queue[j].begin(), queue[j].end(),
              [&](const EventId& a, const EventId& b) {
                return sigma[comp.node(a)] < sigma[comp.node(b)];
              });
  }

  std::vector<std::size_t> head(m, 0);
  const auto cand = [&](int j) -> const EventId& { return queue[j][head[j]]; };

  std::vector<int> work;
  std::vector<char> queued(m, 1);
  for (int j = 0; j < m; ++j) work.push_back(j);
  const auto enqueue = [&](int j) {
    if (!queued[j]) {
      queued[j] = 1;
      work.push_back(j);
    }
  };

  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    queued[i] = 0;
    bool advancedI = false;
    for (int j = 0; j < m && !advancedI; ++j) {
      if (j == i) continue;
      while (true) {
        if (clocks.succLeq(cand(i), cand(j))) {
          if (++head[i] >= queue[i].size()) return result;
          advancedI = true;
          continue;
        }
        if (clocks.succLeq(cand(j), cand(i))) {
          if (++head[j] >= queue[j].size()) return result;
          enqueue(j);
          continue;
        }
        break;
      }
    }
    if (advancedI) enqueue(i);
  }

  result.status = CpdscResult::Status::Found;
  for (int j = 0; j < m; ++j) result.witness.push_back(cand(j));
  result.cut = clocks.leastConsistentCutThrough(result.witness);
  return result;
}

CpdscResult referenceScanSendOrdered(
    const VectorClocks& clocks, const Groups& groups,
    const std::vector<std::vector<EventId>>& trueEvents) {
  CpdscResult result;
  if (!referenceOrdered(clocks, groups, false)) return result;

  const Computation& comp = clocks.computation();
  const Computation reversed = reverseComputation(comp);
  const VectorClocks revClocks(reversed);

  std::vector<std::vector<EventId>> revTrue(trueEvents.size());
  for (std::size_t j = 0; j < trueEvents.size(); ++j) {
    for (const EventId& e : trueEvents[j]) {
      revTrue[j].push_back(
          {e.process, comp.eventCount(e.process) - 1 - e.index});
    }
  }

  CpdscResult rev = referenceScanReceiveOrdered(revClocks, groups, revTrue);
  EXPECT_TRUE(rev.applicable());
  if (!rev.found()) {
    result.status = CpdscResult::Status::NotFound;
    return result;
  }
  result.status = CpdscResult::Status::Found;
  result.cut = reverseCut(comp, *rev.cut);
  for (const EventId& re : rev.witness) {
    result.witness.push_back(
        {re.process, comp.eventCount(re.process) - 1 - re.index});
  }
  return result;
}

CpdscResult referenceCpdsc(const VectorClocks& clocks,
                           const VariableTrace& trace,
                           const CnfPredicate& pred) {
  const Groups groups = groupsOfSingularCnf(pred);
  const auto trueEvents = analyze::clauseTrueEvents(trace, pred);
  CpdscResult result = referenceScanReceiveOrdered(clocks, groups, trueEvents);
  if (result.applicable()) return result;
  return referenceScanSendOrdered(clocks, groups, trueEvents);
}

// ---- The sweeps ---------------------------------------------------------

struct PoolSet {
  par::Pool pool2{2};
  par::Pool pool8{8};
  par::Pool* all[3] = {nullptr, &pool2, &pool8};
};

// One budget setting of the odometer sweep; nullopt cap = no budget.
struct BudgetCase {
  std::optional<std::uint64_t> cap;
  bool cancelled = false;
  std::string label;
};

std::vector<BudgetCase> budgetCases(std::uint64_t total) {
  std::vector<BudgetCase> cases = {{std::nullopt, false, "none"},
                                   {std::nullopt, true, "cancelled"},
                                   {1, false, "cap 1"}};
  if (total >= 4) cases.push_back({total / 2, false, "cap mid-scan"});
  if (total >= 2) cases.push_back({total - 1, false, "cap below"});
  if (total >= 1) cases.push_back({total, false, "cap at"});
  cases.push_back({total + 1, false, "cap above"});
  return cases;
}

std::optional<control::Budget> makeBudget(const BudgetCase& bc,
                                          const control::CancelToken* cancel) {
  if (!bc.cap.has_value() && !bc.cancelled) return std::nullopt;
  control::BudgetLimits limits;
  limits.maxCombinations = bc.cap.value_or(0);
  return std::optional<control::Budget>(std::in_place, limits,
                                        bc.cancelled ? cancel : nullptr);
}

void expectSameEnumeration(const SingularCnfResult& want,
                           const SingularCnfResult& got, bool pooled,
                           const std::string& label) {
  EXPECT_EQ(got.found, want.found) << label;
  EXPECT_EQ(got.witness, want.witness) << label;
  EXPECT_EQ(got.cut.has_value(), want.cut.has_value()) << label;
  if (got.cut.has_value() && want.cut.has_value()) {
    EXPECT_EQ(got.cut->last, want.cut->last) << label;
  }
  EXPECT_EQ(got.combinationsTried, want.combinationsTried) << label;
  EXPECT_EQ(got.combinationsTotal, want.combinationsTotal) << label;
  EXPECT_EQ(got.complete, want.complete) << label;
  if (!pooled) {
    EXPECT_EQ(got.comparisons, want.comparisons) << label;
  }
}

TEST(Sec3OracleTest, OdometerMatchesTheSequentialLoop) {
  Rng rng(20260);
  PoolSet pools;
  control::CancelToken cancel;
  cancel.requestCancel();
  int found = 0;
  int stopped = 0;
  int multi = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 2 + static_cast<int>(rng.index(2));
    opt.groupSize = 2 + static_cast<int>(rng.index(2));
    opt.eventsPerProcess = 3 + static_cast<int>(rng.index(3));
    opt.messageProbability = 0.3 + 0.5 * rng.real();
    const Computation comp = randomGroupedComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomBools(trace, "x", 0.1 + 0.4 * rng.real(), rng);
    const CnfPredicate pred = testing::randomSingularKCnf(
        opt.groups, opt.groupSize, "x", rng);
    const VectorClocks vc(comp);
    analyze::ClassifyOptions routing;
    routing.latticeCutLimit = 0;
    const analyze::CnfClassification cls =
        analyze::classifyCnf(vc, trace, pred, routing);
    const auto covers = clauseChainCovers(vc, trace, pred);
    const auto perProcess = processChains(trace, pred);

    struct Form {
      const char* name;
      const std::vector<std::vector<Chain>>* options;
    };
    const Form forms[] = {{"chain cover", &covers},
                          {"classifier cover", &covers},
                          {"process enumeration", &perProcess}};
    for (const Form& form : forms) {
      const std::uint64_t total =
          referenceOdometer(vc, *form.options, nullptr).combinationsTotal;
      multi += total > 1;
      for (const BudgetCase& bc : budgetCases(total)) {
        std::optional<control::Budget> refBudget = makeBudget(bc, &cancel);
        control::Budget* refPtr = refBudget ? &*refBudget : nullptr;
        const SingularCnfResult want =
            referenceOdometer(vc, *form.options, refPtr);
        found += want.found;
        stopped += !want.complete;
        for (par::Pool* pool : pools.all) {
          const std::string label =
              "trial " + std::to_string(trial) + " " + form.name + " " +
              bc.label + " threads " +
              std::to_string(pool != nullptr ? pool->threads() : 0);
          std::optional<control::Budget> budget = makeBudget(bc, &cancel);
          control::Budget* ptr = budget ? &*budget : nullptr;
          SingularCnfResult got;
          if (form.options == &perProcess) {
            got = detectSingularByProcessEnumeration(vc, trace, pred, ptr,
                                                     pool);
          } else if (std::string(form.name) == "chain cover") {
            got = detectSingularByChainCover(vc, trace, pred, ptr, pool);
          } else {
            got = detectSingularByChainCover(vc, cls, ptr, pool);
          }
          expectSameEnumeration(want, got, pool != nullptr, label);
          if (refPtr != nullptr) {
            ASSERT_NE(ptr, nullptr);
            EXPECT_EQ(ptr->reason(), refPtr->reason()) << label;
            EXPECT_EQ(ptr->progress().combinationsTried,
                      refPtr->progress().combinationsTried)
                << label;
          }
        }
      }
    }
  }
  // The sweep must reach hits, budget stops and multi-selection spaces.
  EXPECT_GT(found, 0);
  EXPECT_GT(stopped, 0);
  EXPECT_GT(multi, kTrials / 4);
}

TEST(Sec3OracleTest, CpdscMatchesTheReferenceScan) {
  Rng rng(20261);
  int found = 0;
  int missed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 2 + static_cast<int>(rng.index(2));
    opt.groupSize = 2 + static_cast<int>(rng.index(2));
    opt.eventsPerProcess = 3 + static_cast<int>(rng.index(4));
    opt.messageProbability = 0.3 + 0.5 * rng.real();
    opt.discipline = trial % 2 == 0 ? OrderingDiscipline::ReceiveOrdered
                                    : OrderingDiscipline::SendOrdered;
    const Computation comp = randomGroupedComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomBools(trace, "x", 0.05 + 0.3 * rng.real(), rng);
    // Positive literals only, so sparse true events leave room for a No.
    CnfPredicate pred;
    for (int g = 0; g < opt.groups; ++g) {
      CnfClause clause;
      for (int i = 0; i < opt.groupSize; ++i) {
        clause.push_back(varTrue(g * opt.groupSize + i, "x"));
      }
      pred.clauses.push_back(std::move(clause));
    }
    const VectorClocks vc(comp);
    analyze::ClassifyOptions routing;
    routing.latticeCutLimit = 0;
    const analyze::CnfClassification cls =
        analyze::classifyCnf(vc, trace, pred, routing);

    const CpdscResult want = referenceCpdsc(vc, trace, pred);
    ASSERT_TRUE(want.applicable()) << "trial " << trial;
    found += want.found();
    missed += !want.found();
    const CpdscResult byTrace = detectSingularSpecialCase(vc, trace, pred);
    const CpdscResult byClass = detectSingularSpecialCase(vc, cls);
    for (const CpdscResult* got : {&byTrace, &byClass}) {
      const std::string label = "trial " + std::to_string(trial) +
                                (got == &byTrace ? " trace" : " classified");
      EXPECT_EQ(got->status, want.status) << label;
      EXPECT_EQ(got->witness, want.witness) << label;
      EXPECT_EQ(got->cut.has_value(), want.cut.has_value()) << label;
      if (got->cut.has_value() && want.cut.has_value()) {
        EXPECT_EQ(got->cut->last, want.cut->last) << label;
      }
    }
  }
  EXPECT_GT(found, kTrials / 10);
  EXPECT_GT(missed, kTrials / 10);
}

}  // namespace
}  // namespace gpd::detect
