// What an unbudgeted Detector query emits. The unbudgeted entry points run
// the same plan walk as the budgeted ones (under an unlimited Budget), so a
// query opens one detect.query span with one plan.step child per step it
// ran, counts detector_queries and plan_steps_run once, and feeds the
// planner-accuracy counters from the budget's combination meter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpd.h"

namespace gpd::obs {
namespace {

#ifndef GPD_OBS_DISABLED

class DetectObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().stop();
    tracer().clear();
    registry().reset();
  }
  void TearDown() override {
    tracer().stop();
    tracer().clear();
    registry().reset();
  }
};

std::uint64_t counterValue(const char* name) {
  return registry().counter(name).value();
}

// A grouped 2×2 computation without ordering discipline, so singular CNFs
// over it route to the chain-cover enumeration rather than CPDSC.
struct Grouped {
  Computation computation;
  VariableTrace trace;

  explicit Grouped(Rng& rng) : computation(make(rng)), trace(computation) {
    defineRandomBools(trace, "x", 0.5, rng);
  }

  static Computation make(Rng& rng) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 2;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    opt.discipline = OrderingDiscipline::None;
    return randomGroupedComputation(opt, rng);
  }
};

CnfPredicate singularCnf() {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}},
                  {{2, "x", true}, {3, "x", false}}};
  return pred;
}

TEST_F(DetectObsTest, UnbudgetedCnfQueryOpensOneQuerySpanWithOneStep) {
  Rng rng(11);
  const Grouped g(rng);
  detect::Detector det(g.trace);
  tracer().start();
  (void)det.possibly(singularCnf());
  tracer().stop();

  EXPECT_EQ(counterValue("detector_queries"), 1u);
  EXPECT_EQ(counterValue("plan_steps_run"), 1u);
  EXPECT_EQ(counterValue("plan_steps_skipped"), 0u);
  const std::vector<SpanRecord> spans = tracer().snapshot();
  std::vector<const SpanRecord*> queries;
  std::vector<const SpanRecord*> steps;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "detect.query") queries.push_back(&s);
    if (std::string(s.name) == "plan.step") steps.push_back(&s);
  }
  ASSERT_EQ(queries.size(), 1u);
  ASSERT_EQ(steps.size(), 1u);
  const SpanRecord& query = *queries[0];
  const SpanRecord& step = *steps[0];
  EXPECT_EQ(step.depth, query.depth + 1);
  EXPECT_EQ(step.tid, query.tid);
  EXPECT_GE(step.startNs, query.startNs);
  EXPECT_LE(step.startNs + step.durationNs,
            query.startNs + query.durationNs);
  ASSERT_GE(step.attrCount, 2);
  EXPECT_STREQ(step.attrs[0].key, "algorithm");
  EXPECT_EQ(std::string(step.attrs[0].strValue), det.lastAlgorithm());
  EXPECT_STREQ(step.attrs[1].key, "ran");
  EXPECT_STREQ(step.attrs[1].strValue, "yes");
}

// plan_actual_combinations comes from the budget's combination meter; for
// an unbudgeted chain-cover query it must equal the kernel's own count of
// CPDHB invocations, sequentially and with a pool.
TEST_F(DetectObsTest, UnbudgetedChainCoverFeedsTheKernelsCombinationCount) {
  par::Pool pool(4);
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Grouped g(rng);
    const CnfPredicate pred = singularCnf();
    detect::Detector det(g.trace);
    for (par::Pool* p : {static_cast<par::Pool*>(nullptr), &pool}) {
      det.usePool(p);
      registry().reset();
      (void)det.possibly(pred);
      if (det.lastAlgorithm() != "singular-chain-cover") break;
      // No skeleton pruning at this size, so the bare kernel scans the
      // same selections.
      ASSERT_FALSE(det.lastSlice().has_value()) << "seed " << seed;
      const detect::SingularCnfResult kernel =
          detect::detectSingularByChainCover(det.clocks(), g.trace, pred);
      EXPECT_EQ(counterValue("plan_actual_combinations"),
                kernel.combinationsTried)
          << "seed " << seed << (p != nullptr ? " pooled" : "");
      EXPECT_EQ(counterValue("plan_predicted_combinations"),
                *det.lastReport().chosen().predictedCpdhbInvocations)
          << "seed " << seed;
      ++checked;
    }
  }
  EXPECT_GE(checked, 10) << "too few seeds routed to singular-chain-cover";
}

// chain_covers_built per singular-chain-cover query: without skeleton
// pruning the planner's cover of each clause feeds the enumeration, so an
// m-clause query builds m covers, not one for the planner and one for the
// enumeration.
TEST_F(DetectObsTest, ChainCoverQueryBuildsOneCoverPerClause) {
  const CnfPredicate pred = singularCnf();
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Grouped g(rng);
    detect::Detector det(g.trace);
    registry().reset();
    (void)det.possibly(pred);
    if (det.lastAlgorithm() != "singular-chain-cover") continue;
    ASSERT_FALSE(det.lastSlice().has_value()) << "seed " << seed;
    EXPECT_EQ(counterValue("chain_covers_built"), pred.clauses.size())
        << "seed " << seed;
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

// Routing classifies without the lattice-backed hints, so a query the
// chain cover answers never binds the predicate for a lattice sweep: no
// exploration runs and no cut is visited.
TEST_F(DetectObsTest, ChainCoverQueryExploresNoLattice) {
  const CnfPredicate pred = singularCnf();
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Grouped g(rng);
    detect::Detector det(g.trace);
    registry().reset();
    (void)det.possibly(pred);
    if (det.lastAlgorithm() != "singular-chain-cover") continue;
    EXPECT_EQ(counterValue("lattice_explorations"), 0u) << "seed " << seed;
    EXPECT_EQ(counterValue("cuts_enumerated"), 0u) << "seed " << seed;
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

// With the skeleton pruning active the enumeration covers the admitted
// events only, so each clause's cover is built a second time.
TEST_F(DetectObsTest, PrunedChainCoverQueryRebuildsEachCover) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40 && checked == 0; ++seed) {
    Rng rng(seed);
    GroupedComputationOptions opt;
    opt.groups = 5;
    opt.groupSize = 3;
    opt.eventsPerProcess = 6;
    opt.messageProbability = 0.2;
    const Computation comp = randomGroupedComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomBools(trace, "x", 0.4, rng);
    CnfPredicate pred;
    for (int j = 0; j < 4; ++j) {
      pred.clauses.push_back(
          {{3 * j, "x", true}, {3 * j + 1, "x", true}, {3 * j + 2, "x", true}});
    }
    pred.clauses.push_back({{12, "x", true}});
    detect::Detector det(trace);
    registry().reset();
    (void)det.possibly(pred);
    if (det.lastAlgorithm() != "singular-chain-cover" ||
        !det.lastSlice().has_value() || !det.lastSlice()->usedSlice) {
      continue;
    }
    EXPECT_EQ(counterValue("chain_covers_built"), 2 * pred.clauses.size())
        << "seed " << seed;
    ++checked;
  }
  EXPECT_EQ(checked, 1) << "no seed activated the skeleton pruning";
}

// flow_closures_solved per query: each sum query solves only the closure
// sides its relop or Theorem 7 branch needs, and the disjuncts of a
// symmetric predicate share them.
TEST_F(DetectObsTest, SumQueriesSolveOnlyTheClosuresTheyNeed) {
  Rng rng(5);
  RandomComputationOptions opt;
  opt.processes = 4;
  opt.eventsPerProcess = 8;
  const Computation comp = randomComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomCounters(trace, "y", 0, 1, rng);  // |ΔS| ≤ 1: Theorem 7
  defineRandomBools(trace, "b", 0.5, rng);
  std::vector<SumTerm> ys;
  std::vector<SumTerm> bs;
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    ys.push_back({p, "y"});
    bs.push_back({p, "b"});
  }
  detect::Detector det(trace);
  const auto closures = [&](const auto& pred) {
    registry().reset();
    (void)det.possibly(pred);
    return counterValue("flow_closures_solved");
  };

  EXPECT_EQ(closures(SumPredicate{ys, Relop::GreaterEq, 2}), 1u);
  EXPECT_EQ(det.lastAlgorithm(), "min-cut-extrema");
  // S(⊥) = 0: K = S(⊥) is witnessed by ⊥ itself, with no closure.
  EXPECT_EQ(closures(SumPredicate{ys, Relop::Equal, 0}), 0u);
  EXPECT_EQ(det.lastAlgorithm(), "theorem-7-exact-sum");
  EXPECT_EQ(closures(SumPredicate{ys, Relop::Equal, 3}), 1u);
  EXPECT_EQ(closures(SumPredicate{ys, Relop::Equal, -3}), 1u);

  SymmetricPredicate sym;
  sym.vars = bs;
  sym.trueCounts = {0, 2, 4};
  EXPECT_LE(closures(sym), 2u);
  EXPECT_EQ(det.lastAlgorithm(), "symmetric-exact-sum-disjunction");
  // Three counts above the arity: every disjunct asks for the max side,
  // which is solved once.
  sym.trueCounts = {5, 6, 7};
  EXPECT_EQ(closures(sym), 1u);
}

// flow_closure_nodes counts the contracted runs handed to the closure
// solver. On one process with Δ = +1, +1, −1 the max side fixes the first
// two events in and drops the last, so its closure has no node at all; it
// is still solved, and counted, once.
TEST_F(DetectObsTest, ContractionCanLeaveTheClosureWithoutNodes) {
  ComputationBuilder b(1);
  for (int i = 0; i < 3; ++i) b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 1, 2, 1});
  detect::Detector det(trace);
  registry().reset();
  const std::optional<Cut> witness =
      det.possibly(SumPredicate{{{0, "x"}}, Relop::GreaterEq, 2});
  EXPECT_EQ(det.lastAlgorithm(), "min-cut-extrema");
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, Cut({2}));
  EXPECT_EQ(counterValue("flow_closures_solved"), 1u);
  EXPECT_EQ(counterValue("flow_closure_nodes"), 0u);
}

// An exact sum with steps above 1 routes to the lattice; the range test in
// front of it solves the max side, then the min side only when K ≤ max S,
// and counts the queries it refutes.
TEST_F(DetectObsTest, ExactSumRangeTestSolvesOnlyTheSidesItNeeds) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 3, 1});
  trace.define(1, "x", {0, 2});
  const std::vector<SumTerm> xs{{0, "x"}, {1, "x"}};
  detect::Detector det(trace);
  const auto run = [&](std::int64_t k) {
    registry().reset();
    (void)det.possibly(SumPredicate{xs, Relop::Equal, k});
    EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration") << k;
    return std::make_pair(counterValue("flow_closures_solved"),
                          counterValue("sum_range_precheck_decided"));
  };
  // S ranges over [0, 5].
  EXPECT_EQ(run(6), std::make_pair(std::uint64_t{1}, std::uint64_t{1}));
  EXPECT_EQ(run(-1), std::make_pair(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_EQ(run(4), std::make_pair(std::uint64_t{2}, std::uint64_t{0}));

  registry().reset();
  EXPECT_FALSE(det.definitely(SumPredicate{xs, Relop::Equal, 6}));
  EXPECT_EQ(det.lastAlgorithm(), "lattice-definitely");
  EXPECT_EQ(counterValue("sum_range_precheck_decided"), 1u);
  EXPECT_EQ(counterValue("definitely_cuts_enumerated"), 0u);
}

#endif  // GPD_OBS_DISABLED

}  // namespace
}  // namespace gpd::obs
