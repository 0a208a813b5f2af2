// Slice-first ≡ unsliced equivalence suite.
//
// The slice pre-pass restricts the downstream lattice search to the
// skeleton slice's sublattice; the contract (detector.h) is that verdict
// AND witness are bit-identical to the historical unsliced search, because
// the restricted BFS preserves the full BFS's visit order over the admitted
// region and the region contains every satisfying cut. This suite pins that
// equivalence over random computations and CNFs whose single-process
// clauses make the planner route slice-first, across sequential and pooled
// execution and under budget exhaustion.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "computation/random.h"
#include "control/budget.h"
#include "detect/detector.h"
#include "detect_test_util.h"
#include "par/pool.h"
#include "predicates/random_trace.h"
#include "util/rng.h"

namespace gpd::detect {
namespace {

// A CNF with at least one single-process clause (the regular skeleton the
// planner slices on) plus multi-process clauses (so the plan still needs a
// downstream lattice search — pure-conjunctive routes to CPDHB instead).
CnfPredicate randomSkeletonCnf(int processes, const std::string& var,
                               Rng& rng) {
  CnfPredicate pred;
  const int singles = 1 + static_cast<int>(rng.index(2));
  for (int s = 0; s < singles; ++s) {
    const int p = static_cast<int>(rng.index(static_cast<std::size_t>(processes)));
    CnfClause clause;
    clause.push_back({p, var, rng.chance(0.7)});
    if (rng.chance(0.5)) clause.push_back({p, var, rng.chance(0.5)});
    pred.clauses.push_back(std::move(clause));
  }
  const int multis = 1 + static_cast<int>(rng.index(2));
  for (int m = 0; m < multis; ++m) {
    CnfClause clause;
    int p = static_cast<int>(rng.index(static_cast<std::size_t>(processes)));
    clause.push_back({p, var, rng.chance(0.6)});
    int q = (p + 1 + static_cast<int>(rng.index(
                         static_cast<std::size_t>(processes - 1)))) %
            processes;
    clause.push_back({q, var, rng.chance(0.6)});
    pred.clauses.push_back(std::move(clause));
  }
  return pred;
}

struct Instance {
  Computation comp;
  CnfPredicate pred;
};

Instance makeInstance(std::uint64_t seed) {
  Rng rng(seed);
  RandomComputationOptions opt;
  opt.processes = 3 + static_cast<int>(rng.index(2));
  opt.eventsPerProcess = 3 + static_cast<int>(rng.index(3));
  opt.messageProbability = 0.45;
  Instance inst{randomComputation(opt, rng), {}};
  inst.pred = randomSkeletonCnf(inst.comp.processCount(), "x", rng);
  return inst;
}

VariableTrace makeTrace(const Computation& c, std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdef);
  VariableTrace trace(c);
  defineRandomBools(trace, "x", 0.5, rng);
  return trace;
}

TEST(SliceFirstTest, UnbudgetedMatchesUnslicedAcross200Seeds) {
  int routed = 0;
  int witnesses = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Instance inst = makeInstance(1000 + seed);
    const VariableTrace trace = makeTrace(inst.comp, seed);

    Detector sliced(trace);
    const std::optional<Cut> got = sliced.possibly(inst.pred);
    Detector plain(trace);
    plain.enableSlicing(false);
    const std::optional<Cut> want = plain.possibly(inst.pred);

    ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed;
    if (got) {
      EXPECT_EQ(got->last, want->last) << "seed " << seed;  // bit-identical
      ++witnesses;
    }
    if (sliced.lastAlgorithm() == "slice-first") ++routed;
  }
  // The generator must actually exercise the slice-first route and find
  // witnesses, or the suite proves nothing.
  EXPECT_GT(routed, 50);
  EXPECT_GT(witnesses, 20);
}

TEST(SliceFirstTest, PooledRunsAreBitIdenticalToSequential) {
  for (const int threads : {1, 2, 8}) {
    par::Pool pool(threads);
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const Instance inst = makeInstance(5000 + seed);
      const VariableTrace trace = makeTrace(inst.comp, seed);

      Detector sequential(trace);
      const std::optional<Cut> want = sequential.possibly(inst.pred);

      Detector pooled(trace);
      pooled.usePool(&pool);
      const std::optional<Cut> got = pooled.possibly(inst.pred);

      ASSERT_EQ(got.has_value(), want.has_value())
          << "threads " << threads << " seed " << seed;
      if (got) {
        EXPECT_EQ(got->last, want->last)
            << "threads " << threads << " seed " << seed;
      }
    }
  }
}

TEST(SliceFirstTest, BudgetedMatchesUnslicedVerdictAndWitness) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const Instance inst = makeInstance(7000 + seed);
    const VariableTrace trace = makeTrace(inst.comp, seed);

    control::BudgetLimits limits;
    limits.maxCuts = 100000;  // ample: both runs complete
    control::Budget b1(limits);
    Detector sliced(trace);
    const Detection got = sliced.possibly(inst.pred, b1);

    control::Budget b2(limits);
    Detector plain(trace);
    plain.enableSlicing(false);
    const Detection want = plain.possibly(inst.pred, b2);

    ASSERT_EQ(got.outcome, want.outcome) << "seed " << seed;
    ASSERT_EQ(got.witness.has_value(), want.witness.has_value())
        << "seed " << seed;
    if (got.witness) {
      EXPECT_EQ(got.witness->last, want.witness->last) << "seed " << seed;
    }
  }
}

TEST(SliceFirstTest, ExhaustedBudgetDegradesToUnknownNotWrong) {
  // A budget too small for the slice pre-pass's |E| headroom: the walk must
  // skip the slice step and degrade exactly like the unsliced detector —
  // Unknown (or a genuine Yes from the bounded prover), never a wrong No.
  int unknowns = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Instance inst = makeInstance(9000 + seed);
    const VariableTrace trace = makeTrace(inst.comp, seed);

    Detector unbudgeted(trace);
    const std::optional<Cut> truth = unbudgeted.possibly(inst.pred);

    control::BudgetLimits limits;
    limits.maxCuts = 2;  // below the |E| headroom of every instance
    control::Budget budget(limits);
    Detector det(trace);
    const Detection d = det.possibly(inst.pred, budget);

    if (d.outcome == Outcome::Yes) {
      ASSERT_TRUE(truth.has_value()) << "seed " << seed;
      ASSERT_TRUE(d.witness.has_value()) << "seed " << seed;
    } else if (d.outcome == Outcome::No) {
      EXPECT_FALSE(truth.has_value()) << "seed " << seed;
    } else {
      ++unknowns;
      EXPECT_NE(d.stopReason, control::StopReason::None) << "seed " << seed;
    }
  }
  EXPECT_GT(unknowns, 0);  // the tiny budget must actually bite sometimes
}

TEST(SliceFirstTest, SingularOdometerPruningPreservesVerdicts) {
  // Singular CNFs whose chain-cover space exceeds the pruning threshold,
  // plus one single-process clause on a process no other clause uses: the
  // skeleton-sliced odometer must agree with the pruning-free enumeration
  // (slicing disabled) on every verdict.
  Rng rng(31337);
  for (int trial = 0; trial < 30; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 6;
    opt.groupSize = 3;
    opt.eventsPerProcess = 6;
    opt.messageProbability = 0.2;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.4, rng);
    CnfPredicate pred = testing::randomSingularKCnf(5, 3, "x", rng);
    // Pin process 15 to a literal with a true event, so the skeleton slice
    // is satisfiable and the pruning runs.
    const ProcessId pinned = 15;
    pred.clauses.push_back(
        {{pinned, "x", !trace.trueEventIndices(pinned, "x").empty()}});
    ASSERT_TRUE(pred.isSingular());

    Detector sliced(trace);
    const std::optional<Cut> got = sliced.possibly(pred);
    ASSERT_TRUE(sliced.lastReport().cnf.has_value());
    EXPECT_GT(sliced.lastReport().cnf->chainCoverBound(), 64u)
        << "trial " << trial;
    EXPECT_TRUE(sliced.lastAlgorithm() == "singular-chain-cover" ||
                sliced.lastAlgorithm() == "singular-process-enumeration")
        << "trial " << trial << ": " << sliced.lastAlgorithm();
    ASSERT_TRUE(sliced.lastSlice().has_value()) << "trial " << trial;
    EXPECT_TRUE(sliced.lastSlice()->usedSlice) << "trial " << trial;

    Detector plain(trace);
    plain.enableSlicing(false);
    const std::optional<Cut> want = plain.possibly(pred);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (got) {
      // Pruning may reorder the odometer's selections, so only the verdict
      // and witness validity are pinned, not the exact cut.
      EXPECT_TRUE(pred.holdsAtCut(trace, *got)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace gpd::detect
