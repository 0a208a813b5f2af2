// Reconstruction of the paper's Figure 2 (experiment E2).
//
// The OCR of the paper loses the exact message pattern of Figure 2, so this
// is a faithful reconstruction of its *role*: a 4-process computation with
// one distinguished event per process (e, f, g, h) exhibiting each of the
// relations the figure illustrates — a consistent pair, an inconsistent
// pair, an independent (concurrent) pair and a dependent pair — each
// validated against the first-principles definition (existence of a
// consistent cut passing through both events) by lattice enumeration.
#include <gtest/gtest.h>

#include "clocks/vector_clock.h"
#include "computation/computation.h"
#include "lattice/explore.h"

namespace gpd {
namespace {

struct Figure2 {
  Computation comp;
  EventId e, f, g, h;
  VectorClocks clocks;

  Figure2(Computation c, EventId e_, EventId f_, EventId g_, EventId h_)
      : comp(std::move(c)), e(e_), f(f_), g(g_), h(h_), clocks(comp) {}

  static Figure2 make() {
    ComputationBuilder b(4);
    // p0: ⊥ e a      p1: ⊥ f      p2: ⊥ c g      p3: ⊥ h
    const EventId e = b.appendEvent(0);
    const EventId a = b.appendEvent(0);
    const EventId f = b.appendEvent(1);
    const EventId c = b.appendEvent(2);
    const EventId g = b.appendEvent(2);
    const EventId h = b.appendEvent(3);
    b.addMessage(e, f);  // e → f: dependent yet consistent
    b.addMessage(a, c);  // succ(e) = a → c ≺ g: e and g inconsistent
    b.addMessage(g, h);  // g → h
    return Figure2(std::move(b).build(), e, f, g, h);
  }
};

// First-principles pair consistency: some consistent cut passes through both.
bool consistentByEnumeration(const Figure2& fig, EventId x, EventId y) {
  return lattice::findSatisfyingCut(fig.clocks, [&](const Cut& cut) {
    return cut.passesThrough(x) && cut.passesThrough(y);
  }).witness.has_value();
}

TEST(Figure2Test, DependentPair) {
  const auto fig = Figure2::make();
  // e → f by message: ordered, hence not independent.
  EXPECT_TRUE(fig.clocks.precedes(fig.e, fig.f));
  EXPECT_FALSE(fig.clocks.concurrent(fig.e, fig.f));
}

TEST(Figure2Test, IndependentPair) {
  const auto fig = Figure2::make();
  // f and h share no causal path.
  EXPECT_TRUE(fig.clocks.concurrent(fig.f, fig.h));
}

TEST(Figure2Test, ConsistentPairDespiteOrdering) {
  const auto fig = Figure2::make();
  // e ≺ f, yet a cut can pass through both (ordered events can still be
  // consistent as long as succ(e) does not precede f).
  EXPECT_TRUE(fig.clocks.pairConsistent(fig.e, fig.f));
  EXPECT_TRUE(consistentByEnumeration(fig, fig.e, fig.f));
}

TEST(Figure2Test, InconsistentPair) {
  const auto fig = Figure2::make();
  // succ(e) = a ≺ g via the a→c message, so no cut passes through e and g.
  EXPECT_FALSE(fig.clocks.pairConsistent(fig.e, fig.g));
  EXPECT_FALSE(consistentByEnumeration(fig, fig.e, fig.g));
}

TEST(Figure2Test, InconsistencyImpliesOrdering) {
  // Paper Sec. 2.2: e, f inconsistent iff succ(e) ≤ f or succ(f) ≤ e; either
  // way the two events are causally ordered. Hence independent events are
  // always consistent.
  const auto fig = Figure2::make();
  const EventId events[] = {fig.e, fig.f, fig.g, fig.h};
  for (const EventId& x : events) {
    for (const EventId& y : events) {
      if (!fig.clocks.pairConsistent(x, y)) {
        EXPECT_TRUE(fig.clocks.leq(x, y) || fig.clocks.leq(y, x));
      }
      if (fig.clocks.concurrent(x, y)) {
        EXPECT_TRUE(fig.clocks.pairConsistent(x, y));
      }
    }
  }
}

TEST(Figure2Test, AllPairsMatchEnumeration) {
  const auto fig = Figure2::make();
  const EventId events[] = {fig.e, fig.f, fig.g, fig.h};
  for (const EventId& x : events) {
    for (const EventId& y : events) {
      EXPECT_EQ(fig.clocks.pairConsistent(x, y),
                consistentByEnumeration(fig, x, y))
          << "x=(" << x.process << "," << x.index << ") y=(" << y.process
          << "," << y.index << ")";
    }
  }
}

}  // namespace
}  // namespace gpd
