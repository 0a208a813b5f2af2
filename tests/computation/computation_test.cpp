#include "computation/computation.h"

#include <gtest/gtest.h>

#include <string>

#include "computation/random.h"
#include "util/check.h"
#include "util/rng.h"

namespace gpd {
namespace {

// p0: ⊥ e1 e2 ; p1: ⊥ f1 ; message e1 -> f1.
Computation tinyComputation() {
  ComputationBuilder b(2);
  const EventId e1 = b.appendEvent(0);
  b.appendEvent(0);
  const EventId f1 = b.appendEvent(1);
  b.addMessage(e1, f1);
  return std::move(b).build();
}

TEST(ComputationTest, CountsIncludeInitialEvents) {
  const Computation c = tinyComputation();
  EXPECT_EQ(c.processCount(), 2);
  EXPECT_EQ(c.eventCount(0), 3);
  EXPECT_EQ(c.eventCount(1), 2);
  EXPECT_EQ(c.totalEvents(), 5);
}

TEST(ComputationTest, NodeNumberingRoundTrips) {
  const Computation c = tinyComputation();
  for (ProcessId p = 0; p < c.processCount(); ++p) {
    for (int i = 0; i < c.eventCount(p); ++i) {
      const EventId e{p, i};
      EXPECT_EQ(c.event(c.node(e)), e);
    }
  }
}

TEST(ComputationTest, KindsDerivedFromMessages) {
  const Computation c = tinyComputation();
  EXPECT_EQ(c.kind({0, 0}), EventKind::Initial);
  EXPECT_EQ(c.kind({0, 1}), EventKind::Send);
  EXPECT_EQ(c.kind({0, 2}), EventKind::Internal);
  EXPECT_EQ(c.kind({1, 1}), EventKind::Receive);
}

TEST(ComputationTest, SendReceiveEventAllowed) {
  // p1's event both receives from p0 and sends to p2.
  ComputationBuilder b(3);
  const EventId s = b.appendEvent(0);
  const EventId mid = b.appendEvent(1);
  const EventId r = b.appendEvent(2);
  b.addMessage(s, mid);
  b.addMessage(mid, r);
  const Computation c = std::move(b).build();
  EXPECT_EQ(c.kind(mid), EventKind::SendReceive);
}

TEST(ComputationTest, MessageEndpointsRecorded) {
  const Computation c = tinyComputation();
  ASSERT_EQ(c.messages().size(), 1u);
  EXPECT_EQ(c.messages()[0].send, (EventId{0, 1}));
  EXPECT_EQ(c.messages()[0].receive, (EventId{1, 1}));
  EXPECT_EQ(c.outgoingMessages({0, 1}).size(), 1u);
  EXPECT_EQ(c.incomingMessages({1, 1}).size(), 1u);
}

TEST(ComputationTest, DagHasProcessAndMessageEdges) {
  const Computation c = tinyComputation();
  const graph::Dag g = c.toDagWithoutInitialEdges();
  // 3 process edges (p0: 2, p1: 1) + 1 message edge.
  EXPECT_EQ(g.edgeCount(), 4);
  EXPECT_TRUE(g.isAcyclic());
}

TEST(ComputationTest, FullDagAddsInitialPrecedence) {
  const Computation c = tinyComputation();
  const graph::Dag g = c.toDag();
  // + ⊥0→f1 and ⊥1→e1.
  EXPECT_EQ(g.edgeCount(), 6);
  const graph::Reachability reach(g);
  EXPECT_TRUE(reach.reaches(c.node({0, 0}), c.node({1, 1})));
  EXPECT_TRUE(reach.reaches(c.node({1, 0}), c.node({0, 1})));
  EXPECT_FALSE(reach.reaches(c.node({1, 0}), c.node({0, 0})));
}

// Messages from lower to higher event indices (so acyclic), where one event
// may send several and they are added in random order: the order's
// message-index tie-break matters here.
Computation multiSendComputation(Rng& rng) {
  const int procs = static_cast<int>(rng.uniform(2, 5));
  const int events = static_cast<int>(rng.uniform(1, 8));
  ComputationBuilder b(procs);
  for (ProcessId p = 0; p < procs; ++p) {
    for (int i = 0; i < events; ++i) b.appendEvent(p);
  }
  const int messages = static_cast<int>(rng.uniform(0, procs * events));
  for (int k = 0; k < messages; ++k) {
    const ProcessId p = static_cast<ProcessId>(rng.index(procs));
    const ProcessId q = (p + 1 + static_cast<ProcessId>(rng.index(procs - 1))) % procs;
    const int i = static_cast<int>(rng.uniform(1, events));
    const int j = static_cast<int>(rng.uniform(1, events));
    if (i < j) b.addMessage({p, i}, {q, j});
  }
  return std::move(b).build();
}

// The builder's stored order is the one graph::Dag's Kahn pass gives on the
// happened-before DAG: the clocks and the Theorem 4 walk depend on it.
TEST(ComputationTest, StoredTopologicalOrderMatchesDagKahn) {
  for (int trial = 0; trial < 200; ++trial) {
    Rng rng(9100 + static_cast<std::uint64_t>(trial));
    RandomComputationOptions opt;
    opt.processes = static_cast<int>(rng.uniform(1, 6));
    opt.eventsPerProcess = static_cast<int>(rng.uniform(0, 10));
    opt.messageProbability = rng.real();
    opt.allowSendReceive = trial % 3 != 0;
    for (const Computation& c :
         {randomComputation(opt, rng), multiSendComputation(rng)}) {
      const auto expected = c.toDagWithoutInitialEdges().topologicalOrder();
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(c.topologicalOrder(), *expected) << "trial " << trial;
    }
  }
}

TEST(ComputationBuilderTest, RejectsCausalCycle) {
  ComputationBuilder b(2);
  const EventId a1 = b.appendEvent(0);
  const EventId a2 = b.appendEvent(0);
  const EventId b1 = b.appendEvent(1);
  const EventId b2 = b.appendEvent(1);
  b.addMessage(a2, b1);  // a2 -> b1
  b.addMessage(b2, a1);  // b2 -> a1: cycle a1 < a2 < b1 < b2 < a1
  try {
    (void)std::move(b).build();
    ADD_FAILURE() << "cyclic computation accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("message edges create a causal cycle"),
              std::string::npos)
        << e.what();
  }
}

TEST(ComputationBuilderTest, RejectsInitialEventMessages) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  EXPECT_THROW(b.addMessage({0, 0}, {1, 1}), CheckFailure);
}

TEST(ComputationBuilderTest, RejectsIntraProcessMessage) {
  ComputationBuilder b(2);
  const EventId a1 = b.appendEvent(0);
  const EventId a2 = b.appendEvent(0);
  EXPECT_THROW(b.addMessage(a1, a2), CheckFailure);
}

TEST(ComputationBuilderTest, MinimalComputationIsJustInitials) {
  ComputationBuilder b(3);
  const Computation c = std::move(b).build();
  EXPECT_EQ(c.totalEvents(), 3);
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.kind({p, 0}), EventKind::Initial);
}

}  // namespace
}  // namespace gpd
