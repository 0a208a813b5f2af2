#include "io/trace_io.h"

#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "computation/random.h"
#include "predicates/random_trace.h"
#include "sim/workloads.h"
#include "util/check.h"

namespace gpd::io {
namespace {

TEST(TraceIoTest, RoundTripsStructureAndValues) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(4));
    opt.eventsPerProcess = static_cast<int>(rng.index(8));
    opt.messageProbability = 0.5;
    const Computation comp = randomComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomCounters(trace, "x", -2, 3, rng);
    defineRandomBools(trace, "flag", 0.4, rng);

    std::stringstream buffer;
    writeTrace(buffer, comp, trace);
    const TraceFile loaded = readTrace(buffer);

    ASSERT_EQ(loaded.computation->processCount(), comp.processCount());
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      ASSERT_EQ(loaded.computation->eventCount(p), comp.eventCount(p));
      EXPECT_EQ(loaded.trace->variableNames(p), trace.variableNames(p));
      for (const auto& name : trace.variableNames(p)) {
        for (int i = 0; i < comp.eventCount(p); ++i) {
          EXPECT_EQ(loaded.trace->value(p, name, i), trace.value(p, name, i));
        }
      }
    }
    EXPECT_EQ(loaded.computation->messages(), comp.messages());
  }
}

TEST(TraceIoTest, RoundTripsWorkloadTrace) {
  sim::TokenRingOptions opt;
  opt.processes = 4;
  opt.rounds = 2;
  const sim::SimResult run = sim::tokenRing(opt);
  std::stringstream buffer;
  writeTrace(buffer, *run.computation, *run.trace);
  const TraceFile loaded = readTrace(buffer);
  EXPECT_EQ(loaded.computation->messages(), run.computation->messages());
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(loaded.trace->has(p, "cs"));
    EXPECT_TRUE(loaded.trace->has(p, "tokens"));
  }
}

TEST(TraceIoTest, RejectsBadMagic) {
  std::stringstream buffer("not-a-trace 1\n");
  EXPECT_THROW(readTrace(buffer), InputError);
}

TEST(TraceIoTest, RejectsWrongVersion) {
  std::stringstream buffer("gpd-trace 99\nprocesses 1\nevents 1\nend\n");
  EXPECT_THROW(readTrace(buffer), InputError);
}

TEST(TraceIoTest, RejectsTruncatedStream) {
  std::stringstream buffer("gpd-trace 1\nprocesses 2\nevents 2 2\n");
  EXPECT_THROW(readTrace(buffer), InputError);  // missing 'end'
}

TEST(TraceIoTest, RejectsUnknownKeyword) {
  std::stringstream buffer(
      "gpd-trace 1\nprocesses 1\nevents 1\nbogus 1 2 3\nend\n");
  EXPECT_THROW(readTrace(buffer), InputError);
}

// readTrace raises the parser's first fault, prefixed with its line.
TEST(TraceIoTest, FaultsAreLineNumbered) {
  const auto faultOf = [](const std::string& text) -> std::string {
    std::istringstream is(text);
    try {
      (void)readTrace(is);
    } catch (const InputError& e) {
      return e.what();
    }
    return "<accepted>";
  };
  EXPECT_EQ(faultOf("gpd-trace 1\nprocesses 2\nevents 2 2\n"
                    "message 0 1 1 1 7\nmessage 0 9 1 1\nend\n"),
            "line 4: unexpected trailing '7'");
  EXPECT_EQ(faultOf("gpd-trace 1\nprocesses 2\nevents 2 2\n"
                    "var 0 x 0 -\nend\n"),
            "line 4: '-' is not an integer (var value)");
  EXPECT_EQ(faultOf("gpd-trace 1\nprocesses 2\nevents 2 2\n\n"),
            "line 4: truncated trace: missing 'end'");
  EXPECT_EQ(faultOf(""), "line 1: truncated trace: missing header");
}

// The recovering sink sees every faulty line, not only the first.
TEST(TraceIoTest, ParseTraceReportsEveryFaultToItsSink) {
  std::istringstream is(
      "gpd-trace 1\nprocesses 2\nevents 2 2\n"
      "message 9 1 1 1\nmessage 0 1 1 1\nvar 0 x 0\nend\n");
  std::vector<TraceFault> faults;
  const ParsedTrace parsed =
      parseTrace(is, [&](const TraceFault& f) { faults.push_back(f); });
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_STREQ(faults[0].code, "E105");
  EXPECT_EQ(faults[0].line, 4);
  EXPECT_EQ(faults[0].message, "send process 9 out of range [0, 1]");
  EXPECT_STREQ(faults[1].code, "E106");
  EXPECT_EQ(faults[1].line, 6);
  EXPECT_EQ(faults[1].message, "missing var value");
  ASSERT_EQ(parsed.messages.size(), 1u);
  EXPECT_EQ(parsed.messages[0].line, 5);
  EXPECT_TRUE(parsed.variables.empty());
}

TEST(TraceIoTest, RejectsCyclicMessages) {
  std::stringstream buffer(
      "gpd-trace 1\nprocesses 2\nevents 3 3\n"
      "message 0 2 1 1\nmessage 1 2 0 1\nend\n");
  try {
    (void)readTrace(buffer);
    ADD_FAILURE() << "cyclic trace accepted";
  } catch (const InputError& e) {
    EXPECT_STREQ(e.what(), "trace describes a cyclic computation");
  }
}

TEST(TraceIoTest, RejectsVarOnUnknownProcess) {
  std::stringstream buffer(
      "gpd-trace 1\nprocesses 1\nevents 2\nvar 4 x 0 0\nend\n");
  EXPECT_THROW(readTrace(buffer), InputError);
}

TEST(TraceIoTest, RejectsUnserializableVarName) {
  ComputationBuilder b(1);
  const Computation comp = std::move(b).build();
  VariableTrace trace(comp);
  trace.define(0, "has space", {0});
  std::stringstream buffer;
  EXPECT_THROW(writeTrace(buffer, comp, trace), CheckFailure);
}

TEST(TraceIoTest, FileRoundTrip) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation comp = std::move(b).build();
  VariableTrace trace(comp);
  trace.define(0, "x", {1, 2});
  trace.define(1, "y", {-7});
  const std::string path = "/tmp/gpd_trace_io_test.trace";
  saveTrace(path, comp, trace);
  const TraceFile loaded = loadTrace(path);
  EXPECT_EQ(loaded.trace->value(0, "x", 1), 2);
  EXPECT_EQ(loaded.trace->value(1, "y", 0), -7);
  EXPECT_THROW(loadTrace("/tmp/definitely_missing_gpd_trace"), InputError);
}

}  // namespace
}  // namespace gpd::io
