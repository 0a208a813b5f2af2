// End-to-end exit-code taxonomy of the gpdtool CLI and the gpdd server,
// exercised by spawning the real binaries (paths injected by CMake as
// GPDTOOL_PATH / GPDD_PATH):
//
//   0 — ran fine; for detect, the predicate was decided either way
//   1 — bad input (usage, malformed arguments, unreadable trace; for gpdd:
//       bad flags, unbindable socket, corrupt recovery manifest,
//       strict-mode protocol violation)
//   2 — internal failure (a library invariant broke: gpd::CheckFailure)
//   3 — budget exhausted before an answer (detect verdict "unknown")
//
// Scripts branching on these codes (CI gates, bisection drivers, the soak
// harness's restart logic) rely on "unknown" being distinguishable from
// both "no" (0) and crashes (2), and on gpdd treating operator error (1)
// differently from engine bugs (2).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/wait.h>

#include "service/frame.h"
#include "temp_path.h"

namespace gpd {
namespace {

std::string tracePath() { return uniqueTempPath("gpd_cli_exit_test.trace"); }

// Runs gpdtool with `args`, its output sent to `out`, and returns its exit
// code.
int runTool(const std::string& args, const std::string& out = "/dev/null") {
  const std::string cmd =
      std::string(GPDTOOL_PATH) + " " + args + " > " + out + " 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "failed to spawn " << cmd;
  EXPECT_TRUE(WIFEXITED(status)) << "gpdtool killed by signal: " << cmd;
  return WEXITSTATUS(status);
}

// Runs gpdtool with `args` and returns its standard output.
std::string toolOutput(const std::string& args) {
  const std::string out = uniqueTempPath("gpd_cli_exit_test.out");
  EXPECT_EQ(runTool(args, out), 0) << args;
  std::ifstream is(out);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  std::remove(out.c_str());
  return text;
}

std::string writeTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = uniqueTempPath(name);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  return path;
}

class CliExitTest : public ::testing::Test {
 protected:
  // One shared trace for the suite: the `random` workload defines a boolean
  // "b" and a counter "x" on 5 processes (deterministic under the seed).
  static void SetUpTestSuite() {
    ASSERT_EQ(runTool("generate random " + tracePath() + " 7"), 0);
  }
  static void TearDownTestSuite() { std::remove(tracePath().c_str()); }
};

TEST_F(CliExitTest, DecidedDetectExitsZero) {
  EXPECT_EQ(runTool("detect " + tracePath() + " conj 0:b"), 0);
  EXPECT_EQ(runTool("detect " + tracePath() + " sum ge 0 x"), 0);
  // A budgeted run that still decides exits 0 as well.
  EXPECT_EQ(
      runTool("detect " + tracePath() + " conj --budget-ms 60000 0:b 1:b"), 0);
}

// definitely on a CNF runs the lattice search; a "no" prints the run that
// avoids the predicate, a "yes" prints none.
TEST_F(CliExitTest, DefinitelyNoPrintsItsAvoidingRun) {
  const std::string no =
      toolOutput("detect " + tracePath() + " cnf --definitely 0:b 1:b");
  EXPECT_NE(no.find("definitely: does not hold  [lattice-definitely]"),
            std::string::npos)
      << no;
  EXPECT_NE(no.find("avoiding run (61 cuts): [0 0 0 0 0] "), std::string::npos)
      << no;
  const std::string yes = toolOutput("detect " + tracePath() +
                                     " cnf --definitely 0:b,1:b 2:b,3:b");
  EXPECT_NE(yes.find("definitely: holds  [lattice-definitely]"),
            std::string::npos)
      << yes;
  EXPECT_EQ(yes.find("avoiding run"), std::string::npos) << yes;
  EXPECT_EQ(runTool("detect " + tracePath() +
                    " cnf --definitely --max-cuts 1 0:b,1:b 2:b,3:b"),
            3);
}

TEST_F(CliExitTest, BadInputExitsOne) {
  EXPECT_EQ(runTool(""), 1);  // usage
  EXPECT_EQ(runTool("detect /nonexistent/gpd.trace conj 0:b"), 1);
  EXPECT_EQ(runTool("detect " + tracePath() + " conj not-a-literal"), 1);
  EXPECT_EQ(runTool("detect " + tracePath() + " sum ge 0 nosuchvar"), 1);
  // Budget values must be positive integers.
  EXPECT_EQ(runTool("detect " + tracePath() + " conj --max-cuts 0 0:b"), 1);
  EXPECT_EQ(runTool("detect " + tracePath() + " conj --budget-ms x 0:b"), 1);
  // Numbers are range-checked before they are narrowed: process 2^32 is not
  // process 0, and exactly:99 of 5 variables is bad input, not a failed
  // invariant.
  EXPECT_EQ(runTool("detect " + tracePath() + " conj 4294967296:b"), 1);
  EXPECT_EQ(runTool("detect " + tracePath() + " sym exactly:99 x"), 1);
  // CNF literals are checked against the trace like conjunctive terms: a
  // process past the trace's 5, or a variable it does not carry.
  EXPECT_EQ(runTool("detect " + tracePath() + " cnf 9:b"), 1);
  EXPECT_EQ(runTool("detect " + tracePath() + " cnf 0:nosuch,1:b"), 1);
  EXPECT_EQ(runTool("plan " + tracePath() + " cnf 9:b"), 1);
  EXPECT_EQ(runTool("plan " + tracePath() + " cnf 0:nosuch,1:b"), 1);
}

// Sums whose arithmetic would overflow int64 are bad input (exit 1), not a
// wrapped verdict and not an internal failure.
TEST_F(CliExitTest, OverflowingSumTraceExitsOne) {
  const std::string stepOverflow = writeTempFile(
      "gpd_cli_exit_step_overflow.trace",
      "gpd-trace 1\nprocesses 1\nevents 3\n"
      "var 0 x 0 9223372036854775807 -9223372036854775808\nend\n");
  const std::string totalOverflow = writeTempFile(
      "gpd_cli_exit_total_overflow.trace",
      "gpd-trace 1\nprocesses 2\nevents 2 2\n"
      "var 0 x 0 6000000000000000000\nvar 1 x 0 6000000000000000000\nend\n");
  for (const std::string& path : {stepOverflow, totalOverflow}) {
    EXPECT_EQ(runTool("detect " + path + " sum ge 3 x"), 1) << path;
    EXPECT_EQ(runTool("detect " + path + " sum eq 3 x"), 1) << path;
    std::remove(path.c_str());
  }
}

TEST_F(CliExitTest, InternalInvariantFailureExitsTwo) {
  // Two conjunctive terms on the same process violate a CPDHB precondition:
  // a CheckFailure, reported as an internal error, distinct from bad input.
  EXPECT_EQ(runTool("detect " + tracePath() + " conj 0:b 0:b"), 2);
}

TEST_F(CliExitTest, BudgetExhaustedUnknownExitsThree) {
  // (0:b) ∧ (0:¬b) is non-singular (process 0 twice), so the planner routes
  // to lattice enumeration; it is also unsatisfiable at every cut, so under
  // --max-cuts 1 the search trips before it can prove "no" → unknown.
  EXPECT_EQ(
      runTool("detect " + tracePath() + " cnf --max-cuts 1 0:b 0:!b"), 3);
  // The same query with room to finish proves the exact "no" and exits 0.
  EXPECT_EQ(
      runTool("detect " + tracePath() + " cnf --max-cuts 2000000 0:b 0:!b"),
      0);
}

// ---- gpdd server mode ----

// Runs gpdd with `args`, stdin redirected from `stdinPath` (or /dev/null),
// and returns its exit code. Every spawn here terminates on its own: either
// the flags are rejected up front or stdin reaches EOF and the server
// drains.
int runServer(const std::string& args, const std::string& stdinPath = "") {
  const std::string in = stdinPath.empty() ? "/dev/null" : stdinPath;
  const std::string cmd = std::string(GPDD_PATH) + " " + args + " < " + in +
                          " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "failed to spawn " << cmd;
  EXPECT_TRUE(WIFEXITED(status)) << "gpdd killed by signal: " << cmd;
  return WEXITSTATUS(status);
}

TEST(GpddExitTest, CleanFramedSessionExitsZero) {
  std::string wire;
  wire += service::encodeFrame("OPEN t s 2");
  wire += service::encodeFrame("EV t s 0 0 1 0");
  wire += service::encodeFrame("EV t s 1 0 0 1");
  wire += service::encodeFrame("CLOSE t s");
  wire += service::encodeFrame("SHUTDOWN");
  const std::string in = writeTempFile("gpdd_exit_clean.bin", wire);
  EXPECT_EQ(runServer("", in), 0);
  // EOF without SHUTDOWN drains too.
  EXPECT_EQ(runServer(""), 0);
}

TEST(GpddExitTest, BadFlagsExitOne) {
  EXPECT_EQ(runServer("--frobnicate"), 1);
  EXPECT_EQ(runServer("--threads"), 1);            // missing value
  EXPECT_EQ(runServer("--shards zero"), 1);        // not an integer
  EXPECT_EQ(runServer("--max-sessions -1"), 1);    // negative count
  EXPECT_EQ(runServer("--idle-pumps -5"), 1);      // negative count
  EXPECT_EQ(runServer("--recover"), 1);            // needs --checkpoint
  EXPECT_EQ(runServer("--checkpoint-every 5"), 1); // needs --checkpoint
}

TEST(GpddExitTest, UnbindableSocketExitsOne) {
  EXPECT_EQ(runServer("--socket /nonexistent-dir/sub/gpdd.sock"), 1);
}

TEST(GpddExitTest, CorruptRecoveryManifestExitsOne) {
  const std::string bad =
      writeTempFile("gpdd_exit_bad.manifest", "not a manifest at all\n");
  EXPECT_EQ(runServer("--checkpoint " + bad + " --recover"), 1);
  EXPECT_EQ(runServer("--checkpoint /nonexistent/gpdd.manifest --recover"),
            1);
}

TEST(GpddExitTest, StrictProtoViolationExitsOne) {
  const std::string garbage =
      writeTempFile("gpdd_exit_garbage.bin", "line noise, not a frame\n");
  EXPECT_EQ(runServer("--strict-proto", garbage), 1);
  // The same bytes without --strict-proto are resynced over: exit 0.
  EXPECT_EQ(runServer("", garbage), 0);
}

// In-protocol errors (bad commands inside intact frames) are answered with
// ERR frames, not exit codes: the server must still exit 0.
TEST(GpddExitTest, ProtocolErrorsAreNotFatal) {
  std::string wire;
  wire += service::encodeFrame("FROB x y");
  wire += service::encodeFrame("EV ghost s 0 0 1 1");
  wire += service::encodeFrame("SHUTDOWN");
  const std::string in = writeTempFile("gpdd_exit_err.bin", wire);
  EXPECT_EQ(runServer("", in), 0);
}

}  // namespace
}  // namespace gpd
