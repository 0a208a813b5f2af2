// End-to-end tests of the srclint analyzer, exercised by spawning the real
// binary (SRCLINT_PATH, injected by CMake) over the fixture files in
// tests/srclint/fixtures (SRCLINT_FIXTURES).
//
// Contract under test, per DESIGN.md §14:
//   - every check fires on its bad fixture (exit 1, check name in output)
//     and stays silent on the good twin (exit 0, empty output);
//   - `// srclint: allow(<check>)` silences a finding on its own line and
//     the next — counted in --stats, exit stays 0;
//   - an unknown check name inside allow(), or a malformed srclint: control
//     comment, is itself a diagnostic (code srclint-allow);
//   - exit taxonomy: 0 clean, 1 findings, 2 bad input/usage.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "temp_path.h"

namespace gpd {
namespace {

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr, interleaved
};

// Runs srclint with `args`, capturing combined output. The capture file is
// keyed by pid: ctest runs each discovered test as its own process, and a
// shared path would race (one process truncating or removing the file while
// another reads it back).
RunResult runLint(const std::string& args) {
  const std::string outPath = uniqueTempPath("srclint_test_out.txt");
  const std::string cmd = std::string(SRCLINT_PATH) + " " + args + " > " +
                          outPath + " 2>&1";
  const int status = std::system(cmd.c_str());
  RunResult r;
  EXPECT_NE(status, -1) << "failed to spawn " << cmd;
  EXPECT_TRUE(WIFEXITED(status)) << "srclint killed by signal: " << cmd;
  r.exitCode = WEXITSTATUS(status);
  std::ifstream in(outPath);
  std::ostringstream buf;
  buf << in.rdbuf();
  r.output = buf.str();
  std::remove(outPath.c_str());
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(SRCLINT_FIXTURES) + "/" + name;
}

// One firing fixture and one silent twin per check.
struct CheckFixture {
  const char* check;
  const char* bad;
  const char* good;
};

const CheckFixture kCheckFixtures[] = {
    {"gpd-budget-charge", "src/detect/budget_bad.cpp",
     "src/detect/budget_good.cpp"},
    {"gpd-budget-charge", "src/detect/scan_bad.cpp",
     "src/detect/scan_good.cpp"},
    {"gpd-budget-charge", "src/detect/slice_bad.cpp",
     "src/detect/slice_good.cpp"},
    {"gpd-budget-charge", "src/lattice/level_bad.cpp",
     "src/lattice/level_good.cpp"},
    {"gpd-clock-discipline", "clock_bad.cpp", "clock_good.cpp"},
    {"gpd-span-raii", "span_bad.cpp", "span_good.cpp"},
    {"gpd-pool-capture", "pool_bad.cpp", "pool_good.cpp"},
    {"gpd-checkpoint-symmetry", "ckpt_bad.cpp", "ckpt_good.cpp"},
    {"gpd-checkpoint-symmetry", "ckpt_apply_bad.cpp", "ckpt_apply_good.cpp"},
    {"gpd-checkpoint-symmetry", "ckpt_parse_bad.cpp", "ckpt_parse_good.cpp"},
    {"gpd-log-discipline", "src/service/log_bad.cpp",
     "src/service/log_good.cpp"},
};

TEST(SrclintChecks, EveryCheckFiresOnItsBadFixture) {
  for (const CheckFixture& cf : kCheckFixtures) {
    const RunResult r = runLint(fixture(cf.bad));
    EXPECT_EQ(r.exitCode, 1) << cf.check << " did not fire on " << cf.bad
                             << "\n" << r.output;
    EXPECT_NE(r.output.find(cf.check), std::string::npos)
        << cf.check << " missing from output for " << cf.bad << "\n"
        << r.output;
  }
}

TEST(SrclintChecks, EveryCheckIsSilentOnTheGoodTwin) {
  for (const CheckFixture& cf : kCheckFixtures) {
    const RunResult r = runLint(fixture(cf.good));
    EXPECT_EQ(r.exitCode, 0) << cf.check << " misfired on " << cf.good
                             << "\n" << r.output;
    EXPECT_TRUE(r.output.empty()) << r.output;
  }
}

TEST(SrclintChecks, CheckFilterRestrictsTheRun) {
  // The clock fixture is dirty, but only the span check is enabled.
  const RunResult r =
      runLint("--checks gpd-span-raii " + fixture("clock_bad.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(SrclintChecks, JsonOutputCarriesFileAndCode) {
  const RunResult r = runLint("-f json " + fixture("clock_bad.cpp"));
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("\"code\": \"gpd-clock-discipline\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("clock_bad.cpp"), std::string::npos) << r.output;
}

TEST(SrclintSuppression, AllowedFindingExitsZeroButCountsInStats) {
  const RunResult r = runLint("--stats " + fixture("allow_ok.cpp"));
  EXPECT_EQ(r.exitCode, 0) << r.output;
  // The finding is still counted: 1 found, 1 allowed.
  EXPECT_NE(r.output.find("gpd-clock-discipline: 1 finding(s), 1 allowed"),
            std::string::npos)
      << r.output;
}

TEST(SrclintSuppression, UnknownCheckNameInAllowIsADiagnostic) {
  const RunResult r = runLint(fixture("allow_unknown.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("srclint-allow"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("gpd-no-such-check"), std::string::npos) << r.output;
}

TEST(SrclintSuppression, MalformedControlCommentIsADiagnostic) {
  const RunResult r = runLint(fixture("allow_malformed.cpp"));
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("srclint-allow"), std::string::npos) << r.output;
}

TEST(SrclintCli, ListChecksNamesEveryCheck) {
  const RunResult r = runLint("--list-checks");
  EXPECT_EQ(r.exitCode, 0);
  for (const CheckFixture& cf : kCheckFixtures) {
    EXPECT_NE(r.output.find(cf.check), std::string::npos) << r.output;
  }
}

TEST(SrclintCli, UsageErrorsExitTwo) {
  EXPECT_EQ(runLint("").exitCode, 2);                        // no inputs
  EXPECT_EQ(runLint("--checks no-such-check .").exitCode, 2);
  EXPECT_EQ(runLint("-f yaml .").exitCode, 2);
  EXPECT_EQ(runLint("/nonexistent/gpd-src").exitCode, 2);
}

TEST(SrclintCli, DirectoryScanCoversBothFixtureTrees) {
  // Scanning the whole fixtures directory finds every bad fixture at once;
  // the per-check stats line proves each check ran (and only allow_ok.cpp's
  // finding was suppressed).
  const RunResult r = runLint("--stats " + std::string(SRCLINT_FIXTURES));
  EXPECT_EQ(r.exitCode, 1);
  // clock_bad.cpp + allow_ok.cpp = 2 found, 1 allowed.
  EXPECT_NE(r.output.find("gpd-clock-discipline: 2 finding(s), 1 allowed"),
            std::string::npos)
      << r.output;
  for (const CheckFixture& cf : kCheckFixtures) {
    EXPECT_EQ(r.output.find(std::string(cf.check) + ": 0 finding(s)"),
              std::string::npos)
        << cf.check << " found nothing across the fixture tree\n" << r.output;
  }
}

}  // namespace
}  // namespace gpd
