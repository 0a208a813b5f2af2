// Scratch file paths for tests that write files or spawn tools that do.
//
// gtest_discover_tests registers every test case with ctest separately, so
// `ctest -j` runs cases of one binary as concurrent processes. A fixed name
// under ::testing::TempDir() is then shared between them, and one case
// truncates or removes another's file mid-run. Keying the path by process
// id keeps each case's files its own.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace gpd {

// ::testing::TempDir() + "<pid>_" + name: unique to this process, stable
// for its lifetime (a forked child must reuse the parent's value, not
// recompute it).
inline std::string uniqueTempPath(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

}  // namespace gpd
