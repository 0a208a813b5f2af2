// gpd::par::Pool — fan-out/join semantics, worker-count clamping, reuse
// across runs, exception propagation to the caller, and GPD_THREADS
// resolution. The pool is the substrate of the parallel kernels' determinism
// contract, so run() must invoke every worker exactly once per call and
// surface worker failures instead of swallowing them.
#include "par/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace gpd::par {
namespace {

TEST(PoolTest, RunInvokesEveryWorkerExactlyOnce) {
  Pool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int w) { hits[static_cast<std::size_t>(w)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PoolTest, ThreadCountClampsToAtLeastOne) {
  Pool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  Pool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
  std::atomic<int> calls{0};
  pool.run([&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(PoolTest, PoolIsReusableAcrossManyRuns) {
  Pool pool(2);
  std::atomic<int> total{0};
  for (int i = 0; i < 100; ++i) {
    pool.run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(PoolTest, WorkerExceptionRethrowsOnTheCallingThread) {
  Pool pool(3);
  EXPECT_THROW(pool.run([](int w) {
                 if (w == 1) throw std::runtime_error("worker failure");
               }),
               std::runtime_error);
  // The failed run must not wedge the pool: later runs still fan out.
  std::atomic<int> total{0};
  pool.run([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

TEST(PoolTest, EnvThreadsParsesGpdThreads) {
  const char* saved = std::getenv("GPD_THREADS");
  const std::string restore = saved != nullptr ? saved : "";

  unsetenv("GPD_THREADS");
  EXPECT_EQ(envThreads(), 0);
  setenv("GPD_THREADS", "8", 1);
  EXPECT_EQ(envThreads(), 8);
  setenv("GPD_THREADS", "1", 1);
  EXPECT_EQ(envThreads(), 1);
  // The one number rule of util/number.h: an optional sign, then digits.
  setenv("GPD_THREADS", "+4", 1);
  EXPECT_EQ(envThreads(), 4);
  setenv("GPD_THREADS", "4x", 1);
  EXPECT_EQ(envThreads(), 0);
  // Everything non-positive, non-numeric, or absurd means "no pool".
  setenv("GPD_THREADS", "0", 1);
  EXPECT_EQ(envThreads(), 0);
  setenv("GPD_THREADS", "-2", 1);
  EXPECT_EQ(envThreads(), 0);
  setenv("GPD_THREADS", "abc", 1);
  EXPECT_EQ(envThreads(), 0);
  setenv("GPD_THREADS", "", 1);
  EXPECT_EQ(envThreads(), 0);
  setenv("GPD_THREADS", "4097", 1);
  EXPECT_EQ(envThreads(), 0);

  if (saved != nullptr) {
    setenv("GPD_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("GPD_THREADS");
  }
}

}  // namespace
}  // namespace gpd::par
