// Execution budgets and cooperative cancellation for the NP-hard detectors.
//
// Theorem 1 makes possibly(φ) NP-complete already for singular 2-CNF, and
// the planner (analyze/plan.h) can predict Π cⱼ / kᵐ CPDHB-invocation
// blowups — but prediction alone does not stop a detector that has already
// started. A Budget bounds the work a super-polynomial kernel may perform
// (wall-clock deadline, visited consistent cuts, CPDHB invocations /
// enumeration combinations, live BFS frontier bytes) and a CancelToken lets
// another thread request a cooperative stop. Every exponential kernel
// (lattice exploration, the Sec. 3.3 enumerations, DNF decomposition, DPLL)
// charges the budget as it works and exits early — with an explicit
// three-valued Unknown, never a wrong answer — once any limit trips.
//
// Soundness: budget exhaustion can only *widen* Unknown. A kernel that
// stops early has examined a subset of the search space, so a witness it
// found is still a genuine witness (Yes stays Yes) and "no witness found"
// degrades from No to Unknown; no code path flips Yes to No or vice versa.
//
// Amortization: counter limits are checked on every charge (one integer
// compare). For cut charges the steady_clock read and the CancelToken load
// are amortized to every kPollPeriod charges; combination charges observe
// cancellation every time (one relaxed atomic load) and amortize only the
// clock read. A cut charge is a latched-state load, a limit test and two
// relaxed atomic adds (the cut counter and the shared poll counter); the
// lattice BFS prepays its cuts in batches of kPollPeriod (chargeCuts), so
// neither a sequential scan nor pool workers sharing one Budget pay that
// per cut (bench_budget, experiment A9).
//
// Header-only on purpose: every module that meters work (lattice,
// predicates, detect, sat, service) includes it, and src/control builds
// no library of its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace gpd::control {

// Cooperative cancellation flag, safe to share across threads. The owner
// calls requestCancel(); budgeted kernels observe it on their next
// amortized poll and stop with StopReason::Cancelled.
class CancelToken {
 public:
  void requestCancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelRequested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// Why a budgeted run stopped early; None while the budget is intact.
enum class StopReason : std::uint8_t {
  None,              // budget not exhausted
  Deadline,          // wall-clock deadline passed
  CutLimit,          // maxCuts consistent cuts visited
  CombinationLimit,  // maxCombinations CPDHB invocations / DPLL decisions
  FrontierLimit,     // live BFS frontier exceeded maxFrontierBytes
  Cancelled,         // CancelToken fired
};

inline const char* toString(StopReason r) {
  switch (r) {
    case StopReason::None:
      return "none";
    case StopReason::Deadline:
      return "deadline";
    case StopReason::CutLimit:
      return "cut-limit";
    case StopReason::CombinationLimit:
      return "combination-limit";
    case StopReason::FrontierLimit:
      return "frontier-limit";
    case StopReason::Cancelled:
      return "cancelled";
  }
  return "unknown";
}

// Limits; 0 means "unlimited" for every field.
struct BudgetLimits {
  std::uint64_t deadlineMillis = 0;    // wall-clock budget from construction
  std::uint64_t maxCuts = 0;           // consistent cuts visited/expanded
  std::uint64_t maxCombinations = 0;   // CPDHB invocations, DNF terms, DPLL decisions
  std::uint64_t maxFrontierBytes = 0;  // live lattice-BFS frontier memory

  bool unlimited() const {
    return deadlineMillis == 0 && maxCuts == 0 && maxCombinations == 0 &&
           maxFrontierBytes == 0;
  }
};

// How far a budgeted run got — carried into Unknown results so the caller
// can see the work performed before the stop.
struct BudgetProgress {
  std::uint64_t cutsVisited = 0;
  std::uint64_t combinationsTried = 0;
  std::uint64_t peakFrontierBytes = 0;
};

// A mutable work meter shared by every kernel of one detection call —
// including the par::Pool workers of a parallel kernel, which charge one
// shared Budget concurrently. Every counter is a relaxed atomic and
// exhaustion latches exactly once via CAS: the first limit to trip wins,
// every further charge (from any thread) fails immediately, and reason()
// reports that single first cause. The amortized deadline/cancel polls
// (every kPollPeriod cut charges, every kCombinationPollPeriod combination
// charges) stay amortized under concurrency: the poll counters are shared
// atomics, so N workers still produce one clock read per period of
// *aggregate* charges, not one per worker per period.
class Budget {
 public:
  // Deadline/cancel are polled once every kPollPeriod amortized cut
  // charges (and keepGoing calls).
  static constexpr std::uint32_t kPollPeriod = 64;

  // Unlimited budget: charges never fail, progress is still counted.
  Budget() = default;

  // The deadline is anchored on steadyNowNanos() (util/stopwatch.h) — the
  // same steady clock the obs tracer and the benches read, so "now" means
  // one thing everywhere. Each genuine clock read (here and in the
  // amortized polls) bumps the budget_clock_reads counter.
  explicit Budget(const BudgetLimits& limits, const CancelToken* cancel = nullptr)
      : limits_(limits), cancel_(cancel) {
    if (limits.deadlineMillis != 0) {
      GPD_OBS_COUNTER_ADD("budget_clock_reads", 1);
      deadlineNs_ = steadyNowNanos() + limits.deadlineMillis * 1000000ull;
    }
  }

  const BudgetLimits& limits() const { return limits_; }
  // Snapshot of the work performed so far (by value: the live counters are
  // atomics shared with any pool workers still charging).
  BudgetProgress progress() const {
    BudgetProgress p;
    p.cutsVisited = cutsVisited_.load(std::memory_order_relaxed);
    p.combinationsTried = combinationsTried_.load(std::memory_order_relaxed);
    p.peakFrontierBytes = peakFrontierBytes_.load(std::memory_order_relaxed);
    return p;
  }
  bool exhausted() const {
    return reason_.load(std::memory_order_relaxed) != StopReason::None;
  }
  StopReason reason() const {
    return reason_.load(std::memory_order_relaxed);
  }

  // True when some limit other than maxCombinations can stop a lattice
  // exploration (which charges cuts, not combinations). The degradation
  // walk refuses to fall through to an exhaustive lattice step once a
  // cheaper step was skipped for cost unless this holds — otherwise the
  // fallback could run unboundedly under a combinations-only budget.
  bool canBoundExploration() const {
    return limits_.deadlineMillis != 0 || limits_.maxCuts != 0 ||
           limits_.maxFrontierBytes != 0 || cancel_ != nullptr;
  }

  // Remaining combination headroom; UINT64_MAX when unlimited.
  std::uint64_t remainingCombinations() const {
    if (limits_.maxCombinations == 0) return UINT64_MAX;
    const std::uint64_t tried =
        combinationsTried_.load(std::memory_order_relaxed);
    if (tried >= limits_.maxCombinations) return 0;
    return limits_.maxCombinations - tried;
  }

  // Remaining cut headroom; UINT64_MAX when unlimited. The parallel lattice
  // BFS uses this to cap each frontier to the exact prefix the sequential
  // scan would have visited before the CutLimit latch.
  std::uint64_t remainingCuts() const {
    if (limits_.maxCuts == 0) return UINT64_MAX;
    const std::uint64_t visited = cutsVisited_.load(std::memory_order_relaxed);
    if (visited >= limits_.maxCuts) return 0;
    return limits_.maxCuts - visited;
  }

  // Charge one visited/expanded consistent cut. Returns false (latched)
  // once the budget is exhausted; the failing charge is not counted.
  bool chargeCut() { return chargeCuts(1); }

  // Charge n cuts at once, all or nothing: a batch that fails (it would
  // pass maxCuts, or its poll sees the deadline or the cancel token)
  // latches the stop and counts none of them. The lattice kernel charges
  // its slices in batches of kPollPeriod cuts, so pool workers touch the
  // shared counters once per batch rather than once per cut; the deadline
  // and cancel token are polled once per kPollPeriod boundary the batch
  // crosses, as for the same number of single charges.
  bool chargeCuts(std::uint64_t n) {
    if (exhausted()) return false;
    const std::uint64_t prev =
        cutsVisited_.fetch_add(n, std::memory_order_relaxed);
    if (limits_.maxCuts != 0 && prev + n > limits_.maxCuts) {
      // Over-claimed (or raced past the limit): give the units back.
      cutsVisited_.fetch_sub(n, std::memory_order_relaxed);
      return fail(StopReason::CutLimit);
    }
    const std::uint32_t before = pollCounter_.fetch_add(
        static_cast<std::uint32_t>(n), std::memory_order_relaxed);
    if ((before & (kPollPeriod - 1)) + n < kPollPeriod) return true;
    if (pollNow()) return true;
    cutsVisited_.fetch_sub(n, std::memory_order_relaxed);
    return false;
  }

  // Charge one enumeration combination (a CPDHB invocation, a DNF term, a
  // DPLL decision). The cancel token is checked on every charge (one
  // relaxed atomic load); the clock read is amortized — combinations are
  // usually coarse (each is a full CPDHB scan), but Theorem-1 gadgets
  // shrink them to sub-microsecond scans where a per-charge clock read is
  // measurable overhead (A9). The counter starts at zero, so the *first*
  // charge always polls the clock: a deadline that passed before any work
  // is observed immediately. A failing charge is not counted.
  bool chargeCombination() {
    if (exhausted()) return false;
    if (limits_.maxCombinations != 0) {
      const std::uint64_t prev =
          combinationsTried_.fetch_add(1, std::memory_order_relaxed);
      if (prev >= limits_.maxCombinations) {
        combinationsTried_.fetch_sub(1, std::memory_order_relaxed);
        return fail(StopReason::CombinationLimit);
      }
    } else {
      combinationsTried_.fetch_add(1, std::memory_order_relaxed);
    }
    if (cancel_ != nullptr && cancel_->cancelRequested()) {
      combinationsTried_.fetch_sub(1, std::memory_order_relaxed);
      return fail(StopReason::Cancelled);
    }
    if ((comboPollCounter_.fetch_add(1, std::memory_order_relaxed) &
         (kCombinationPollPeriod - 1)) != 0) {
      return true;
    }
    if (checkDeadline()) return true;
    combinationsTried_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }

  // Give back charges a parallel kernel made past its short-circuit point
  // (workers racing the lowest-witness watermark), so a Yes reports the
  // sequential scan's progress. Only the kernel that made the charges may
  // refund them, after its workers have joined.
  void refundCuts(std::uint64_t n) {
    cutsVisited_.fetch_sub(n, std::memory_order_relaxed);
  }
  void refundCombinations(std::uint64_t n) {
    combinationsTried_.fetch_sub(n, std::memory_order_relaxed);
  }

  // Report the current live frontier size of a BFS; tracks the peak and
  // fails once it exceeds maxFrontierBytes.
  bool noteFrontierBytes(std::uint64_t liveBytes) {
    if (exhausted()) return false;
    std::uint64_t cur = peakFrontierBytes_.load(std::memory_order_relaxed);
    while (liveBytes > cur &&
           !peakFrontierBytes_.compare_exchange_weak(
               cur, liveBytes, std::memory_order_relaxed)) {
    }
    if (limits_.maxFrontierBytes != 0 && liveBytes > limits_.maxFrontierBytes) {
      return fail(StopReason::FrontierLimit);
    }
    return true;
  }

  // Amortized deadline/cancellation poll with no work counted — for loops
  // whose iterations are not cuts or combinations (e.g. DPLL propagation).
  bool keepGoing() {
    if (exhausted()) return false;
    return poll();
  }

 private:
  // Combination charges check the cancel token every time but read the
  // clock only once per this many charges (first charge included).
  static constexpr std::uint32_t kCombinationPollPeriod = 16;

  // Single-latch under concurrency: the first CAS to move reason_ off None
  // wins; racing failures (even with a different reason) leave it alone.
  bool fail(StopReason r) {
    StopReason expected = StopReason::None;
    reason_.compare_exchange_strong(expected, r, std::memory_order_relaxed);
    return false;
  }

  bool poll() {
    if (((pollCounter_.fetch_add(1, std::memory_order_relaxed) + 1) &
         (kPollPeriod - 1)) != 0) {
      return true;
    }
    return pollNow();
  }

  bool pollNow() {
    if (cancel_ != nullptr && cancel_->cancelRequested()) {
      return fail(StopReason::Cancelled);
    }
    return checkDeadline();
  }

  bool checkDeadline() {
    if (deadlineNs_ == UINT64_MAX) return true;
    GPD_OBS_COUNTER_ADD("budget_clock_reads", 1);
    if (steadyNowNanos() >= deadlineNs_) {
      return fail(StopReason::Deadline);
    }
    return true;
  }

  BudgetLimits limits_;
  const CancelToken* cancel_ = nullptr;
  std::uint64_t deadlineNs_ = UINT64_MAX;  // UINT64_MAX = no deadline
  std::atomic<std::uint64_t> cutsVisited_{0};
  std::atomic<std::uint64_t> combinationsTried_{0};
  std::atomic<std::uint64_t> peakFrontierBytes_{0};
  std::atomic<StopReason> reason_{StopReason::None};
  std::atomic<std::uint32_t> pollCounter_{0};
  std::atomic<std::uint32_t> comboPollCounter_{0};
};

}  // namespace gpd::control
