// gpd::par — a small fixed-size worker pool for the parallel detection
// kernels.
//
// Every super-polynomial kernel in the library (lattice BFS, the Sec. 3.3
// k^m / Π cⱼ CPDHB enumerations) has an embarrassingly-parallel outer loop:
// independent combinations, or independent cuts of one antichain frontier.
// The Pool owns that parallelism: a fixed set of worker threads created
// once and reused across runs, with one primitive — run(body) invokes
// body(workerIndex) on every worker concurrently and blocks until all of
// them return. The *drivers* (detect/singular_cnf, lattice/explore) own the
// work partitioning on top of it, because each has its own determinism
// contract (lowest-index witness, sequential frontier order).
//
// Determinism contract (library-wide): for any thread count, a parallel
// kernel returns bit-identical verdicts and witnesses to its sequential
// form — Yes selects the lowest combination/frontier index, never the
// first finisher, and combination-count budgets cap the scanned index
// prefix exactly like the sequential odometer. Progress counters match
// too: on a Yes the drivers report the sequential count (combinations tried
// or cuts visited up to the witness) and refund the budget for claims that
// raced the short-circuit. Only CPDHB comparison totals may differ.
//
// Exceptions thrown by a worker are captured and rethrown from run() on
// the calling thread (first one wins; the others are dropped after every
// worker has unwound), so GPD_CHECK failures keep their normal semantics.
//
// Thread count resolution (CLI and benches): --threads N beats the
// GPD_THREADS environment variable; neither set means "no pool" — callers
// keep the plain sequential path.
#pragma once

#include <cstdint>
#include <functional>

namespace gpd::par {

class Pool {
 public:
  // Spawns `threads` workers (clamped to >= 1). The pool is reusable: any
  // number of run() calls may follow, sequentially.
  explicit Pool(int threads);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int threads() const { return threads_; }

  // Invokes body(w) for every worker index w in [0, threads()) on the
  // pool's threads, concurrently, and returns when all invocations have
  // finished. Not reentrant: body must not call run() on the same pool.
  // If any invocation throws, one of the exceptions is rethrown here after
  // every worker has unwound.
  void run(const std::function<void(int worker)>& body);

 private:
  struct Impl;
  int threads_;
  Impl* impl_;
};

// Thread count requested by the GPD_THREADS environment variable; 0 when
// unset, empty, or not a positive integer (0 means "run sequentially,
// no pool").
int envThreads();

}  // namespace gpd::par
