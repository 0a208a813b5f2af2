#include "detect/singular_cnf.h"

#include <algorithm>
#include <atomic>

#include "clocks/chain_cover.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpd::detect {

namespace {

// Group j's candidate chains, read in place.
using Options = std::vector<const std::vector<Chain>*>;

// Annotates the enumeration span and publishes per-run totals once the
// odometer stops, on every exit path (hit, exhausted, budget trip).
// Templated so it accepts the NullSpan stand-in under GPD_OBS_DISABLED.
template <typename SpanT>
void recordEnumeration(SpanT& span, const SingularCnfResult& result) {
  (void)result;
  span.attrInt("tried", static_cast<std::int64_t>(result.combinationsTried));
  span.attrInt("total", static_cast<std::int64_t>(result.combinationsTotal));
  span.attrStr("outcome", result.found      ? "found"
                          : result.complete ? "exhausted"
                                            : "budget-stopped");
  GPD_OBS_COUNTER_ADD("cpdhb_combinations", result.combinationsTried);
  GPD_OBS_HISTOGRAM("enumeration_combinations", result.combinationsTried);
}

// The odometer: runs the CPDHB scan over every selection of one chain per
// group, stopping at the first hit or when the budget trips. Selections are
// numbered by their linear odometer index (group 0 is the fastest digit);
// workers claim contiguous chunks of indices in increasing order — one
// worker, inline, without a pool — and a satisfying selection
// short-circuits the scan via the shared `bestIndex` watermark. Contract:
//  - the reported witness is the LOWEST satisfying index, not the first
//    finisher's — every index below the eventual best is scanned (a chunk
//    is only abandoned for indices above the watermark, and the watermark
//    only ever holds genuine Yes indices);
//  - a combination budget caps the scan to the prefix
//    limit = min(total, remainingCombinations), charged one index at a
//    time; when limit < total and no witness was found, one extra charge
//    latches the budget's CombinationLimit. On a Yes, claims that raced the
//    watermark are refunded, leaving best + 1 charged.
// Count-based budgets therefore give the same result for any thread count;
// deadline/cancel budgets stop wherever their clock or token says.
SingularCnfResult enumerateSelections(const VectorClocks& clocks,
                                      const Options& options,
                                      control::Budget* budget,
                                      par::Pool* pool) {
  GPD_TRACE_SPAN_NAMED(span, "detect.singular_enumeration");
  SingularCnfResult result;
  // The space size is Π |options[j]|, which overflows uint64 already at
  // 64 two-chain groups; saturate instead of wrapping (a wrap to zero would
  // read as "some clause never true" and fabricate an exact No). Indices
  // past UINT64_MAX are unaddressable, so a saturated space scans only its
  // first UINT64_MAX selections — a budget stops it long before.
  result.combinationsTotal = 1;
  for (const std::vector<Chain>* opts : options) {
    if (opts->empty()) {
      result.combinationsTotal = 0;
      recordEnumeration(span, result);
      return result;  // some clause never true: exact No
    }
    if (result.combinationsTotal > UINT64_MAX / opts->size()) {
      result.combinationsTotal = UINT64_MAX;
    } else {
      result.combinationsTotal *= opts->size();
    }
  }

  const std::size_t m = options.size();
  const int workers = pool != nullptr ? pool->threads() : 1;
  if (pool != nullptr) span.attrInt("threads", workers);
  const std::uint64_t limit = std::min(
      result.combinationsTotal,
      budget != nullptr ? budget->remainingCombinations() : UINT64_MAX);
  const std::uint64_t chunk = std::clamp<std::uint64_t>(
      limit / (static_cast<std::uint64_t>(workers) * 32), 1, 256);

  std::atomic<std::uint64_t> nextStart{0};
  std::atomic<std::uint64_t> bestIndex{UINT64_MAX};
  std::atomic<bool> stopped{false};
  struct WorkerOut {
    std::uint64_t tried = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t foundIndex = UINT64_MAX;
    std::optional<Cut> cut;
    std::vector<EventId> witness;
  };
  std::vector<WorkerOut> outs(static_cast<std::size_t>(workers));

  const auto scan = [&](std::size_t w) {
    WorkerOut& out = outs[w];
    std::vector<std::size_t> pick(m, 0);
    std::vector<Candidates> chains(m);
    while (true) {
      const std::uint64_t start =
          nextStart.fetch_add(chunk, std::memory_order_relaxed);
      if (start >= limit) return;
      // Chunks are claimed in increasing order, so once the watermark is
      // below this chunk no later chunk can matter either.
      if (start > bestIndex.load(std::memory_order_relaxed)) return;
      if (stopped.load(std::memory_order_relaxed)) return;
      const std::uint64_t end = std::min(limit, start + chunk);
      // Decode the odometer digits at `start`, then step incrementally.
      std::uint64_t rem = start;
      for (std::size_t j = 0; j < m; ++j) {
        pick[j] = rem % options[j]->size();
        rem /= options[j]->size();
      }
      for (std::uint64_t i = start; i < end; ++i) {
        if (i > bestIndex.load(std::memory_order_relaxed) ||
            stopped.load(std::memory_order_relaxed)) {
          return;
        }
        if (budget != nullptr && !budget->chargeCombination()) {
          stopped.store(true, std::memory_order_relaxed);
          return;
        }
        for (std::size_t j = 0; j < m; ++j) chains[j] = (*options[j])[pick[j]];
        ++out.tried;
        ConjunctiveResult sub = findConsistentSelection(clocks, chains);
        out.comparisons += sub.comparisons;
        if (sub.found) {
          std::uint64_t cur = bestIndex.load(std::memory_order_relaxed);
          while (i < cur && !bestIndex.compare_exchange_weak(
                                cur, i, std::memory_order_relaxed)) {
          }
          // This worker scans ascending, so its first hit is its lowest;
          // everything above is moot for it.
          out.foundIndex = i;
          out.cut = std::move(sub.cut);
          out.witness = std::move(sub.witness);
          return;
        }
        // Advance the odometer one step.
        std::size_t j = 0;
        while (j < m && ++pick[j] >= options[j]->size()) {
          pick[j] = 0;
          ++j;
        }
      }
    }
  };
  if (pool == nullptr) {
    scan(0);
  } else {
    pool->run([&](int w) {
      GPD_TRACE_SPAN_NAMED(wspan, "par.enumeration_worker");
      wspan.attrInt("worker", w);
      scan(static_cast<std::size_t>(w));
      wspan.attrInt("tried", static_cast<std::int64_t>(
                                 outs[static_cast<std::size_t>(w)].tried));
    });
  }

  for (const WorkerOut& out : outs) {
    result.combinationsTried += out.tried;
    result.comparisons += out.comparisons;
  }
  const std::uint64_t best = bestIndex.load(std::memory_order_relaxed);
  if (best != UINT64_MAX) {
    // A Yes reports best + 1 selections tried: claims that raced the
    // watermark are refunded to the budget.
    const std::uint64_t tried = std::min(result.combinationsTried, best + 1);
    if (budget != nullptr) {
      budget->refundCombinations(result.combinationsTried - tried);
    }
    result.combinationsTried = tried;
    for (WorkerOut& out : outs) {
      if (out.foundIndex == best) {
        result.found = true;
        result.cut = std::move(out.cut);
        result.witness = std::move(out.witness);
        break;
      }
    }
  } else if (stopped.load(std::memory_order_relaxed)) {
    result.complete = false;  // a mid-scan charge failed (deadline/cancel)
  } else if (limit < result.combinationsTotal) {
    // The whole budgeted prefix was scanned without a hit; charge once more
    // so the budget latches CombinationLimit, as the next selection's
    // charge would have.
    if (budget != nullptr) budget->chargeCombination();
    result.complete = false;
  }
  recordEnumeration(span, result);
  return result;
}

// The per-clause chain lists of `covers`, in place.
Options optionsOf(const std::vector<std::vector<Chain>>& covers) {
  Options options;
  for (const std::vector<Chain>& cover : covers) options.push_back(&cover);
  return options;
}

}  // namespace

SingularCnfResult detectSingularByProcessEnumeration(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget, par::Pool* pool,
    const std::vector<char>* admittedNode) {
  GPD_CHECK_MSG(pred.isSingular(), "predicate is not singular");
  GPD_TRACE_SPAN_NAMED(span, "detect.process_enumeration");
  span.attrInt("clauses", static_cast<std::int64_t>(pred.clauses.size()));
  const auto trueEvents =
      analyze::clauseTrueEvents(trace, pred, admittedNode);
  // Group j's options: one chain per hosting process (per-process true
  // events are totally ordered by the process order).
  std::vector<std::vector<Chain>> chains(pred.clauses.size());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    for (ProcessId p : pred.clauseProcesses(static_cast<int>(j))) {
      Chain chain;
      for (const EventId& e : trueEvents[j]) {
        if (e.process == p) chain.push_back(e);
      }
      if (!chain.empty()) chains[j].push_back(std::move(chain));
    }
  }
  return enumerateSelections(clocks, optionsOf(chains), budget, pool);
}

std::vector<std::vector<Chain>> clauseChainCovers(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, const std::vector<char>* admittedNode) {
  GPD_TRACE_SPAN("detect.chain_cover");
  const auto trueEvents = analyze::clauseTrueEvents(trace, pred, admittedNode);
  std::vector<std::vector<Chain>> covers(pred.clauses.size());
  for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
    covers[j] = chainCover(clocks, trueEvents[j]);
  }
  return covers;
}

SingularCnfResult detectSingularByChainCover(
    const VectorClocks& clocks, const VariableTrace& trace,
    const CnfPredicate& pred, control::Budget* budget, par::Pool* pool,
    const std::vector<char>* admittedNode) {
  GPD_CHECK_MSG(pred.isSingular(), "predicate is not singular");
  const std::vector<std::vector<Chain>> covers =
      clauseChainCovers(clocks, trace, pred, admittedNode);
  GPD_TRACE_SPAN_NAMED(span, "detect.chain_cover_enumeration");
  span.attrInt("clauses", static_cast<std::int64_t>(covers.size()));
  return enumerateSelections(clocks, optionsOf(covers), budget, pool);
}

SingularCnfResult detectSingularByChainCover(
    const VectorClocks& clocks, const analyze::CnfClassification& cls,
    control::Budget* budget, par::Pool* pool) {
  GPD_CHECK_MSG(cls.singular, "predicate is not singular");
  GPD_TRACE_SPAN_NAMED(span, "detect.chain_cover_enumeration");
  span.attrInt("clauses", static_cast<std::int64_t>(cls.clauses.size()));
  Options options;
  for (const analyze::ClauseFacts& facts : cls.clauses) {
    options.push_back(&facts.cover);
  }
  return enumerateSelections(clocks, options, budget, pool);
}

}  // namespace gpd::detect
