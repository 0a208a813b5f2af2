#include "lattice/explore.h"

#include <algorithm>
#include <atomic>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpd::lattice {

namespace {

// The cuts of one BFS level, stored flat (cut i is the n ints at i·n) with
// their hashes, plus an open-addressing index over them. Insertion
// deduplicates and keeps first-occurrence order — the order the
// sequential == pooled == sliced contracts rest on. Buffers and index are
// reused level after level.
class Level {
 public:
  explicit Level(int n) : n_(n), slots_(64, 0) {}

  std::size_t size() const { return hashes_.size(); }
  const int* cut(std::size_t i) const { return cuts_.data() + i * n_; }
  std::uint64_t hash(std::size_t i) const { return hashes_[i]; }

  void clear() {
    cuts_.clear();
    hashes_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

  // The index slot holding `cut`, or the empty slot where it belongs.
  std::size_t find(const int* cut, std::uint64_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = mix(hash) & mask;; s = (s + 1) & mask) {
      const std::uint32_t entry = slots_[s];
      if (entry == 0 || (hashes_[entry - 1] == hash &&
                         std::equal(cut, cut + n_, this->cut(entry - 1)))) {
        return s;
      }
    }
  }
  bool occupied(std::size_t slot) const { return slots_[slot] != 0; }

  // Appends `cut` at the empty `slot` find() returned for it.
  void add(std::size_t slot, const int* cut, std::uint64_t hash) {
    cuts_.insert(cuts_.end(), cut, cut + n_);
    hashes_.push_back(hash);
    slots_[slot] = static_cast<std::uint32_t>(hashes_.size());
    if (2 * hashes_.size() <= slots_.size()) return;
    slots_.assign(slots_.size() * 2, 0);  // rehash at load factor 1/2
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      std::size_t s = mix(hashes_[i]) & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = static_cast<std::uint32_t>(i + 1);
    }
  }

 private:
  static std::size_t mix(std::uint64_t h) {
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  int n_;
  std::vector<int> cuts_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> slots_;  // 0 = empty, else index + 1
};

// One scanner's state: its slice's successors (deduplicated locally), a
// successor under construction, and the Cut handed to visitors and admits.
struct Worker {
  explicit Worker(int n) : next(n), succ(n), view(std::vector<int>(n)) {}

  const Cut& asCut(const int* cut) {
    view.last.assign(cut, cut + succ.size());
    return view;
  }

  Level next;
  std::vector<int> succ;
  Cut view;
  std::uint64_t charged = 0;
};

// The computation as the kernels read it. Per process it keeps the clock
// row of the initial event (rows are n-strided, VectorClocks::row), the last
// event index and a hash weight: a cut hashes to Σ cut[q]·weight[q], so a
// successor's hash is its parent's plus one weight and ⊥ hashes to 0.
struct Geometry {
  explicit Geometry(const VectorClocks& clocks)
      : n(clocks.computation().processCount()) {
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
    for (ProcessId q = 0; q < n; ++q) {
      rows.push_back(clocks.row(q, 0));
      lastIndex.push_back(clocks.computation().eventCount(q) - 1);
      seed = (seed ^ (seed >> 31)) * 0xbf58476d1ce4e5b9ULL + 1;
      weights.push_back(seed | 1);
    }
  }

  // True iff p has an event after `cut` and it is enabled: its clock row is
  // inside the cut on every other process.
  bool enabled(const int* cut, ProcessId p) const {
    const int next = cut[p] + 1;
    if (next > lastIndex[p]) return false;
    const int* row = rows[p] + static_cast<std::size_t>(next) * n;
    for (int q = 0; q < n; ++q) {
      if (row[q] > cut[q] && q != p) return false;
    }
    return true;
  }

  int n;
  std::vector<const int*> rows;
  std::vector<int> lastIndex;
  std::vector<std::uint64_t> weights;
};

// A BFS in progress: the current level, whose cut hashes seed their
// successors'. expandLevel leaves the next level at `next`, or the position
// where its visitor stopped.
struct Bfs : Geometry {
  Bfs(const VectorClocks& clocks, par::Pool* p)
      : Geometry(clocks),
        pool(p),
        level(n),
        merged(n),
        workers(static_cast<std::size_t>(p != nullptr ? p->threads() : 1),
                Worker(n)) {
    const std::vector<int> bottom(n, 0);
    level.add(level.find(bottom.data(), 0), bottom.data(), 0);
  }

  void advance() { std::swap(level, *next); }

  par::Pool* pool;
  Level level;
  Level merged;
  std::vector<Worker> workers;
  Level* next = nullptr;
  std::uint64_t stopPos = 0;
};

// Visitor/admit stand-ins the kernel compiles away (no Cut view is built).
struct VisitAll {};
struct AdmitAll {};

// Appends every enabled, admitted, unseen successor of `cut` to w.next.
// `admit` is consulted only for a cut not yet in the level.
template <typename Admit>
void expandCut(const Bfs& bfs, const int* cut, std::uint64_t hash, Worker& w,
               const Admit& admit) {
  const int n = bfs.n;
  int* succ = w.succ.data();
  for (ProcessId p = 0; p < n; ++p) {
    if (!bfs.enabled(cut, p)) continue;
    std::copy(cut, cut + n, succ);
    ++succ[p];
    const std::uint64_t h = hash + bfs.weights[p];
    const std::size_t slot = w.next.find(succ, h);
    if (w.next.occupied(slot)) continue;
    if constexpr (!std::is_same_v<Admit, AdmitAll>) {
      if (!admit(p, w.asCut(succ))) continue;
    }
    w.next.add(slot, succ, h);
  }
}

// Cuts a scan charges to the budget per call: one batch per budget poll
// period, so pool workers touch the budget's shared counters once per
// batch instead of once per cut, and a deadline is still polled as often.
constexpr std::uint64_t kChargeBatch = control::Budget::kPollPeriod;

// The level-expansion kernel behind every exploration: charges each cut of
// the current level, offers it to `visit` (false = stop there) and expands
// it through `admit`, in level order. With a pool, workers scan contiguous
// slices and their next levels merge in slice order through one index,
// reproducing the sequential first-occurrence order. Each scan prepays its
// cuts in batches of kChargeBatch and returns the unused part when it
// stops. A cut budget caps the level to the prefix the sequential scan
// charges before its CutLimit latch, so no batch trips CutLimit, and
// charges made past a stop are refunded, so visits and budget progress
// equal the sequential scan's. Returns true when the next level is
// complete; otherwise ex.end says why not.
template <typename Visit, typename Admit>
bool expandLevel(Bfs& bfs, control::Budget* budget, const Visit& visit,
                 const Admit& admit, ExploreResult& ex) {
  const Level& level = bfs.level;
  const std::uint64_t eligible = std::min<std::uint64_t>(
      level.size(), budget != nullptr ? budget->remainingCuts() : UINT64_MAX);
  const std::uint64_t workers = bfs.workers.size();
  std::atomic<std::uint64_t> stopPos{UINT64_MAX};
  std::atomic<bool> budgetStop{false};
  const auto scan = [&](std::size_t w) {
    Worker& worker = bfs.workers[w];
    worker.next.clear();
    worker.charged = 0;
    const std::uint64_t end = eligible * (w + 1) / workers;
    std::uint64_t pos = eligible * w / workers;
    std::uint64_t paid = pos;  // the budget holds charges for [.., paid)
    for (; pos < end; ++pos) {
      // The watermark only ever holds real stops, so no position below the
      // final one is skipped.
      if (pos > stopPos.load(std::memory_order_relaxed) ||
          budgetStop.load(std::memory_order_relaxed)) {
        break;
      }
      if (pos == paid) {
        const std::uint64_t batch =
            std::min<std::uint64_t>(kChargeBatch, end - pos);
        if (budget != nullptr && !budget->chargeCuts(batch)) {
          budgetStop.store(true, std::memory_order_relaxed);
          break;
        }
        paid += batch;
      }
      ++worker.charged;
      const int* cut = level.cut(pos);
      if constexpr (!std::is_same_v<Visit, VisitAll>) {
        if (!visit(worker.asCut(cut))) {
          std::uint64_t cur = stopPos.load(std::memory_order_relaxed);
          while (pos < cur && !stopPos.compare_exchange_weak(
                                  cur, pos, std::memory_order_relaxed)) {
          }
          ++pos;  // the stopping cut was visited
          break;
        }
      }
      expandCut(bfs, cut, level.hash(pos), worker, admit);
    }
    // Return the prepaid part of a batch the scan stopped inside.
    if (budget != nullptr && paid > pos) budget->refundCuts(paid - pos);
  };
  if (bfs.pool == nullptr) {
    scan(0);
  } else {
    bfs.pool->run([&](int w) {
      GPD_TRACE_SPAN_NAMED(wspan, "par.lattice_worker");
      wspan.attrInt("worker", w);
      scan(static_cast<std::size_t>(w));
    });
  }

  std::uint64_t charged = 0;
  for (const Worker& worker : bfs.workers) charged += worker.charged;
  bfs.stopPos = stopPos.load(std::memory_order_relaxed);
  if (bfs.stopPos != UINT64_MAX) {
    const std::uint64_t visited = std::min(charged, bfs.stopPos + 1);
    ex.cutsVisited += visited;
    if (budget != nullptr) budget->refundCuts(charged - visited);
    ex.end = ExploreEnd::VisitorStopped;
    return false;
  }
  ex.cutsVisited += charged;
  if (budgetStop.load(std::memory_order_relaxed) || eligible < level.size()) {
    // Short of the level's end, the sequential scan's next charge latches
    // CutLimit; reproduce it (a no-op on an already latched budget).
    if (budget != nullptr) budget->chargeCut();
    ex.end = ExploreEnd::BudgetExhausted;
    return false;
  }
  bfs.next = &bfs.workers.front().next;
  if (workers == 1) return true;
  bfs.merged.clear();
  for (const Worker& worker : bfs.workers) {
    for (std::size_t i = 0; i < worker.next.size(); ++i) {
      const std::size_t slot =
          bfs.merged.find(worker.next.cut(i), worker.next.hash(i));
      if (bfs.merged.occupied(slot)) continue;
      bfs.merged.add(slot, worker.next.cut(i), worker.next.hash(i));
    }
  }
  bfs.next = &bfs.merged;
  return true;
}

// Records one BFS level's live frontier (current level + next level) in
// `result` and charges the budget. The byte estimate is per vector-backed
// Cut (header + components), the unit of frontier budgets and gauges.
// Returns false when the frontier limit trips.
bool noteFrontier(ExploreResult& result, const Bfs& bfs,
                  control::Budget* budget) {
  const std::uint64_t liveCuts = bfs.level.size() + bfs.next->size();
  const std::uint64_t liveBytes =
      liveCuts * (sizeof(Cut) + sizeof(int) * static_cast<unsigned>(bfs.n));
  result.peakFrontierCuts = std::max(result.peakFrontierCuts, liveCuts);
  result.peakFrontierBytes = std::max(result.peakFrontierBytes, liveBytes);
  if (budget != nullptr && !budget->noteFrontierBytes(liveBytes)) {
    result.end = ExploreEnd::BudgetExhausted;
    return false;
  }
  return true;
}

const char* toString(ExploreEnd end) {
  constexpr const char* kNames[] = {"exhausted", "visitor-stopped",
                                    "budget-exhausted"};
  return kNames[static_cast<int>(end)];
}

// The level loop of exploreConsistentCuts and findSatisfyingCut: runs
// until `visit` stops (the stopping cut is returned) or the lattice or the
// budget runs out. Publishes the run to the metrics registry once, not per
// cut, so the hot loop carries no extra code.
template <typename Visit>
std::optional<Cut> explore(const VectorClocks& clocks, par::Pool* pool,
                           control::Budget* budget,
                           const CutAdmit* restriction, const Visit& visit,
                           ExploreResult& ex) {
  GPD_TRACE_SPAN_NAMED(
      span, pool != nullptr ? "lattice.explore_par" : "lattice.explore");
  if (pool != nullptr) span.attrInt("threads", pool->threads());
  Bfs bfs(clocks, pool);
  const auto run = [&](const auto& admit) {
    while (bfs.level.size() != 0 &&
           expandLevel(bfs, budget, visit, admit, ex) &&
           noteFrontier(ex, bfs, budget)) {
      bfs.advance();
    }
  };
  if (restriction == nullptr) {
    run(AdmitAll{});
  } else {
    run(*restriction);
  }
  std::optional<Cut> stop;
  if (ex.end == ExploreEnd::VisitorStopped) {
    const int* cut = bfs.level.cut(bfs.stopPos);
    stop = Cut(std::vector<int>(cut, cut + bfs.n));
  }
  span.attrInt("cuts", static_cast<std::int64_t>(ex.cutsVisited));
  span.attrStr("end", toString(ex.end));
  GPD_OBS_COUNTER_ADD("lattice_explorations", 1);
  GPD_OBS_COUNTER_ADD("cuts_enumerated", ex.cutsVisited);
  GPD_OBS_GAUGE_MAX("frontier_bytes_peak", ex.peakFrontierBytes);
  GPD_OBS_GAUGE_MAX("frontier_cuts_peak", ex.peakFrontierCuts);
  return stop;
}

// The cuts a depth-first search has reached, keyed like the BFS by
// Σ cut[q]·weight[q]. When the computation's box of cuts, Π_q (last[q] + 1),
// has at most kDenseCuts members, the weights are the box's mixed radix:
// keys are exact and the set is one bit per cut of the box, small enough to
// stay in cache. Otherwise the weights are the BFS's hash weights and the
// set is a Level, which keeps the cuts to tell colliding keys apart.
class VisitedSet {
 public:
  static constexpr std::uint64_t kDenseCuts = std::uint64_t{1} << 23;

  explicit VisitedSet(const Geometry& geo) : sparse_(geo.n) {
    std::uint64_t box = 1;
    for (const int last : geo.lastIndex) {
      const auto extent = static_cast<std::uint64_t>(last) + 1;
      if (box > kDenseCuts / extent) {
        weights_ = geo.weights;
        return;
      }
      weights_.push_back(box);
      box *= extent;
    }
    dense_.assign(box / 64 + 1, 0);
  }

  // The key of the successor of a cut keyed `key` that advances p.
  std::uint64_t successor(std::uint64_t key, ProcessId p) const {
    return key + weights_[p];
  }

  // Adds the cut; false when it was already in.
  bool insert(const int* cut, std::uint64_t key) {
    if (!dense_.empty()) {
      std::uint64_t& word = dense_[key / 64];
      const std::uint64_t bit = std::uint64_t{1} << (key % 64);
      if ((word & bit) != 0) return false;
      word |= bit;
    } else {
      const std::size_t slot = sparse_.find(cut, key);
      if (sparse_.occupied(slot)) return false;
      sparse_.add(slot, cut, key);
    }
    ++size_;
    return true;
  }

  std::uint64_t size() const { return size_; }

 private:
  std::vector<std::uint64_t> weights_;
  std::vector<std::uint64_t> dense_;  // empty: the box is too large
  Level sparse_;
  std::uint64_t size_ = 0;
};

// The depth-first search behind decideDefinitely. A run avoids φ iff it is
// a monotone path of ¬φ-cuts from ⊥ to ⊤, so one such path answers "no" and
// only an exhausted ¬φ region answers "yes". The visited set holds every
// cut the search has reached — φ-cuts too, which block the path — so φ is
// evaluated once per distinct cut. The stack is the current ¬φ path from ⊥:
// its cuts n-strided in `path_`, one frame per cut with its key and the
// next process to try advancing. Every cut pushed (and so expanded) is
// charged to the budget, prepaid in batches of kChargeBatch as expandLevel
// does; the live frontier is the visited set plus the stack.
class AvoidingRunSearch {
 public:
  AvoidingRunSearch(const VectorClocks& clocks, const CutPredicate& phi,
                    control::Budget* budget, ExploreResult& ex)
      : geo_(clocks),
        phi_(phi),
        budget_(budget),
        ex_(ex),
        seen_(geo_),
        view_(std::vector<int>(geo_.n)),
        cutBytes_(sizeof(Cut) + sizeof(int) * static_cast<unsigned>(geo_.n)) {
    for (const int last : geo_.lastIndex) topLevel_ += last;
    if (budget != nullptr && budget->limits().maxFrontierBytes != 0) {
      frontierCap_ = budget->limits().maxFrontierBytes / cutBytes_;
    }
  }

  // Searches from ⊥, which must be a ¬φ cut other than ⊤. Returns the ⊥→⊤
  // run of ¬φ-cuts when one exists; otherwise empty, with ex.end telling an
  // exhausted region from a budget stop.
  std::vector<Cut> run() {
    seen_.insert(view_.last.data(), 0);  // view_ starts as ⊥
    Step step = Step::Continue;
    if (push(0)) {
      while (step == Step::Continue && !stack_.empty()) step = extendRun();
    }
    return finish(step == Step::ReachedTop ? certificate()
                                           : std::vector<Cut>{});
  }

 private:
  enum class Step { Continue, ReachedTop, BudgetStop };

  struct Frame {
    std::uint64_t key;
    ProcessId next;  // the next process to try advancing
  };

  // Advances the top frame by one successor.
  Step extendRun() {
    const int n = geo_.n;
    Frame& top = stack_.back();
    const int* cut = path_.data() + path_.size() - n;
    ProcessId p = top.next;
    while (p < n && !geo_.enabled(cut, p)) ++p;
    if (p == n) {
      // Every ¬φ path through this cut is blocked.
      stack_.pop_back();
      path_.resize(path_.size() - n);
      return Step::Continue;
    }
    top.next = p + 1;
    int* succ = view_.last.data();
    std::copy(cut, cut + n, succ);
    ++succ[p];
    const std::uint64_t key = seen_.successor(top.key, p);
    if (!seen_.insert(succ, key)) return Step::Continue;
    if (!grow()) return Step::BudgetStop;
    if (phi_(view_)) return Step::Continue;
    if (stack_.size() == topLevel_) return Step::ReachedTop;  // succ is ⊤
    return push(key) ? Step::Continue : Step::BudgetStop;
  }

  // Charges and pushes view_, keyed `key`; false on a budget stop. Each
  // batch also reports the frontier peak so far to the budget.
  bool push(std::uint64_t key) {
    if (budget_ != nullptr && prepaid_ == 0) {
      if (!budget_->noteFrontierBytes(peakCuts_ * cutBytes_)) return stopped();
      // Capped at the cut headroom, so a batch never trips CutLimit before
      // the charge that would; past it, one charge latches CutLimit.
      const std::uint64_t batch =
          std::min<std::uint64_t>(kChargeBatch, budget_->remainingCuts());
      if (batch == 0 ? !budget_->chargeCut() : !budget_->chargeCuts(batch)) {
        return stopped();
      }
      prepaid_ = batch;
    }
    if (prepaid_ != 0) --prepaid_;
    ++ex_.cutsVisited;
    stack_.push_back({key, 0});
    path_.insert(path_.end(), view_.last.begin(), view_.last.end());
    return grow();
  }

  // Tracks the live frontier after the visited set or the stack grew;
  // trips the budget's frontier limit at the first cut past it.
  bool grow() {
    const std::uint64_t live = seen_.size() + stack_.size();
    if (live <= peakCuts_) return true;
    peakCuts_ = live;
    if (live > frontierCap_ && !budget_->noteFrontierBytes(live * cutBytes_)) {
      return stopped();
    }
    return true;
  }

  bool stopped() {
    ex_.end = ExploreEnd::BudgetExhausted;
    return false;
  }

  // The stack from ⊥ plus ⊤, which view_ holds when the search reaches it.
  std::vector<Cut> certificate() const {
    std::vector<Cut> cuts;
    cuts.reserve(stack_.size() + 1);
    for (auto cut = path_.begin(); cut != path_.end(); cut += geo_.n) {
      cuts.emplace_back(std::vector<int>(cut, cut + geo_.n));
    }
    cuts.push_back(view_);
    return cuts;
  }

  std::vector<Cut> finish(std::vector<Cut> run) {
    if (!run.empty()) ex_.end = ExploreEnd::VisitorStopped;
    ex_.peakFrontierCuts = peakCuts_;
    ex_.peakFrontierBytes = peakCuts_ * cutBytes_;
    if (budget_ != nullptr) {
      budget_->refundCuts(prepaid_);
      budget_->noteFrontierBytes(ex_.peakFrontierBytes);
    }
    return run;
  }

  const Geometry geo_;
  const CutPredicate& phi_;
  control::Budget* budget_;
  ExploreResult& ex_;
  VisitedSet seen_;
  std::vector<Frame> stack_;
  std::vector<int> path_;  // the stack's cuts, n-strided
  Cut view_;               // the successor under test, handed to phi
  const std::uint64_t cutBytes_;
  std::size_t topLevel_ = 0;
  std::uint64_t frontierCap_ = UINT64_MAX;
  std::uint64_t peakCuts_ = 0;
  std::uint64_t prepaid_ = 0;
};

}  // namespace

ExploreResult exploreConsistentCuts(
    const VectorClocks& clocks, const std::function<bool(const Cut&)>& visit,
    control::Budget* budget, const CutAdmit* restriction) {
  ExploreResult result;
  explore(clocks, nullptr, budget, restriction, visit, result);
  return result;
}

CutSearchResult findSatisfyingCut(const VectorClocks& clocks,
                                  const CutPredicate& phi,
                                  control::Budget* budget, par::Pool* pool,
                                  const CutAdmit* restriction) {
  CutSearchResult result;
  result.witness =
      explore(clocks, pool, budget, restriction,
              [&](const Cut& cut) { return !phi(cut); }, result.explore);
  // Exact iff a witness surfaced or the whole lattice was examined.
  result.complete = result.witness.has_value() ||
                    result.explore.end == ExploreEnd::Exhausted;
  return result;
}

DefinitelyDecision decideDefinitely(const VectorClocks& clocks,
                                    const CutPredicate& phi,
                                    control::Budget* budget) {
  GPD_TRACE_SPAN_NAMED(span, "lattice.definitely");
  DefinitelyDecision decision;
  ExploreResult& ex = decision.explore;
  const Computation& comp = clocks.computation();
  const Cut bottom = initialCut(comp);
  if (phi(bottom)) {
    decision.holds = true;  // every run starts at ⊥
  } else if (bottom == finalCut(comp)) {
    decision.avoidingRun = {bottom};
  } else {
    decision.avoidingRun = AvoidingRunSearch(clocks, phi, budget, ex).run();
    decision.holds = ex.end == ExploreEnd::Exhausted;
    decision.decided = ex.end != ExploreEnd::BudgetExhausted;
  }
  span.attrInt("cuts", static_cast<std::int64_t>(ex.cutsVisited));
  span.attrStr("end", toString(ex.end));
  GPD_OBS_COUNTER_ADD("definitely_cuts_enumerated", ex.cutsVisited);
  return decision;
}

LatticeStats latticeStats(const VectorClocks& clocks,
                          control::Budget* budget) {
  LatticeStats stats;
  ExploreResult ex;
  Bfs bfs(clocks, nullptr);
  while (bfs.level.size() != 0) {
    stats.cutCount += bfs.level.size();
    stats.maxWidth = std::max<std::uint64_t>(stats.maxWidth, bfs.level.size());
    ++stats.levels;
    if (!expandLevel(bfs, budget, VisitAll{}, AdmitAll{}, ex)) break;
    bfs.advance();
  }
  stats.complete = ex.end != ExploreEnd::BudgetExhausted;
  return stats;
}

}  // namespace gpd::lattice
