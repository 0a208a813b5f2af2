// gpd::obs metrics registry — counters, gauges, log2 histograms.
//
// Theorem 1 makes the interesting detectors super-polynomial, so the only
// way to know *where* a run spent its exponential effort is to count it:
// cuts the lattice BFS expanded, CPDHB invocations an enumeration burned,
// DPLL decisions, monitor recovery traffic, budget clock reads. The
// registry is a process-wide named set of metrics with three instrument
// kinds:
//
//   * Counter   — monotonic uint64, relaxed atomic add (~1 ns);
//   * Gauge     — int64 with set() and max() (CAS loop), for peaks; a
//     gauge carries labels, one series per label set;
//   * Histogram — 65 fixed log2 buckets (bucket i counts values whose
//     bit width is i: bucket 0 is value 0, bucket 64 tops out at
//     UINT64_MAX), plus running count/sum, for distributions like
//     plan-vs-actual prediction error.
//
// Hot-path usage goes through the GPD_OBS_* macros, which resolve the
// name → instrument lookup once per call site (function-local static
// reference) and compile to nothing when the build defines
// GPD_OBS_DISABLED. The registry itself always exists — renderers and the
// CLI stay functional in a disabled build, they just report zeros.
//
// Metric name inventory: see DESIGN.md §9.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace gpd::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  // Raises the gauge to v if v is larger (peak tracking).
  void max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  // One bucket per bit width: bucket 0 holds value 0, bucket i holds
  // values in [2^(i-1), 2^i).
  static constexpr int kBuckets = 65;

  static int bucketOf(std::uint64_t v) noexcept {
    int w = 0;
    while (v != 0) {
      ++w;
      v >>= 1;
    }
    return w;
  }

  void observe(std::uint64_t v) noexcept {
    buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// A gauge's labels as (key, value) pairs, in the order they render.
using Labels = std::vector<std::pair<std::string, std::string>>;

// A point-in-time copy of every registered instrument, sorted by name (and
// gauges by label set within a name). Every renderer consumes a snapshot:
// the text table, the JSON object and the OpenMetrics exposition.
struct MetricsSnapshot {
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
    Labels labels;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t buckets[Histogram::kBuckets] = {};
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

// Process-wide named metric set. Instrument references are stable for the
// process lifetime (instruments are never destroyed before exit), so call
// sites may cache them — the GPD_OBS_* macros do.
class Registry {
 public:
  Counter& counter(const std::string& name);
  // Gauges are keyed by (name, labels): one name may carry a series per
  // label set, e.g. gpdd_tenant_sessions{tenant="acme"}.
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name);

  // Copies every instrument under the registry lock. Relaxed per-instrument
  // reads: the snapshot is internally consistent per metric, not across
  // metrics — fine for monitoring.
  MetricsSnapshot snapshot();

  // Zeroes every registered instrument (names stay registered).
  void reset();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

// The process-wide registry the GPD_OBS_* macros record into.
Registry& registry();

// Escapes a label value per the exposition format: backslash, double quote,
// and newline.
std::string escapeLabelValue(const std::string& value);

// The exposition spelling of one series: `name` without labels, else
// `name{k1="v1",...}` with escaped values.
std::string seriesName(const std::string& name, const Labels& labels);

// Renderers: a text table / a JSON object keyed by series name. Histograms
// render count, sum and the non-empty log2 buckets.
void renderMetricsText(std::ostream& os, const MetricsSnapshot& snap);
void renderMetricsJson(std::ostream& os, const MetricsSnapshot& snap);

}  // namespace gpd::obs

// Hot-path macros. `name` must be a string literal (or otherwise stable);
// the lookup happens once per call site. With GPD_OBS_DISABLED every macro
// compiles to nothing — arguments are not evaluated ((void)sizeof keeps
// referenced variables "used" without generating code).
#ifndef GPD_OBS_DISABLED
#define GPD_OBS_COUNTER_ADD(name, n)                          \
  do {                                                        \
    static ::gpd::obs::Counter& gpdObsCounterRef_ =           \
        ::gpd::obs::registry().counter(name);                 \
    gpdObsCounterRef_.add(static_cast<std::uint64_t>(n));     \
  } while (0)
#define GPD_OBS_GAUGE_SET(name, v)                            \
  do {                                                        \
    static ::gpd::obs::Gauge& gpdObsGaugeRef_ =               \
        ::gpd::obs::registry().gauge(name);                   \
    gpdObsGaugeRef_.set(static_cast<std::int64_t>(v));        \
  } while (0)
#define GPD_OBS_GAUGE_MAX(name, v)                            \
  do {                                                        \
    static ::gpd::obs::Gauge& gpdObsGaugeRef_ =               \
        ::gpd::obs::registry().gauge(name);                   \
    gpdObsGaugeRef_.max(static_cast<std::int64_t>(v));        \
  } while (0)
#define GPD_OBS_HISTOGRAM(name, v)                            \
  do {                                                        \
    static ::gpd::obs::Histogram& gpdObsHistRef_ =            \
        ::gpd::obs::registry().histogram(name);               \
    gpdObsHistRef_.observe(static_cast<std::uint64_t>(v));    \
  } while (0)
#else
#define GPD_OBS_COUNTER_ADD(name, n) \
  do {                               \
    (void)sizeof(n);                 \
  } while (0)
#define GPD_OBS_GAUGE_SET(name, v) \
  do {                             \
    (void)sizeof(v);               \
  } while (0)
#define GPD_OBS_GAUGE_MAX(name, v) \
  do {                             \
    (void)sizeof(v);               \
  } while (0)
#define GPD_OBS_HISTOGRAM(name, v) \
  do {                             \
    (void)sizeof(v);               \
  } while (0)
#endif  // GPD_OBS_DISABLED
