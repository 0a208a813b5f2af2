#include "obs/metrics.h"

#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

namespace gpd::obs {

namespace {

// The documented metric inventory (DESIGN.md §9). Pre-registered so the
// renderers and `gpdtool --stats` always print the full set — a metric a
// run never touched reports zero instead of silently vanishing, and a
// GPD_OBS_DISABLED build still renders the inventory (all zeros).
constexpr const char* kCounterInventory[] = {
    "budget_clock_reads",        // steady-clock reads by control::Budget
    "chain_covers_built",        // Dilworth chain covers built (clocks)
    "cpdhb_combinations",        // Sec. 3.3 enumeration selections tried
    "cpdhb_comparisons",         // succLeq head comparisons inside CPDHB
    "cpdhb_invocations",         // findConsistentSelection calls
    "cuts_enumerated",           // cuts visited by lattice possibly searches
    "definitely_cuts_enumerated",  // cuts expanded by the definitely DFS
    "detector_queries",          // Detector possibly/definitely calls
    "dnf_terms_tried",           // DNF terms scanned by possiblyExpression
    "dpll_decisions",            // DPLL branching decisions
    "dpll_propagations",         // DPLL unit propagations
    "flow_closure_nodes",        // nodes (contracted runs) in those closures
    "flow_closures_solved",      // max-weight closures (min-cuts) solved
    "lattice_explorations",      // lattice possibly-search runs
    "monitor_degraded_streams",  // streams written off by the session
    "monitor_gaps_detected",     // recovery episodes opened
    "monitor_gaps_recovered",    // recovery episodes closed successfully
    "monitor_nacks_sent",        // retransmit requests issued
    "monitor_notifications",     // notifications handed to deliver()
    "monitor_retransmits",       // copies resent by the replay transport
    "monitor_slice_aborts",      // elimination scans cut by the time slice
    "plan_actual_combinations",  // observed enumeration work (plan_vs_actual)
    "plan_predicted_combinations",  // planner-predicted work (plan_vs_actual)
    "plan_steps_run",            // plan steps the detector executed
    "plan_steps_skipped",        // plan steps skipped by the budget walk
    "sum_range_precheck_decided",  // exact sums refuted by min S ≤ K ≤ max S
};

constexpr const char* kGaugeInventory[] = {
    "frontier_bytes_peak",  // widest live BFS frontier, bytes
    "frontier_cuts_peak",   // widest live BFS frontier, cuts
};

constexpr const char* kHistogramInventory[] = {
    "enumeration_combinations",  // per-enumeration selections tried
    "plan_vs_actual",            // |predicted − observed| CPDHB invocations
};

}  // namespace

struct Registry::Impl {
  std::mutex mutex;
  // node-based maps: instrument addresses are stable across inserts, which
  // is what lets the GPD_OBS_* macros cache references in local statics.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::pair<std::string, Labels>, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() : impl_(new Impl) {
  for (const char* name : kCounterInventory) counter(name);
  for (const char* name : kGaugeInventory) gauge(name);
  for (const char* name : kHistogramInventory) histogram(name);
}

Registry::~Registry() { delete impl_; }

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->gauges[{name, labels}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(impl_->gauges.size());
  for (const auto& [key, g] : impl_->gauges) {
    snap.gauges.push_back({key.first, g->value(), key.second});
  }
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.count = h->count();
    hv.sum = h->sum();
    for (int i = 0; i < Histogram::kBuckets; ++i) hv.buckets[i] = h->bucket(i);
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

std::string escapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string seriesName(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += escapeLabelValue(labels[i].second);
    out += '"';
  }
  return out + '}';
}

namespace {

// Non-empty log2 buckets as "lo..hi:count" ranges, e.g. "1:3 4..7:2".
std::string bucketSummary(const MetricsSnapshot::HistogramValue& h) {
  std::ostringstream out;
  bool first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t n = h.buckets[i];
    if (n == 0) continue;
    if (!first) out << ' ';
    first = false;
    if (i == 0) {
      out << "0";
    } else if (i == 1) {
      out << "1";
    } else {
      out << (1ull << (i - 1)) << ".." << ((1ull << i) - 1);
    }
    out << ':' << n;
  }
  return first ? "-" : out.str();
}

// A series name as a JSON string body. Label values are already escaped,
// so only the quotes and backslashes that escaping left need JSON escapes.
std::string jsonKey(const std::string& series) {
  std::string out;
  out.reserve(series.size());
  for (char c : series) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void renderMetricsText(std::ostream& os, const MetricsSnapshot& snap) {
  std::size_t width = 0;
  for (const auto& [name, value] : snap.counters) {
    width = std::max(width, name.size());
  }
  for (const auto& g : snap.gauges) {
    width = std::max(width, seriesName(g.name, g.labels).size());
  }
  for (const auto& h : snap.histograms) {
    width = std::max(width, h.name.size());
  }
  const int w = static_cast<int>(width);
  for (const auto& [name, value] : snap.counters) {
    os << "counter    " << std::left << std::setw(w) << name << "  " << value
       << '\n';
  }
  for (const auto& g : snap.gauges) {
    os << "gauge      " << std::left << std::setw(w)
       << seriesName(g.name, g.labels) << "  " << g.value << '\n';
  }
  for (const auto& h : snap.histograms) {
    os << "histogram  " << std::left << std::setw(w) << h.name
       << "  count=" << h.count << " sum=" << h.sum
       << " buckets=" << bucketSummary(h) << '\n';
  }
}

void renderMetricsJson(std::ostream& os, const MetricsSnapshot& snap) {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& g : snap.gauges) {
    os << (first ? "" : ",") << "\n    \""
       << jsonKey(seriesName(g.name, g.labels)) << "\": " << g.value;
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    os << (first ? "" : ",") << "\n    \"" << h.name
       << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"buckets\": {";
    bool firstBucket = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h.buckets[i];
      if (n == 0) continue;
      os << (firstBucket ? "" : ", ") << '"' << i << "\": " << n;
      firstBucket = false;
    }
    os << "}}";
    first = false;
  }
  os << "\n  }\n}\n";
}

}  // namespace gpd::obs
