// Shared pieces of the gpdbench harness: options, the result every workload
// returns, latency summaries, and the in-memory span tracer used by the
// traced runs. Nothing here calls into the gpd library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-check: corrupt one verdict and drop one response; the run must
  // then report exactly two failed operations.
  bool injectFaults = false;
  std::string workDir;    // working files for this run (inside the checkout)
  std::string gpddPath;   // the gpdd binary built beside gpdbench
  std::string describe;   // source identity, passed in by run.py
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload run reports. `metrics` is what the final JSON line holds;
// `info` lines are printed above it for a human reader (percentiles used,
// sample counts, layer breakdowns, steadiness guards).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool crossChecksOk = true;
  std::vector<Metric> metrics;
  std::vector<std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { info.push_back(line); }
};

std::int64_t nowNs();

double median(std::vector<double> v);

// Median and tail of per-operation latencies. The tail is the highest
// percentile that still has at least ten samples beyond it.
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  double tailPercentile = 0;
  std::size_t samples = 0;
};
LatencySummary summarize(std::vector<double> values);

// Peak resident set of this process, in MiB.
double selfPeakRssMib();

// Runs `fn` `reps` times and returns the median wall time in seconds. Used
// for setup_s: set-up is deterministic work, repeated so one slow repetition
// does not move the figure.
template <typename F>
double medianSeconds(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = nowNs();
    fn();
    t.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
  return median(t);
}

// One timed region. `op` groups the spans of one operation; `parent` is the
// index of the enclosing span (-1 for an operation's root).
struct Span {
  std::string name;
  std::string layer;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

// Keeps spans in memory; the traced runs write them out once at the end.
class Tracer {
 public:
  int begin(const std::string& name, const std::string& layer,
            std::uint64_t op, int parent);
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = nowNs(); }
  // A span whose interval was measured elsewhere (e.g. a duration the
  // library reports about its own work).
  int add(const std::string& name, const std::string& layer, std::uint64_t op,
          int parent, std::int64_t start, std::int64_t end);
  void rename(int id, const std::string& name, const std::string& layer);
  std::int64_t duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time (duration minus the part covered by child spans), summed per
  // layer over every span, in ns.
  std::map<std::string, double> selfNsByLayer() const;
  // Summed duration of the root spans (one per operation), in ns.
  double rootNs() const;

  void writeJsonLines(const std::string& path, const std::string& meta) const;

 private:
  std::vector<Span> spans_;
};

// Adds, for every layer, `layer.<name>.self_ms` (mean per operation) and
// `layer.<name>.share_pct` (share of operation time), plus
// `layer.coverage_pct` (all layers but the harness's own "bench" spans).
void reportLayers(const Tracer& tracer, std::uint64_t ops,
                  const std::vector<std::string>& layers, Result& r);

std::string jsonEscape(const std::string& s);

}  // namespace perfbench
