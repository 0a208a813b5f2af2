#ifndef GPD_OBS_OPENMETRICS_H_
#define GPD_OBS_OPENMETRICS_H_
// OpenMetrics text exposition for the obs registry (DESIGN.md §16).
//
// renderOpenMetrics() turns a MetricsSnapshot into the Prometheus/
// OpenMetrics text format: `# TYPE` metadata, counters as `<name>_total`,
// gauges as-is, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum`/`_count`, terminated by `# EOF`.  A gauge name with several label
// sets renders as one family with one labelled sample per set
// (`gpdd_tenant_sessions{tenant="<name>"}`), in label order.
//
// parseExposition() is the matching strict parser used by `gpdtool scrape`,
// the loadgen telemetry assertions, and the golden round-trip test.  It
// throws InputError on anything malformed (missing # EOF, bad escapes,
// unparseable sample values, TYPE after samples).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace gpd::obs {

// `buildInfo` renders as `gpdd_build_info{k1="v1",...} 1` (empty → omitted).
void renderOpenMetrics(std::ostream& os, const MetricsSnapshot& snap,
                       const Labels& buildInfo);

// One parsed sample line: name, labels in source order, value text parsed
// as double (exact for the integers the renderer emits).
struct ExpositionSample {
  std::string name;  // full sample name, e.g. "gpdd_pumps_total"
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
};

struct ExpositionFamily {
  std::string name;  // family name from # TYPE, e.g. "gpdd_pumps"
  std::string type;  // "counter" | "gauge" | "histogram" | "unknown"
  std::vector<ExpositionSample> samples;
};

struct Exposition {
  std::vector<ExpositionFamily> families;

  // nullptr when no sample matches.
  const ExpositionSample* find(const std::string& sampleName) const;
  // Value of an exact-name sample, or `fallback` when absent.
  double value(const std::string& sampleName, double fallback = 0) const;
};

Exposition parseExposition(const std::string& text);

}  // namespace gpd::obs

#endif  // GPD_OBS_OPENMETRICS_H_
