// A14 — gpdd live telemetry overhead (`bench_telemetry`).
//
// PR 9 wires the service loop with the full telemetry surface: per-pump
// counters/gauges/histograms, a per-pump flight-recorder event, a per-pump
// (suppressed) debug log event, per-tenant gauge publication, and a
// periodic OpenMetrics render.  The default-on contract is the same as
// A10's: all of it must cost < 2% against a -DGPD_OBS_DISABLED=ON build of
// the identical soak.  The kernel is an in-process Engine soak shaped like
// the CI chaos run — 2500 sessions submitting events, pumping in batches,
// closing — printed as a machine-readable `BENCHROW telemetry` line that CI
// diffs across the two builds.
//
// The OpenMetrics render itself runs in BOTH modes (gpdd's scrape surface
// never disappears; the kill-switch registry just renders zeros), so the
// diff isolates exactly the instrumentation that compiles out.
#include <cstdio>
#include <sstream>

#include "bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "service/engine.h"
#include "util/stopwatch.h"

namespace {

using namespace gpd;

#ifndef GPD_OBS_DISABLED
constexpr const char* kMode = "default-on";
#else
constexpr const char* kMode = "disabled";
#endif

std::string tenantSession(int i) {
  std::string id = "t";
  id += std::to_string(i % 16);
  id += " s";
  id += std::to_string(i);
  return id;
}

// One full soak: open/feed/pump/close kSessions sessions with the gpdd
// telemetry surface active around every pump. Returns elapsed ms and
// accumulates rendered bytes so the render cannot be optimized away.
double soak(int sessions, obs::FlightRecorder& recorder,
            std::size_t* renderedBytes) {
  service::Engine eng{service::EngineOptions{}};
  std::vector<service::Response> out;
  Stopwatch sw;
  std::uint64_t pumps = 0;
  const auto pumpOnce = [&] {
    Stopwatch pumpTimer;
    out.clear();
    eng.pump(out);
    GPD_OBS_HISTOGRAM("gpdd_pump_nanos", pumpTimer.elapsedNanos());
    GPD_OBS_COUNTER_ADD("gpdd_pumps", 1);
    GPD_OBS_GAUGE_SET("gpdd_queue_depth", 0);
    GPD_LOG_DEBUG("pump", "batch done")
        .kv("i", pumps)
        .kv("out", static_cast<std::uint64_t>(out.size()));
    GPD_FR_RECORD(recorder, "pump", "i=%llu out=%zu",
                  static_cast<unsigned long long>(pumps), out.size());
    ++pumps;
    if (pumps % 20 == 0) {
      eng.publishTenantMetrics();
      std::ostringstream os;
      obs::renderOpenMetrics(os, obs::registry().snapshot(),
                             {{"version", "bench"}, {"obs", kMode}});
      *renderedBytes += os.str().size();
    }
  };
  for (int i = 0; i < sessions; ++i) {
    const std::string ts = tenantSession(i);
    eng.submit("OPEN " + ts + " 3");
    eng.submit("EV " + ts + " 0 1 2 0 0");
    eng.submit("EV " + ts + " 1 0 1 0 1");
    if (i % 50 == 49) pumpOnce();
  }
  for (int i = 0; i < sessions; ++i) {
    eng.submit("CLOSE " + tenantSession(i));
    if (i % 50 == 49) pumpOnce();
  }
  pumpOnce();
  return sw.elapsedMillis();
}

}  // namespace

int main() {
  using namespace gpd;
  bench::banner(
      "A14 / gpdd live telemetry overhead",
      "Engine soak with the full PR 9 telemetry surface armed: per-pump "
      "metrics + flight-recorder + suppressed debug log + periodic "
      "OpenMetrics render. Compare BENCHROW lines across a default-on and "
      "a -DGPD_OBS_DISABLED=ON build: target < 2% overhead.");

  obs::registry().reset();
  // The suppressed-debug path is the shipping default: level info, so the
  // per-pump GPD_LOG_DEBUG event is filtered before rendering.
  obs::log::setLevel(obs::log::Level::kInfo);

  obs::FlightRecorder recorder;
  const std::string ringPath = "/tmp/gpd_bench_telemetry.ring";
  recorder.openRing(ringPath, 256);

  constexpr int kSessions = 2500;
  std::size_t renderedBytes = 0;
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    best = std::min(best, soak(kSessions, recorder, &renderedBytes));
  }

  std::printf("soak: %d sessions, %zu rendered scrape bytes, ring %s\n",
              kSessions, renderedBytes, ringPath.c_str());
  bench::emitRow("telemetry", {{"mode", kMode},
                               {"kernel", "engine-soak"},
                               {"ms", bench::fmtMs(best)}});
  std::remove(ringPath.c_str());
  return 0;
}
