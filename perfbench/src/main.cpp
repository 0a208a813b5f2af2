// gpdbench: the harness behind perfbench/run.py.
//
//   gpdbench --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//            --gpdd PATH [--describe TEXT] [--inject-faults]
//
// Prints human-readable lines, one `meta` JSON line, and as its last line
// the result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set (a layer a workload does not exercise reads 0).
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/check.h"
#include "workloads.h"

#ifndef GPDBENCH_BUILD_TYPE
#define GPDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef GPDBENCH_CXX_FLAGS
#define GPDBENCH_CXX_FLAGS "unknown"
#endif
#ifndef GPDBENCH_COMPILER
#define GPDBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"throughput", "1/s"},     {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

// Every per-layer metric, in print order. BENCHMARK.json lists the same.
constexpr MetricName kPerLayer[] = {
    {"io.parse_ms", "ms"},
    {"io.parse_mib_s", "MiB/s"},
    {"clocks.build_ms", "ms"},
    {"analyze.plan_ms", "ms"},
    {"detect.query_ms.lattice-enumeration", "ms"},
    {"detect.query_ms.lattice-definitely", "ms"},
    {"detect.query_ms.slice-first", "ms"},
    {"detect.query_ms.cpdhb", "ms"},
    {"detect.query_ms.interval-definitely", "ms"},
    {"detect.query_ms.singular-chain-cover", "ms"},
    {"detect.query_ms.min-cut-extrema", "ms"},
    {"detect.query_ms.theorem-7-exact-sum", "ms"},
    {"detect.query_ms.symmetric-exact-sum-disjunction", "ms"},
    {"detect.count.lattice-enumeration", "count"},
    {"detect.count.lattice-definitely", "count"},
    {"detect.count.slice-first", "count"},
    {"detect.count.cpdhb", "count"},
    {"detect.count.interval-definitely", "count"},
    {"detect.count.singular-chain-cover", "count"},
    {"detect.count.min-cut-extrema", "count"},
    {"detect.count.theorem-7-exact-sum", "count"},
    {"detect.count.symmetric-exact-sum-disjunction", "count"},
    {"lattice.cuts", "count"},
    {"lattice.ns_per_cut", "ns"},
    {"lattice.frontier_peak_kib", "KiB"},
    {"slice.build_ms", "ms"},
    {"slice.explored_cuts", "count"},
    {"slice.predicted_cuts", "count"},
    {"cpdhb.invocations", "count"},
    {"cpdhb.combinations", "count"},
    {"frame.decode_mib_s", "MiB/s"},
    {"engine.submit_ms.p50", "ms"},
    {"engine.submit_ms.tail", "ms"},
    {"engine.pump_ms.p50", "ms"},
    {"engine.pump_ms.tail", "ms"},
    {"engine.pump_ns_per_notification", "ns"},
    {"par.shard_speedup", "x"},
    {"manifest.capture_ms.full", "ms"},
    {"manifest.capture_ms.delta", "ms"},
    {"manifest.kib.full", "KiB"},
    {"manifest.kib.delta", "KiB"},
    {"manifest.delta_session_share", "%"},
    {"engine.stats_ms", "ms"},
    {"telemetry.render_ms", "ms"},
    {"engine.estimated_mib", "MiB"},
    {"engine.open_sessions.min", "count"},
    {"engine.open_sessions.max", "count"},
    {"engine.notifications", "count"},
    {"engine.detections", "count"},
    {"engine.errors", "count"},
    {"engine.nacks", "count"},
    {"monitor.offer_ns", "ns"},
    {"server.pump_mean_us", "us"},
    {"transport.residual_ms", "ms"},
    {"client.busy_share", "%"},
    {"trace.overhead_pct", "%"},
    {"layer.io.self_ms", "ms"},
    {"layer.io.share_pct", "%"},
    {"layer.clocks.self_ms", "ms"},
    {"layer.clocks.share_pct", "%"},
    {"layer.analyze.self_ms", "ms"},
    {"layer.analyze.share_pct", "%"},
    {"layer.detect.self_ms", "ms"},
    {"layer.detect.share_pct", "%"},
    {"layer.lattice.self_ms", "ms"},
    {"layer.lattice.share_pct", "%"},
    {"layer.flow.self_ms", "ms"},
    {"layer.flow.share_pct", "%"},
    {"layer.service.self_ms", "ms"},
    {"layer.service.share_pct", "%"},
    {"layer.obs.self_ms", "ms"},
    {"layer.obs.share_pct", "%"},
    {"layer.bench.self_ms", "ms"},
    {"layer.bench.share_pct", "%"},
    {"layer.coverage_pct", "%"},
};

int usage() {
  std::cerr << "usage: gpdbench --workload audit-lattice|audit-poly|gpdd-stream"
               " --seed N --seconds S --trace 0|1 --work-dir DIR --gpdd PATH"
               " [--describe TEXT] [--inject-faults]\n";
  return 2;
}

std::string readFirstLine(const char* path) {
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  return line;
}

std::string metaJson(const Options& o) {
  const char* threads = std::getenv("GPD_THREADS");
  std::ostringstream os;
  os << "{\"meta\":{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
     << ",\"seconds\":" << o.seconds << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"build_type\":\"" << GPDBENCH_BUILD_TYPE << "\",\"cxx_flags\":\""
     << jsonEscape(GPDBENCH_CXX_FLAGS) << "\",\"compiler\":\""
     << jsonEscape(GPDBENCH_COMPILER) << "\",\"describe\":\""
     << jsonEscape(o.describe) << "\",\"nproc\":"
     << std::thread::hardware_concurrency() << ",\"loadavg\":\""
     << jsonEscape(readFirstLine("/proc/loadavg")) << "\",\"GPD_THREADS\":\""
     << (threads ? jsonEscape(threads) : std::string("unset"))
     << "\",\"gpdd_log_level\":\"warn\"}}";
  return os.str();
}

void mkdirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') ::mkdir(path.substr(0, i).c_str(), 0755);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("flag " + a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = value() == "1";
      else if (a == "--work-dir") o.workDir = value();
      else if (a == "--gpdd") o.gpddPath = value();
      else if (a == "--describe") o.describe = value();
      else if (a == "--inject-faults") o.injectFaults = true;
      else return usage();
    } catch (const std::exception& e) {
      std::cerr << "gpdbench: " << e.what() << '\n';
      return usage();
    }
  }
  if (o.workDir.empty() || o.seconds <= 0) return usage();
  mkdirs(o.workDir);

  Result r;
  try {
    if (o.workload == "audit-lattice") r = runAuditLattice(o);
    else if (o.workload == "audit-poly") r = runAuditPoly(o);
    else if (o.workload == "gpdd-stream") r = runGpddStream(o);
    else if (o.workload == "reference-check") r = runReferenceCheck(o);
    else return usage();
  } catch (const std::exception& e) {
    std::cerr << "gpdbench: " << o.workload << " failed: " << e.what() << '\n';
    return 1;
  }

  for (const std::string& line : r.info) std::cout << line << '\n';
  const std::string meta = metaJson(o);
  std::cout << meta << '\n';

  std::ostringstream js;
  js.precision(10);
  js << "{\"correct\": " << (r.failed == 0 && r.crossChecksOk ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, const char* unit) {
    double value = 0;
    bool found = false;
    for (const Metric& m : r.metrics) {
      if (m.name == name) {
        value = m.value;
        found = true;
      }
    }
    if (!found && !o.trace) {
      std::cerr << "gpdbench: workload did not report " << name << '\n';
    }
    js << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (o.trace) {
    for (const MetricName& m : kPerLayer) emit(m.name, m.unit);
  } else {
    for (const MetricName& m : kEndToEnd) emit(m.name, m.unit);
  }
  js << "}}";
  for (const Metric& m : r.metrics) {
    bool known = false;
    for (const MetricName& k : kPerLayer) known = known || m.name == k.name;
    for (const MetricName& k : kEndToEnd) known = known || m.name == k.name;
    if (!known) {
      std::cout << "unlisted metric " << m.name << " = " << m.value << ' '
                << m.unit << '\n';
    }
  }
  std::cout << js.str() << std::endl;
  return 0;
}
