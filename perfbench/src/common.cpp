#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

LatencySummary summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = median(values);
  const std::size_t n = values.size();
  if (n >= 11) {
    s.tail = values[n - 11];
    s.tailPercentile = 100.0 * static_cast<double>(n - 10) /
                       static_cast<double>(n);
  } else {
    s.tail = values.back();
    s.tailPercentile = 100;
  }
  return s;
}

double selfPeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int Tracer::begin(const std::string& name, const std::string& layer,
                  std::uint64_t op, int parent) {
  spans_.push_back({name, layer, nowNs(), 0, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::add(const std::string& name, const std::string& layer,
                std::uint64_t op, int parent, std::int64_t start,
                std::int64_t end) {
  spans_.push_back({name, layer, start, end, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::rename(int id, const std::string& name, const std::string& layer) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.name = name;
  s.layer = layer;
}

std::map<std::string, double> Tracer::selfNsByLayer() const {
  std::vector<double> childNs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childNs[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += std::max(0.0, static_cast<double>(s.end - s.start) -
                                      childNs[i]);
  }
  return out;
}

double Tracer::rootNs() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += static_cast<double>(s.end - s.start);
  }
  return total;
}

void Tracer::writeJsonLines(const std::string& path,
                            const std::string& meta) const {
  std::ofstream os(path);
  os << meta << '\n';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"op\":" << s.op << ",\"parent\":" << s.parent
       << ",\"name\":\"" << jsonEscape(s.name) << "\",\"layer\":\""
       << jsonEscape(s.layer) << "\",\"start_ns\":" << s.start
       << ",\"end_ns\":" << s.end << "}\n";
  }
}

void reportLayers(const Tracer& tracer, std::uint64_t ops,
                  const std::vector<std::string>& layers, Result& r) {
  const std::map<std::string, double> self = tracer.selfNsByLayer();
  const double root = tracer.rootNs();
  double covered = 0;
  std::ostringstream line;
  line << "layer self time per operation:";
  for (const std::string& layer : layers) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0 : it->second;
    if (layer != "bench") covered += ns;
    const double perOpMs = ops == 0 ? 0 : ns / 1e6 / static_cast<double>(ops);
    const double share = root > 0 ? 100.0 * ns / root : 0;
    r.set("layer." + layer + ".self_ms", perOpMs, "ms");
    r.set("layer." + layer + ".share_pct", share, "%");
    if (ns > 0) line << ' ' << layer << '=' << perOpMs << "ms(" << share << "%)";
  }
  const double coverage = root > 0 ? 100.0 * covered / root : 0;
  r.set("layer.coverage_pct", coverage, "%");
  line << " | layers cover " << coverage << "% of operation time";
  r.note(line.str());
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
