#include "obs/openmetrics.h"

#include <cstdlib>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace gpd::obs {

namespace {

// Upper bound of log2 bucket i as a decimal string: bucket 0 holds value 0,
// bucket i holds [2^(i-1), 2^i), whose largest integer is 2^i - 1.
std::string bucketLe(int i) {
  if (i == 0) return "0";
  if (i >= 64) return "18446744073709551615";  // 2^64 - 1
  return std::to_string((1ull << i) - 1);
}

}  // namespace

void renderOpenMetrics(std::ostream& os, const MetricsSnapshot& snap,
                       const Labels& buildInfo) {
  for (const auto& [name, value] : snap.counters) {
    os << "# TYPE " << name << " counter\n";
    os << name << "_total " << value << "\n";
  }

  // One # TYPE per run of same-name gauges: the snapshot sorts a name's
  // label sets together.
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const MetricsSnapshot::GaugeValue& g = snap.gauges[i];
    if (i == 0 || snap.gauges[i - 1].name != g.name) {
      os << "# TYPE " << g.name << " gauge\n";
    }
    os << seriesName(g.name, g.labels) << " " << g.value << "\n";
  }

  if (!buildInfo.empty()) {
    os << "# TYPE gpdd_build_info gauge\n";
    os << seriesName("gpdd_build_info", buildInfo) << " 1\n";
  }

  for (const MetricsSnapshot::HistogramValue& h : snap.histograms) {
    os << "# TYPE " << h.name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      cumulative += h.buckets[i];
      os << h.name << "_bucket{le=\"" << bucketLe(i) << "\"} " << cumulative
         << "\n";
    }
    os << h.name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << h.name << "_sum " << h.sum << "\n";
    os << h.name << "_count " << h.count << "\n";
  }

  os << "# EOF\n";
}

namespace {

[[noreturn]] void parseFail(std::size_t lineNo, const std::string& why) {
  throw InputError("openmetrics: line " + std::to_string(lineNo) + ": " + why);
}

bool validMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

// True when `sample` belongs to the family `family` — equal, or equal plus
// one of the reserved suffixes.
bool inFamily(const std::string& sample, const std::string& family) {
  if (sample.compare(0, family.size(), family) != 0) return false;
  const std::string rest = sample.substr(family.size());
  return rest.empty() || rest == "_total" || rest == "_bucket" ||
         rest == "_sum" || rest == "_count";
}

}  // namespace

const ExpositionSample* Exposition::find(const std::string& sampleName) const {
  for (const ExpositionFamily& fam : families) {
    for (const ExpositionSample& s : fam.samples) {
      if (s.name == sampleName) return &s;
    }
  }
  return nullptr;
}

double Exposition::value(const std::string& sampleName, double fallback) const {
  const ExpositionSample* s = find(sampleName);
  return s ? s->value : fallback;
}

Exposition parseExposition(const std::string& text) {
  Exposition out;
  ExpositionFamily* current = nullptr;
  bool sawEof = false;
  std::size_t lineNo = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lineNo;
    if (sawEof && !line.empty()) parseFail(lineNo, "content after # EOF");
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == "# EOF") {
        sawEof = true;
        continue;
      }
      std::istringstream meta(line);
      std::string hash, kind, name, type;
      meta >> hash >> kind;
      if (kind == "TYPE") {
        if (!(meta >> name >> type)) parseFail(lineNo, "malformed # TYPE");
        if (!validMetricName(name)) {
          parseFail(lineNo, "invalid family name '" + name + "'");
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "unknown") {
          parseFail(lineNo, "unknown family type '" + type + "'");
        }
        out.families.push_back(ExpositionFamily{name, type, {}});
        current = &out.families.back();
        continue;
      }
      if (kind == "HELP" || kind == "UNIT") continue;
      parseFail(lineNo, "unrecognized comment '" + line + "'");
    }

    // Sample line: name[{labels}] value
    ExpositionSample sample;
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    sample.name = line.substr(0, pos);
    if (!validMetricName(sample.name)) {
      parseFail(lineNo, "invalid sample name '" + sample.name + "'");
    }
    if (pos < line.size() && line[pos] == '{') {
      ++pos;  // past '{'
      while (pos < line.size() && line[pos] != '}') {
        std::size_t eq = line.find('=', pos);
        if (eq == std::string::npos) parseFail(lineNo, "label missing '='");
        const std::string key = line.substr(pos, eq - pos);
        if (!validMetricName(key)) {
          parseFail(lineNo, "invalid label name '" + key + "'");
        }
        pos = eq + 1;
        if (pos >= line.size() || line[pos] != '"') {
          parseFail(lineNo, "label value must be quoted");
        }
        ++pos;  // past opening quote
        std::string value;
        bool closed = false;
        while (pos < line.size()) {
          const char c = line[pos];
          if (c == '\\') {
            if (pos + 1 >= line.size()) parseFail(lineNo, "dangling escape");
            const char esc = line[pos + 1];
            if (esc == '\\') value += '\\';
            else if (esc == '"') value += '"';
            else if (esc == 'n') value += '\n';
            else parseFail(lineNo, "bad escape in label value");
            pos += 2;
            continue;
          }
          if (c == '"') {
            closed = true;
            ++pos;
            break;
          }
          value += c;
          ++pos;
        }
        if (!closed) parseFail(lineNo, "unterminated label value");
        sample.labels.emplace_back(key, value);
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      if (pos >= line.size() || line[pos] != '}') {
        parseFail(lineNo, "unterminated label set");
      }
      ++pos;  // past '}'
    }
    if (pos >= line.size() || line[pos] != ' ') {
      parseFail(lineNo, "missing sample value");
    }
    const std::string valueText = line.substr(pos + 1);
    if (valueText.empty() || valueText.find(' ') != std::string::npos) {
      parseFail(lineNo, "malformed sample value '" + valueText + "'");
    }
    char* end = nullptr;
    sample.value = std::strtod(valueText.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      parseFail(lineNo, "unparseable sample value '" + valueText + "'");
    }
    if (current == nullptr || !inFamily(sample.name, current->name)) {
      parseFail(lineNo,
                "sample '" + sample.name + "' outside its # TYPE family");
    }
    current->samples.push_back(std::move(sample));
  }
  if (!sawEof) throw InputError("openmetrics: missing # EOF terminator");
  return out;
}

}  // namespace gpd::obs
