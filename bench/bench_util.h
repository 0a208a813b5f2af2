// Shared helpers for the experiment harnesses.
#pragma once

#include <functional>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>

#include "gpd.h"

namespace gpd::bench {

// Median-of-3 wall time in milliseconds.
inline double timeMs(const std::function<void()>& fn) {
  double best[3];
  for (double& t : best) {
    Stopwatch sw;
    fn();
    t = sw.elapsedMillis();
  }
  if (best[0] > best[1]) std::swap(best[0], best[1]);
  if (best[1] > best[2]) std::swap(best[1], best[2]);
  if (best[0] > best[1]) std::swap(best[0], best[1]);
  return best[1];
}

inline std::string fmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

// One machine-readable result row, "BENCHROW <bench> key=value ...": the
// format bench/bench_gate.py reads for the CI gates. Values hold no spaces.
inline void emitRow(
    const std::string& bench,
    std::initializer_list<std::pair<const char*, std::string>> fields) {
  std::cout << "BENCHROW " << bench;
  for (const auto& [key, value] : fields) {
    std::cout << ' ' << key << '=' << value;
  }
  std::cout << std::endl;
}

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "=== " << id << " ===\n" << claim << "\n\n";
}

}  // namespace gpd::bench
