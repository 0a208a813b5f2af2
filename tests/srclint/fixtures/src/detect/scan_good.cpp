// srclint fixture — silent twin of scan_bad.cpp: the same odometer loop,
// charging one combination per selection before the scan.
#include <vector>

namespace fx {

int eliminationScan(int selection);

struct Budget {
  bool chargeCombination();
};

int odometer(int total, Budget* b) {
  int hits = 0;
  for (int i = 0; i < total; ++i) {
    if (!b->chargeCombination()) break;
    hits += eliminationScan(i);
  }
  return hits;
}

}  // namespace fx
