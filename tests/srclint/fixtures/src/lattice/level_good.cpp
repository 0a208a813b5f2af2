// srclint fixture — silent twin of level_bad.cpp: the same level loop, but
// it charges the budget before every kernel call, so an exhausted budget
// stops the BFS between levels.
#include <vector>

namespace fx {

struct Level {
  std::vector<int> cuts;
  bool empty() const { return cuts.empty(); }
};

struct Budget {
  bool chargeCut();
};

Level expandLevel(const Level& level);

int countLevels(Level level, Budget* budget) {
  int levels = 0;
  while (!level.empty()) {
    if (!budget->chargeCut()) break;
    level = expandLevel(level);
    ++levels;
  }
  return levels;
}

}  // namespace fx
