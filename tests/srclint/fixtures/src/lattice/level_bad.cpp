// srclint fixture — gpd-budget-charge MUST fire here: the BFS level loop
// runs the level-expansion kernel (expandLevel) once per lattice level and
// nothing in the loop body or its callee chain charges a Budget or polls a
// CancelToken, so an exponential lattice could never be stopped.
#include <vector>

namespace fx {

struct Level {
  std::vector<int> cuts;
  bool empty() const { return cuts.empty(); }
};

Level expandLevel(const Level& level);

int countLevels(Level level) {
  int levels = 0;
  while (!level.empty()) {
    level = expandLevel(level);
    ++levels;
  }
  return levels;
}

}  // namespace fx
