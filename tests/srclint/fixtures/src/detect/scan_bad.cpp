// srclint fixture — gpd-budget-charge MUST fire here: an odometer loop runs
// the one elimination scan (eliminationScan) once per selection and nothing
// in the loop body or its callee chain charges a Budget.
#include <vector>

namespace fx {

int eliminationScan(int selection);

int odometer(int total) {
  int hits = 0;
  for (int i = 0; i < total; ++i) {
    hits += eliminationScan(i);
  }
  return hits;
}

}  // namespace fx
