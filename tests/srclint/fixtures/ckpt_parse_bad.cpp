// srclint fixture — gpd-checkpoint-symmetry MUST fire here via the
// write*/parse* pairing (the trace-format shape): readState only wraps the
// grammar in parseState, which never reads the "cursor" key writeState
// emits.
#include <istream>
#include <ostream>
#include <string>

namespace fx {

void writeState(std::ostream& os, int epoch, int cursor) {
  os << "epoch " << epoch << "\n";
  os << "cursor " << cursor << "\n";
}

void parseState(std::istream& is, int& epoch) {
  std::string key;
  while (is >> key) {
    if (key == "epoch") is >> epoch;
  }
}

void readState(std::istream& is, int& epoch) { parseState(is, epoch); }

}  // namespace fx
