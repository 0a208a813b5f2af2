// srclint fixture — silent twin of ckpt_parse_bad.cpp: every key writeState
// emits is matched back in parseState, the grammar readState wraps.
#include <istream>
#include <ostream>
#include <string>

namespace fx {

void writeState(std::ostream& os, int epoch, int cursor) {
  os << "epoch " << epoch << "\n";
  os << "cursor " << cursor << "\n";
}

void parseState(std::istream& is, int& epoch, int& cursor) {
  std::string key;
  while (is >> key) {
    if (key == "epoch") is >> epoch;
    if (key == "cursor") is >> cursor;
  }
}

void readState(std::istream& is, int& epoch, int& cursor) {
  parseState(is, epoch, cursor);
}

}  // namespace fx
