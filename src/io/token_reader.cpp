#include "io/token_reader.h"

#include <istream>

#include "util/check.h"
#include "util/number.h"

namespace gpd::io {

std::string TokenReader::word(const char* what) {
  std::string w;
  GPD_INPUT_CHECK(static_cast<bool>(is_ >> w),
                  format_ << " truncated while reading " << what);
  return w;
}

void TokenReader::keyword(const char* expected) {
  const std::string w = word(expected);
  GPD_INPUT_CHECK(w == expected, format_ << ": expected '" << expected
                                         << "', got '" << w << "'");
}

long long TokenReader::integer(const char* what, long long lo, long long hi) {
  const std::string w = word(what);
  const auto v = parseInteger(w);
  GPD_INPUT_CHECK(v.has_value(),
                  format_ << ": malformed integer in " << what);
  GPD_INPUT_CHECK(*v >= lo && *v <= hi,
                  format_ << ": " << what << " value " << *v
                          << " out of range [" << lo << ", " << hi << "]");
  return *v;
}

std::uint64_t TokenReader::counter(const char* what, std::uint64_t hi) {
  const std::string w = word(what);
  const auto v = parseUnsigned(w);
  GPD_INPUT_CHECK(v.has_value(),
                  format_ << ": malformed counter in " << what);
  GPD_INPUT_CHECK(*v <= hi, format_ << ": " << what << " value " << *v
                                    << " out of range [0, " << hi << "]");
  return *v;
}

}  // namespace gpd::io
