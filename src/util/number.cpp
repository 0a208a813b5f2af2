#include "util/number.h"

#include <limits>
#include <sstream>

#include "util/check.h"

namespace gpd {

namespace {

// [0-9]+ within uint64.
std::optional<std::uint64_t> digits(std::string_view token) {
  if (token.empty()) return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

}  // namespace

std::optional<long long> parseInteger(std::string_view token) {
  const bool negative = !token.empty() && token[0] == '-';
  if (!token.empty() && (token[0] == '+' || negative)) token.remove_prefix(1);
  const auto magnitude = digits(token);
  if (!magnitude) return std::nullopt;
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<long long>::max());
  if (!negative) {
    if (*magnitude > kMax) return std::nullopt;
    return static_cast<long long>(*magnitude);
  }
  if (*magnitude > kMax + 1) return std::nullopt;
  if (*magnitude == 0) return 0;
  return -static_cast<long long>(*magnitude - 1) - 1;
}

std::optional<std::uint64_t> parseUnsigned(std::string_view token) {
  if (!token.empty() && token[0] == '+') token.remove_prefix(1);
  return digits(token);
}

std::optional<long long> integerField(std::string_view token, const char* what,
                                      long long lo, long long hi,
                                      std::string* fault) {
  const auto v = parseInteger(token);
  if (v && *v >= lo && *v <= hi) return v;
  std::ostringstream os;
  if (!v) {
    os << '\'' << token << "' is not an integer (" << what << ')';
  } else {
    os << what << ' ' << *v << " out of range [" << lo << ", " << hi << ']';
  }
  *fault = os.str();
  return std::nullopt;
}

long long integerIn(std::string_view token, const char* what, long long lo,
                    long long hi) {
  std::string fault;
  const auto v = integerField(token, what, lo, hi, &fault);
  if (!v) throw InputError(fault);
  return *v;
}

double probabilityIn(std::string_view token, const char* what) {
  const std::string word(token);
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(word, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  GPD_INPUT_CHECK(used == word.size() && !word.empty() &&
                      word.find_first_of(" \t\n\v\f\r") == std::string::npos &&
                      v >= 0.0 && v <= 1.0,
                  "'" << word << "' is not a probability in [0, 1] (" << what
                      << ")");
  return v;
}

}  // namespace gpd
