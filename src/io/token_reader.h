// Whitespace-token reader for the record formats: session checkpoints
// (checkpoint_io.h), gpdd manifests (service/engine.h), and replication
// records and delta-manifest headers (service/replica.h,
// service/manifest_log.h).
//
// It reads the caller's stream one token at a time and never past the
// token it returns, so a manifest's embedded checkpoints are read by
// io::readCheckpoint from the same stream. Numbers follow the one number
// rule (util/number.h): a counter takes no minus sign. Every fault throws
// gpd::InputError, prefixed with the format's name.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>

namespace gpd::io {

class TokenReader {
 public:
  // `format` names the stream in messages ("checkpoint", "manifest", ...).
  TokenReader(std::istream& is, const char* format)
      : is_(is), format_(format) {}

  std::string word(const char* what);

  // The next token, which must be `expected`.
  void keyword(const char* expected);

  // A signed number in [lo, hi].
  long long integer(const char* what, long long lo, long long hi);

  // An unsigned number no larger than `hi`.
  std::uint64_t counter(
      const char* what,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

 private:
  std::istream& is_;
  const char* format_;
};

}  // namespace gpd::io
