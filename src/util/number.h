// The one number rule for text inputs: trace files, checkpoints, manifests,
// replication records and command-line flags.
//
// A number is a whole token [+-]?[0-9]+ — no surrounding space, no base
// prefix, no exponent, no trailing junk — whose value lies in the field's
// [lo, hi]. A value that overflows the field's type is not a number. An
// unsigned field takes no minus sign, not even "-0": `istream >> uint64_t`
// would read "-1" as 2^64 - 1, which is how negative counts slipped past
// the stream-extraction readers this rule replaced.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace gpd {

// [+-]?[0-9]+ within long long; nullopt otherwise.
std::optional<long long> parseInteger(std::string_view token);

// [+]?[0-9]+ within uint64; nullopt otherwise.
std::optional<std::uint64_t> parseUnsigned(std::string_view token);

// A number in [lo, hi]. On failure returns nullopt and sets `fault` to
// "'<token>' is not an integer (<what>)" or
// "<what> <value> out of range [<lo>, <hi>]".
std::optional<long long> integerField(std::string_view token, const char* what,
                                      long long lo, long long hi,
                                      std::string* fault);

// integerField that throws gpd::InputError with the fault text.
long long integerIn(
    std::string_view token, const char* what,
    long long lo = std::numeric_limits<long long>::min(),
    long long hi = std::numeric_limits<long long>::max());

// A real number in [0, 1] (whole token, as std::stod reads it); throws
// InputError "'<token>' is not a probability in [0, 1] (<what>)".
double probabilityIn(std::string_view token, const char* what);

}  // namespace gpd
