#include "io/token_reader.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "util/check.h"

namespace gpd::io {
namespace {

std::string faultOf(const std::function<void()>& read) {
  try {
    read();
  } catch (const InputError& e) {
    return e.what();
  }
  return "<no fault>";
}

TEST(TokenReaderTest, ReadsOneTokenAtATimeFromTheCallersStream) {
  std::istringstream is("  kind full\nepoch 7 rest of stream");
  TokenReader r(is, "manifest");
  r.keyword("kind");
  EXPECT_EQ(r.word("kind"), "full");
  r.keyword("epoch");
  EXPECT_EQ(r.counter("epoch"), 7u);
  std::string rest;
  std::getline(is, rest);
  EXPECT_EQ(rest, " rest of stream");
}

TEST(TokenReaderTest, FaultsNameTheFormatAndTheField) {
  std::istringstream truncated("");
  TokenReader a(truncated, "checkpoint");
  EXPECT_EQ(faultOf([&] { a.word("magic"); }),
            "checkpoint truncated while reading magic");

  std::istringstream wrong("stats");
  TokenReader b(wrong, "manifest");
  EXPECT_EQ(faultOf([&] { b.keyword("kind"); }),
            "manifest: expected 'kind', got 'stats'");

  std::istringstream junk("12abc");
  TokenReader c(junk, "checkpoint");
  EXPECT_EQ(faultOf([&] { c.integer("health", 0, 2); }),
            "checkpoint: malformed integer in health");

  std::istringstream high("3");
  TokenReader d(high, "checkpoint");
  EXPECT_EQ(faultOf([&] { d.integer("health", 0, 2); }),
            "checkpoint: health value 3 out of range [0, 2]");
}

TEST(TokenReaderTest, CounterTakesNoMinusSign) {
  std::istringstream is("-1 -0 4294967296");
  TokenReader r(is, "replication");
  EXPECT_EQ(faultOf([&] { r.counter("RPUMP command count"); }),
            "replication: malformed counter in RPUMP command count");
  EXPECT_THROW(r.counter("epoch"), InputError);
  EXPECT_EQ(faultOf([&] { r.counter("checksum", 0xffffffffu); }),
            "replication: checksum value 4294967296 out of range [0, "
            "4294967295]");
}

}  // namespace
}  // namespace gpd::io
