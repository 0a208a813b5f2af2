// src/obs/flight_recorder: the mmap-backed crash ring (DESIGN.md §16).
// record()/load()/dumpNow() are real code in both build modes — only the
// GPD_FR_RECORD macro compiles out under GPD_OBS_DISABLED — so these tests
// run identically everywhere.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "temp_path.h"
#include "util/check.h"

namespace gpd::obs {
namespace {

std::string ringPath(const char* name) {
  return uniqueTempPath(std::string("gpd_fr_") + name + ".ring");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FlightRecorder, RecordLoadRoundTrip) {
  const std::string path = ringPath("roundtrip");
  FlightRecorder fr;
  EXPECT_FALSE(fr.armed());
  fr.openRing(path, 8);
  EXPECT_TRUE(fr.armed());
  fr.record("pump", "i=%d in=%d", 0, 12);
  fr.record("ckpt", "epoch=%d", 1);
  fr.record("admit", "%s", "SHED t1 s1 busy");
  EXPECT_EQ(fr.recorded(), 3u);

  const FlightRecorder::Dump dump = FlightRecorder::load(path);
  EXPECT_EQ(dump.recorded, 3u);
  EXPECT_EQ(dump.slots, 8u);
  ASSERT_EQ(dump.entries.size(), 3u);
  EXPECT_EQ(dump.entries[0].index, 0u);
  EXPECT_NE(dump.entries[0].text.find("pump i=0 in=12"), std::string::npos)
      << dump.entries[0].text;
  EXPECT_EQ(dump.entries[2].index, 2u);
  EXPECT_NE(dump.entries[2].text.find("admit SHED t1 s1 busy"),
            std::string::npos);
  // Every entry records a timestamp.
  EXPECT_NE(dump.entries[1].text.find(" t="), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestEvents) {
  const std::string path = ringPath("wrap");
  FlightRecorder fr;
  fr.openRing(path, 4);
  for (int i = 0; i < 11; ++i) fr.record("ev", "n=%d", i);
  const FlightRecorder::Dump dump = FlightRecorder::load(path);
  EXPECT_EQ(dump.recorded, 11u);
  ASSERT_EQ(dump.entries.size(), 4u);
  // Oldest surviving event is 11 - 4 = 7; entries come back index-sorted.
  EXPECT_EQ(dump.entries.front().index, 7u);
  EXPECT_EQ(dump.entries.back().index, 10u);
  EXPECT_NE(dump.entries.back().text.find("ev n=10"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpNowWritesAWellFormedPostmortem) {
  const std::string path = ringPath("dump");
  const std::string post = path + ".postmortem";
  FlightRecorder fr;
  fr.openRing(path, 4);
  fr.record("start", "checkpoint=%s", "/tmp/x.ckpt");
  fr.record("drain", "open=%d", 0);
  ASSERT_TRUE(fr.dumpNow(post.c_str(), "sigterm-drain"));
  const std::string text = slurp(post);
  EXPECT_EQ(text.rfind("gpdfr dump reason=sigterm-drain recorded=2", 0), 0u)
      << text;
  EXPECT_NE(text.find("start checkpoint=/tmp/x.ckpt"), std::string::npos);
  EXPECT_NE(text.find("drain open=0"), std::string::npos);
  EXPECT_NE(text.find("gpdfr end\n"), std::string::npos);
  std::remove(post.c_str());
  std::remove(path.c_str());
}

TEST(FlightRecorder, ReopenTruncatesThePreviousRing) {
  const std::string path = ringPath("trunc");
  {
    FlightRecorder fr;
    fr.openRing(path, 4);
    fr.record("old", "gen=%d", 1);
  }
  {
    FlightRecorder fr;
    fr.openRing(path, 4);
    fr.record("new", "gen=%d", 2);
  }
  const FlightRecorder::Dump dump = FlightRecorder::load(path);
  EXPECT_EQ(dump.recorded, 1u);
  ASSERT_EQ(dump.entries.size(), 1u);
  EXPECT_NE(dump.entries[0].text.find("new gen=2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_THROW(FlightRecorder::load("/nonexistent/gpd.ring"), InputError);

  const std::string path = ringPath("corrupt");
  {
    std::ofstream out(path);
    out << "not a ring file at all";
  }
  EXPECT_THROW(FlightRecorder::load(path), InputError);

  // Right magic, wrong size.
  {
    std::ofstream out(path);
    out << "gpdfr1 slots=4 slot=192\n";
  }
  EXPECT_THROW(FlightRecorder::load(path), InputError);
  std::remove(path.c_str());
}

TEST(FlightRecorder, UnarmedRecorderIsInert) {
  FlightRecorder fr;
  EXPECT_FALSE(fr.armed());
  fr.record("ev", "n=%d", 1);  // no-op, must not crash
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_TRUE(fr.dumpNow("/nonexistent/should-not-be-written", "x"));
  GPD_FR_RECORD(fr, "ev", "n=%d", 2);  // macro path, also inert
  EXPECT_EQ(fr.recorded(), 0u);
}

}  // namespace
}  // namespace gpd::obs
