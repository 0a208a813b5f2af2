#include "io/checkpoint_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "monitor/session.h"
#include "temp_path.h"
#include "util/check.h"

namespace gpd::io {
namespace {

using monitor::MonitorSession;
using monitor::SessionSnapshot;

// Builds a session with every kind of state populated: a delivered stream,
// an open gap with a parked notification, an announced end, a detection-free
// monitor queue, and non-trivial stats.
SessionSnapshot busySnapshot() {
  monitor::SessionOptions opt;
  opt.retryTimeout = 8;
  opt.maxRetries = 2;
  opt.reorderWindow = 1;
  MonitorSession s(3, opt);
  s.deliver(0, 0, {1, 0, 0});
  s.deliver(0, 0, {1, 0, 0});  // duplicate, for the stats
  s.deliver(1, 2, {0, 5, 0});  // early: buffered, gap open
  s.deliver(1, 4, {0, 9, 0});  // farthest-future: evicted from the window
  s.deliver(2, 0, {2, 0, 1});  // eliminates p0's head
  s.announceEnd(2, 1);
  return s.snapshot();
}

TEST(CheckpointIoTest, RoundTripPreservesEveryField) {
  const SessionSnapshot a = busySnapshot();
  std::stringstream buffer;
  writeCheckpoint(buffer, a);
  const SessionSnapshot b = readCheckpoint(buffer);

  EXPECT_EQ(b.monitor.processes, a.monitor.processes);
  EXPECT_EQ(b.monitor.queues, a.monitor.queues);
  EXPECT_EQ(b.monitor.lastOwn, a.monitor.lastOwn);
  EXPECT_EQ(b.monitor.detected, a.monitor.detected);
  EXPECT_EQ(b.monitor.degraded, a.monitor.degraded);
  EXPECT_EQ(b.monitor.witness, a.monitor.witness);
  EXPECT_EQ(b.monitor.comparisons, a.monitor.comparisons);
  EXPECT_EQ(b.monitor.enqueued, a.monitor.enqueued);
  EXPECT_EQ(b.monitor.overflowDropped, a.monitor.overflowDropped);
  EXPECT_EQ(b.monitor.overflowRejected, a.monitor.overflowRejected);
  EXPECT_EQ(b.now, a.now);
  EXPECT_EQ(b.nextSeq, a.nextSeq);
  EXPECT_EQ(b.buffers, a.buffers);
  EXPECT_EQ(b.health, a.health);
  EXPECT_EQ(b.gapActive, a.gapActive);
  EXPECT_EQ(b.gapDeadline, a.gapDeadline);
  EXPECT_EQ(b.gapRetriesLeft, a.gapRetriesLeft);
  EXPECT_EQ(b.endAnnounced, a.endAnnounced);
  EXPECT_EQ(b.announcedCount, a.announcedCount);
  EXPECT_EQ(b.evictedUpper, a.evictedUpper);
  EXPECT_NE(a.evictedUpper, std::vector<std::uint64_t>(3, 0));
  EXPECT_EQ(b.stats.delivered, a.stats.delivered);
  EXPECT_EQ(b.stats.bufferEvicted, a.stats.bufferEvicted);
  EXPECT_EQ(b.stats.duplicates, a.stats.duplicates);
  EXPECT_EQ(b.stats.buffered, a.stats.buffered);
  EXPECT_EQ(b.stats.nacksSent, a.stats.nacksSent);
  EXPECT_EQ(b.stats.gapsDetected, a.stats.gapsDetected);
  EXPECT_EQ(b.stats.gapsRecovered, a.stats.gapsRecovered);
  EXPECT_EQ(b.stats.degradedStreams, a.stats.degradedStreams);
}

TEST(CheckpointIoTest, RoundTripOfDetectedSessionKeepsWitness) {
  MonitorSession s(2);
  s.deliver(0, 0, {1, 0});
  s.deliver(1, 0, {0, 1});
  ASSERT_TRUE(s.detected());

  std::stringstream buffer;
  writeCheckpoint(buffer, s.snapshot());
  MonitorSession restored = MonitorSession::restore(readCheckpoint(buffer));
  EXPECT_TRUE(restored.detected());
  EXPECT_EQ(restored.verdict(), monitor::Verdict::Detected);
  EXPECT_EQ(restored.monitor().witness(), s.monitor().witness());
}

TEST(CheckpointIoTest, FileRoundTrip) {
  const std::string path = uniqueTempPath("gpd_checkpoint_io_test.ckpt");
  const SessionSnapshot a = busySnapshot();
  saveCheckpoint(path, a);
  const SessionSnapshot b = loadCheckpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(b.nextSeq, a.nextSeq);
  EXPECT_EQ(b.monitor.queues, a.monitor.queues);
}

TEST(CheckpointIoTest, MissingFileIsInputError) {
  EXPECT_THROW(loadCheckpoint("/nonexistent/gpd.ckpt"), InputError);
}

std::string serialized() {
  std::stringstream buffer;
  writeCheckpoint(buffer, busySnapshot());
  return buffer.str();
}

TEST(CheckpointIoTest, RejectsBadMagic) {
  std::istringstream is("gpd-trace 1\n");
  EXPECT_THROW(readCheckpoint(is), InputError);
}

TEST(CheckpointIoTest, RejectsWrongVersion) {
  std::istringstream is("gpd-checkpoint 99\n");
  EXPECT_THROW(readCheckpoint(is), InputError);
}

TEST(CheckpointIoTest, RejectsEveryTruncationPoint) {
  const std::string text = serialized();
  // Cutting the stream anywhere before the final 'end' must raise InputError,
  // never crash or return a half-read snapshot.
  for (std::size_t cut = 0; cut + 4 < text.size(); cut += 7) {
    std::istringstream is(text.substr(0, cut));
    EXPECT_THROW(readCheckpoint(is), InputError) << "cut at " << cut;
  }
}

TEST(CheckpointIoTest, RejectsOutOfRangeHealth) {
  std::string text = serialized();
  const auto pos = text.find("health");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("health 0").size(), "health 9");
  std::istringstream is(text);
  EXPECT_THROW(readCheckpoint(is), InputError);
}

TEST(CheckpointIoTest, RejectsNonNumericCounter) {
  // "now -1" is the unsigned-field case: `istream >> uint64_t` would have
  // read it as 2^64 - 1.
  for (const char* bad : {"now x", "now -1"}) {
    std::string text = serialized();
    const auto pos = text.find("now ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 5, bad);
    std::istringstream is(text);
    EXPECT_THROW(readCheckpoint(is), InputError) << bad;
  }
}

TEST(CheckpointIoTest, RejectsHostileProcessCount) {
  std::istringstream is("gpd-checkpoint 1\nprocesses 99999999999\n");
  EXPECT_THROW(readCheckpoint(is), InputError);
}

TEST(CheckpointIoTest, SliceTrailerRoundTrips) {
  SessionSnapshot a = busySnapshot();
  a.monitor.sliceAborts = 3;
  a.monitor.pendingFullScan = true;
  std::stringstream buffer;
  writeCheckpoint(buffer, a);
  EXPECT_NE(buffer.str().find("slices 3 1"), std::string::npos);
  const SessionSnapshot b = readCheckpoint(buffer);
  EXPECT_EQ(b.monitor.sliceAborts, 3u);
  EXPECT_TRUE(b.monitor.pendingFullScan);
}

TEST(CheckpointIoTest, SliceFreeCheckpointOmitsTrailerAndStillLoads) {
  // Slice-free snapshots serialize byte-identically to the pre-slice format
  // (no "slices" line), and such files — including ones written before the
  // trailer existed — load with the slice state defaulted.
  const std::string text = serialized();
  EXPECT_EQ(text.find("slices"), std::string::npos);
  std::istringstream is(text);
  const SessionSnapshot b = readCheckpoint(is);
  EXPECT_EQ(b.monitor.sliceAborts, 0u);
  EXPECT_FALSE(b.monitor.pendingFullScan);
}

TEST(CheckpointIoTest, RejectsMalformedSliceTrailer) {
  SessionSnapshot a = busySnapshot();
  a.monitor.sliceAborts = 1;
  std::stringstream buffer;
  writeCheckpoint(buffer, a);
  std::string text = buffer.str();
  const auto pos = text.find("slices 1 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("slices 1 0").size(), "slices 1 7");
  std::istringstream is(text);
  EXPECT_THROW(readCheckpoint(is), InputError);
}

TEST(CheckpointIoTest, SemanticCorruptionIsCaughtByRestore) {
  // Structurally valid checkpoint whose monitor queue violates program
  // order: readCheckpoint accepts it, MonitorSession::restore rejects it.
  std::string text = serialized();
  const std::string original = "queue 2 1\nclock 2 0 1";
  const auto pos = text.find(original);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, original.size(),
               "queue 2 2\nclock 2 0 5\nclock 2 0 1");
  std::istringstream is(text);
  const SessionSnapshot snap = readCheckpoint(is);
  EXPECT_THROW(MonitorSession::restore(snap), InputError);
}

}  // namespace
}  // namespace gpd::io
