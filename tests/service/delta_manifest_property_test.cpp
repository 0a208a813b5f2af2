// Delta-manifest chain and replication properties behind gpdd's HA story:
//
//  * a full manifest plus its delta chain restores byte-identically to the
//    live engine, across 200 seeded workloads with captures sprinkled at
//    random pump boundaries;
//  * a corrupted or missing middle delta is refused with gpd::InputError —
//    both at the Engine::applyDeltaText layer and through ManifestLog's
//    on-disk recovery;
//  * delta checkpoint bytes scale with *dirty* sessions, not open ones;
//  * a leader's record stream replayed through ReplicationFollower yields a
//    bit-identical engine, and surviving two failovers in a row (leader →
//    promoted follower → promoted follower of the promoted follower) is
//    still recovery-equivalent to an uninterrupted control run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "service/engine.h"
#include "service/manifest_log.h"
#include "service/replica.h"
#include "util/check.h"
#include "util/rng.h"

#include "workload_gen.h"

namespace gpd::service {
namespace {

std::string manifestOf(Engine& eng) {
  std::ostringstream os;
  eng.writeManifest(os);
  return os.str();
}

void pumpBatch(Engine& eng, const Batch& batch, std::string* transcript) {
  for (const std::string& c : batch) eng.submit(c);
  std::vector<Response> out;
  eng.pump(out);
  if (transcript == nullptr) return;
  for (const Response& r : out) {
    *transcript += r.payload;
    *transcript += '\n';
  }
}

TEST(DeltaManifestProperty, FullPlusDeltasRestoreIsByteIdentical) {
  std::size_t deltasApplied = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto batches = makeWorkload(seed);
    const EngineOptions opt = optionsForSeed(seed);
    Rng capRng(seed * 6151 + 3);
    Engine live(opt);

    // Anchor the chain with a full capture up front, then capture a delta
    // at a random subset of pump boundaries and once at the end so the
    // restored replica lands exactly on the live engine's state.
    const CheckpointCapture full = live.captureCheckpoint(false);
    ASSERT_FALSE(full.delta) << "seed " << seed;
    std::vector<std::string> deltas;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      pumpBatch(live, batches[b], nullptr);
      if (b + 1 == batches.size() || capRng.chance(0.5)) {
        const CheckpointCapture cap = live.captureCheckpoint(true);
        ASSERT_TRUE(cap.delta) << "seed " << seed << " batch " << b;
        deltas.push_back(cap.text);
      }
    }

    auto restored = Engine::restoreManifestText(full.text, opt);
    for (const std::string& d : deltas) restored->applyDeltaText(d);
    deltasApplied += deltas.size();
    ASSERT_EQ(manifestOf(live), manifestOf(*restored)) << "seed " << seed;
  }
  // Not vacuous: the 200 seeds applied a real number of deltas.
  EXPECT_GT(deltasApplied, 400u);
}

TEST(DeltaManifestProperty, CorruptedOrSkippedDeltaIsRefused) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto batches = makeWorkload(seed);
    const EngineOptions opt = optionsForSeed(seed);
    Engine live(opt);
    const CheckpointCapture full = live.captureCheckpoint(false);
    std::vector<std::string> deltas;
    for (const Batch& b : batches) {
      pumpBatch(live, b, nullptr);
      deltas.push_back(live.captureCheckpoint(true).text);
    }
    ASSERT_GE(deltas.size(), 3u);

    // Skipping a middle delta breaks the parent chain.
    {
      auto eng = Engine::restoreManifestText(full.text, opt);
      eng->applyDeltaText(deltas[0]);
      EXPECT_THROW(eng->applyDeltaText(deltas[2]), InputError)
          << "seed " << seed;
    }
    // Flipping a payload byte in a middle delta fails validation. Corrupt a
    // byte in the back half, clear of the header the parent check reads.
    {
      std::string bad = deltas[1];
      bad[bad.size() / 2 + bad.size() / 4] ^= 0x20;
      auto eng = Engine::restoreManifestText(full.text, opt);
      eng->applyDeltaText(deltas[0]);
      EXPECT_THROW(eng->applyDeltaText(bad), InputError) << "seed " << seed;
    }
    // The intact chain still lands on the live state.
    {
      auto eng = Engine::restoreManifestText(full.text, opt);
      for (const std::string& d : deltas) eng->applyDeltaText(d);
      EXPECT_EQ(manifestOf(live), manifestOf(*eng)) << "seed " << seed;
    }
  }
}

// ManifestLog recovery over real files: missing and corrupted middle deltas
// are refused, stale deltas from before the last full are ignored.
class ManifestLogRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("gpd_mlog_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "manifest").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Drives every batch of `seed`'s workload through an engine, storing a
  // checkpoint via the log after each pump. Returns the final manifest.
  std::string populate(std::uint64_t seed, std::uint64_t fullEvery) {
    const auto batches = makeWorkload(seed);
    ManifestLog log(path_, fullEvery);
    Engine eng(optionsForSeed(seed));
    log.store(eng, /*forceFull=*/true);
    for (const Batch& b : batches) {
      pumpBatch(eng, b, nullptr);
      log.store(eng);
    }
    return manifestOf(eng);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ManifestLogRecoveryTest, RecoversFullPlusDeltaChain) {
  const std::uint64_t seed = 7;
  const std::string want = populate(seed, /*fullEvery=*/100);
  ManifestLog log(path_, 100);
  auto eng = log.recover(optionsForSeed(seed));
  EXPECT_EQ(want, manifestOf(*eng));
  EXPECT_GT(log.deltasSinceFull(), 0u);
}

TEST_F(ManifestLogRecoveryTest, RefusesMissingMiddleDelta) {
  populate(7, 100);
  ASSERT_TRUE(std::filesystem::exists(path_ + ".delta.2"));
  std::filesystem::remove(path_ + ".delta.2");
  ManifestLog log(path_, 100);
  EXPECT_THROW(log.recover(optionsForSeed(7)), InputError);
}

// Only the names deltaPath writes count as deltas: a "<name>.delta.1x"
// sibling is not delta 1 and recovery never reads it.
TEST_F(ManifestLogRecoveryTest, IgnoresNonNumericDeltaSibling) {
  const std::string want = populate(7, /*fullEvery=*/100);
  std::ofstream(path_ + ".delta.1x") << "not a delta\n";
  ManifestLog log(path_, 100);
  auto eng = log.recover(optionsForSeed(7));
  EXPECT_EQ(want, manifestOf(*eng));
}

TEST_F(ManifestLogRecoveryTest, RefusesCorruptedMiddleDelta) {
  populate(7, 100);
  const std::string victim = path_ + ".delta.2";
  std::string text;
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  ASSERT_FALSE(text.empty());
  text[text.size() / 2 + text.size() / 4] ^= 0x20;
  std::ofstream(victim, std::ios::binary | std::ios::trunc) << text;
  ManifestLog log(path_, 100);
  EXPECT_THROW(log.recover(optionsForSeed(7)), InputError);
}

TEST_F(ManifestLogRecoveryTest, FullCadenceTruncatesChain) {
  // fullEvery=3 rewrites the full and unlinks deltas every third store;
  // recovery must see only the live suffix.
  const std::string want = populate(9, /*fullEvery=*/3);
  ManifestLog log(path_, 3);
  auto eng = log.recover(optionsForSeed(9));
  EXPECT_EQ(want, manifestOf(*eng));
  EXPECT_LT(log.deltasSinceFull(), 3u);
}

TEST(DeltaManifestProperty, DeltaBytesScaleWithDirtySessions) {
  // 60 open sessions, then touch 3: the delta must carry only the dirty
  // sessions and come in far under the full manifest — the sublinear
  // checkpoint cost the incremental format exists for.
  EngineOptions opt;
  opt.shards = 4;
  Engine eng(opt);
  for (int i = 0; i < 60; ++i) {
    eng.submit("OPEN t0 s" + std::to_string(i) + " 2");
    eng.submit("EV t0 s" + std::to_string(i) + " 0 0 1 0");
  }
  std::vector<Response> out;
  eng.pump(out);
  const CheckpointCapture full = eng.captureCheckpoint(false);
  ASSERT_FALSE(full.delta);

  for (int i = 0; i < 3; ++i) {
    eng.submit("EV t0 s" + std::to_string(i) + " 1 0 0 1");
  }
  out.clear();
  eng.pump(out);
  const CheckpointCapture delta = eng.captureCheckpoint(true);
  ASSERT_TRUE(delta.delta);
  EXPECT_EQ(3u, delta.sessions);
  EXPECT_LT(delta.text.size(), full.text.size() / 4)
      << "delta " << delta.text.size() << "B vs full " << full.text.size()
      << "B";
}

// --- Replication / double failover -----------------------------------------

// Streams one pump's worth of commands leader → follower, then executes the
// same pump on the leader (and its shadow control engine), collecting
// responses. Mirrors gpdd's serve loop ordering: replicate first, then run.
void replicatedPump(Engine& leader, ReplicationFollower& follower,
                    const Batch& batch, std::string* transcript,
                    std::vector<std::string>* unflushed) {
  std::vector<ReplicatedCmd> cmds;
  cmds.reserve(batch.size());
  int origin = 1;
  for (const std::string& c : batch) cmds.push_back({origin++ % 5, c});
  for (const std::string& rec :
       capturePumpRecord(leader.stats().pumps, cmds)) {
    follower.consume(rec);
  }
  for (ReplicatedCmd& cmd : cmds) leader.submit(std::move(cmd.payload),
                                                cmd.origin);
  std::vector<Response> out;
  leader.pump(out);
  for (const Response& r : out) {
    if (transcript != nullptr) {
      *transcript += r.payload;
      *transcript += '\n';
    }
    if (unflushed != nullptr) unflushed->push_back(r.payload);
  }
}

// Attaches a fresh follower to `leader` the way gpdd does: hello, then a
// forced-full snapshot. The control engine mirrors the capture so epochs
// stay in lockstep for the final manifest comparison.
void attach(Engine& leader, Engine& control, ReplicationFollower& follower) {
  follower.consume(captureHelloRecord());
  const CheckpointCapture snap = leader.captureCheckpoint(false);
  control.captureCheckpoint(false);
  for (const std::string& rec : captureSnapshotRecord(snap)) {
    follower.consume(rec);
  }
  ASSERT_TRUE(follower.snapshotLoaded());
}

TEST(ReplicationProperty, DoubleFailoverIsRecoveryEquivalent) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto batches = makeWorkload(seed);
    const EngineOptions opt = optionsForSeed(seed);
    const std::size_t n = batches.size();
    const std::size_t f1 = std::max<std::size_t>(1, n / 3);
    const std::size_t f2 = std::max<std::size_t>(f1 + 1, 2 * n / 3);

    // Control: the same batches with the same pump boundaries and mirrored
    // checkpoint captures, never failing over.
    auto control = std::make_unique<Engine>(opt);
    auto leader = std::make_unique<Engine>(opt);
    std::string controlTranscript;
    std::string haTranscript;

    const auto drive = [&](ReplicationFollower* follower, std::size_t from,
                           std::size_t to,
                           std::vector<std::string>* unflushed) {
      for (std::size_t b = from; b < to && b < n; ++b) {
        pumpBatch(*control, batches[b], &controlTranscript);
        if (follower == nullptr) {
          pumpBatch(*leader, batches[b], &haTranscript);
          control->captureCheckpoint(true);
          leader->captureCheckpoint(true);
          continue;
        }
        replicatedPump(*leader, *follower, batches[b], &haTranscript,
                       unflushed);
        // Leader checkpoint cadence: the follower captures its own and
        // cross-checks (epoch, checksum) — silent divergence is impossible.
        control->captureCheckpoint(true);
        const CheckpointCapture cap = leader->captureCheckpoint(true);
        follower->consume(captureCkptRecord(leader->stats().pumps, cap));
        if (b == from) {
          // The leader acked its flushes up to this pump: the follower
          // retires those retained responses.
          follower->consume(captureFlushRecord(leader->stats().pumps));
          unflushed->clear();
        }
      }
    };

    // Epoch 1: original leader with follower A attached from the start.
    ReplicationFollower followerA(opt);
    attach(*leader, *control, followerA);
    std::vector<std::string> unflushedA;
    drive(&followerA, 0, f1, &unflushedA);

    // Leader dies mid-record: an RPUMP header with no commands behind it
    // must be discarded by promotion, not half-applied.
    followerA.consume("RPUMP " + std::to_string(leader->stats().pumps) +
                      " 2");
    auto promoA = followerA.promote();
    ASSERT_EQ(unflushedA.size(), promoA.retained.size()) << "seed " << seed;
    for (std::size_t i = 0; i < unflushedA.size(); ++i) {
      ASSERT_EQ(unflushedA[i], promoA.retained[i].payload)
          << "seed " << seed << " retained " << i;
    }
    ASSERT_EQ(manifestOf(*leader), manifestOf(*promoA.engine))
        << "seed " << seed << ": promoted follower A diverged";
    leader = std::move(promoA.engine);

    // Epoch 2: promoted A is the leader; follower B attaches, then A dies.
    ReplicationFollower followerB(opt);
    attach(*leader, *control, followerB);
    std::vector<std::string> unflushedB;
    drive(&followerB, f1, f2, &unflushedB);
    auto promoB = followerB.promote();
    ASSERT_EQ(manifestOf(*leader), manifestOf(*promoB.engine))
        << "seed " << seed << ": promoted follower B diverged";
    leader = std::move(promoB.engine);

    // Epoch 3: twice-promoted engine finishes the workload alone.
    drive(nullptr, f2, n, nullptr);

    ASSERT_EQ(controlTranscript, haTranscript) << "seed " << seed;
    ASSERT_EQ(manifestOf(*control), manifestOf(*leader)) << "seed " << seed;
  }
}

TEST(ReplicationProperty, FollowerRefusesDivergentCheckpoint) {
  EngineOptions opt;
  Engine leader(opt);
  Engine control(opt);
  ReplicationFollower follower(opt);
  attach(leader, control, follower);

  // Apply a command on the leader WITHOUT replicating it, then stream an
  // empty pump so the pump counters agree while the states do not.
  leader.submit("OPEN t0 skew 2");
  std::vector<Response> out;
  leader.pump(out);
  for (const std::string& rec : capturePumpRecord(0, {})) {
    follower.consume(rec);
  }
  const CheckpointCapture cap = leader.captureCheckpoint(true);
  EXPECT_THROW(
      follower.consume(captureCkptRecord(leader.stats().pumps, cap)),
      InputError);
}

TEST(ReplicationProperty, FollowerRefusesPumpGap) {
  EngineOptions opt;
  Engine leader(opt);
  Engine control(opt);
  ReplicationFollower follower(opt);
  attach(leader, control, follower);
  // Leader claims to be at pump 3; the follower has applied none.
  EXPECT_THROW(follower.consume("RPUMP 3 0"), InputError);
}

// A negative command count is malformed. Read as an unsigned 2^64 - 1 it
// would keep the pump block open forever and swallow every later RCMD.
TEST(ReplicationProperty, FollowerRefusesNegativeCommandCount) {
  EngineOptions opt;
  Engine leader(opt);
  Engine control(opt);
  ReplicationFollower follower(opt);
  attach(leader, control, follower);
  EXPECT_THROW(follower.consume("RPUMP 0 -1"), InputError);
}

TEST(ReplicationProperty, SnapshotChunkingRoundTrips) {
  EngineOptions opt;
  Engine leader(opt);
  for (int i = 0; i < 8; ++i) {
    leader.submit("OPEN t0 s" + std::to_string(i) + " 2");
  }
  std::vector<Response> out;
  leader.pump(out);
  const CheckpointCapture snap = leader.captureCheckpoint(false);

  // The encoder's record count matches its chunk math.
  const std::vector<std::string> recs = captureSnapshotRecord(snap);
  const std::size_t wantChunks =
      (snap.text.size() + kSnapshotChunkBytes - 1) / kSnapshotChunkBytes;
  ASSERT_EQ(1 + wantChunks, recs.size());

  // The follower assembles however many chunks the header promises — feed
  // the same snapshot split into 64-byte chunks to exercise multi-chunk
  // reassembly without a multi-megabyte manifest.
  constexpr std::size_t kTinyChunk = 64;
  const std::size_t chunks =
      (snap.text.size() + kTinyChunk - 1) / kTinyChunk;
  ASSERT_GT(chunks, 2u);
  ReplicationFollower follower(opt);
  follower.consume(captureHelloRecord());
  follower.consume("RSNAP " + std::to_string(snap.epoch) + ' ' +
                   std::to_string(snap.checksum) + ' ' +
                   std::to_string(chunks));
  for (std::size_t i = 0; i < chunks; ++i) {
    follower.consume("RCHUNK " + std::to_string(i) + "\n" +
                     snap.text.substr(i * kTinyChunk, kTinyChunk));
    EXPECT_EQ(i + 1 == chunks, follower.snapshotLoaded());
  }
  auto promo = follower.promote();
  EXPECT_EQ(manifestOf(leader), manifestOf(*promo.engine));
}

}  // namespace
}  // namespace gpd::service
