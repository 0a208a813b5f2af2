// gpd::service::Engine — admission control, the overload ladder, budgets,
// idle sweep, protocol-error taxonomy, and manifest round-trips.
#include "service/engine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "temp_path.h"
#include "util/check.h"

namespace gpd::service {
namespace {

std::vector<std::string> pumpAll(Engine& eng,
                                 const std::vector<std::string>& cmds,
                                 par::Pool* pool = nullptr) {
  for (const std::string& c : cmds) eng.submit(c);
  std::vector<Response> out;
  eng.pump(out, pool);
  std::vector<std::string> payloads;
  payloads.reserve(out.size());
  for (Response& r : out) payloads.push_back(std::move(r.payload));
  return payloads;
}

bool anyStartsWith(const std::vector<std::string>& v, const std::string& p) {
  for (const std::string& s : v) {
    if (s.rfind(p, 0) == 0) return true;
  }
  return false;
}

// A tiny deterministic 2-process session that detects: both processes post
// one concurrent notification.
std::vector<std::string> detectingSession(const std::string& t,
                                          const std::string& s) {
  return {
      "OPEN " + t + " " + s + " 2",
      "EV " + t + " " + s + " 0 0 1 0",
      "EV " + t + " " + s + " 1 0 0 1",
      "END " + t + " " + s + " 0 1",
      "END " + t + " " + s + " 1 1",
  };
}

TEST(Engine, OpenDeliverDetectClose) {
  Engine eng;
  auto out = pumpAll(eng, detectingSession("t0", "s0"));
  EXPECT_TRUE(anyStartsWith(out, "OK OPEN t0 s0"));
  EXPECT_TRUE(anyStartsWith(out, "DETECT t0 s0"));
  out = pumpAll(eng, {"CLOSE t0 s0"});
  ASSERT_TRUE(anyStartsWith(out, "VERDICT t0 s0 detected 1 closed"));
  EXPECT_EQ(eng.openSessions(), 0u);
  EXPECT_EQ(eng.stats().detections, 1u);
}

TEST(Engine, DetectEmittedExactlyOnce) {
  Engine eng;
  pumpAll(eng, detectingSession("t0", "s0"));
  // More traffic after detection must not re-announce.
  const auto out = pumpAll(eng, {"EV t0 s0 0 1 2 0", "QUERY t0 s0"});
  EXPECT_FALSE(anyStartsWith(out, "DETECT"));
  EXPECT_TRUE(anyStartsWith(out, "VERDICT t0 s0 detected 1 open"));
}

TEST(Engine, NotDetectedWhenCausallyOrdered) {
  Engine eng;
  // p1's notification knows a p0 event *beyond* p0's notification
  // (clock [2,1] vs [1,0]): succ(e) ≤ f, so e is eliminated — no witness.
  const auto out = pumpAll(eng, {
                                    "OPEN t0 s0 2",
                                    "EV t0 s0 0 0 1 0",
                                    "EV t0 s0 1 0 2 1",
                                    "END t0 s0 0 1",
                                    "END t0 s0 1 1",
                                    "CLOSE t0 s0",
                                });
  EXPECT_FALSE(anyStartsWith(out, "DETECT"));
  EXPECT_TRUE(anyStartsWith(out, "VERDICT t0 s0 not-detected 0 closed"));
}

TEST(Engine, GapTriggersNackAndRetransmitHeals) {
  EngineOptions opt;
  opt.session.retryTimeout = 4;
  Engine eng(opt);
  auto out = pumpAll(eng, {
                              "OPEN t0 s0 2",
                              "EV t0 s0 0 1 2 0",  // seq 0 missing: gap
                              "TICK t0 s0 8",
                          });
  ASSERT_TRUE(anyStartsWith(out, "NACK t0 s0 0 0 0"));
  out = pumpAll(eng, {"EV t0 s0 0 0 1 0", "END t0 s0 0 2", "END t0 s0 1 0",
                      "CLOSE t0 s0"});
  // Retransmission healed the gap: the verdict is exact, not degraded.
  EXPECT_TRUE(anyStartsWith(out, "VERDICT t0 s0 not-detected 0 closed"));
}

TEST(Engine, ProtocolErrorTaxonomy) {
  Engine eng;
  auto out = pumpAll(eng, {"FROB x y"});
  EXPECT_TRUE(anyStartsWith(out, "ERR bad-command"));
  out = pumpAll(eng, {"OPEN bad!id s 2"});
  EXPECT_TRUE(anyStartsWith(out, "ERR bad-argument"));
  out = pumpAll(eng, {"EV t0 nope 0 0 1 1"});
  EXPECT_TRUE(anyStartsWith(out, "ERR unknown-session"));
  out = pumpAll(eng, {"OPEN t0 s0 2", "OPEN t0 s0 2"});
  EXPECT_TRUE(anyStartsWith(out, "ERR duplicate-session"));
  out = pumpAll(eng, {"EV t0 s0 0 notanumber 1 1"});
  EXPECT_TRUE(anyStartsWith(out, "ERR bad-argument"));
  out = pumpAll(eng, {"EV t0 s0 9 0 1 1"});  // process out of range
  EXPECT_TRUE(anyStartsWith(out, "ERR bad-argument"));
  // Errors never kill the session: it still answers.
  out = pumpAll(eng, {"QUERY t0 s0"});
  EXPECT_TRUE(anyStartsWith(out, "VERDICT t0 s0"));
  EXPECT_GE(eng.stats().protocolErrors, 5u);
}

TEST(Engine, HostileClockPayloadIsQuarantinedNotFatal) {
  Engine eng;
  // Sequence numbers say "first notification" twice with own-component
  // clocks that contradict each other — internally inconsistent input that
  // drives the monitor's invariants. The service must answer with a shed
  // (Degraded) session, not die.
  auto out = pumpAll(eng, {
                              "OPEN t0 s0 2",
                              "EV t0 s0 0 0 5 0",
                              "EV t0 s0 0 1 2 0",  // own clock goes backwards
                          });
  EXPECT_TRUE(anyStartsWith(out, "SHED t0 s0 internal-error") ||
              anyStartsWith(out, "ERR bad-argument"));
  EXPECT_EQ(eng.openSessions(), 0u);
}

TEST(Engine, GlobalAndTenantCaps) {
  EngineOptions opt;
  opt.maxSessions = 2;
  opt.maxSessionsPerTenant = 1;
  Engine eng(opt);
  auto out = pumpAll(eng, {"OPEN a s0 2", "OPEN a s1 2"});
  EXPECT_TRUE(anyStartsWith(out, "OK OPEN a s0"));
  EXPECT_TRUE(anyStartsWith(out, "ERR admission-tenant-cap"));
  out = pumpAll(eng, {"OPEN b s0 2", "OPEN c s0 2"});
  EXPECT_TRUE(anyStartsWith(out, "OK OPEN b s0"));
  EXPECT_TRUE(anyStartsWith(out, "ERR admission-global-cap"));
  EXPECT_EQ(eng.stats().admissionRejects, 2u);
}

TEST(Engine, RateLimitRejectsExcessBytesPerPump) {
  EngineOptions opt;
  opt.tenantRateBytesPerPump = 40;
  Engine eng(opt);
  pumpAll(eng, {"OPEN t0 s0 2"});
  const std::string ev0 = "EV t0 s0 0 0 1 0";   // ~16 bytes
  const std::string ev1 = "EV t0 s0 0 1 2 0";
  const std::string ev2 = "EV t0 s0 0 2 3 0";
  auto out = pumpAll(eng, {ev0, ev1, ev2});
  EXPECT_TRUE(anyStartsWith(out, "ERR rate-limited"));
  EXPECT_GE(eng.stats().rateLimited, 1u);
  // Next pump the meter resets: the refused frame goes through on retry.
  out = pumpAll(eng, {ev2});
  EXPECT_FALSE(anyStartsWith(out, "ERR rate-limited"));
}

TEST(Engine, BudgetExhaustionShedsWithDegradedVerdict) {
  EngineOptions opt;
  opt.sessionMaxCombinations = 3;
  Engine eng(opt);
  auto out = pumpAll(eng, {
                              "OPEN t0 s0 2",
                              "EV t0 s0 0 0 1 0",
                              "EV t0 s0 0 1 2 0",
                              "EV t0 s0 0 2 3 0",
                              "EV t0 s0 0 3 4 0",  // 4th delivery: over budget
                          });
  EXPECT_TRUE(anyStartsWith(out, "SHED t0 s0 budget-"));
  EXPECT_TRUE(anyStartsWith(out, "VERDICT t0 s0 degraded"));
  EXPECT_EQ(eng.openSessions(), 0u);
  EXPECT_EQ(eng.stats().sessionsShedBudget, 1u);
}

TEST(Engine, IdleSessionsAreSwept) {
  EngineOptions opt;
  opt.idleTimeoutPumps = 2;
  Engine eng(opt);
  pumpAll(eng, {"OPEN t0 s0 2"});
  pumpAll(eng, {});  // idle pump 1
  const auto out = pumpAll(eng, {});  // idle pump 2: swept
  EXPECT_TRUE(anyStartsWith(out, "SHED t0 s0 idle"));
  EXPECT_TRUE(anyStartsWith(out, "VERDICT t0 s0"));
  EXPECT_EQ(eng.openSessions(), 0u);
  EXPECT_EQ(eng.stats().sessionsShedIdle, 1u);
}

TEST(Engine, MemoryLadderEscalatesRejectDegradeShed) {
  EngineOptions opt;
  // Tiny watermark: a handful of sessions arms every rung.
  opt.memWatermarkBytes = 4000;
  Engine eng(opt);
  std::vector<std::string> opens;
  for (int i = 0; i < 8; ++i) {
    opens.push_back("OPEN t" + std::to_string(i) + " s 2 prio " +
                    std::to_string(i));
  }
  auto out = pumpAll(eng, opens);
  // Sessions opened until the books crossed the watermark at pump end;
  // the ladder then shed the lowest-priority ones back under 0.85·W.
  EXPECT_TRUE(anyStartsWith(out, "OK OPEN t0 s"));
  EXPECT_TRUE(anyStartsWith(out, "SHED"));
  EXPECT_LT(eng.estimatedBytes(), opt.memWatermarkBytes);
  // Next pump, usage still ≥ 0.70·W rejects new admissions...
  if (eng.memLevel() >= 1) {
    out = pumpAll(eng, {"OPEN fresh s 2"});
    EXPECT_TRUE(anyStartsWith(out, "ERR admission-mem"));
  }
  EXPECT_GT(eng.stats().sessionsShedMem, 0u);
}

TEST(Engine, MemoryLadderDegradesInPlaceBeforeShedding) {
  EngineOptions opt;
  opt.memWatermarkBytes = 16000;
  Engine eng(opt);
  // One heavy tenant: lots of out-of-order traffic parks in reorder
  // buffers, which is exactly the memory the degrade rung reclaims.
  std::vector<std::string> cmds = {"OPEN heavy s 2"};
  for (int i = 0; i < 400; ++i) {
    cmds.push_back("EV heavy s 0 " + std::to_string(i + 1) + " " +
                   std::to_string(i + 2) + " 0");  // seq 0 never sent
  }
  auto out = pumpAll(eng, cmds);
  EXPECT_TRUE(anyStartsWith(out, "DEGRADE heavy s memory") ||
              anyStartsWith(out, "SHED heavy s memory"));
  EXPECT_LT(eng.estimatedBytes(), opt.memWatermarkBytes);
}

TEST(Engine, SyncAnswersAfterFullPumpEffect) {
  Engine eng;
  auto out = pumpAll(eng, {"OPEN t0 s0 2", "SYNC tok-1"});
  // SYNC is last even though it was submitted after OPEN in the same pump.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), "SYNC tok-1");
  out = pumpAll(eng, {"SYNC bad!token"});
  EXPECT_TRUE(anyStartsWith(out, "ERR bad-argument"));
}

TEST(Engine, CentralCommands) {
  Engine eng;
  auto out = pumpAll(eng, {"STATS"});
  ASSERT_TRUE(anyStartsWith(out, "STATS {"));
  EXPECT_NE(out[0].find("\"pumps\":"), std::string::npos);
  out = pumpAll(eng, {"CHECKPOINT"});
  EXPECT_TRUE(anyStartsWith(out, "OK CHECKPOINT"));
  EXPECT_TRUE(eng.consumeCheckpointRequest());
  EXPECT_FALSE(eng.consumeCheckpointRequest());
  out = pumpAll(eng, {"SHUTDOWN"});
  EXPECT_TRUE(anyStartsWith(out, "OK SHUTDOWN draining"));
  EXPECT_TRUE(eng.shutdownRequested());
}

TEST(Engine, DrainClosesEverythingWithVerdicts) {
  Engine eng;
  pumpAll(eng, {"OPEN t0 s0 2", "OPEN t1 s1 3"});
  std::vector<Response> out;
  eng.drain(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(eng.openSessions(), 0u);
  EXPECT_EQ(eng.estimatedBytes(), 0u);
}

TEST(Engine, ManifestRoundTripIsByteIdentical) {
  EngineOptions opt;
  opt.sessionMaxCombinations = 100;
  Engine eng(opt);
  pumpAll(eng, detectingSession("t0", "s0"));
  pumpAll(eng, {"OPEN t1 s1 3", "EV t1 s1 0 1 2 0 0", "TICK t1 s1 3"});
  std::ostringstream m1;
  eng.writeManifest(m1);
  std::istringstream in(m1.str());
  auto restored = Engine::restoreManifest(in, opt);
  std::ostringstream m2;
  restored->writeManifest(m2);
  EXPECT_EQ(m1.str(), m2.str());
  EXPECT_EQ(restored->openSessions(), eng.openSessions());
  EXPECT_EQ(restored->estimatedBytes(), eng.estimatedBytes());
  EXPECT_EQ(restored->stats().pumps, eng.stats().pumps);
}

TEST(Engine, RestoredSessionDoesNotReannounceDetect) {
  Engine eng;
  // Detect from the two concurrent notifications alone (no END yet), so the
  // restored session can keep receiving events.
  pumpAll(eng, {"OPEN t0 s0 2", "EV t0 s0 0 0 1 0", "EV t0 s0 1 0 0 1"});
  std::ostringstream m;
  eng.writeManifest(m);
  std::istringstream in(m.str());
  auto restored = Engine::restoreManifest(in, {});
  const auto out = pumpAll(*restored, {"EV t0 s0 0 1 2 0", "QUERY t0 s0"});
  EXPECT_FALSE(anyStartsWith(out, "DETECT"));
  EXPECT_TRUE(anyStartsWith(out, "VERDICT t0 s0 detected"));
}

TEST(Engine, CorruptManifestsThrowInputError) {
  const auto restore = [](const std::string& text) {
    std::istringstream in(text);
    return Engine::restoreManifest(in, {});
  };
  EXPECT_THROW(restore("not-a-manifest 2"), gpd::InputError);
  EXPECT_THROW(restore("gpdd-manifest 99\nkind full"), gpd::InputError);
  // v1 manifests (no kind/epoch headers) are refused, not misread.
  EXPECT_THROW(restore("gpdd-manifest 1\n"
                       "stats 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
                       "sessions 0\nmanifest-end\n"),
               gpd::InputError);
  EXPECT_THROW(restore("gpdd-manifest 2\nkind sideways\nepoch 0"),
               gpd::InputError);
  EXPECT_THROW(restore("gpdd-manifest 2\nkind full\nepoch 0\nstats 0 0 0"),
               gpd::InputError);
  EXPECT_THROW(
      restore("gpdd-manifest 2\nkind full\nepoch 0\n"
              "stats 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
              "last-sync 0\ntenants 0\n"
              "sessions 1\n"
              "session bad!tenant s 0 2 0 0 0\n"),
      gpd::InputError);
  // A delta can never seed a restore: it needs the full parent.
  Engine fresh;
  const CheckpointCapture full = fresh.captureCheckpoint(false);
  const CheckpointCapture delta = fresh.captureCheckpoint(true);
  ASSERT_TRUE(delta.delta);
  EXPECT_THROW(restore(delta.text), gpd::InputError);
  // Truncated mid-session.
  Engine eng;
  for (const std::string& c : detectingSession("t0", "s0")) eng.submit(c);
  std::vector<Response> out;
  eng.pump(out);
  std::ostringstream m;
  eng.writeManifest(m);
  const std::string whole = m.str();
  EXPECT_THROW(restore(whole.substr(0, whole.size() / 2)), gpd::InputError);
}

// An unsigned header field takes no minus sign: `istream >> uint64_t` would
// read "epoch -1" as epoch 2^64 - 1 and restore it.
TEST(Engine, NegativeManifestEpochThrowsInputError) {
  Engine eng;
  pumpAll(eng, {"OPEN t0 s0 2"});
  std::string text = eng.captureCheckpoint(false).text;
  const std::size_t at = text.find("\nepoch ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = text.find('\n', at + 1);
  text.replace(at, end - at, "\nepoch -1");
  EXPECT_THROW(Engine::restoreManifestText(text, {}), gpd::InputError);
}

TEST(Engine, DeltaCaptureRestoresByteIdentically) {
  EngineOptions opt;
  opt.sessionMaxCombinations = 100;
  Engine eng(opt);
  pumpAll(eng, detectingSession("t0", "s0"));
  const CheckpointCapture full = eng.captureCheckpoint(true);
  EXPECT_FALSE(full.delta);  // nothing to chain from yet
  EXPECT_EQ(full.epoch, 1u);
  EXPECT_EQ(eng.dirtySessions(), 0u);
  // Touch one session, open another, close nothing.
  pumpAll(eng, {"OPEN t1 s1 3", "EV t0 s0 0 1 2 0"});
  EXPECT_EQ(eng.dirtySessions(), 2u);
  const CheckpointCapture delta = eng.captureCheckpoint(true);
  EXPECT_TRUE(delta.delta);
  EXPECT_EQ(delta.epoch, 2u);
  EXPECT_EQ(delta.sessions, 2u);
  // full + delta restores to the same bytes as a fresh full capture.
  auto restored = Engine::restoreManifestText(full.text, opt);
  restored->applyDeltaText(delta.text);
  std::ostringstream a;
  restored->writeManifest(a);
  std::ostringstream b;
  eng.writeManifest(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(restored->checkpointEpoch(), eng.checkpointEpoch());
}

TEST(Engine, DeltaRecordsRemovedSessions) {
  Engine eng;
  pumpAll(eng, detectingSession("t0", "s0"));
  pumpAll(eng, {"OPEN t1 s1 2"});
  const CheckpointCapture full = eng.captureCheckpoint(false);
  pumpAll(eng, {"CLOSE t0 s0"});
  const CheckpointCapture delta = eng.captureCheckpoint(true);
  ASSERT_TRUE(delta.delta);
  EXPECT_NE(delta.text.find("gone t0 s0"), std::string::npos);
  auto restored = Engine::restoreManifestText(full.text, {});
  EXPECT_EQ(restored->openSessions(), 2u);
  restored->applyDeltaText(delta.text);
  EXPECT_EQ(restored->openSessions(), 1u);
  std::ostringstream a;
  restored->writeManifest(a);
  std::ostringstream b;
  eng.writeManifest(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Engine, DeltaChainRefusesWrongParent) {
  Engine eng;
  pumpAll(eng, {"OPEN t0 s0 2"});
  const CheckpointCapture full = eng.captureCheckpoint(false);
  pumpAll(eng, {"EV t0 s0 0 0 1 0"});
  const CheckpointCapture d1 = eng.captureCheckpoint(true);
  pumpAll(eng, {"EV t0 s0 1 0 0 1"});
  const CheckpointCapture d2 = eng.captureCheckpoint(true);
  ASSERT_TRUE(d1.delta);
  ASSERT_TRUE(d2.delta);
  // Skipping the middle link is refused...
  auto skip = Engine::restoreManifestText(full.text, {});
  EXPECT_THROW(skip->applyDeltaText(d2.text), gpd::InputError);
  // ...a corrupted middle link is refused (flip one payload byte)...
  std::string corrupt = d1.text;
  const std::size_t at = corrupt.find("session t0");
  ASSERT_NE(at, std::string::npos);
  corrupt[at] = 'x';
  auto bad = Engine::restoreManifestText(full.text, {});
  EXPECT_THROW(bad->applyDeltaText(corrupt), gpd::InputError);
  // ...and the intact chain applies clean.
  auto good = Engine::restoreManifestText(full.text, {});
  good->applyDeltaText(d1.text);
  good->applyDeltaText(d2.text);
  std::ostringstream a;
  good->writeManifest(a);
  std::ostringstream b;
  eng.writeManifest(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Engine, PerTenantStatsTrackAndPersist) {
  EngineOptions opt;
  opt.maxSessionsPerTenant = 1;
  Engine eng(opt);
  pumpAll(eng, detectingSession("alpha", "s0"));
  pumpAll(eng, {"OPEN alpha s1 2", "OPEN beta s0 2", "CLOSE alpha s0"});
  const auto& ts = eng.tenantStats();
  ASSERT_EQ(ts.count("alpha"), 1u);
  ASSERT_EQ(ts.count("beta"), 1u);
  EXPECT_EQ(ts.at("alpha").sessionsOpened, 1u);
  EXPECT_EQ(ts.at("alpha").sessionsClosed, 1u);
  EXPECT_EQ(ts.at("alpha").admissionRejects, 1u);  // the s1 tenant-cap hit
  EXPECT_GT(ts.at("alpha").evBytes, 0u);
  EXPECT_EQ(ts.at("beta").sessionsOpened, 1u);
  // The tenants block renders last in the JSON and survives a round trip.
  const std::string json = eng.statsJson();
  const std::size_t tenantsAt = json.find("\"tenants\":{");
  ASSERT_NE(tenantsAt, std::string::npos);
  EXPECT_GT(tenantsAt, json.find("\"shed_mem\":"));
  EXPECT_NE(json.find("\"alpha\":{"), std::string::npos);
  // A capture clears the dirty set on both sides, so the rendered stats
  // (including dirty_sessions) agree exactly after restore.
  const CheckpointCapture cap = eng.captureCheckpoint(false);
  auto restored = Engine::restoreManifestText(cap.text, opt);
  EXPECT_EQ(restored->tenantStats().at("alpha").admissionRejects, 1u);
  EXPECT_EQ(restored->statsJson(), eng.statsJson());
}

TEST(Engine, StatsJsonSchemaGolden) {
  // Pins the top-level STATS JSON schema the telemetry consumers depend on:
  // every key present, in this order, with the optional "build" object
  // rendered after "last_sync" and "tenants" always last (gpdd_loadgen's
  // counter() helper scans for the first occurrence of each counter key, so
  // nothing may render tenant counters before the top-level ones).
  EngineOptions opt;
  opt.buildInfo = {{"version", "v1.2"}, {"obs", "on"}};
  Engine eng(opt);
  pumpAll(eng, {"OPEN t0 s0 2", "SYNC mark"});
  const std::string json = eng.statsJson();
  const char* keysInOrder[] = {
      "\"frames_accepted\":", "\"sessions_open\":",  "\"sessions_opened\":",
      "\"sessions_closed\":", "\"shed_mem\":",       "\"shed_budget\":",
      "\"shed_idle\":",       "\"degraded_mem\":",   "\"admission_rejects\":",
      "\"rate_limited\":",    "\"protocol_errors\":", "\"notifications\":",
      "\"nacks\":",           "\"detections\":",     "\"pumps\":",
      "\"estimated_bytes\":", "\"mem_level\":",      "\"epoch\":",
      "\"dirty_sessions\":",  "\"last_sync\":",      "\"slice_sessions\":",
      "\"slice_notifications\":",                    "\"slice_resolved\":",
      "\"slice_pending\":",   "\"slice_degraded\":", "\"build\":",
      "\"tenants\":",
  };
  std::size_t prev = 0;
  for (const char* key : keysInOrder) {
    const std::size_t at = json.find(key, prev);
    ASSERT_NE(at, std::string::npos) << key << " missing or out of order in "
                                     << json;
    prev = at;
  }
  // The build object renders the fields verbatim, in insertion order.
  EXPECT_NE(json.find("\"build\":{\"version\":\"v1.2\",\"obs\":\"on\"}"),
            std::string::npos)
      << json;
  // Without buildInfo the "build" key is absent entirely — engine tests and
  // pre-telemetry scrapers see the original schema.
  Engine bare;
  EXPECT_EQ(bare.statsJson().find("\"build\""), std::string::npos);
}

// Pins statsJson() and statsText() byte for byte (stats.golden: the JSON
// line, then the text rendering). The tenant names are prefixes of one
// another (t1, t10) or contain a per-tenant field name (x_sheds, big_co),
// and the script closes, sheds, rejects and rate-limits sessions. On a
// mismatch the actual output is written next to the test's temp files.
TEST(Engine, StatsOutputMatchesGolden) {
  EngineOptions opt;
  opt.maxSessionsPerTenant = 2;
  opt.sessionMaxCombinations = 3;
  opt.tenantRateBytesPerPump = 100;
  opt.session.enableSlice = true;
  opt.buildInfo = {{"version", "v1.2"}, {"obs", "on"}};
  Engine eng(opt);
  for (const char* t : {"t1", "t10", "x_sheds", "a.b", "big_co"}) {
    pumpAll(eng, detectingSession(t, "s0"));
  }
  pumpAll(eng, {"OPEN t1 s1 2", "OPEN t1 s2 2", "CLOSE t10 s0",
                "OPEN x_sheds s1 2", "EV x_sheds s1 0 0 1 0",
                "EV x_sheds s1 0 1 2 0", "EV x_sheds s1 0 2 3 0",
                "EV x_sheds s1 0 3 4 0", "BOGUS", "OPEN bad/name s0 2"});
  pumpAll(eng, {"OPEN big_co s1 2", "EV big_co s1 0 0 1 0",
                "EV big_co s1 0 1 2 0", "EV big_co s1 0 2 3 0",
                "EV big_co s1 0 3 4 0", "EV big_co s1 0 4 5 0",
                "EV big_co s1 0 5 6 0", "SYNC mark-1"});
  const std::string actual = eng.statsJson() + "\n" + eng.statsText();
  std::ifstream in(STATS_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << STATS_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;
  const std::string path = uniqueTempPath("stats_golden");
  std::ofstream(path, std::ios::binary) << actual;
  ADD_FAILURE() << "STATS output differs from the golden:\n"
                << actual << "\nwritten to " << path;
}

TEST(Engine, SliceEnabledSessionsAggregateInStats) {
  EngineOptions opt;
  opt.session.enableSlice = true;
  Engine eng(opt);
  pumpAll(eng, {"OPEN t0 s0 2", "EV t0 s0 0 0 1 0", "EV t0 s0 1 0 0 1"});
  const SliceStats sl = eng.sliceStats();
  EXPECT_EQ(sl.sessions, 1u);
  EXPECT_EQ(sl.notifications, 2u);
  EXPECT_EQ(sl.resolved, 2u);
  EXPECT_EQ(sl.pending, 0u);
  EXPECT_EQ(sl.degraded, 0u);
  const std::string json = eng.statsJson();
  EXPECT_NE(json.find("\"slice_sessions\":1"), std::string::npos);
  EXPECT_NE(json.find("\"slice_notifications\":2"), std::string::npos);
  // A sliceless engine still renders the keys, as zeros — scrapers see the
  // same schema either way.
  Engine bare;
  EXPECT_NE(bare.statsJson().find("\"slice_sessions\":0"), std::string::npos);
  const std::string text = eng.statsText();
  EXPECT_NE(text.find("  slice-sessions 1\n"), std::string::npos);
  EXPECT_NE(text.find("  slice-resolved 2\n"), std::string::npos);
}

TEST(Engine, StatsTextRendersTenantLines) {
  Engine eng;
  pumpAll(eng, {"OPEN t0 s0 2"});
  auto out = pumpAll(eng, {"STATS text"});
  ASSERT_TRUE(anyStartsWith(out, "STATS gpdd stats"));
  EXPECT_NE(out[0].find("tenant t0 "), std::string::npos);
  out = pumpAll(eng, {"STATS sideways"});
  EXPECT_TRUE(anyStartsWith(out, "ERR bad-argument"));
  out = pumpAll(eng, {"STATS json"});
  EXPECT_TRUE(anyStartsWith(out, "STATS {"));
}

TEST(Engine, LastSyncTokenPersistsAcrossManifest) {
  Engine eng;
  pumpAll(eng, {"OPEN t0 s0 2", "SYNC barrier-7"});
  EXPECT_EQ(eng.lastSyncToken(), "barrier-7");
  std::ostringstream m;
  eng.writeManifest(m);
  std::istringstream in(m.str());
  auto restored = Engine::restoreManifest(in, {});
  EXPECT_EQ(restored->lastSyncToken(), "barrier-7");
  EXPECT_NE(restored->statsJson().find("\"last_sync\":\"barrier-7\""),
            std::string::npos);
}

TEST(Engine, PoolAndSequentialPumpsAreBitIdentical) {
  const auto runWith = [](par::Pool* pool) {
    EngineOptions opt;
    opt.shards = 8;
    Engine eng(opt);
    std::vector<std::string> all;
    for (int i = 0; i < 12; ++i) {
      std::string t = "t";
      t += std::to_string(i % 3);
      std::string s = "s";
      s += std::to_string(i);
      for (const std::string& c : detectingSession(t, s)) all.push_back(c);
      all.push_back("CLOSE " + t + " " + s);
    }
    std::string transcript;
    for (const std::string& c : all) eng.submit(c);
    std::vector<Response> out;
    eng.pump(out, pool);
    for (const Response& r : out) {
      transcript += r.payload;
      transcript += '\n';
    }
    std::ostringstream m;
    eng.writeManifest(m);
    transcript += m.str();
    return transcript;
  };
  const std::string seq = runWith(nullptr);
  par::Pool pool(4);
  const std::string par4 = runWith(&pool);
  EXPECT_EQ(seq, par4);
}

}  // namespace
}  // namespace gpd::service
