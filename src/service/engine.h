// gpd::service::Engine — the multi-tenant core of the gpdd detection
// service.
//
// The engine is transport-agnostic: front-ends (tools/gpdd's stdin/pipe and
// UNIX-socket loops, the in-process test harnesses) decode frames
// (service/frame.h), submit() the payloads, and pump() to process a batch.
// One pump is the unit of service time: admission control runs over the
// queued commands in arrival order, session work is sharded across per-shard
// run queues (optionally executed on a par::Pool), and the overload ladder,
// idle sweep, and bookkeeping run at the end. Everything the engine does is
// a deterministic function of (options, submitted payloads, pump
// boundaries) — that is what makes crash recovery *testable*: a manifest
// written at a pump boundary, restored, and driven with the same remaining
// batches must produce byte-identical responses and a byte-identical final
// manifest (tests/service/recovery_property_test).
//
// ## Protocol grammar (frame payloads; one command per frame)
//
//   OPEN <tenant> <session> <processes> [prio <N>]
//   EV   <tenant> <session> <process> <seq> <c0> ... <c{n-1}>
//   EVB  <tenant> <session> <process> <firstSeq> <count>\n<clock line>*
//   END  <tenant> <session> <process> <count>
//   TICK <tenant> <session> [<n>]
//   QUERY <tenant> <session>
//   CLOSE <tenant> <session>
//   STATS | CHECKPOINT | SHUTDOWN | SYNC <token>
//
// Tenant/session identifiers match [A-Za-z0-9._-]{1,64} — a charset that can
// never spell the frame magic, so corrupted payloads cannot forge frame
// boundaries. Server→client frames:
//
//   OK OPEN <t> <s>                        admission granted
//   DETECT <t> <s>                         detection fired (once per session)
//   NACK <t> <s> <p> <lo> <hi>             please retransmit [lo, hi]
//   VERDICT <t> <s> <verdict> <detected> <closed|open> [counters]
//   DEGRADE <t> <s> <reason>               degraded in place (mem ladder)
//   SHED <t> <s> <reason>                  session force-closed (followed by
//                                          its VERDICT frame)
//   STATS <json>
//   SYNC <token>                           all prior commands processed
//   OK CHECKPOINT | OK SHUTDOWN draining
//   ERR <code> <t> <s> <message>           <code> ∈ {bad-command,
//        bad-argument, unknown-session, duplicate-session, admission-mem,
//        admission-global-cap, admission-tenant-cap, rate-limited}
//
// ## The overload ladder
//
// With a memory watermark W configured, estimated live bytes escalate in
// three rungs, reusing the monitor's Backpressure/Degrade philosophy (shed
// load explicitly, never abort and never lie):
//
//   bytes ≥ 0.70·W  → reject new sessions (OPEN → ERR admission-mem; the
//                     client retries with capped exponential backoff);
//   bytes ≥ 0.85·W  → degrade the heaviest tenants in place: flush reorder
//                     buffers by degrading their streams (DEGRADE frame;
//                     verdicts become Degraded-not-wrong, memory returns);
//   bytes ≥ W       → shed lowest-priority sessions entirely (SHED + an
//                     explicit Degraded VERDICT) until usage drops below
//                     0.85·W.
//
// Per-tenant session caps and per-pump byte-rate limits reject at admission;
// a per-session control::Budget (combination = one delivered notification)
// sheds a runaway session deterministically; idle sessions time out after a
// configurable number of pumps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "control/budget.h"
#include "monitor/session.h"
#include "par/pool.h"

namespace gpd::service {

struct EngineOptions {
  // Per-shard run queues; sessions hash (FNV-1a, platform-stable) to shards.
  int shards = 8;
  // Global and per-tenant open-session caps (0 = unlimited).
  std::size_t maxSessions = 0;
  std::size_t maxSessionsPerTenant = 0;
  // Per-tenant EV/EVB payload bytes accepted per pump (0 = unlimited);
  // excess frames get ERR rate-limited and must be retried.
  std::uint64_t tenantRateBytesPerPump = 0;
  // Estimated live bytes that arm the overload ladder (0 = ladder off).
  std::uint64_t memWatermarkBytes = 0;
  // Pumps without traffic before a session is shed as idle (0 = never).
  std::uint64_t idleTimeoutPumps = 0;
  // Per-session budget: delivered notifications (combinations) and an
  // optional wall-clock deadline. Exhaustion sheds the session with an
  // explicit Degraded verdict. Deadlines are wall-clock and therefore not
  // part of the deterministic-replay contract; the soak uses combinations.
  std::uint64_t sessionMaxCombinations = 0;
  std::uint64_t sessionBudgetMs = 0;
  // Defaults for every session's MonitorSession (reorder window, retries,
  // retry timeout, queue bound, overflow policy, comparison slice).
  monitor::SessionOptions session;
  // Build-identity labels (version, sanitize/obs/srclint flags) rendered
  // as a "build" object in STATS and as the gpdd_build_info gauge in the
  // telemetry exposition. Empty → omitted from STATS.
  std::vector<std::pair<std::string, std::string>> buildInfo;
};

// Per-tenant service counters: the STATS breakdown operators page on when
// one tenant misbehaves. Deterministic plain copies (updated in the
// single-threaded admission/sweep phases or merged from shard accumulators
// in shard order), mirrored into the gpd::obs registry as labelled
// gpdd_tenant_* gauges by Engine::publishTenantMetrics.
struct TenantStats {
  std::uint64_t sessionsOpened = 0;
  std::uint64_t sessionsClosed = 0;
  std::uint64_t evBytes = 0;  // accepted EV/EVB payload bytes
  std::uint64_t shedMem = 0;
  std::uint64_t shedBudget = 0;  // budget-exhausted verdicts
  std::uint64_t shedIdle = 0;
  std::uint64_t degradedMem = 0;
  std::uint64_t rateLimited = 0;
  std::uint64_t admissionRejects = 0;
};

// One serialized checkpoint produced by Engine::captureCheckpoint. `text`
// is a complete manifest (kind full) or a differential one (kind delta)
// holding only the sessions dirtied — and the keys removed — since the
// previous capture. Deltas chain: each names its parent's (epoch, checksum)
// and restore refuses a broken chain.
struct CheckpointCapture {
  bool delta = false;
  std::uint64_t epoch = 0;      // this manifest's epoch
  std::uint32_t checksum = 0;   // fnv1a32 over `text`
  std::size_t sessions = 0;     // session records serialized
  std::string text;
};

// Aggregate service counters (also exported as gpdd_* obs metrics; these
// plain copies feed the STATS JSON without touching the registry).
struct EngineStats {
  std::uint64_t framesAccepted = 0;
  std::uint64_t sessionsOpened = 0;
  std::uint64_t sessionsClosed = 0;
  std::uint64_t sessionsShedMem = 0;
  std::uint64_t sessionsShedBudget = 0;
  std::uint64_t sessionsShedIdle = 0;
  std::uint64_t sessionsDegradedMem = 0;
  std::uint64_t admissionRejects = 0;
  std::uint64_t rateLimited = 0;
  std::uint64_t protocolErrors = 0;  // ERR frames emitted
  std::uint64_t notificationsDelivered = 0;
  std::uint64_t nacksEmitted = 0;
  std::uint64_t detections = 0;
  std::uint64_t pumps = 0;
};

// Aggregated online-slice numbers across the open sessions (zeros unless
// the server runs with slicing enabled — gpdd --slice). Live gauges, not
// cumulative counters: they track what the open sessions currently retain.
struct SliceStats {
  std::uint64_t sessions = 0;       // open sessions maintaining a slice
  std::uint64_t notifications = 0;  // clocks absorbed by those slices
  std::uint64_t resolved = 0;       // join-irreducibles resolved
  std::uint64_t pending = 0;        // parked, waiting on another process
  std::uint64_t degraded = 0;       // slices latched degraded (shed/restore)
};

// One response frame payload, tagged with the origin the triggering command
// was submitted from so a socket front-end can route it back to the right
// connection. Session-associated frames (NACK/SHED/VERDICT) go to the
// session's owning origin — the origin of the last command that touched it.
struct Response {
  int origin = 0;
  std::string payload;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }

  // Queues one decoded frame payload. `origin` identifies the submitting
  // transport endpoint (0 for the stdin front-end).
  void submit(std::string payload, int origin = 0);

  // Processes every queued command; appends response frames to `out` in a
  // deterministic order (admission rejects, then shard 0..S-1 outputs, then
  // pump-end frames). With a pool, shards run on its workers — responses
  // and all session state are identical for any thread count.
  void pump(std::vector<Response>& out, par::Pool* pool = nullptr);

  // Finalizes every open session (VERDICT frames appended) — the SIGTERM
  // graceful-drain path. The engine stays usable (empty) afterwards.
  void drain(std::vector<Response>& out);

  // Whole-service checkpoint: a manifest embedding one io::checkpoint_io
  // checkpoint per live session. write is const and deterministic (sessions
  // in key order); restore validates everything (gpd::InputError on corrupt
  // or version-mismatched manifests) and reconstructs each session
  // bit-exactly, including its budget meter. writeManifest always emits a
  // full manifest at the current epoch and does not advance it.
  void writeManifest(std::ostream& os) const;
  static std::unique_ptr<Engine> restoreManifest(std::istream& is,
                                                 EngineOptions options);
  static std::unique_ptr<Engine> restoreManifestText(const std::string& text,
                                                     EngineOptions options);

  // Incremental checkpoints. captureCheckpoint serializes the service at
  // this pump boundary and advances the checkpoint epoch: with preferDelta
  // and a prior capture (or restore) to chain from, only the sessions
  // dirtied since that parent — plus the keys removed — are written, so
  // checkpoint cost scales with *changed* sessions. applyDeltaText patches
  // a restored engine forward one link; it refuses (gpd::InputError) a
  // delta whose parent (epoch, checksum) does not match this engine's —
  // a corrupted, reordered, or missing-middle chain never restores
  // silently wrong state.
  CheckpointCapture captureCheckpoint(bool preferDelta);
  void applyDeltaText(const std::string& text);

  // Epoch of the last capture/restore (0 = never captured) and the dirty
  // set's size — what the next delta would serialize.
  std::uint64_t checkpointEpoch() const { return checkpointEpoch_; }
  std::size_t dirtySessions() const;

  // Token of the last SYNC answered (empty until one is). Persisted in the
  // manifest: after a failover the promoted engine can tell clients exactly
  // which barrier its state includes.
  const std::string& lastSyncToken() const { return lastSyncToken_; }

  // Host hooks set by protocol commands during the last pump.
  bool consumeCheckpointRequest();
  bool shutdownRequested() const { return shutdownRequested_; }

  const EngineStats& stats() const { return stats_; }
  std::size_t openSessions() const;
  std::uint64_t estimatedBytes() const { return totalBytes_; }
  // Current ladder rung: 0 normal, 1 reject-new, 2 degrade, 3 shed.
  int memLevel() const { return memLevel_; }

  // The STATS frame body: one-line JSON of EngineStats + live gauges +
  // per-tenant breakdowns, or the multi-line text rendering of the same.
  // Both render one field list and write nothing to the gpd::obs registry.
  std::string statsJson() const;
  std::string statsText() const;

  // Cumulative per-tenant counters (never forgets a tenant).
  const std::map<std::string, TenantStats>& tenantStats() const;

  // Online-slice aggregate over the open sessions (all-zero when sessions
  // run without SessionOptions::enableSlice).
  SliceStats sliceStats() const;

  // Mirrors the per-tenant numbers into the gpd::obs registry as labelled
  // gauges, gpdd_tenant_{sessions,ev_bytes,sheds,budget_exhausted} with
  // {tenant="<name>"}, plus the gpdd_slice_* aggregates. Callers that
  // render the registry (telemetry, --stats-dump) call it first.
  void publishTenantMetrics() const;

 private:
  struct Session;
  struct Cmd;
  struct Impl;
  struct ShardAcc;

  // The STATS fields in render order: the engine-wide list, and one list
  // per tenant. statsJson and statsText differ only in framing.
  struct StatsField;
  std::vector<StatsField> engineStatsFields() const;
  std::vector<StatsField> tenantStatsFields(const std::string& name,
                                            const TenantStats& t) const;
  std::size_t liveTenantSessions(const std::string& tenant) const;

  void writeManifestText(std::ostream& os, bool delta, std::uint64_t epoch,
                         std::uint64_t parentEpoch,
                         std::uint32_t parentChecksum) const;
  // Parses one manifest into this engine: a full manifest replaces
  // everything (the engine must be fresh), a delta patches. Returns true if
  // the manifest was a delta.
  bool readManifestText(std::istream& is);

  Session* openSession(std::string_view tenant, std::string_view id,
                       int processes, long long prio,
                       std::uint64_t pumpIndex);
  void dispatch(Cmd& cmd, ShardAcc& acc, std::uint64_t pumpIndex);
  void deliverOne(Session& s, int p, std::uint64_t seq,
                  std::vector<int> clock, ShardAcc& acc);
  void eraseClosedSessions();
  void closeBookkeeping(Session& s);
  void sweepIdle(std::vector<Response>& out, std::uint64_t pumpIndex);
  void runLadder(std::vector<Response>& out);
  void updateMemLevel();

  EngineOptions options_;
  EngineStats stats_;
  std::uint64_t totalBytes_ = 0;
  int memLevel_ = 0;
  bool shutdownRequested_ = false;
  bool checkpointRequested_ = false;
  std::string lastSyncToken_;
  // Checkpoint-chain state: epoch/checksum of the last capture or restore
  // (the parent the next delta will name), and whether one exists at all.
  std::uint64_t checkpointEpoch_ = 0;
  std::uint32_t lastCaptureChecksum_ = 0;
  bool hasCapture_ = false;
  Impl* impl_;
};

}  // namespace gpd::service
