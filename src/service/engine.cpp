#include "service/engine.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "io/checkpoint_io.h"
#include "io/token_reader.h"
#include "obs/metrics.h"
#include "service/frame.h"
#include "util/check.h"

namespace gpd::service {

namespace {

using monitor::Delivery;
using monitor::MonitorSession;

// Structural bounds for client-supplied numbers: a command claiming more is
// hostile (or corrupt), not big. Kept well under any arithmetic edge.
constexpr long long kMaxProcesses = 4096;
constexpr long long kMaxSeq = 1ll << 40;
constexpr long long kMaxBatch = 1 << 20;
constexpr long long kMaxTicks = 1 << 20;
constexpr long long kMaxPrio = 1000000000;

bool validId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// Platform-stable shard assignment (FNV-1a over "tenant/session"): the same
// session lands on the same shard before and after a crash-restart, on any
// machine, so recovery replays are bit-identical.
std::uint32_t shardHash(std::string_view tenant, std::string_view id) {
  std::uint32_t h = 2166136261u;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 16777619u;
    }
  };
  mix(tenant);
  h ^= static_cast<unsigned char>('/');
  h *= 16777619u;
  mix(id);
  return h;
}

std::string makeKey(std::string_view tenant, std::string_view id) {
  std::string key;
  key.reserve(tenant.size() + 1 + id.size());
  key.append(tenant);
  key += '/';
  key.append(id);
  return key;
}

// Whitespace tokenizer over one command payload. All whitespace (including
// the newlines that separate EVB clock lines) is equivalent; structure comes
// from token counts. Throws InputError on malformed numbers, so one corrupt
// command turns into one ERR frame, never a crash.
class Cursor {
 public:
  explicit Cursor(std::string_view s)
      : p_(s.data()), end_(s.data() + s.size()) {}

  std::string_view token() {
    skipSpace();
    const char* b = p_;
    while (p_ < end_ && !isSpace(*p_)) ++p_;
    return {b, static_cast<std::size_t>(p_ - b)};
  }

  long long integer(const char* what, long long lo, long long hi) {
    const std::string_view t = token();
    GPD_INPUT_CHECK(!t.empty(), "missing " << what);
    std::size_t i = 0;
    bool neg = false;
    if (t[0] == '-') {
      neg = true;
      i = 1;
    }
    GPD_INPUT_CHECK(i < t.size(),
                    "'" << t << "' is not an integer (" << what << ")");
    long long v = 0;
    for (; i < t.size(); ++i) {
      const char c = t[i];
      GPD_INPUT_CHECK(c >= '0' && c <= '9',
                      "'" << t << "' is not an integer (" << what << ")");
      GPD_INPUT_CHECK(
          v <= (std::numeric_limits<long long>::max() - (c - '0')) / 10,
          "integer overflow in " << what);
      v = v * 10 + (c - '0');
    }
    if (neg) v = -v;
    GPD_INPUT_CHECK(v >= lo && v <= hi, what << " value " << v
                                             << " out of range [" << lo
                                             << ", " << hi << "]");
    return v;
  }

  bool atEnd() {
    skipSpace();
    return p_ == end_;
  }

 private:
  static bool isSpace(char c) {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
  }
  void skipSpace() {
    while (p_ < end_ && isSpace(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

std::string errPayload(const char* code, std::string_view tenant,
                       std::string_view id, std::string_view msg) {
  std::string out = "ERR ";
  out += code;
  out += ' ';
  out.append(tenant.empty() ? std::string_view("-") : tenant);
  out += ' ';
  out.append(id.empty() ? std::string_view("-") : id);
  out += ' ';
  out.append(msg);
  return out;
}

constexpr char kManifestMagic[] = "gpdd-manifest";
constexpr int kManifestVersion = 2;

}  // namespace

// Per-shard output and counter accumulator: shards never touch shared
// engine state during the parallel phase, so responses and stats merge
// identically for any thread count.
struct Engine::ShardAcc {
  std::vector<Response> out;
  long long bytesDelta = 0;
  std::uint64_t delivered = 0;
  std::uint64_t nacks = 0;
  std::uint64_t detections = 0;
  std::uint64_t protoErrors = 0;
  std::uint64_t closed = 0;
  std::uint64_t shedBudget = 0;
  // Budget sheds by tenant, merged into tenantStats in shard order so the
  // per-tenant counters stay deterministic for any thread count.
  std::map<std::string, std::uint64_t> tenantShedBudget;
};

// One tenant session: the resilient monitor plus the service-side state the
// ladder, the budget, and crash recovery need.
struct Engine::Session {
  std::string tenant;
  std::string id;
  int processes = 0;
  long long prio = 0;
  int shard = 0;
  int origin = 0;  // endpoint of the last command that touched the session
  std::uint64_t lastActivityPump = 0;
  // Successful Budget::chargeCombination() calls so far — persisted so a
  // restored session's meter resumes exactly where the crashed one stopped.
  std::uint64_t budgetCharged = 0;
  bool detectNotified = false;  // DETECT frame already emitted (persisted)
  bool closed = false;
  std::uint64_t approxBytes = 0;
  std::unique_ptr<control::Budget> budget;
  std::unique_ptr<MonitorSession> mon;
  // NACK frames produced by the session's retransmit callback during the
  // current command, flushed to the shard output right after it.
  std::vector<std::string> pendingNacks;

  // Estimated live bytes: a fixed overhead plus the queued and
  // reorder-buffered vector clocks. Deliberately coarse (the ladder needs a
  // monotone load signal, not an allocator audit) but deterministic — it
  // feeds the deterministic-replay contract.
  std::uint64_t estimateBytes() const {
    if (closed) return 0;
    const std::uint64_t n = static_cast<std::uint64_t>(processes);
    const auto& m = mon->monitor();
    std::uint64_t queued = 0;
    for (int p = 0; p < processes; ++p) queued += m.queueSize(p);
    const std::uint64_t perClock = 4 * n + 48;
    return 512 + n * 96 + queued * perClock +
           mon->bufferedCount() * (perClock + 16) + mon->sliceBytes();
  }

  std::string verdictPayload(bool asClosed, bool forceDegraded) const {
    const bool detected = mon->detected();
    const char* word = detected        ? "detected"
                       : forceDegraded ? "degraded"
                                       : monitor::toString(mon->verdict());
    const auto& st = mon->stats();
    std::ostringstream os;
    os << "VERDICT " << tenant << ' ' << id << ' ' << word << ' '
       << (detected ? 1 : 0) << ' ' << (asClosed ? "closed" : "open")
       << " delivered=" << st.delivered << " duplicates=" << st.duplicates
       << " nacks=" << st.nacksSent << " gaps=" << st.gapsDetected
       << " degraded-streams=" << st.degradedStreams
       << " comparisons=" << mon->monitor().comparisons();
    return os.str();
  }

  void flushNacks(ShardAcc& acc) {
    for (std::string& n : pendingNacks) {
      acc.out.push_back({origin, std::move(n)});
      ++acc.nacks;
    }
    pendingNacks.clear();
  }

  void emitDetectIfNew(ShardAcc& acc) {
    if (mon->detected() && !detectNotified) {
      detectNotified = true;
      acc.out.push_back({origin, "DETECT " + tenant + " " + id});
      ++acc.detections;
      GPD_OBS_COUNTER_ADD("gpdd_detections", 1);
    }
  }

  // Force-closes the session with an explicit reason. The verdict stays
  // honest: Detected if a witness was found, otherwise Degraded ("unknown")
  // — a shed session was interrupted, so NotDetected is never claimed.
  void shed(ShardAcc& acc, std::string_view reason) {
    std::string frame = "SHED " + tenant + " " + id + " ";
    frame.append(reason);
    acc.out.push_back({origin, std::move(frame)});
    acc.out.push_back({origin, verdictPayload(true, true)});
    pendingNacks.clear();
    closed = true;
    ++acc.closed;
  }

  // Ticks until gap recovery concludes (at close time retransmissions can
  // no longer arrive, so every open gap must run its retry budget out).
  // Bounded by construction: maxRetries * retryTimeout ticks degrade the
  // last gap.
  void settle() {
    const auto& o = mon->options();
    const std::uint64_t bound =
        (static_cast<std::uint64_t>(o.maxRetries) + 1) * o.retryTimeout + 2;
    for (std::uint64_t i = 0; i < bound && mon->hasActiveGaps(); ++i) {
      mon->tick();
    }
  }

  void installNackHook() {
    Session* sp = this;
    mon->onNack([sp](int p, std::uint64_t lo, std::uint64_t hi) {
      std::ostringstream os;
      os << "NACK " << sp->tenant << ' ' << sp->id << ' ' << p << ' ' << lo
         << ' ' << hi;
      sp->pendingNacks.push_back(os.str());
    });
  }
};

struct Engine::Cmd {
  std::string payload;
  int origin = 0;
  Session* session = nullptr;
};

struct Engine::Impl {
  struct Pending {
    std::string payload;
    int origin = 0;
  };

  std::vector<Pending> inbox;
  // Key = "tenant/id". std::map for deterministic iteration order — the
  // manifest, the ladder, and the idle sweep all walk it.
  std::map<std::string, std::unique_ptr<Session>> sessions;
  std::map<std::string, std::size_t> tenantSessions;
  // Delta-manifest bookkeeping since the last captureCheckpoint (or
  // restore): session keys touched (over-marking is harmless — an unchanged
  // session in a delta still restores bit-exactly) and keys erased. Both
  // are only mutated in the single-threaded admission/sweep phases.
  std::set<std::string> dirty;
  std::set<std::string> removed;
  // Cumulative per-tenant counters; never forgets a tenant.
  std::map<std::string, TenantStats> tenantStats;
};

Engine::Engine(EngineOptions options) : options_(options), impl_(new Impl) {
  if (options_.shards < 1) options_.shards = 1;
}

Engine::~Engine() { delete impl_; }

void Engine::submit(std::string payload, int origin) {
  ++stats_.framesAccepted;
  impl_->inbox.push_back({std::move(payload), origin});
}

std::size_t Engine::openSessions() const { return impl_->sessions.size(); }

bool Engine::consumeCheckpointRequest() {
  const bool r = checkpointRequested_;
  checkpointRequested_ = false;
  return r;
}

void Engine::pump(std::vector<Response>& out, par::Pool* pool) {
  const std::uint64_t pumpIndex = stats_.pumps;
  const int S = options_.shards;
  std::vector<std::vector<Cmd>> shardCmds(static_cast<std::size_t>(S));
  std::vector<Response> early;         // admission rejects, arrival order
  std::vector<Impl::Pending> central;  // STATS/CHECKPOINT/SHUTDOWN/SYNC
  std::map<std::string, std::uint64_t> rateUsed;  // per tenant, this pump

  // ---- Admission (single-threaded, arrival order) ----
  for (Impl::Pending& pend : impl_->inbox) {
    Cursor c(pend.payload);
    const std::string_view verb = c.token();
    if (verb == "STATS" || verb == "CHECKPOINT" || verb == "SHUTDOWN" ||
        verb == "SYNC") {
      central.push_back(std::move(pend));
      continue;
    }
    const bool sessionVerb = verb == "OPEN" || verb == "EV" ||
                             verb == "EVB" || verb == "END" ||
                             verb == "TICK" || verb == "QUERY" ||
                             verb == "CLOSE";
    if (!sessionVerb) {
      early.push_back(
          {pend.origin, errPayload("bad-command", "-", "-", "unknown command")});
      ++stats_.protocolErrors;
      continue;
    }
    const std::string_view tenant = c.token();
    const std::string_view id = c.token();
    if (!validId(tenant) || !validId(id)) {
      early.push_back({pend.origin, errPayload("bad-argument", tenant, id,
                                               "malformed tenant/session id")});
      ++stats_.protocolErrors;
      continue;
    }
    const std::string key = makeKey(tenant, id);
    if (verb == "OPEN") {
      if (impl_->sessions.find(key) != impl_->sessions.end()) {
        early.push_back({pend.origin, errPayload("duplicate-session", tenant,
                                                 id, "session already open")});
        ++stats_.protocolErrors;
        continue;
      }
      if (options_.maxSessions != 0 &&
          impl_->sessions.size() >= options_.maxSessions) {
        early.push_back({pend.origin,
                         errPayload("admission-global-cap", tenant, id,
                                    "global session cap reached, retry")});
        ++stats_.admissionRejects;
        ++impl_->tenantStats[std::string(tenant)].admissionRejects;
        continue;
      }
      const auto tc = impl_->tenantSessions.find(std::string(tenant));
      if (options_.maxSessionsPerTenant != 0 &&
          tc != impl_->tenantSessions.end() &&
          tc->second >= options_.maxSessionsPerTenant) {
        early.push_back({pend.origin,
                         errPayload("admission-tenant-cap", tenant, id,
                                    "tenant session cap reached, retry")});
        ++stats_.admissionRejects;
        ++impl_->tenantStats[std::string(tenant)].admissionRejects;
        continue;
      }
      if (memLevel_ >= 1) {
        early.push_back({pend.origin,
                         errPayload("admission-mem", tenant, id,
                                    "memory watermark reached, retry")});
        ++stats_.admissionRejects;
        ++impl_->tenantStats[std::string(tenant)].admissionRejects;
        continue;
      }
      try {
        const int processes =
            static_cast<int>(c.integer("processes", 1, kMaxProcesses));
        long long prio = 0;
        if (!c.atEnd()) {
          const std::string_view kw = c.token();
          GPD_INPUT_CHECK(kw == "prio",
                          "unexpected OPEN argument '" << kw << "'");
          prio = c.integer("prio", 0, kMaxPrio);
          GPD_INPUT_CHECK(c.atEnd(), "trailing bytes after OPEN");
        }
        Session* sess = openSession(tenant, id, processes, prio, pumpIndex);
        shardCmds[static_cast<std::size_t>(sess->shard)].push_back(
            {std::move(pend.payload), pend.origin, sess});
      } catch (const gpd::InputError& e) {
        early.push_back(
            {pend.origin, errPayload("bad-argument", tenant, id, e.what())});
        ++stats_.protocolErrors;
      }
      continue;
    }
    const auto it = impl_->sessions.find(key);
    if (it == impl_->sessions.end()) {
      early.push_back({pend.origin, errPayload("unknown-session", tenant, id,
                                               "no such session")});
      ++stats_.protocolErrors;
      continue;
    }
    if (options_.tenantRateBytesPerPump != 0 &&
        (verb == "EV" || verb == "EVB")) {
      std::uint64_t& used = rateUsed[std::string(tenant)];
      if (used + pend.payload.size() > options_.tenantRateBytesPerPump) {
        early.push_back({pend.origin,
                         errPayload("rate-limited", tenant, id,
                                    "tenant byte rate exceeded, retry")});
        ++stats_.rateLimited;
        ++impl_->tenantStats[std::string(tenant)].rateLimited;
        continue;
      }
      used += pend.payload.size();
    }
    Session* sess = it->second.get();
    if (verb == "EV" || verb == "EVB") {
      impl_->tenantStats[sess->tenant].evBytes += pend.payload.size();
    }
    impl_->dirty.insert(key);
    shardCmds[static_cast<std::size_t>(sess->shard)].push_back(
        {std::move(pend.payload), pend.origin, sess});
  }
  impl_->inbox.clear();

  // ---- Sharded session work (optionally on the pool) ----
  std::vector<ShardAcc> accs(static_cast<std::size_t>(S));
  auto processShard = [&](int sIdx) {
    ShardAcc& acc = accs[static_cast<std::size_t>(sIdx)];
    for (Cmd& cmd : shardCmds[static_cast<std::size_t>(sIdx)]) {
      Session& s = *cmd.session;
      const std::uint64_t before = s.approxBytes;
      try {
        dispatch(cmd, acc, pumpIndex);
      } catch (const gpd::InputError& e) {
        acc.out.push_back({cmd.origin, errPayload("bad-argument", s.tenant,
                                                  s.id, e.what())});
        ++acc.protoErrors;
      } catch (const gpd::CheckFailure&) {
        // A client payload drove the session into an internal-invariant
        // violation (e.g. vector clocks inconsistent with their sequence
        // numbers). The session is poisoned: quarantine it with an explicit
        // Degraded verdict instead of crashing the whole service.
        if (!s.closed) s.shed(acc, "internal-error");
      }
      s.approxBytes = s.estimateBytes();
      acc.bytesDelta += static_cast<long long>(s.approxBytes) -
                        static_cast<long long>(before);
    }
  };
  if (pool != nullptr && pool->threads() > 1 && S > 1) {
    const int T = pool->threads();
    pool->run([&](int w) {
      for (int sIdx = w; sIdx < S; sIdx += T) processShard(sIdx);
    });
  } else {
    for (int sIdx = 0; sIdx < S; ++sIdx) processShard(sIdx);
  }

  // ---- Deterministic merge ----
  for (Response& r : early) out.push_back(std::move(r));
  for (ShardAcc& acc : accs) {
    for (Response& r : acc.out) out.push_back(std::move(r));
    stats_.notificationsDelivered += acc.delivered;
    stats_.nacksEmitted += acc.nacks;
    stats_.detections += acc.detections;
    stats_.protocolErrors += acc.protoErrors;
    stats_.sessionsClosed += acc.closed;
    stats_.sessionsShedBudget += acc.shedBudget;
    for (const auto& [tenant, n] : acc.tenantShedBudget) {
      impl_->tenantStats[tenant].shedBudget += n;
    }
    totalBytes_ = static_cast<std::uint64_t>(
        static_cast<long long>(totalBytes_) + acc.bytesDelta);
  }

  // ---- Post-pump sweep (single-threaded) ----
  eraseClosedSessions();
  sweepIdle(out, pumpIndex);
  runLadder(out);
  updateMemLevel();

  // Central commands answer last, after the pump's full effect — a SYNC
  // response therefore proves every prior command (and the ladder's
  // reaction to it) is visible, which is what the lockstep harness needs.
  for (Impl::Pending& pend : central) {
    Cursor c(pend.payload);
    const std::string_view verb = c.token();
    if (verb == "STATS") {
      const std::string_view fmt = c.token();
      if (fmt.empty() || fmt == "json") {
        out.push_back({pend.origin, "STATS " + statsJson()});
      } else if (fmt == "text") {
        out.push_back({pend.origin, "STATS " + statsText()});
      } else {
        out.push_back({pend.origin, errPayload("bad-argument", "-", "-",
                                               "unknown STATS format")});
        ++stats_.protocolErrors;
      }
    } else if (verb == "CHECKPOINT") {
      checkpointRequested_ = true;
      out.push_back({pend.origin, "OK CHECKPOINT"});
    } else if (verb == "SHUTDOWN") {
      shutdownRequested_ = true;
      out.push_back({pend.origin, "OK SHUTDOWN draining"});
    } else {  // SYNC
      const std::string_view token = c.token();
      if (!validId(token)) {
        out.push_back({pend.origin, errPayload("bad-argument", "-", "-",
                                               "malformed SYNC token")});
        ++stats_.protocolErrors;
      } else {
        lastSyncToken_ = std::string(token);
        std::string reply = "SYNC ";
        reply.append(token);
        out.push_back({pend.origin, std::move(reply)});
      }
    }
  }

  ++stats_.pumps;
  GPD_OBS_COUNTER_ADD("gpdd_pumps", 1);
  GPD_OBS_GAUGE_SET("gpdd_sessions_open", impl_->sessions.size());
  GPD_OBS_GAUGE_SET("gpdd_mem_bytes", totalBytes_);
  GPD_OBS_GAUGE_SET("gpdd_mem_level", memLevel_);
}

Engine::Session* Engine::openSession(std::string_view tenant,
                                     std::string_view id, int processes,
                                     long long prio,
                                     std::uint64_t pumpIndex) {
  auto sess = std::make_unique<Session>();
  Session* sp = sess.get();
  sp->tenant = std::string(tenant);
  sp->id = std::string(id);
  sp->processes = processes;
  sp->prio = prio;
  sp->shard = static_cast<int>(shardHash(tenant, id) %
                               static_cast<std::uint32_t>(options_.shards));
  sp->lastActivityPump = pumpIndex;
  if (options_.sessionMaxCombinations != 0 || options_.sessionBudgetMs != 0) {
    control::BudgetLimits limits;
    limits.maxCombinations = options_.sessionMaxCombinations;
    limits.deadlineMillis = options_.sessionBudgetMs;
    sp->budget = std::make_unique<control::Budget>(limits);
  }
  sp->mon = std::make_unique<MonitorSession>(processes, options_.session);
  sp->installNackHook();
  sp->approxBytes = sp->estimateBytes();
  totalBytes_ += sp->approxBytes;
  ++impl_->tenantSessions[sp->tenant];
  ++impl_->tenantStats[sp->tenant].sessionsOpened;
  ++stats_.sessionsOpened;
  GPD_OBS_COUNTER_ADD("gpdd_sessions_opened", 1);
  const std::string key = makeKey(tenant, id);
  impl_->dirty.insert(key);
  impl_->removed.erase(key);
  impl_->sessions.emplace(key, std::move(sess));
  return sp;
}

void Engine::dispatch(Cmd& cmd, ShardAcc& acc, std::uint64_t pumpIndex) {
  Session& s = *cmd.session;
  s.origin = cmd.origin;
  s.lastActivityPump = pumpIndex;
  Cursor c(cmd.payload);
  const std::string_view verb = c.token();
  if (verb == "OPEN") {
    acc.out.push_back({cmd.origin, "OK OPEN " + s.tenant + " " + s.id});
    return;
  }
  if (s.closed) {
    // The session was shed earlier in this shard's queue; later commands in
    // the same pump see the same answer a next-pump command would.
    acc.out.push_back({cmd.origin, errPayload("unknown-session", s.tenant,
                                              s.id, "no such session")});
    ++acc.protoErrors;
    return;
  }
  c.token();  // tenant — validated at admission
  c.token();  // id
  if (verb == "EV") {
    const int p = static_cast<int>(c.integer("process", 0, s.processes - 1));
    const std::uint64_t seq =
        static_cast<std::uint64_t>(c.integer("seq", 0, kMaxSeq));
    std::vector<int> clock(static_cast<std::size_t>(s.processes));
    for (int i = 0; i < s.processes; ++i) {
      clock[static_cast<std::size_t>(i)] = static_cast<int>(
          c.integer("clock", std::numeric_limits<int>::min(),
                    std::numeric_limits<int>::max()));
    }
    GPD_INPUT_CHECK(c.atEnd(), "trailing bytes after EV clock");
    deliverOne(s, p, seq, std::move(clock), acc);
  } else if (verb == "EVB") {
    const int p = static_cast<int>(c.integer("process", 0, s.processes - 1));
    const std::uint64_t first =
        static_cast<std::uint64_t>(c.integer("firstSeq", 0, kMaxSeq));
    const long long count = c.integer("count", 0, kMaxBatch);
    for (long long i = 0; i < count; ++i) {
      std::vector<int> clock(static_cast<std::size_t>(s.processes));
      for (int j = 0; j < s.processes; ++j) {
        clock[static_cast<std::size_t>(j)] = static_cast<int>(
            c.integer("clock", std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max()));
      }
      deliverOne(s, p, first + static_cast<std::uint64_t>(i),
                 std::move(clock), acc);
      if (s.closed) return;  // shed mid-batch (budget): stop parsing
    }
    GPD_INPUT_CHECK(c.atEnd(), "trailing bytes after EVB batch");
  } else if (verb == "END") {
    const int p = static_cast<int>(c.integer("process", 0, s.processes - 1));
    const std::uint64_t count =
        static_cast<std::uint64_t>(c.integer("count", 0, kMaxSeq));
    GPD_INPUT_CHECK(c.atEnd(), "trailing bytes after END");
    s.mon->announceEnd(p, count);
    s.flushNacks(acc);
  } else if (verb == "TICK") {
    long long n = 1;
    if (!c.atEnd()) n = c.integer("ticks", 1, kMaxTicks);
    GPD_INPUT_CHECK(c.atEnd(), "trailing bytes after TICK");
    for (long long i = 0; i < n; ++i) s.mon->tick();
    s.flushNacks(acc);
  } else if (verb == "QUERY") {
    GPD_INPUT_CHECK(c.atEnd(), "trailing bytes after QUERY");
    acc.out.push_back({cmd.origin, s.verdictPayload(false, false)});
  } else {  // CLOSE — the only remaining admitted verb
    GPD_INPUT_CHECK(c.atEnd(), "trailing bytes after CLOSE");
    s.settle();
    s.pendingNacks.clear();  // the client is leaving; NACKs are moot
    acc.out.push_back({cmd.origin, s.verdictPayload(true, false)});
    s.closed = true;
    ++acc.closed;
  }
}

void Engine::deliverOne(Session& s, int p, std::uint64_t seq,
                        std::vector<int> clock, ShardAcc& acc) {
  if (s.budget != nullptr && !s.budget->chargeCombination()) {
    ++acc.shedBudget;
    ++acc.tenantShedBudget[s.tenant];
    GPD_OBS_COUNTER_ADD("gpdd_shed_budget", 1);
    std::string reason = "budget-";
    reason += control::toString(s.budget->reason());
    s.shed(acc, reason);
    return;
  }
  if (s.budget != nullptr) ++s.budgetCharged;
  Delivery d = Delivery::Rejected;
  for (int attempt = 0; attempt < 64; ++attempt) {
    d = s.mon->deliver(p, seq, std::vector<int>(clock));
    if (d != Delivery::Rejected) break;
    s.mon->tick();  // let retry timers / eliminations make room
  }
  if (d == Delivery::Rejected) {
    // Queue persistently full under backpressure: the stream cannot make
    // progress without unbounded memory, so degrade it and move on.
    s.mon->degradeStream(p);
    d = s.mon->deliver(p, seq, std::vector<int>(clock));
  }
  if (d != Delivery::Duplicate) ++acc.delivered;
  s.emitDetectIfNew(acc);
  s.flushNacks(acc);
}

void Engine::eraseClosedSessions() {
  for (auto it = impl_->sessions.begin(); it != impl_->sessions.end();) {
    if (it->second->closed) {
      closeBookkeeping(*it->second);
      it = impl_->sessions.erase(it);
    } else {
      ++it;
    }
  }
}

void Engine::closeBookkeeping(Session& s) {
  auto tc = impl_->tenantSessions.find(s.tenant);
  if (tc != impl_->tenantSessions.end() && --tc->second == 0) {
    impl_->tenantSessions.erase(tc);
  }
  // Every session erasure funnels through here: move the key from the dirty
  // set to the removed set so the next delta manifest records the absence.
  const std::string key = makeKey(s.tenant, s.id);
  impl_->dirty.erase(key);
  impl_->removed.insert(key);
  ++impl_->tenantStats[s.tenant].sessionsClosed;
  GPD_OBS_COUNTER_ADD("gpdd_sessions_closed", 1);
}

void Engine::sweepIdle(std::vector<Response>& out, std::uint64_t pumpIndex) {
  if (options_.idleTimeoutPumps == 0) return;
  for (auto it = impl_->sessions.begin(); it != impl_->sessions.end();) {
    Session& s = *it->second;
    if (pumpIndex - s.lastActivityPump >= options_.idleTimeoutPumps) {
      out.push_back({s.origin, "SHED " + s.tenant + " " + s.id + " idle"});
      out.push_back({s.origin, s.verdictPayload(true, true)});
      totalBytes_ -= std::min(totalBytes_, s.approxBytes);
      ++stats_.sessionsShedIdle;
      ++impl_->tenantStats[s.tenant].shedIdle;
      ++stats_.sessionsClosed;
      GPD_OBS_COUNTER_ADD("gpdd_shed_idle", 1);
      closeBookkeeping(s);
      it = impl_->sessions.erase(it);
    } else {
      ++it;
    }
  }
}

void Engine::runLadder(std::vector<Response>& out) {
  const std::uint64_t W = options_.memWatermarkBytes;
  if (W == 0) return;
  const std::uint64_t mid = W / 100 * 85 + W % 100 * 85 / 100;

  // Rung 2 (≥ 0.85·W): degrade the heaviest tenants in place. Reorder
  // buffers are dropped and monitor queues truncated — memory comes back
  // now, verdicts widen to Degraded, the sessions stay open.
  if (totalBytes_ >= mid) {
    std::map<std::string, std::uint64_t> tenantBytes;
    for (const auto& [key, s] : impl_->sessions) {
      tenantBytes[s->tenant] += s->approxBytes;
    }
    std::vector<std::pair<std::uint64_t, std::string>> tenants;
    tenants.reserve(tenantBytes.size());
    for (const auto& [t, b] : tenantBytes) tenants.push_back({b, t});
    std::sort(tenants.begin(), tenants.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (const auto& [tBytes, tenant] : tenants) {
      if (totalBytes_ < mid) break;
      std::vector<Session*> members;
      for (const auto& [key, s] : impl_->sessions) {
        if (s->tenant == tenant) members.push_back(s.get());
      }
      std::sort(members.begin(), members.end(),
                [](const Session* a, const Session* b) {
                  if (a->approxBytes != b->approxBytes) {
                    return a->approxBytes > b->approxBytes;
                  }
                  return a->id < b->id;
                });
      for (Session* s : members) {
        if (totalBytes_ < mid) break;
        if (s->mon->shedMemory(4) == 0) continue;
        const std::uint64_t before = s->approxBytes;
        s->approxBytes = s->estimateBytes();
        totalBytes_ -= std::min(totalBytes_, before - s->approxBytes);
        out.push_back(
            {s->origin, "DEGRADE " + s->tenant + " " + s->id + " memory"});
        ++stats_.sessionsDegradedMem;
        ++impl_->tenantStats[s->tenant].degradedMem;
        impl_->dirty.insert(makeKey(s->tenant, s->id));
        GPD_OBS_COUNTER_ADD("gpdd_degraded_mem", 1);
      }
    }
  }

  // Rung 3 (≥ W): shed lowest-priority sessions outright until usage drops
  // below the degrade threshold.
  if (totalBytes_ >= W) {
    std::vector<Session*> order;
    order.reserve(impl_->sessions.size());
    for (const auto& [key, s] : impl_->sessions) order.push_back(s.get());
    std::sort(order.begin(), order.end(),
              [](const Session* a, const Session* b) {
                if (a->prio != b->prio) return a->prio < b->prio;
                if (a->approxBytes != b->approxBytes) {
                  return a->approxBytes > b->approxBytes;
                }
                return makeKey(a->tenant, a->id) < makeKey(b->tenant, b->id);
              });
    for (Session* s : order) {
      if (totalBytes_ < mid) break;
      out.push_back(
          {s->origin, "SHED " + s->tenant + " " + s->id + " memory"});
      out.push_back({s->origin, s->verdictPayload(true, true)});
      totalBytes_ -= std::min(totalBytes_, s->approxBytes);
      ++stats_.sessionsShedMem;
      ++impl_->tenantStats[s->tenant].shedMem;
      ++stats_.sessionsClosed;
      GPD_OBS_COUNTER_ADD("gpdd_shed_mem", 1);
      closeBookkeeping(*s);
      impl_->sessions.erase(makeKey(s->tenant, s->id));
    }
  }
}

void Engine::updateMemLevel() {
  const std::uint64_t W = options_.memWatermarkBytes;
  if (W == 0) {
    memLevel_ = 0;
    return;
  }
  const std::uint64_t lo = W / 100 * 70 + W % 100 * 70 / 100;
  const std::uint64_t mid = W / 100 * 85 + W % 100 * 85 / 100;
  if (totalBytes_ >= W) {
    memLevel_ = 3;
  } else if (totalBytes_ >= mid) {
    memLevel_ = 2;
  } else if (totalBytes_ >= lo) {
    memLevel_ = 1;
  } else {
    memLevel_ = 0;
  }
}

void Engine::drain(std::vector<Response>& out) {
  for (auto& [key, s] : impl_->sessions) {
    s->settle();
    s->pendingNacks.clear();
    out.push_back({s->origin, s->verdictPayload(true, false)});
    ++stats_.sessionsClosed;
    closeBookkeeping(*s);
  }
  impl_->sessions.clear();
  impl_->tenantSessions.clear();
  totalBytes_ = 0;
  updateMemLevel();
}

void Engine::writeManifest(std::ostream& os) const {
  // Legacy whole-service checkpoint: always a full manifest at the current
  // epoch, never advancing the chain — write → restore → write round-trips
  // to identical bytes, which the recovery property suite depends on.
  writeManifestText(os, false, checkpointEpoch_, 0, 0);
  GPD_CHECK_MSG(os.good(), "manifest write failed");
}

void Engine::writeManifestText(std::ostream& os, bool delta,
                               std::uint64_t epoch, std::uint64_t parentEpoch,
                               std::uint32_t parentChecksum) const {
  os << kManifestMagic << ' ' << kManifestVersion << '\n';
  os << "kind " << (delta ? "delta" : "full") << '\n';
  os << "epoch " << epoch << '\n';
  if (delta) {
    os << "parent " << parentEpoch << ' ' << parentChecksum << '\n';
  }
  const EngineStats& st = stats_;
  os << "stats " << st.framesAccepted << ' ' << st.sessionsOpened << ' '
     << st.sessionsClosed << ' ' << st.sessionsShedMem << ' '
     << st.sessionsShedBudget << ' ' << st.sessionsShedIdle << ' '
     << st.sessionsDegradedMem << ' ' << st.admissionRejects << ' '
     << st.rateLimited << ' ' << st.protocolErrors << ' '
     << st.notificationsDelivered << ' ' << st.nacksEmitted << ' '
     << st.detections << ' ' << st.pumps << '\n';
  os << "last-sync " << (lastSyncToken_.empty() ? 0 : 1);
  if (!lastSyncToken_.empty()) os << ' ' << lastSyncToken_;
  os << '\n';
  // The per-tenant table is small (one line per tenant ever seen) so both
  // kinds carry it wholesale; only session records are differential.
  os << "tenants " << impl_->tenantStats.size() << '\n';
  for (const auto& [name, t] : impl_->tenantStats) {
    os << "tenant " << name << ' ' << t.sessionsOpened << ' '
       << t.sessionsClosed << ' ' << t.evBytes << ' ' << t.shedMem << ' '
       << t.shedBudget << ' ' << t.shedIdle << ' ' << t.degradedMem << ' '
       << t.rateLimited << ' ' << t.admissionRejects << '\n';
  }
  if (delta) {
    os << "removed " << impl_->removed.size() << '\n';
    for (const std::string& key : impl_->removed) {
      const std::size_t slash = key.find('/');
      os << "gone " << key.substr(0, slash) << ' ' << key.substr(slash + 1)
         << '\n';
    }
  }
  std::size_t count = 0;
  if (delta) {
    for (const std::string& key : impl_->dirty) {
      if (impl_->sessions.find(key) != impl_->sessions.end()) ++count;
    }
  } else {
    count = impl_->sessions.size();
  }
  os << "sessions " << count << '\n';
  for (const auto& [key, s] : impl_->sessions) {
    if (delta && impl_->dirty.find(key) == impl_->dirty.end()) continue;
    os << "session " << s->tenant << ' ' << s->id << ' ' << s->prio << ' '
       << s->processes << ' ' << s->lastActivityPump << ' '
       << s->budgetCharged << ' ' << int(s->detectNotified) << '\n';
    io::writeCheckpoint(os, s->mon->snapshot());
  }
  os << "manifest-end\n";
}

bool Engine::readManifestText(std::istream& is) {
  io::TokenReader r(is, "manifest");
  GPD_INPUT_CHECK(r.word("magic") == kManifestMagic,
                  "not a gpdd-manifest stream");
  const long long version = r.integer("version", 0, 1 << 20);
  GPD_INPUT_CHECK(version == kManifestVersion,
                  "unsupported manifest version " << version);
  r.keyword("kind");
  const std::string kind = r.word("manifest kind");
  const bool delta = kind == "delta";
  GPD_INPUT_CHECK(delta || kind == "full",
                  "manifest: unknown kind '" << kind << "'");
  r.keyword("epoch");
  const std::uint64_t epoch = r.counter("epoch");
  if (delta) {
    r.keyword("parent");
    const std::uint64_t parentEpoch = r.counter("parent epoch");
    const std::uint64_t parentChecksum = r.counter("parent checksum");
    GPD_INPUT_CHECK(hasCapture_,
                    "manifest: delta with no prior manifest to chain from");
    GPD_INPUT_CHECK(
        parentEpoch == checkpointEpoch_ &&
            parentChecksum == lastCaptureChecksum_,
        "manifest: delta parent (epoch "
            << parentEpoch << ", checksum " << parentChecksum
            << ") does not match the restored chain (epoch "
            << checkpointEpoch_ << ", checksum " << lastCaptureChecksum_
            << ") — corrupted, reordered, or missing link");
    GPD_INPUT_CHECK(epoch > parentEpoch,
                    "manifest: delta epoch does not advance past its parent");
  } else {
    GPD_INPUT_CHECK(impl_->sessions.empty() && stats_.pumps == 0,
                    "manifest: full manifest applied to a non-fresh engine");
  }
  r.keyword("stats");
  EngineStats& st = stats_;
  st.framesAccepted = r.counter("stats");
  st.sessionsOpened = r.counter("stats");
  st.sessionsClosed = r.counter("stats");
  st.sessionsShedMem = r.counter("stats");
  st.sessionsShedBudget = r.counter("stats");
  st.sessionsShedIdle = r.counter("stats");
  st.sessionsDegradedMem = r.counter("stats");
  st.admissionRejects = r.counter("stats");
  st.rateLimited = r.counter("stats");
  st.protocolErrors = r.counter("stats");
  st.notificationsDelivered = r.counter("stats");
  st.nacksEmitted = r.counter("stats");
  st.detections = r.counter("stats");
  st.pumps = r.counter("stats");
  r.keyword("last-sync");
  const long long hasSync = r.integer("last-sync flag", 0, 1);
  if (hasSync != 0) {
    const std::string tok = r.word("last-sync token");
    GPD_INPUT_CHECK(validId(tok), "manifest: malformed last-sync token");
    lastSyncToken_ = tok;
  } else {
    lastSyncToken_.clear();
  }
  r.keyword("tenants");
  const long long tenantCount = r.integer("tenant count", 0, 1 << 22);
  impl_->tenantStats.clear();
  for (long long i = 0; i < tenantCount; ++i) {
    r.keyword("tenant");
    const std::string name = r.word("tenant name");
    GPD_INPUT_CHECK(validId(name), "manifest: malformed tenant name");
    TenantStats& t = impl_->tenantStats[name];
    t.sessionsOpened = r.counter("tenant stats");
    t.sessionsClosed = r.counter("tenant stats");
    t.evBytes = r.counter("tenant stats");
    t.shedMem = r.counter("tenant stats");
    t.shedBudget = r.counter("tenant stats");
    t.shedIdle = r.counter("tenant stats");
    t.degradedMem = r.counter("tenant stats");
    t.rateLimited = r.counter("tenant stats");
    t.admissionRejects = r.counter("tenant stats");
  }
  if (delta) {
    r.keyword("removed");
    const long long removedCount = r.integer("removed count", 0, 1 << 22);
    for (long long i = 0; i < removedCount; ++i) {
      r.keyword("gone");
      const std::string tenant = r.word("tenant");
      const std::string id = r.word("session id");
      GPD_INPUT_CHECK(validId(tenant) && validId(id),
                      "manifest: malformed removed session id");
      // Erase-if-present: a session opened and closed inside one epoch is
      // reported gone without ever appearing in the parent.
      impl_->sessions.erase(makeKey(tenant, id));
    }
  }
  r.keyword("sessions");
  const long long count = r.integer("session count", 0, 1 << 22);
  for (long long i = 0; i < count; ++i) {
    r.keyword("session");
    const std::string tenant = r.word("tenant");
    const std::string id = r.word("session id");
    GPD_INPUT_CHECK(validId(tenant) && validId(id),
                    "manifest: malformed tenant/session id");
    const long long prio = r.integer("prio", 0, kMaxPrio);
    const int processes =
        static_cast<int>(r.integer("processes", 1, kMaxProcesses));
    const std::uint64_t lastActivityPump = r.counter("lastActivityPump");
    const std::uint64_t budgetCharged = r.counter("budgetCharged");
    const bool detectNotified = r.integer("detectNotified", 0, 1) != 0;
    const monitor::SessionSnapshot snap = io::readCheckpoint(is);
    GPD_INPUT_CHECK(snap.monitor.processes == processes,
                    "manifest: session checkpoint process count mismatch");
    const std::string key = makeKey(tenant, id);
    if (delta) {
      impl_->sessions.erase(key);  // dirty record replaces it wholesale
    } else {
      GPD_INPUT_CHECK(impl_->sessions.find(key) == impl_->sessions.end(),
                      "manifest: duplicate session '" << key << "'");
    }
    auto sess = std::make_unique<Session>();
    Session* sp = sess.get();
    sp->tenant = tenant;
    sp->id = id;
    sp->processes = processes;
    sp->prio = prio;
    sp->shard = static_cast<int>(
        shardHash(tenant, id) % static_cast<std::uint32_t>(options_.shards));
    sp->lastActivityPump = lastActivityPump;
    sp->budgetCharged = budgetCharged;
    sp->detectNotified = detectNotified;
    sp->mon = std::make_unique<MonitorSession>(
        MonitorSession::restore(snap, options_.session));
    sp->installNackHook();
    if (options_.sessionMaxCombinations != 0 || options_.sessionBudgetMs != 0) {
      control::BudgetLimits limits;
      limits.maxCombinations = options_.sessionMaxCombinations;
      limits.deadlineMillis = options_.sessionBudgetMs;
      sp->budget = std::make_unique<control::Budget>(limits);
      if (options_.sessionMaxCombinations != 0) {
        // Replay the meter: a combination limit is deterministic state, so
        // the restored budget must stand exactly where the saved one did.
        GPD_INPUT_CHECK(budgetCharged <= options_.sessionMaxCombinations,
                        "manifest: budgetCharged exceeds the session limit");
        for (std::uint64_t n = 0; n < budgetCharged; ++n) {
          sp->budget->chargeCombination();
        }
      }
    }
    sp->approxBytes = sp->estimateBytes();
    impl_->sessions.emplace(key, std::move(sess));
  }
  r.keyword("manifest-end");
  // Rebuild the derived aggregates wholesale — cheap (one pass over the
  // session map) and immune to patch-accounting drift.
  impl_->tenantSessions.clear();
  totalBytes_ = 0;
  for (const auto& [key, s] : impl_->sessions) {
    ++impl_->tenantSessions[s->tenant];
    totalBytes_ += s->approxBytes;
  }
  updateMemLevel();
  impl_->dirty.clear();
  impl_->removed.clear();
  checkpointEpoch_ = epoch;
  hasCapture_ = true;
  return delta;
}

std::unique_ptr<Engine> Engine::restoreManifest(std::istream& is,
                                                EngineOptions options) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return restoreManifestText(buf.str(), options);
}

std::unique_ptr<Engine> Engine::restoreManifestText(const std::string& text,
                                                    EngineOptions options) {
  auto eng = std::make_unique<Engine>(options);
  std::istringstream is(text);
  const bool delta = eng->readManifestText(is);
  GPD_INPUT_CHECK(!delta,
                  "cannot restore from a delta manifest without the full "
                  "manifest it chains from");
  eng->lastCaptureChecksum_ = fnv1a32(text);
  GPD_OBS_COUNTER_ADD("gpdd_recoveries", 1);
  return eng;
}

CheckpointCapture Engine::captureCheckpoint(bool preferDelta) {
  CheckpointCapture cap;
  cap.delta = preferDelta && hasCapture_;
  cap.epoch = checkpointEpoch_ + 1;
  if (cap.delta) {
    for (const std::string& key : impl_->dirty) {
      if (impl_->sessions.find(key) != impl_->sessions.end()) ++cap.sessions;
    }
  } else {
    cap.sessions = impl_->sessions.size();
  }
  std::ostringstream os;
  writeManifestText(os, cap.delta, cap.epoch, checkpointEpoch_,
                    lastCaptureChecksum_);
  GPD_CHECK_MSG(os.good(), "manifest capture failed");
  cap.text = os.str();
  cap.checksum = fnv1a32(cap.text);
  checkpointEpoch_ = cap.epoch;
  lastCaptureChecksum_ = cap.checksum;
  hasCapture_ = true;
  impl_->dirty.clear();
  impl_->removed.clear();
  GPD_OBS_COUNTER_ADD("gpdd_checkpoints_captured", 1);
  return cap;
}

void Engine::applyDeltaText(const std::string& text) {
  // On InputError the engine may hold a partially applied patch — callers
  // (chain recovery, replication) must discard it, never keep serving.
  std::istringstream is(text);
  const bool delta = readManifestText(is);
  GPD_INPUT_CHECK(delta, "applyDeltaText: manifest is not a delta");
  lastCaptureChecksum_ = fnv1a32(text);
  GPD_OBS_COUNTER_ADD("gpdd_deltas_applied", 1);
}

std::size_t Engine::dirtySessions() const {
  std::size_t n = 0;
  for (const std::string& key : impl_->dirty) {
    if (impl_->sessions.find(key) != impl_->sessions.end()) ++n;
  }
  return n;
}

const std::map<std::string, TenantStats>& Engine::tenantStats() const {
  return impl_->tenantStats;
}

SliceStats Engine::sliceStats() const {
  SliceStats sl;
  for (const auto& [key, s] : impl_->sessions) {
    if (s->closed) continue;
    const monitor::OnlineSlice* slice = s->mon->slice();
    if (slice == nullptr) continue;
    ++sl.sessions;
    const monitor::OnlineSliceStats st = slice->stats();
    sl.notifications += st.notifications;
    sl.resolved += st.resolved;
    sl.pending += st.pending;
    if (st.degraded) ++sl.degraded;
  }
  return sl;
}

std::size_t Engine::liveTenantSessions(const std::string& tenant) const {
  const auto live = impl_->tenantSessions.find(tenant);
  return live == impl_->tenantSessions.end() ? 0 : live->second;
}

void Engine::publishTenantMetrics() const {
#ifndef GPD_OBS_DISABLED
  obs::Registry& reg = obs::registry();
  for (const auto& [name, t] : impl_->tenantStats) {
    const obs::Labels tenant = {{"tenant", name}};
    reg.gauge("gpdd_tenant_sessions", tenant).set(liveTenantSessions(name));
    reg.gauge("gpdd_tenant_ev_bytes", tenant).set(t.evBytes);
    reg.gauge("gpdd_tenant_sheds", tenant)
        .set(t.shedMem + t.shedBudget + t.shedIdle);
    reg.gauge("gpdd_tenant_budget_exhausted", tenant).set(t.shedBudget);
  }
  const SliceStats sl = sliceStats();
  reg.gauge("gpdd_slice_sessions").set(sl.sessions);
  reg.gauge("gpdd_slice_notifications").set(sl.notifications);
  reg.gauge("gpdd_slice_resolved").set(sl.resolved);
  reg.gauge("gpdd_slice_pending").set(sl.pending);
  reg.gauge("gpdd_slice_degraded").set(sl.degraded);
#endif
}

// One STATS field. statsJson writes `"json":value` (the value quoted when
// `quoted`); statsText writes the text key and the value, "-" when empty.
struct Engine::StatsField {
  const char* json;
  const char* text;
  std::string value;
  bool quoted = false;
};

std::vector<Engine::StatsField> Engine::engineStatsFields() const {
  const EngineStats& st = stats_;
  const SliceStats sl = sliceStats();
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  return {
      {"frames_accepted", "frames-accepted", n(st.framesAccepted)},
      {"sessions_open", "sessions-open", n(impl_->sessions.size())},
      {"sessions_opened", "sessions-opened", n(st.sessionsOpened)},
      {"sessions_closed", "sessions-closed", n(st.sessionsClosed)},
      {"shed_mem", "shed-mem", n(st.sessionsShedMem)},
      {"shed_budget", "shed-budget", n(st.sessionsShedBudget)},
      {"shed_idle", "shed-idle", n(st.sessionsShedIdle)},
      {"degraded_mem", "degraded-mem", n(st.sessionsDegradedMem)},
      {"admission_rejects", "admission-rejects", n(st.admissionRejects)},
      {"rate_limited", "rate-limited", n(st.rateLimited)},
      {"protocol_errors", "protocol-errors", n(st.protocolErrors)},
      {"notifications", "notifications", n(st.notificationsDelivered)},
      {"nacks", "nacks", n(st.nacksEmitted)},
      {"detections", "detections", n(st.detections)},
      {"pumps", "pumps", n(st.pumps)},
      {"estimated_bytes", "estimated-bytes", n(totalBytes_)},
      {"mem_level", "mem-level", n(memLevel_)},
      {"epoch", "epoch", n(checkpointEpoch_)},
      {"dirty_sessions", "dirty-sessions", n(dirtySessions())},
      {"last_sync", "last-sync", lastSyncToken_, true},
      {"slice_sessions", "slice-sessions", n(sl.sessions)},
      {"slice_notifications", "slice-notifications", n(sl.notifications)},
      {"slice_resolved", "slice-resolved", n(sl.resolved)},
      {"slice_pending", "slice-pending", n(sl.pending)},
      {"slice_degraded", "slice-degraded", n(sl.degraded)},
  };
}

std::vector<Engine::StatsField> Engine::tenantStatsFields(
    const std::string& name, const TenantStats& t) const {
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  return {
      {"sessions_open", "open", n(liveTenantSessions(name))},
      {"sessions_opened", "opened", n(t.sessionsOpened)},
      {"sessions_closed", "closed", n(t.sessionsClosed)},
      {"ev_bytes", "ev-bytes", n(t.evBytes)},
      {"shed_mem", "shed-mem", n(t.shedMem)},
      {"shed_budget", "shed-budget", n(t.shedBudget)},
      {"shed_idle", "shed-idle", n(t.shedIdle)},
      {"degraded_mem", "degraded-mem", n(t.degradedMem)},
      {"rate_limited", "rate-limited", n(t.rateLimited)},
      {"admission_rejects", "admission-rejects", n(t.admissionRejects)},
  };
}

std::string Engine::statsJson() const {
  std::ostringstream os;
  const auto writeFields = [&os](const std::vector<StatsField>& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const StatsField& f = fields[i];
      os << (i == 0 ? "\"" : ",\"") << f.json << "\":";
      if (f.quoted) {
        os << '"' << f.value << '"';
      } else {
        os << f.value;
      }
    }
  };
  os << '{';
  writeFields(engineStatsFields());
  if (!options_.buildInfo.empty()) {
    os << ",\"build\":{";
    bool firstLabel = true;
    for (const auto& [key, value] : options_.buildInfo) {
      if (!firstLabel) os << ',';
      firstLabel = false;
      os << '"' << key << "\":\"" << value << '"';
    }
    os << '}';
  }
  // "tenants" renders last so a first-occurrence scan for any global
  // counter key never lands on a per-tenant copy.
  os << ",\"tenants\":{";
  bool first = true;
  for (const auto& [name, t] : impl_->tenantStats) {
    os << (first ? "\"" : ",\"") << name << "\":{";
    first = false;
    writeFields(tenantStatsFields(name, t));
    os << '}';
  }
  os << "}}";
  return os.str();
}

std::string Engine::statsText() const {
  std::ostringstream os;
  os << "gpdd stats\n";
  for (const StatsField& f : engineStatsFields()) {
    os << "  " << f.text << ' ' << (f.value.empty() ? "-" : f.value) << '\n';
  }
  for (const auto& [key, value] : options_.buildInfo) {
    os << "  build-" << key << ' ' << value << '\n';
  }
  for (const auto& [name, t] : impl_->tenantStats) {
    os << "tenant " << name;
    for (const StatsField& f : tenantStatsFields(name, t)) {
      os << ' ' << f.text << '=' << f.value;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace gpd::service
