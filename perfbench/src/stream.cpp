// gpdd-stream: online monitoring through the real gpdd binary.
//
// One single-threaded client drives `gpdd --threads 2 --shards 8` over its
// stdin/stdout pipe in a closed loop. Every batch is pre-encoded during
// set-up, stays under the serve loop's 64 KiB read, and ends in SYNC; one
// operation is one batch, timed from the first byte sent to the SYNC echo.
//
// The load is stationary: kLive sessions are always open, and every batch
// ENDs and CLOSEs a fixed slice of them and OPENs their successors. Tenant
// activity is skewed (tenant t's sessions send in about 32/(t+1) of their
// batches), so checkpoint deltas carry a fraction of the sessions. Each
// batch also QUERYs a few sessions and asks for STATS once; every 8th batch
// asks for a CHECKPOINT (every 4th of those is full), and the server
// rewrites its telemetry file every 32 pumps.
//
// The traced run replays the identical batches in-process through the
// calls gpdd's serve loop makes (FrameDecoder, Engine::submit/pump on a
// 2-worker par::Pool, ManifestLog::store, obs::renderOpenMetrics), then
// pumps the same commands through a sequential engine.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "io/checkpoint_io.h"
#include "model.h"
#include "monitor/online.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "par/pool.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/manifest_log.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kProcesses = 4;
constexpr int kEventsPerProcess = 40;
constexpr double kPTrue = 0.35;
constexpr int kLive = 1024;       // sessions open at any time
constexpr int kLifetime = 64;     // batches a session stays open
constexpr int kCycle = 128;       // batches before the inputs repeat
constexpr int kTenants = 16;
constexpr int kQueriesPerBatch = 8;
constexpr int kCheckpointEvery = 8;   // batches
constexpr int kFullEvery = 4;         // checkpoints
constexpr int kTelemetryEvery = 32;   // pumps
constexpr std::size_t kMaxBatchBytes = 64 * 1024;
constexpr int kReplayBatches = 2 * kCycle;  // traced replay after warm-up

struct SessionSpec {
  std::string key;  // "<tenant> <session>"
  std::vector<std::vector<std::vector<int>>> notes;  // [process][seq] clock
  bool detected = false;  // ground truth
};

// One batch of frames. `closes` are the sessions whose final VERDICT the
// batch must return, with the verdict ground truth expects.
struct Batch {
  std::string bytes;
  std::vector<std::pair<std::string, bool>> closes;
  std::uint64_t notifications = 0;
  int opens = 0;
  bool checkpoint = false;
};

struct Inputs {
  std::vector<SessionSpec> sessions;          // slot-major: [gen * kLive + slot]
  std::unordered_map<std::string, bool> truth;  // key -> detected
  std::vector<Batch> prefix;  // the first pass: no earlier generation to close
  std::vector<Batch> cycle;   // steady state, repeated
  std::uint64_t notes = 0;
  double monitorNs = 0;  // ground-truth monitor time, all sessions

  const Batch& at(std::uint64_t k) const {
    return k < static_cast<std::uint64_t>(kLifetime)
               ? prefix[k]
               : cycle[k % static_cast<std::uint64_t>(kCycle)];
  }
};

constexpr int kGenerations = kCycle / kLifetime;

// Batch (within the cycle) in which generation `gen` of `slot` opens.
int openBatch(int slot, int gen) { return gen * kLifetime + slot % kLifetime; }

SessionSpec makeSession(std::uint64_t seed, int slot, int gen) {
  SplitMix rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(gen * kLive + slot) + 7);
  SessionSpec s;
  s.key = "t" + std::to_string(slot % kTenants) + " s" + std::to_string(slot) +
          "-" + std::to_string(gen);
  s.notes.assign(kProcesses, {});
  // A seeded message-passing walk: V[p][p] counts p's events; a receive
  // joins in the sender's current clock.
  std::vector<std::vector<int>> vc(kProcesses, std::vector<int>(kProcesses, 0));
  std::vector<int> left(kProcesses, kEventsPerProcess);
  for (int total = kProcesses * kEventsPerProcess; total > 0; --total) {
    int p = 0;
    do {
      p = rng.range(0, kProcesses - 1);
    } while (left[static_cast<std::size_t>(p)] == 0);
    auto& mine = vc[static_cast<std::size_t>(p)];
    --left[static_cast<std::size_t>(p)];
    if (rng.chance(0.4)) {
      int q = p;
      while (q == p) q = rng.range(0, kProcesses - 1);
      for (int k = 0; k < kProcesses; ++k) {
        mine[static_cast<std::size_t>(k)] =
            std::max(mine[static_cast<std::size_t>(k)], vc[static_cast<std::size_t>(q)][static_cast<std::size_t>(k)]);
      }
    }
    ++mine[static_cast<std::size_t>(p)];
    if (rng.chance(kPTrue)) s.notes[static_cast<std::size_t>(p)].push_back(mine);
  }
  return s;
}

// Ground truth: every notification through a local checker, offered
// round-robin (the conjunctive verdict does not depend on interleaving).
bool groundTruth(const SessionSpec& s) {
  gpd::monitor::MonitorOptions mo;
  mo.maxQueuePerProcess = 0;
  gpd::monitor::ConjunctiveMonitor m(kProcesses, mo);
  for (std::size_t step = 0; !m.detected(); ++step) {
    bool any = false;
    for (int p = 0; p < kProcesses && !m.detected(); ++p) {
      const auto& list = s.notes[static_cast<std::size_t>(p)];
      if (step < list.size()) {
        m.offer(p, list[step]);
        any = true;
      }
    }
    if (!any) break;
  }
  return m.detected();
}

void frame(std::string& out, const std::string& payload) {
  out += gpd::service::encodeFrame(payload);
}

// The EV frames session `s` sends in each batch of its life: its
// notifications, in one global order that keeps each process's in sequence,
// split evenly over the batches in which its tenant is active.
std::map<int, std::vector<std::string>> schedule(const SessionSpec& s, int slot,
                                                 int gen, std::uint64_t seed) {
  SplitMix rng(seed ^ (0xa5a5a5a5ULL + static_cast<std::uint64_t>(gen * kLive + slot)));
  const int tenant = slot % kTenants;
  const int active = std::max(1, 32 / (tenant + 1));
  std::vector<int> batches;
  for (int b = 1; b < kLifetime; ++b) batches.push_back(b);
  for (std::size_t i = 0; i + 1 < batches.size(); ++i) {  // partial shuffle
    std::swap(batches[i], batches[i + static_cast<std::size_t>(rng.range(0, static_cast<int>(batches.size() - i) - 1))]);
  }
  batches.resize(static_cast<std::size_t>(active));
  std::sort(batches.begin(), batches.end());
  std::vector<std::string> evs;
  std::vector<std::size_t> cursor(kProcesses, 0);
  for (bool more = true; more;) {
    more = false;
    for (int p = 0; p < kProcesses; ++p) {
      const auto& list = s.notes[static_cast<std::size_t>(p)];
      std::size_t& c = cursor[static_cast<std::size_t>(p)];
      if (c >= list.size()) continue;
      std::string ev = "EV " + s.key + " " + std::to_string(p) + " " + std::to_string(c);
      for (int v : list[c]) ev += " " + std::to_string(v);
      evs.push_back(std::move(ev));
      ++c;
      more = true;
    }
  }
  std::map<int, std::vector<std::string>> out;
  const int start = openBatch(slot, gen);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const std::size_t which = i * batches.size() / std::max<std::size_t>(evs.size(), 1);
    out[start + batches[which]].push_back(std::move(evs[i]));
  }
  return out;
}

Inputs buildInputs(std::uint64_t seed) {
  Inputs in;
  for (int gen = 0; gen < kGenerations; ++gen) {
    for (int slot = 0; slot < kLive; ++slot) {
      in.sessions.push_back(makeSession(seed, slot, gen));
    }
  }
  const std::int64_t t0 = nowNs();
  for (SessionSpec& s : in.sessions) {
    s.detected = groundTruth(s);
    in.truth[s.key] = s.detected;
    for (const auto& list : s.notes) in.notes += list.size();
  }
  in.monitorNs = static_cast<double>(nowNs() - t0);

  // Frames per cycle batch, tagged with whether they belong to a session
  // carried over from the previous pass (absent on the first pass).
  struct Tagged {
    std::string payload;
    bool carried;
  };
  struct Close {
    std::string key;
    bool detected;
    bool carried;
  };
  std::vector<std::vector<Tagged>> closing(kCycle), opening(kCycle), evs(kCycle);
  std::vector<std::vector<Close>> closes(kCycle);
  auto wrap = [](int b) { return static_cast<std::size_t>(b % kCycle); };
  for (int gen = 0; gen < kGenerations; ++gen) {
    for (int slot = 0; slot < kLive; ++slot) {
      const SessionSpec& s = in.sessions[static_cast<std::size_t>(gen * kLive + slot)];
      const int open = openBatch(slot, gen);
      const int close = open + kLifetime;  // may wrap into the next pass
      const bool carried = close >= kCycle;
      opening[wrap(open)].push_back({"OPEN " + s.key + " " + std::to_string(kProcesses), false});
      for (int p = 0; p < kProcesses; ++p) {
        closing[wrap(close)].push_back(
            {"END " + s.key + " " + std::to_string(p) + " " +
                 std::to_string(s.notes[static_cast<std::size_t>(p)].size()),
             carried});
      }
      closing[wrap(close)].push_back({"CLOSE " + s.key, carried});
      closes[wrap(close)].push_back({s.key, s.detected, carried});
      for (auto& [b, list] : schedule(s, slot, gen, seed)) {
        for (std::string& ev : list) evs[wrap(b)].push_back({std::move(ev), b >= kCycle});
      }
    }
  }
  // A batch: closing sessions first, then their successors, then events,
  // queries, STATS and (every kCheckpointEvery-th batch) CHECKPOINT.
  auto encode = [&](int b, bool firstPass) {
    Batch out;
    const auto bi = static_cast<std::size_t>(b);
    for (const auto* list : {&closing[bi], &opening[bi], &evs[bi]}) {
      for (const Tagged& t : *list) {
        if (firstPass && t.carried) continue;
        frame(out.bytes, t.payload);
        if (list == &opening[bi]) ++out.opens;
        if (list == &evs[bi]) ++out.notifications;
      }
    }
    for (const Close& c : closes[bi]) {
      if (!(firstPass && c.carried)) out.closes.push_back({c.key, c.detected});
    }
    // Reads beside writes: QUERY sessions opened half a lifetime ago.
    const int openedAt = b - kLifetime / 2;
    for (int i = 0; i < kQueriesPerBatch && !(firstPass && openedAt < 0); ++i) {
      const int wrapped = (openedAt + kCycle) % kCycle;
      const int gen = wrapped / kLifetime;
      const int slot = wrapped % kLifetime + kLifetime * i;
      frame(out.bytes, "QUERY " + in.sessions[static_cast<std::size_t>(gen * kLive + slot)].key);
    }
    frame(out.bytes, "STATS");
    out.checkpoint = b % kCheckpointEvery == kCheckpointEvery - 1;
    if (out.checkpoint) frame(out.bytes, "CHECKPOINT");
    GPD_INPUT_CHECK(out.bytes.size() + 64 <= kMaxBatchBytes,
                    "batch " << b << " is " << out.bytes.size() << " bytes");
    return out;
  };
  for (int b = 0; b < kLifetime; ++b) in.prefix.push_back(encode(b, true));
  for (int b = 0; b < kCycle; ++b) in.cycle.push_back(encode(b, false));
  return in;
}

std::string syncToken(std::uint64_t k) { return "b" + std::to_string(k); }

// What one batch's responses must contain. Returns an empty string when
// they do, else the first problem.
struct Check {
  const Inputs* in = nullptr;
  std::map<std::string, std::string>* finalVerdicts = nullptr;  // key -> word
  std::uint64_t openSessionsMin = ~0ULL, openSessionsMax = 0;

  std::string operator()(const Batch& b, const std::string& token,
                         const std::vector<std::string>& responses) {
    std::map<std::string, std::string> verdicts;
    int okOpen = 0, stats = 0, okCheckpoint = 0;
    bool sync = false;
    std::string problem;
    for (const std::string& r : responses) {
      std::istringstream is(r);
      std::string verb, a, c, word, state;
      is >> verb;
      if (verb == "VERDICT") {
        is >> a >> c >> word >> state >> state;
        const std::string key = a + " " + c;
        const auto it = in->truth.find(key);
        if (it == in->truth.end()) {
          problem = "VERDICT for unknown session " + key;
        } else if (word == "detected" && !it->second) {
          problem = "session " + key + " detected; ground truth is not";
        }
        if (state == "closed") verdicts[key] = word;
      } else if (verb == "DETECT") {
        is >> a >> c;
        const auto it = in->truth.find(a + " " + c);
        if (it == in->truth.end() || !it->second) {
          problem = "DETECT for " + a + " " + c + " against ground truth";
        }
      } else if (verb == "OK") {
        is >> a;
        okOpen += a == "OPEN";
        okCheckpoint += a == "CHECKPOINT";
      } else if (verb == "STATS") {
        ++stats;
        const std::size_t at = r.find("\"sessions_open\":");
        if (at != std::string::npos) {
          const std::uint64_t open = std::strtoull(r.c_str() + at + 16, nullptr, 10);
          openSessionsMin = std::min(openSessionsMin, open);
          openSessionsMax = std::max(openSessionsMax, open);
        }
      } else if (verb == "SYNC") {
        is >> a;
        sync = a == token;
      } else if (verb == "ERR") {
        problem = r;
      }
    }
    for (const auto& [key, detected] : b.closes) {
      const auto it = verdicts.find(key);
      const std::string want = detected ? "detected" : "not-detected";
      if (it == verdicts.end()) {
        problem = "no final VERDICT for " + key;
      } else if (it->second != want) {
        problem = "session " + key + " verdict " + it->second + ", ground truth " + want;
      }
      if (it != verdicts.end() && finalVerdicts) finalVerdicts->emplace(key, it->second);
    }
    if (!sync) problem = "missing SYNC " + token;
    if (okOpen != b.opens) problem = "expected " + std::to_string(b.opens) + " OK OPEN, got " + std::to_string(okOpen);
    if (stats != 1) problem = "expected one STATS reply";
    if (okCheckpoint != (b.checkpoint ? 1 : 0)) problem = "CHECKPOINT not acknowledged";
    return problem;
  }
};

// Splits a response frame list out of raw bytes.
void drainFrames(gpd::service::FrameDecoder& dec, std::vector<std::string>& out) {
  while (auto p = dec.pop()) out.push_back(std::move(*p));
}

class Server {
 public:
  Server(const Options& o, const std::string& tag) : dir_(o.workDir) {
    int in[2], out[2];
    GPD_INPUT_CHECK(::pipe(in) == 0 && ::pipe(out) == 0, "pipe failed");
    const std::string ckpt = dir_ + "/" + tag + ".ckpt";
    statsPath_ = dir_ + "/" + tag + ".stats.json";
    const std::string telemetry = dir_ + "/" + tag + ".prom";
    const std::string log = dir_ + "/" + tag + ".log";
    std::vector<std::string> args = {
        o.gpddPath, "--threads", "2", "--shards", "8",
        "--checkpoint", ckpt, "--full-every", std::to_string(kFullEvery),
        "--telemetry-file", telemetry, "--telemetry-every", std::to_string(kTelemetryEvery),
        "--stats-dump", statsPath_, "--stats-every", "1000000000",
        "--log-level", "warn"};
    pid_ = ::fork();
    GPD_INPUT_CHECK(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      ::dup2(in[0], 0);
      ::dup2(out[1], 1);
      const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) ::dup2(err, 2);
      ::close(in[0]);
      ::close(in[1]);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    write_ = in[1];
    read_ = out[0];
    ::fcntl(write_, F_SETFL, ::fcntl(write_, F_GETFL) | O_NONBLOCK);
    ::fcntl(read_, F_SETFL, ::fcntl(read_, F_GETFL) | O_NONBLOCK);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { stop(); }

  // Sends `bytes` and collects response frames until `token` is echoed.
  // Returns false on a timeout or a dead server. `busyNs` accrues the time
  // spent writing, reading and decoding (not waiting).
  bool roundTrip(const std::string& bytes, const std::string& token,
                 std::vector<std::string>& responses, double& busyNs) {
    std::size_t sent = 0;
    const std::int64_t deadline = nowNs() + 20'000'000'000LL;
    char buf[1 << 16];
    for (;;) {
      pollfd fds[2] = {{read_, POLLIN, 0}, {write_, POLLOUT, 0}};
      const int nfds = sent < bytes.size() ? 2 : 1;
      if (::poll(fds, static_cast<nfds_t>(nfds), 1000) < 0 && errno != EINTR) return false;
      const std::int64_t t0 = nowNs();
      if (sent < bytes.size()) {
        const ssize_t n = ::write(write_, bytes.data() + sent, bytes.size() - sent);
        if (n > 0) sent += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EAGAIN && errno != EINTR) return false;
      }
      bool done = false;
      for (;;) {
        const ssize_t n = ::read(read_, buf, sizeof(buf));
        if (n <= 0) {
          if (n == 0) return false;  // server exited
          break;
        }
        decoder_.feed({buf, static_cast<std::size_t>(n)});
        const std::size_t before = responses.size();
        drainFrames(decoder_, responses);
        for (std::size_t i = before; i < responses.size(); ++i) {
          if (responses[i] == "SYNC " + token) done = true;
        }
      }
      busyNs += static_cast<double>(nowNs() - t0);
      if (done) return true;
      if (nowNs() > deadline) return false;
    }
  }

  // Closes stdin (gpdd drains and exits), reads to EOF, reaps the child.
  // Returns its peak RSS in MiB.
  double stop() {
    if (pid_ <= 0) return 0;
    ::close(write_);
    ::fcntl(read_, F_SETFL, ::fcntl(read_, F_GETFL) & ~O_NONBLOCK);
    char buf[1 << 16];
    while (::read(read_, buf, sizeof(buf)) > 0) {
    }
    ::close(read_);
    int status = 0;
    rusage ru{};
    ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

  // gpdd's own mean pump time and pump count, from its final stats dump.
  std::pair<double, double> pumpStats() const {
    std::ifstream is(statsPath_);
    const std::string js((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
    const std::size_t at = js.find("\"gpdd_pump_nanos\"");
    if (at == std::string::npos) return {0, 0};
    const std::size_t c = js.find("\"count\":", at);
    const std::size_t s = js.find("\"sum\":", at);
    if (c == std::string::npos || s == std::string::npos) return {0, 0};
    return {std::strtod(js.c_str() + s + 6, nullptr), std::strtod(js.c_str() + c + 8, nullptr)};
  }

 private:
  std::string dir_;
  std::string statsPath_;
  pid_t pid_ = -1;
  int write_ = -1;
  int read_ = -1;
  gpd::service::FrameDecoder decoder_;
};

struct E2e {
  std::vector<double> latencyMs;
  std::uint64_t batches = 0;  // sent, warm-up included
  std::uint64_t attempted = 0, failed = 0, notifications = 0;
  double seconds = 0, busyNs = 0, loopNs = 0;
  std::vector<std::string> problems;
  std::uint64_t checkpointBatches = 0;
};

// Sends batch k; returns false when the server stopped answering.
bool sendBatch(Server& server, const Inputs& in, std::uint64_t k, Check& check,
               E2e& e, bool measured, bool injectFaults) {
  const Batch& b = in.at(k);
  const std::string token = syncToken(k);
  std::string bytes = b.bytes;
  frame(bytes, "SYNC " + token);
  std::vector<std::string> responses;
  const std::int64_t t0 = nowNs();
  const bool ok = server.roundTrip(bytes, token, responses, e.busyNs);
  const std::int64_t t1 = nowNs();
  ++e.batches;
  if (!measured) return ok;
  if (injectFaults && e.attempted == 5) {  // one wrong verdict
    for (std::string& r : responses) {
      if (r.find(" not-detected ") != std::string::npos && r.find(" closed") != std::string::npos) {
        r.replace(r.find(" not-detected "), 14, " detected ");
        break;
      }
      if (r.find(" detected ") != std::string::npos && r.find(" closed") != std::string::npos) {
        r.replace(r.find(" detected "), 10, " not-detected ");
        break;
      }
    }
  }
  if (injectFaults && e.attempted == 9) {  // one dropped response
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].rfind("VERDICT ", 0) == 0 &&
          responses[i].find(" closed") != std::string::npos) {
        responses.erase(responses.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  const std::int64_t v0 = nowNs();
  const std::string problem = ok ? check(b, token, responses) : "no SYNC echo";
  e.busyNs += static_cast<double>(nowNs() - v0);
  ++e.attempted;
  e.latencyMs.push_back(static_cast<double>(t1 - t0) / 1e6);
  e.notifications += b.notifications;
  e.checkpointBatches += b.checkpoint ? 1 : 0;
  if (!problem.empty()) {
    ++e.failed;
    if (e.problems.size() < 10) e.problems.push_back("batch " + token + ": " + problem);
  }
  return ok;
}

// Warm-up: the first pass opens every slot, then one more lifetime reaches
// steady queue contents.
constexpr std::uint64_t kWarmBatches = 2 * kLifetime;

struct Replay {
  std::vector<double> submitMs, pumpMs, statsMs, telemetryMs, inServerMs;
  std::vector<double> fullMs, deltaMs, fullKib, deltaKib, deltaShare;
  double decodeNs = 0, decodeBytes = 0, pumpNs = 0, seqPumpNs = 0;
  std::uint64_t notificationsDelivered = 0;
  std::uint64_t openMin = ~0ULL, openMax = 0;
  std::uint64_t failed = 0;
  gpd::service::EngineStats stats;
  double estimatedMib = 0;
};

Replay replay(const Options& o, const Inputs& in, Tracer& tr, Check& check) {
  Replay r;
  gpd::service::EngineOptions eo;
  eo.shards = 8;
  gpd::service::Engine engine(eo);
  gpd::par::Pool pool(2);
  gpd::service::ManifestLog log(o.workDir + "/replay.ckpt", kFullEvery);
  gpd::service::FrameDecoder decoder;
  std::uint64_t pumpsSinceTelemetry = 0;
  const std::uint64_t total = kWarmBatches + kReplayBatches;
  for (std::uint64_t k = 0; k < total; ++k) {
    const bool measured = k >= kWarmBatches;
    const Batch& b = in.at(k);
    std::string bytes = b.bytes;
    frame(bytes, "SYNC " + syncToken(k));
    const std::uint64_t delivered = engine.stats().notificationsDelivered;

    const int root = tr.begin("batch", "bench", k, -1);
    int s = tr.begin("frame.decode", "service", k, root);
    decoder.feed(bytes);
    std::vector<std::string> payloads;
    drainFrames(decoder, payloads);
    tr.end(s);
    s = tr.begin("engine.submit", "service", k, root);
    for (std::string& p : payloads) engine.submit(std::move(p), 0);
    tr.end(s);
    const int submitSpan = s;
    std::vector<gpd::service::Response> out;
    s = tr.begin("engine.pump", "service", k, root);
    engine.pump(out, &pool);
    tr.end(s);
    const int pumpSpan = s;
    if (engine.consumeCheckpointRequest()) {
      s = tr.begin("manifest.store", "service", k, root);
      const gpd::service::CheckpointCapture cap = log.store(engine);
      tr.end(s);
      if (measured) {
        const double ms = static_cast<double>(tr.duration(s)) / 1e6;
        const double kib = static_cast<double>(cap.text.size()) / 1024;
        (cap.delta ? r.deltaMs : r.fullMs).push_back(ms);
        (cap.delta ? r.deltaKib : r.fullKib).push_back(kib);
        if (cap.delta) {
          r.deltaShare.push_back(100.0 * static_cast<double>(cap.sessions) /
                                 static_cast<double>(std::max<std::size_t>(engine.openSessions(), 1)));
        }
      }
    }
    int telemetrySpan = -1;
    if (++pumpsSinceTelemetry >= kTelemetryEvery) {
      pumpsSinceTelemetry = 0;
      telemetrySpan = tr.begin("telemetry.render", "obs", k, root);
      engine.publishTenantMetrics();
      std::ostringstream os;
      gpd::obs::renderOpenMetrics(os, gpd::obs::registry().snapshot(), eo.buildInfo);
      gpd::io::atomicWriteFile(o.workDir + "/replay.prom", os.str());
      tr.end(telemetrySpan);
    }
    s = tr.begin("frame.encode", "service", k, root);
    std::string wire;
    for (const gpd::service::Response& resp : out) wire += gpd::service::encodeFrame(resp.payload);
    tr.end(s);
    tr.end(root);

    // Outside the batch: a timed STATS render.
    const std::int64_t st0 = nowNs();
    const std::string statsJson = engine.statsJson();
    const double statsMs = static_cast<double>(nowNs() - st0) / 1e6;

    std::vector<std::string> responses;
    for (gpd::service::Response& resp : out) responses.push_back(std::move(resp.payload));
    const std::string problem = check(b, syncToken(k), responses);
    if (!measured) continue;
    if (!problem.empty()) ++r.failed;
    r.decodeBytes += static_cast<double>(bytes.size());
    r.decodeNs += static_cast<double>(tr.duration(root + 1));
    r.submitMs.push_back(static_cast<double>(tr.duration(submitSpan)) / 1e6);
    r.pumpMs.push_back(static_cast<double>(tr.duration(pumpSpan)) / 1e6);
    r.pumpNs += static_cast<double>(tr.duration(pumpSpan));
    r.inServerMs.push_back(static_cast<double>(tr.duration(root)) / 1e6);
    r.statsMs.push_back(statsMs);
    if (telemetrySpan >= 0) r.telemetryMs.push_back(static_cast<double>(tr.duration(telemetrySpan)) / 1e6);
    r.notificationsDelivered += engine.stats().notificationsDelivered - delivered;
    r.openMin = std::min<std::uint64_t>(r.openMin, engine.openSessions());
    r.openMax = std::max<std::uint64_t>(r.openMax, engine.openSessions());
    r.estimatedMib = std::max(r.estimatedMib, static_cast<double>(engine.estimatedBytes()) / (1 << 20));
  }
  r.stats = engine.stats();

  // The same pumps on a sequential engine, for the pool's speed-up.
  gpd::service::Engine sequential(eo);
  gpd::service::FrameDecoder seqDecoder;
  for (std::uint64_t k = 0; k < total; ++k) {
    std::string bytes = in.at(k).bytes;
    frame(bytes, "SYNC " + syncToken(k));
    seqDecoder.feed(bytes);
    std::vector<std::string> payloads;
    drainFrames(seqDecoder, payloads);
    for (std::string& p : payloads) sequential.submit(std::move(p), 0);
    std::vector<gpd::service::Response> out;
    const std::int64_t q0 = nowNs();
    sequential.pump(out, nullptr);
    if (k >= kWarmBatches) r.seqPumpNs += static_cast<double>(nowNs() - q0);
    sequential.consumeCheckpointRequest();
  }
  return r;
}

// Cost of recording one span, to turn a span count into overhead.
double spanCostNs() {
  Tracer t;
  constexpr int kN = 20000;
  const std::int64_t t0 = nowNs();
  for (int i = 0; i < kN; ++i) t.end(t.begin("x", "y", 0, -1));
  return static_cast<double>(nowNs() - t0) / kN;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

}  // namespace

Result runGpddStream(const Options& o) {
  GPD_INPUT_CHECK(!o.gpddPath.empty() && ::access(o.gpddPath.c_str(), X_OK) == 0,
                  "gpdd binary not found: '" << o.gpddPath << "'");
  ::signal(SIGPIPE, SIG_IGN);
  Result r;
  Inputs in;
  std::unique_ptr<Server> server;
  std::map<std::string, std::string> serverVerdicts;
  Check check;
  check.finalVerdicts = &serverVerdicts;
  // Set-up, three times: inputs from the seed, ground truth, spawn, and the
  // first pass that opens every session.
  int rep = 0;
  const double setup = medianSeconds(3, [&] {
    if (server) server->stop();
    in = buildInputs(o.seed);
    check.in = &in;
    server = std::make_unique<Server>(o, "gpdd" + std::to_string(rep++));
    E2e warm;
    for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(kLifetime); ++k) {
      GPD_INPUT_CHECK(sendBatch(*server, in, k, check, warm, false, false),
                      "gpdd did not answer during set-up");
    }
  });
  // The measured server continues from the set-up pass.
  E2e warmRest;
  for (std::uint64_t k = kLifetime; k < kWarmBatches; ++k) {
    GPD_INPUT_CHECK(sendBatch(*server, in, k, check, warmRest, false, false),
                    "gpdd did not answer during warm-up");
  }
  E2e e;
  std::uint64_t sent = 0;
  {
    const std::int64_t start = nowNs();
    const double seconds = o.trace ? o.seconds / 3 : o.seconds;
    std::uint64_t k = kWarmBatches;
    while (static_cast<double>(nowNs() - start) / 1e9 < seconds) {
      if (!sendBatch(*server, in, k++, check, e, true, o.injectFaults && !o.trace)) break;
    }
    e.seconds = static_cast<double>(nowNs() - start) / 1e9;
    e.loopNs = e.seconds * 1e9;
    sent = k;
  }
  const double rssMib = server->stop();
  const auto [serverPumpSum, serverPumps] = server->pumpStats();
  r.attempted = e.attempted;
  r.failed = e.failed;
  const LatencySummary lat = summarize(e.latencyMs);
  const double throughput = static_cast<double>(e.notifications) / e.seconds;
  {
    std::ostringstream os;
    os << "gpdd-stream: " << e.attempted << " batches, " << e.notifications
       << " notifications in " << e.seconds << " s; tail = p" << lat.tailPercentile
       << " of " << lat.samples << " samples; checkpoint batches "
       << 100.0 * static_cast<double>(e.checkpointBatches) / static_cast<double>(std::max<std::uint64_t>(e.attempted, 1))
       << "% (full " << 100.0 / (kCheckpointEvery * kFullEvery) << "%), telemetry every "
       << kTelemetryEvery << " pumps; live sessions min " << check.openSessionsMin
       << " max " << check.openSessionsMax << "; client busy "
       << 100.0 * e.busyNs / e.loopNs << "%";
    r.note(os.str());
  }
  for (const std::string& p : e.problems) r.note("FAIL " + p);

  if (!o.trace) {
    r.set("throughput", throughput, "1/s");
    r.set("latency_p50_ms", lat.p50, "ms");
    r.set("latency_tail_ms", lat.tail, "ms");
    r.set("peak_rss_mib", rssMib, "MiB");
    r.set("setup_s", setup, "s");
    return r;
  }

  // Traced replay, in-process, of the same batches.
  Tracer tracer;
  std::map<std::string, std::string> replayVerdicts;
  Check replayCheck;
  replayCheck.in = &in;
  replayCheck.finalVerdicts = &replayVerdicts;
  const Replay rp = replay(o, in, tracer, replayCheck);
  r.attempted += kReplayBatches;
  r.failed += rp.failed;
  std::size_t compared = 0, mismatched = 0;
  for (const auto& [key, word] : replayVerdicts) {
    const auto it = serverVerdicts.find(key);
    if (it == serverVerdicts.end()) continue;
    ++compared;
    if (it->second != word) ++mismatched;
  }
  if (mismatched > 0 || compared == 0) r.crossChecksOk = false;

  const LatencySummary submit = summarize(rp.submitMs);
  const LatencySummary pump = summarize(rp.pumpMs);
  r.set("frame.decode_mib_s", rp.decodeBytes / (1 << 20) / (rp.decodeNs / 1e9), "MiB/s");
  r.set("engine.submit_ms.p50", submit.p50, "ms");
  r.set("engine.submit_ms.tail", submit.tail, "ms");
  r.set("engine.pump_ms.p50", pump.p50, "ms");
  r.set("engine.pump_ms.tail", pump.tail, "ms");
  r.set("engine.pump_ns_per_notification",
        rp.pumpNs / static_cast<double>(std::max<std::uint64_t>(rp.notificationsDelivered, 1)), "ns");
  r.set("par.shard_speedup", rp.seqPumpNs / rp.pumpNs, "x");
  r.set("manifest.capture_ms.full", median(rp.fullMs), "ms");
  r.set("manifest.capture_ms.delta", median(rp.deltaMs), "ms");
  r.set("manifest.kib.full", median(rp.fullKib), "KiB");
  r.set("manifest.kib.delta", median(rp.deltaKib), "KiB");
  r.set("manifest.delta_session_share", median(rp.deltaShare), "%");
  r.set("engine.stats_ms", median(rp.statsMs), "ms");
  r.set("telemetry.render_ms", median(rp.telemetryMs), "ms");
  r.set("engine.estimated_mib", rp.estimatedMib, "MiB");
  r.set("engine.open_sessions.min", static_cast<double>(rp.openMin), "count");
  r.set("engine.open_sessions.max", static_cast<double>(rp.openMax), "count");
  r.set("engine.notifications", static_cast<double>(rp.stats.notificationsDelivered), "count");
  r.set("engine.detections", static_cast<double>(rp.stats.detections), "count");
  r.set("engine.errors", static_cast<double>(rp.stats.protocolErrors), "count");
  r.set("engine.nacks", static_cast<double>(rp.stats.nacksEmitted), "count");
  r.set("monitor.offer_ns", in.monitorNs / static_cast<double>(in.notes), "ns");
  const double serverPumpMeanUs = serverPumps > 0 ? serverPumpSum / serverPumps / 1e3 : 0;
  r.set("server.pump_mean_us", serverPumpMeanUs, "us");
  const double inServerMs = mean(rp.inServerMs);
  r.set("transport.residual_ms", mean(e.latencyMs) - inServerMs, "ms");
  r.set("client.busy_share", 100.0 * e.busyNs / e.loopNs, "%");
  const double overhead = 100.0 * spanCostNs() * static_cast<double>(tracer.spans().size()) /
                          tracer.rootNs();
  r.set("trace.overhead_pct", overhead, "%");
  reportLayers(tracer, static_cast<std::uint64_t>(kWarmBatches + kReplayBatches),
               {"service", "obs", "bench"}, r);
  {
    std::ostringstream os;
    const double serverPerBatchMs = serverPumpSum / 1e6 / static_cast<double>(sent);
    os << "cross-check: replay verdicts match the server on " << compared - mismatched
       << " of " << compared << " closed sessions; pump time per batch: replay "
       << mean(rp.pumpMs) << " ms, gpdd " << serverPerBatchMs << " ms over "
       << serverPumps << " pumps for " << sent << " batches (mean pump "
       << serverPumpMeanUs << " us), apart by "
       << 100.0 * std::abs(mean(rp.pumpMs) - serverPerBatchMs) / serverPerBatchMs
       << "% with tracing overhead " << overhead << "%; batch latency " << mean(e.latencyMs)
       << " ms = in-server " << inServerMs << " ms + transport "
       << mean(e.latencyMs) - inServerMs << " ms";
    r.note(os.str());
  }
  tracer.writeJsonLines(o.workDir + "/spans.jsonl", "{\"workload\":\"gpdd-stream\"}");
  r.note("spans written to " + o.workDir + "/spans.jsonl");
  return r;
}

}  // namespace perfbench
