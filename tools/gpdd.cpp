// gpdd — the long-lived multi-tenant detection service.
//
// Front-ends a gpd::service::Engine with two byte-stream transports:
//
//   gpdd [flags]                 stdin/stdout pipe pair (one endpoint; this
//                                is how the chaos harness drives it)
//   gpdd --socket PATH [flags]   UNIX-domain socket, one endpoint per
//                                connection; responses route back to the
//                                connection whose command caused them
//
// Wire format: length-prefixed checksummed frames (service/frame.h) whose
// payloads are engine protocol commands (service/engine.h). The decoder
// resynchronizes across garbage, so a corrupted region costs only the
// frames it covered — unless --strict-proto, where any damaged byte is an
// InputError (exit 1).
//
// Service flags:
//   --shards N          engine shards (default 8)
//   --threads N         par::Pool workers for the shard phase (default:
//                       GPD_THREADS, else sequential); verdicts and
//                       responses are identical for any N
//   --max-sessions N    global concurrent-session cap
//   --max-per-tenant N  per-tenant concurrent-session cap
//   --rate-bytes N      per-tenant EV/EVB payload bytes accepted per pump
//   --mem-watermark B   estimated-bytes watermark arming the overload
//                       ladder (reject new → degrade in place → shed)
//   --idle-pumps N      shed sessions idle for N pumps
//   --max-combinations N / --budget-ms D   per-session budget
//   --window W --retries K --timeout T --queue-limit Q
//   --degrade-on-overflow --max-comparisons-per-report C
//                       per-session MonitorSession/monitor options
//
// Robustness flags:
//   --checkpoint FILE   manifest chain head; every CHECKPOINT command and
//                       every --checkpoint-every N pumps captures a
//                       checkpoint through the ManifestLog (full manifest
//                       at FILE, deltas beside it), plus one final full on
//                       graceful shutdown
//   --checkpoint-every N  periodic checkpoint cadence, in pumps
//   --full-every N      every N-th checkpoint is a full manifest; the ones
//                       between are deltas holding only dirtied sessions
//                       (default 1 = always full)
//   --recover           restore from the --checkpoint chain (full manifest
//                       plus its deltas, in order) before serving; a
//                       missing or corrupt link is an InputError
//   --stats-dump FILE   atomically rewrite FILE with one JSON object
//                       (engine stats + the gpd::obs registry) every
//                       --stats-every N pumps (default 200)
//   --strict-proto      any discarded byte / truncated frame is fatal
//
// Telemetry (DESIGN.md §16):
//   --telemetry-file FILE     atomically rewrite FILE with an OpenMetrics
//                       text exposition (obs registry + service gauges +
//                       gpdd_build_info) every --telemetry-every N pumps
//                       (default 200) and once at drain; `gpdtool scrape`
//                       parses and pretty-prints it
//   --telemetry-socket PATH   UNIX socket; each connection receives one
//                       exposition snapshot and is closed (a scrape)
//   --flight-recorder FILE    arm the crash flight recorder: a mmap-backed
//                       ring of the last --flight-slots events (pump
//                       summaries, admission decisions, replication
//                       events) that survives SIGKILL; fatal signals
//                       (SIGSEGV/SIGABRT), CheckFailure quarantine, and
//                       SIGTERM drain additionally dump FILE.postmortem
//   --flight-slots N    ring capacity in events (default 256)
//   --log-level L       debug|info|warn|error (default info)
//   --log-json          structured JSON-lines log output instead of text
//
// High availability (service/replica.h):
//   --replication-socket PATH   leader: accept one hot-standby follower
//                       here and stream it a snapshot plus every pump
//                       (commands + checkpoint records) before clients see
//                       the pump's responses
//   --follow PATH       follower: consume the leader's stream at PATH,
//                       replaying every pump into a local engine; when the
//                       stream dies (EOF or silence past the deadline),
//                       promote: emit PROMOTED, the unflushed response
//                       frames, and RESUME <token> on stdout, then serve
//   --failover-after-ms MS      follower's silence deadline (default 2000)
//
// SIGTERM/SIGINT drain gracefully: pending decoded frames are executed,
// every open session is settled, the final manifest is written, and only
// then are the VERDICT frames flushed and the fds closed (durability before
// acknowledgment, even on the way out), exit 0. SIGKILL is the crash the
// manifest chain and the follower exist for.
//
// Exit code: 0 = clean shutdown/drain, 1 = bad input (flags, bind failure,
// corrupt recovery manifest, replication divergence, strict-mode protocol
// violation), 2 = internal failure (a library invariant broke).
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/checkpoint_io.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "par/pool.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/manifest_log.h"
#include "service/replica.h"
#include "util/check.h"
#include "util/number.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "version.h"

namespace {

using namespace gpd;

volatile std::sig_atomic_t gStop = 0;

void onSignal(int) { gStop = 1; }

// The flight recorder outlives every scope so the fatal-signal handler can
// reach it; gPostmortemPath is pre-formatted at arm time because a SIGSEGV
// handler must not touch the heap.
obs::FlightRecorder gRecorder;
char gPostmortemPath[512] = {0};

void onFatalSignal(int sig) {
  if (gPostmortemPath[0] != '\0') {
    gRecorder.dumpNow(gPostmortemPath, sig == SIGSEGV ? "sigsegv" : "sigabrt");
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

int usage() {
  obs::log::rawStderr()
      << "usage: gpdd [--socket PATH] [--shards N] [--threads N]\n"
      << "            [--max-sessions N] [--max-per-tenant N] [--rate-bytes N]\n"
      << "            [--mem-watermark BYTES] [--idle-pumps N]\n"
      << "            [--max-combinations N] [--budget-ms D]\n"
      << "            [--window W] [--retries K] [--timeout T]\n"
      << "            [--queue-limit Q] [--degrade-on-overflow]\n"
      << "            [--max-comparisons-per-report C] [--slice]\n"
      << "            [--checkpoint FILE] [--checkpoint-every N]\n"
      << "            [--full-every N] [--recover]\n"
      << "            [--replication-socket PATH]\n"
      << "            [--follow PATH] [--failover-after-ms MS]\n"
      << "            [--stats-dump FILE] [--stats-every N] [--strict-proto]\n"
      << "            [--telemetry-file FILE] [--telemetry-every N]\n"
      << "            [--telemetry-socket PATH]\n"
      << "            [--flight-recorder FILE] [--flight-slots N]\n"
      << "            [--log-level debug|info|warn|error] [--log-json]\n"
      << "       gpdd --version\n";
  return 1;
}

constexpr long long kNoMax = std::numeric_limits<long long>::max();

struct Options {
  std::string socketPath;
  int threads = par::envThreads();
  std::string checkpointPath;
  std::uint64_t checkpointEvery = 0;
  std::uint64_t fullEvery = 1;
  bool recover = false;
  std::string statsDumpPath;
  std::uint64_t statsEvery = 200;
  std::string telemetryFile;
  std::string telemetrySocket;
  std::uint64_t telemetryEvery = 200;
  std::string flightRecorderPath;
  std::uint64_t flightSlots = 256;
  bool strictProto = false;
  std::string replicationSocket;
  std::string followPath;
  std::uint64_t failoverAfterMs = 2000;
  service::EngineOptions engine;
};

Options parseFlags(const std::vector<std::string>& args) {
  Options o;
  auto need = [&](std::size_t i) -> const std::string& {
    GPD_INPUT_CHECK(i < args.size(), "flag '" << args[i - 1]
                                              << "' needs a value");
    return args[i];
  };
  // The value after flag args[i - 1], under the number rule.
  auto number = [&](std::size_t i, long long lo, long long hi = kNoMax) {
    return integerIn(need(i), args[i - 1].c_str(), lo, hi);
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--socket") {
      o.socketPath = need(++i);
    } else if (a == "--shards") {
      o.engine.shards = static_cast<int>(number(++i, 1, 1024));
    } else if (a == "--threads") {
      o.threads = static_cast<int>(number(++i, 0, 1024));
    } else if (a == "--max-sessions") {
      o.engine.maxSessions = number(++i, 0);
    } else if (a == "--max-per-tenant") {
      o.engine.maxSessionsPerTenant = number(++i, 0);
    } else if (a == "--rate-bytes") {
      o.engine.tenantRateBytesPerPump = number(++i, 0);
    } else if (a == "--mem-watermark") {
      o.engine.memWatermarkBytes = number(++i, 0);
    } else if (a == "--idle-pumps") {
      o.engine.idleTimeoutPumps = number(++i, 0);
    } else if (a == "--max-combinations") {
      o.engine.sessionMaxCombinations = number(++i, 0);
    } else if (a == "--budget-ms") {
      o.engine.sessionBudgetMs = number(++i, 0);
    } else if (a == "--window") {
      o.engine.session.reorderWindow = number(++i, 1);
    } else if (a == "--retries") {
      o.engine.session.maxRetries = static_cast<int>(
          number(++i, 1, std::numeric_limits<int>::max()));
    } else if (a == "--timeout") {
      o.engine.session.retryTimeout = number(++i, 1);
    } else if (a == "--queue-limit") {
      o.engine.session.monitor.maxQueuePerProcess = number(++i, 0);
    } else if (a == "--degrade-on-overflow") {
      o.engine.session.monitor.overflowPolicy =
          monitor::OverflowPolicy::Degrade;
    } else if (a == "--max-comparisons-per-report") {
      o.engine.session.monitor.maxComparisonsPerReport = number(++i, 0);
    } else if (a == "--slice") {
      // Every session maintains the online slice (monitor/slice.h); the
      // aggregates surface as slice_* STATS keys and gpdd_slice_* gauges.
      o.engine.session.enableSlice = true;
    } else if (a == "--checkpoint") {
      o.checkpointPath = need(++i);
    } else if (a == "--checkpoint-every") {
      o.checkpointEvery = number(++i, 1);
    } else if (a == "--full-every") {
      o.fullEvery = number(++i, 1);
    } else if (a == "--recover") {
      o.recover = true;
    } else if (a == "--replication-socket") {
      o.replicationSocket = need(++i);
    } else if (a == "--follow") {
      o.followPath = need(++i);
    } else if (a == "--failover-after-ms") {
      o.failoverAfterMs = number(++i, 1);
    } else if (a == "--stats-dump") {
      o.statsDumpPath = need(++i);
    } else if (a == "--stats-every") {
      o.statsEvery = number(++i, 1);
    } else if (a == "--telemetry-file") {
      o.telemetryFile = need(++i);
    } else if (a == "--telemetry-socket") {
      o.telemetrySocket = need(++i);
    } else if (a == "--telemetry-every") {
      o.telemetryEvery = number(++i, 1);
    } else if (a == "--flight-recorder") {
      o.flightRecorderPath = need(++i);
    } else if (a == "--flight-slots") {
      o.flightSlots = number(++i, 1, 1 << 20);
    } else if (a == "--log-level") {
      obs::log::setLevel(obs::log::parseLevel(need(++i)));
    } else if (a == "--log-json") {
      obs::log::setFormat(obs::log::Format::kJson);
    } else if (a == "--strict-proto") {
      o.strictProto = true;
    } else {
      usage();
      GPD_INPUT_CHECK(false, "unknown flag '" << a << "'");
    }
  }
  GPD_INPUT_CHECK(!o.recover || !o.checkpointPath.empty(),
                  "--recover needs --checkpoint FILE");
  GPD_INPUT_CHECK(o.checkpointEvery == 0 || !o.checkpointPath.empty(),
                  "--checkpoint-every needs --checkpoint FILE");
  GPD_INPUT_CHECK(o.followPath.empty() || !o.recover,
                  "--follow gets its state from the leader, not --recover");
  GPD_INPUT_CHECK(o.followPath.empty() || o.replicationSocket.empty(),
                  "--follow and --replication-socket are mutually exclusive");
  return o;
}

// One transport endpoint. Keyed by a monotonically assigned origin id, not
// by fd: the kernel reuses fds the moment a connection closes, and keying
// by fd would route a dead client's late responses to whoever inherited
// its number.
struct Conn {
  int readFd = -1;
  int writeFd = -1;
  service::FrameDecoder decoder;
  bool eof = false;
  std::uint64_t reportedDiscarded = 0;  // decoder bytes already counted
};

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void writeAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // endpoint gone (EPIPE etc.): responses to it are moot
    }
    off += static_cast<std::size_t>(n);
  }
}

// Bounded write to a nonblocking fd: polls for writability between chunks
// and gives up after `timeoutMs` of no progress. Returns false when the
// peer is gone or wedged — the replication path uses this so a stalled
// follower can never stall the leader's clients.
bool writeAllTimed(int fd, const std::string& bytes, int timeoutMs) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      const int r = ::poll(&p, 1, timeoutMs);
      if (r <= 0 || (p.revents & (POLLERR | POLLHUP)) != 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

void dumpStats(const service::Engine& engine, const std::string& path) {
  engine.publishTenantMetrics();
  std::ostringstream os;
  os << "{\"engine\":" << engine.statsJson() << ",\"obs\":";
  obs::renderMetricsJson(os, obs::registry().snapshot());
  os << "}\n";
  io::atomicWriteFile(path, os.str());
}

// Pre-registers the gpdd service metric inventory so a scrape always shows
// the full set — including in a GPD_OBS_DISABLED build, where the hot-path
// macros compile out but the registry (and this direct registration) stays,
// rendering the inventory as zeros.
void registerServiceMetrics() {
  static constexpr const char* kCounters[] = {
      "gpdd_bytes_discarded",    "gpdd_checkpoints_captured",
      "gpdd_deltas_applied",     "gpdd_detections",
      "gpdd_follower_drops",     "gpdd_promotions",
      "gpdd_pumps",              "gpdd_quarantine_dumps",
      "gpdd_recoveries",         "gpdd_sessions_closed",
      "gpdd_sessions_opened",    "gpdd_shed_budget",
      "gpdd_shed_idle",          "gpdd_shed_mem",
      "gpdd_degraded_mem",       "gpdd_telemetry_snapshots",
  };
  static constexpr const char* kGauges[] = {
      "gpdd_failover_gap_ms",       "gpdd_follower_staleness_ms",
      "gpdd_manifest_chain_length", "gpdd_mem_bytes",
      "gpdd_mem_level",             "gpdd_queue_depth",
      "gpdd_replication_lag_bytes", "gpdd_replication_lag_epochs",
      "gpdd_replication_lag_pumps", "gpdd_sessions_open",
      "gpdd_slice_sessions",        "gpdd_slice_notifications",
      "gpdd_slice_resolved",        "gpdd_slice_pending",
      "gpdd_slice_degraded",
  };
  static constexpr const char* kHistograms[] = {
      "gpdd_checkpoint_capture_nanos",
      "gpdd_manifest_restore_nanos",
      "gpdd_pump_nanos",
  };
  for (const char* name : kCounters) obs::registry().counter(name);
  for (const char* name : kGauges) obs::registry().gauge(name);
  for (const char* name : kHistograms) obs::registry().histogram(name);
}

// One OpenMetrics exposition snapshot: per-tenant gauges refreshed, the
// whole registry copied under its lock, and the build-identity info gauge.
std::string renderTelemetry(const service::Engine& engine) {
  engine.publishTenantMetrics();
  GPD_OBS_COUNTER_ADD("gpdd_telemetry_snapshots", 1);
  std::ostringstream os;
  obs::renderOpenMetrics(os, obs::registry().snapshot(),
                         tools::buildInfoFields());
  return os.str();
}

// Mirrors admission/overload decisions into the flight recorder and turns a
// CheckFailure quarantine — the engine sheds the poisoned session with
// reason "internal-error" — into an immediate postmortem dump: the ring
// still holds the pumps that led up to the library bug.
void scanResponses(const std::vector<service::Response>& out) {
  if (!gRecorder.armed()) return;
  static const std::string kQuarantine = " internal-error";
  for (const service::Response& r : out) {
    const std::string& p = r.payload;
    const bool shed = p.compare(0, 5, "SHED ") == 0;
    const bool degrade = p.compare(0, 8, "DEGRADE ") == 0;
    const bool err = p.compare(0, 4, "ERR ") == 0;
    if (!shed && !degrade && !err) continue;
    GPD_FR_RECORD(gRecorder, "admit", "%.120s", p.c_str());
    if (shed && p.size() >= kQuarantine.size() &&
        p.compare(p.size() - kQuarantine.size(), kQuarantine.size(),
                  kQuarantine) == 0) {
      GPD_OBS_COUNTER_ADD("gpdd_quarantine_dumps", 1);
      if (gPostmortemPath[0] != '\0') {
        gRecorder.dumpNow(gPostmortemPath, "check-failure-quarantine");
      }
      obs::log::Event(obs::log::Level::kError, "gpdd",
                      "session quarantined by CheckFailure")
          .kv("response", p);
    }
  }
}

int listenOn(const std::string& path) {
  // strerror below: gpdd's listen/accept path is single-threaded (the pool
  // only runs detection kernels), so the static buffer cannot race.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GPD_INPUT_CHECK(fd >= 0, "cannot create UNIX socket: "
                               << strerror(errno));  // NOLINT(concurrency-mt-unsafe)
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  GPD_INPUT_CHECK(path.size() < sizeof(addr.sun_path),
                  "socket path too long: '" << path << "'");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    GPD_INPUT_CHECK(false, "cannot bind '"
                               << path << "': "
                               << strerror(err));  // NOLINT(concurrency-mt-unsafe)
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    GPD_INPUT_CHECK(false, "cannot listen on '"
                               << path << "': "
                               << strerror(err));  // NOLINT(concurrency-mt-unsafe)
  }
  setNonBlocking(fd);
  return fd;
}

int connectTo(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// The serve loop shared by a fresh leader, a recovered leader, and a
// promoted follower. `log` (optional) owns the on-disk checkpoint chain;
// `prelude` is raw frame bytes flushed to stdout before serving (the
// promotion announcement).
int serveLoop(const Options& o, std::unique_ptr<service::Engine> engine,
              service::ManifestLog* log, const std::string& prelude) {
  std::unique_ptr<par::Pool> pool;
  if (o.threads > 1) pool = std::make_unique<par::Pool>(o.threads);

  int listenFd = -1;
  int nextOrigin = 1;
  std::map<int, Conn> conns;  // keyed by origin
  if (o.socketPath.empty()) {
    // The pipe (or file) feeding stdin is dedicated to this process; make it
    // nonblocking so the drain loop below can never stall mid-chunk.
    setNonBlocking(0);
    conns[0] = Conn{0, 1, {}, false, 0};
  } else {
    listenFd = listenOn(o.socketPath);
  }

  int replListenFd = -1;
  int followerFd = -1;
  if (!o.replicationSocket.empty()) replListenFd = listenOn(o.replicationSocket);
  int telListenFd = -1;
  if (!o.telemetrySocket.empty()) telListenFd = listenOn(o.telemetrySocket);

  // Replication lag: work accumulated since the follower last received the
  // corresponding records. Sends happen before execution, so a healthy
  // attached follower keeps all three at zero; they grow while no follower
  // is attached (or a send fails) and snap back on catch-up.
  std::uint64_t lagPumps = 0;
  std::uint64_t lagBytes = 0;
  std::uint64_t lagEpochs = 0;
  auto publishLag = [&]() {
    GPD_OBS_GAUGE_SET("gpdd_replication_lag_pumps", lagPumps);
    GPD_OBS_GAUGE_SET("gpdd_replication_lag_bytes", lagBytes);
    GPD_OBS_GAUGE_SET("gpdd_replication_lag_epochs", lagEpochs);
  };

  auto dropFollower = [&]() {
    if (followerFd >= 0) {
      ::close(followerFd);
      followerFd = -1;
      GPD_OBS_COUNTER_ADD("gpdd_follower_drops", 1);
      GPD_FR_RECORD(gRecorder, "repl", "follower-dropped");
      obs::log::warn("gpdd", "follower dropped");
    }
  };
  // Returns true when the records reached the follower (false also covers
  // "no follower attached"); the caller charges the lag gauges.
  auto sendToFollower = [&](const std::vector<std::string>& records) {
    if (followerFd < 0) return false;
    std::string bytes;
    for (const std::string& rec : records) bytes += service::encodeFrame(rec);
    if (!writeAllTimed(followerFd, bytes, 5000)) {
      dropFollower();
      return false;
    }
    return true;
  };

  if (!prelude.empty()) writeAll(1, prelude);

  std::uint64_t pumpsSinceCheckpoint = 0;
  std::uint64_t pumpsSinceStats = 0;
  std::uint64_t pumpsSinceTelemetry = 0;
  char buf[1 << 16];
  while (gStop == 0 && !engine->shutdownRequested()) {
    // ---- Gather readable endpoints ----
    std::vector<pollfd> fds;
    if (listenFd >= 0) fds.push_back({listenFd, POLLIN, 0});
    if (replListenFd >= 0) fds.push_back({replListenFd, POLLIN, 0});
    if (telListenFd >= 0) fds.push_back({telListenFd, POLLIN, 0});
    for (auto& [origin, conn] : conns) {
      if (!conn.eof) fds.push_back({conn.readFd, POLLIN, 0});
    }
    const bool stdioDone =
        o.socketPath.empty() && (conns.empty() || conns.begin()->second.eof);
    if (fds.empty() && !stdioDone && listenFd < 0 && replListenFd < 0) break;
    if (!fds.empty()) {
      const int r = ::poll(fds.data(), fds.size(), 10);
      if (r < 0 && errno != EINTR) break;
    }
    if (listenFd >= 0) {
      for (;;) {
        const int cfd = ::accept(listenFd, nullptr, nullptr);
        if (cfd < 0) break;
        setNonBlocking(cfd);
        conns[nextOrigin++] = Conn{cfd, cfd, {}, false, 0};
      }
    }
    if (replListenFd >= 0) {
      for (;;) {
        const int cfd = ::accept(replListenFd, nullptr, nullptr);
        if (cfd < 0) break;
        dropFollower();  // a new follower replaces the old one
        setNonBlocking(cfd);
        followerFd = cfd;
        // Seed the replica from a forced-full capture taken through the
        // log, so the disk chain and the replication stream share one
        // parent from here on.
        const service::CheckpointCapture snap =
            log ? log->store(*engine, /*forceFull=*/true)
                : engine->captureCheckpoint(/*preferDelta=*/false);
        if (log) pumpsSinceCheckpoint = 0;
        std::vector<std::string> records;
        records.push_back(service::captureHelloRecord());
        for (std::string& rec : service::captureSnapshotRecord(snap)) {
          records.push_back(std::move(rec));
        }
        if (sendToFollower(records)) {
          lagPumps = lagBytes = lagEpochs = 0;
          publishLag();
          GPD_FR_RECORD(gRecorder, "repl", "follower-attached epoch=%llu",
                        static_cast<unsigned long long>(snap.epoch));
          obs::log::Event(obs::log::Level::kInfo, "gpdd", "follower attached")
              .kv("snapshot_epoch", snap.epoch);
        }
      }
    }
    if (telListenFd >= 0) {
      // A scrape: each connection gets one exposition snapshot and is
      // closed. The bounded write keeps a wedged scraper from stalling the
      // serve loop for more than a second.
      for (;;) {
        const int cfd = ::accept(telListenFd, nullptr, nullptr);
        if (cfd < 0) break;
        setNonBlocking(cfd);
        writeAllTimed(cfd, renderTelemetry(*engine), 1000);
        ::close(cfd);
      }
    }
    std::vector<int> dead;
    std::vector<service::ReplicatedCmd> batch;
    for (auto& [origin, conn] : conns) {
      if (conn.eof) continue;
      // Nonblocking reads for sockets; the stdio fd blocks only while poll
      // said it is readable, so drain one chunk per loop there too.
      for (;;) {
        const ssize_t n = ::read(conn.readFd, buf, sizeof(buf));
        if (n > 0) {
          conn.decoder.feed({buf, static_cast<std::size_t>(n)});
          if (static_cast<std::size_t>(n) < sizeof(buf)) break;
          continue;
        }
        if (n == 0) {
          conn.eof = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        conn.eof = true;
        break;
      }
      while (auto payload = conn.decoder.pop()) {
        batch.push_back({origin, std::move(*payload)});
      }
      if (conn.decoder.bytesDiscarded() > conn.reportedDiscarded) {
        GPD_OBS_COUNTER_ADD("gpdd_bytes_discarded",
                            conn.decoder.bytesDiscarded() -
                                conn.reportedDiscarded);
        conn.reportedDiscarded = conn.decoder.bytesDiscarded();
      }
      if (o.strictProto) {
        GPD_INPUT_CHECK(conn.decoder.bytesDiscarded() == 0,
                        "protocol violation: " << conn.decoder.bytesDiscarded()
                                               << " bytes discarded");
        GPD_INPUT_CHECK(!conn.eof || conn.decoder.bytesPending() == 0,
                        "protocol violation: truncated frame at EOF");
      }
      if (conn.eof && origin != 0) dead.push_back(origin);
    }
    for (int origin : dead) {
      ::close(conns[origin].readFd);
      conns.erase(origin);
    }

    // ---- Replicate, then execute ----
    // The follower receives this pump's commands before the engine runs
    // them — durability (on the standby) before acknowledgment, the same
    // contract the on-disk manifest keeps. Every pump is sent, including
    // empty ones: idle sweeps are pump-indexed state changes too, and the
    // steady record stream doubles as the leader's heartbeat.
    std::uint64_t batchBytes = 0;
    for (const service::ReplicatedCmd& cmd : batch) {
      batchBytes += cmd.payload.size();
    }
    if (sendToFollower(
            service::capturePumpRecord(engine->stats().pumps, batch))) {
      lagPumps = 0;
      lagBytes = 0;
    } else {
      ++lagPumps;
      lagBytes += batchBytes;
    }
    GPD_OBS_GAUGE_SET("gpdd_queue_depth", batch.size());
    for (service::ReplicatedCmd& cmd : batch) {
      engine->submit(std::move(cmd.payload), cmd.origin);
    }
    std::vector<service::Response> out;
    Stopwatch pumpTimer;
    engine->pump(out, pool.get());
    GPD_OBS_HISTOGRAM("gpdd_pump_nanos", pumpTimer.elapsedNanos());
    GPD_FR_RECORD(gRecorder, "pump", "i=%llu in=%zu out=%zu open=%zu mem=%d",
                  static_cast<unsigned long long>(engine->stats().pumps),
                  batch.size(), out.size(), engine->openSessions(),
                  engine->memLevel());
    scanResponses(out);

    // ---- Checkpoints and stats ----
    // Durability before acknowledgment: the manifest is written *before*
    // the pump's responses are flushed, so a client that has seen this
    // pump's OK CHECKPOINT (or the SYNC behind it) may kill -9 the server
    // and still recover this pump's state. The soak harness does exactly
    // that.
    ++pumpsSinceCheckpoint;
    ++pumpsSinceStats;
    ++pumpsSinceTelemetry;
    const bool requested = engine->consumeCheckpointRequest();
    if (log != nullptr &&
        (requested || (o.checkpointEvery != 0 &&
                       pumpsSinceCheckpoint >= o.checkpointEvery))) {
      Stopwatch captureTimer;
      const service::CheckpointCapture cap = log->store(*engine);
      GPD_OBS_HISTOGRAM("gpdd_checkpoint_capture_nanos",
                        captureTimer.elapsedNanos());
      GPD_OBS_GAUGE_SET("gpdd_manifest_chain_length", log->deltasSinceFull());
      GPD_FR_RECORD(gRecorder, "ckpt", "epoch=%llu delta=%d deltas=%llu",
                    static_cast<unsigned long long>(cap.epoch),
                    cap.delta ? 1 : 0,
                    static_cast<unsigned long long>(log->deltasSinceFull()));
      if (sendToFollower(
              {service::captureCkptRecord(engine->stats().pumps, cap)})) {
        lagEpochs = 0;
      } else {
        ++lagEpochs;
      }
      pumpsSinceCheckpoint = 0;
    }
    publishLag();
    if (!o.statsDumpPath.empty() && pumpsSinceStats >= o.statsEvery) {
      dumpStats(*engine, o.statsDumpPath);
      pumpsSinceStats = 0;
    }
    if (!o.telemetryFile.empty() && pumpsSinceTelemetry >= o.telemetryEvery) {
      io::atomicWriteFile(o.telemetryFile, renderTelemetry(*engine));
      pumpsSinceTelemetry = 0;
    }

    std::map<int, std::string> byOrigin;
    for (service::Response& r : out) {
      byOrigin[r.origin] += service::encodeFrame(r.payload);
    }
    for (auto& [origin, bytes] : byOrigin) {
      const auto it = conns.find(origin);
      if (it != conns.end()) {
        writeAll(it->second.writeFd, bytes);
      } else if (origin == 0 && o.socketPath.empty()) {
        writeAll(1, bytes);
      }
    }
    // Everything up to this pump is acknowledged to clients; the follower
    // can retire its retained copies.
    if (followerFd >= 0) {
      sendToFollower({service::captureFlushRecord(engine->stats().pumps)});
    }

    // Pipe mode ends when stdin is exhausted and every frame was answered.
    if (stdioDone && !engine->shutdownRequested()) break;
  }

  // ---- Graceful drain ----
  // First settle the frames that were decoded but not yet executed when the
  // signal landed: replicate and pump them like any other batch, then drain
  // the engine. The final manifest is written *before* the responses are
  // flushed — a drain is still durability before acknowledgment.
  std::vector<service::ReplicatedCmd> finalBatch;
  for (auto& [origin, conn] : conns) {
    while (auto payload = conn.decoder.pop()) {
      finalBatch.push_back({origin, std::move(*payload)});
    }
  }
  std::vector<service::Response> out;
  if (!finalBatch.empty()) {
    if (followerFd >= 0) {
      sendToFollower(
          service::capturePumpRecord(engine->stats().pumps, finalBatch));
    }
    for (service::ReplicatedCmd& cmd : finalBatch) {
      engine->submit(std::move(cmd.payload), cmd.origin);
    }
    engine->pump(out, pool.get());
  }
  engine->drain(out);
  scanResponses(out);
  if (log != nullptr) log->store(*engine, /*forceFull=*/true);
  if (!o.statsDumpPath.empty()) dumpStats(*engine, o.statsDumpPath);
  if (!o.telemetryFile.empty()) {
    io::atomicWriteFile(o.telemetryFile, renderTelemetry(*engine));
  }
  GPD_FR_RECORD(gRecorder, "drain", "pumps=%llu open=%zu stop=%d",
                static_cast<unsigned long long>(engine->stats().pumps),
                engine->openSessions(), gStop != 0 ? 1 : 0);
  if (gRecorder.armed() && gPostmortemPath[0] != '\0') {
    gRecorder.dumpNow(gPostmortemPath,
                      gStop != 0 ? "sigterm-drain" : "eof-drain");
  }
  std::map<int, std::string> byOrigin;
  for (service::Response& r : out) {
    byOrigin[r.origin] += service::encodeFrame(r.payload);
  }
  for (auto& [origin, bytes] : byOrigin) {
    const auto it = conns.find(origin);
    if (it != conns.end()) {
      writeAll(it->second.writeFd, bytes);
    } else if (origin == 0 && o.socketPath.empty()) {
      writeAll(1, bytes);
    }
  }
  for (auto& [origin, conn] : conns) {
    if (origin != 0) ::close(conn.readFd);
  }
  dropFollower();
  if (replListenFd >= 0) {
    ::close(replListenFd);
    ::unlink(o.replicationSocket.c_str());
  }
  if (telListenFd >= 0) {
    ::close(telListenFd);
    ::unlink(o.telemetrySocket.c_str());
  }
  if (listenFd >= 0) {
    ::close(listenFd);
    ::unlink(o.socketPath.c_str());
  }
  return 0;
}

// Hot-standby mode: replay the leader's stream until it dies, then promote
// and serve in its place.
int runFollower(const Options& o) {
  std::unique_ptr<service::ManifestLog> log;
  if (!o.checkpointPath.empty()) {
    log = std::make_unique<service::ManifestLog>(o.checkpointPath,
                                                 o.fullEvery);
  }
  service::ReplicationFollower follower(
      o.engine, log ? [&log](const service::CheckpointCapture& cap) {
        log->persist(cap);
      } : std::function<void(const service::CheckpointCapture&)>{});

  // Connect with jittered exponential backoff: a follower typically starts
  // while the leader is still binding its socket.
  Stopwatch connecting;
  Rng rng;
  std::uint64_t backoffMs = 10;
  int fd = -1;
  while (gStop == 0) {
    fd = connectTo(o.followPath);
    if (fd >= 0) break;
    GPD_INPUT_CHECK(
        connecting.elapsedMillis() < static_cast<double>(o.failoverAfterMs),
        "cannot reach leader at '" << o.followPath
                                   << "' within the failover deadline");
    const auto jittered = static_cast<int>(
        rng.uniform(static_cast<std::int64_t>(backoffMs / 2),
                    static_cast<std::int64_t>(backoffMs)));
    ::poll(nullptr, 0, jittered);
    backoffMs = backoffMs * 2 < 200 ? backoffMs * 2 : 200;
  }
  if (gStop != 0) {
    if (fd >= 0) ::close(fd);
    return 0;
  }
  setNonBlocking(fd);

  service::FrameDecoder decoder;
  Stopwatch silence;
  char buf[1 << 16];
  bool leaderGone = false;
  while (gStop == 0 && !leaderGone) {
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, 10);
    if (r < 0 && errno != EINTR) break;
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        decoder.feed({buf, static_cast<std::size_t>(n)});
        silence.reset();
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        leaderGone = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      leaderGone = true;
      break;
    }
    while (auto payload = decoder.pop()) {
      follower.consume(*payload);
    }
    GPD_OBS_GAUGE_SET("gpdd_follower_staleness_ms", silence.elapsedMillis());
    if (silence.elapsedMillis() > static_cast<double>(o.failoverAfterMs)) {
      leaderGone = true;  // heartbeat (the pump stream) went quiet
    }
  }
  const double failoverGapMs = silence.elapsedMillis();
  ::close(fd);
  if (gStop != 0) return 0;  // terminated while on standby: nothing to save

  // ---- Promote ----
  service::ReplicationFollower::Promotion promo = follower.promote();
  GPD_OBS_COUNTER_ADD("gpdd_promotions", 1);
  GPD_OBS_GAUGE_SET("gpdd_failover_gap_ms", failoverGapMs);
  GPD_FR_RECORD(gRecorder, "repl", "promoted pump=%llu replayed=%llu gap_ms=%.0f",
                static_cast<unsigned long long>(promo.engine->stats().pumps),
                static_cast<unsigned long long>(promo.pumps), failoverGapMs);
  obs::log::Event(obs::log::Level::kInfo, "gpdd", "leader gone; promoted")
      .kv("pump", promo.engine->stats().pumps)
      .kv("replayed_pumps", promo.pumps)
      .kv("epoch", promo.engine->checkpointEpoch())
      .kv("gap_ms", failoverGapMs);
  std::string prelude = service::encodeFrame(
      "PROMOTED " + std::to_string(promo.engine->stats().pumps) + " " +
      std::to_string(promo.engine->checkpointEpoch()));
  for (const service::Response& r : promo.retained) {
    prelude += service::encodeFrame(r.payload);
  }
  prelude += service::encodeFrame(
      "RESUME " + (promo.lastSyncToken.empty() ? std::string("-")
                                               : promo.lastSyncToken));
  return serveLoop(o, std::move(promo.engine), log.get(), prelude);
}

int runService(Options o) {
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);
  registerServiceMetrics();
  o.engine.buildInfo = tools::buildInfoFields();
  if (!o.flightRecorderPath.empty()) {
    gRecorder.openRing(o.flightRecorderPath,
                       static_cast<std::uint32_t>(o.flightSlots));
    const std::string postmortem = o.flightRecorderPath + ".postmortem";
    GPD_INPUT_CHECK(postmortem.size() < sizeof(gPostmortemPath),
                    "--flight-recorder path too long");
    std::strncpy(gPostmortemPath, postmortem.c_str(),
                 sizeof(gPostmortemPath) - 1);
    std::signal(SIGSEGV, onFatalSignal);
    std::signal(SIGABRT, onFatalSignal);
    GPD_FR_RECORD(gRecorder, "start", "slots=%llu",
                  static_cast<unsigned long long>(o.flightSlots));
  }
  if (!o.followPath.empty()) return runFollower(o);

  std::unique_ptr<service::ManifestLog> log;
  if (!o.checkpointPath.empty()) {
    log = std::make_unique<service::ManifestLog>(o.checkpointPath,
                                                 o.fullEvery);
  }
  std::unique_ptr<service::Engine> engine;
  if (o.recover) {
    Stopwatch restoreTimer;
    engine = log->recover(o.engine);
    GPD_OBS_HISTOGRAM("gpdd_manifest_restore_nanos",
                      restoreTimer.elapsedNanos());
    GPD_FR_RECORD(gRecorder, "recover", "sessions=%zu deltas=%llu epoch=%llu",
                  engine->openSessions(),
                  static_cast<unsigned long long>(log->deltasSinceFull()),
                  static_cast<unsigned long long>(engine->checkpointEpoch()));
    obs::log::Event(obs::log::Level::kInfo, "gpdd", "recovered")
        .kv("sessions", engine->openSessions())
        .kv("checkpoint", o.checkpointPath)
        .kv("deltas", log->deltasSinceFull())
        .kv("epoch", engine->checkpointEpoch());
  } else {
    engine = std::make_unique<service::Engine>(o.engine);
  }
  return serveLoop(o, std::move(engine), log.get(), {});
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && (args[0] == "--version" || args[0] == "version")) {
      std::cout << gpd::tools::versionLine("gpdd") << '\n';
      return 0;
    }
    return runService(parseFlags(args));
  } catch (const gpd::InputError& e) {
    gpd::obs::log::error("gpdd", e.what());
    return 1;
  } catch (const std::exception& e) {
    gpd::obs::log::Event(gpd::obs::log::Level::kError, "gpdd",
                         "internal failure")
        .kv("what", e.what());
    return 2;
  }
}
