#include "io/checkpoint_io.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "io/token_reader.h"
#include "util/check.h"

namespace gpd::io {

namespace {

constexpr char kMagic[] = "gpd-checkpoint";
constexpr int kVersion = 1;
// Structural sanity bounds: a checkpoint claiming more than this is corrupt
// (or hostile), not big.
constexpr long long kMaxProcesses = 1 << 20;
constexpr long long kMaxQueueLen = 1 << 26;

void writeClock(std::ostream& os, const char* keyword,
                const std::vector<int>& clock) {
  os << keyword;
  for (int v : clock) os << ' ' << v;
  os << '\n';
}

std::vector<int> readClock(TokenReader& r, const char* keywordName, int n) {
  r.keyword(keywordName);
  std::vector<int> v(n);
  for (int& x : v) {
    x = static_cast<int>(r.integer(keywordName, std::numeric_limits<int>::min(),
                                   std::numeric_limits<int>::max()));
  }
  return v;
}

}  // namespace

void writeCheckpoint(std::ostream& os, const monitor::SessionSnapshot& snap) {
  const int n = snap.monitor.processes;
  GPD_CHECK_MSG(n >= 1, "checkpoint of an empty session");
  os << kMagic << ' ' << kVersion << '\n';
  os << "processes " << n << '\n';
  os << "now " << snap.now << '\n';
  os << "next";
  for (std::uint64_t s : snap.nextSeq) os << ' ' << s;
  os << '\n';
  os << "health";
  for (int h : snap.health) os << ' ' << h;
  os << '\n';
  os << "gaps";
  for (int p = 0; p < n; ++p) {
    os << ' ' << int(snap.gapActive[p]) << ' ' << snap.gapDeadline[p] << ' '
       << snap.gapRetriesLeft[p];
  }
  os << '\n';
  os << "announced";
  for (int p = 0; p < n; ++p) {
    os << ' ' << int(snap.endAnnounced[p]) << ' ' << snap.announcedCount[p];
  }
  os << '\n';
  os << "evicted";
  for (std::uint64_t e : snap.evictedUpper) os << ' ' << e;
  os << '\n';
  const monitor::SessionStats& st = snap.stats;
  os << "stats " << st.delivered << ' ' << st.duplicates << ' ' << st.buffered
     << ' ' << st.bufferEvicted << ' ' << st.nacksSent << ' '
     << st.gapsDetected << ' ' << st.gapsRecovered << ' ' << st.backpressured
     << ' ' << st.degradedStreams << '\n';
  os << "monitor " << int(snap.monitor.detected) << ' '
     << int(snap.monitor.degraded) << ' ' << snap.monitor.comparisons << ' '
     << snap.monitor.enqueued << ' ' << snap.monitor.overflowDropped << ' '
     << snap.monitor.overflowRejected << '\n';
  os << "lastown";
  for (int v : snap.monitor.lastOwn) os << ' ' << v;
  os << '\n';
  for (int p = 0; p < n; ++p) {
    os << "queue " << p << ' ' << snap.monitor.queues[p].size() << '\n';
    for (const auto& clock : snap.monitor.queues[p]) {
      writeClock(os, "clock", clock);
    }
  }
  for (int p = 0; p < n; ++p) {
    os << "buffer " << p << ' ' << snap.buffers[p].size() << '\n';
    for (const auto& [seq, clock] : snap.buffers[p]) {
      os << "slot " << seq;
      for (int v : clock) os << ' ' << v;
      os << '\n';
    }
  }
  if (snap.monitor.detected) {
    for (const auto& w : snap.monitor.witness) writeClock(os, "witness", w);
  }
  // Optional trailer (version 1 stays readable by files that omit it): the
  // per-report slice counters, written only when non-trivial so checkpoints
  // from slice-free sessions are byte-identical to the pre-slice format.
  if (snap.monitor.sliceAborts != 0 || snap.monitor.pendingFullScan) {
    os << "slices " << snap.monitor.sliceAborts << ' '
       << int(snap.monitor.pendingFullScan) << '\n';
  }
  os << "end\n";
  GPD_CHECK_MSG(os.good(), "checkpoint write failed");
}

monitor::SessionSnapshot readCheckpoint(std::istream& is) {
  TokenReader r(is, "checkpoint");
  GPD_INPUT_CHECK(r.word("magic") == kMagic, "not a gpd-checkpoint stream");
  const long long version = r.integer("version", 0, 1 << 20);
  GPD_INPUT_CHECK(version == kVersion,
                  "unsupported checkpoint version " << version);

  monitor::SessionSnapshot snap;
  r.keyword("processes");
  const int n = static_cast<int>(r.integer("processes", 1, kMaxProcesses));
  snap.monitor.processes = n;
  r.keyword("now");
  snap.now = r.counter("now");

  r.keyword("next");
  snap.nextSeq.resize(n);
  for (auto& s : snap.nextSeq) s = r.counter("next");
  r.keyword("health");
  snap.health.resize(n);
  for (auto& h : snap.health) h = static_cast<int>(r.integer("health", 0, 2));
  r.keyword("gaps");
  snap.gapActive.resize(n);
  snap.gapDeadline.resize(n);
  snap.gapRetriesLeft.resize(n);
  for (int p = 0; p < n; ++p) {
    snap.gapActive[p] = static_cast<char>(r.integer("gaps", 0, 1));
    snap.gapDeadline[p] = r.counter("gaps");
    snap.gapRetriesLeft[p] =
        static_cast<int>(r.integer("gaps", 0, kMaxQueueLen));
  }
  r.keyword("announced");
  snap.endAnnounced.resize(n);
  snap.announcedCount.resize(n);
  for (int p = 0; p < n; ++p) {
    snap.endAnnounced[p] = static_cast<char>(r.integer("announced", 0, 1));
    snap.announcedCount[p] = r.counter("announced");
  }
  r.keyword("evicted");
  snap.evictedUpper.resize(n);
  for (auto& e : snap.evictedUpper) e = r.counter("evicted");
  r.keyword("stats");
  monitor::SessionStats& st = snap.stats;
  st.delivered = r.counter("stats");
  st.duplicates = r.counter("stats");
  st.buffered = r.counter("stats");
  st.bufferEvicted = r.counter("stats");
  st.nacksSent = r.counter("stats");
  st.gapsDetected = r.counter("stats");
  st.gapsRecovered = r.counter("stats");
  st.backpressured = r.counter("stats");
  st.degradedStreams = static_cast<int>(r.integer("stats", 0, kMaxProcesses));
  r.keyword("monitor");
  snap.monitor.detected = r.integer("monitor", 0, 1) != 0;
  snap.monitor.degraded = r.integer("monitor", 0, 1) != 0;
  snap.monitor.comparisons = r.counter("monitor");
  snap.monitor.enqueued = r.counter("monitor");
  snap.monitor.overflowDropped = r.counter("monitor");
  snap.monitor.overflowRejected = r.counter("monitor");
  snap.monitor.lastOwn = readClock(r, "lastown", n);

  snap.monitor.queues.resize(n);
  for (int p = 0; p < n; ++p) {
    r.keyword("queue");
    GPD_INPUT_CHECK(r.integer("queue process", 0, n - 1) == p,
                    "checkpoint: queues out of order");
    const long long len = r.integer("queue length", 0, kMaxQueueLen);
    snap.monitor.queues[p].reserve(static_cast<std::size_t>(len));
    for (long long i = 0; i < len; ++i) {
      snap.monitor.queues[p].push_back(readClock(r, "clock", n));
    }
  }
  snap.buffers.resize(n);
  for (int p = 0; p < n; ++p) {
    r.keyword("buffer");
    GPD_INPUT_CHECK(r.integer("buffer process", 0, n - 1) == p,
                    "checkpoint: buffers out of order");
    const long long len = r.integer("buffer length", 0, kMaxQueueLen);
    for (long long i = 0; i < len; ++i) {
      r.keyword("slot");
      const std::uint64_t seq = r.counter("slot seq");
      std::vector<int> clock(n);
      for (int& x : clock) {
        x = static_cast<int>(r.integer("slot", std::numeric_limits<int>::min(),
                                       std::numeric_limits<int>::max()));
      }
      snap.buffers[p].emplace_back(seq, std::move(clock));
    }
  }
  if (snap.monitor.detected) {
    snap.monitor.witness.reserve(n);
    for (int p = 0; p < n; ++p) {
      snap.monitor.witness.push_back(readClock(r, "witness", n));
    }
  }
  std::string trailer = r.word("end");
  if (trailer == "slices") {
    snap.monitor.sliceAborts = r.counter("slices");
    snap.monitor.pendingFullScan = r.integer("slices", 0, 1) != 0;
    trailer = r.word("end");
  }
  GPD_INPUT_CHECK(trailer == "end",
                  "checkpoint: expected 'end', got '" << trailer << "'");
  return snap;
}

void saveCheckpoint(const std::string& path,
                    const monitor::SessionSnapshot& snap) {
  std::ofstream os(path);
  GPD_INPUT_CHECK(os.is_open(), "cannot open '" << path << "' for writing");
  writeCheckpoint(os, snap);
}

monitor::SessionSnapshot loadCheckpoint(const std::string& path) {
  std::ifstream is(path);
  GPD_INPUT_CHECK(is.is_open(), "cannot open '" << path << "' for reading");
  return readCheckpoint(is);
}

void atomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    GPD_INPUT_CHECK(os.is_open(), "cannot open '" << tmp << "' for writing");
    os.write(contents.data(),
             static_cast<std::streamsize>(contents.size()));
    os.flush();
    GPD_INPUT_CHECK(os.good(), "write to '" << tmp << "' failed");
  }
  GPD_INPUT_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "cannot rename '" << tmp << "' over '" << path << "'");
}

void saveCheckpointAtomic(const std::string& path,
                          const monitor::SessionSnapshot& snap) {
  std::ostringstream os;
  writeCheckpoint(os, snap);
  atomicWriteFile(path, os.str());
}

}  // namespace gpd::io
