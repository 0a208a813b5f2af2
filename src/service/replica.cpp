#include "service/replica.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "io/token_reader.h"
#include "service/frame.h"
#include "util/check.h"

namespace gpd::service {

namespace {

// First whitespace-delimited word of a record payload.
std::string verbOf(const std::string& payload) {
  std::size_t end = 0;
  while (end < payload.size() && payload[end] != ' ' &&
         payload[end] != '\n') {
    ++end;
  }
  return payload.substr(0, end);
}

// Splits "VERB <header...>\n<body>" at the first newline; returns the
// header line and sets `body` to everything after it (empty if none).
std::string headerLineOf(const std::string& payload, std::string* body) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string::npos) {
    body->clear();
    return payload;
  }
  *body = payload.substr(nl + 1);
  return payload.substr(0, nl);
}

}  // namespace

// --- Encoders ---------------------------------------------------------------

std::string captureHelloRecord() {
  return "RHELLO " + std::to_string(kReplicationVersion);
}

std::vector<std::string> captureSnapshotRecord(const CheckpointCapture& cap) {
  GPD_INPUT_CHECK(!cap.delta, "replication snapshot must be a full manifest");
  std::vector<std::string> out;
  const std::size_t chunks =
      (cap.text.size() + kSnapshotChunkBytes - 1) / kSnapshotChunkBytes;
  std::ostringstream head;
  head << "RSNAP " << cap.epoch << ' ' << cap.checksum << ' ' << chunks;
  out.push_back(head.str());
  for (std::size_t i = 0; i < chunks; ++i) {
    std::string rec = "RCHUNK " + std::to_string(i) + "\n";
    rec += cap.text.substr(i * kSnapshotChunkBytes, kSnapshotChunkBytes);
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<std::string> capturePumpRecord(
    std::uint64_t pump, const std::vector<ReplicatedCmd>& cmds) {
  std::vector<std::string> out;
  out.push_back("RPUMP " + std::to_string(pump) + ' ' +
                std::to_string(cmds.size()));
  for (const ReplicatedCmd& cmd : cmds) {
    std::string rec = "RCMD " + std::to_string(cmd.origin) + "\n";
    rec += cmd.payload;
    GPD_INPUT_CHECK(rec.size() <= kMaxFramePayload,
                    "replicated command too large for one frame ("
                        << rec.size() << " bytes)");
    out.push_back(std::move(rec));
  }
  return out;
}

std::string captureCkptRecord(std::uint64_t pump,
                              const CheckpointCapture& cap) {
  std::ostringstream os;
  os << "RCKPT " << pump << ' ' << (cap.delta ? "delta" : "full") << ' '
     << cap.epoch << ' ' << cap.checksum;
  return os.str();
}

std::string captureFlushRecord(std::uint64_t pump) {
  return "RFLUSH " + std::to_string(pump);
}

// --- Follower ---------------------------------------------------------------

ReplicationFollower::ReplicationFollower(
    EngineOptions options,
    std::function<void(const CheckpointCapture&)> onCheckpoint)
    : options_(options), onCheckpoint_(std::move(onCheckpoint)) {}

ReplicationFollower::~ReplicationFollower() = default;

void ReplicationFollower::consume(const std::string& payload) {
  const std::string verb = verbOf(payload);
  if (verb == "RHELLO") {
    applyHelloRecord(payload);
  } else if (verb == "RSNAP" || verb == "RCHUNK") {
    applySnapshotRecord(payload);
  } else if (verb == "RPUMP" || verb == "RCMD") {
    applyPumpRecord(payload);
  } else if (verb == "RCKPT") {
    applyCkptRecord(payload);
  } else if (verb == "RFLUSH") {
    applyFlushRecord(payload);
  } else {
    GPD_INPUT_CHECK(false, "replication: unknown record '" << verb << "'");
  }
}

void ReplicationFollower::applyHelloRecord(const std::string& payload) {
  GPD_INPUT_CHECK(!helloSeen_, "replication: duplicate RHELLO");
  std::istringstream is(payload);
  io::TokenReader r(is, "replication");
  r.keyword("RHELLO");
  const long long version = r.integer(
      "RHELLO version", 0, std::numeric_limits<int>::max());
  GPD_INPUT_CHECK(version == kReplicationVersion,
                  "replication: leader speaks version "
                      << version << ", this follower speaks "
                      << kReplicationVersion);
  helloSeen_ = true;
}

void ReplicationFollower::applySnapshotRecord(const std::string& payload) {
  GPD_INPUT_CHECK(helloSeen_, "replication: snapshot before RHELLO");
  GPD_INPUT_CHECK(!snapshotLoaded_, "replication: duplicate snapshot");
  std::string body;
  const std::string head = headerLineOf(payload, &body);
  std::istringstream is(head);
  io::TokenReader r(is, "replication");
  const std::string kw = r.word("snapshot record");
  if (kw == "RSNAP") {
    snapEpoch_ = r.counter("RSNAP epoch");
    snapChecksum_ = static_cast<std::uint32_t>(
        r.counter("RSNAP checksum", std::numeric_limits<std::uint32_t>::max()));
    snapChunks_ = r.counter("RSNAP chunk count");
    snapChunksSeen_ = 0;
    snapText_.clear();
    if (snapChunks_ > 0) return;  // body arrives in RCHUNK records
  } else {
    GPD_INPUT_CHECK(kw == "RCHUNK", "replication: malformed snapshot record");
    const std::uint64_t index = r.counter("RCHUNK index");
    GPD_INPUT_CHECK(index == snapChunksSeen_,
                    "replication: RCHUNK out of order (got "
                        << index << ", want " << snapChunksSeen_ << ")");
    snapText_ += body;
    ++snapChunksSeen_;
    if (snapChunksSeen_ < snapChunks_) return;
  }
  GPD_INPUT_CHECK(fnv1a32(snapText_) == snapChecksum_,
                  "replication: snapshot checksum mismatch");
  engine_ = Engine::restoreManifestText(snapText_, options_);
  GPD_INPUT_CHECK(engine_->checkpointEpoch() == snapEpoch_,
                  "replication: snapshot epoch mismatch");
  snapshotLoaded_ = true;
  if (onCheckpoint_) {
    // The snapshot is the parent every later delta chains from; the host's
    // on-disk log needs it first or its chain would start mid-air.
    CheckpointCapture cap;
    cap.delta = false;
    cap.epoch = snapEpoch_;
    cap.checksum = snapChecksum_;
    cap.sessions = engine_->openSessions();
    cap.text = std::move(snapText_);
    onCheckpoint_(cap);
  }
  snapText_.clear();
  snapText_.shrink_to_fit();
}

void ReplicationFollower::applyPumpRecord(const std::string& payload) {
  GPD_INPUT_CHECK(snapshotLoaded_, "replication: RPUMP before snapshot");
  std::string body;
  const std::string head = headerLineOf(payload, &body);
  std::istringstream is(head);
  io::TokenReader r(is, "replication");
  const std::string kw = r.word("pump record");
  if (kw == "RPUMP") {
    GPD_INPUT_CHECK(!pumpOpen_, "replication: RPUMP inside an open block");
    pumpIndex_ = r.counter("RPUMP pump");
    pumpCmdsExpected_ = r.counter("RPUMP command count");
    GPD_INPUT_CHECK(pumpIndex_ == engine_->stats().pumps,
                    "replication: pump gap (leader at "
                        << pumpIndex_ << ", follower at "
                        << engine_->stats().pumps << ")");
    pumpCmds_.clear();
    pumpOpen_ = true;
    if (pumpCmdsExpected_ == 0) finishPumpBlock();
    return;
  }
  GPD_INPUT_CHECK(kw == "RCMD", "replication: malformed pump record");
  GPD_INPUT_CHECK(pumpOpen_, "replication: RCMD outside a pump block");
  const int origin = static_cast<int>(
      r.integer("RCMD origin", std::numeric_limits<int>::min(),
                std::numeric_limits<int>::max()));
  pumpCmds_.push_back({origin, std::move(body)});
  if (pumpCmds_.size() == pumpCmdsExpected_) finishPumpBlock();
}

void ReplicationFollower::finishPumpBlock() {
  for (ReplicatedCmd& cmd : pumpCmds_) {
    engine_->submit(std::move(cmd.payload), cmd.origin);
  }
  pumpCmds_.clear();
  std::vector<Response> out;
  engine_->pump(out);
  for (Response& r : out) {
    retained_.push_back({pumpIndex_ + 1, std::move(r)});
  }
  ++pumpsApplied_;
  pumpOpen_ = false;
}

void ReplicationFollower::applyCkptRecord(const std::string& payload) {
  GPD_INPUT_CHECK(snapshotLoaded_ && !pumpOpen_,
                  "replication: RCKPT outside a pump boundary");
  std::istringstream is(payload);
  io::TokenReader r(is, "replication");
  r.keyword("RCKPT");
  const std::uint64_t pump = r.counter("RCKPT pump");
  const std::string kind = r.word("RCKPT kind");
  GPD_INPUT_CHECK(kind == "full" || kind == "delta",
                  "replication: malformed RCKPT");
  const std::uint64_t epoch = r.counter("RCKPT epoch");
  const auto checksum = static_cast<std::uint32_t>(
      r.counter("RCKPT checksum", std::numeric_limits<std::uint32_t>::max()));
  GPD_INPUT_CHECK(pump == engine_->stats().pumps,
                  "replication: RCKPT pump mismatch");
  const CheckpointCapture cap = engine_->captureCheckpoint(kind == "delta");
  GPD_INPUT_CHECK(cap.epoch == epoch && cap.checksum == checksum,
                  "replication: checkpoint divergence at epoch "
                      << epoch << " (follower checksum " << cap.checksum
                      << ", leader " << checksum
                      << ") — refusing to serve a replica that cannot "
                         "prove it matches the leader");
  if (onCheckpoint_) onCheckpoint_(cap);
}

void ReplicationFollower::applyFlushRecord(const std::string& payload) {
  GPD_INPUT_CHECK(snapshotLoaded_, "replication: RFLUSH before snapshot");
  std::istringstream is(payload);
  io::TokenReader r(is, "replication");
  r.keyword("RFLUSH");
  const std::uint64_t pump = r.counter("RFLUSH pump");
  retained_.erase(
      std::remove_if(retained_.begin(), retained_.end(),
                     [pump](const RetainedResponse& r) {
                       return r.pump <= pump;
                     }),
      retained_.end());
}

ReplicationFollower::Promotion ReplicationFollower::promote() {
  GPD_INPUT_CHECK(snapshotLoaded_,
                  "replication: cannot promote before a snapshot landed");
  // A half-received pump block was never executed on the leader's clients'
  // behalf either — drop it; clients retransmit unacked commands.
  pumpCmds_.clear();
  pumpOpen_ = false;
  Promotion out;
  out.lastSyncToken = engine_->lastSyncToken();
  out.pumps = pumpsApplied_;
  out.retained.reserve(retained_.size());
  for (RetainedResponse& r : retained_) {
    out.retained.push_back(std::move(r.resp));
  }
  retained_.clear();
  out.engine = std::move(engine_);
  return out;
}

}  // namespace gpd::service
