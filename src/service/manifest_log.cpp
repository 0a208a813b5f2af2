#include "service/manifest_log.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "io/checkpoint_io.h"
#include "io/token_reader.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/number.h"

namespace gpd::service {

namespace {

std::string slurpFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  GPD_INPUT_CHECK(is.is_open(), "cannot open manifest '" << path << "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

// Reads just enough of a manifest header to learn whether it is a delta and
// what parent epoch it names. Returns false on anything that does not look
// like a delta header (the caller decides whether that is corruption).
bool peekDeltaParent(const std::string& text, std::uint64_t* parentEpoch) {
  std::istringstream is(text);
  io::TokenReader r(is, "manifest");
  try {
    r.word("magic");
    r.integer("version", 0, 1 << 20);
    r.keyword("kind");
    if (r.word("manifest kind") != "delta") return false;
    r.keyword("epoch");
    r.counter("epoch");
    r.keyword("parent");
    *parentEpoch = r.counter("parent epoch");
    return true;
  } catch (const InputError&) {
    return false;
  }
}

// Every on-disk delta index for `fullPath`, by scanning its directory for
// "<name>.delta.<N>" siblings. A scan (rather than probing 1, 2, 3, … until
// the first miss) is what makes a *missing middle* delta detectable.
std::set<std::uint64_t> deltaIndicesOnDisk(const std::string& fullPath) {
  namespace fs = std::filesystem;
  std::set<std::uint64_t> out;
  const fs::path full(fullPath);
  const std::string prefix = full.filename().string() + ".delta.";
  fs::path dir = full.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    // Only the names deltaPath writes: a plain decimal index from 1, so
    // "<name>.delta.1x", ".delta.+1" or ".delta.01" are not deltas.
    const std::string tail = name.substr(prefix.size());
    const std::optional<std::uint64_t> idx = parseUnsigned(tail);
    if (idx.has_value() && *idx >= 1 && std::to_string(*idx) == tail) {
      out.insert(*idx);
    }
  }
  return out;
}

}  // namespace

ManifestLog::ManifestLog(std::string path, std::uint64_t fullEvery)
    : path_(std::move(path)), fullEvery_(fullEvery) {
  GPD_INPUT_CHECK(!path_.empty(), "manifest log needs a path");
  GPD_INPUT_CHECK(fullEvery_ >= 1, "manifest log: fullEvery must be >= 1");
}

std::string ManifestLog::deltaPath(std::uint64_t index) const {
  return path_ + ".delta." + std::to_string(index);
}

CheckpointCapture ManifestLog::store(Engine& engine, bool forceFull) {
  const bool preferDelta =
      !forceFull && fullEvery_ > 1 && deltasSinceFull_ + 1 < fullEvery_;
  CheckpointCapture cap = engine.captureCheckpoint(preferDelta);
  persist(cap);
  return cap;
}

void ManifestLog::persist(const CheckpointCapture& cap) {
  if (cap.delta) {
    ++deltasSinceFull_;
    io::atomicWriteFile(deltaPath(deltasSinceFull_), cap.text);
    GPD_OBS_COUNTER_ADD("gpdd_checkpoint_deltas", 1);
  } else {
    // Full first (rename makes it live), then sweep the now-stale deltas.
    // A crash in between leaves deltas whose parent epoch predates the new
    // full — recover() ignores exactly those.
    io::atomicWriteFile(path_, cap.text);
    deltasSinceFull_ = 0;
    unlinkStaleDeltas();
  }
  GPD_OBS_COUNTER_ADD("gpdd_checkpoints", 1);
}

void ManifestLog::unlinkStaleDeltas() const {
  for (std::uint64_t idx : deltaIndicesOnDisk(path_)) {
    std::remove(deltaPath(idx).c_str());
  }
}

std::unique_ptr<Engine> ManifestLog::recover(EngineOptions options) {
  auto eng = Engine::restoreManifestText(slurpFile(path_), options);
  deltasSinceFull_ = 0;
  const std::set<std::uint64_t> onDisk = deltaIndicesOnDisk(path_);
  std::uint64_t expected = 1;
  for (std::uint64_t idx : onDisk) {
    GPD_INPUT_CHECK(idx == expected,
                    "manifest chain: delta " << expected
                                             << " is missing but delta " << idx
                                             << " exists — refusing to skip "
                                                "part of the history");
    const std::string text = slurpFile(deltaPath(idx));
    std::uint64_t parentEpoch = 0;
    const bool looksDelta = peekDeltaParent(text, &parentEpoch);
    GPD_INPUT_CHECK(looksDelta, "manifest chain: '"
                                    << deltaPath(idx)
                                    << "' is not a delta manifest");
    if (parentEpoch < eng->checkpointEpoch()) {
      // Stale leftover from before the current full manifest (a crash
      // between its rename and the delta sweep). The live chain ends here.
      break;
    }
    eng->applyDeltaText(text);
    deltasSinceFull_ = idx;
    ++expected;
  }
  return eng;
}

}  // namespace gpd::service
