// Persistence for the resilient online checker (monitor/session.h).
//
// A restarted checker process restores its MonitorSession from the last
// checkpoint and keeps going; notifications replayed by the transport after
// the restore are absorbed by the session's sequence-number dedup, so a
// checkpoint round-trip never changes the verdict.
//
// Line-oriented text, versioned and self-describing like trace_io:
//
//   gpd-checkpoint 1
//   processes 2
//   now 17
//   next 3 1
//   ...
//   queue 0 2
//   clock 1 0
//   clock 3 1
//   ...
//   end
//
// Loading reads tokens through io::TokenReader (token_reader.h), which
// applies the one number rule (counters take no minus sign). It validates
// structure, throwing gpd::InputError on malformed data, and defers
// semantic validation (program order, buffer ordering) to
// MonitorSession::restore. readCheckpoint consumes exactly through the
// checkpoint's "end", so a gpdd manifest embeds checkpoints in its own
// stream.
#pragma once

#include <iosfwd>
#include <string>

#include "monitor/session.h"

namespace gpd::io {

void writeCheckpoint(std::ostream& os, const monitor::SessionSnapshot& snap);
monitor::SessionSnapshot readCheckpoint(std::istream& is);

// Convenience file-path wrappers.
void saveCheckpoint(const std::string& path,
                    const monitor::SessionSnapshot& snap);
monitor::SessionSnapshot loadCheckpoint(const std::string& path);

// Crash-safe file replacement: writes `contents` to `path + ".tmp"` and
// renames it over `path`, so a reader (or a restart after SIGKILL mid-write)
// sees either the old complete file or the new complete file, never a torn
// one. Throws gpd::InputError if the path cannot be written.
void atomicWriteFile(const std::string& path, const std::string& contents);

// saveCheckpoint via atomicWriteFile — the periodic-checkpoint form used by
// `gpdtool monitor --checkpoint-every` and the gpdd service, where a crash
// can land mid-write and the previous checkpoint must survive.
void saveCheckpointAtomic(const std::string& path,
                          const monitor::SessionSnapshot& snap);

}  // namespace gpd::io
