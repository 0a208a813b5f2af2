// Static trace linter (`gpdtool lint`).
//
// The structural pass is io::parseTrace, the one gpd-trace parser; where
// io::readTrace's sink throws at the first fault, the linter's records
// each fault as a Diagnostic and parsing resumes at the next line. When the
// structure was sound the linter goes on to semantic checks the strict
// reader never attempts:
//
//   structure   E101–E108  header/keyword/range/duplicate/truncation faults
//                          (io::TraceFault codes and messages)
//   causality   E201       happened-before cycle (with the message line on
//                          the cycle), E202/E203 vector-clock inconsistency
//                          against the message graph (clock axioms plus a
//                          full reachability cross-check on small traces)
//   discipline  W301–W303  FIFO-channel violations (crossing messages),
//                          multicast sends, aggregated receives
//   races       W401       vector-clock race detection: concurrent updates
//                          to the same predicate variable on two processes
//
// Contract with the strict reader: the linter reports at least one *error*
// exactly when io::readTrace throws InputError, so `gpdtool lint` exits 1
// on precisely the traces the rest of the toolchain refuses to load. It
// holds by construction (one parser, two sinks; a cycle is E201 here and
// InputError there); the LintFuzz suite keeps it as a regression test.
// Warnings never fail the lint.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analyze/diagnostic.h"
#include "computation/computation.h"
#include "predicates/variable_trace.h"

namespace gpd::analyze {

struct LintOptions {
  // Full clocks-vs-reachability cross-check only below this many events
  // (it is O(E²) in space); the cheap per-edge clock axioms always run.
  int reachabilityCheckLimit = 400;
  // At most this many FIFO-crossing warnings per channel and race warnings
  // per variable (one per process pair); a summary Info notes truncation.
  int maxFindingsPerSubject = 8;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  // Populated when the stream was structurally sound (no E1xx/E2xx errors):
  // the same objects io::readTrace would have produced.
  std::unique_ptr<Computation> computation;
  std::unique_ptr<VariableTrace> trace;

  // No Error-severity diagnostics (warnings and infos allowed).
  bool ok() const { return errorCount(diagnostics) == 0; }
};

// Lints a gpd-trace stream. Never throws on hostile input: every failure
// mode becomes an Error diagnostic.
LintResult lintTrace(std::istream& is, const LintOptions& opts = {});

// File wrapper; an unreadable path becomes an E100 diagnostic, not an
// exception.
LintResult lintTraceFile(const std::string& path, const LintOptions& opts = {});

}  // namespace gpd::analyze
