// Persistence for recorded computations and their variable traces.
//
// A line-oriented text format, versioned and self-describing:
//
//   gpd-trace 1
//   processes 3
//   events 5 4 6              # total events per process, incl. the initial
//   message 0 2 1 3           # send (proc, idx) -> receive (proc, idx)
//   var 0 cs 0 1 1 0 0        # process, name, value after each event
//   end
//
// Variable names must be whitespace-free. parseTrace is the one reader of
// this grammar. It checks structure (ranges, duplicate lines, hostile-sized
// counts, truncation) and hands each fault to a sink. readTrace's sink
// throws gpd::InputError("line N: <message>") at the first fault; the
// linter's (analyze/trace_lint.h) records a diagnostic and parsing resumes
// at the next line. buildTrace then checks causal acyclicity (via
// ComputationBuilder; a cyclic input is an InputError, never a
// CheckFailure). Traces are returned as owning pointers because the trace
// refers into the computation.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "computation/computation.h"
#include "predicates/variable_trace.h"

namespace gpd::io {

// Format constants. Counts above the bounds are rejected before they can
// drive allocations.
inline constexpr char kTraceMagic[] = "gpd-trace";
inline constexpr int kTraceVersion = 1;
inline constexpr long long kTraceMaxProcesses = 1 << 20;
inline constexpr long long kTraceMaxTotalEvents = 1 << 26;

// One structural fault. `code` is the linter's stable code: E101 header,
// E102 'processes' line, E103 'events' line, E104 unknown keyword, missing
// name or trailing token, E105 message line, E106 var line, E108
// truncation or content after 'end'. `line` is 1-based.
struct TraceFault {
  const char* code;
  int line;
  std::string message;
};

using TraceFaultSink = std::function<void(const TraceFault&)>;

// Everything the structural pass recovered, each line-tagged record as it
// appeared in the stream. `processes` is 0 when the prologue (header,
// 'processes' and 'events' lines) did not parse; the body is then skipped.
struct ParsedTrace {
  struct Message {
    int sendProcess = 0;
    int sendIndex = 0;
    int receiveProcess = 0;
    int receiveIndex = 0;
    int line = 0;
  };
  struct Variable {
    ProcessId process = 0;
    std::string name;
    std::vector<std::int64_t> values;
    int line = 0;
  };
  int processes = 0;
  std::vector<int> counts;  // events per process, incl. the initial
  std::vector<Message> messages;
  std::vector<Variable> variables;
};

struct TraceFile {
  std::unique_ptr<Computation> computation;
  std::unique_ptr<VariableTrace> trace;
};

void writeTrace(std::ostream& os, const Computation& comp,
                const VariableTrace& trace);

// The gpd-trace grammar. A faulty line contributes nothing to the result.
ParsedTrace parseTrace(std::istream& is, const TraceFaultSink& fault);

// The computation and variable trace a fault-free parse describes. Throws
// InputError("trace describes a cyclic computation") on a happened-before
// cycle.
TraceFile buildTrace(ParsedTrace parsed);

// parseTrace with a sink that throws at the first fault, then buildTrace.
TraceFile readTrace(std::istream& is);

// Convenience file-path wrappers.
void saveTrace(const std::string& path, const Computation& comp,
               const VariableTrace& trace);
TraceFile loadTrace(const std::string& path);

}  // namespace gpd::io
