#include "io/trace_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "util/check.h"
#include "util/number.h"

namespace gpd::io {

namespace {

bool whitespaceFree(const std::string& s) {
  return !s.empty() &&
         s.find_first_of(" \t\r\n") == std::string::npos;
}

// The line and token cursor under the gpd-trace grammar: every read that
// fails reports its fault to the sink and returns empty or false.
class TraceLines {
 public:
  TraceLines(std::istream& is, const TraceFaultSink& sink)
      : is_(is), sink_(sink) {}

  int line() const { return line_; }
  int hereOrOne() const { return line_ > 0 ? line_ : 1; }

  void fault(const char* code, int line, std::string message) {
    sink_(TraceFault{code, line, std::move(message)});
  }

  // Advances to the next non-blank line (blank: only ' ', '\t' and '\r');
  // false at end of stream.
  bool next() {
    while (std::getline(is_, text_)) {
      ++line_;
      if (text_.find_first_not_of(" \t\r") == std::string::npos) continue;
      rest_ = text_;
      return true;
    }
    return false;
  }

  // The line's next token, or an empty view when it is used up. Tokens are
  // split at what `istream >> std::string` skips in the C locale.
  std::string_view token() {
    constexpr std::string_view kSpace = " \t\n\v\f\r";
    const std::size_t start = rest_.find_first_not_of(kSpace);
    if (start == std::string_view::npos) {
      rest_ = {};
      return {};
    }
    rest_.remove_prefix(start);
    const std::size_t end = std::min(rest_.find_first_of(kSpace), rest_.size());
    const std::string_view token = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return token;
  }

  // The next token as a number in [lo, hi].
  std::optional<long long> integer(const char* code, const char* what,
                                   long long lo, long long hi) {
    const std::string_view w = token();
    if (w.empty()) {
      fault(code, line_, std::string("missing ") + what);
      return std::nullopt;
    }
    std::string message;
    const auto v = integerField(w, what, lo, hi, &message);
    if (!v) fault(code, line_, std::move(message));
    return v;
  }

  // True when the line has no token left.
  bool done(const char* code) {
    const std::string_view extra = token();
    if (extra.empty()) return true;
    fault(code, line_, "unexpected trailing '" + std::string(extra) + "'");
    return false;
  }

  // Advances to the next line and checks that it starts with `keyword`.
  bool keywordLine(const char* code, const char* keyword) {
    if (!next()) {
      fault(code, hereOrOne(),
            std::string("truncated trace: missing '") + keyword + "' line");
      return false;
    }
    if (token() != keyword) {
      fault(code, line_, std::string("expected '") + keyword + "'");
      return false;
    }
    return true;
  }

 private:
  std::istream& is_;
  const TraceFaultSink& sink_;
  std::string text_;
  std::string_view rest_;  // the unread part of text_
  int line_ = 0;
};

using MessageKey = std::tuple<int, int, int, int>;
using VariableKey = std::pair<ProcessId, std::string>;

void parseMessage(TraceLines& in, ParsedTrace& out,
                  std::set<MessageKey>& seen) {
  ParsedTrace::Message m;
  m.line = in.line();
  const int last = out.processes - 1;
  const auto sp = in.integer("E105", "send process", 0, last);
  if (!sp) return;
  m.sendProcess = static_cast<int>(*sp);
  const auto si =
      in.integer("E105", "send index", 1, out.counts[m.sendProcess] - 1);
  if (!si) return;
  m.sendIndex = static_cast<int>(*si);
  const auto rp = in.integer("E105", "receive process", 0, last);
  if (!rp) return;
  m.receiveProcess = static_cast<int>(*rp);
  if (m.receiveProcess == m.sendProcess) {
    std::ostringstream os;
    os << "message from process " << m.sendProcess << " to itself";
    in.fault("E105", m.line, os.str());
    return;
  }
  const auto ri = in.integer("E105", "receive index", 1,
                             out.counts[m.receiveProcess] - 1);
  if (!ri) return;
  m.receiveIndex = static_cast<int>(*ri);
  if (!in.done("E104")) return;
  if (!seen.emplace(m.sendProcess, m.sendIndex, m.receiveProcess,
                    m.receiveIndex)
           .second) {
    std::ostringstream os;
    os << "duplicate message " << m.sendProcess << ":" << m.sendIndex
       << " -> " << m.receiveProcess << ":" << m.receiveIndex;
    in.fault("E105", m.line, os.str());
    return;
  }
  out.messages.push_back(m);
}

void parseVariable(TraceLines& in, ParsedTrace& out,
                   std::set<VariableKey>& seen) {
  ParsedTrace::Variable v;
  v.line = in.line();
  const auto p = in.integer("E106", "var process", 0, out.processes - 1);
  if (!p) return;
  v.process = static_cast<ProcessId>(*p);
  const std::string_view name = in.token();
  if (name.empty()) {
    in.fault("E104", v.line, "missing variable name");
    return;
  }
  v.name = name;
  if (!seen.emplace(v.process, v.name).second) {
    std::ostringstream os;
    os << "duplicate variable '" << v.name << "' on process " << v.process;
    in.fault("E106", v.line, os.str());
    return;
  }
  v.values.resize(out.counts[v.process]);
  for (auto& x : v.values) {
    const auto value =
        in.integer("E106", "var value", std::numeric_limits<std::int64_t>::min(),
                   std::numeric_limits<std::int64_t>::max());
    if (!value) return;
    x = *value;
  }
  if (!in.done("E104")) return;
  out.variables.push_back(std::move(v));
}

}  // namespace

void writeTrace(std::ostream& os, const Computation& comp,
                const VariableTrace& trace) {
  GPD_CHECK(&trace.computation() == &comp);
  os << kTraceMagic << ' ' << kTraceVersion << '\n';
  os << "processes " << comp.processCount() << '\n';
  os << "events";
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    os << ' ' << comp.eventCount(p);
  }
  os << '\n';
  for (const Message& m : comp.messages()) {
    os << "message " << m.send.process << ' ' << m.send.index << ' '
       << m.receive.process << ' ' << m.receive.index << '\n';
  }
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    for (const std::string& name : trace.variableNames(p)) {
      GPD_CHECK_MSG(whitespaceFree(name),
                    "variable name '" << name << "' is not serializable");
      os << "var " << p << ' ' << name;
      for (int i = 0; i < comp.eventCount(p); ++i) {
        os << ' ' << trace.value(p, name, i);
      }
      os << '\n';
    }
  }
  os << "end\n";
  GPD_CHECK_MSG(os.good(), "trace write failed");
}

ParsedTrace parseTrace(std::istream& is, const TraceFaultSink& fault) {
  TraceLines in(is, fault);
  ParsedTrace out;

  // Prologue: header, processes and events lines. A fault here leaves
  // nothing to anchor the body to, so parsing stops.
  if (!in.next()) {
    in.fault("E101", in.hereOrOne(), "truncated trace: missing header");
    return {};
  }
  if (in.token() != kTraceMagic) {
    in.fault("E101", in.line(), "not a gpd-trace stream");
    return {};
  }
  const auto version =
      in.integer("E101", "version", 0, std::numeric_limits<long long>::max());
  if (!version) return {};
  if (*version != kTraceVersion) {
    std::ostringstream os;
    os << "unsupported trace version " << *version << " (expected "
       << kTraceVersion << ")";
    in.fault("E101", in.line(), os.str());
    return {};
  }
  if (!in.done("E101")) return {};

  if (!in.keywordLine("E102", "processes")) return {};
  const auto processes =
      in.integer("E102", "process count", 1, kTraceMaxProcesses);
  if (!processes || !in.done("E102")) return {};
  out.processes = static_cast<int>(*processes);

  if (!in.keywordLine("E103", "events")) return {};
  out.counts.resize(out.processes);
  long long total = 0;
  for (int& c : out.counts) {
    const auto v = in.integer("E103", "event count", 1, kTraceMaxTotalEvents);
    if (!v) return {};
    c = static_cast<int>(*v);
    total += *v;
    if (total > kTraceMaxTotalEvents) {
      std::ostringstream os;
      os << "total event count " << total << " exceeds the "
         << kTraceMaxTotalEvents << " limit";
      in.fault("E103", in.line(), os.str());
      return {};
    }
  }
  if (!in.done("E103")) return {};

  // Body: message and var lines up to 'end'; a faulty line is skipped.
  std::set<MessageKey> messagesSeen;
  std::set<VariableKey> varsSeen;
  bool sawEnd = false;
  while (in.next()) {
    const std::string_view keyword = in.token();
    if (keyword.empty()) {
      // Non-blank by the line rule (e.g. a lone \v or \f) yet holding no
      // token.
      in.fault("E104", in.line(), "missing trace keyword");
    } else if (keyword == "end") {
      in.done("E104");
      sawEnd = true;
      break;
    } else if (keyword == "message") {
      parseMessage(in, out, messagesSeen);
    } else if (keyword == "var") {
      parseVariable(in, out, varsSeen);
    } else {
      in.fault("E104", in.line(),
               "unknown trace keyword '" + std::string(keyword) + "'");
    }
  }
  if (!sawEnd) {
    in.fault("E108", in.hereOrOne(), "truncated trace: missing 'end'");
  } else if (in.next()) {
    in.fault("E108", in.line(), "content after 'end'");
  }
  return out;
}

TraceFile buildTrace(ParsedTrace parsed) {
  ComputationBuilder builder(parsed.processes);
  for (ProcessId p = 0; p < parsed.processes; ++p) {
    for (int i = 1; i < parsed.counts[p]; ++i) builder.appendEvent(p);
  }
  for (const ParsedTrace::Message& m : parsed.messages) {
    builder.addMessage({m.sendProcess, m.sendIndex},
                       {m.receiveProcess, m.receiveIndex});
  }
  TraceFile file;
  try {
    file.computation = std::make_unique<Computation>(std::move(builder).build());
  } catch (const CheckFailure&) {
    // The builder validates causal acyclicity; a cycle here means the input
    // describes an impossible computation, not a library bug.
    throw InputError("trace describes a cyclic computation");
  }
  file.trace = std::make_unique<VariableTrace>(*file.computation);
  for (ParsedTrace::Variable& v : parsed.variables) {
    file.trace->define(v.process, std::move(v.name), std::move(v.values));
  }
  return file;
}

TraceFile readTrace(std::istream& is) {
  return buildTrace(parseTrace(is, [](const TraceFault& f) {
    throw InputError("line " + std::to_string(f.line) + ": " + f.message);
  }));
}

void saveTrace(const std::string& path, const Computation& comp,
               const VariableTrace& trace) {
  std::ofstream os(path);
  GPD_CHECK_MSG(os.is_open(), "cannot open '" << path << "' for writing");
  writeTrace(os, comp, trace);
}

TraceFile loadTrace(const std::string& path) {
  std::ifstream is(path);
  GPD_INPUT_CHECK(is.is_open(), "cannot open '" << path << "' for reading");
  return readTrace(is);
}

}  // namespace gpd::io
