#include "analyze/trace_lint.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <utility>

#include "clocks/vector_clock.h"
#include "graph/dag.h"
#include "io/trace_io.h"
#include "util/check.h"

namespace gpd::analyze {

namespace {

using MessageLine = io::ParsedTrace::Message;
using VariableLine = io::ParsedTrace::Variable;

class Linter {
 public:
  Linter(std::istream& is, const LintOptions& opts) : is_(is), opts_(opts) {}

  LintResult run() {
    parsed_ = io::parseTrace(is_, [this](const io::TraceFault& f) {
      error(f.code, f.line, f.message);
    });
    if (result_.ok()) detectCycles();
    if (result_.ok()) buildAndCheckSemantics();
    return std::move(result_);
  }

 private:
  void emit(Severity sev, const char* code, int line, const std::string& msg) {
    result_.diagnostics.push_back(Diagnostic{sev, code, line, msg});
  }
  void error(const char* code, int line, const std::string& msg) {
    emit(Severity::Error, code, line, msg);
  }
  void warning(const char* code, int line, const std::string& msg) {
    emit(Severity::Warning, code, line, msg);
  }
  void info(const std::string& msg) { emit(Severity::Info, "I001", 0, msg); }

  // ---- causality ----

  int node(ProcessId p, int index) const { return offsets_[p] + index; }

  void computeOffsets() {
    offsets_.assign(parsed_.processes, 0);
    totalEvents_ = 0;
    for (ProcessId p = 0; p < parsed_.processes; ++p) {
      offsets_[p] = totalEvents_;
      totalEvents_ += parsed_.counts[p];
    }
  }

  // Happened-before cycle detection over process-order and message edges
  // (initial-precedence edges cannot participate in a cycle: initial events
  // have no predecessors). On a cycle, reports E201 at the line of a message
  // on it — the actionable edge, since process order alone is acyclic.
  void detectCycles() {
    computeOffsets();
    std::vector<std::vector<int>> succ(totalEvents_);
    std::map<std::pair<int, int>, int> messageLine;
    for (ProcessId p = 0; p < parsed_.processes; ++p) {
      for (int i = 0; i + 1 < parsed_.counts[p]; ++i) {
        succ[node(p, i)].push_back(node(p, i + 1));
      }
    }
    for (const MessageLine& m : parsed_.messages) {
      const int u = node(m.sendProcess, m.sendIndex);
      const int v = node(m.receiveProcess, m.receiveIndex);
      succ[u].push_back(v);
      messageLine.emplace(std::make_pair(u, v), m.line);
    }

    // Iterative DFS; a back edge closes a cycle along the explicit stack.
    std::vector<char> color(totalEvents_, 0);  // 0 new, 1 on stack, 2 done
    std::vector<int> stack;
    std::vector<std::size_t> nextChild;
    for (int root = 0; root < totalEvents_; ++root) {
      if (color[root] != 0) continue;
      stack.assign(1, root);
      nextChild.assign(1, 0);
      color[root] = 1;
      while (!stack.empty()) {
        const int u = stack.back();
        if (nextChild.back() >= succ[u].size()) {
          color[u] = 2;
          stack.pop_back();
          nextChild.pop_back();
          continue;
        }
        const int v = succ[u][nextChild.back()++];
        if (color[v] == 1) {
          reportCycle(stack, v, messageLine);
          return;
        }
        if (color[v] == 0) {
          color[v] = 1;
          stack.push_back(v);
          nextChild.push_back(0);
        }
      }
    }
  }

  void reportCycle(const std::vector<int>& stack, int entry,
                   const std::map<std::pair<int, int>, int>& messageLine) {
    // The cycle is the stack suffix from `entry`, closed by the back edge.
    std::vector<int> cycle(
        std::find(stack.begin(), stack.end(), entry), stack.end());
    cycle.push_back(entry);
    int line = 0;
    for (std::size_t i = 0; i + 1 < cycle.size() && line == 0; ++i) {
      const auto it = messageLine.find({cycle[i], cycle[i + 1]});
      if (it != messageLine.end()) line = it->second;
    }
    std::ostringstream os;
    os << "happened-before cycle through " << cycle.size() - 1 << " events";
    if (line > 0) os << " (closed by the message at line " << line << ")";
    error("E201", line, os.str());
  }

  // ---- build + semantic checks ----

  void buildAndCheckSemantics() {
    try {
      io::TraceFile file = io::buildTrace(parsed_);
      result_.computation = std::move(file.computation);
      result_.trace = std::move(file.trace);
    } catch (const InputError& e) {
      // detectCycles() should have caught this; keep the lint non-throwing.
      error("E201", 0, e.what());
      return;
    }

    const VectorClocks clocks(*result_.computation);
    checkClockConsistency(clocks);
    checkChannelDiscipline();
    checkRaces(clocks);
  }

  // Vector-clock consistency against the message graph: the Fidge–Mattern
  // axioms per event and per edge, plus (on small traces) the full
  // equivalence  e ≤ f ⟺ f reachable from e  against the explicit DAG.
  void checkClockConsistency(const VectorClocks& clocks) {
    const Computation& comp = *result_.computation;
    for (ProcessId p = 0; p < parsed_.processes; ++p) {
      std::vector<int> prev;
      for (int i = 0; i < comp.eventCount(p); ++i) {
        const EventId e{p, i};
        const std::vector<int> v = clocks.clockVector(e);
        if (v[p] != i) {
          std::ostringstream os;
          os << "vector clock of event " << p << ":" << i
             << " has own component " << v[p] << ", expected " << i;
          error("E202", 0, os.str());
          return;
        }
        if (i > 0 && !std::equal(prev.begin(), prev.end(), v.begin(),
                                 [](int a, int b) { return a <= b; })) {
          std::ostringstream os;
          os << "vector clock not monotone along process " << p
             << " between events " << i - 1 << " and " << i;
          error("E202", 0, os.str());
          return;
        }
        prev = v;
      }
    }
    for (const MessageLine& m : parsed_.messages) {
      const std::vector<int> send =
          clocks.clockVector({m.sendProcess, m.sendIndex});
      const std::vector<int> recv =
          clocks.clockVector({m.receiveProcess, m.receiveIndex});
      const bool dominated = std::equal(send.begin(), send.end(), recv.begin(),
                                        [](int a, int b) { return a <= b; });
      if (!dominated || recv[m.sendProcess] < m.sendIndex) {
        std::ostringstream os;
        os << "receive clock does not dominate send clock for message "
           << m.sendProcess << ":" << m.sendIndex << " -> " << m.receiveProcess
           << ":" << m.receiveIndex;
        error("E202", m.line, os.str());
        return;
      }
    }

    if (totalEvents_ > opts_.reachabilityCheckLimit) {
      info("clock/reachability cross-check skipped (" +
           std::to_string(totalEvents_) + " events > limit " +
           std::to_string(opts_.reachabilityCheckLimit) + ")");
      return;
    }
    const graph::Dag dag = comp.toDagWithoutInitialEdges();
    const graph::Reachability reach(dag);
    for (int u = 0; u < totalEvents_; ++u) {
      const EventId e = comp.event(u);
      if (e.isInitial()) continue;
      for (int v = 0; v < totalEvents_; ++v) {
        const EventId f = comp.event(v);
        if (f.isInitial()) continue;
        const bool viaClocks = clocks.leq(e, f);
        const bool viaGraph = u == v || reach.reaches(u, v);
        if (viaClocks != viaGraph) {
          std::ostringstream os;
          os << "vector clocks disagree with message-graph reachability for "
             << e.process << ":" << e.index << " vs " << f.process << ":"
             << f.index;
          error("E203", 0, os.str());
          return;
        }
      }
    }
  }

  // FIFO crossings per channel, multicast sends, aggregated receives.
  void checkChannelDiscipline() {
    std::map<std::pair<int, int>, std::vector<const MessageLine*>> channels;
    for (const MessageLine& m : parsed_.messages) {
      channels[{m.sendProcess, m.receiveProcess}].push_back(&m);
    }
    for (auto& [channel, msgs] : channels) {
      std::sort(msgs.begin(), msgs.end(),
                [](const MessageLine* a, const MessageLine* b) {
                  return std::tie(a->sendIndex, a->receiveIndex) <
                         std::tie(b->sendIndex, b->receiveIndex);
                });
      int reported = 0;
      bool truncated = false;
      for (std::size_t j = 1; j < msgs.size() && !truncated; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
          if (msgs[i]->sendIndex < msgs[j]->sendIndex &&
              msgs[i]->receiveIndex > msgs[j]->receiveIndex) {
            if (reported >= opts_.maxFindingsPerSubject) {
              truncated = true;
              break;
            }
            ++reported;
            std::ostringstream os;
            os << "channel " << channel.first << " -> " << channel.second
               << " is not FIFO: message " << msgs[j]->sendProcess << ":"
               << msgs[j]->sendIndex << " -> " << msgs[j]->receiveProcess
               << ":" << msgs[j]->receiveIndex
               << " overtakes the earlier send at line " << msgs[i]->line;
            warning("W301", msgs[j]->line, os.str());
          }
        }
      }
      if (truncated) {
        std::ostringstream os;
        os << "further FIFO crossings on channel " << channel.first << " -> "
           << channel.second << " suppressed after "
           << opts_.maxFindingsPerSubject << " findings";
        info(os.str());
      }
    }

    std::map<std::pair<int, int>, std::vector<const MessageLine*>> bySend;
    std::map<std::pair<int, int>, std::vector<const MessageLine*>> byReceive;
    for (const MessageLine& m : parsed_.messages) {
      bySend[{m.sendProcess, m.sendIndex}].push_back(&m);
      byReceive[{m.receiveProcess, m.receiveIndex}].push_back(&m);
    }
    int multicasts = 0;
    for (const auto& [event, msgs] : bySend) {
      if (msgs.size() < 2 || ++multicasts > opts_.maxFindingsPerSubject) {
        continue;
      }
      std::ostringstream os;
      os << "event " << event.first << ":" << event.second << " sends "
         << msgs.size() << " messages (multicast send; first duplicate at "
         << "line " << msgs[1]->line << ")";
      warning("W302", msgs[0]->line, os.str());
    }
    int aggregated = 0;
    for (const auto& [event, msgs] : byReceive) {
      if (msgs.size() < 2 || ++aggregated > opts_.maxFindingsPerSubject) {
        continue;
      }
      std::ostringstream os;
      os << "event " << event.first << ":" << event.second << " receives "
         << msgs.size() << " messages (aggregated receive; first duplicate "
         << "at line " << msgs[1]->line << ")";
      warning("W303", msgs[0]->line, os.str());
    }
  }

  // Vector-clock race detection: two processes updating the same predicate
  // variable at concurrent events. One warning per (variable, process pair).
  void checkRaces(const VectorClocks& clocks) {
    std::map<std::string, std::vector<const VariableLine*>> byName;
    for (const VariableLine& v : parsed_.variables) {
      byName[v.name].push_back(&v);
    }
    long long budget = 1LL << 20;  // pairwise clock comparisons
    for (const auto& [name, defs] : byName) {
      if (defs.size() < 2) continue;
      std::vector<std::vector<int>> updates(defs.size());
      for (std::size_t d = 0; d < defs.size(); ++d) {
        const auto& values = defs[d]->values;
        for (std::size_t i = 1; i < values.size(); ++i) {
          if (values[i] != values[i - 1]) {
            updates[d].push_back(static_cast<int>(i));
          }
        }
      }
      int reported = 0;
      for (std::size_t a = 0; a < defs.size(); ++a) {
        for (std::size_t b = a + 1; b < defs.size(); ++b) {
          if (reported >= opts_.maxFindingsPerSubject) break;
          bool raced = false;
          for (const int i : updates[a]) {
            if (raced) break;
            for (const int j : updates[b]) {
              if (--budget < 0) {
                info("race check truncated (comparison budget exhausted)");
                return;
              }
              const EventId e{defs[a]->process, i};
              const EventId f{defs[b]->process, j};
              if (clocks.concurrent(e, f)) {
                ++reported;
                std::ostringstream os;
                os << "race on variable '" << name << "': update at "
                   << e.process << ":" << e.index
                   << " is concurrent with update at " << f.process << ":"
                   << f.index << " (defined at lines " << defs[a]->line
                   << " and " << defs[b]->line << ")";
                warning("W401", defs[b]->line, os.str());
                raced = true;
                break;
              }
            }
          }
        }
      }
    }
  }

  std::istream& is_;
  LintOptions opts_;
  LintResult result_;

  io::ParsedTrace parsed_;
  std::vector<int> offsets_;
  int totalEvents_ = 0;
};

}  // namespace

LintResult lintTrace(std::istream& is, const LintOptions& opts) {
  return Linter(is, opts).run();
}

LintResult lintTraceFile(const std::string& path, const LintOptions& opts) {
  std::ifstream is(path);
  if (!is.is_open()) {
    LintResult result;
    result.diagnostics.push_back(Diagnostic{
        Severity::Error, "E100", 0, "cannot open '" + path + "' for reading"});
    return result;
  }
  return lintTrace(is, opts);
}

}  // namespace gpd::analyze
