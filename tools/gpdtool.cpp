// gpdtool — command-line front end for the gpd library.
//
//   gpdtool generate <workload> <out.trace> [seed]
//       workloads: token-ring | token-ring-rogue | token-ring-lossy |
//                  election | election-buggy | voting | producer-consumer |
//                  philosophers | philosophers-ordered | snapshot-bank |
//                  diffusing | ricart-agrawala | ricart-agrawala-rude |
//                  random
//   gpdtool inspect <trace>
//       prints processes, events, messages, variables and (when small
//       enough) the consistent-cut lattice statistics
//   gpdtool detect <trace> conj [--definitely] <p:var | p:!var>...
//       conjunctive predicate, one term per named process
//   gpdtool detect <trace> cnf [--definitely] <lit,lit,...> <lit,lit,...> ...
//       CNF predicate, one argv word per clause, literals p:var / p:!var
//       with --definitely, a "no" from the lattice prints its avoiding run:
//       the cuts of one run from the initial to the final cut, none of
//       which satisfies the predicate
//   gpdtool detect <trace> sum <lt|le|gt|ge|eq|ne> <K> <var>
//       Σ var over all processes, relop K
//   gpdtool detect <trace> sym <xor|no-majority|no-two-thirds|not-all-equal|
//                               exactly:<k>> <var>
//       every detect form accepts an execution budget (--budget-ms D,
//       --max-cuts N, --max-combinations N): the NP-hard detectors then run
//       anytime — a witness found in budget is a genuine answer, exhaustion
//       yields verdict "unknown" with the stop reason and progress counters
//       (exit code 3), never a wrong yes/no
//   gpdtool monitor <trace> [--seed N] [--drop P] [--dup P] [--reorder P]
//                   [--burst P] [--retries K] [--timeout T] [--window W]
//                   [--queue-limit Q] [--degrade-on-overflow] [--checkpoint F]
//                   [--max-comparisons-per-report C]
//                   <p:var | p:!var>...
//       replays the trace's true events through a seeded faulty transport
//       into the resilient online checker (monitor/session.h) and reports
//       the verdict, recovery traffic, degradations, and (with --checkpoint)
//       a checkpoint save/restore round-trip; the offline CPDHB verdict on
//       the same trace is printed for comparison
//   gpdtool lint <trace> [-f json]
//       static trace linter (src/analyze): reports every structural fault,
//       happened-before cycle, vector-clock inconsistency, FIFO violation
//       and variable race as line-numbered diagnostics; exits 1 iff an
//       error-severity finding exists (exactly the traces the strict loader
//       rejects)
//   gpdtool plan <trace> [--definitely] [-f json] <predicate...>
//       cost planner: classifies the predicate (singularity, k-CNF,
//       receive-/send-ordered groups, stability/linearity hints) and prints
//       the ranked algorithm plan with predicted CPDHB invocation counts —
//       the same report Detector dispatches on; with a budget
//       (--max-combinations N) each enumeration step is annotated in/over
//       budget (text output)
//   gpdtool selftest
//       end-to-end smoke used by ctest
//
// Exit code: 0 = ran fine (for detect: predicate decided either way),
// 1 = bad input (usage, malformed trace/arguments — gpd::InputError),
// 2 = internal failure (a library invariant broke — gpd::CheckFailure),
// 3 = budget exhausted before an answer (detect verdict "unknown").
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/diagnostic.h"
#include "gpd.h"
#include "obs/log.h"
#include "obs/openmetrics.h"
#include "version.h"

namespace {

using namespace gpd;

int usage() {
  obs::log::rawStderr()
            << "usage:\n"
            << "  gpdtool generate <workload> <out.trace> [seed]\n"
            << "  gpdtool inspect <trace>\n"
            << "  gpdtool detect <trace> conj [--definitely] <p:var|p:!var>...\n"
            << "  gpdtool detect <trace> cnf [--no-slice] [--definitely]\n"
            << "          <lit,lit,...>...\n"
            << "  gpdtool detect <trace> sum <lt|le|gt|ge|eq|ne> <K> <var>\n"
            << "  gpdtool detect <trace> sym <kind> <var>\n"
            << "      detect also takes --budget-ms D --max-cuts N\n"
            << "      --max-combinations N (verdict 'unknown' exits 3)\n"
            << "      detect and plan take --threads N (run the enumeration/\n"
            << "      lattice kernels on N pool workers; beats GPD_THREADS;\n"
            << "      verdicts and witnesses are identical for any N)\n"
            << "      detect, plan and monitor take --trace-out FILE.json\n"
            << "      (Chrome trace-event JSON for chrome://tracing/Perfetto\n"
            << "      plus a flame summary) and --stats [-f json] (the gpd::obs\n"
            << "      metrics registry after the run)\n"
            << "  gpdtool lint <trace> [-f json]\n"
            << "  gpdtool plan <trace> [--definitely] [-f json]\n"
            << "          [--budget-ms D] [--max-cuts N] [--max-combinations N]\n"
            << "          [--threads N]\n"
            << "          (conj <p:var|p:!var>... | cnf <lit,lit,...>... |\n"
            << "           sum <relop> <K> <var> | sym <kind> <var>)\n"
            << "  gpdtool monitor <trace> [--seed N] [--drop P] [--dup P]\n"
            << "                  [--reorder P] [--burst P] [--retries K]\n"
            << "                  [--timeout T] [--window W] [--queue-limit Q]\n"
            << "                  [--degrade-on-overflow] [--checkpoint F]\n"
            << "                  [--checkpoint-every N]\n"
            << "                  [--max-comparisons-per-report C]\n"
            << "                  <p:var|p:!var>...\n"
            << "  gpdtool scrape <file|-> [-f json]\n"
            << "      parse a gpdd --telemetry-file OpenMetrics scrape and\n"
            << "      pretty-print it (malformed exposition exits 1)\n"
            << "  gpdtool selftest\n"
            << "  gpdtool --version\n";
  return 1;
}

constexpr long long kNoMax = std::numeric_limits<long long>::max();

int generate(const std::string& workload, const std::string& path,
             std::uint64_t seed) {
  sim::SimResult run = [&] {
    if (workload == "token-ring" || workload == "token-ring-rogue" ||
        workload == "token-ring-lossy") {
      sim::TokenRingOptions opt;
      opt.processes = 5;
      opt.rounds = 3;
      opt.seed = seed;
      if (workload == "token-ring-rogue") opt.rogueProcess = 2;
      if (workload == "token-ring-lossy") opt.dropTokenAtHop = 4;
      return sim::tokenRing(opt);
    }
    if (workload == "election" || workload == "election-buggy") {
      sim::LeaderElectionOptions opt;
      opt.processes = 6;
      opt.seed = seed;
      opt.duplicateMaxId = workload == "election-buggy";
      return sim::leaderElection(opt);
    }
    if (workload == "voting") {
      sim::VotingOptions opt;
      opt.seed = seed;
      return sim::voting(opt);
    }
    if (workload == "producer-consumer") {
      sim::ProducerConsumerOptions opt;
      opt.seed = seed;
      return sim::producerConsumer(opt);
    }
    if (workload == "philosophers" || workload == "philosophers-ordered") {
      sim::PhilosophersOptions opt;
      opt.seed = seed;
      opt.orderedAcquisition = workload == "philosophers-ordered";
      return sim::diningPhilosophers(opt);
    }
    if (workload == "ricart-agrawala" || workload == "ricart-agrawala-rude") {
      sim::RicartAgrawalaOptions opt;
      opt.seed = seed;
      if (workload == "ricart-agrawala-rude") opt.rudeProcess = 1;
      return sim::ricartAgrawala(opt);
    }
    if (workload == "snapshot-bank") {
      sim::SnapshotBankOptions opt;
      opt.seed = seed;
      return sim::snapshotBank(opt);
    }
    if (workload == "diffusing") {
      sim::DiffusingOptions opt;
      opt.seed = seed;
      return sim::diffusingComputation(opt);
    }
    if (workload == "random") {
      RandomComputationOptions opt;
      opt.processes = 5;
      opt.eventsPerProcess = 12;
      Rng rng(seed);
      sim::SimResult out;
      out.computation =
          std::make_unique<Computation>(randomComputation(opt, rng));
      out.trace = std::make_unique<VariableTrace>(*out.computation);
      defineRandomBools(*out.trace, "b", 0.3, rng);
      defineRandomCounters(*out.trace, "x", 0, 1, rng);
      return out;
    }
    throw InputError("unknown workload '" + workload + "'");
  }();
  io::saveTrace(path, *run.computation, *run.trace);
  std::cout << "wrote " << path << ": " << run.computation->totalEvents()
            << " events, " << run.computation->messages().size()
            << " messages\n";
  return 0;
}

int inspect(const std::string& path) {
  const io::TraceFile file = io::loadTrace(path);
  const Computation& comp = *file.computation;
  std::cout << "processes: " << comp.processCount() << '\n';
  std::cout << "events:   ";
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    std::cout << ' ' << comp.eventCount(p);
  }
  std::cout << " (total " << comp.totalEvents() << ")\n";
  std::cout << "messages:  " << comp.messages().size() << '\n';
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    std::cout << "p" << p << " variables:";
    for (const auto& name : file.trace->variableNames(p)) {
      std::cout << ' ' << name;
    }
    std::cout << '\n';
  }
  if (comp.totalEvents() <= 2000) {
    const VectorClocks clocks(comp);
    const analysis::ComputationStats stats = analysis::computeStats(clocks);
    std::cout << "height:    " << stats.height << "  (longest causal chain)\n";
    std::cout << "width:     " << stats.width << "  (largest antichain)\n";
    char idx[32];
    std::snprintf(idx, sizeof(idx), "%.2f", stats.concurrencyIndex);
    std::cout << "concurrency index: " << idx << '\n';
  }
  double grid = 1;
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    grid *= comp.eventCount(p);
  }
  if (grid <= 2e6) {
    const VectorClocks clocks(comp);
    const auto stats = lattice::latticeStats(clocks);
    std::cout << "lattice:   " << stats.cutCount << " consistent cuts, "
              << stats.levels << " levels, max width " << stats.maxWidth
              << '\n';
  } else {
    std::cout << "lattice:   > " << static_cast<long long>(grid)
              << " grid states (enumeration skipped)\n";
  }
  return 0;
}

// Execution-budget flags shared by the detect and plan subcommands.
// Stripped out of `args`; all-zero means "run unbudgeted" (legacy paths and
// legacy output stay byte-identical).
struct BudgetFlags {
  std::uint64_t budgetMs = 0;
  std::uint64_t maxCuts = 0;
  std::uint64_t maxCombinations = 0;

  bool any() const {
    return budgetMs != 0 || maxCuts != 0 || maxCombinations != 0;
  }

  control::BudgetLimits limits() const {
    control::BudgetLimits lim;
    lim.deadlineMillis = budgetMs;
    lim.maxCuts = maxCuts;
    lim.maxCombinations = maxCombinations;
    return lim;
  }
};

BudgetFlags extractBudgetFlags(std::vector<std::string>& args) {
  BudgetFlags flags;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&](const char* what) {
      GPD_INPUT_CHECK(i + 1 < args.size(), args[i] << " needs a value ("
                                                   << what << ")");
      return static_cast<std::uint64_t>(integerIn(args[++i], what, 1, kNoMax));
    };
    if (args[i] == "--budget-ms") {
      flags.budgetMs = value("budget milliseconds");
    } else if (args[i] == "--max-cuts") {
      flags.maxCuts = value("cut limit");
    } else if (args[i] == "--max-combinations") {
      flags.maxCombinations = value("combination limit");
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  return flags;
}

// --threads N, shared by detect and plan: run the super-polynomial kernels
// on a worker pool. Stripped out of `args`. Resolution: the flag beats the
// GPD_THREADS environment variable; neither set returns 0 (sequential, no
// pool). The determinism contract (par/pool.h) makes the count a pure
// throughput knob: verdicts, witnesses, and exit codes are identical for
// any value.
int extractThreadsFlag(std::vector<std::string>& args) {
  int threads = 0;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threads") {
      GPD_INPUT_CHECK(i + 1 < args.size(), "--threads needs a value");
      threads = static_cast<int>(integerIn(args[++i], "thread count", 1, 4096));
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  return threads != 0 ? threads : par::envThreads();
}

// Observability flags shared by detect, plan and monitor. --trace-out FILE
// arms the gpd::obs span tracer for the run and writes Chrome trace-event
// JSON (chrome://tracing / Perfetto) plus a flame summary afterwards;
// --stats prints the metrics registry (text, or JSON with -f json).
struct ObsFlags {
  std::string traceOut;
  bool stats = false;
  bool json = false;

  bool any() const { return stats || !traceOut.empty(); }
};

// `stripFormat` also claims `-f json|text` for the stats renderer — used by
// the subcommands that have no format flag of their own (detect, monitor);
// plan keeps its existing -f and forwards OutputFlags::json instead.
ObsFlags extractObsFlags(std::vector<std::string>& args, bool stripFormat) {
  ObsFlags flags;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--trace-out") {
      GPD_INPUT_CHECK(i + 1 < args.size(), "--trace-out needs a file path");
      flags.traceOut = args[++i];
    } else if (args[i] == "--stats") {
      flags.stats = true;
    } else if (stripFormat && (args[i] == "-f" || args[i] == "--format")) {
      GPD_INPUT_CHECK(i + 1 < args.size(), args[i] << " needs a value");
      const std::string& value = args[++i];
      GPD_INPUT_CHECK(value == "json" || value == "text",
                      "'" << value << "' is not an output format "
                          << "(expected json or text)");
      flags.json = value == "json";
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  return flags;
}

void beginObs(const ObsFlags& flags) {
  if (flags.traceOut.empty()) return;
  obs::tracer().clear();
  obs::tracer().start();
}

// Writes the requested trace/stats artifacts and passes the command's exit
// code through.
int finishObs(const ObsFlags& flags, int code) {
  if (!flags.traceOut.empty()) {
    obs::tracer().stop();
    std::ofstream out(flags.traceOut);
    GPD_INPUT_CHECK(out.good(),
                    "cannot write trace file '" << flags.traceOut << "'");
    obs::tracer().exportChromeTrace(out);
    std::cout << "trace: " << obs::tracer().recordedSpans() << " spans ("
              << obs::tracer().droppedSpans() << " dropped) -> "
              << flags.traceOut << '\n';
    obs::tracer().renderFlameSummary(std::cout);
  }
  if (flags.stats) {
    if (flags.json) {
      obs::renderMetricsJson(std::cout, obs::registry().snapshot());
    } else {
      obs::renderMetricsText(std::cout, obs::registry().snapshot());
    }
  }
  return code;
}

// One-line slice pre-pass accounting: the planner's predicted sublattice
// vs what the restricted search actually explored, or the fallback reason.
void printSliceTrace(const detect::SliceTrace& s) {
  std::cout << "  slice: ";
  if (!s.usedSlice) {
    if (s.eventsExcluded == s.eventsTotal && s.eventsTotal > 0) {
      std::cout << "skeleton unsatisfiable (" << s.eventsExcluded << '/'
                << s.eventsTotal << " events excluded)";
    } else {
      std::cout << "pre-pass fell back (unsliced search)";
    }
  } else {
    std::cout << s.eventsExcluded << '/' << s.eventsTotal
              << " events excluded, predicted <= ";
    if (s.predictedSaturated) {
      std::cout << "2^64";
    } else {
      std::cout << s.predictedCuts;
    }
    std::cout << " cuts, explored " << s.exploredCuts;
  }
  char ms[32];
  std::snprintf(ms, sizeof(ms), "%.3f",
                static_cast<double>(s.buildNanos) * 1e-6);
  std::cout << "  (build " << ms << "ms, " << s.oracleCalls
            << " oracle calls)\n";
}

// The certificate of a lattice definitely "no": one run from ⊥ to ⊤
// whose cuts all falsify the predicate.
void printAvoidingRun(const detect::Detection& det) {
  if (det.avoidingRun.empty()) return;
  std::cout << "  avoiding run (" << det.avoidingRun.size() << " cuts):";
  for (const Cut& cut : det.avoidingRun) std::cout << ' ' << cut.toString();
  std::cout << '\n';
}

// Prints a three-valued budgeted verdict; exit 0 when answered, 3 on
// Unknown (the budget ran out first).
int reportDetection(const std::string& label, const detect::Detection& det) {
  std::cout << label << ": ";
  switch (det.outcome) {
    case detect::Outcome::Yes:
      if (det.witness.has_value()) {
        std::cout << "witness cut " << det.witness->toString();
      } else {
        std::cout << "holds";
      }
      break;
    case detect::Outcome::No:
      std::cout << "unsatisfied";
      break;
    case detect::Outcome::Unknown:
      std::cout << "unknown (budget exhausted: "
                << control::toString(det.stopReason) << ")";
      break;
  }
  std::cout << "  [" << det.algorithm << "]\n";
  printAvoidingRun(det);
  std::cout << "  progress: " << det.progress.cutsVisited << " cuts, "
            << det.progress.combinationsTried << " combinations, peak frontier "
            << det.progress.peakFrontierBytes << " bytes\n";
  if (det.slice) printSliceTrace(*det.slice);
  for (const std::string& skipped : det.skippedSteps) {
    std::cout << "  skipped: " << skipped << '\n';
  }
  // The structured walk: every plan step visited, with per-step wall time
  // for the ones that ran.
  for (const detect::StepTrace& step : det.steps) {
    std::cout << "  step: " << step.algorithm << " ["
              << detect::toString(step.status) << "]";
    if (step.status == detect::StepTrace::Status::Ran) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.3f",
                    static_cast<double>(step.durationNanos) * 1e-6);
      std::cout << ' ' << ms << "ms" << (step.complete ? "" : " (stopped)");
    }
    std::cout << '\n';
  }
  return det.outcome == detect::Outcome::Unknown ? 3 : 0;
}

// Parses one "p:var" / "p:!var" term, checked against the loaded trace: the
// process must exist and carry the variable. Malformed terms are the
// *user's* input problem: rejected with an InputError pointing at the
// offending token (exit 1), never silently folded into the usage text.
LocalPredicate parseLiteral(const io::TraceFile& file,
                            const std::string& term) {
  const auto colon = term.find(':');
  GPD_INPUT_CHECK(colon != std::string::npos,
                  "term '" << term << "' is not of the form p:var");
  const auto p = static_cast<ProcessId>(
      integerIn(term.substr(0, colon), "term process", 0,
                file.computation->processCount() - 1));
  std::string var = term.substr(colon + 1);
  const bool negated = !var.empty() && var[0] == '!';
  if (negated) var = var.substr(1);
  GPD_INPUT_CHECK(!var.empty(), "term '" << term << "' has no variable");
  GPD_INPUT_CHECK(file.trace->has(p, var),
                  "process " << p << " has no variable '" << var << "'");
  return negated ? varFalse(p, var) : varTrue(p, var);
}

// One term per argv word: a conjunctive predicate.
ConjunctivePredicate parseConjunctive(const io::TraceFile& file,
                                      const std::vector<std::string>& args) {
  ConjunctivePredicate pred;
  for (const std::string& term : args) {
    pred.terms.push_back(parseLiteral(file, term));
  }
  return pred;
}

int detectConj(const io::TraceFile& file, std::vector<std::string> args,
               const BudgetFlags& budgetFlags, par::Pool* pool) {
  bool definitely = false;
  if (!args.empty() && args[0] == "--definitely") {
    definitely = true;
    args.erase(args.begin());
  }
  if (args.empty()) return usage();
  const ConjunctivePredicate pred = parseConjunctive(file, args);
  detect::Detector detector(*file.trace);
  detector.usePool(pool);
  if (budgetFlags.any()) {
    control::Budget budget(budgetFlags.limits());
    const detect::Detection det = definitely ? detector.definitely(pred, budget)
                                             : detector.possibly(pred, budget);
    return reportDetection(definitely ? "definitely(conj)" : "possibly(conj)",
                           det);
  }
  if (definitely) {
    const bool holds = detector.definitely(pred);
    std::cout << "definitely(conj): " << (holds ? "holds" : "does not hold")
              << "  [" << detector.lastAlgorithm() << "]\n";
  } else if (const auto cut = detector.possibly(pred)) {
    std::cout << "possibly(conj): witness cut " << cut->toString() << "  ["
              << detector.lastAlgorithm() << "]\n";
  } else {
    std::cout << "possibly(conj): no consistent cut satisfies it  ["
              << detector.lastAlgorithm() << "]\n";
  }
  return 0;
}

// Clauses are argv words; literals within a clause are comma-separated:
//   gpdtool detect t.trace cnf 0:x,1:x 2:x,3:!x
CnfPredicate parseCnfPredicate(const io::TraceFile& file,
                               const std::vector<std::string>& args) {
  CnfPredicate pred;
  for (const std::string& clauseSpec : args) {
    CnfClause clause;
    std::size_t start = 0;
    while (start <= clauseSpec.size()) {
      const std::size_t comma = clauseSpec.find(',', start);
      const std::string term =
          clauseSpec.substr(start, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - start);
      clause.push_back(parseLiteral(file, term));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    pred.clauses.push_back(std::move(clause));
  }
  return pred;
}

int detectCnf(const io::TraceFile& file, std::vector<std::string> args,
              const BudgetFlags& budgetFlags, par::Pool* pool) {
  bool noSlice = false;
  bool definitely = false;
  while (!args.empty() &&
         (args[0] == "--no-slice" || args[0] == "--definitely")) {
    (args[0] == "--no-slice" ? noSlice : definitely) = true;
    args.erase(args.begin());
  }
  if (args.empty()) return usage();
  const CnfPredicate pred = parseCnfPredicate(file, args);
  detect::Detector detector(*file.trace);
  detector.usePool(pool);
  detector.enableSlicing(!noSlice);
  std::cout << "predicate: " << pred.toString()
            << (pred.isSingular() ? " (singular)" : " (not singular)") << '\n';
  if (definitely) {
    // The walk runs under a Budget, unlimited without budget flags, so a
    // "no" keeps its avoiding run.
    control::Budget budget(budgetFlags.limits());
    const detect::Detection det = detector.definitely(pred, budget);
    if (budgetFlags.any()) return reportDetection("definitely", det);
    std::cout << "definitely: "
              << (det.outcome == detect::Outcome::Yes ? "holds"
                                                      : "does not hold")
              << "  [" << det.algorithm << "]\n";
    printAvoidingRun(det);
    return 0;
  }
  if (budgetFlags.any()) {
    control::Budget budget(budgetFlags.limits());
    return reportDetection("possibly", detector.possibly(pred, budget));
  }
  if (const auto cut = detector.possibly(pred)) {
    std::cout << "possibly: witness cut " << cut->toString() << "  ["
              << detector.lastAlgorithm() << "]\n";
  } else {
    std::cout << "possibly: unsatisfied  [" << detector.lastAlgorithm()
              << "]\n";
  }
  if (detector.lastSlice()) printSliceTrace(*detector.lastSlice());
  return 0;
}

Relop parseRelop(const std::string& word) {
  if (word == "lt") return Relop::Less;
  if (word == "le") return Relop::LessEq;
  if (word == "gt") return Relop::Greater;
  if (word == "ge") return Relop::GreaterEq;
  if (word == "eq") return Relop::Equal;
  if (word == "ne") return Relop::NotEqual;
  throw InputError("'" + word +
                   "' is not a relop (expected lt|le|gt|ge|eq|ne)");
}

// Σ <var> over every process that defines it, relop K.
SumPredicate parseSumPredicate(const io::TraceFile& file,
                               const std::vector<std::string>& args) {
  SumPredicate pred;
  pred.relop = parseRelop(args[0]);
  pred.k = integerIn(args[1], "sum bound K");
  for (ProcessId p = 0; p < file.computation->processCount(); ++p) {
    if (file.trace->has(p, args[2])) pred.terms.push_back({p, args[2]});
  }
  GPD_INPUT_CHECK(!pred.terms.empty(), "variable '"
                                           << args[2]
                                           << "' not found on any process");
  return pred;
}

int detectSum(const io::TraceFile& file, const std::vector<std::string>& args,
              const BudgetFlags& budgetFlags, par::Pool* pool) {
  if (args.size() != 3) return usage();
  const SumPredicate pred = parseSumPredicate(file, args);
  detect::Detector detector(*file.trace);
  detector.usePool(pool);
  if (budgetFlags.any()) {
    control::Budget budget(budgetFlags.limits());
    return reportDetection("possibly(" + pred.toString() + ")",
                           detector.possibly(pred, budget));
  }
  if (const auto cut = detector.possibly(pred)) {
    std::cout << "possibly(" << pred.toString() << "): witness cut "
              << cut->toString() << "  [" << detector.lastAlgorithm() << "]\n";
  } else {
    std::cout << "possibly(" << pred.toString() << "): unsatisfied  ["
              << detector.lastAlgorithm() << "]\n";
  }
  return 0;
}

SymmetricPredicate parseSymmetricPredicate(
    const io::TraceFile& file, const std::vector<std::string>& args) {
  std::vector<SumTerm> vars;
  for (ProcessId p = 0; p < file.computation->processCount(); ++p) {
    if (file.trace->has(p, args[1])) vars.push_back({p, args[1]});
  }
  GPD_INPUT_CHECK(!vars.empty(), "variable '"
                                     << args[1]
                                     << "' not found on any process");
  if (args[0] == "xor") return exclusiveOr(vars);
  if (args[0] == "no-majority") return absenceOfSimpleMajority(vars);
  if (args[0] == "no-two-thirds") return absenceOfTwoThirdsMajority(vars);
  if (args[0] == "not-all-equal") return notAllEqual(vars);
  if (args[0].rfind("exactly:", 0) == 0) {
    return exactlyK(vars, static_cast<int>(integerIn(
                              args[0].substr(8), "k", 0,
                              static_cast<long long>(vars.size()))));
  }
  throw InputError("'" + args[0] +
                   "' is not a symmetric predicate kind (expected xor|"
                   "no-majority|no-two-thirds|not-all-equal|exactly:<k>)");
}

int detectSym(const io::TraceFile& file, const std::vector<std::string>& args,
              const BudgetFlags& budgetFlags, par::Pool* pool) {
  if (args.size() != 2) return usage();
  const SymmetricPredicate pred = parseSymmetricPredicate(file, args);
  detect::Detector detector(*file.trace);
  detector.usePool(pool);
  if (budgetFlags.any()) {
    control::Budget budget(budgetFlags.limits());
    return reportDetection("possibly(" + pred.name + ")",
                           detector.possibly(pred, budget));
  }
  if (const auto cut = detector.possibly(pred)) {
    std::cout << "possibly(" << pred.name << "): witness cut "
              << cut->toString() << '\n';
  } else {
    std::cout << "possibly(" << pred.name << "): unsatisfied\n";
  }
  return 0;
}

// Strips `-f json` / `-f text` and `--definitely` out of `args`; returns
// {json, definitely}.
struct OutputFlags {
  bool json = false;
  bool definitely = false;
};

OutputFlags extractFlags(std::vector<std::string>& args) {
  OutputFlags flags;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-f" || args[i] == "--format") {
      GPD_INPUT_CHECK(i + 1 < args.size(), args[i] << " needs a value");
      const std::string& value = args[++i];
      GPD_INPUT_CHECK(value == "json" || value == "text",
                      "'" << value << "' is not an output format "
                          << "(expected json or text)");
      flags.json = value == "json";
    } else if (args[i] == "--definitely") {
      flags.definitely = true;
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  return flags;
}

int lintCmd(std::vector<std::string> args) {
  const OutputFlags flags = extractFlags(args);
  if (args.size() != 1) return usage();
  const analyze::LintResult res = analyze::lintTraceFile(args[0], {});
  if (flags.json) {
    analyze::renderJson(std::cout, res.diagnostics);
  } else {
    analyze::renderText(std::cout, args[0], res.diagnostics);
    std::cout << args[0] << ": " << analyze::errorCount(res.diagnostics)
              << " error(s), " << analyze::warningCount(res.diagnostics)
              << " warning(s)\n";
  }
  return res.ok() ? 0 : 1;
}

int planCmd(std::vector<std::string> args) {
  const BudgetFlags budget = extractBudgetFlags(args);
  const int threads = extractThreadsFlag(args);
  ObsFlags obsFlags = extractObsFlags(args, /*stripFormat=*/false);
  const OutputFlags flags = extractFlags(args);
  obsFlags.json = flags.json;  // plan's own -f doubles as the stats format
  if (args.size() < 2) return usage();
  beginObs(obsFlags);
  const io::TraceFile file = io::loadTrace(args[0]);
  const std::string& kind = args[1];
  const std::vector<std::string> rest(args.begin() + 2, args.end());
  const VectorClocks clocks(*file.computation);
  const analyze::Modality modality = flags.definitely
                                         ? analyze::Modality::Definitely
                                         : analyze::Modality::Possibly;
  analyze::AnalysisReport report;
  if (kind == "conj") {
    if (rest.empty()) return usage();
    report = analyze::planConjunctive(clocks, *file.trace,
                                      parseConjunctive(file, rest), modality);
  } else if (kind == "cnf") {
    if (rest.empty()) return usage();
    report = analyze::planCnf(clocks, *file.trace,
                              parseCnfPredicate(file, rest), modality);
  } else if (kind == "sum") {
    if (rest.size() != 3) return usage();
    report = analyze::planSum(clocks, *file.trace,
                              parseSumPredicate(file, rest), modality);
  } else if (kind == "sym") {
    if (rest.size() != 2) return usage();
    report = analyze::planSymmetric(clocks, *file.trace,
                                    parseSymmetricPredicate(file, rest),
                                    modality);
  } else {
    throw InputError("'" + kind +
                     "' is not a predicate kind (expected conj|cnf|sum|sym)");
  }
  // What the detector would stamp: costs are thread-invariant, the knob
  // only reports how the chosen step's work would be spread.
  if (threads > 0) report.threads = threads;
  if (flags.json) {
    analyze::renderPlanJson(std::cout, report);
  } else {
    analyze::renderPlanText(std::cout, report);
    if (budget.any()) {
      // Budget annotation: which enumeration steps would the budgeted
      // detector run vs skip as over budget (the degradation walk's view).
      const std::uint64_t headroom =
          budget.maxCombinations == 0 ? UINT64_MAX : budget.maxCombinations;
      std::cout << "budget:";
      if (budget.budgetMs != 0) std::cout << " deadline " << budget.budgetMs << "ms";
      if (budget.maxCuts != 0) std::cout << " max-cuts " << budget.maxCuts;
      if (budget.maxCombinations != 0) {
        std::cout << " max-combinations " << budget.maxCombinations;
      }
      std::cout << '\n';
      for (const analyze::PlanStep& step : report.steps) {
        if (!step.applicable || !step.predictedCpdhbInvocations.has_value()) {
          continue;
        }
        const bool fits = *step.predictedCpdhbInvocations <= headroom;
        std::cout << "  " << analyze::toString(step.algorithm) << ": predicted "
                  << *step.predictedCpdhbInvocations << " combinations — "
                  << (fits ? "in budget"
                           : "over budget (skipped; bounded Yes-prover only)")
                  << '\n';
      }
    }
  }
  return finishObs(obsFlags, 0);
}

// Replays the trace through a seeded faulty transport into the resilient
// session and reports what the notification layer had to do to survive it.
int monitorCmd(const std::string& path, std::vector<std::string> args) {
  const ObsFlags obsFlags = extractObsFlags(args, /*stripFormat=*/true);
  monitor::FaultOptions faults;
  monitor::SessionOptions sopt;
  std::uint64_t seed = 1;
  std::string checkpointPath;
  std::uint64_t checkpointEvery = 0;
  std::vector<std::string> terms;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto flagValue = [&](const char* what) -> const std::string& {
      GPD_INPUT_CHECK(i + 1 < args.size(), a << " needs a value (" << what
                                             << ")");
      return args[++i];
    };
    if (a == "--seed") {
      seed = integerIn(flagValue("seed"), "seed", 0, kNoMax);
    } else if (a == "--drop") {
      faults.dropProbability = probabilityIn(flagValue("probability"), a.c_str());
    } else if (a == "--dup") {
      faults.duplicateProbability = probabilityIn(flagValue("probability"), a.c_str());
    } else if (a == "--reorder") {
      faults.reorderProbability = probabilityIn(flagValue("probability"), a.c_str());
    } else if (a == "--burst") {
      faults.burstProbability = probabilityIn(flagValue("probability"), a.c_str());
    } else if (a == "--retries") {
      sopt.maxRetries = static_cast<int>(integerIn(
          flagValue("count"), "--retries", 1, std::numeric_limits<int>::max()));
    } else if (a == "--timeout") {
      sopt.retryTimeout = integerIn(flagValue("ticks"), "--timeout", 1, kNoMax);
    } else if (a == "--window") {
      sopt.reorderWindow = integerIn(flagValue("size"), "--window", 1, kNoMax);
    } else if (a == "--queue-limit") {
      sopt.monitor.maxQueuePerProcess =
          integerIn(flagValue("size"), "--queue-limit", 0, kNoMax);
    } else if (a == "--max-comparisons-per-report") {
      sopt.monitor.maxComparisonsPerReport = integerIn(
          flagValue("comparisons"), "--max-comparisons-per-report", 1, kNoMax);
    } else if (a == "--degrade-on-overflow") {
      sopt.monitor.overflowPolicy = monitor::OverflowPolicy::Degrade;
    } else if (a == "--checkpoint") {
      checkpointPath = flagValue("file");
    } else if (a == "--checkpoint-every") {
      checkpointEvery =
          integerIn(flagValue("deliveries"), "--checkpoint-every", 1, kNoMax);
    } else {
      GPD_INPUT_CHECK(a.empty() || a[0] != '-',
                      "unknown monitor flag '" << a << "'");
      terms.push_back(a);
    }
  }
  if (terms.empty()) return usage();
  GPD_INPUT_CHECK(checkpointEvery == 0 || !checkpointPath.empty(),
                  "--checkpoint-every needs --checkpoint FILE");
  beginObs(obsFlags);

  const io::TraceFile file = io::loadTrace(path);
  const Computation& comp = *file.computation;
  const ConjunctivePredicate pred = parseConjunctive(file, terms);
  GPD_INPUT_CHECK(static_cast<int>(pred.terms.size()) == comp.processCount(),
                  "the online checker needs one term per process ("
                      << comp.processCount() << " processes, "
                      << pred.terms.size() << " terms)");

  const VectorClocks clocks(comp);
  const bool offline = detect::detectConjunctive(clocks, *file.trace, pred).found;

  Rng rng(seed);
  const auto run = graph::randomLinearExtension(comp.toDag(), rng);
  monitor::MonitorSession session(comp.processCount(), sopt);
  // Periodic atomic checkpoints: temp+rename, so a crash at any moment
  // leaves either the previous complete checkpoint or the new one on disk.
  monitor::ReplayHooks hooks;
  std::uint64_t checkpointsWritten = 0;
  if (checkpointEvery != 0) {
    hooks.checkpointEveryDeliveries = checkpointEvery;
    hooks.onCheckpoint = [&](const monitor::MonitorSession& live) {
      io::saveCheckpointAtomic(checkpointPath, live.snapshot());
      ++checkpointsWritten;
    };
  }
  const monitor::ResilientReplayResult res = monitor::replayConjunctiveFaulty(
      clocks, *file.trace, pred, run, session, faults, rng, hooks);

  std::cout << "verdict:          " << monitor::toString(res.verdict) << '\n';
  std::cout << "offline CPDHB:    " << (offline ? "detected" : "not-detected")
            << (res.verdict == monitor::Verdict::Degraded
                    ? "  (degraded verdict is 'unknown', never wrong)"
                    : "")
            << '\n';
  std::cout << "notifications:    " << res.notificationsSent << " sent, "
            << res.wireDeliveries << " wire deliveries\n";
  std::cout << "faults injected:  " << res.dropped << " dropped, "
            << res.duplicated << " duplicated, " << res.reordered
            << " reordered\n";
  std::cout << "recovery:         " << res.nacksSent << " NACKs, "
            << res.retransmissions << " retransmissions, "
            << session.stats().gapsRecovered << " gaps recovered\n";
  std::cout << "degraded streams: " << res.degradedStreams << '\n';
  if (sopt.monitor.maxComparisonsPerReport != 0) {
    std::cout << "slice aborts:     " << session.monitor().sliceAborts()
              << " (per-report limit "
              << sopt.monitor.maxComparisonsPerReport << " comparisons)\n";
  }
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    std::cout << "  p" << p << ": " << monitor::toString(session.health(p))
              << '\n';
  }
  if (!checkpointPath.empty()) {
    io::saveCheckpointAtomic(checkpointPath, session.snapshot());
    const monitor::MonitorSession restored = monitor::MonitorSession::restore(
        io::loadCheckpoint(checkpointPath), sopt);
    const bool ok = restored.verdict() == session.verdict() &&
                    restored.detected() == session.detected();
    std::cout << "checkpoint:       " << checkpointPath << " round-trip "
              << (ok ? "ok" : "MISMATCH");
    if (checkpointEvery != 0) {
      std::cout << " (" << checkpointsWritten << " periodic, every "
                << checkpointEvery << " deliveries)";
    }
    std::cout << '\n';
    if (!ok) return 2;
  }
  const bool agree =
      res.verdict == monitor::Verdict::Degraded || res.detected == offline;
  if (!agree) {
    obs::log::error("gpdtool", "monitor: online verdict disagrees with offline CPDHB");
    return 2;
  }
  return finishObs(obsFlags, 0);
}

// scrape: strict-parse an OpenMetrics exposition written by
// `gpdd --telemetry-file` (or any Prometheus text scrape that follows the
// same subset) and pretty-print it. `-` reads stdin. A malformed scrape is
// an InputError: exit 1 with the offending line number.
int scrapeCmd(const std::vector<std::string>& args) {
  bool json = false;
  std::string path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-f") {
      GPD_INPUT_CHECK(i + 1 < args.size() && args[i + 1] == "json",
                      "-f takes exactly 'json'");
      json = true;
      ++i;
    } else {
      GPD_INPUT_CHECK(path.empty(), "scrape takes exactly one file");
      path = args[i];
    }
  }
  if (path.empty()) return usage();
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    GPD_INPUT_CHECK(in.good(), "cannot open '" << path << "'");
    buf << in.rdbuf();
  }
  const obs::Exposition exp = obs::parseExposition(buf.str());
  if (json) {
    std::cout << "{\"families\":[";
    bool firstFamily = true;
    for (const obs::ExpositionFamily& fam : exp.families) {
      if (!firstFamily) std::cout << ',';
      firstFamily = false;
      std::cout << "{\"name\":\"" << analyze::jsonEscape(fam.name)
                << "\",\"type\":\"" << fam.type << "\",\"samples\":[";
      bool firstSample = true;
      for (const obs::ExpositionSample& s : fam.samples) {
        if (!firstSample) std::cout << ',';
        firstSample = false;
        std::cout << "{\"name\":\"" << analyze::jsonEscape(s.name) << '"';
        if (!s.labels.empty()) {
          std::cout << ",\"labels\":{";
          bool firstLabel = true;
          for (const auto& [k, v] : s.labels) {
            if (!firstLabel) std::cout << ',';
            firstLabel = false;
            std::cout << '"' << analyze::jsonEscape(k) << "\":\""
                      << analyze::jsonEscape(v) << '"';
          }
          std::cout << '}';
        }
        std::cout << ",\"value\":" << s.value << '}';
      }
      std::cout << "]}";
    }
    std::cout << "]}\n";
    return 0;
  }
  std::size_t sampleCount = 0;
  for (const obs::ExpositionFamily& fam : exp.families) {
    std::cout << fam.name << " (" << fam.type << ")\n";
    for (const obs::ExpositionSample& s : fam.samples) {
      std::cout << "  " << s.name;
      if (!s.labels.empty()) {
        std::cout << '{';
        bool firstLabel = true;
        for (const auto& [k, v] : s.labels) {
          if (!firstLabel) std::cout << ',';
          firstLabel = false;
          std::cout << k << "=\"" << obs::escapeLabelValue(v) << '"';
        }
        std::cout << '}';
      }
      std::cout << ' ' << s.value << '\n';
      ++sampleCount;
    }
  }
  std::cout << "scrape: " << exp.families.size() << " families, "
            << sampleCount << " samples\n";
  return 0;
}

int selftest() {
  const std::string path = "/tmp/gpdtool_selftest.trace";
  if (generate("token-ring-rogue", path, 7) != 0) return 2;
  if (inspect(path) != 0) return 2;
  const io::TraceFile file = io::loadTrace(path);
  // The rogue (p2) must be able to share the CS with someone.
  detect::Detector detector(*file.trace);
  bool anyViolation = false;
  for (ProcessId p = 0; p < file.computation->processCount(); ++p) {
    if (p == 2) continue;
    ConjunctivePredicate overlap{{varCompare(2, "cs", Relop::GreaterEq, 1),
                                  varCompare(p, "cs", Relop::GreaterEq, 1)}};
    anyViolation |= detector.possibly(overlap).has_value();
  }
  if (!anyViolation) {
    obs::log::error("gpdtool", "selftest: expected a CS violation in the rogue trace");
    return 2;
  }
  // Resilient online monitor: faulty replay plus a checkpoint round-trip
  // must agree with offline detection (or explicitly degrade, never lie).
  const std::vector<std::string> margs = {
      "--seed", "5",        "--drop",       "0.15",
      "--dup",  "0.1",      "--reorder",    "0.1",
      "--checkpoint",        "/tmp/gpdtool_selftest.ckpt",
      "0:cs",   "1:cs",     "2:cs",         "3:cs",
      "4:cs"};
  if (monitorCmd(path, margs) != 0) return 2;
  // The generated trace must lint clean (the simulator cannot produce a
  // structurally broken trace) and the planner must run on every predicate
  // kind.
  if (lintCmd({path}) != 0) {
    obs::log::error("gpdtool", "selftest: generated trace failed lint");
    return 2;
  }
  if (planCmd({path, "conj", "0:cs", "1:cs"}) != 0 ||
      planCmd({path, "cnf", "0:cs,1:cs", "2:cs", "-f", "json"}) != 0 ||
      planCmd({path, "sum", "ge", "1", "cs", "--definitely"}) != 0) {
    obs::log::error("gpdtool", "selftest: plan subcommand failed");
    return 2;
  }
  // Budgeted anytime detection: a generous budget must reproduce the exact
  // verdict; a one-cut budget on a lattice-bound (non-singular) predicate
  // must concede unknown (exit 3), never a wrong yes/no.
  {
    ConjunctivePredicate overlap{{varCompare(2, "cs", Relop::GreaterEq, 1),
                                  varCompare(0, "cs", Relop::GreaterEq, 1)}};
    control::BudgetLimits generousLimits;
    generousLimits.deadlineMillis = 60000;
    control::Budget generous(generousLimits);
    const detect::Detection det = detector.possibly(overlap, generous);
    const bool unbudgeted = detector.possibly(overlap).has_value();
    if ((det.outcome == detect::Outcome::Yes) != unbudgeted ||
        det.outcome == detect::Outcome::Unknown) {
      obs::log::error("gpdtool", "selftest: generous budget changed the verdict");
      return 2;
    }
    CnfPredicate shared;  // both clauses host p0: not singular → lattice
    shared.clauses.push_back({varTrue(0, "cs"), varTrue(1, "cs")});
    shared.clauses.push_back({varTrue(0, "cs")});
    control::BudgetLimits tinyLimits;
    tinyLimits.maxCuts = 1;
    control::Budget tiny(tinyLimits);
    const detect::Detection starved = detector.possibly(shared, tiny);
    if (starved.outcome != detect::Outcome::Unknown ||
        starved.stopReason != control::StopReason::CutLimit) {
      obs::log::error("gpdtool", "selftest: one-cut budget did not concede unknown");
      return 2;
    }
  }
  std::cout << "selftest: OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "--version" || cmd == "version") {
      std::cout << tools::versionLine("gpdtool") << '\n';
      return 0;
    }
    if (cmd == "selftest") return selftest();
    if (cmd == "generate") {
      if (args.size() < 3) return usage();
      const std::uint64_t seed =
          args.size() > 3 ? integerIn(args[3], "seed", 0, kNoMax) : 1;
      return generate(args[1], args[2], seed);
    }
    if (cmd == "monitor") {
      if (args.size() < 2) return usage();
      return monitorCmd(args[1],
                        std::vector<std::string>(args.begin() + 2, args.end()));
    }
    if (cmd == "inspect") {
      if (args.size() != 2) return usage();
      return inspect(args[1]);
    }
    if (cmd == "scrape") {
      return scrapeCmd(std::vector<std::string>(args.begin() + 1, args.end()));
    }
    if (cmd == "lint") {
      return lintCmd(std::vector<std::string>(args.begin() + 1, args.end()));
    }
    if (cmd == "plan") {
      return planCmd(std::vector<std::string>(args.begin() + 1, args.end()));
    }
    if (cmd == "detect") {
      if (args.size() < 3) return usage();
      const io::TraceFile file = io::loadTrace(args[1]);
      std::vector<std::string> rest(args.begin() + 3, args.end());
      const BudgetFlags budget = extractBudgetFlags(rest);
      const int threads = extractThreadsFlag(rest);
      const ObsFlags obsFlags = extractObsFlags(rest, /*stripFormat=*/true);
      const std::string& kind = args[2];
      if (kind != "conj" && kind != "cnf" && kind != "sum" && kind != "sym") {
        return usage();
      }
      beginObs(obsFlags);
      std::unique_ptr<par::Pool> pool;
      if (threads > 0) pool = std::make_unique<par::Pool>(threads);
      const int code =
          kind == "conj"  ? detectConj(file, rest, budget, pool.get())
          : kind == "cnf" ? detectCnf(file, rest, budget, pool.get())
          : kind == "sum" ? detectSum(file, rest, budget, pool.get())
                          : detectSym(file, rest, budget, pool.get());
      return finishObs(obsFlags, code);
    }
    return usage();
  } catch (const InputError& e) {
    // Bad input (file or arguments): the caller's problem, exit 1.
    gpd::obs::log::error("gpdtool", e.what());
    return 1;
  } catch (const std::exception& e) {
    // CheckFailure or anything else unexpected: our problem, exit 2.
    gpd::obs::log::Event(gpd::obs::log::Level::kError, "gpdtool",
                         "internal error")
        .kv("what", e.what());
    return 2;
  }
}
