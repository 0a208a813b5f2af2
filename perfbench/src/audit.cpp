// audit-lattice and audit-poly: in-process audits of generated trace files
// through the calls `gpdtool detect` makes — io::loadTrace, then a
// detect::Detector, then a fixed query suite. One operation is one audit of
// one trace; every operation of a workload runs the same suite, so every
// operation has the same shape.
#include <fstream>
#include <optional>
#include <sstream>
#include <variant>

#include "analyze/plan.h"
#include "detect/detector.h"
#include "io/trace_io.h"
#include "model.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Predicate = std::variant<gpd::ConjunctivePredicate, gpd::CnfPredicate,
                               gpd::SumPredicate, gpd::SymmetricPredicate>;

struct Query {
  Predicate pred;
  bool definitely = false;
  // The benchmark's own evaluation, for witnesses.
  std::function<bool(const TraceModel&, const Cut&)> holds;
  bool expected = false;  // reference verdict, computed during set-up
};

struct Case {
  std::string path;
  std::uint64_t bytes = 0;
  TraceModel model;
  std::vector<Query> queries;
  std::uint64_t work = 0;  // weighted cuts the audit's searches visit
  std::vector<std::uint64_t> workParts;  // per query
  std::uint64_t latticeSize = 0;  // consistent cuts, where counted
};

struct Answer {
  bool yes = false;
  std::optional<gpd::Cut> witness;
  std::string route;
};

Answer ask(gpd::detect::Detector& det, const Query& q) {
  Answer a;
  std::visit(
      [&](const auto& pred) {
        if (q.definitely) {
          a.yes = det.definitely(pred);
        } else {
          a.witness = det.possibly(pred);
          a.yes = a.witness.has_value();
        }
      },
      q.pred);
  a.route = det.lastAlgorithm();
  return a;
}

void plan(const gpd::detect::Detector& det, const gpd::VariableTrace& trace,
          const Query& q) {
  using gpd::analyze::Modality;
  const Modality m = q.definitely ? Modality::Definitely : Modality::Possibly;
  const gpd::VectorClocks& vc = det.clocks();
  if (const auto* p = std::get_if<gpd::ConjunctivePredicate>(&q.pred)) {
    gpd::analyze::planConjunctive(vc, trace, *p, m);
  } else if (const auto* c = std::get_if<gpd::CnfPredicate>(&q.pred)) {
    // The detector routes without the exhaustive lattice hints.
    gpd::analyze::ClassifyOptions routing;
    routing.latticeCutLimit = 0;
    gpd::analyze::planCnf(vc, trace, *c, m, routing);
  } else if (const auto* s = std::get_if<gpd::SumPredicate>(&q.pred)) {
    gpd::analyze::planSum(vc, trace, *s, m);
  } else {
    gpd::analyze::planSymmetric(vc, trace, std::get<gpd::SymmetricPredicate>(q.pred), m);
  }
}

// The layer that does a route's work.
std::string layerOf(const std::string& route) {
  if (route.rfind("lattice-", 0) == 0 || route == "slice-first") return "lattice";
  if (route == "min-cut-extrema" || route == "theorem-7-exact-sum" ||
      route == "symmetric-exact-sum-disjunction") {
    return "flow";
  }
  return "detect";
}

// ---- Predicates in library form plus the benchmark's own form ----

gpd::CnfPredicate toLibrary(const Cnf& cnf) {
  gpd::CnfPredicate out;
  for (const auto& clause : cnf) {
    gpd::CnfClause c;
    for (const Lit& l : clause) c.push_back({l.p, l.var, l.positive});
    out.clauses.push_back(c);
  }
  return out;
}

Query cnfQuery(const Cnf& cnf, bool definitely) {
  return {toLibrary(cnf), definitely,
          [cnf](const TraceModel& m, const Cut& c) { return holdsCnf(m, cnf, c); }};
}

Query sumQuery(const std::string& var, gpd::Relop op, std::int64_t k, int n) {
  gpd::SumPredicate s;
  for (int p = 0; p < n; ++p) s.terms.push_back({p, var});
  s.relop = op;
  s.k = k;
  return {s, false, [var, op, k](const TraceModel& m, const Cut& c) {
            return gpd::compare(m.sumAt(var, c), op, k);
          }};
}

std::int64_t sumOfMaxima(const TraceModel& m, const std::string& var) {
  std::int64_t total = 0;
  for (const auto& values : m.vars.at(var)) {
    total += *std::max_element(values.begin(), values.end());
  }
  return total;
}

int totalEvents(const TraceModel& m) {
  int t = 0;
  for (int e : m.events) t += e - 1;
  return t;
}

// ---- The two suites ----

struct Suite {
  const char* name;
  int candidates;  // traces generated per seed
  int pool;        // traces kept: those whose work is closest to targetWork
  std::uint64_t targetWork;  // 0: keep the first `pool` candidates
  std::vector<std::string> routes;  // one per query, in suite order
  // Builds candidate `index`: trace, queries and reference verdicts.
  void (*build)(Case& c, SplitMix& rng, int index);
};

// Relative cost per visited cut of each audit-lattice query's search.
constexpr double kLatticeWorkWeight[] = {1.0, 1.25, 4.0, 1.0};

// ~5 processes x 10 events with messages: lattices of about 10^4 cuts,
// searched by the generic lattice routes.
void buildLatticeCase(Case& c, SplitMix& rng, int /*index*/) {
  GenOptions g;
  g.processes = 5;
  g.minEvents = 10;
  g.maxEvents = 10;
  g.sendProb = 0.45;
  g.recvProb = 0.6;
  TraceModel& m = c.model;
  m = generateComputation(g, rng);
  addBools(m, "a", 0.05, rng);
  addBools(m, "b", 0.35, rng);
  addRuns(m, "s", 0.3, rng);
  addBools(m, "c", 0.08, rng);
  addCounter(m, "x", 0, 3, rng);
  auto lit = [](int p, const char* v) { return Lit{p, v, true}; };
  // Non-singular CNF, false at the initial cut: lattice-enumeration.
  const Cnf nonSingular = {{lit(0, "a"), lit(1, "a")},
                           {lit(1, "a"), lit(2, "a")},
                           {lit(2, "a"), lit(3, "a")},
                           {lit(3, "a"), lit(4, "a")}};
  // definitely on a non-conjunctive CNF: lattice-definitely.
  const Cnf nonConjunctive = {{lit(0, "b"), lit(1, "b")},
                              {lit(1, "b"), lit(2, "b")},
                              {lit(3, "b"), lit(4, "b")}};
  // Single-process clauses form a regular skeleton: slice-first.
  const Cnf skeleton = {{lit(0, "s")},
                        {lit(1, "s")},
                        {lit(2, "c"), lit(3, "c")},
                        {lit(3, "c"), lit(4, "c")}};
  c.queries.push_back(cnfQuery(nonSingular, false));
  c.queries.push_back(cnfQuery(nonConjunctive, true));
  c.queries.push_back(cnfQuery(skeleton, false));
  // Exact sum with steps up to 3: NP-complete, lattice-enumeration. A
  // target near the sum of per-process maxima is rarely met, so the search
  // usually covers the lattice.
  const std::int64_t k = sumOfMaxima(m, "x") - rng.range(0, 4);
  c.queries.push_back(sumQuery("x", gpd::Relop::Equal, k, m.n));

  std::vector<CutPred> preds;
  for (const Query& q : c.queries) {
    preds.push_back([&m, &q](const Cut& cut) { return q.holds(m, cut); });
  }
  const Cnf skeletonOnly = {skeleton[0], skeleton[1]};
  preds.push_back([&m, skeletonOnly](const Cut& cut) { return holdsCnf(m, skeletonOnly, cut); });
  const LatticeTruth truth = exhaustiveTruth(m, preds);
  c.latticeSize = truth.cuts;
  // The cuts each level-by-level search visits, from the benchmark's own
  // enumeration (so trace selection never depends on the library): up to
  // the first witness level for possibly, within the skeleton's cuts for
  // slice-first, and the falsifying region for definitely.
  c.workParts = {cutsThroughLevel(truth.perLevel, truth.witnessLevel[0]),
                 truth.reachable[1],
                 cutsThroughLevel(truth.satPerLevel[4], truth.witnessLevel[2]),
                 cutsThroughLevel(truth.perLevel, truth.witnessLevel[3])};
  for (std::size_t i = 0; i < c.workParts.size(); ++i) {
    c.work += static_cast<std::uint64_t>(kLatticeWorkWeight[i] * static_cast<double>(c.workParts[i]));
  }
  for (std::size_t i = 0; i < c.queries.size(); ++i) {
    c.queries[i].expected =
        c.queries[i].definitely ? truth.definitely[i] : truth.possibly[i];
  }
}

// ~8 processes x 200 events: only the polynomial routes apply. Reference
// verdicts come from the benchmark's own polynomial checks, or hold by
// construction (a sum threshold read off a reachable cut is met; one above
// the sum of per-process maxima is not).
void buildPolyCase(Case& c, SplitMix& rng, int index) {
  GenOptions g;
  g.processes = 8;
  g.minEvents = 200;
  g.maxEvents = 200;
  g.sendProb = 0.3;
  g.recvProb = 0.6;
  TraceModel& m = c.model;
  m = generateComputation(g, rng);
  addBools(m, "c", 0.5, rng);
  addRuns(m, "d", 0.015, rng);
  if (index % 2 == 0) {
    // Half the traces: d turns true once and stays true, so conjunctive
    // definitely holds; the other half mostly have no such intervals.
    for (auto& values : m.vars["d"]) {
      const int from = rng.range(1, static_cast<int>(values.size()) / 2);
      for (std::size_t k = 0; k < values.size(); ++k) values[k] = static_cast<int>(k) >= from;
    }
  }
  addBools(m, "e", 0.3, rng);
  addCounter(m, "x", 0, 2, rng);
  addCounter(m, "y", 0, 1, rng);
  addBools(m, "b", 0.5, rng);

  std::vector<Lit> conj;
  std::vector<Lit> intervals;
  for (int p = 0; p < m.n; ++p) {
    conj.push_back({p, "c", true});
    intervals.push_back({p, "d", true});
  }
  auto conjunctive = [](const std::vector<Lit>& lits) {
    gpd::ConjunctivePredicate pred;
    for (const Lit& l : lits) pred.terms.push_back(gpd::varTrue(l.p, l.var));
    return pred;
  };
  auto conjHolds = [](std::vector<Lit> lits) {
    return [lits](const TraceModel& tm, const Cut& cut) {
      for (const Lit& l : lits) {
        if (!l.holds(tm, cut[static_cast<std::size_t>(l.p)])) return false;
      }
      return true;
    };
  };
  c.queries.push_back({conjunctive(conj), false, conjHolds(conj),
                       conjunctivePossibly(m, conj)});
  c.queries.push_back({conjunctive(intervals), true, conjHolds(intervals),
                       conjunctiveDefinitely(m, intervals)});
  Cnf singular;
  for (int p = 0; p + 1 < m.n; p += 2) {
    singular.push_back({{p, "e", true}, {p + 1, "e", true}});
  }
  Query sq = cnfQuery(singular, false);
  sq.expected = singularPossibly(m, singular);
  c.queries.push_back(sq);

  // Half the traces of a seed get reachable sum targets, half unreachable.
  const int steps = totalEvents(m);
  const bool yes = index % 2 == 0;
  for (const auto& [var, op] : {std::pair<const char*, gpd::Relop>{"x", gpd::Relop::GreaterEq},
                                {"y", gpd::Relop::Equal}}) {
    const std::int64_t k = yes ? m.sumAt(var, randomWalkCut(m, rng.range(0, steps), rng))
                               : sumOfMaxima(m, var) + 1;
    Query q = sumQuery(var, op, k, m.n);
    q.expected = yes;
    c.queries.push_back(q);
  }

  const Cut walk = randomWalkCut(m, rng.range(0, steps), rng);
  gpd::SymmetricPredicate sym;
  int trueCount = 0;
  for (int p = 0; p < m.n; ++p) {
    sym.vars.push_back({p, "b"});
    trueCount += static_cast<int>(m.value("b", p, walk[static_cast<std::size_t>(p)]));
  }
  sym.trueCounts = {trueCount};
  sym.name = "exactly-" + std::to_string(trueCount);
  c.queries.push_back({sym, false,
                       [trueCount](const TraceModel& tm, const Cut& cut) {
                         return tm.sumAt("b", cut) == trueCount;
                       },
                       true});
}

const Suite kLatticeSuite{
    "audit-lattice", 240, 48, 58000,
    {"lattice-enumeration", "lattice-definitely", "slice-first",
     "lattice-enumeration"},
    buildLatticeCase};

const Suite kPolySuite{
    "audit-poly", 48, 48, 0,
    {"cpdhb", "interval-definitely", "singular-chain-cover", "min-cut-extrema",
     "theorem-7-exact-sum", "symmetric-exact-sum-disjunction"},
    buildPolyCase};

std::uint64_t counterValue(const char* name) {
  return gpd::obs::registry().counter(name).value();
}

// Per-layer tallies of the traced run.
struct LayerTally {
  std::map<std::string, double> routeNs;
  std::map<std::string, std::uint64_t> routeCount, routeCuts, routeYes;
  double parseNs = 0, parseBytes = 0, clocksNs = 0, planNs = 0;
  double latticeRouteNs = 0;
  std::uint64_t cuts = 0, cpdhbInvocations = 0, cpdhbCombinations = 0;
  double sliceBuildNs = 0, sliceExplored = 0, slicePredicted = 0;
  std::uint64_t slices = 0;
};

struct Fault {
  bool wrongVerdict = false;
  bool dropResponse = false;
};

// One audit. Returns true when every answer matches its reference and
// every witness is a consistent cut that satisfies the predicate.
bool audit(const Case& c, const Suite& suite, Tracer* tr, std::uint64_t op,
           LayerTally* tally, Fault fault, std::vector<std::string>* problems,
           double* latencyMs) {
  const std::uint64_t cutsBefore = counterValue("cuts_enumerated");
  const std::uint64_t invBefore = counterValue("cpdhb_invocations");
  const std::uint64_t combBefore = counterValue("cpdhb_combinations");
  // Traced runs time the planner as a separate call on a second load of
  // the trace, outside the operation, and place that duration inside the
  // query span that plans the same predicate again.
  std::vector<std::int64_t> planNs;
  if (tr) {
    gpd::io::TraceFile shadow = gpd::io::loadTrace(c.path);
    gpd::detect::Detector det(*shadow.trace);
    for (const Query& q : c.queries) {
      const std::int64_t t = nowNs();
      plan(det, *shadow.trace, q);
      planNs.push_back(nowNs() - t);
    }
  }
  std::vector<Answer> answers;
  const std::int64_t start = nowNs();
  const int root = tr ? tr->begin("audit", "bench", op, -1) : -1;
  {
    const int sp = tr ? tr->begin("io.loadTrace", "io", op, root) : -1;
    gpd::io::TraceFile tf = gpd::io::loadTrace(c.path);
    if (tr) tr->end(sp);
    const int sc = tr ? tr->begin("clocks.Detector", "clocks", op, root) : -1;
    gpd::detect::Detector det(*tf.trace);
    if (tr) tr->end(sc);
    for (const Query& q : c.queries) {
      const std::uint64_t queryCuts = counterValue("cuts_enumerated");
      const int sq = tr ? tr->begin("detect", "detect", op, root) : -1;
      answers.push_back(ask(det, q));
      if (!tr) continue;
      tr->end(sq);
      const std::string& route = answers.back().route;
      tr->rename(sq, "detect." + route, layerOf(route));
      const double ns = static_cast<double>(tr->duration(sq));
      tally->routeNs[route] += ns;
      ++tally->routeCount[route];
      tally->routeCuts[route] += counterValue("cuts_enumerated") - queryCuts;
      tally->routeYes[route] += answers.back().yes ? 1 : 0;
      const std::int64_t s0 = tr->spans()[static_cast<std::size_t>(sq)].start;
      tr->add("analyze.plan", "analyze", op, sq, s0,
              s0 + std::min<std::int64_t>(planNs[answers.size() - 1], tr->duration(sq)));
      if (route == "lattice-enumeration" || route == "slice-first") {
        tally->latticeRouteNs += ns;  // the routes that count their cuts
      }
      if (const auto& slice = det.lastSlice()) {
        tr->add("detect.slice_build", "detect", op, sq, s0,
                s0 + static_cast<std::int64_t>(slice->buildNanos));
        tally->sliceBuildNs += static_cast<double>(slice->buildNanos);
        tally->sliceExplored += static_cast<double>(slice->exploredCuts);
        tally->slicePredicted += static_cast<double>(slice->predictedCuts);
        ++tally->slices;
      }
    }
  }
  if (tr) {
    tr->end(root);
    tally->parseNs += static_cast<double>(tr->duration(root + 1));
    tally->parseBytes += static_cast<double>(c.bytes);
    tally->clocksNs += static_cast<double>(tr->duration(root + 2));
    tally->cuts += counterValue("cuts_enumerated") - cutsBefore;
    tally->cpdhbInvocations += counterValue("cpdhb_invocations") - invBefore;
    tally->cpdhbCombinations += counterValue("cpdhb_combinations") - combBefore;
  }
  *latencyMs = static_cast<double>(nowNs() - start) / 1e6;

  if (fault.wrongVerdict) answers[0].yes = !answers[0].yes;
  if (fault.dropResponse) answers.pop_back();
  bool ok = answers.size() == c.queries.size();
  if (!ok && problems) problems->push_back(c.path + ": missing answer");
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Query& q = c.queries[i];
    const Answer& a = answers[i];
    std::string why;
    if (a.yes != q.expected) {
      why = std::string("verdict ") + (a.yes ? "yes" : "no") + ", reference " +
            (q.expected ? "yes" : "no");
    } else if (!q.definitely && a.yes != a.witness.has_value()) {
      why = "witness presence does not match the verdict";
    } else if (a.witness) {
      const Cut& w = a.witness->last;
      if (static_cast<int>(w.size()) != c.model.n) {
        why = "witness has the wrong width";
      } else {
        bool inRange = true;
        for (int p = 0; p < c.model.n; ++p) {
          if (w[static_cast<std::size_t>(p)] < 0 ||
              w[static_cast<std::size_t>(p)] >= c.model.events[static_cast<std::size_t>(p)]) {
            inRange = false;
          }
        }
        if (!inRange || !c.model.consistent(w)) {
          why = "witness is not a consistent cut";
        } else if (!q.holds(c.model, w)) {
          why = "witness does not satisfy the predicate";
        }
      }
    }
    if (!why.empty()) {
      ok = false;
      if (problems) {
        problems->push_back(c.path + " query " + std::to_string(i) + " (" +
                            suite.routes[i] + "): " + why);
      }
    }
  }
  return ok;
}

constexpr std::size_t kWarmUpAudits = 8;

// Generates the candidates and their references, keeps the `pool` whose
// work is closest to the suite's fixed target (so every seed's pool costs
// about the same), writes their trace files and warms up on a few.
std::vector<Case> buildPool(const Options& o, const Suite& suite,
                            std::vector<std::uint64_t>* works) {
  std::vector<Case> all;
  for (int i = 0; i < suite.candidates; ++i) {
    Case c;
    SplitMix rng(o.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i) + 1);
    suite.build(c, rng, i);
    c.path = o.workDir + "/" + suite.name + "-" + std::to_string(i) + ".trace";
    works->push_back(c.work);
    all.push_back(std::move(c));
  }
  const auto target = static_cast<double>(suite.targetWork);
  std::stable_sort(all.begin(), all.end(), [target](const Case& a, const Case& b) {
    return std::abs(static_cast<double>(a.work) - target) <
           std::abs(static_cast<double>(b.work) - target);
  });
  all.resize(static_cast<std::size_t>(suite.pool));
  for (Case& c : all) {
    const std::string text = c.model.toText();
    c.bytes = text.size();
    std::ofstream(c.path) << text;
  }
  for (std::size_t i = 0; i < all.size() && i < kWarmUpAudits; ++i) {
    double ms = 0;
    audit(all[i], suite, nullptr, 0, nullptr, {}, nullptr, &ms);
  }
  return all;
}

struct LoopStats {
  std::vector<double> latencyMs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double seconds = 0;
};

// Audits the pool in whole passes until `seconds` have gone by, so every
// trace is audited equally often.
LoopStats loop(const Options& o, const Suite& suite, const std::vector<Case>& pool,
               double seconds, Tracer* tr, LayerTally* tally,
               std::vector<std::string>& problems) {
  LoopStats s;
  const std::int64_t start = nowNs();
  do {
    for (const Case& c : pool) {
      Fault fault;
      if (o.injectFaults && tr == nullptr) {
        fault.wrongVerdict = s.attempted == 3;
        fault.dropResponse = s.attempted == 7;
      }
      double ms = 0;
      if (!audit(c, suite, tr, s.attempted, tally, fault, &problems, &ms)) ++s.failed;
      ++s.attempted;
      s.latencyMs.push_back(ms);
    }
    s.seconds = static_cast<double>(nowNs() - start) / 1e9;
  } while (s.seconds < seconds);
  return s;
}

Result runAudit(const Options& o, const Suite& suite) {
  Result r;
  std::vector<Case> pool;
  std::vector<std::uint64_t> works;
  const double setup = medianSeconds(3, [&] {
    works.clear();
    pool = buildPool(o, suite, &works);
  });
  std::vector<std::string> problems;
  const double measureSeconds = o.trace ? o.seconds / 2 : o.seconds;
  const LoopStats plain = loop(o, suite, pool, measureSeconds, nullptr, nullptr, problems);
  r.attempted = plain.attempted;
  r.failed = plain.failed;
  const double throughput = static_cast<double>(plain.attempted) / plain.seconds;
  const LatencySummary lat = summarize(plain.latencyMs);
  {
    std::ostringstream os;
    os << suite.name << ": " << plain.attempted << " audits of " << pool.size()
       << " traces in " << plain.seconds << " s; tail = p" << lat.tailPercentile
       << " of " << lat.samples << " samples";
    double size = 0, work = 0;
    for (const Case& c : pool) {
      size += static_cast<double>(c.latticeSize) / static_cast<double>(pool.size());
      work += static_cast<double>(c.work) / static_cast<double>(pool.size());
    }
    std::sort(works.begin(), works.end());
    if (suite.targetWork > 0) {
      os << "; mean lattice " << size << " cuts, mean work " << work
         << " (candidates: q1 " << works[works.size() / 4] << ", median "
         << works[works.size() / 2] << ", q3 " << works[3 * works.size() / 4] << ")";
    }
    r.note(os.str());
  }
  for (std::size_t i = 0; i < problems.size() && i < 10; ++i) r.note("FAIL " + problems[i]);

  if (!o.trace) {
    r.set("throughput", throughput, "1/s");
    r.set("latency_p50_ms", lat.p50, "ms");
    r.set("latency_tail_ms", lat.tail, "ms");
    r.set("peak_rss_mib", selfPeakRssMib(), "MiB");
    r.set("setup_s", setup, "s");
    return r;
  }

  Tracer tracer;
  LayerTally tally;
  gpd::obs::registry().gauge("frontier_bytes_peak").reset();
  const LoopStats traced = loop(o, suite, pool, o.seconds / 2, &tracer, &tally, problems);
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  const auto ops = static_cast<double>(traced.attempted);
  r.set("io.parse_ms", tally.parseNs / 1e6 / ops, "ms");
  r.set("io.parse_mib_s", tally.parseNs > 0 ? tally.parseBytes / (1 << 20) / (tally.parseNs / 1e9) : 0,
        "MiB/s");
  r.set("clocks.build_ms", tally.clocksNs / 1e6 / ops, "ms");
  double planNs = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name == "analyze.plan") planNs += static_cast<double>(s.end - s.start);
  }
  r.set("analyze.plan_ms", planNs / 1e6 / ops, "ms");
  for (const auto& [route, ns] : tally.routeNs) {
    const auto n = static_cast<double>(tally.routeCount[route]);
    r.set("detect.query_ms." + route, ns / 1e6 / n, "ms");
    r.set("detect.count." + route, n / ops, "count");
  }
  r.set("lattice.cuts", static_cast<double>(tally.cuts) / ops, "count");
  r.set("lattice.ns_per_cut",
        tally.cuts > 0 ? tally.latticeRouteNs / static_cast<double>(tally.cuts) : 0, "ns");
  r.set("lattice.frontier_peak_kib",
        static_cast<double>(gpd::obs::registry().gauge("frontier_bytes_peak").value()) / 1024,
        "KiB");
  const double slices = tally.slices > 0 ? static_cast<double>(tally.slices) : 1;
  r.set("slice.build_ms", tally.sliceBuildNs / 1e6 / slices, "ms");
  r.set("slice.explored_cuts", tally.sliceExplored / slices, "count");
  r.set("slice.predicted_cuts", tally.slicePredicted / slices, "count");
  r.set("cpdhb.invocations", static_cast<double>(tally.cpdhbInvocations) / ops, "count");
  r.set("cpdhb.combinations", static_cast<double>(tally.cpdhbCombinations) / ops, "count");
  const double tracedThroughput = ops / traced.seconds;
  r.set("trace.overhead_pct", 100.0 * (throughput - tracedThroughput) / throughput, "%");
  reportLayers(tracer, traced.attempted,
               {"io", "clocks", "analyze", "detect", "lattice", "flow", "bench"}, r);
  std::ostringstream routes;
  routes << "routes per audit:";
  for (const auto& [route, n] : tally.routeCount) {
    routes << ' ' << route << '=' << static_cast<double>(n) / ops << " (yes "
           << 100.0 * static_cast<double>(tally.routeYes[route]) / static_cast<double>(n)
           << "%, " << static_cast<double>(tally.routeCuts[route]) / static_cast<double>(n)
           << " cuts)";
  }
  if (!pool.front().workParts.empty()) {
    routes << " | model cuts per query:";
    for (std::size_t i = 0; i < pool.front().workParts.size(); ++i) {
      double sum = 0;
      for (const Case& c : pool) sum += static_cast<double>(c.workParts[i]);
      routes << ' ' << sum / static_cast<double>(pool.size());
    }
  }
  r.note(routes.str());
  tracer.writeJsonLines(o.workDir + "/spans.jsonl",
                        "{\"workload\":\"" + std::string(suite.name) + "\"}");
  r.note("spans written to " + o.workDir + "/spans.jsonl");
  return r;
}

}  // namespace

// The polynomial reference checks of audit-poly, against exhaustive ground
// truth on small traces (run by `run.py --self-check`).
Result runReferenceCheck(const Options& o) {
  Result r;
  std::uint64_t comparisons = 0;
  for (int i = 0; i < 400; ++i) {
    SplitMix rng(o.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i));
    GenOptions g;
    g.processes = 4;
    g.minEvents = 3;
    g.maxEvents = 7;
    g.sendProb = 0.4;
    TraceModel m = generateComputation(g, rng);
    addBools(m, "c", 0.4, rng);
    addRuns(m, "d", 0.3, rng);
    std::vector<Lit> conj, runs;
    for (int p = 0; p < m.n; ++p) {
      conj.push_back({p, "c", true});
      runs.push_back({p, "d", rng.chance(0.8)});
    }
    const Cnf singular = {{conj[0], conj[1]}, {conj[2], conj[3]}};
    auto all = [&m](const std::vector<Lit>& lits) -> CutPred {
      return [&m, lits](const Cut& cut) {
        for (const Lit& l : lits) {
          if (!l.holds(m, cut[static_cast<std::size_t>(l.p)])) return false;
        }
        return true;
      };
    };
    const LatticeTruth t = exhaustiveTruth(
        m, {all(conj), all(runs), [&m, &singular](const Cut& c) { return holdsCnf(m, singular, c); }});
    const bool agree[] = {conjunctivePossibly(m, conj) == t.possibly[0],
                          conjunctiveDefinitely(m, runs) == t.definitely[1],
                          singularPossibly(m, singular) == t.possibly[2]};
    for (bool a : agree) {
      ++comparisons;
      ++r.attempted;
      if (!a) ++r.failed;
    }
  }
  std::ostringstream os;
  os << "reference checks: " << comparisons << " verdicts on 400 small traces, "
     << r.failed << " disagree with the exhaustive lattice";
  r.note(os.str());
  r.set("throughput", 0, "1/s");
  r.set("latency_p50_ms", 0, "ms");
  r.set("latency_tail_ms", 0, "ms");
  r.set("peak_rss_mib", 0, "MiB");
  r.set("setup_s", 0, "s");
  return r;
}

Result runAuditLattice(const Options& o) { return runAudit(o, kLatticeSuite); }
Result runAuditPoly(const Options& o) { return runAudit(o, kPolySuite); }

}  // namespace perfbench
