#include "analyze/plan.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace gpd::analyze {

namespace {

// "Π cj = 3·2 = 6" (collapsed to "Π cj = 6" for a single factor).
std::string productFormula(const char* symbol,
                           const std::vector<int>& factors,
                           std::uint64_t total) {
  std::ostringstream os;
  os << "Π " << symbol << " = ";
  if (factors.size() > 1) {
    for (std::size_t i = 0; i < factors.size(); ++i) {
      if (i > 0) os << "·";
      os << factors[i];
    }
    os << " = ";
  }
  os << total;
  return os.str();
}

PlanStep step(Algorithm a, bool applicable, std::string bound,
              std::string rationale,
              std::optional<std::uint64_t> invocations = std::nullopt) {
  PlanStep s;
  s.algorithm = a;
  s.applicable = applicable;
  s.predictedCpdhbInvocations = invocations;
  s.bound = std::move(bound);
  s.rationale = std::move(rationale);
  return s;
}

void note(AnalysisReport& report, const std::string& message) {
  report.notes.push_back(Diagnostic{Severity::Info, "I001", 0, message});
}

std::string latticeBound(const Computation& comp) {
  std::ostringstream os;
  os << "O(#cuts) ≤ Π |E_p| over " << comp.processCount()
     << " processes";
  return os.str();
}

}  // namespace

const char* toString(Modality m) {
  return m == Modality::Possibly ? "possibly" : "definitely";
}

const char* toString(Algorithm a) {
  switch (a) {
    case Algorithm::SliceFirst:
      return "slice-first";
    case Algorithm::Cpdhb:
      return "cpdhb";
    case Algorithm::CpdscSpecialCase:
      return "cpdsc-special-case";
    case Algorithm::SingularChainCover:
      return "singular-chain-cover";
    case Algorithm::SingularProcessEnumeration:
      return "singular-process-enumeration";
    case Algorithm::LatticeEnumeration:
      return "lattice-enumeration";
    case Algorithm::MinCutExtrema:
      return "min-cut-extrema";
    case Algorithm::Theorem7ExactSum:
      return "theorem-7-exact-sum";
    case Algorithm::SymmetricExactSumDisjunction:
      return "symmetric-exact-sum-disjunction";
    case Algorithm::DnfDecomposition:
      return "dnf-decomposition";
    case Algorithm::IntervalDefinitely:
      return "interval-definitely";
    case Algorithm::LatticeDefinitely:
      return "lattice-definitely";
    case Algorithm::Theorem7Definitely:
      return "theorem-7-definitely";
  }
  return "unknown";
}

const PlanStep& AnalysisReport::chosen() const {
  for (const PlanStep& s : steps) {
    if (s.applicable) return s;
  }
  GPD_CHECK_MSG(false, "analysis plan has no applicable step");
  return steps.front();  // unreachable
}

AnalysisReport planConjunctive(const VectorClocks& clocks,
                               const VariableTrace& trace,
                               const ConjunctivePredicate& pred, Modality m) {
  (void)trace;
  AnalysisReport report;
  report.modality = m;
  {
    std::ostringstream os;
    for (std::size_t i = 0; i < pred.terms.size(); ++i) {
      if (i > 0) os << " ∧ ";
      os << pred.terms[i].label();
    }
    report.predicate = os.str();
  }
  if (m == Modality::Possibly) {
    report.steps.push_back(step(
        Algorithm::Cpdhb, true, "O(n²m) comparisons",
        "weak conjunctive predicate (Garg–Waldecker): one CPDHB scan "
        "suffices",
        1));
    report.steps.push_back(
        step(Algorithm::LatticeEnumeration, true,
             latticeBound(clocks.computation()),
             "exhaustive baseline; dominated by CPDHB"));
  } else {
    report.steps.push_back(
        step(Algorithm::IntervalDefinitely, true, "O(n²m) comparisons",
             "definitely(conjunctive) via overlapping true intervals"));
    report.steps.push_back(
        step(Algorithm::LatticeDefinitely, true,
             latticeBound(clocks.computation()),
             "exhaustive baseline; dominated by the interval scan"));
  }
  return report;
}

AnalysisReport planCnf(const VectorClocks& clocks, const VariableTrace& trace,
                       const CnfPredicate& pred, Modality m,
                       const ClassifyOptions& opts) {
  AnalysisReport report;
  report.modality = m;
  report.predicate = pred.toString();
  report.cnf = classifyCnf(clocks, trace, pred, opts);
  const CnfClassification& cls = *report.cnf;

  if (m == Modality::Definitely) {
    report.steps.push_back(step(
        Algorithm::LatticeDefinitely, true, latticeBound(clocks.computation()),
        "definitely(CNF) has no structural shortcut: exhaustive lattice"));
    return report;
  }

  if (!cls.singular) {
    // Slice-first pre-pass (Garg–Mittal): the single-process clauses form a
    // regular skeleton whose slice confines every witness; the exhaustive
    // lattice then only explores the (often exponentially smaller)
    // sublattice. Predicted size: Π over processes of the number of event
    // levels where every skeleton clause hosted there holds.
    const Computation& comp = clocks.computation();
    if (cls.singleProcessClauses > 0) {
      std::vector<int> levelCounts(comp.processCount(), 0);
      for (ProcessId p = 0; p < comp.processCount(); ++p) {
        levelCounts[p] = comp.eventCount(p);
      }
      for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
        if (cls.clauses[j].processes.size() != 1) continue;
        // A single-process clause's true events are its true levels.
        const ProcessId p = cls.clauses[j].processes.front();
        levelCounts[p] =
            std::min(levelCounts[p], cls.clauses[j].trueEventCount());
      }
      std::uint64_t predicted = 1;
      bool saturated = false;
      for (const int t : levelCounts) {
        const auto f = static_cast<std::uint64_t>(t);
        if (f == 0) {
          predicted = 0;
          saturated = false;
          break;
        }
        if (predicted > UINT64_MAX / f) {
          predicted = UINT64_MAX;
          saturated = true;
          break;
        }
        predicted *= f;
      }
      std::ostringstream rationale;
      rationale << cls.singleProcessClauses
                << " single-process clause(s) form a regular skeleton "
                   "(Garg–Mittal): slice to its sublattice, then enumerate "
                   "the remaining clauses inside it";
      PlanStep s = step(Algorithm::SliceFirst, true,
                        productFormula("|T_p|", levelCounts, predicted) +
                            (saturated ? " (saturated)" : "") +
                            " sublattice cuts after slicing",
                        rationale.str());
      s.predictedSublatticeCuts = predicted;
      s.predictionSaturated = saturated;
      report.steps.push_back(std::move(s));
    } else {
      report.steps.push_back(
          step(Algorithm::SliceFirst, false, "n/a",
               "no single-process clause: no regular skeleton to slice on"));
    }
    report.steps.push_back(
        step(Algorithm::LatticeEnumeration, true,
             latticeBound(clocks.computation()),
             "not singular (clauses share a process): Theorem 1 makes "
             "detection NP-complete, exhaustive lattice"));
    return report;
  }

  // Singular: rank the Sec. 3.2 scan, then the two Sec. 3.3 enumerations.
  std::vector<int> coverSizes;
  std::vector<int> hostCounts;
  for (const ClauseFacts& c : cls.clauses) {
    coverSizes.push_back(c.chainCoverSize);
    hostCounts.push_back(c.hostingChains);
    if (c.trueEventCount() == 0) {
      note(report, "a clause is never true on this trace: possibly(φ) "
                   "is trivially false, predicted work is 0");
    }
  }
  const std::uint64_t coverBound = cls.chainCoverBound();
  const std::uint64_t enumBound = cls.processEnumerationBound();

  {
    const bool applicable = cls.receiveOrdered || cls.sendOrdered;
    std::string rationale;
    if (cls.receiveOrdered) {
      rationale = "meta-process groups are receive-ordered (Sec. 3.2): "
                  "polynomial scan";
    } else if (cls.sendOrdered) {
      rationale = "meta-process groups are send-ordered (Sec. 3.2): "
                  "polynomial scan on the reversed computation";
    } else {
      rationale = "groups are neither receive- nor send-ordered: the "
                  "Sec. 3.2 precondition fails";
    }
    report.steps.push_back(step(Algorithm::CpdscSpecialCase, applicable,
                                "O(n²m) comparisons",
                                std::move(rationale)));
  }
  report.steps.push_back(
      step(Algorithm::SingularChainCover, true,
           productFormula("cj", coverSizes, coverBound) +
               " CPDHB invocations",
           "minimum chain covers of the clause-true events (Sec. 3.3, "
           "Dilworth)",
           coverBound));
  report.steps.push_back(
      step(Algorithm::SingularProcessEnumeration, true,
           productFormula("kj", hostCounts, enumBound) +
               " CPDHB invocations (≤ k^m)",
           "one chain per hosting process; dominated by the chain cover "
           "since cj ≤ kj",
           enumBound));
  report.steps.push_back(step(Algorithm::LatticeEnumeration, true,
                              latticeBound(clocks.computation()),
                              "exhaustive baseline"));
  return report;
}

AnalysisReport planSum(const VectorClocks& clocks, const VariableTrace& trace,
                       const SumPredicate& pred, Modality m) {
  AnalysisReport report;
  report.modality = m;
  report.predicate = pred.toString();
  const std::int64_t delta = pred.eventDeltaBound(trace);
  const bool equality = pred.relop == Relop::Equal;
  std::ostringstream deltaNote;
  deltaNote << "per-event sum change bound |ΔS| = " << delta;
  note(report, deltaNote.str());

  // For Σ = K the detector runs a range test before any lattice search: K
  // outside [min S, max S] is a "no" from two closures (Sec. 4.2).
  const auto noteRangeTest = [&] {
    if (!equality) return;
    for (PlanStep& s : report.steps) {
      if (s.algorithm == Algorithm::LatticeEnumeration ||
          s.algorithm == Algorithm::LatticeDefinitely) {
        s.note =
            "range test first (max S, then min S: one min-cut each); the "
            "lattice search runs only when min S ≤ K ≤ max S";
      }
    }
  };

  if (m == Modality::Possibly) {
    if (!equality) {
      report.steps.push_back(
          step(Algorithm::MinCutExtrema, true,
               "one min-cut for the side the relop needs (≠: at most two)",
               "inequality relop: compare K against the sum extrema over all "
               "consistent cuts (max-weight closure)"));
      report.steps.push_back(step(Algorithm::LatticeEnumeration, true,
                                  latticeBound(clocks.computation()),
                                  "exhaustive baseline"));
      return report;
    }
    if (delta <= 1) {
      report.steps.push_back(
          step(Algorithm::Theorem7ExactSum, true,
               "at most one min-cut + one lattice path",
               "Σ = K with |ΔS| ≤ 1: Theorem 7(1) intermediate "
               "value argument"));
      report.steps.push_back(step(Algorithm::LatticeEnumeration, true,
                                  latticeBound(clocks.computation()),
                                  "exhaustive baseline"));
    } else {
      report.steps.push_back(
          step(Algorithm::Theorem7ExactSum, false, "n/a",
               "Theorem 4 precondition fails: some event changes the sum by "
               "more than 1"));
      report.steps.push_back(
          step(Algorithm::LatticeEnumeration, true,
               latticeBound(clocks.computation()),
               "Σ = K with arbitrary Δ is NP-complete (Theorem 2): "
               "exhaustive lattice"));
    }
    noteRangeTest();
    return report;
  }

  if (equality && delta <= 1) {
    report.steps.push_back(
        step(Algorithm::Theorem7Definitely, true,
             "two definitely(inequality) solves",
             "definitely(Σ = K) with |ΔS| ≤ 1: Theorem 7(2) "
             "reduction to the inequality modalities"));
    report.steps.push_back(step(Algorithm::LatticeDefinitely, true,
                                latticeBound(clocks.computation()),
                                "exhaustive baseline"));
  } else {
    if (equality) {
      report.steps.push_back(
          step(Algorithm::Theorem7Definitely, false, "n/a",
               "Theorem 7(2) needs |ΔS| ≤ 1; some event changes the "
               "sum by more"));
    }
    report.steps.push_back(step(
        Algorithm::LatticeDefinitely, true, latticeBound(clocks.computation()),
        "no structural shortcut for this sum: exhaustive lattice"));
  }
  noteRangeTest();
  return report;
}

AnalysisReport planSymmetric(const VectorClocks& clocks,
                             const VariableTrace& trace,
                             const SymmetricPredicate& pred, Modality m) {
  (void)trace;
  AnalysisReport report;
  report.modality = m;
  {
    std::ostringstream os;
    os << (pred.name.empty() ? "symmetric" : pred.name) << " over "
       << pred.arity() << " boolean variables";
    report.predicate = os.str();
  }
  if (m == Modality::Possibly) {
    std::ostringstream bound;
    bound << "|T| = " << pred.trueCounts.size()
          << " exact-sum detections (Theorem 7 each)";
    report.steps.push_back(
        step(Algorithm::SymmetricExactSumDisjunction, true, bound.str(),
             "symmetric predicates depend only on #true (Sec. 4.3): "
             "disjunction of exact sums, each with |ΔS| ≤ 1"));
    report.steps.push_back(step(Algorithm::LatticeEnumeration, true,
                                latticeBound(clocks.computation()),
                                "exhaustive baseline"));
  } else {
    report.steps.push_back(step(Algorithm::LatticeDefinitely, true,
                                latticeBound(clocks.computation()),
                                "definitely(symmetric) decided exhaustively"));
  }
  return report;
}

AnalysisReport planExpression(const VectorClocks& clocks,
                              const VariableTrace& trace, const BoolExpr& expr,
                              Modality m) {
  (void)trace;
  AnalysisReport report;
  report.modality = m;
  report.predicate = expr.toString();
  if (m == Modality::Possibly) {
    const std::uint64_t terms = toDnf(expr).size();
    std::ostringstream bound;
    bound << terms << " CPDHB invocations (one per satisfiable DNF term)";
    report.steps.push_back(
        step(Algorithm::DnfDecomposition, true, bound.str(),
             "possibly distributes over ∨ (Stoller–Schneider): "
             "DNF, then one weak-conjunctive detection per term",
             terms));
    if (terms == 0) {
      note(report,
           "the expression is propositionally unsatisfiable: every DNF term "
           "was pruned");
    }
    report.steps.push_back(step(Algorithm::LatticeEnumeration, true,
                                latticeBound(clocks.computation()),
                                "exhaustive baseline"));
  } else {
    report.steps.push_back(step(Algorithm::LatticeDefinitely, true,
                                latticeBound(clocks.computation()),
                                "definitely(expression) decided exhaustively"));
  }
  return report;
}

void renderPlanText(std::ostream& os, const AnalysisReport& report) {
  os << toString(report.modality) << '(' << report.predicate << ")\n";
  if (report.cnf) {
    const CnfClassification& cls = *report.cnf;
    os << "classification:";
    if (cls.conjunctive) {
      os << " conjunctive";
    } else if (cls.singular) {
      os << " singular";
    } else {
      os << " non-singular";
    }
    if (cls.uniformK) os << ' ' << *cls.uniformK << "-CNF";
    if (cls.singular) {
      os << (cls.receiveOrdered ? "; receive-ordered" : "");
      os << (cls.sendOrdered ? "; send-ordered" : "");
      if (!cls.receiveOrdered && !cls.sendOrdered) os << "; unordered groups";
    }
    os << "; stable: " << toString(cls.stable)
       << "; linear: " << toString(cls.linear)
       << "; regular: " << toString(cls.regular) << '\n';
    for (std::size_t j = 0; j < cls.clauses.size(); ++j) {
      const ClauseFacts& c = cls.clauses[j];
      os << "  clause " << j << ": " << c.literals << " literal(s) on "
         << c.processes.size() << " process(es), " << c.trueEventCount()
         << " true event(s), c" << j << "=" << c.chainCoverSize << ", k" << j
         << "=" << c.hostingChains << '\n';
    }
  }
  if (report.threads != 1) {
    os << "threads: " << report.threads
       << " (predicted costs are thread-invariant; workers split the same "
          "total)\n";
  }
  os << "plan:\n";
  const PlanStep* chosen = nullptr;
  for (const PlanStep& s : report.steps) {
    if (s.applicable) {
      chosen = &s;
      break;
    }
  }
  int rank = 0;
  for (const PlanStep& s : report.steps) {
    ++rank;
    os << "  " << rank << ". " << toString(s.algorithm);
    if (&s == chosen) os << "  [chosen]";
    if (!s.applicable) os << "  [not applicable]";
    os << '\n';
    os << "     cost: " << s.bound << '\n';
    if (s.predictedSublatticeCuts) {
      os << "     slice: predicted sublattice <= ";
      if (s.predictionSaturated) {
        os << "2^64 cuts (saturated)";
      } else {
        os << *s.predictedSublatticeCuts << " cut(s)";
      }
      os << '\n';
    }
    os << "     why:  " << s.rationale << '\n';
    if (!s.note.empty()) os << "     note: " << s.note << '\n';
  }
  for (const Diagnostic& d : report.notes) {
    os << "note: " << d.message << '\n';
  }
}

void renderPlanJson(std::ostream& os, const AnalysisReport& report) {
  os << "{\n  \"modality\": \"" << toString(report.modality)
     << "\",\n  \"predicate\": \"" << jsonEscape(report.predicate)
     << "\",\n  \"threads\": " << report.threads << ",\n";
  os << "  \"classification\": ";
  if (report.cnf) {
    const CnfClassification& cls = *report.cnf;
    os << "{\"singular\": " << (cls.singular ? "true" : "false")
       << ", \"conjunctive\": " << (cls.conjunctive ? "true" : "false")
       << ", \"uniformK\": ";
    if (cls.uniformK) {
      os << *cls.uniformK;
    } else {
      os << "null";
    }
    os << ", \"receiveOrdered\": " << (cls.receiveOrdered ? "true" : "false")
       << ", \"sendOrdered\": " << (cls.sendOrdered ? "true" : "false")
       << ", \"stable\": \"" << toString(cls.stable) << "\", \"linear\": \""
       << toString(cls.linear) << "\", \"regular\": \""
       << toString(cls.regular)
       << "\", \"singleProcessClauses\": " << cls.singleProcessClauses
       << ", \"chainCoverBound\": "
       << cls.chainCoverBound()
       << ", \"processEnumerationBound\": " << cls.processEnumerationBound()
       << ", \"clauses\": [";
    for (std::size_t j = 0; j < cls.clauses.size(); ++j) {
      const ClauseFacts& c = cls.clauses[j];
      if (j > 0) os << ", ";
      os << "{\"literals\": " << c.literals << ", \"processes\": [";
      for (std::size_t i = 0; i < c.processes.size(); ++i) {
        if (i > 0) os << ", ";
        os << c.processes[i];
      }
      os << "], \"trueEvents\": " << c.trueEventCount()
         << ", \"chainCoverSize\": " << c.chainCoverSize
         << ", \"hostingChains\": " << c.hostingChains << '}';
    }
    os << "]}";
  } else {
    os << "null";
  }
  os << ",\n  \"steps\": [";
  const PlanStep* chosen = nullptr;
  for (const PlanStep& s : report.steps) {
    if (s.applicable) {
      chosen = &s;
      break;
    }
  }
  for (std::size_t i = 0; i < report.steps.size(); ++i) {
    const PlanStep& s = report.steps[i];
    if (i > 0) os << ',';
    os << "\n    {\"algorithm\": \"" << toString(s.algorithm)
       << "\", \"applicable\": " << (s.applicable ? "true" : "false")
       << ", \"chosen\": " << (&s == chosen ? "true" : "false")
       << ", \"predictedCpdhbInvocations\": ";
    if (s.predictedCpdhbInvocations) {
      os << *s.predictedCpdhbInvocations;
    } else {
      os << "null";
    }
    os << ", \"predictedSublatticeCuts\": ";
    if (s.predictedSublatticeCuts) {
      os << *s.predictedSublatticeCuts;
    } else {
      os << "null";
    }
    os << ", \"predictionSaturated\": "
       << (s.predictionSaturated ? "true" : "false");
    os << ", \"bound\": \"" << jsonEscape(s.bound) << "\", \"rationale\": \""
       << jsonEscape(s.rationale) << "\", \"note\": \"" << jsonEscape(s.note)
       << "\"}";
  }
  if (!report.steps.empty()) os << "\n  ";
  os << "],\n  \"notes\": [";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << jsonEscape(report.notes[i].message) << '"';
  }
  os << "]\n}\n";
}

}  // namespace gpd::analyze
