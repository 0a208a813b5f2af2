// Pins what the unbudgeted Detector entry points answer. A corpus of 200
// seeded computations (detector_corpus.h, shared with the budget property
// test) is queried with 13 query kinds, and every answer is written as one
// transcript line: verdict, witness cut, lastAlgorithm() and the slice
// pre-pass's explored cut count when a slice ran. The transcript must
// equal detector_transcript.golden byte for byte, sequentially and with a
// 4-thread pool. On a mismatch the actual transcript is written next to the
// test's temp files and its path is reported.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/detector_corpus.h"
#include "par/pool.h"
#include "temp_path.h"

namespace gpd::detect {
namespace {

constexpr int kComputations = 200;

using testing::allTrue;
using testing::Corpus;
using testing::mixedExpr;
using testing::nonSingularCnf;
using testing::singularCnf;
using testing::sumPred;

std::string cutText(const Cut& cut) {
  std::string out = "[";
  for (std::size_t i = 0; i < cut.last.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(cut.last[i]);
  }
  return out + "]";
}

void record(std::ostringstream& out, const Detector& det, int trial,
            const char* kind, bool verdict, const std::optional<Cut>& witness) {
  out << trial << " " << kind << " " << (verdict ? "yes" : "no") << " "
      << (witness.has_value() ? cutText(*witness) : "-") << " "
      << det.lastAlgorithm() << " ";
  if (det.lastSlice().has_value()) {
    out << det.lastSlice()->exploredCuts;
  } else {
    out << "-";
  }
  out << "\n";
}

std::string transcript(par::Pool* pool) {
  std::ostringstream out;
  std::vector<SumTerm> vars;
  for (ProcessId p = 0; p < 4; ++p) vars.push_back({p, "x"});
  const SymmetricPredicate symmetric = notAllEqual(vars);
  const BoolExprPtr expr = mixedExpr();
  for (int trial = 0; trial < kComputations; ++trial) {
    Rng rng(7919 + static_cast<std::uint64_t>(trial));
    const Corpus corpus(rng, trial);
    const CnfPredicate singular = singularCnf(rng);
    const CnfPredicate nonSingular = nonSingularCnf(rng);
    Detector det(corpus.trace);
    det.usePool(pool);

    const auto possibly = [&](const char* kind, const auto& pred) {
      const std::optional<Cut> w = det.possibly(pred);
      record(out, det, trial, kind, w.has_value(), w);
    };
    const auto definitely = [&](const char* kind, const auto& pred) {
      const bool holds = det.definitely(pred);
      record(out, det, trial, kind, holds, std::nullopt);
    };
    possibly("conj", allTrue(4));
    possibly("singular-cnf", singular);
    possibly("non-singular-cnf", nonSingular);
    possibly("sum-ge", sumPred("c1", Relop::GreaterEq, 1));
    possibly("sum-eq", sumPred("c1", Relop::Equal, 1));
    possibly("sum-eq-wide", sumPred("c2", Relop::Equal, 2));
    possibly("symmetric", symmetric);
    possibly("expr", *expr);
    definitely("def-conj", allTrue(4));
    definitely("def-cnf", nonSingular);
    definitely("def-sum-ge", sumPred("c1", Relop::GreaterEq, 1));
    definitely("def-sum-eq", sumPred("c1", Relop::Equal, 1));
    definitely("def-sym", symmetric);
  }
  return out.str();
}

void expectMatchesGolden(const std::string& actual, const std::string& label) {
  std::ifstream in(DETECTOR_TRANSCRIPT_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << DETECTOR_TRANSCRIPT_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;
  const std::string path = uniqueTempPath("detector_transcript_" + label);
  std::ofstream(path, std::ios::binary) << actual;
  std::istringstream want(golden.str());
  std::istringstream got(actual);
  std::string w;
  std::string g;
  int line = 0;
  do {
    ++line;
    if (!std::getline(want, w)) w = "<end>";
    if (!std::getline(got, g)) g = "<end>";
  } while (w == g);
  ADD_FAILURE() << label << " transcript differs from the golden at line "
                << line << ":\n  golden: " << w << "\n  actual: " << g
                << "\nfull transcript written to " << path;
}

TEST(DetectorTranscriptTest, SequentialMatchesGolden) {
  expectMatchesGolden(transcript(nullptr), "sequential");
}

TEST(DetectorTranscriptTest, PooledMatchesGolden) {
  par::Pool pool(4);
  expectMatchesGolden(transcript(&pool), "pooled");
}

}  // namespace
}  // namespace gpd::detect
