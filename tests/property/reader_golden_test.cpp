// Pins what the gpd-trace readers answer on hostile input. Every input the
// seeded LintFuzz (tests/analyze/lint_test.cpp) and TraceFuzz
// (trace_fuzz_test.cpp) suites generate, plus their unmutated corpora and
// the targeted hostile traces, is fed to both io::readTrace and
// analyze::lintTrace. Each input becomes one line of reader.golden:
//
//   <label> <fnv1a32 of the input> <accept> <diagnostics>
//
// where <accept> is "-" when readTrace throws InputError and otherwise the
// fnv1a32 of the accepted trace written back by io::writeTrace, and
// <diagnostics> is lint's full list as CODE@LINE:message joined by " | "
// (control bytes, '\' and '|' escaped as \xHH). The generators below repeat
// the two fuzz suites' Rng draws call for call, so the golden covers exactly
// their inputs. On a mismatch the actual transcript is written next to the
// test's temp files and its path is reported.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpd.h"
#include "temp_path.h"

namespace gpd {
namespace {

std::uint32_t fnv1a(const std::string& text) {
  std::uint32_t h = 0x811c9dc5u;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x01000193u;
  }
  return h;
}

std::string hex(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u >= 0x7f || c == '\\' || c == '|') {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string serialized(const Computation& comp, const VariableTrace& trace) {
  std::ostringstream os;
  io::writeTrace(os, comp, trace);
  return os.str();
}

void record(std::ostringstream& out, const std::string& label,
            const std::string& text) {
  out << label << ' ' << hex(fnv1a(text)) << ' ';
  {
    std::istringstream is(text);
    try {
      const io::TraceFile file = io::readTrace(is);
      out << hex(fnv1a(serialized(*file.computation, *file.trace)));
    } catch (const InputError&) {
      out << '-';
    }
  }
  std::istringstream is(text);
  const analyze::LintResult res = analyze::lintTrace(is, {});
  const char* sep = " ";
  for (const analyze::Diagnostic& d : res.diagnostics) {
    out << sep << d.code << '@' << d.line << ':' << escaped(d.message);
    sep = " | ";
  }
  out << '\n';
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

// ---- TraceFuzz inputs (property/trace_fuzz_test.cpp) ----

std::vector<std::string> traceFuzzCorpus() {
  std::vector<std::string> out;
  auto add = [&out](const sim::SimResult& run) {
    out.push_back(serialized(*run.computation, *run.trace));
  };
  add(sim::tokenRing({.processes = 4, .rounds = 2, .seed = 11}));
  add(sim::ricartAgrawala({.processes = 3, .rounds = 1, .seed = 12}));
  add(sim::leaderElection({.processes = 4, .seed = 13}));
  add(sim::voting({.processes = 4, .seed = 14}));
  add(sim::diningPhilosophers({.philosophers = 3, .meals = 1, .seed = 15}));
  add(sim::snapshotBank({.processes = 3, .transfersPerProcess = 2, .seed = 16}));
  add(sim::diffusingComputation(
      {.processes = 4, .totalWorkBudget = 6, .seed = 17}));
  add(sim::producerConsumer(
      {.producers = 2, .consumers = 2, .itemsPerProducer = 2, .seed = 18}));
  Rng rng(19);
  for (int i = 0; i < 4; ++i) {
    RandomComputationOptions opt;
    opt.processes = 2 + i;
    opt.eventsPerProcess = 3;
    const Computation comp = randomComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomBools(trace, "b", 0.5, rng);
    defineRandomCounters(trace, "x", 0, 1, rng);
    out.push_back(serialized(comp, trace));
  }
  return out;
}

void traceFuzzInputs(std::ostringstream& out) {
  const std::vector<std::string> all = traceFuzzCorpus();
  for (std::size_t i = 0; i < all.size(); ++i) {
    record(out, "trace/corpus/" + std::to_string(i), all[i]);
  }
  for (std::uint64_t seed = 1; seed < 26; ++seed) {
    const std::string tag = "/" + std::to_string(seed) + "/";
    {
      Rng rng(seed * 71 + 1);
      const std::string& text = all[rng.index(all.size())];
      for (int i = 0; i < 20; ++i) {
        record(out, "trace/truncate" + tag + std::to_string(i),
               text.substr(0, rng.index(text.size() + 1)));
      }
    }
    {
      Rng rng(seed * 73 + 2);
      const std::string text = all[rng.index(all.size())];
      for (int i = 0; i < 20; ++i) {
        std::string mutated = text;
        const int flips = 1 + static_cast<int>(rng.index(4));
        for (int f = 0; f < flips; ++f) {
          const std::size_t pos = rng.index(mutated.size());
          mutated[pos] = static_cast<char>(rng.uniform(1, 126));
        }
        record(out, "trace/flip" + tag + std::to_string(i), mutated);
      }
    }
    {
      Rng rng(seed * 79 + 3);
      const auto lines = splitLines(all[rng.index(all.size())]);
      for (int i = 0; i < 20; ++i) {
        std::vector<std::string> mutated = lines;
        switch (rng.index(4)) {
          case 0:
            mutated.erase(mutated.begin() + rng.index(mutated.size()));
            break;
          case 1:
            mutated.insert(mutated.begin() + rng.index(mutated.size()),
                           mutated[rng.index(mutated.size())]);
            break;
          case 2:
            std::swap(mutated[rng.index(mutated.size())],
                      mutated[rng.index(mutated.size())]);
            break;
          default:
            rng.shuffle(mutated);
            break;
        }
        record(out, "trace/lines" + tag + std::to_string(i),
               joinLines(mutated));
      }
    }
    {
      Rng rng(seed * 83 + 4);
      const std::vector<std::string> hostile = {
          "-1",   "999999999999",         "nan", "1e9",
          "0x10", "18446744073709551616", "var", "message",
          "end",  "processes",            "",    "\t",
      };
      const auto lines = splitLines(all[rng.index(all.size())]);
      for (int i = 0; i < 20; ++i) {
        std::vector<std::string> mutated = lines;
        std::string& line = mutated[rng.index(mutated.size())];
        const std::string& token = hostile[rng.index(hostile.size())];
        const std::size_t pos = rng.index(line.size() + 1);
        line = line.substr(0, pos) + " " + token + " " + line.substr(pos);
        record(out, "trace/inject" + tag + std::to_string(i),
               joinLines(mutated));
      }
    }
  }
  const std::vector<std::string> targeted = {
      "gpd-trace 1\nprocesses 1099511627776\n",
      "gpd-trace 1\nprocesses 2\nevents 999999999 999999999\nend\n",
      "gpd-trace 1\nprocesses -3\n",
      "gpd-trace 1\nprocesses 2\nevents 1 -7\nend\n",
      "gpd-trace 1\nprocesses 2\nevents 2 2\nmessage 0 1 1 1\n"
      "message 1 1 0 1\nend\n",
  };
  for (std::size_t i = 0; i < targeted.size(); ++i) {
    record(out, "trace/targeted/" + std::to_string(i), targeted[i]);
  }
}

// ---- LintFuzz inputs (analyze/lint_test.cpp) ----

std::vector<std::string> lintFuzzCorpus() {
  std::vector<std::string> out;
  auto add = [&out](const sim::SimResult& run) {
    out.push_back(serialized(*run.computation, *run.trace));
  };
  add(sim::tokenRing({.processes = 4, .rounds = 2, .seed = 21}));
  add(sim::leaderElection({.processes = 4, .seed = 22}));
  add(sim::producerConsumer(
      {.producers = 2, .consumers = 2, .itemsPerProducer = 2, .seed = 23}));
  Rng rng(24);
  for (int i = 0; i < 3; ++i) {
    RandomComputationOptions opt;
    opt.processes = 2 + i;
    opt.eventsPerProcess = 3;
    const Computation comp = randomComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomBools(trace, "b", 0.5, rng);
    out.push_back(serialized(comp, trace));
  }
  return out;
}

void lintFuzzInputs(std::ostringstream& out) {
  const std::vector<std::string> all = lintFuzzCorpus();
  for (std::size_t i = 0; i < all.size(); ++i) {
    record(out, "lint/corpus/" + std::to_string(i), all[i]);
  }
  const std::vector<std::string> hostile = {
      "-1", "999999999999", "nan", "0x10", "var", "message", "end", "2",
  };
  for (std::uint64_t seed = 1; seed < 16; ++seed) {
    Rng rng(seed * 101 + 5);
    for (int i = 0; i < 30; ++i) {
      const std::string& text = all[rng.index(all.size())];
      std::string mutated;
      switch (rng.index(4)) {
        case 0:
          mutated = text.substr(0, rng.index(text.size() + 1));
          break;
        case 1: {
          mutated = text;
          const int flips = 1 + static_cast<int>(rng.index(4));
          for (int f = 0; f < flips; ++f) {
            mutated[rng.index(mutated.size())] =
                static_cast<char>(rng.uniform(1, 126));
          }
          break;
        }
        case 2: {
          auto lines = splitLines(text);
          switch (rng.index(3)) {
            case 0:
              lines.erase(lines.begin() + rng.index(lines.size()));
              break;
            case 1:
              lines.insert(lines.begin() + rng.index(lines.size()),
                           lines[rng.index(lines.size())]);
              break;
            default:
              std::swap(lines[rng.index(lines.size())],
                        lines[rng.index(lines.size())]);
              break;
          }
          mutated = joinLines(lines);
          break;
        }
        default: {
          auto lines = splitLines(text);
          std::string& line = lines[rng.index(lines.size())];
          const std::string& token = hostile[rng.index(hostile.size())];
          const std::size_t pos = rng.index(line.size() + 1);
          line = line.substr(0, pos) + " " + token + " " + line.substr(pos);
          mutated = joinLines(lines);
          break;
        }
      }
      record(out, "lint/mutate/" + std::to_string(seed) + "/" +
                      std::to_string(i),
             mutated);
    }
  }
}

TEST(ReaderGolden, FuzzInputsReadAndLintAsRecorded) {
  std::ostringstream out;
  traceFuzzInputs(out);
  lintFuzzInputs(out);
  const std::string actual = out.str();

  std::ifstream in(READER_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << READER_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;
  const std::string path = uniqueTempPath("reader.golden");
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
  ADD_FAILURE() << "reader transcript differs from the golden at line "
                << line << ":\n  golden: " << w << "\n  actual: " << g
                << "\nfull transcript written to " << path;
}

}  // namespace
}  // namespace gpd
