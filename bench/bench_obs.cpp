// A10 — observability overhead: the gpd::obs default-on contract.
//
// Instrumentation is only free to leave on if a disarmed span costs one
// relaxed atomic load and a counter bump one relaxed add. This harness
// measures three layers:
//
//   1. primitive costs (ns/op): counter add, histogram observe, a span
//      open/close while disarmed, and while armed;
//   2. the A9 gadget kernels (chain-cover exhaustion of a Theorem-1
//      gadget, lattice BFS) in the shipping state — obs compiled in but
//      disarmed — printed as machine-readable `BENCHROW obs` lines keyed by
//      the build mode, so CI can diff a default-on build against a
//      -DGPD_OBS_DISABLED=ON build of the same tree (target: < 2%);
//   3. the armed tax: the same kernels with the tracer collecting, which
//      bounds what `--trace-out` costs when actually used.
//
// Rounds are interleaved and the minimum is kept (robust to scheduler
// bursts, like bench_budget).
#include "bench_util.h"

namespace {

#ifndef GPD_OBS_DISABLED
constexpr const char* kMode = "default-on";
#else
constexpr const char* kMode = "disabled";
#endif

double nsPerOp(const std::function<void()>& fn, std::uint64_t ops) {
  double best = 1e300;
  for (int round = 0; round < 5; ++round) {
    gpd::Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsedMillis());
  }
  return best * 1e6 / static_cast<double>(ops);
}

}  // namespace

int main() {
  using namespace gpd;
  bench::banner(
      "A10 / observability overhead",
      "gpd::obs primitives and the A9 gadget kernels with obs compiled "
      "in. Compare BENCHROW lines across a default-on and a "
      "-DGPD_OBS_DISABLED=ON build: target < 2% on every kernel row.");

  obs::tracer().stop();
  obs::tracer().clear();
  obs::registry().reset();

  // --- 1. Primitive costs.
  {
    Table table({"primitive", "ns_per_op"});
    constexpr std::uint64_t kOps = 1 << 20;
    const auto fmt = [](double ns) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", ns);
      return std::string(buf);
    };
    table.row("counter-add", fmt(nsPerOp(
                                 [&] {
                                   for (std::uint64_t i = 0; i < kOps; ++i) {
                                     GPD_OBS_COUNTER_ADD("cpdhb_comparisons",
                                                         1);
                                   }
                                 },
                                 kOps)));
    table.row("histogram-observe",
              fmt(nsPerOp(
                  [&] {
                    for (std::uint64_t i = 0; i < kOps; ++i) {
                      GPD_OBS_HISTOGRAM("enumeration_combinations", i);
                    }
                  },
                  kOps)));
    table.row("span-disarmed", fmt(nsPerOp(
                                   [&] {
                                     for (std::uint64_t i = 0; i < kOps;
                                          ++i) {
                                       GPD_TRACE_SPAN("bench.disarmed");
                                     }
                                   },
                                   kOps)));
#ifndef GPD_OBS_DISABLED
    obs::tracer().start();
    constexpr std::uint64_t kArmedOps = 1 << 18;
    table.row("span-armed", fmt(nsPerOp(
                                [&] {
                                  for (std::uint64_t i = 0; i < kArmedOps;
                                       ++i) {
                                    GPD_TRACE_SPAN("bench.armed");
                                  }
                                },
                                kArmedOps)));
    obs::tracer().stop();
    obs::tracer().clear();
#endif
    table.print(std::cout);
    std::cout << '\n';
  }
  obs::registry().reset();

  // --- 2 + 3. Gadget kernels: disarmed (shipping state) and armed.
  const auto kernelRow = [&](const char* name,
                             const std::function<void()>& kernel) {
    kernel();  // warm-up, untimed
    double disarmed = 1e300;
    [[maybe_unused]] double armed = 1e300;  // only read when obs is compiled in
    for (int round = 0; round < 7; ++round) {
      {
        obs::tracer().stop();
        Stopwatch sw;
        kernel();
        disarmed = std::min(disarmed, sw.elapsedMillis());
      }
#ifndef GPD_OBS_DISABLED
      {
        obs::tracer().clear();
        obs::tracer().start();
        Stopwatch sw;
        kernel();
        armed = std::min(armed, sw.elapsedMillis());
        obs::tracer().stop();
      }
#endif
    }
    obs::tracer().clear();
    // The cross-build comparison key: same kernel label in both builds.
    bench::emitRow("obs", {{"mode", kMode},
                           {"kernel", name},
                           {"ms", bench::fmtMs(disarmed)}});
#ifndef GPD_OBS_DISABLED
    char tax[32];
    std::snprintf(tax, sizeof(tax), "%+.2f%%",
                  disarmed > 0 ? (armed - disarmed) / disarmed * 100.0 : 0.0);
    bench::emitRow("obs", {{"mode", "armed"},
                           {"kernel", name},
                           {"ms", bench::fmtMs(armed)},
                           {"armed_tax", tax}});
#endif
  };

  Rng rng(1010);

  // Chain-cover exhaustion of a Theorem-1 gadget (UNSAT formula: every
  // selection tried, every combination bumps the obs counters).
  {
    Rng gadgetRng(7);
    const sat::Cnf raw = sat::randomKCnf(3, 12, 3, gadgetRng);
    GPD_CHECK(!sat::solveDpll(raw).has_value());
    const auto simplified =
        reduction::simplifyForGadget(sat::toNonMonotone(raw).formula);
    GPD_CHECK(!simplified.unsatisfiable);
    const auto gadget = reduction::buildSatGadget(simplified.formula);
    const VectorClocks vc(*gadget.computation);
    kernelRow("chain-cover", [&] {
      const auto res = detect::detectSingularByChainCover(
          vc, *gadget.trace, gadget.predicate, nullptr);
      GPD_CHECK(!res.found && res.complete);
    });

    // The same exhaustion through the --threads 1 pool path: the A10 gate
    // bounds what the pool dispatch (chunk claiming, worker spans, the
    // atomic short-circuit watermark) adds when parallelism is requested
    // but one worker does all the work.
    par::Pool pool(1);
    kernelRow("chain-cover-pool1", [&] {
      const auto res = detect::detectSingularByChainCover(
          vc, *gadget.trace, gadget.predicate, nullptr, &pool);
      GPD_CHECK(!res.found && res.complete);
    });
  }

  // Lattice BFS over a dense random computation (one span per
  // exploration, counters amortized to one bump per run).
  {
    RandomComputationOptions opt;
    opt.processes = 5;
    opt.eventsPerProcess = 10;
    opt.messageProbability = 0.2;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    const auto visit = [](const Cut&) { return true; };
    kernelRow("lattice-bfs", [&] {
      for (int i = 0; i < 8; ++i) {
        lattice::exploreConsistentCuts(vc, visit, nullptr);
      }
    });
  }

  // Detector facade (plan + CPDHB), the hot dispatch path.
  {
    RandomComputationOptions opt;
    opt.processes = 8;
    opt.eventsPerProcess = 256;
    opt.messageProbability = 0.3;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.1, rng);
    ConjunctivePredicate pred;
    for (ProcessId p = 0; p < c.processCount(); ++p) {
      pred.terms.push_back(varTrue(p, "x"));
    }
    detect::Detector det(trace);
    kernelRow("detector-cpdhb", [&] {
      for (int i = 0; i < 64; ++i) det.possibly(pred);
    });
  }

  obs::registry().reset();
  std::cout << "\nShape check: disarmed kernel rows within 2% of the "
               "GPD_OBS_DISABLED build; the armed tax stays small because "
               "spans sit at kernel granularity, never per-cut.\n";
  return 0;
}
