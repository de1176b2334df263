// Prove the pipelined moving-average filter equivalent to its specification
// (the paper's Figure 2 example), with or without the user-supplied
// assisting invariants -- run without them and watch XICI derive the
// per-layer lemmas automatically (the paper's Table 2 headline).
//
//   filter_equivalence [--depth 4|8|16] [--sample-width W] [--assist]
//                      [--method ...] [--bug] [--max-nodes N]
//                      [--time-limit SECONDS]
#include <cstdio>
#include <iostream>

#include "models/avg_filter.hpp"
#include "util/cli.hpp"
#include "verif/counterexample.hpp"
#include "verif/run_all.hpp"

using namespace icb;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"depth", "sample-width", "method", "assist",
                                  "bug", "max-nodes", "time-limit"});
  AvgFilterConfig config;
  config.depth = static_cast<unsigned>(args.getInt("depth", 4));
  config.sampleWidth = static_cast<unsigned>(args.getInt("sample-width", 8));
  config.injectBug = args.getBool("bug", false);

  EngineOptions options;
  options.withAssists = args.getBool("assist", false);
  options.maxNodes = static_cast<std::uint64_t>(args.getInt("max-nodes", 8'000'000));
  options.timeLimitSeconds = args.getDouble("time-limit", 300.0);

  const Method method = parseMethod(args.getString("method", "xici"));

  BddManager mgr;
  AvgFilterModel model(mgr, config);
  std::printf(
      "moving-average filter: depth=%u (%u adder layers) samples=%u bits\n",
      config.depth, model.layers(), config.sampleWidth);
  std::printf("assisting invariants: %s; method=%s; bug=%s\n",
              options.withAssists ? "supplied by user" : "none (automatic)",
              methodName(method), config.injectBug ? "yes" : "no");

  const EngineResult r =
      runMethod(model.fsm(), method, model.fdCandidates(), options);

  std::printf("\nverdict:      %s\n", verdictName(r.verdict));
  std::printf("iterations:   %u\n", r.iterations);
  std::printf("time:         %.3fs\n", r.seconds);
  std::printf("peak iterate: %llu nodes %s\n",
              static_cast<unsigned long long>(r.peakIterateNodes),
              describeMemberSizes(r).c_str());
  if (!options.withAssists && method == Method::kXici &&
      r.peakIterateMemberSizes.size() > 1) {
    std::printf(
        "note: the %zu-conjunct breakdown above is the per-layer lemma list\n"
        "the evaluation policy derived on its own -- the same invariants a\n"
        "user would have had to write by hand for the original ICI method.\n",
        r.peakIterateMemberSizes.size());
  }
  if (r.trace.has_value()) {
    std::printf("\ncounterexample (%zu states):\n", r.trace->states.size());
    std::cout << formatTrace(model.fsm(), *r.trace);
    const std::string err =
        validateTrace(model.fsm(), *r.trace, model.fsm().property(false));
    std::printf("trace replay: %s\n", err.empty() ? "valid" : err.c_str());
  }
  return r.verdict == Verdict::kHolds || r.verdict == Verdict::kViolated ? 0 : 1;
}
