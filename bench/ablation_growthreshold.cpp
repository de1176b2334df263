// Ablation: the Figure 1 GrowThreshold.
//
// The paper fixes GrowThreshold = 1.5 and notes (Section V): "We have not,
// for example, investigated finding the best GrowThreshold in the evaluation
// algorithm ... a smaller threshold holds BDD size down, but can get caught
// in a local minimum, whereas any threshold greater than 1 could
// theoretically allow us to build exponentially-sized BDDs."
//
// This bench sweeps the threshold on the Table 2 workload (filter without
// assists, where the policy does the real work) and reports verdict, peak
// iterate size and time per setting.
#include "bench_util.hpp"
#include "models/avg_filter.hpp"

using namespace icb;
using namespace icb::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"depth", "max-nodes", "time-limit"});
  const BenchCaps caps = BenchCaps::fromArgs(args);
  const unsigned depth = static_cast<unsigned>(args.getInt("depth", 8));
  std::printf(
      "Ablation / Figure 1 GrowThreshold sweep on the depth-%u filter, no "
      "assists\n(node cap %llu, time cap %.0fs)\n\n",
      depth, static_cast<unsigned long long>(caps.maxNodes),
      caps.timeLimitSeconds);

  TextTable table(
      {"GrowThreshold", "Verdict", "Time", "Iter", "Peak nodes", "Breakdown"});
  for (const double threshold : {0.8, 1.0, 1.2, 1.5, 2.0, 4.0, 16.0}) {
    BddManager mgr;
    AvgFilterModel model(mgr, {.depth = depth, .sampleWidth = 8});
    EngineOptions options = caps.engineOptions();
    options.policy.growThreshold = threshold;
    const EngineResult r = runXiciBackward(model.fsm(), options);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", threshold);
    table.addRow({buf, verdictName(r.verdict), formatMinSec(r.seconds),
                  std::to_string(r.iterations),
                  std::to_string(r.peakIterateNodes),
                  describeMemberSizes(r)});
  }
  table.print(std::cout);
  std::printf(
      "\nExpected shape: thresholds near the paper's 1.5 keep the list\n"
      "multi-conjunct and small; very large thresholds force full\n"
      "evaluation (degenerating toward monolithic backward traversal),\n"
      "very small ones refuse even profitable merges.\n");
  return 0;
}
