// Ablation: pairwise Restrict cross-simplification (the paper's policy) vs.
// the simultaneous multi-care-set Restrict the paper wishes for in SS V
// ("What's needed, therefore, is a routine that simplifies using multiple
// BDDs simultaneously").
//
// Runs the full XICI verification of the Table 2 and Table 3 workloads with
// each simplification mode and reports verdict / time / peak iterate.
#include <functional>

#include "bench_util.hpp"
#include "models/avg_filter.hpp"
#include "models/mutex_ring.hpp"
#include "models/pipeline_cpu.hpp"

using namespace icb;
using namespace icb::bench;

namespace {

void runBoth(TextTable& table, const std::string& label,
             const std::function<EngineResult(bool)>& run) {
  for (const bool simultaneous : {false, true}) {
    const EngineResult r = run(simultaneous);
    std::string nodes = std::to_string(r.peakIterateNodes);
    const std::string breakdown = describeMemberSizes(r);
    if (!breakdown.empty()) nodes += " " + breakdown;
    table.addRow({label, simultaneous ? "simultaneous" : "pairwise",
                  verdictName(r.verdict), formatMinSec(r.seconds),
                  std::to_string(r.iterations), nodes});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"max-nodes", "time-limit"});
  const BenchCaps caps = BenchCaps::fromArgs(args);
  std::printf(
      "Ablation / pairwise vs simultaneous Restrict in the XICI policy\n"
      "(node cap %llu, time cap %.0fs)\n\n",
      static_cast<unsigned long long>(caps.maxNodes), caps.timeLimitSeconds);

  TextTable table({"Workload", "Simplify", "Verdict", "Time", "Iter",
                   "Peak nodes"});

  runBoth(table, "filter-8 no assists", [&](bool simultaneous) {
    BddManager mgr;
    AvgFilterModel model(mgr, {.depth = 8, .sampleWidth = 8});
    EngineOptions options = caps.engineOptions();
    options.policy.simplify.simultaneous = simultaneous;
    return runXiciBackward(model.fsm(), options);
  });

  runBoth(table, "filter-16 no assists", [&](bool simultaneous) {
    BddManager mgr;
    AvgFilterModel model(mgr, {.depth = 16, .sampleWidth = 8});
    EngineOptions options = caps.engineOptions();
    options.policy.simplify.simultaneous = simultaneous;
    return runXiciBackward(model.fsm(), options);
  });

  runBoth(table, "pipeline 2R 2B", [&](bool simultaneous) {
    BddManager mgr;
    PipelineCpuModel model(mgr, {.registers = 2, .width = 2});
    EngineOptions options = caps.engineOptions();
    options.policy.simplify.simultaneous = simultaneous;
    return runXiciBackward(model.fsm(), options);
  });

  runBoth(table, "mutex ring 8", [&](bool simultaneous) {
    BddManager mgr;
    MutexRingModel model(mgr, {.cells = 8});
    EngineOptions options = caps.engineOptions();
    options.policy.simplify.simultaneous = simultaneous;
    return runXiciBackward(model.fsm(), options);
  });

  table.print(std::cout);
  std::printf(
      "\nExpected shape: identical verdicts; the simultaneous mode can only\n"
      "tighten the lists (same contract, sharper care information), at some\n"
      "cost per pass from the uncached multi-way recursion.\n");
  return 0;
}
