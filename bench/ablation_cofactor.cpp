// Ablation: the exact termination test's cofactor-variable choice and the
// Theorem 3 Restrict shortcut.
//
// Paper, Section III.B: "For simplicity, we are currently selecting the top
// BDD variable of the first BDD in the list"; Section V lists "choosing the
// best variable to use for cofactoring in the termination test" as untried
// future work.  Theorem 3 makes step 3 free when Restrict is the simplifier.
//
// This bench runs the full XICI verification of the Table 2 filter under
// each (choice, shortcut) combination and reports the exact test's own
// counters.
#include "bench_util.hpp"
#include "models/avg_filter.hpp"

using namespace icb;
using namespace icb::bench;

namespace {

const char* choiceName(CofactorChoice c) {
  switch (c) {
    case CofactorChoice::kTopOfFirst:
      return "top-of-first (paper)";
    case CofactorChoice::kHighestLevel:
      return "globally-topmost";
    case CofactorChoice::kMostCommon:
      return "most-common-top";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"depth", "max-nodes", "time-limit"});
  const BenchCaps caps = BenchCaps::fromArgs(args);
  const unsigned depth = static_cast<unsigned>(args.getInt("depth", 8));
  std::printf(
      "Ablation / exact-termination cofactor choice, depth-%u filter, no "
      "assists\n(node cap %llu, time cap %.0fs)\n\n",
      depth, static_cast<unsigned long long>(caps.maxNodes),
      caps.timeLimitSeconds);

  TextTable table({"Variable choice", "Thm3", "Verdict", "Time", "TautCalls",
                   "Shannon", "MaxDepth"});
  for (const CofactorChoice choice :
       {CofactorChoice::kTopOfFirst, CofactorChoice::kHighestLevel,
        CofactorChoice::kMostCommon}) {
    for (const bool shortcut : {true, false}) {
      BddManager mgr;
      AvgFilterModel model(mgr, {.depth = depth, .sampleWidth = 8});
      EngineOptions options = caps.engineOptions();
      options.termination.cofactorChoice = choice;
      options.termination.restrictShortcut = shortcut;
      const EngineResult r = runXiciBackward(model.fsm(), options);
      table.addRow({choiceName(choice), shortcut ? "on" : "off",
                    verdictName(r.verdict), formatMinSec(r.seconds),
                    std::to_string(r.terminationStats.tautologyCalls),
                    std::to_string(r.terminationStats.shannonExpansions),
                    std::to_string(r.terminationStats.maxDepth)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nExpected shape: the Theorem 3 shortcut collapses most tautology\n"
      "checks before any Shannon expansion; the variable choice shifts how\n"
      "many expansions the remaining checks need.\n");
  return 0;
}
