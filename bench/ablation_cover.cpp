// Ablation: greedy pairwise merging (Figure 1) vs. the Theorem 2 optimum.
//
// Theorem 2 shows the minimum-cost PAIRWISE cover is polynomial, but the
// paper dismisses it: "in reality, for efficient BDD implementations, BDD
// sizes do not add, since all BDDs in the system can share nodes ... Thus,
// we turn to a greedy heuristic."  This bench quantifies that argument:
// on conjunct lists drawn from the paper's own models it compares
//   * the greedy policy's resulting shared size, against
//   * the exact additive-model optimum's additive cost AND its *actual*
//     shared size once node sharing is counted.
#include "bench_util.hpp"
#include "ici/evaluate_policy.hpp"
#include "ici/pair_cover.hpp"
#include "models/avg_filter.hpp"
#include "models/network.hpp"
#include "models/typed_fifo.hpp"

using namespace icb;
using namespace icb::bench;

namespace {

void compare(TextTable& table, const std::string& label, ConjunctList list) {
  const std::uint64_t before = list.sharedNodeCount();

  PairCoverResult exact = optimalPairCover(list);
  ConjunctList exactApplied = applyPairCover(list, exact);

  ConjunctList greedy = list;
  EvaluatePolicyOptions options;
  options.simplifyFirst = false;  // isolate the merging decision
  greedyEvaluate(greedy, options);

  table.addRow({label, std::to_string(list.size()), std::to_string(before),
                std::to_string(greedy.sharedNodeCount()),
                std::to_string(exact.additiveCost),
                std::to_string(exactApplied.sharedNodeCount())});
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {});
  (void)args;
  std::printf(
      "Ablation / greedy (Figure 1) vs exact pairwise cover (Theorem 2)\n\n");

  TextTable table({"Workload", "Conjuncts", "List size", "Greedy shared",
                   "Exact additive", "Exact shared"});

  {
    BddManager mgr;
    TypedFifoModel model(mgr, {.depth = 8, .width = 8});
    compare(table, "fifo-8 invariants", model.fsm().property(false));
  }
  {
    BddManager mgr;
    NetworkModel model(mgr, {.processors = 5});
    compare(table, "network-5 invariants", model.fsm().property(false));
  }
  {
    BddManager mgr;
    AvgFilterModel model(mgr, {.depth = 8, .sampleWidth = 8});
    compare(table, "filter-8 w/ assists", model.fsm().property(true));
  }
  {
    // The backward iterate where merging decisions actually matter: the
    // property plus the BackImages of its members after one step.
    BddManager mgr;
    AvgFilterModel model(mgr, {.depth = 8, .sampleWidth = 8});
    ConjunctList list = model.fsm().property(true);
    ConjunctList grown(&mgr);
    for (const Bdd& c : list) grown.push(c);
    for (const Bdd& c : list) grown.push(model.fsm().backImage(c));
    grown.normalize();
    compare(table, "filter-8 iterate", grown);
  }

  table.print(std::cout);
  std::printf(
      "\nReading the table: the exact cover optimizes the ADDITIVE model;\n"
      "its 'Exact shared' column (what memory actually costs under node\n"
      "sharing) is routinely no better than the greedy result -- the\n"
      "paper's stated reason for preferring the heuristic.\n");
  return 0;
}
