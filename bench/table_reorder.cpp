// Reordering benchmark (extension -- no paper counterpart): each cell builds
// a typed FIFO, deterministically scrambles the variable order away from the
// interleaving the model was constructed with, then verifies it twice --
// once with the order pinned (the paper's fixed-order regime) and once with
// growth-triggered grouped sifting enabled.  Verdicts and iteration counts
// must agree across the two regimes; the payoff shows up as a lower
// peak_allocated_nodes column in the auto-reorder rows.
#include "bench_util.hpp"
#include "models/typed_fifo.hpp"
#include "util/rng.hpp"

using namespace icb;
using namespace icb::bench;

namespace {

/// Walks the order away from the constructed interleaving with a seeded
/// sequence of adjacent swaps.  Deterministic, so the "off" and "on" cells
/// start the verification from byte-identical manager states.
void scrambleOrder(BddManager& mgr, unsigned rounds) {
  Rng rng(0x5eed);
  const unsigned nvars = mgr.varCount();
  if (nvars < 2) return;
  for (unsigned k = 0; k < rounds * nvars; ++k) {
    mgr.swapAdjacentLevels(static_cast<unsigned>(rng.below(nvars - 1)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"depth", "scramble-rounds", "jobs",
                                  "deadline", "max-nodes", "time-limit",
                                  "json"});
  const BenchCaps caps = BenchCaps::fromArgs(args);
  BenchReport report("table_reorder", args, caps);
  if (!report.jsonMode()) {
    std::printf(
        "Reordering / scrambled typed FIFO (node cap %llu, time cap %.0fs)\n\n",
        static_cast<unsigned long long>(caps.maxNodes), caps.timeLimitSeconds);
  }

  std::vector<unsigned> depths{4u, 6u};
  if (args.has("depth")) {
    depths = {static_cast<unsigned>(args.getInt("depth", 4))};
  }
  const unsigned scrambleRounds =
      static_cast<unsigned>(args.getInt("scramble-rounds", 4));

  par::VerifyScheduler scheduler(schedulerOptions(args));
  for (const unsigned depth : depths) {
    for (const bool reorder : {false, true}) {
      const std::string group = "scrambled FIFO depth " +
                                std::to_string(depth) + ", auto-reorder " +
                                (reorder ? "on" : "off");
      for (const Method m : {Method::kFwd, Method::kBkwd}) {
        scheduler.submit(
            group, m,
            [depth, m, reorder, scrambleRounds,
             &caps](const par::CellContext& ctx) {
              BddOptions bddOpts;
              bddOpts.autoReorder = reorder;
              // The scrambled FIFO blows up well before the default arming
              // thresholds: fire on 30% growth, even on a small arena.
              bddOpts.reorderTrigger = 1.3;
              bddOpts.reorderMinLiveNodes = 256;
              BddManager mgr(bddOpts);
              TypedFifoModel model(mgr, {.depth = depth, .width = 8});
              scrambleOrder(mgr, scrambleRounds);
              EngineOptions options = caps.engineOptions();
              ctx.apply(options);
              return runMethod(model.fsm(), m, model.fdCandidates(), options);
            });
      }
    }
  }
  for (const par::CellResult& cell : scheduler.run()) report.addCell(cell);
  report.print(std::cout);
  return 0;
}
