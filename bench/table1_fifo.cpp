// Table 1, first block: 8-bit wide typed FIFO buffer, depths 5 and 10.
//
// Paper reference values (Sun 4/75, CMU BDD package):
//   depth  5: Fwd 543 nodes/6 iter, Bkwd 543/1, ICI 41 (5x9), XICI 41 (5x9)
//   depth 10: Fwd 32767/11, Bkwd 32767/1, ICI 81 (10x9), XICI 81 (10x9)
// Expected shape: Fwd/Bkwd peak nodes grow exponentially with the depth;
// ICI/XICI stay at depth x 9 with one iteration.
#include "bench_util.hpp"
#include "models/typed_fifo.hpp"

using namespace icb;
using namespace icb::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, bench::tableFlags({"depth"}));
  const BenchCaps caps = BenchCaps::fromArgs(args);
  const BddOptions bddOpts = bddOptions(args);
  BenchReport report("table1_fifo", args, caps);
  if (!report.jsonMode()) {
    std::printf("Table 1 / typed FIFO (node cap %llu, time cap %.0fs)\n\n",
                static_cast<unsigned long long>(caps.maxNodes),
                caps.timeLimitSeconds);
  }

  // --depth runs a single configuration (CI uses a small one); the default
  // is the paper's depth {5, 10} pair.
  std::vector<unsigned> depths{5u, 10u};
  if (args.has("depth")) {
    depths = {static_cast<unsigned>(args.getInt("depth", 5))};
  }

  par::VerifyScheduler scheduler(schedulerOptions(args));
  for (const unsigned depth : depths) {
    const std::string group =
        "8-bit wide typed FIFO buffer, depth " + std::to_string(depth);
    for (const Method m :
         {Method::kFwd, Method::kBkwd, Method::kIci, Method::kXici}) {
      scheduler.submit(group, m,
                       [depth, m, &caps, &bddOpts](const par::CellContext& ctx) {
        BddManager mgr(bddOpts);
        TypedFifoModel model(mgr, {.depth = depth, .width = 8});
        EngineOptions options = caps.engineOptions();
        ctx.apply(options);
        return runMethod(model.fsm(), m, model.fdCandidates(), options);
      });
    }
  }
  for (const par::CellResult& cell : scheduler.run()) report.addCell(cell);
  report.print(std::cout);
  return 0;
}
