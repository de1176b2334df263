// Table 1, third block: 8-bit moving-average filter WITH user-supplied
// assisting invariants, depths 4, 8, 16.
//
// Paper reference values:
//   depth  4: Fwd 11267/3, Bkwd 490/1, ICI 146 (102,45)/1, XICI same
//   depth  8: Fwd exceeded 60MB, Bkwd exceeded 40min,
//             ICI 638 (390,169,81)/1, XICI same
//   depth 16: ICI 2558 (1501,629,290,141)/1, XICI same
// Expected shape: with the per-layer lemmas supplied, both implicit-
// conjunction methods converge in one iteration with a small list per adder
// layer, while the monolithic traversals die on the larger depths.
#include "bench_util.hpp"
#include "models/avg_filter.hpp"

using namespace icb;
using namespace icb::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, bench::tableFlags({}));
  const BenchCaps caps = BenchCaps::fromArgs(args);
  const BddOptions bddOpts = bddOptions(args);
  BenchReport report("table1_filter", args, caps);
  if (!report.jsonMode()) {
    std::printf(
        "Table 1 / moving-average filter WITH assisting invariants\n"
        "(node cap %llu, time cap %.0fs)\n\n",
        static_cast<unsigned long long>(caps.maxNodes), caps.timeLimitSeconds);
  }

  par::VerifyScheduler scheduler(schedulerOptions(args));
  for (const unsigned depth : {4u, 8u, 16u}) {
    const std::string group = "filter depth " + std::to_string(depth) +
                              ", 8-bit samples, assists supplied";
    for (const Method m :
         {Method::kFwd, Method::kBkwd, Method::kIci, Method::kXici}) {
      scheduler.submit(group, m, [depth, m, &caps, &bddOpts](const par::CellContext& ctx) {
        BddManager mgr(bddOpts);
        AvgFilterModel model(mgr, {.depth = depth, .sampleWidth = 8});
        EngineOptions options = caps.engineOptions();
        options.withAssists = true;
        ctx.apply(options);
        return runMethod(model.fsm(), m, model.fdCandidates(), options);
      });
    }
  }
  for (const par::CellResult& cell : scheduler.run()) report.addCell(cell);
  report.print(std::cout);
  return 0;
}
