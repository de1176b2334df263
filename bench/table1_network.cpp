// Table 1, second block: processors sending messages through a
// non-order-preserving network, 4 and 7 processors.
//
// Paper reference values:
//   4 procs: Fwd 1198/9, Bkwd 994/1, FD 41/9, ICI 245 (4x62), XICI 245
//   7 procs: Fwd 88647/15, Bkwd 61861/1, FD 169/15, ICI 1086 (7x156), XICI same
// Expected shape: the monolithic representations (Fwd, Bkwd) carry the
// cross-product of the per-processor counting relations and grow steeply
// with the processor count; FD's factored form and the ICI/XICI lists stay
// near-linear.
#include "bench_util.hpp"
#include "models/network.hpp"

using namespace icb;
using namespace icb::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, bench::tableFlags({}));
  BenchCaps caps = BenchCaps::fromArgs(args);
  const BddOptions bddOpts = bddOptions(args);
  if (!args.has("time-limit")) {
    caps.timeLimitSeconds = 240.0;  // the Fwd/FD rows are iteration-heavy
  }
  BenchReport report("table1_network", args, caps);
  if (!report.jsonMode()) {
    std::printf(
        "Table 1 / processors & network (node cap %llu, time cap %.0fs)\n\n",
        static_cast<unsigned long long>(caps.maxNodes), caps.timeLimitSeconds);
  }

  par::VerifyScheduler scheduler(schedulerOptions(args));
  for (const unsigned procs : {4u, 7u}) {
    const std::string group = std::to_string(procs) + " processors, " +
                              std::to_string(procs) + "-slot network";
    for (const Method m : allMethods()) {
      scheduler.submit(group, m, [procs, m, &caps, &bddOpts](const par::CellContext& ctx) {
        BddManager mgr(bddOpts);
        NetworkModel model(mgr, {.processors = procs});
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
