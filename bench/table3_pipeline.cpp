// Table 3: pipelined processor vs. non-pipelined specification, for
// (registers, datapath-width) in {(2,1), (2,2), (2,3), (4,1)}.
//
// Paper reference values:
//   (2,1): Fwd 284745/4, Bkwd 10745/4, ICI 10745/4, XICI 10745/4
//   (2,2): only XICI finishes: 8485 (45,441,1345,6657)/4
//   (2,3): only XICI finishes: 57510 (189,2503,9591,45230)/4
//   (4,1): only XICI finishes: 12947 (45,849,1290,10767)/4
// Expected shape: every method handles the smallest configuration; widening
// the datapath or doubling the register file kills the monolithic methods
// (and ICI with them -- per-register equality is not a useful partition)
// while XICI keeps finishing.
#include "bench_util.hpp"
#include "models/pipeline_cpu.hpp"

using namespace icb;
using namespace icb::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, bench::tableFlags({}));
  BenchCaps caps = BenchCaps::fromArgs(args);
  const BddOptions bddOpts = bddOptions(args);
  if (!args.has("max-nodes")) {
    caps.maxNodes = 32'000'000;  // the (4,1) XICI run peaks near 8M nodes
  }
  BenchReport report("table3_pipeline", args, caps);
  if (!report.jsonMode()) {
    std::printf(
        "Table 3 / pipelined processor (node cap %llu, time cap %.0fs)\n\n",
        static_cast<unsigned long long>(caps.maxNodes), caps.timeLimitSeconds);
  }

  struct Config {
    unsigned registers;
    unsigned width;
  };
  // The paper's four configurations plus (4,2): on modern hardware with
  // partitioned relational images every method survives the 1994 sizes, so
  // the row where the monolithic iterate visibly outgrows the implicit list
  // sits one notch higher today.
  par::VerifyScheduler scheduler(schedulerOptions(args));
  for (const Config cfg :
       {Config{2, 1}, Config{2, 2}, Config{2, 3}, Config{4, 1},
        Config{4, 2}}) {
    const std::string group = std::to_string(cfg.registers) + " registers, " +
                              std::to_string(cfg.width) + "-bit datapath";
    for (const Method m :
         {Method::kFwd, Method::kBkwd, Method::kIci, Method::kXici}) {
      scheduler.submit(group, m, [cfg, m, &caps, &bddOpts](const par::CellContext& ctx) {
        BddManager mgr(bddOpts);
        PipelineCpuModel model(
            mgr, {.registers = cfg.registers, .width = cfg.width});
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
