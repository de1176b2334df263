// Verify the 3-stage pipelined processor against its non-pipelined
// specification (the paper's Figure 3 / Table 3 example).  --bug removes the
// register bypass path; the counterexample then shows the classic
// back-to-back data hazard.
//
//   pipeline_verify [--registers 2|4] [--width B] [--method ...] [--bug]
//                   [--max-nodes N] [--time-limit SECONDS]
#include <cstdio>
#include <iostream>

#include "models/pipeline_cpu.hpp"
#include "util/cli.hpp"
#include "verif/counterexample.hpp"
#include "verif/run_all.hpp"

using namespace icb;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"registers", "width", "method", "bug",
                                  "max-nodes", "time-limit"});
  PipelineCpuConfig config;
  config.registers = static_cast<unsigned>(args.getInt("registers", 2));
  config.width = static_cast<unsigned>(args.getInt("width", 1));
  config.injectBug = args.getBool("bug", false);

  EngineOptions options;
  options.maxNodes = static_cast<std::uint64_t>(args.getInt("max-nodes", 8'000'000));
  options.timeLimitSeconds = args.getDouble("time-limit", 300.0);

  const Method method = parseMethod(args.getString("method", "xici"));

  BddManager mgr;
  PipelineCpuModel model(mgr, config);
  std::printf(
      "pipelined CPU vs spec: %u registers, %u-bit datapath, bypass %s\n",
      config.registers, config.width,
      config.injectBug ? "REMOVED (bug)" : "present");
  std::printf("method=%s; property: register files always agree\n",
              methodName(method));

  const EngineResult r =
      runMethod(model.fsm(), method, model.fdCandidates(), options);

  std::printf("\nverdict:      %s\n", verdictName(r.verdict));
  std::printf("iterations:   %u\n", r.iterations);
  std::printf("time:         %.3fs\n", r.seconds);
  std::printf("peak iterate: %llu nodes %s\n",
              static_cast<unsigned long long>(r.peakIterateNodes),
              describeMemberSizes(r).c_str());
  std::printf("peak memory:  ~%llu KB\n",
              static_cast<unsigned long long>(r.memBytesEstimate / 1024));

  if (r.trace.has_value()) {
    std::printf("\ncounterexample (%zu states):\n", r.trace->states.size());
    std::cout << formatTrace(model.fsm(), *r.trace);
    const std::string err =
        validateTrace(model.fsm(), *r.trace, model.fsm().property(false));
    std::printf("trace replay: %s\n", err.empty() ? "valid" : err.c_str());
  }
  return r.verdict == Verdict::kHolds || r.verdict == Verdict::kViolated ? 0 : 1;
}
