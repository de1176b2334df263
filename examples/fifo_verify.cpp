// Verify the typed FIFO queue (the paper's first example) from the command
// line, optionally with the injected type-leak bug to see a counterexample.
//
//   fifo_verify [--depth N] [--width W] [--method fwd|bkwd|fd|ici|xici]
//               [--bug] [--max-nodes N] [--time-limit SECONDS]
#include <cstdio>
#include <iostream>

#include "models/typed_fifo.hpp"
#include "util/cli.hpp"
#include "verif/counterexample.hpp"
#include "verif/run_all.hpp"

using namespace icb;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"depth", "width", "method", "bug",
                                  "max-nodes", "time-limit"});
  TypedFifoConfig config;
  config.depth = static_cast<unsigned>(args.getInt("depth", 5));
  config.width = static_cast<unsigned>(args.getInt("width", 8));
  config.injectBug = args.getBool("bug", false);

  EngineOptions options;
  options.maxNodes = static_cast<std::uint64_t>(args.getInt("max-nodes", 4'000'000));
  options.timeLimitSeconds = args.getDouble("time-limit", 120.0);

  const Method method = parseMethod(args.getString("method", "xici"));

  BddManager mgr;
  TypedFifoModel model(mgr, config);
  std::printf("typed FIFO: depth=%u width=%u bound=%llu bug=%s method=%s\n",
              config.depth, config.width,
              static_cast<unsigned long long>(model.bound()),
              config.injectBug ? "yes" : "no", methodName(method));
  std::printf("property: every entry stays <= %llu (one conjunct per entry)\n",
              static_cast<unsigned long long>(model.bound()));

  const EngineResult r =
      runMethod(model.fsm(), method, model.fdCandidates(), options);

  std::printf("\nverdict:      %s\n", verdictName(r.verdict));
  std::printf("iterations:   %u\n", r.iterations);
  std::printf("time:         %.3fs\n", r.seconds);
  std::printf("peak iterate: %llu nodes %s\n",
              static_cast<unsigned long long>(r.peakIterateNodes),
              describeMemberSizes(r).c_str());
  std::printf("peak memory:  ~%llu KB (%llu nodes allocated)\n",
              static_cast<unsigned long long>(r.memBytesEstimate / 1024),
              static_cast<unsigned long long>(r.peakAllocatedNodes));

  if (r.trace.has_value()) {
    std::printf("\ncounterexample (%zu states):\n", r.trace->states.size());
    std::cout << formatTrace(model.fsm(), *r.trace);
    const std::string err =
        validateTrace(model.fsm(), *r.trace, model.fsm().property(false));
    std::printf("trace replay: %s\n", err.empty() ? "valid" : err.c_str());
  }
  return r.verdict == Verdict::kHolds || r.verdict == Verdict::kViolated ? 0 : 1;
}
