// Verify mutual exclusion on a token ring -- the classic example family the
// paper's introduction cites.  The property is naturally a big implicit
// conjunction of tiny conjuncts (two per cell pair, one per cell), which is
// exactly the shape the implicitly-conjoined methods are built for.
//
//   mutex_ring_verify [--cells N] [--method ...] [--bug]
//                     [--max-nodes N] [--time-limit SECONDS]
#include <cstdio>
#include <iostream>

#include "models/mutex_ring.hpp"
#include "util/cli.hpp"
#include "verif/counterexample.hpp"
#include "verif/run_all.hpp"

using namespace icb;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"cells", "method", "bug", "max-nodes",
                                  "time-limit"});
  MutexRingConfig config;
  config.cells = static_cast<unsigned>(args.getInt("cells", 4));
  config.injectBug = args.getBool("bug", false);

  EngineOptions options;
  options.maxNodes = static_cast<std::uint64_t>(args.getInt("max-nodes", 4'000'000));
  options.timeLimitSeconds = args.getDouble("time-limit", 120.0);

  const Method method = parseMethod(args.getString("method", "xici"));

  BddManager mgr;
  MutexRingModel model(mgr, config);
  const ConjunctList prop = model.fsm().property(false);
  std::printf("token ring: %u cells, bug=%s, method=%s\n", config.cells,
              config.injectBug ? "yes (token duplicated on release)" : "no",
              methodName(method));
  std::printf("property: %zu conjuncts (pairwise exclusion + token discipline)\n",
              prop.size());

  const EngineResult r =
      runMethod(model.fsm(), method, model.fdCandidates(), options);

  std::printf("\nverdict:      %s\n", verdictName(r.verdict));
  std::printf("iterations:   %u\n", r.iterations);
  std::printf("time:         %.3fs\n", r.seconds);
  std::printf("peak iterate: %llu nodes %s\n",
              static_cast<unsigned long long>(r.peakIterateNodes),
              describeMemberSizes(r).c_str());

  if (r.trace.has_value()) {
    std::printf("\ncounterexample (%zu states, I=idle W=want C=crit, *=token):\n",
                r.trace->states.size());
    std::cout << formatTrace(model.fsm(), *r.trace);
    const std::string err =
        validateTrace(model.fsm(), *r.trace, model.fsm().property(false));
    std::printf("trace replay: %s\n", err.empty() ? "valid" : err.c_str());
  }
  return r.verdict == Verdict::kHolds || r.verdict == Verdict::kViolated ? 0 : 1;
}
