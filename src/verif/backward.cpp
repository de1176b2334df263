#include "verif/backward.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "check/structural_checker.hpp"
#include "obs/trace.hpp"
#include "util/lint.hpp"
#include "util/timer.hpp"
#include "verif/checkpoint.hpp"
#include "verif/counterexample.hpp"
#include "verif/limit_guard.hpp"

namespace icb {

EngineResult runBackward(Fsm& fsm, const EngineOptions& options) {
  fsm.validate();
  BddManager& mgr = fsm.mgr();
  EngineResult result;
  result.method = Method::kBkwd;
  Stopwatch watch;
  mgr.resetStats();
  LimitGuard guard(mgr, options);
  obs::TraceSession trace(options.traceSink, &mgr, options.traceWorker,
                          options.traceJob);
  trace.runBegin(methodName(result.method));

  try {
    const ConjunctList property = fsm.property(options.withAssists);
    Bdd g0 = property.evaluate();  // the monolithic conjunction

    Bdd g = g0;
    std::vector<ConjunctList> layers;
    layers.emplace_back(&mgr, std::vector<Bdd>{g});

    CheckpointEmitter ckpt(mgr, options.checkpoint, Method::kBkwd);
    if (const EngineSnapshot* resume = options.checkpoint.resume) {
      if (resume->method != Method::kBkwd || resume->lists.size() != 2 ||
          resume->lists[0].size() != 1 || resume->lists[1].empty()) {
        throw BddUsageError("runBackward: incompatible resume snapshot");
      }
      g0 = resume->lists[0][0];
      layers.clear();
      for (const Bdd& saved : resume->lists[1]) {
        layers.emplace_back(&mgr, std::vector<Bdd>{saved});
      }
      g = resume->lists[1].back();
      result.iterations = resume->iteration;
    }

    while (true) {
      result.peakIterateNodes = std::max(result.peakIterateNodes, g.size());
      ICBDD_SAFE_POINT("bkwd loop head: g0/layers are the whole state");
      if (ckpt.due(result.iterations)) {
        std::vector<Bdd> gs;
        gs.reserve(layers.size());
        for (const ConjunctList& layer : layers) gs.push_back(layer[0]);
        ckpt.emit(result.iterations, {{g0}, std::move(gs)});
      }

      if (!(fsm.init() & !g).isZero()) {
        result.verdict = Verdict::kViolated;
        if (options.wantTrace) {
          result.trace = buildBackwardTrace(fsm, layers);
        }
        break;
      }

      if (result.iterations >= options.maxIterations) {
        result.verdict = Verdict::kIterationLimit;
        break;
      }

      trace.phaseBegin("back_image", result.iterations + 1);
      const Bdd next = g0 & fsm.backImage(g);
      ++result.iterations;
      // Phase boundary: this step's iterate is complete; at kFull,
      // audit the whole arena before trusting it.
      ICBDD_CHECK(kFull, auditArenaCreditingTime(mgr));
      if (trace.enabled()) {
        const std::uint64_t sizes[] = {next.size()};
        trace.phaseEnd("back_image", result.iterations, mgr.allocatedNodes(),
                       mgr.stats().peakNodes, sizes);
      }
      // Iteration boundary: no edge-level results live, safe to reorder.
      ICBDD_SAFE_POINT("bkwd image complete, no raw edges outstanding");
      mgr.autoReorderIfNeeded();
      if (next == g) {  // canonical form: O(1) convergence test
        result.verdict = Verdict::kHolds;
        break;
      }
      g = next;
      layers.emplace_back(&mgr, std::vector<Bdd>{g});
    }
  } catch (const ResourceLimitError& err) {
    result.verdict = verdictForResourceLimit(err.kind());
    mgr.gc();
  }

  result.seconds = watch.elapsedSeconds();
  result.peakAllocatedNodes = mgr.stats().peakNodes;
  result.memBytesEstimate = mgr.bytesForNodes(result.peakAllocatedNodes);
  result.metrics.captureBdd(mgr);
  trace.runEnd(verdictName(result.verdict), result.iterations, result.seconds,
               result.peakIterateNodes, result.peakAllocatedNodes);
  return result;
}

}  // namespace icb
