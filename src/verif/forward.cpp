#include "verif/forward.hpp"

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

EngineResult runForward(Fsm& fsm, const EngineOptions& options) {
  fsm.validate();
  BddManager& mgr = fsm.mgr();
  EngineResult result;
  result.method = Method::kFwd;
  Stopwatch watch;
  mgr.resetStats();
  LimitGuard guard(mgr, options);
  obs::TraceSession trace(options.traceSink, &mgr, options.traceWorker,
                          options.traceJob);
  trace.runBegin(methodName(result.method));

  try {
    const ConjunctList property = fsm.property(options.withAssists);
    const Bdd notGood = !property.evaluate();

    ImageComputer imager(fsm, options.image);

    Bdd reached = fsm.init();
    std::vector<Bdd> rings{fsm.init()};

    CheckpointEmitter ckpt(mgr, options.checkpoint, Method::kFwd);
    if (const EngineSnapshot* resume = options.checkpoint.resume) {
      if (resume->method != Method::kFwd || resume->lists.size() != 2 ||
          resume->lists[0].size() != 1) {
        throw BddUsageError("runForward: incompatible resume snapshot");
      }
      reached = resume->lists[0][0];
      rings = resume->lists[1];
      result.iterations = resume->iteration;
    }

    while (true) {
      result.peakIterateNodes =
          std::max(result.peakIterateNodes, reached.size());
      ICBDD_SAFE_POINT("fwd loop head: reached/rings are the whole state");
      if (ckpt.due(result.iterations)) {
        ckpt.emit(result.iterations, {{reached}, rings});
      }

      const Bdd bad = reached & notGood;
      if (!bad.isZero()) {
        result.verdict = Verdict::kViolated;
        if (options.wantTrace) {
          // Identify the first ring that touches the bad set so the trace
          // is as short as possible.
          while (rings.size() > 1 && !(rings[rings.size() - 2] & notGood).isZero()) {
            rings.pop_back();
          }
          std::vector<Bdd> trimmed(rings.begin(), rings.end());
          result.trace = buildForwardTrace(fsm, trimmed, notGood);
        }
        break;
      }

      if (result.iterations >= options.maxIterations) {
        result.verdict = Verdict::kIterationLimit;
        break;
      }

      trace.phaseBegin("image", result.iterations + 1);
      const Bdd frontier = rings.back();
      const Bdd next = imager.image(frontier);
      const Bdd fresh = next & !reached;
      ++result.iterations;
      // Phase boundary: this step's iterate is complete; at kFull,
      // audit the whole arena before trusting it.
      ICBDD_CHECK(kFull, auditArenaCreditingTime(mgr));
      if (trace.enabled()) {
        const std::uint64_t sizes[] = {reached.size(), fresh.size()};
        trace.phaseEnd("image", result.iterations, mgr.allocatedNodes(),
                       mgr.stats().peakNodes, sizes);
      }
      // Iteration boundary: no edge-level results live, safe to reorder.
      ICBDD_SAFE_POINT("fwd image complete, no raw edges outstanding");
      mgr.autoReorderIfNeeded();
      if (fresh.isZero()) {
        result.verdict = Verdict::kHolds;
        break;
      }
      rings.push_back(fresh);
      reached |= fresh;
    }
  } catch (const ResourceLimitError& err) {
    result.verdict = verdictForResourceLimit(err.kind());
    mgr.gc();  // reclaim orphaned intermediates so the manager stays usable
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
