#include "verif/xici_backward.hpp"

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

namespace {

void trackPeak(EngineResult& result, const ConjunctList& list) {
  const std::uint64_t nodes = list.sharedNodeCount();
  if (nodes > result.peakIterateNodes) {
    result.peakIterateNodes = nodes;
    result.peakIterateMemberSizes = list.memberSizes();
  }
}

}  // namespace

EngineResult runXiciBackward(Fsm& fsm, const EngineOptions& options) {
  fsm.validate();
  BddManager& mgr = fsm.mgr();
  EngineResult result;
  result.method = Method::kXici;
  Stopwatch watch;
  mgr.resetStats();
  LimitGuard guard(mgr, options);
  obs::TraceSession trace(options.traceSink, &mgr, options.traceWorker,
                          options.traceJob);
  trace.runBegin(methodName(result.method));

  TerminationChecker checker(mgr, options.termination);

  // Accumulates every Section III.A policy application of the run; captured
  // into the metrics registry once at run end so ratio gauges (best/worst
  // accepted) reflect the whole run, not just the last iteration.
  EvaluatePolicyResult policyTotals;
  auto recordPolicy = [&](const EvaluatePolicyResult& pol, std::uint64_t iter) {
    policyTotals.merge(pol);
    if (trace.enabled()) {
      trace.emit("policy", obs::JsonObject()
                               .put("iter", iter)
                               .put("merges", pol.merges)
                               .put("rejections", pol.rejections)
                               .put("size_before", pol.sizeBefore)
                               .put("size_after", pol.sizeAfter)
                               .put("aborted_builds", pol.abortedPairBuilds)
                               .put("rejected_ratio", pol.rejectedRatio));
    }
  };

  try {
    ConjunctList g0 = fsm.property(options.withAssists);
    recordPolicy(evaluateAndSimplify(g0, options.policy), 0);

    ConjunctList current = g0;
    std::vector<ConjunctList> layers{current};

    CheckpointEmitter ckpt(mgr, options.checkpoint, Method::kXici);
    if (const EngineSnapshot* resume = options.checkpoint.resume) {
      if (resume->method != Method::kXici || resume->lists.size() < 2) {
        throw BddUsageError("runXiciBackward: incompatible resume snapshot");
      }
      g0 = ConjunctList(&mgr, resume->lists[0]);
      layers.clear();
      for (std::size_t i = 1; i < resume->lists.size(); ++i) {
        layers.emplace_back(&mgr, resume->lists[i]);
      }
      current = layers.back();
      result.iterations = resume->iteration;
    }

    while (true) {
      trackPeak(result, current);
      ICBDD_SAFE_POINT("xici loop head: g0/layers are the whole state");
      if (ckpt.due(result.iterations)) {
        std::vector<std::vector<Bdd>> lists;
        lists.reserve(layers.size() + 1);
        lists.emplace_back(g0.begin(), g0.end());
        for (const ConjunctList& layer : layers) {
          lists.emplace_back(layer.begin(), layer.end());
        }
        ckpt.emit(result.iterations, std::move(lists));
      }

      // Violation check, member by member: S !subset L[j].  (A constant
      // FALSE member needs no special case -- init & !FALSE == init, which
      // is nonzero exactly when some start state exists to violate.)
      bool violated = false;
      for (const Bdd& c : current) {
        if (!(fsm.init() & !c).isZero()) {
          violated = true;
          break;
        }
      }
      if (violated) {
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

      // G_{i+1} = G_0 & BackImage(G_i), kept implicitly conjoined:
      // Theorem 1 turns BackImage of the list into a list of BackImages.
      trace.phaseBegin("back_image", result.iterations + 1);
      ConjunctList next(&mgr);
      for (const Bdd& c : g0) next.push(c);
      for (const Bdd& c : current) next.push(fsm.backImage(c));
      next.normalize();

      // Section III.A policy: simplify, then greedily evaluate conjunctions.
      recordPolicy(evaluateAndSimplify(next, options.policy),
                   result.iterations + 1);
      ++result.iterations;
      // Phase boundary: this step's iterate is complete; at kFull,
      // audit the whole arena before trusting it.
      ICBDD_CHECK(kFull, auditArenaCreditingTime(mgr));
      if (trace.enabled()) {
        trace.phaseEnd("back_image", result.iterations, mgr.allocatedNodes(),
                       mgr.stats().peakNodes, next.memberSizes());
      }
      // Iteration boundary: no edge-level results live, safe to reorder.
      ICBDD_SAFE_POINT("xici update complete, lists rooted in handles");
      mgr.autoReorderIfNeeded();

      // Section III.B: exact termination test on the two implicit lists.
      const TerminationStats termBefore = checker.stats();
      const bool converged = checker.equal(next, current);
      if (trace.enabled()) {
        const TerminationStats& t = checker.stats();
        trace.emit("termination",
                   obs::JsonObject()
                       .put("iter", result.iterations)
                       .put("equal", converged)
                       .put("calls", t.tautologyCalls - termBefore.tautologyCalls)
                       .put("shannon",
                            t.shannonExpansions - termBefore.shannonExpansions));
      }
      if (converged) {
        result.verdict = Verdict::kHolds;
        break;
      }
      current = next;
      layers.push_back(current);
    }
  } catch (const ResourceLimitError& err) {
    result.verdict = verdictForResourceLimit(err.kind());
    mgr.gc();
  }

  result.terminationStats = checker.stats();
  result.seconds = watch.elapsedSeconds();
  result.peakAllocatedNodes = mgr.stats().peakNodes;
  result.memBytesEstimate = mgr.bytesForNodes(result.peakAllocatedNodes);
  result.metrics.capturePolicy(policyTotals);
  result.metrics.captureBdd(mgr);
  result.metrics.captureTermination(result.terminationStats);
  trace.runEnd(verdictName(result.verdict), result.iterations, result.seconds,
               result.peakIterateNodes, result.peakAllocatedNodes);
  return result;
}

}  // namespace icb
