#include "verif/xici_backward.hpp"

#include "util/lint.hpp"
#include "verif/engine_run.hpp"

namespace icb {

EngineResult runXiciBackward(Fsm& fsm, const EngineOptions& options) {
  TerminationChecker checker(fsm.mgr(), options.termination);

  // Accumulates every Section III.A policy application of the run; captured
  // into the metrics registry once at run end so ratio gauges (best/worst
  // accepted) reflect the whole run, not just the last iteration.
  EvaluatePolicyResult policyTotals;

  EngineResult result = runEngine(fsm, Method::kXici, options, [&](EngineRun& run) {
    BddManager& mgr = fsm.mgr();
    obs::TraceSession& trace = run.trace();
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

    ConjunctList g0 = fsm.property(options.withAssists);
    recordPolicy(evaluateAndSimplify(g0, options.policy), 0);

    ConjunctList current = g0;
    std::vector<ConjunctList> layers{current};
    if (run.resumeLayers(g0, layers)) current = layers.back();

    while (true) {
      run.trackPeak(current);
      ICBDD_SAFE_POINT("xici loop head: g0/layers are the whole state");
      if (run.checkpointDue()) run.emitCheckpoint(layeredLists(g0, layers));

      if (run.violatedAt(layers)) break;

      // G_{i+1} = G_0 & BackImage(G_i), kept implicitly conjoined:
      // Theorem 1 turns BackImage of the list into a list of BackImages.
      if (!run.beginStep("back_image")) break;
      ConjunctList next(&mgr);
      for (const Bdd& c : g0) next.push(c);
      for (const Bdd& c : current) next.push(fsm.backImage(c));
      next.normalize();

      // Section III.A policy: simplify, then greedily evaluate conjunctions.
      recordPolicy(evaluateAndSimplify(next, options.policy),
                   run.iterations() + 1);
      // Iteration boundary: no edge-level results live, safe to reorder.
      ICBDD_SAFE_POINT("xici update complete, lists rooted in handles");
      run.endStep("back_image", [&] { return next.memberSizes(); });

      // Section III.B: exact termination test on the two implicit lists.
      const TerminationStats termBefore = checker.stats();
      const bool converged = checker.equal(next, current);
      if (trace.enabled()) {
        const TerminationStats& t = checker.stats();
        trace.emit("termination",
                   obs::JsonObject()
                       .put("iter", run.iterations())
                       .put("equal", converged)
                       .put("calls", t.tautologyCalls - termBefore.tautologyCalls)
                       .put("shannon",
                            t.shannonExpansions - termBefore.shannonExpansions));
      }
      if (converged) {
        run.result().verdict = Verdict::kHolds;
        break;
      }
      current = next;
      layers.push_back(current);
    }
  });

  result.terminationStats = checker.stats();
  result.metrics.capturePolicy(policyTotals);
  result.metrics.captureTermination(result.terminationStats);
  return result;
}

}  // namespace icb
