#include "verif/forward.hpp"

#include "util/lint.hpp"
#include "verif/counterexample.hpp"
#include "verif/engine_run.hpp"

namespace icb {

EngineResult runForward(Fsm& fsm, const EngineOptions& options) {
  return runEngine(fsm, Method::kFwd, options, [&](EngineRun& run) {
    EngineResult& result = run.result();
    const ConjunctList property = fsm.property(options.withAssists);
    const Bdd notGood = !property.evaluate();

    ImageComputer imager(fsm, options.image);

    Bdd reached = fsm.init();
    std::vector<Bdd> rings{fsm.init()};

    if (const EngineSnapshot* resume = run.resume([](const EngineSnapshot& s) {
          return s.lists.size() == 2 && s.lists[0].size() == 1;
        })) {
      reached = resume->lists[0][0];
      rings = resume->lists[1];
    }

    while (true) {
      run.trackPeak(reached);
      ICBDD_SAFE_POINT("fwd loop head: reached/rings are the whole state");
      if (run.checkpointDue()) run.emitCheckpoint({{reached}, rings});

      const Bdd bad = reached & notGood;
      if (!bad.isZero()) {
        result.verdict = Verdict::kViolated;
        if (options.wantTrace) {
          // Identify the first ring that touches the bad set so the trace
          // is as short as possible.
          while (rings.size() > 1 && !(rings[rings.size() - 2] & notGood).isZero()) {
            rings.pop_back();
          }
          result.trace = buildForwardTrace(fsm, rings, notGood);
        }
        break;
      }

      if (!run.beginStep("image")) break;
      const Bdd frontier = rings.back();
      const Bdd next = imager.image(frontier);
      const Bdd fresh = next & !reached;
      // Iteration boundary: no edge-level results live, safe to reorder.
      ICBDD_SAFE_POINT("fwd image complete, no raw edges outstanding");
      run.endStep("image", [&] {
        return std::vector<std::uint64_t>{reached.size(), fresh.size()};
      });
      if (fresh.isZero()) {
        result.verdict = Verdict::kHolds;
        break;
      }
      rings.push_back(fresh);
      reached |= fresh;
    }
  });
}

}  // namespace icb
