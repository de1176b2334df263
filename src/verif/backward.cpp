#include "verif/backward.hpp"

#include "util/lint.hpp"
#include "verif/engine_run.hpp"

namespace icb {

EngineResult runBackward(Fsm& fsm, const EngineOptions& options) {
  return runEngine(fsm, Method::kBkwd, options, [&](EngineRun& run) {
    BddManager& mgr = fsm.mgr();
    const ConjunctList property = fsm.property(options.withAssists);
    Bdd g0 = property.evaluate();  // the monolithic conjunction

    Bdd g = g0;
    // One single-member list per iteration: the counterexample's layers.
    std::vector<ConjunctList> layers;
    layers.emplace_back(&mgr, std::vector<Bdd>{g});

    if (const EngineSnapshot* resume = run.resume([](const EngineSnapshot& s) {
          return s.lists.size() == 2 && s.lists[0].size() == 1 &&
                 !s.lists[1].empty();
        })) {
      g0 = resume->lists[0][0];
      layers.clear();
      for (const Bdd& saved : resume->lists[1]) {
        layers.emplace_back(&mgr, std::vector<Bdd>{saved});
      }
      g = resume->lists[1].back();
    }

    while (true) {
      run.trackPeak(g);
      ICBDD_SAFE_POINT("bkwd loop head: g0/layers are the whole state");
      if (run.checkpointDue()) {
        std::vector<Bdd> gs;
        gs.reserve(layers.size());
        for (const ConjunctList& layer : layers) gs.push_back(layer[0]);
        run.emitCheckpoint({{g0}, std::move(gs)});
      }

      if (run.violatedAt(layers)) break;

      if (!run.beginStep("back_image")) break;
      const Bdd next = g0 & fsm.backImage(g);
      // Iteration boundary: no edge-level results live, safe to reorder.
      ICBDD_SAFE_POINT("bkwd image complete, no raw edges outstanding");
      run.endStep("back_image",
                  [&] { return std::vector<std::uint64_t>{next.size()}; });
      if (next == g) {  // canonical form: O(1) convergence test
        run.result().verdict = Verdict::kHolds;
        break;
      }
      g = next;
      layers.emplace_back(&mgr, std::vector<Bdd>{g});
    }
  });
}

}  // namespace icb
