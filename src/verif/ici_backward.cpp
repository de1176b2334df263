#include "verif/ici_backward.hpp"

#include <algorithm>
#include <set>

#include "ici/simplify.hpp"
#include "util/lint.hpp"
#include "verif/engine_run.hpp"

namespace icb {

namespace {

/// Restrict-based cross-simplification that keeps every position in place
/// (members may become constant TRUE but are never dropped): the original
/// ICI pairs list positions with the user's partition across iterations, so
/// the list length must stay pinned.
void simplifyPositionwise(ConjunctList& list, const SimplifyOptions& options) {
  for (unsigned pass = 0; pass < options.maxPasses; ++pass) {
    bool changed = false;
    std::vector<std::uint64_t> sizes = list.memberSizes();
    for (std::size_t i = 0; i < list.size(); ++i) {
      Bdd current = list[i];
      if (current.isConstant()) continue;
      for (std::size_t j = 0; j < list.size(); ++j) {
        if (i == j || list[j].isConstant()) continue;
        if (options.smallerOnly && sizes[j] > sizes[i]) continue;
        const Bdd simplified = current.restrictBy(list[j]);
        if (simplified == current) continue;
        const std::uint64_t newSize = simplified.size();
        if (options.keepOnlyShrinking && newSize >= sizes[i] &&
            !simplified.isConstant()) {
          continue;
        }
        current = simplified;
        sizes[i] = newSize;
        changed = true;
        if (current.isConstant()) break;
      }
      if (current != list[i]) list.replace(i, current);
    }
    if (!changed) break;
  }
}

}  // namespace

EngineResult runIciBackward(Fsm& fsm, const EngineOptions& options) {
  return runEngine(fsm, Method::kIci, options, [&](EngineRun& run) {
    BddManager& mgr = fsm.mgr();
    // The user-supplied partition, positions fixed for the whole run.
    std::vector<Bdd> g0items = fsm.invariantConjuncts();
    if (options.withAssists) {
      const auto& assists = fsm.assistConjuncts();
      g0items.insert(g0items.end(), assists.begin(), assists.end());
    }
    ConjunctList g0(&mgr, g0items);
    const SimplifyOptions simplify = options.policy.simplify;

    ConjunctList current = g0;
    simplifyPositionwise(current, simplify);
    std::vector<ConjunctList> layers{current};
    if (run.resumeLayers(g0, layers)) current = layers.back();

    // Signatures of every list seen so far.  The G_i semantics are monotone
    // (G_{i+1} subset G_i), so revisiting ANY earlier syntactic form proves
    // the chain went flat in between -- a cheap, sound convergence test even
    // when Restrict makes the forms oscillate around the fixpoint.
    auto signatureOf = [](const ConjunctList& list) {
      std::vector<Edge> sig;
      sig.reserve(list.size());
      for (const Bdd& c : list) sig.push_back(c.edge());
      std::sort(sig.begin(), sig.end());
      return sig;
    };
    // Seeded from every restored layer on resume, so the cycle check keeps
    // its full pre-checkpoint history.
    std::set<std::vector<Edge>> seen;
    for (const ConjunctList& layer : layers) seen.insert(signatureOf(layer));

    while (true) {
      run.trackPeak(current);
      ICBDD_SAFE_POINT("ici loop head: g0/layers are the whole state");
      if (run.checkpointDue()) run.emitCheckpoint(layeredLists(g0, layers));

      if (run.violatedAt(layers)) break;

      // Positionwise update against the original partition:
      //   L'[j] = G_0[j] & BackImage(L[j]),
      // with each incoming BackImage first simplified against every member
      // of the user's partition (each G_0[k] is a care set for the whole
      // conjunction).  When the partition is inductive -- the "assisting
      // invariants" setup of Table 1 -- this collapses BackImages that are
      // implied by other members to TRUE, keeping positions from absorbing
      // their neighbours' relations.
      if (!run.beginStep("back_image")) break;
      ConjunctList next(&mgr);
      for (std::size_t j = 0; j < current.size(); ++j) {
        Bdd back = current[j].isOne() ? mgr.one() : fsm.backImage(current[j]);
        for (std::size_t k = 0; k < g0.size() && !back.isConstant(); ++k) {
          const Bdd simplified = back.restrictBy(g0[k]);
          if (simplified.isConstant() || simplified.size() < back.size()) {
            back = simplified;
          }
        }
        next.push(g0[j] & back);
      }
      simplifyPositionwise(next, simplify);
      // Iteration boundary: no edge-level results live, safe to reorder
      // (the signature set below stores Edge values, which a sift preserves).
      ICBDD_SAFE_POINT("ici update complete, lists rooted in handles");
      run.endStep("back_image", [&] { return next.memberSizes(); });

      // Fast syntactic convergence test (the CAV'93-style one), extended
      // with the cycle check described above.
      if (!seen.insert(signatureOf(next)).second) {
        run.result().verdict = Verdict::kHolds;
        break;
      }
      current = next;
      layers.push_back(current);
    }
  });
}

}  // namespace icb
