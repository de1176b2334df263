#include "verif/fd_forward.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "sym/image.hpp"
#include "util/lint.hpp"
#include "verif/engine_run.hpp"

namespace icb {

namespace {

struct Dep {
  unsigned bit;  ///< state-bit index
  Bdd h;         ///< v_bit == h over the independent current-state vars
};

/// Simultaneous-substitution map eliminating every dependent variable.
///
/// h_j may mention candidates extracted after j (they were still present
/// when h_j was computed), so the raw h's cannot be substituted in one shot.
/// Close them first: walk the deps in reverse extraction order, rewriting
/// each h_j over the later (already closed) h's; the closed functions then
/// mention independent variables only and substitute simultaneously.
class DepSubstituter {
 public:
  DepSubstituter(const Fsm& fsm, const std::vector<Dep>& deps)
      : mgr_(fsm.mgr()) {
    map_.resize(mgr_.varCount());
    for (unsigned v = 0; v < map_.size(); ++v) map_[v] = mgr_.varEdge(v);
    closed_.resize(deps.size());
    for (std::size_t j = deps.size(); j-- > 0;) {
      const unsigned v = fsm.vars().stateBit(deps[j].bit).cur;
      closed_[j] = deps[j].h.composeVec(map_);
      map_[v] = closed_[j].edge();
    }
  }

  [[nodiscard]] Bdd apply(const Bdd& f) const { return f.composeVec(map_); }

 private:
  BddManager& mgr_;
  std::vector<Edge> map_;
  std::vector<Bdd> closed_;  // keeps the map's edges alive
};

}  // namespace

EngineResult runFdForward(Fsm& fsm, std::vector<unsigned> candidateBits,
                          const EngineOptions& options) {
  return runEngine(fsm, Method::kFd, options, [&](EngineRun& run) {
    BddManager& mgr = fsm.mgr();
    EngineResult& result = run.result();
    const ConjunctList property = fsm.property(options.withAssists);

    // ---- initial dependency extraction from the initial states ----------
    Bdd reduced = fsm.init();
    std::vector<Dep> deps;
    std::unordered_set<unsigned> dependent;
    if (const EngineSnapshot* resume = run.resume([](const EngineSnapshot& s) {
          return s.lists.size() == 2 && s.lists[0].size() == 1 &&
                 s.lists[1].size() == s.numbers.size();
        })) {
      reduced = resume->lists[0][0];
      for (std::size_t d = 0; d < resume->numbers.size(); ++d) {
        const unsigned bit = static_cast<unsigned>(resume->numbers[d]);
        deps.push_back(Dep{bit, resume->lists[1][d]});
        dependent.insert(bit);
      }
    } else {
      for (const unsigned bit : candidateBits) {
        const unsigned v = fsm.vars().stateBit(bit).cur;
        const Bdd r1 = reduced.cofactor(v, true);
        const Bdd r0 = reduced.cofactor(v, false);
        if ((r1 & r0).isZero()) {
          deps.push_back(Dep{bit, r1});
          dependent.insert(bit);
          reduced = r1 | r0;  // == exists v . reduced
        }
      }
    }

    auto independentBits = [&] {
      std::vector<unsigned> out;
      for (unsigned k = 0; k < fsm.vars().stateBitCount(); ++k) {
        if (dependent.count(k) == 0) out.push_back(k);
      }
      return out;
    };

    auto promote = [&](std::size_t depIndex) {
      // Re-expand v == h into the reduced set and forget the dependency.
      const Dep dep = deps[depIndex];
      const unsigned v = fsm.vars().stateBit(dep.bit).cur;
      reduced &= mgr.var(v).xnor(dep.h);
      deps.erase(deps.begin() + static_cast<std::ptrdiff_t>(depIndex));
      dependent.erase(dep.bit);
      result.note += "promoted bit " + std::to_string(dep.bit) + "; ";
    };

    while (true) {
      // ---- peak metric: the factored representation's shared size -------
      {
        ConjunctList parts(&mgr, {reduced});
        for (const Dep& d : deps) parts.push(d.h);
        run.trackPeak(parts);
      }

      ICBDD_SAFE_POINT("fd loop head: reduced/deps are the whole state");
      if (run.checkpointDue()) {
        std::vector<Bdd> hs;
        std::vector<std::uint64_t> bits;
        hs.reserve(deps.size());
        bits.reserve(deps.size());
        for (const Dep& d : deps) {
          hs.push_back(d.h);
          bits.push_back(d.bit);
        }
        run.emitCheckpoint({{reduced}, std::move(hs)}, std::move(bits));
      }

      // ---- property check on the factored form ---------------------------
      const DepSubstituter subst(fsm, deps);
      bool violated = false;
      for (const Bdd& g : property) {
        const Bdd gReduced = subst.apply(g);
        if (!(reduced & !gReduced).isZero()) {
          violated = true;
          break;
        }
      }
      if (violated) {
        result.verdict = Verdict::kViolated;
        result.note += "FD does not reconstruct counterexample traces";
        break;
      }

      // ---- image over the independent bits -------------------------------
      if (!run.beginStep("image")) break;
      const std::vector<unsigned> ind = independentBits();
      std::vector<Bdd> nextFns(fsm.vars().stateBitCount());
      for (unsigned k = 0; k < fsm.vars().stateBitCount(); ++k) {
        nextFns[k] = subst.apply(fsm.next(k));
      }

      std::vector<Bdd> conjuncts;
      conjuncts.reserve(ind.size());
      for (const unsigned k : ind) {
        conjuncts.push_back(fsm.vars().nxt(k).xnor(nextFns[k]));
      }
      std::vector<unsigned> quantVars;
      for (const unsigned k : ind) {
        quantVars.push_back(fsm.vars().stateBit(k).cur);
      }
      for (const unsigned v : fsm.vars().inputVars()) quantVars.push_back(v);

      std::vector<unsigned> rename(mgr.varCount());
      for (unsigned v = 0; v < rename.size(); ++v) rename[v] = v;
      for (const unsigned k : ind) {
        rename[fsm.vars().stateBit(k).nxt] = fsm.vars().stateBit(k).cur;
      }

      const Bdd image = clusteredExistsProduct(mgr, reduced, conjuncts, quantVars,
                                          options.image.clusterCap)
                            .permute(rename);

      // ---- dependency functions in the image -----------------------------
      // One relational product per CHUNK of dependent bits (adjacent bits of
      // one counter usually share structure), then project each bit's
      // relation out of the chunk.  Keeps each product near the size of one
      // dependency relation while amortizing the shared T_ind work.
      constexpr std::size_t kDepChunk = 4;
      bool promoted = false;
      std::vector<Bdd> imageH(deps.size());
      for (std::size_t base = 0; base < deps.size() && !promoted;
           base += kDepChunk) {
        const std::size_t end = std::min(base + kDepChunk, deps.size());
        std::vector<Bdd> withDeps = conjuncts;
        std::vector<unsigned> renameD = rename;
        for (std::size_t d = base; d < end; ++d) {
          const unsigned bit = deps[d].bit;
          withDeps.push_back(fsm.vars().nxt(bit).xnor(nextFns[bit]));
          renameD[fsm.vars().stateBit(bit).nxt] = fsm.vars().stateBit(bit).cur;
        }
        const Bdd relChunk = clusteredExistsProduct(mgr, reduced, withDeps,
                                               quantVars,
                                               options.image.clusterCap)
                                 .permute(renameD);
        for (std::size_t d = base; d < end; ++d) {
          const unsigned v = fsm.vars().stateBit(deps[d].bit).cur;
          // Project the other chunk bits away before splitting on this one.
          std::vector<unsigned> others;
          for (std::size_t e = base; e < end; ++e) {
            if (e != d) others.push_back(fsm.vars().stateBit(deps[e].bit).cur);
          }
          const Bdd rel = relChunk.exists(Bdd(&mgr, mgr.cubeE(others)));
          const Bdd a1 = rel.cofactor(v, true);
          const Bdd a0 = rel.cofactor(v, false);
          if (!(a1 & a0).isZero()) {
            promote(d);  // not a function of the independents any more
            promoted = true;
            break;
          }
          imageH[d] = a1;
        }
      }

      if (promoted) {
        // This attempt's work is re-done next pass with the promoted bit
        // independent, under the same iteration number.
        run.abandonStep("image");
        continue;  // rebuild images with the bit independent
      }

      // ---- consistency on the overlap, then unite -------------------------
      const Bdd overlap = reduced & image;
      for (std::size_t d = 0; d < deps.size() && !promoted; ++d) {
        if (!((deps[d].h ^ imageH[d]) & overlap).isZero()) {
          promote(d);
          promoted = true;
        }
      }
      if (promoted) {
        run.abandonStep("image");
        continue;
      }

      // Iteration boundary: no edge-level results live (DepSubstituter maps
      // are rebuilt per step and rooted in handles), safe to reorder.
      ICBDD_SAFE_POINT("fd image complete, substituter maps rebuilt next step");
      run.endStep("image", [&] {
        std::vector<std::uint64_t> sizes{reduced.size()};
        for (const Dep& d : deps) sizes.push_back(d.h.size());
        return sizes;
      });

      // Converged when the image adds no new independent-part states AND
      // the image dependencies agree with the current ones on the image.
      bool hConsistent = true;
      for (std::size_t d = 0; d < deps.size(); ++d) {
        if (!((deps[d].h ^ imageH[d]) & image).isZero()) {
          hConsistent = false;
          break;
        }
      }
      if ((image & !reduced).isZero() && hConsistent) {
        result.verdict = Verdict::kHolds;
        break;
      }

      const Bdd united = reduced | image;
      for (std::size_t d = 0; d < deps.size(); ++d) {
        const Bdd merged = reduced.ite(deps[d].h, imageH[d]);
        deps[d].h = merged.restrictBy(united);
      }
      reduced = united;
    }
  });
}

}  // namespace icb
