// Quantification operators: EXISTS over a positive cube and the fused
// relational product AND-EXISTS (used by the image computation so the
// intermediate conjunction never has to be built in full).
#include <algorithm>

#include "bdd/manager.hpp"
#include "check/check.hpp"

namespace icb {

namespace {

/// Positive cubes are right-leaning chains: node(var, rest, FALSE).
/// Returns the rest of the cube after its top variable.
inline Edge cubeNext(const BddManager& mgr, Edge cube) {
  return mgr.edgeThen(cube);
}

}  // namespace

Edge BddManager::existsE(Edge f, Edge cube) {
  ICBDD_CHECK(kCheap, validateEdge(f); validateEdge(cube));
  return existsRec(f, cube);
}

Edge BddManager::andExistsE(Edge f, Edge g, Edge cube) {
  ICBDD_CHECK(kCheap, validateEdge(f); validateEdge(g); validateEdge(cube));
  return andExistsRec(f, g, cube);
}

Edge BddManager::cubeE(std::span<const unsigned> vars) {
  // Build bottom-up in order, deepest variable first.
  std::vector<unsigned> sorted(vars.begin(), vars.end());
  std::sort(sorted.begin(), sorted.end(),
            [this](unsigned a, unsigned b) { return varLevel(a) > varLevel(b); });
  Edge acc = kTrueEdge;
  for (const unsigned v : sorted) {
    if (v >= varEdges_.size()) throw BddUsageError("cube var out of range");
    acc = mk(v, acc, kFalseEdge);
  }
  return acc;
}

Edge BddManager::existsRec(Edge f, Edge cube) {
  if (edgeIsConstant(f)) return f;
  // Skip cube variables above f's top: they don't occur in f.
  unsigned lf = edgeLevel(f);
  while (cube != kTrueEdge && edgeLevel(cube) < lf) {
    cube = cubeNext(*this, cube);
  }
  if (cube == kTrueEdge) return f;

  Edge cached;
  if (cacheLookup(Op::kExists, f, cube, 0, &cached)) return cached;

  const unsigned lc = edgeLevel(cube);
  const unsigned var = nodeVar(f);
  Edge result;
  if (lf == lc) {
    // Quantify this variable: OR of the cofactors.
    const Edge rest = cubeNext(*this, cube);
    const Edge r1 = existsRec(edgeThen(f), rest);
    if (r1 == kTrueEdge) {
      result = kTrueEdge;  // early cutoff: OR already saturated
    } else {
      const Edge r0 = existsRec(edgeElse(f), rest);
      result = orE(r1, r0);
    }
  } else {
    const Edge r1 = existsRec(edgeThen(f), cube);
    const Edge r0 = existsRec(edgeElse(f), cube);
    result = mk(var, r1, r0);
  }

  cacheInsert(Op::kExists, f, cube, 0, result);
  return result;
}

Edge BddManager::andExistsRec(Edge f, Edge g, Edge cube) {
  if (f == kFalseEdge || g == kFalseEdge) return kFalseEdge;
  if (f == edgeNot(g)) return kFalseEdge;
  if (f == kTrueEdge || f == g) return existsRec(g, cube);
  if (g == kTrueEdge) return existsRec(f, cube);
  // Both non-constant from here.
  const unsigned lf = edgeLevel(f);
  const unsigned lg = edgeLevel(g);
  unsigned top = std::min(lf, lg);
  while (cube != kTrueEdge && edgeLevel(cube) < top) {
    cube = cubeNext(*this, cube);
  }
  if (cube == kTrueEdge) return andRec(f, g);

  if (f > g) std::swap(f, g);
  Edge cached;
  if (cacheLookup(Op::kAndExists, f, g, cube, &cached)) return cached;

  const unsigned lf2 = edgeLevel(f);
  const unsigned lg2 = edgeLevel(g);
  const unsigned var = level2var_[top];
  const Edge f1 = lf2 == top ? edgeThen(f) : f;
  const Edge f0 = lf2 == top ? edgeElse(f) : f;
  const Edge g1 = lg2 == top ? edgeThen(g) : g;
  const Edge g0 = lg2 == top ? edgeElse(g) : g;

  Edge result;
  if (edgeLevel(cube) == top) {
    const Edge rest = cubeNext(*this, cube);
    const Edge r1 = andExistsRec(f1, g1, rest);
    if (r1 == kTrueEdge) {
      result = kTrueEdge;
    } else {
      const Edge r0 = andExistsRec(f0, g0, rest);
      result = orE(r1, r0);
    }
  } else {
    const Edge r1 = andExistsRec(f1, g1, cube);
    const Edge r0 = andExistsRec(f0, g0, cube);
    result = mk(var, r1, r0);
  }

  cacheInsert(Op::kAndExists, f, g, cube, result);
  return result;
}

}  // namespace icb
