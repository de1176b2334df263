// Core Boolean operators: AND, XOR, ITE.
//
// Each operator normalizes its arguments before the cache probe so that
// equivalent calls share cache entries (standard efficient-BDD practice):
//   * AND: commutative -> order operands by edge value,
//   * XOR: complement bits factor out -> strip them, remember the parity,
//   * ITE: constant/absorption rules first, then make f and g plain.
#include <algorithm>

#include "bdd/manager.hpp"
#include "check/check.hpp"

namespace icb {

// The non-recursive wrappers are the operator entry points; at kCheap they
// validate that every argument and result edge points at a live node (a
// stale edge-level value surviving past a GC is the classic misuse the
// manager header warns about).  The recursive workers stay check-free.

Edge BddManager::andE(Edge f, Edge g) {
  ICBDD_CHECK(kCheap, validateEdge(f); validateEdge(g));
  const BddOpTimer timer(stats_, BddOp::kAnd);
  const Edge result = andRec(f, g);
  ICBDD_CHECK(kCheap, validateEdge(result));
  return result;
}

Edge BddManager::xorE(Edge f, Edge g) {
  ICBDD_CHECK(kCheap, validateEdge(f); validateEdge(g));
  const BddOpTimer timer(stats_, BddOp::kXor);
  const Edge result = xorRec(f, g);
  ICBDD_CHECK(kCheap, validateEdge(result));
  return result;
}

Edge BddManager::iteE(Edge f, Edge g, Edge h) {
  ICBDD_CHECK(kCheap, validateEdge(f); validateEdge(g); validateEdge(h));
  const BddOpTimer timer(stats_, BddOp::kIte);
  const Edge result = iteRec(f, g, h);
  ICBDD_CHECK(kCheap, validateEdge(result));
  return result;
}

Edge BddManager::andRec(Edge f, Edge g) {
  // terminal cases
  if (f == kFalseEdge || g == kFalseEdge) return kFalseEdge;
  if (f == kTrueEdge) return g;
  if (g == kTrueEdge) return f;
  if (f == g) return f;
  if (f == edgeNot(g)) return kFalseEdge;

  if (f > g) std::swap(f, g);

  Edge cached;
  if (cacheLookup(Op::kAnd, f, g, 0, &cached)) return cached;

  const unsigned lf = edgeLevel(f);
  const unsigned lg = edgeLevel(g);
  const unsigned top = std::min(lf, lg);
  const unsigned var = level2var_[top];

  const Edge f1 = lf == top ? edgeThen(f) : f;
  const Edge f0 = lf == top ? edgeElse(f) : f;
  const Edge g1 = lg == top ? edgeThen(g) : g;
  const Edge g0 = lg == top ? edgeElse(g) : g;

  const Edge r1 = andRec(f1, g1);
  const Edge r0 = andRec(f0, g0);
  const Edge result = mk(var, r1, r0);

  cacheInsert(Op::kAnd, f, g, 0, result);
  return result;
}

Edge BddManager::xorRec(Edge f, Edge g) {
  if (f == kFalseEdge) return g;
  if (g == kFalseEdge) return f;
  if (f == kTrueEdge) return edgeNot(g);
  if (g == kTrueEdge) return edgeNot(f);
  if (f == g) return kFalseEdge;
  if (f == edgeNot(g)) return kTrueEdge;

  // xor(!f, g) == !xor(f, g): strip complements, track the parity.
  Edge parity = (f & 1u) ^ (g & 1u);
  f = edgeRegular(f);
  g = edgeRegular(g);
  if (f > g) std::swap(f, g);

  Edge cached;
  if (cacheLookup(Op::kXor, f, g, 0, &cached)) return cached ^ parity;

  const unsigned lf = edgeLevel(f);
  const unsigned lg = edgeLevel(g);
  const unsigned top = std::min(lf, lg);
  const unsigned var = level2var_[top];

  const Edge f1 = lf == top ? edgeThen(f) : f;
  const Edge f0 = lf == top ? edgeElse(f) : f;
  const Edge g1 = lg == top ? edgeThen(g) : g;
  const Edge g0 = lg == top ? edgeElse(g) : g;

  const Edge r1 = xorRec(f1, g1);
  const Edge r0 = xorRec(f0, g0);
  const Edge result = mk(var, r1, r0);

  cacheInsert(Op::kXor, f, g, 0, result);
  return result ^ parity;
}

Edge BddManager::iteRec(Edge f, Edge g, Edge h) {
  // terminal and absorption cases
  if (f == kTrueEdge) return g;
  if (f == kFalseEdge) return h;
  if (g == h) return g;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return edgeNot(f);
  if (f == g) g = kTrueEdge;           // ite(f, f, h) = f | h
  else if (f == edgeNot(g)) g = kFalseEdge;
  if (f == h) h = kFalseEdge;          // ite(f, g, f) = f & g
  else if (f == edgeNot(h)) h = kTrueEdge;

  // Re-check the two-operand special cases the rewrites may have exposed.
  if (g == h) return g;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return edgeNot(f);
  if (g == kTrueEdge) return edgeNot(andRec(edgeNot(f), edgeNot(h)));  // f | h
  if (g == kFalseEdge) return andRec(edgeNot(f), h);
  if (h == kFalseEdge) return andRec(f, g);
  if (h == kTrueEdge) return edgeNot(andRec(f, edgeNot(g)));  // !f | g

  // canonical complements: make f plain, then g plain.
  if (edgeIsComplemented(f)) {
    f = edgeNot(f);
    std::swap(g, h);
  }
  Edge parity = 0;
  if (edgeIsComplemented(g)) {
    parity = 1;
    g = edgeNot(g);
    h = edgeNot(h);
  }

  Edge cached;
  if (cacheLookup(Op::kIte, f, g, h, &cached)) return cached ^ parity;

  const unsigned lf = edgeLevel(f);
  const unsigned lg = edgeLevel(g);
  const unsigned lh = edgeLevel(h);
  const unsigned top = std::min({lf, lg, lh});
  const unsigned var = level2var_[top];

  const Edge f1 = lf == top ? edgeThen(f) : f;
  const Edge f0 = lf == top ? edgeElse(f) : f;
  const Edge g1 = lg == top ? edgeThen(g) : g;
  const Edge g0 = lg == top ? edgeElse(g) : g;
  const Edge h1 = lh == top ? edgeThen(h) : h;
  const Edge h0 = lh == top ? edgeElse(h) : h;

  const Edge r1 = iteRec(f1, g1, h1);
  const Edge r0 = iteRec(f0, g0, h0);
  const Edge result = mk(var, r1, r0);

  cacheInsert(Op::kIte, f, g, h, result);
  return result ^ parity;
}

}  // namespace icb
