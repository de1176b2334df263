// The two care-set simplification operators of Coudert, Berthet and Madre:
//
//   Restrict(f, c)  -- sibling-substitution simplification.  Returns f' with
//                      f' & c == f & c; when c skips a whole variable the
//                      operator merges f's cofactor pair, which is what makes
//                      it effective at *shrinking* BDDs.  This is the
//                      BDDSimplify the paper uses, and the operator for which
//                      Theorem 3 holds (a | b tautology iff Restrict(a, !b)
//                      tautology), which gives the exact termination test its
//                      step-3 shortcut for free.
//
//   Constrain(f, c) -- the generalized cofactor.  Same care-set contract plus
//                      the image property Image(f, c) = Constrain(f, c)'s
//                      range; it never skips levels and can therefore blow up.
//
// Both return f unchanged when c == FALSE (any result would satisfy the
// contract vacuously; callers in this library treat an all-false care set
// before calling).
#include <algorithm>

#include "bdd/manager.hpp"
#include "check/check.hpp"

namespace icb {

Edge BddManager::restrictE(Edge f, Edge c) {
  ICBDD_CHECK(kCheap, validateEdge(f); validateEdge(c));
  ++stats_.restrictCalls;
  return restrictRec(f, c);
}

Edge BddManager::constrainE(Edge f, Edge c) {
  ICBDD_CHECK(kCheap, validateEdge(f); validateEdge(c));
  ++stats_.constrainCalls;
  return constrainRec(f, c);
}

Edge BddManager::restrictRec(Edge f, Edge c) {
  if (c == kTrueEdge || edgeIsConstant(f)) return f;
  if (c == kFalseEdge) return f;  // vacuous contract; see header comment
  if (f == c) return kTrueEdge;
  if (f == edgeNot(c)) return kFalseEdge;

  Edge cached;
  if (cacheLookup(Op::kRestrict, f, c, 0, &cached)) return cached;

  const unsigned lf = edgeLevel(f);
  const unsigned lc = edgeLevel(c);

  Edge result;
  if (lc < lf) {
    // f does not depend on c's top variable: merge c's cofactors and retry.
    result = restrictRec(f, orE(edgeThen(c), edgeElse(c)));
  } else {
    const unsigned var = nodeVar(f);
    const Edge c1 = lc == lf ? edgeThen(c) : c;
    const Edge c0 = lc == lf ? edgeElse(c) : c;
    if (c1 == kFalseEdge) {
      result = restrictRec(edgeElse(f), c0);
    } else if (c0 == kFalseEdge) {
      result = restrictRec(edgeThen(f), c1);
    } else {
      const Edge r1 = restrictRec(edgeThen(f), c1);
      const Edge r0 = restrictRec(edgeElse(f), c0);
      result = mk(var, r1, r0);
    }
  }

  cacheInsert(Op::kRestrict, f, c, 0, result);
  return result;
}

Edge BddManager::constrainRec(Edge f, Edge c) {
  if (c == kTrueEdge || edgeIsConstant(f)) return f;
  if (c == kFalseEdge) return f;  // vacuous contract
  if (f == c) return kTrueEdge;
  if (f == edgeNot(c)) return kFalseEdge;

  Edge cached;
  if (cacheLookup(Op::kConstrain, f, c, 0, &cached)) return cached;

  const unsigned lf = edgeLevel(f);
  const unsigned lc = edgeLevel(c);
  const unsigned top = std::min(lf, lc);
  const unsigned var = level2var_[top];

  const Edge f1 = lf == top ? edgeThen(f) : f;
  const Edge f0 = lf == top ? edgeElse(f) : f;
  const Edge c1 = lc == top ? edgeThen(c) : c;
  const Edge c0 = lc == top ? edgeElse(c) : c;

  Edge result;
  if (c1 == kFalseEdge) {
    result = constrainRec(f0, c0);
  } else if (c0 == kFalseEdge) {
    result = constrainRec(f1, c1);
  } else {
    const Edge r1 = constrainRec(f1, c1);
    const Edge r0 = constrainRec(f0, c0);
    result = mk(var, r1, r0);
  }

  cacheInsert(Op::kConstrain, f, c, 0, result);
  return result;
}

}  // namespace icb
