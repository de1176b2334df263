// Bdd: RAII handle for a BDD function.
//
// A Bdd keeps its root node alive across garbage collections (the manager's
// mark phase starts from every node whose reference count is nonzero).
// Handles are cheap to copy (one refcount bump).  Because the underlying
// representation is canonical, operator== is a constant-time pointer compare.
//
// All Boolean operators trigger the manager's adaptive garbage collector
// before running, so user code never has to think about memory management.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bdd/manager.hpp"

namespace icb {

class Bdd {
 public:
  /// Null handle; most operations on it are invalid.  Exists so containers
  /// of Bdd are cheap to create.
  Bdd() = default;

  Bdd(BddManager* mgr, Edge e) : mgr_(mgr), e_(e) {
    if (mgr_ != nullptr) mgr_->ref(e_);
  }

  Bdd(const Bdd& other) : mgr_(other.mgr_), e_(other.e_) {
    if (mgr_ != nullptr) mgr_->ref(e_);
  }

  Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), e_(other.e_) {
    other.mgr_ = nullptr;
    other.e_ = kFalseEdge;
  }

  Bdd& operator=(const Bdd& other) {
    if (this != &other) {
      if (other.mgr_ != nullptr) other.mgr_->ref(other.e_);
      release();
      mgr_ = other.mgr_;
      e_ = other.e_;
    }
    return *this;
  }

  Bdd& operator=(Bdd&& other) noexcept {
    if (this != &other) {
      release();
      mgr_ = other.mgr_;
      e_ = other.e_;
      other.mgr_ = nullptr;
      other.e_ = kFalseEdge;
    }
    return *this;
  }

  ~Bdd() { release(); }

  // ---- identity ------------------------------------------------------------

  [[nodiscard]] bool isNull() const { return mgr_ == nullptr; }
  [[nodiscard]] BddManager* manager() const { return mgr_; }
  [[nodiscard]] Edge edge() const { return e_; }

  [[nodiscard]] bool isConstant() const { return edgeIsConstant(e_); }
  [[nodiscard]] bool isOne() const { return e_ == kTrueEdge; }
  [[nodiscard]] bool isZero() const { return e_ == kFalseEdge; }

  /// Canonical-form equality: same function iff same edge.
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.e_ == b.e_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) { return !(a == b); }

  /// Top variable (precondition: not constant).
  [[nodiscard]] unsigned topVar() const {
    assert(!isConstant());
    return mgr_->nodeVar(e_);
  }

  /// Then/else cofactors at the top variable.
  [[nodiscard]] Bdd high() const { return Bdd(mgr_, mgr_->edgeThen(e_)); }
  [[nodiscard]] Bdd low() const { return Bdd(mgr_, mgr_->edgeElse(e_)); }

  // ---- Boolean operations ---------------------------------------------------

  [[nodiscard]] Bdd operator!() const { return Bdd(mgr_, edgeNot(e_)); }
  [[nodiscard]] Bdd operator~() const { return Bdd(mgr_, edgeNot(e_)); }

  [[nodiscard]] Bdd operator&(const Bdd& g) const {
    checkSame(g);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->andE(e_, g.e_));
  }
  [[nodiscard]] Bdd operator|(const Bdd& g) const {
    checkSame(g);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->orE(e_, g.e_));
  }
  [[nodiscard]] Bdd operator^(const Bdd& g) const {
    checkSame(g);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->xorE(e_, g.e_));
  }
  Bdd& operator&=(const Bdd& g) { return *this = *this & g; }
  Bdd& operator|=(const Bdd& g) { return *this = *this | g; }
  Bdd& operator^=(const Bdd& g) { return *this = *this ^ g; }

  [[nodiscard]] Bdd xnor(const Bdd& g) const { return !(*this ^ g); }

  /// if-then-else with *this as the selector.
  [[nodiscard]] Bdd ite(const Bdd& g, const Bdd& h) const {
    checkSame(g);
    checkSame(h);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->iteE(e_, g.e_, h.e_));
  }

  /// Semantic implication test: does this ==> g hold everywhere?
  [[nodiscard]] bool implies(const Bdd& g) const {
    checkSame(g);
    mgr_->autoGc();
    return mgr_->andE(e_, edgeNot(g.e_)) == kFalseEdge;
  }

  /// True iff the two functions share no satisfying assignment.
  [[nodiscard]] bool disjointFrom(const Bdd& g) const {
    checkSame(g);
    mgr_->autoGc();
    return mgr_->andE(e_, g.e_) == kFalseEdge;
  }

  // ---- quantification / substitution ----------------------------------------

  [[nodiscard]] Bdd exists(const Bdd& cube) const {
    checkSame(cube);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->existsE(e_, cube.e_));
  }
  [[nodiscard]] Bdd forall(const Bdd& cube) const {
    checkSame(cube);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->forallE(e_, cube.e_));
  }
  [[nodiscard]] Bdd andExists(const Bdd& g, const Bdd& cube) const {
    checkSame(g);
    checkSame(cube);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->andExistsE(e_, g.e_, cube.e_));
  }

  [[nodiscard]] Bdd restrictBy(const Bdd& care) const {
    checkSame(care);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->restrictE(e_, care.e_));
  }
  [[nodiscard]] Bdd constrainBy(const Bdd& care) const {
    checkSame(care);
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->constrainE(e_, care.e_));
  }

  /// Simplifies against the implicit conjunction of several care sets at
  /// once (see BddManager::restrictMultiE).
  [[nodiscard]] Bdd restrictByAll(std::span<const Bdd> cares) const {
    std::vector<Edge> edges;
    edges.reserve(cares.size());
    for (const Bdd& c : cares) {
      checkSame(c);
      edges.push_back(c.e_);
    }
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->restrictMultiE(e_, edges));
  }

  [[nodiscard]] Bdd cofactor(unsigned var, bool value) const {
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->cofactorE(e_, var, value));
  }

  [[nodiscard]] Bdd composeVec(std::span<const Edge> map) const {
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->composeVecE(e_, map));
  }

  [[nodiscard]] Bdd permute(std::span<const unsigned> perm) const {
    mgr_->autoGc();
    return Bdd(mgr_, mgr_->permuteE(e_, perm));
  }

  // ---- analysis --------------------------------------------------------------

  [[nodiscard]] std::uint64_t size() const { return mgr_->sizeE(e_); }

  [[nodiscard]] double satCount(unsigned nvars) const {
    return mgr_->satCountE(e_, nvars);
  }

  [[nodiscard]] std::vector<unsigned> support() const {
    return mgr_->supportE(e_);
  }

  [[nodiscard]] bool eval(std::span<const char> values) const {
    return mgr_->evalE(e_, values);
  }

 private:
  void release() {
    if (mgr_ != nullptr) mgr_->deref(e_);
    mgr_ = nullptr;
  }

  void checkSame(const Bdd& other) const {
    if (mgr_ == nullptr || other.mgr_ != mgr_) {
      throw BddUsageError("Bdd operands belong to different managers");
    }
  }

  BddManager* mgr_ = nullptr;
  Edge e_ = kFalseEdge;
};

/// Copies `f` into `target` (see BddManager::transferFromE).
Bdd transferTo(BddManager& target, const Bdd& f);

/// Shared DAG size of a set of handles (Figure 1's BDDSize(X_i, X_j)).
std::uint64_t sharedSize(std::span<const Bdd> fs);

}  // namespace icb
